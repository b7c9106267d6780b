"""Acceptance suite: one test per entry of the check registry behind
`mds verify`, each printing its verdict, time and budget.  Run with
`pytest tests/test_acceptance.py -v -s`.
"""

from mdscensus.verify import REGISTRY, run_check


def _registry_test(entry):
    def test():
        result = run_check(entry)
        print(result.line())
        assert result.passed, result.line()

    return test


# entry `criterion-01-a2-golden-table` runs as test_criterion_01_a2_golden_table
for _entry in REGISTRY:
    globals()["test_" + _entry.name.replace("-", "_")] = _registry_test(_entry)
