"""Fast self-test of the benchmark harness on tiny inputs.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that a wrong expected value shows up as a failed job, that every
count of two traced passes is identical, that another seed changes the
forms but not the job sizes, and that BENCHMARK.json names exactly the
metrics the harness prints.  Exits 0 when every check holds.
"""

import copy
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def tiny_jobs(seed, threads):
    """A few jobs on (2,4,3), plus a pooled sweep so the pool layer runs."""
    jobs = [workloads.cli_job("count", 2, 4, 3, "--method", "both")]
    jobs += workloads.weight_jobs(seed, [(2, 4, 3)])[:2]
    jobs.append(workloads.cli_job("asympt", 1, 3, 0, "--q-list", "2,3", threads=threads))
    jobs.append(workloads.Job(key="norms 2 4 3", kind="norms", shape=(2, 4, 3)))
    return jobs


def check_wrong_value_fails(jobs, expected):
    result = harness.run_pass(jobs, expected)
    assert result["failures"] == {}, result["failures"]
    wrong = copy.deepcopy(expected)
    count_key = jobs[0].key
    wrong["outputs"][count_key]["gamma"] = str(int(wrong["outputs"][count_key]["gamma"]) + 1)
    result = harness.run_pass(jobs, wrong)
    assert list(result["failures"]) == [f"0: {count_key}"], result["failures"]
    weight_key = jobs[1].key
    wrong["outputs"][weight_key]["weight_direct"] = "0"
    result = harness.run_pass(jobs, wrong)
    assert set(result["failures"]) == {f"0: {count_key}", f"1: {weight_key}"}, \
        result["failures"]


def check_traced_counts_repeat(jobs, expected, threads):
    first = harness.run_pass(jobs, expected, traced=True)["layers"]
    second = harness.run_pass(jobs, expected, traced=True)["layers"]
    exact = [name for name, unit, _ in tracer.PER_LAYER
             if unit in tracer.EXACT_UNITS and name in first]
    moved = [name for name in exact if first[name] != second[name]]
    assert not moved, moved
    assert first["cli.jobs"] == len(jobs) - 1, first["cli.jobs"]
    assert first["census.scan.calls"] >= 1 and first["census.filter.calls"] == 1
    assert first["fields.gf_ops"] > 0
    assert first["exterior.form_weight.recursive.calls"] == 2, first
    assert first["asymptotics.validation_scans"] == 4
    if threads > 1:
        assert first["census.pools_started"] >= 1
        assert first["census.task_s_max"] > 0


def check_seed_changes_forms_only():
    a = workloads.build("plucker-oracles", 1, 1)
    b = workloads.build("plucker-oracles", 2, 1)
    assert [(j.key, j.kind, j.shape) for j in a] == [(j.key, j.kind, j.shape) for j in b]
    forms_a = [j.argv for j in a if j.kind == "weight"]
    forms_b = [j.argv for j in b if j.kind == "weight"]
    assert forms_a and all(x != y for x, y in zip(forms_a, forms_b))
    assert [j.argv for j in a if j.kind != "weight"] == \
        [j.argv for j in b if j.kind != "weight"]
    assert a == workloads.build("plucker-oracles", 1, 1)
    # same job sizes: the kernel of every form keeps its dimension
    from mdscensus.exterior import DualForm, form_profile
    from mdscensus.fields import field_of_order
    for x, y in zip(forms_a, forms_b):
        k, n, q = (int(x[i]) for i in (2, 4, 6))
        gf = field_of_order(q)
        dims = [form_profile(DualForm.from_terms(
            gf, k, n, [(tuple(t["index"]), t["coeff"])
                       for t in json.loads(argv[argv.index("--form") + 1])])).v_omega.rows
            for argv in (x, y)]
        assert dims[0] == dims[1], (x, y, dims)


def check_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracer.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m[1], m[2]) for m in tracer.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def main():
    if not __debug__:
        print("error: the self-test needs assertions; run it without -O",
              file=sys.stderr)
        return 2
    threads = max(1, min(2, run._nproc()))
    jobs = tiny_jobs(1, threads)
    expected = {"outputs": {}}
    for job in jobs:
        payload = harness.execute(job)
        assert not isinstance(payload, str), (job.key, payload)
        expected["outputs"][job.key] = payload
    checks = [
        ("a wrong expected value fails its job",
         lambda: check_wrong_value_fails(jobs, expected)),
        ("counts of two traced passes are identical",
         lambda: check_traced_counts_repeat(jobs, expected, threads)),
        ("another seed changes the forms, not the job sizes",
         check_seed_changes_forms_only),
        ("BENCHMARK.json names the metrics the harness prints",
         check_benchmark_json),
    ]
    failed = 0
    for claim, fn in checks:
        try:
            fn()
            print(f"PASS {claim}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {claim}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
