"""Record the exact outputs the benchmark checks against (expected.json).

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/record.py

It runs every job of every workload once for workloads.DEFAULT_SEED, checks
the cross-route agreements the program does not check itself, and writes
expected.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def _cross_checks(outputs):
    """Agreements between routes that no single job checks."""
    from mdscensus.census import gamma_closed_form

    problems = []
    for key, payload in outputs.items():
        kind = key.split()[0]
        if kind == "count" and payload["k"] <= 2:
            closed = gamma_closed_form(payload["k"], payload["n"], payload["q"])
            if int(payload["gamma"]) != closed:
                problems.append(f"{key}: gamma differs from the closed form")
        if kind == "incl-excl" and payload.get("match") is not True:
            problems.append(f"{key}: reconstruction differs from the census")
        if kind == "norms":
            k, n, q = key.split()[1:]
            rows = outputs[f"sections --k {k} --n {n} --q {q} --max-r 2"]["rows"]
            by_pair = {r["indices"]: int(r["norm"]) for r in rows if r["r"] == 2}
            for row in payload["rows"]:
                name = ";".join(".".join(map(str, idx)) for idx in row["indices"])
                if by_pair[name] != row["point_scan"]:
                    problems.append(f"{key}: {name} differs from `mds sections`")
    return problems


def main():
    outputs = {}
    jobs = [job for name in workloads.WORKLOADS
            for job in workloads.build(name, workloads.DEFAULT_SEED, 1)]
    jobs += [job for row in workloads.roadmap_rows(1) for job in row[2]]
    for job in jobs:
        if job.key not in outputs:
            payload = harness.execute(job)
            if isinstance(payload, str):
                raise SystemExit(f"{job.key}: {payload}")
            outputs[job.key] = payload
    problems = _cross_checks(outputs)
    # a weight does not change under GL(n, q): another seed must agree
    for job in workloads.weight_jobs(workloads.DEFAULT_SEED + 1, workloads.WEIGHT_SHAPES):
        if harness.execute(job) != outputs[job.key]:
            problems.append(f"{job.key}: weight moved with the seed")
    if problems:
        raise SystemExit("\n".join(problems))
    expected = {"seed": workloads.DEFAULT_SEED, "outputs": outputs}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(outputs)} outputs in {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
