"""Record a baseline: the ROADMAP rows and one run of every workload.

Run from the root of a checkout:

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Each ROADMAP row runs as its own small job list: the median of three
untraced passes gives its time and one traced pass gives the per-layer
numbers beside it.  Then every workload runs once untraced (end-to-end
metrics) and once traced (per-layer metrics), as run.py does, with the
default seed and the run_seconds of BENCHMARK.json.  The result
and the machine record go to one JSON file, and a markdown table of the
rows is printed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROW_PASSES = 3
BENCHMARK_PATH = ROOT / "BENCHMARK.json"


def measure_rows(expected, threads):
    rows = []
    for label, figure, jobs, layer_names in workloads.roadmap_rows(threads):
        plain = [harness.run_pass(jobs, expected) for _ in range(ROW_PASSES)]
        traced = harness.run_pass(jobs, expected, traced=True)
        failures = {}
        for record in plain + [traced]:
            failures.update(record["failures"])
        layers = traced.get("layers", {})
        rows.append({
            "row": label,
            "roadmap": figure,
            "wall_s": statistics.median(r["wall_s"] for r in plain
                                        if r["wall_s"] is not None),
            "pass_wall_s": [r["wall_s"] for r in plain],
            "layers": {name: layers.get(name) for name in layer_names},
            "failures": failures,
        })
    return rows


def markdown(rows):
    lines = ["| ROADMAP row | ROADMAP | this baseline | per-layer (traced pass) |",
             "| --- | --- | --- | --- |"]
    for row in rows:
        layers = ", ".join(f"{name} = {_fmt(value)}"
                           for name, value in row["layers"].items())
        lines.append(f"| {row['row']} | {row['roadmap']} | "
                     f"{_fmt(row['wall_s'])} s | {layers} |")
    return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).with_name("baseline.json")))
    args = parser.parse_args()
    seed = workloads.DEFAULT_SEED
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        seconds = float(json.load(handle)["run_seconds"])
    expected = workloads.load_expected()
    machine = run.machine_record(ROOT)
    threads = max(1, min(workloads.ASYMPT_THREADS, machine["nproc"]))
    rows = measure_rows(expected, threads)
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            info, result = run.run_workload(name, seed, seconds,
                                            bool(trace), ROOT, expected, threads)
            results[name][f"trace{trace}"] = {"record": info, "result": result}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"machine": machine, "threads": threads, "seed": seed,
                   "seconds": seconds, "roadmap_rows": rows,
                   "workloads": results}, handle, indent=1)
        handle.write("\n")
    print(markdown(rows))
    failed = [row["row"] for row in rows if row["failures"]]
    failed += [name for name, r in results.items()
               if not all(t["result"]["correct"] for t in r.values())]
    if failed:
        print(f"not correct: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
