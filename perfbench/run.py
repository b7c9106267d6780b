"""Benchmark of mdscensus: fixed `mds` workloads, checked against exact values.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-cross --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb); --trace 1 runs traced and untraced passes alternately and
prints the per-layer metrics of tracer.PER_LAYER.  --workload all runs every
workload and prints one table.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The lines
before it carry the machine record and fail_ratio.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracer
import workloads

SETUP_SAMPLES = 12          # at least, per untraced run
SETUP_SAMPLES_PER_PASS = 2
MIN_PASSES = 3          # timed passes per run, whatever --seconds says
MIN_TRACED_PASSES = 2   # of each kind in a traced run
SETUP_CODE = (
    "import sys\n"
    "import mdscensus\n"
    "from mdscensus.fields import field_of_order\n"
    "for q in sys.argv[1:]:\n"
    "    field_of_order(int(q))\n"
)
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------------
# Machine record.
# ---------------------------------------------------------------------------

def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _source_digest(src):
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(root):
    import numpy

    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src" / "mdscensus"),
    }


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

def setup_command(src, orders):
    """A fresh interpreter that imports mdscensus and builds the fields."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return [sys.executable, "-c", SETUP_CODE, *map(str, orders)], env


def time_setup(command):
    argv, env = command
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_passes(jobs, expected, seconds, trace, before_pass=None):
    """Passes until `seconds` have gone by; alternate untraced and traced
    passes when trace is set; call before_pass() ahead of each pass.
    Returns (untraced, traced, attempted, failures)."""
    plain, traced = [], []
    attempted = 0
    failures = {}
    deadline = time.perf_counter() + seconds
    while True:
        if trace:
            done = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
            traced_pass = len(traced) < len(plain)
        else:
            done = len(plain) >= MIN_PASSES
            traced_pass = False
        if done and time.perf_counter() >= deadline:
            break
        if before_pass is not None:
            before_pass()
        record = harness.run_pass(jobs, expected, traced_pass)
        attempted += len(jobs)
        failures.update(record["failures"])
        record["failed"] = len(record["failures"])
        (traced if traced_pass else plain).append(record)
    return plain, traced, attempted, failures


def _median(records, key):
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else None


def end_to_end(plain, setup_s):
    return {
        "wall_s": _median(plain, "wall_s"),
        "cpu_s": _median(plain, "cpu_s"),
        "setup_s": setup_s,
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
    }


def per_layer(plain, traced):
    """Per-layer metrics; returns (metrics, names of counts that moved)."""
    layers = [r["layers"] for r in traced if "layers" in r]
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    metrics, unsteady = {}, []
    for name, unit, _ in tracer.PER_LAYER:
        if name == "trace.overhead_s" or not layers:
            continue
        values = [layer[name] for layer in layers]
        if unit in tracer.EXACT_UNITS:
            if any(v != values[0] for v in values):
                unsteady.append(name)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    traced_wall, plain_wall = _median(traced, "wall_s"), _median(plain, "wall_s")
    if traced_wall is not None and plain_wall is not None:
        metrics["trace.overhead_s"] = traced_wall - plain_wall
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}, unsteady


def run_workload(name, seed, seconds, trace, root, expected, threads):
    jobs = workloads.build(name, seed, threads)
    setup_times, before_pass = [], None
    if not trace:
        # set-up samples are spread over the run, so that one slow
        # second of a shared machine does not set the median
        command = setup_command(root / "src", workloads.field_orders(jobs))

        def before_pass():
            for _ in range(SETUP_SAMPLES_PER_PASS):
                setup_times.append(time_setup(command))

    plain, traced, attempted, failures = run_passes(jobs, expected, seconds,
                                                    trace, before_pass)
    setup_s = None
    if not trace:
        while len(setup_times) < SETUP_SAMPLES:
            setup_times.append(time_setup(command))
        setup_s = statistics.median(setup_times)
    failed = sum(r["failed"] for r in plain + traced)
    if trace:
        metrics, unsteady = per_layer(plain, traced)
    else:
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in end_to_end(plain, setup_s).items()}
        unsteady = []
    complete = all(m["value"] is not None for m in metrics.values())
    info = {
        "workload": name,
        "seed": seed,
        "jobs_per_pass": len(jobs),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_wall_s": [r["wall_s"] for r in plain],
        "setup_samples": len(setup_times),
        "fail_ratio": failed / attempted,
        "failures": dict(sorted(failures.items())[:10]),
        "counts_that_moved": unsteady,
    }
    result = {
        "correct": failed == 0 and not unsteady and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def _print_table(name, info, result):
    print(f"# {name}: {info['passes']} passes of {info['jobs_per_pass']} jobs, "
          f"fail_ratio = {info['fail_ratio']} ({result['failed']}/{result['attempted']})")
    for metric, entry in result["metrics"].items():
        print(f"#   {metric} = {entry['value']} {entry['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "mdscensus" / "__init__.py").is_file():
        print("error: src/mdscensus not found; run from the root of an "
              "mdscensus checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mdscensus

    if Path(mdscensus.__file__).resolve().parent != (src / "mdscensus").resolve():
        print(f"error: imported mdscensus from {mdscensus.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    machine = machine_record(root)
    # never ask the program for more workers than this machine has
    threads = max(1, min(workloads.ASYMPT_THREADS, machine["nproc"]))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        info, result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    root, expected, threads)
        info["machine"] = machine
        info["threads"] = threads
        print(json.dumps({"record": info}))
        _print_table(name, info, result)
        results[name] = result
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
