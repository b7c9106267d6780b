"""Passes over a workload's jobs, each in a fresh forked process.

A pass runs every job of the workload once, in order.  It runs in a child
forked from a parent that has imported mdscensus but run nothing, so every
pass starts with the package's caches empty, like a fresh `mds` process
whose import cost is measured separately as setup_s.  The child times its
jobs, checks their outputs, and sends one JSON record back through a pipe.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import tracer
import workloads


def execute(job):
    """Run one job; return its payload without elapsed_ms, or an error string."""
    try:
        if job.kind == "norms":
            return workloads.run_norms(*job.shape)
        from mdscensus import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(job.argv))
        if status != 0:
            return f"exit {status}: {err.getvalue().strip()}"
        payload = json.loads(out.getvalue())
        payload.pop("elapsed_ms", None)
        return payload
    except Exception as exc:  # a failing job is counted; the pass goes on
        return f"{type(exc).__name__}: {exc}"


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def pass_body(jobs, expected, traced):
    """Run and check every job once in this process; returns the pass record."""
    spans = None
    if traced:
        spans = tracer.Tracer()
        tracer.install(spans)
    outputs = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for job_id, job in enumerate(jobs):
        if spans is not None:
            spans.job_id = job_id
        outputs.append(execute(job))
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    failures = {}
    for job_id, (job, output) in enumerate(zip(jobs, outputs)):
        reason = workloads.check(job, output, expected)
        if reason is not None:
            failures[f"{job_id}: {job.key}"] = reason
    record = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mib(),
              "failures": failures}
    if spans is not None:
        record["layers"] = spans.metrics()
    return record


def run_pass(jobs, expected, traced=False):
    """pass_body() in a forked child; a child that dies fails every job."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = json.dumps(pass_body(jobs, expected, traced)).encode()
            with os.fdopen(write_fd, "wb") as handle:
                handle.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as handle:
        data = handle.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        failures = {f"{job_id}: {job.key}": "pass process failed"
                    for job_id, job in enumerate(jobs)}
        return {"wall_s": None, "failures": failures}
    return json.loads(data)
