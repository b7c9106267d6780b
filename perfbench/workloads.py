"""The benchmark's workloads: fixed `mds` jobs and the checks on their output.

A workload is a list of jobs run one after another by one client (a closed
loop).  Jobs go through `mdscensus.cli.main(argv)` where a subcommand
exists and through the package's public functions otherwise.  The seed only
moves the k-forms of `plucker-oracles`: each weight job takes a fixed
representative form and pulls it back along a random invertible matrix drawn
from the seed.  The weight and the kernel dimension of a form do not change
under GL(n, q), so a seed changes the forms but neither the job sizes nor
the expected weights.

Every output is compared with the value recorded in expected.json, written
by record.py.
"""

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# census-cross: (3,6,5) runs the prime int64 path with minors of order 2
# and 3; (2,6,8) runs the extension-field int16 table path.
CENSUS_GRID = ((3, 6, 5), (2, 6, 8))
# asympt-sweep: (3,6) scans every q; the k <= 2 families use closed forms
# after four validation scans each, so the pool starts many times on tiny
# work as well as on large work.  Every sweep runs serially, then on the
# pool: the serial half is the pool's reference, and it keeps the share of
# the pass that needs two CPUs free at once under half; on a shared machine
# that share is what makes pooled wall time drift from run to run.
ASYMPT_K3 = ((3, 6), (2, 3, 4, 5, 7))
ASYMPT_FAMILIES = tuple((2, n) for n in range(4, 8)) + tuple((1, n) for n in range(3, 7))
ASYMPT_Q_MAX = 64
ASYMPT_THREADS = 2
# plucker-oracles
WEIGHT_SHAPES = ((2, 4, 3), (2, 5, 2), (3, 6, 2), (2, 5, 3))  # q prime
FORMS_PER_SHAPE = 8
SECTION_SHAPE = (2, 5)
SECTION_QS = (2, 3, 4, 5)

WORKLOADS = ("census-cross", "asympt-sweep", "plucker-oracles")


@dataclass(frozen=True)
class Job:
    key: str        # names the job in expected.json; never holds --threads
    kind: str       # the mds subcommand, or "norms" for the library job
    shape: tuple    # (k, n, q); q is 0 for an asympt sweep
    argv: tuple = ()  # mds arguments; empty for the library job


def prime_powers(limit):
    from mdscensus.errors import NonPrimePower
    from mdscensus.fields import factor_prime_power

    out = []
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
        except NonPrimePower:
            continue
        out.append(q)
    return out


def multi_indices(k, n):
    """The library's k-subsets of 1..n, in its order (imported on first use,
    once run.py has put src on the path)."""
    from mdscensus.exterior import multi_indices

    return multi_indices(k, n)


def cli_job(kind, k, n, q, *rest, threads=1, key=None):
    argv = (kind, "--k", str(k), "--n", str(n))
    if q:
        argv += ("--q", str(q))
    argv += tuple(rest)
    return Job(key=key or " ".join(argv), kind=kind, shape=(k, n, q),
               argv=argv + ("--threads", str(threads)))


# _det_mod and pull_back compute over GF(p) without the library, so the
# forms handed to `mds weight` do not depend on the code being measured.
def _det_mod(m, p):
    """Determinant of a small square matrix over the prime field GF(p)."""
    if len(m) == 1:
        return m[0][0] % p
    return sum((-1) ** j * m[0][j] * _det_mod([row[:j] + row[j + 1:] for row in m[1:]], p)
               for j in range(len(m))) % p


def representatives(k, n, p):
    """FORMS_PER_SHAPE fixed nonzero k-forms on GF(p)^n, the same for every seed."""
    rng = random.Random(f"representatives {k} {n} {p}")
    forms = []
    while len(forms) < FORMS_PER_SHAPE:
        coeffs = [rng.randrange(p) for _ in multi_indices(k, n)]
        if any(coeffs):
            forms.append(coeffs)
    return forms


def pull_back(coeffs, g, k, n, p):
    """Coefficients of the form v_1..v_k -> omega(g v_1, ..., g v_k)."""
    indices = multi_indices(k, n)
    out = []
    for cols in indices:
        acc = 0
        for rows, c in zip(indices, coeffs):
            if c:
                acc += c * _det_mod([[g[r - 1][s - 1] for s in cols] for r in rows], p)
        out.append(acc % p)
    return out


def random_invertible(rng, n, p):
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _det_mod(g, p):
            return g


def form_argument(coeffs, k, n):
    """A form in the `mds weight --form` format."""
    terms = [{"index": list(idx), "coeff": c}
             for idx, c in zip(multi_indices(k, n), coeffs) if c]
    return json.dumps(terms, separators=(",", ":"))


def census_cross(seed, threads):
    return [cli_job("count", k, n, q, "--method", "both") for k, n, q in CENSUS_GRID]


def asympt_sweep(seed, threads):
    (k, n), qs = ASYMPT_K3
    sweeps = [(k, n, ",".join(map(str, qs)))]
    q_list = ",".join(map(str, prime_powers(ASYMPT_Q_MAX)))
    sweeps += [(k, n, q_list) for k, n in ASYMPT_FAMILIES]
    return [cli_job("asympt", k, n, 0, "--q-list", qs, threads=t)
            for t in (1, threads) for k, n, qs in sweeps]


def weight_jobs(seed, shapes):
    """`mds weight` on every representative of each shape, moved by the seed."""
    rng = random.Random(seed)
    jobs = []
    for k, n, q in shapes:
        for i, coeffs in enumerate(representatives(k, n, q)):
            form = pull_back(coeffs, random_invertible(rng, n, q), k, n, q)
            jobs.append(cli_job("weight", k, n, q, "--form", form_argument(form, k, n),
                             "--method", "both",
                             key=f"weight --k {k} --n {n} --q {q} form {i}"))
    return jobs


def plucker_oracles(seed, threads):
    jobs = weight_jobs(seed, WEIGHT_SHAPES)
    jobs += [
        cli_job("code", 2, 6, 2, "--spectrum", "exhaustive"),
        cli_job("code", 2, 5, 4),
        cli_job("code", 2, 4, 2, "--dr", "2", "--dr-mode", "exhaustive"),
        cli_job("incl-excl", 2, 5, 2, "--verify-against-census"),
    ]
    k, n = SECTION_SHAPE
    jobs += [cli_job("sections", k, n, q, "--max-r", "2") for q in SECTION_QS]
    jobs += [Job(key=f"norms {k} {n} {q}", kind="norms", shape=(k, n, q))
             for q in SECTION_QS]
    return jobs


BUILDERS = {
    "census-cross": census_cross,
    "asympt-sweep": asympt_sweep,
    "plucker-oracles": plucker_oracles,
}


def build(workload, seed, threads):
    """The job list of a workload; threads is the pool size asked for."""
    return BUILDERS[workload](seed, threads)


def roadmap_rows(threads):
    """The ROADMAP baseline rows a traced pass can cover, as
    (row, ROADMAP figure, jobs, per-layer metrics to show)."""
    scan = ("census.scan.s", "census.scan.ns_per_candidate")
    pool = ("census.pools_started", "census.tasks_submitted", "census.pool_s",
            "census.task_s_max", "census.pool_shutdown_s")
    sweeps = [("asympt", k, n) for k, n in ASYMPT_FAMILIES]
    return [
        ("matrix scan (3,6,7), serial", "2.6 s",
         [cli_job("count", 3, 6, 7, "--method", "scan")],
         scan + ("vecgf.det_any.order2.ns_per_elem",
                 "vecgf.det_any.order3.ns_per_elem")),
        ("matrix scan (3,6,3), 1 worker", "2 ms",
         [cli_job("count", 3, 6, 3, "--method", "scan")], scan),
        (f"matrix scan (3,6,3), {threads} workers", "28-43 ms",
         [cli_job("count", 3, 6, 3, "--method", "scan", threads=threads)],
         scan + pool),
        ("mds count --method both (3,6,7)", "12.0 s",
         [cli_job("count", 3, 6, 7, "--method", "both")],
         scan + ("census.filter.s", "census.filter.ns_per_point")),
        ("oracle-validation sweeps (32 scans), serial", "0.52 s",
         [cli_job(kind, k, n, 0, "--q-list", "2") for kind, k, n in sweeps],
         ("asymptotics.validation_scans", "census.scan.s")),
        (f"oracle-validation sweeps (32 scans), {threads} workers", "1.78 s",
         [cli_job(kind, k, n, 0, "--q-list", "2", threads=threads)
          for kind, k, n in sweeps],
         ("asymptotics.validation_scans", "census.scan.s") + pool),
    ]


def field_orders(jobs):
    """Field sizes a workload builds, for the set-up measurement."""
    qs = set()
    for job in jobs:
        if job.shape[2]:
            qs.add(job.shape[2])
        if job.kind == "asympt":
            q_list = job.argv[job.argv.index("--q-list") + 1]
            qs.update(int(tok) for tok in q_list.split(","))
    return sorted(qs)


# ---------------------------------------------------------------------------
# Running and checking one job.
# ---------------------------------------------------------------------------

def run_norms(k, n, q):
    """section_norm by both routes on every codim-2 coordinate section."""
    from mdscensus import fields, sections

    gf = fields.field_of_order(q)
    rows = []
    for pair in itertools.combinations(multi_indices(k, n), 2):
        section = sections.coordinate_section(gf, k, n, pair)
        rows.append({
            "indices": [list(idx) for idx in pair],
            "point_scan": sections.section_norm(section, "point-scan"),
            "annihilator_sum": sections.section_norm(section, "annihilator-sum"),
        })
    return {"rows": rows}


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check(job, output, expected):
    """None when the job's output is right, else the reason it is wrong.

    output is the job's JSON payload without elapsed_ms, or an error string.
    """
    if isinstance(output, str):
        return output
    if job.kind == "norms":
        for row in output["rows"]:
            if row["point_scan"] != row["annihilator_sum"]:
                return f"section norm routes differ at {row['indices']}"
    recorded = expected["outputs"].get(job.key)
    if recorded is None:
        return "no recorded output"
    if output != recorded:
        return "output differs from the recorded value"
    return None
