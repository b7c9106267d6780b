"""Exact brute-force counts of [n,k] MDS codes over GF(q).

Two independent strategies must agree:

matrix-scan       scans the matrices [I_k | A] and accepts A exactly when
                  every square submatrix of A, of every order, is nonsingular
                  (equivalent to all maximal minors of [I_k | A] being
                  nonzero, via complementary column indices).  Such an A has
                  no zero entry, and the torus (F_q^*)^k x (F_q^*)^(n-k)
                  scaling its rows and columns acts freely modulo the
                  diagonal scalars, with exactly one A per orbit whose first
                  row and first column are all ones.  So only those
                  normalized A are scanned: their (k-1)(n-k-1) free entries
                  run over the nonzero elements in odometer order, the count
                  is gamma-tilde, and gamma = (q-1)^(n-1) * gamma-tilde.  Work
                  is chunked by fixing the first t free entries.

grassmannian-filter  enumerates every echelon representative of G(k, n),
                  cell by cell, and keeps the points whose maximal minors
                  are all nonzero, evaluated in lexicographic multi-index
                  order with batch short-circuiting.

Both kernels run vectorized over candidate blocks; every chunk yields an
exact integer and the total is an order-independent sum, so results are
bit-identical for any worker count.  Both share one scheduling rule: work
that fits one numpy block of SUFFIX_CAP candidates runs serially whatever
the requested worker count, and a pool never has more workers than
os.cpu_count().
"""

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import _vecgf
from .budget import check_budget
from .errors import DivisibilityViolation, OutOfRange
from .fields import make_field
from .linalg import cell_free_positions, gaussian_binomial

SUFFIX_CAP = 2**18          # max candidates materialized per numpy block
CHUNKS_PER_WORKER = 64


@dataclass(frozen=True)
class CensusResult:
    k: int
    n: int
    q: int
    gamma: int
    gamma_tilde: int
    method: str
    elapsed: float
    worker_count: int


def _split_gamma(k, n, q, gamma, method, elapsed, workers):
    if k == n:
        # the full space is the unique [n, n] code; the (q-1)^(n-1) column
        # normalization that turns codes into arcs degenerates here
        return CensusResult(k, n, q, gamma, gamma, method, elapsed, workers)
    denom = (q - 1) ** (n - 1)
    if gamma % denom != 0:
        raise DivisibilityViolation(
            f"gamma={gamma} not divisible by (q-1)^(n-1)={denom} at (k={k}, n={n}, q={q})"
        )
    return CensusResult(k, n, q, gamma, gamma // denom, method, elapsed, workers)


# ---------------------------------------------------------------------------
# matrix-scan
# ---------------------------------------------------------------------------

def _free_entries(k, nk):
    return (k - 1) * (nk - 1) if nk else 0


def _scan_minor_plan(k, nk):
    """All square submatrices of order >= 2 of a normalized A, smallest
    orders first: row 0 and column 0 are the constant 1, the free entry
    A[r][c] (r, c >= 1) is value (r-1)(nk-1) + (c-1)."""

    def entry(r, c):
        if r == 0 or c == 0:
            return ("c", 1)
        return ("v", (r - 1) * (nk - 1) + c - 1)

    plan = []
    for s in range(2, min(k, nk) + 1):
        for rows in itertools.combinations(range(k), s):
            for cols in itertools.combinations(range(nk), s):
                plan.append(tuple(tuple(entry(r, c) for c in cols) for r in rows))
    return tuple(plan)


def _choose_prefix_len(base, total_positions, min_chunks):
    """Smallest prefix length t such that the base**(total_positions - t)
    suffix fits one block and base**t reaches min_chunks chunks."""
    t = 0
    while t < total_positions and base ** (total_positions - t) > SUFFIX_CAP:
        t += 1
    while t < total_positions and base**t < min_chunks:
        t += 1
    return t


def _digits(value, base, width):
    out = [0] * width
    for pos in range(width - 1, -1, -1):
        out[pos] = value % base
        value //= base
    return out


def _scan_range(p, m, k, n, t, lo, hi):
    """Normalized MDS matrices among chunks [lo, hi): chunk i fixes the first
    t free entries to the base-(q-1) digits of i, offset by 1."""
    gf = make_field(p, m)
    ops = _vecgf.vector_ops(gf)
    nk = n - k
    plan = _scan_minor_plan(k, nk)
    base = gf.q - 1
    suffix = _vecgf.position_arrays(
        [base] * (_free_entries(k, nk) - t), 1, ops.dtype
    )
    acc = 0
    for chunk_id in range(lo, hi):
        prefix = [d + 1 for d in _digits(chunk_id, base, t)]
        acc += _vecgf.count_all_nonzero(ops, prefix + suffix, plan)
    return acc


def count_mds_matrix_scan(k, n, gf, threads=1, budget=None):
    """Number of k-subspaces all of whose Plucker coordinates are nonzero,
    by scanning the torus-normalized matrices [I_k | A].  worker_count
    reports the workers used (see _worker_count)."""
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    q = gf.q
    nk = n - k
    n_free = _free_entries(k, nk)
    check_budget((q - 1) ** n_free, budget,
                 f"matrix scan at (k={k}, n={n}, q={q})")
    start = time.perf_counter()
    workers = _worker_count(threads, (q - 1) ** n_free)
    min_chunks = CHUNKS_PER_WORKER * workers if workers > 1 else 1
    t = _choose_prefix_len(q - 1, n_free, min_chunks)
    gamma_tilde = _run_ranges(_scan_range, (gf.p, gf.m, k, n, t),
                              (q - 1) ** t, workers)
    # k = n: the unique [n, n] code, with no column scaling to divide out
    gamma = gamma_tilde if k == n else gamma_tilde * (q - 1) ** (n - 1)
    return CensusResult(k, n, q, gamma, gamma_tilde, "matrix-scan",
                        time.perf_counter() - start, workers)


# ---------------------------------------------------------------------------
# grassmannian-filter
# ---------------------------------------------------------------------------

def _cell_minor_plans(k, n, pivots):
    """Minor plans (one per multi-index, lexicographic) for an echelon cell,
    or None when some structurally-zero minor makes the cell empty of
    all-nonzero points."""
    from .exterior import multi_indices

    free = cell_free_positions(pivots, k, n)
    free_index = {pos: i for i, pos in enumerate(free)}
    entry = _vecgf._cell_entry_plan(pivots, k, n, free_index)
    plans = []
    for idx in multi_indices(k, n):
        rows = []
        for r in range(k):
            row = tuple(entry(r, c - 1) for c in idx)
            rows.append(row)
            if all(e == ("c", 0) for e in row):
                return None, len(free)
        plans.append(tuple(rows))
    return tuple(plans), len(free)


def _filter_cell_range(p, m, k, n, pivots, t, lo, hi):
    gf = make_field(p, m)
    plans, n_free = _cell_minor_plans(k, n, pivots)
    if plans is None:
        return 0
    ops = _vecgf.vector_ops(gf)
    suffix_len = n_free - t
    acc = 0
    for chunk_id in range(lo, hi):
        prefix = _digits(chunk_id, gf.q, t)
        values = list(prefix) + _vecgf.position_arrays(
            [gf.q] * suffix_len, 0, ops.dtype
        )
        acc += _vecgf.count_all_nonzero(ops, values, plans)
    return acc


def count_mds_grassmannian_filter(k, n, gf, threads=1, budget=None):
    """Independent oracle: walk every Grassmann point and keep those whose
    Plucker coordinates are all nonzero.  worker_count reports the workers
    used (see _worker_count)."""
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    q = gf.q
    size = gaussian_binomial(k, n, q)
    check_budget(size, budget, f"Grassmannian filter at (k={k}, n={n}, q={q})")
    start = time.perf_counter()
    tasks = []
    for pivots in itertools.combinations(range(1, n + 1), k):
        n_free = len(cell_free_positions(pivots, k, n))
        t = _choose_prefix_len(q, n_free, CHUNKS_PER_WORKER)
        tasks.append((pivots, t, q**t))
    workers = _worker_count(threads, size)
    gamma = 0
    if workers == 1:
        for pivots, t, n_chunks in tasks:
            gamma += _filter_cell_range(gf.p, gf.m, k, n, pivots, t, 0, n_chunks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = []
            for pivots, t, n_chunks in tasks:
                for lo, hi in _ranges(n_chunks, workers * 4):
                    futures.append(
                        pool.submit(_filter_cell_range, gf.p, gf.m, k, n,
                                    pivots, t, lo, hi)
                    )
            gamma = sum(f.result() for f in futures)
    return _split_gamma(k, n, q, gamma, "grassmannian-filter",
                        time.perf_counter() - start, workers)


# ---------------------------------------------------------------------------
# shared scheduling
# ---------------------------------------------------------------------------

def _worker_count(threads, work):
    """Workers for `work` candidates: one when they fit a single block of
    SUFFIX_CAP, else `threads`, capped at os.cpu_count()."""
    if threads <= 1 or work <= SUFFIX_CAP:
        return 1
    return max(1, min(threads, os.cpu_count() or 1))


def _ranges(total, parts):
    parts = max(1, min(parts, total))
    step, extra = divmod(total, parts)
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (1 if i < extra else 0)
        if hi > lo:
            out.append((lo, hi))
        lo = hi
    return out


def _run_ranges(fn, head_args, n_chunks, workers):
    if workers <= 1 or n_chunks <= 1:
        return fn(*head_args, 0, n_chunks)
    total = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(fn, *head_args, lo, hi)
            for lo, hi in _ranges(n_chunks, workers * 8)
        ]
        total = sum(f.result() for f in futures)
    return total


# ---------------------------------------------------------------------------
# derived quantities and closed-form oracles
# ---------------------------------------------------------------------------

def arc_count(k, n, gf, threads=1, budget=None):
    """gamma / (q-1)^(n-1): the census count with the column-scaling factor
    divided out, counting n-point general-position configurations of
    PG(k-1, q) normalized through a fixed frame."""
    return count_mds_matrix_scan(k, n, gf, threads=threads, budget=budget).gamma_tilde


def gamma_closed_form(k, n, q):
    """Exact classical count for k <= 2; None for larger k.

    k = 1: (q-1)^(n-1).  k = 2: (q-1)^(n-1) (q-2)(q-3)...(q-n+2), i.e. the
    normalized count of ordered tuples of n pairwise-distinct points of the
    projective line.  Both reproduce the degree-(delta-2) coefficient of the
    three-term expansion, and both are revalidated against the matrix scan
    before any convergence run relies on them.
    """
    if k == 1:
        return (q - 1) ** (n - 1)
    if k == 2:
        if n == 2:
            return 1
        out = (q - 1) ** (n - 1)
        for j in range(2, n - 1):
            out *= q - j
        return out
    return None


def count_mds(k, n, gf, method="scan", threads=1, budget=None):
    """Front door used by the CLI: method scan | filter | both."""
    if method == "scan":
        return count_mds_matrix_scan(k, n, gf, threads=threads, budget=budget)
    if method == "filter":
        return count_mds_grassmannian_filter(k, n, gf, threads=threads, budget=budget)
    if method == "both":
        a = count_mds_matrix_scan(k, n, gf, threads=threads, budget=budget)
        b = count_mds_grassmannian_filter(k, n, gf, threads=threads, budget=budget)
        if a.gamma != b.gamma:
            from .errors import ExactnessViolation

            raise ExactnessViolation(
                f"matrix-scan gamma={a.gamma} differs from filter gamma={b.gamma}"
            )
        return CensusResult(k, n, gf.q, a.gamma, a.gamma_tilde, "both",
                            a.elapsed + b.elapsed,
                            max(a.worker_count, b.worker_count))
    raise OutOfRange(f"unknown census method {method!r}")
