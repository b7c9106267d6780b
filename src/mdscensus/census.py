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
                  normalized A are scanned.  The 2 x 2 minor through row 0
                  and column 0 is A[r][c] - 1, so their (k-1)(n-k-1) free
                  entries run over 2..q-1 in odometer order and those minors
                  are never evaluated; the count is gamma-tilde, and
                  gamma = (q-1)^(n-1) * gamma-tilde.  Work is chunked by
                  fixing the first t free entries.

grassmannian-filter  walks the echelon representatives of G(k, n), cell by
                  cell, with no torus normalization, and keeps the points
                  whose maximal minors are all nonzero, evaluated in
                  lexicographic multi-index order with batch
                  short-circuiting.  A maximal minor whose other k-1 columns
                  are pivot columns is, up to sign, one entry alone: it is
                  read off the plan instead of evaluated, its entry runs over
                  1..q-1, and a cell where it is a structural zero is
                  skipped.  Only the big cell, pivots 1..k, survives, so the
                  walk is (q-1)^(k(n-k)) points and the count is gamma.

Both kernels run vectorized over candidate blocks; every chunk yields an
exact integer and the total is an order-independent sum, so results are
bit-identical for any worker count.  Both share one scheduling rule: work
that fits one numpy block of SUFFIX_CAP candidates runs serially whatever
the requested worker count, and a pool never has more workers than
os.cpu_count().
"""

import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import _vecgf
from .budget import check_budget
from .errors import DivisibilityViolation, OutOfRange
from .fields import make_field
from .linalg import cell_free_positions

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
    orders first, except the 2 x 2 ones through row 0 and column 0: row 0
    and column 0 are the constant 1, the free entry A[r][c] (r, c >= 1) is
    value (r-1)(nk-1) + (c-1), and the minor on rows {0, r} and columns
    {0, c} is A[r][c] - 1, nonzero because the walk skips the value 1."""

    def entry(r, c):
        if r == 0 or c == 0:
            return ("c", 1)
        return ("v", (r - 1) * (nk - 1) + c - 1)

    plan = []
    for s in range(2, min(k, nk) + 1):
        for rows in itertools.combinations(range(k), s):
            for cols in itertools.combinations(range(nk), s):
                if s == 2 and rows[0] == 0 and cols[0] == 0:
                    continue
                plan.append(tuple(tuple(entry(r, c) for c in cols) for r in rows))
    return tuple(plan)


def _scan_range(p, m, k, n, t, lo, hi):
    """Normalized MDS matrices among chunks [lo, hi): every free entry runs
    over 2..q-1, and chunk i fixes the first t of them to its odometer
    reading."""
    gf = make_field(p, m)
    ops = _vecgf.vector_ops(gf)
    nk = n - k
    plan = _scan_minor_plan(k, nk)
    sizes = [gf.q - 2] * _free_entries(k, nk)
    suffix = _vecgf.position_arrays(sizes[t:], [2] * (len(sizes) - t), ops.dtype)
    acc = 0
    for chunk_id in range(lo, hi):
        prefix = [d + 2 for d in _vecgf.digits(chunk_id, sizes[:t])]
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
    sizes = [q - 2] * _free_entries(k, nk)
    walk = math.prod(sizes)
    check_budget(walk, budget, f"matrix scan at (k={k}, n={n}, q={q})")
    start = time.perf_counter()
    workers = _worker_count(threads, walk)
    min_chunks = CHUNKS_PER_WORKER * workers if workers > 1 else 1
    t = _vecgf.choose_prefix_len(sizes, SUFFIX_CAP, min_chunks)
    gamma_tilde = _run_ranges(_scan_range, (gf.p, gf.m, k, n, t),
                              math.prod(sizes[:t]), workers)
    # k = n: the unique [n, n] code, with no column scaling to divide out
    gamma = gamma_tilde if k == n else gamma_tilde * (q - 1) ** (n - 1)
    return CensusResult(k, n, q, gamma, gamma_tilde, "matrix-scan",
                        time.perf_counter() - start, workers)


# ---------------------------------------------------------------------------
# grassmannian-filter
# ---------------------------------------------------------------------------

def _cell_minor_plans(k, n, pivots):
    """Minor plans (one per multi-index, lexicographic) for an echelon cell
    and, per free entry, whether it is marked nonzero; plans is None when
    some structurally-zero minor makes the cell empty of all-nonzero points.

    A multi-index whose other k-1 columns are pivot columns, all but the
    pivot p_r of row r, is a lone-entry minor: up to sign it is the entry of
    row r at its one non-pivot column c.  Such a minor is dropped from the
    plans and its entry marked nonzero, or, when the entry is a structural
    zero (c < p_r), the cell is empty.  Any minor with a structurally zero
    row r has such a column c, so these minors alone decide emptiness."""
    from .exterior import multi_indices

    free = cell_free_positions(pivots, k, n)
    free_index = {pos: i for i, pos in enumerate(free)}
    entry = _vecgf._cell_entry_plan(pivots, k, n, free_index)
    nonzero = [False] * len(free)
    plans = []
    for idx in multi_indices(k, n):
        others = [c for c in idx if c not in pivots]
        if len(others) == 1:
            r = next(r for r, p in enumerate(pivots) if p not in idx)
            kind, payload = entry(r, others[0] - 1)
            if kind == "c":
                return None, tuple(nonzero)
            nonzero[payload] = True
        else:
            plans.append(tuple(tuple(entry(r, c - 1) for c in idx)
                               for r in range(k)))
    return tuple(plans), tuple(nonzero)


def _cell_walk(nonzero, q):
    """Walked sizes and offsets of a cell's free entries: marked entries run
    over 1..q-1, the others over 0..q-1."""
    return ([q - 1 if nz else q for nz in nonzero],
            [1 if nz else 0 for nz in nonzero])


def _filter_cell_range(p, m, k, n, pivots, t, lo, hi):
    """All-nonzero points of a non-empty cell among chunks [lo, hi): chunk
    i fixes the first t free entries to its odometer reading."""
    gf = make_field(p, m)
    ops = _vecgf.vector_ops(gf)
    plans, nonzero = _cell_minor_plans(k, n, pivots)
    sizes, offsets = _cell_walk(nonzero, gf.q)
    suffix = _vecgf.position_arrays(sizes[t:], offsets[t:], ops.dtype)
    acc = 0
    for chunk_id in range(lo, hi):
        prefix = [d + o for d, o in
                  zip(_vecgf.digits(chunk_id, sizes[:t]), offsets)]
        acc += _vecgf.count_all_nonzero(ops, prefix + suffix, plans)
    return acc


def count_mds_grassmannian_filter(k, n, gf, threads=1, budget=None):
    """Independent oracle: walk the Grassmann points of every cell that can
    hold an all-nonzero point, entries marked nonzero over F_q^*, and keep
    those whose Plucker coordinates are all nonzero.  worker_count reports
    the workers used (see _worker_count)."""
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    q = gf.q
    start = time.perf_counter()
    tasks = []
    walk = 0
    for pivots in itertools.combinations(range(1, n + 1), k):
        plans, nonzero = _cell_minor_plans(k, n, pivots)
        if plans is None:
            continue
        sizes, _ = _cell_walk(nonzero, q)
        # the floor of CHUNKS_PER_WORKER chunks holds even for a serial
        # walk: it keeps each block, and so peak memory, small
        t = _vecgf.choose_prefix_len(sizes, SUFFIX_CAP, CHUNKS_PER_WORKER)
        tasks.append((pivots, t, math.prod(sizes[:t])))
        walk += math.prod(sizes)
    check_budget(walk, budget, f"Grassmannian filter at (k={k}, n={n}, q={q})")
    workers = _worker_count(threads, walk)
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
