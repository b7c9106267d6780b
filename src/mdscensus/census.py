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
                  gamma = (q-1)^(n-1) * gamma-tilde.

grassmannian-filter  walks the big cell [I_k | A] of G(k, n), with no torus
                  normalization, and keeps the points whose maximal minors
                  are all nonzero.  The big cell is exactly where p_(1..k)
                  is nonzero, so it holds every point counted.  Up to sign,
                  p_I is the minor of A on the rows r with r+1 not in I and
                  the columns of I past k, planned from the multi-index I;
                  one of order 0 is the constant 1 and one of order 1 a lone
                  entry, so the k(n-k) entries run over 1..q-1 and only the
                  minors of order >= 2 are evaluated.  The walk is
                  (q-1)^(k(n-k)) points and the count is gamma.

Both routes hand the same scheduler one walk, a minor plan with the sizes
and offsets of its free entries.  Every chunk yields an exact integer and
the total is an order-independent sum, so results are bit-identical for any
worker count.  Work is chunked by fixing the first t free entries of the
walk: chunk i is the i-th reading of those entries in C order, the order
of itertools.product and np.indices (last entry fastest), so chunks
[lo, hi) are one slice of _vecgf.prefix_values.  The chunk's prefix
values are Python ints, and _vecgf.count_all_nonzero walks the rest
level by level on _vecgf.position_arrays grids: each minor is
checked as soon as the last free entry it reads is walked, on the survivors
so far against the next segment of free entries.  The last free entry x of
either plan is counted, not walked: no minor reads an entry twice, so each
minor through x is affine in it, det = +-x C + D with C the cofactor of x
and D the minor at x = 0.  For each survivor a minor with C != 0 forbids
the one value x = -D / (+-C), and one with C = 0 forbids every value when
D = 0 and none otherwise; the survivor counts the values of x that no
minor forbids.  A walked order-2 minor is tested as ad != bc, with no
subtraction, and the forbidden values of a chunk come from one quotient
that reads -1, a value outside every window, where C = 0.  On fields up
to q = 181 each of these field operations is one gather from a q x q
int16 table; larger fields compute mod p, or by log/exp and base-p
digits.  The chunk prefix is sized on the walked entries alone, so no
value array passes _vecgf.BLOCK_BYTES.
A pool starts only when the walk passes POOL_MIN_WORK candidates, more
than one worker is asked for and the walk is cut into more than one chunk;
it never has more workers than os.cpu_count(), the walk is then cut into
at least CHUNKS_PER_WORKER chunks per worker where its walked entries
allow, and the chunks go out in at most 8 tasks per worker.
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

POOL_MIN_WORK = 2**18       # candidates a walk must pass to start a pool
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


def _column_scalings(k, n, q):
    """(q-1)^(n-1), the ratio gamma / gamma-tilde: the column scalings left
    once the diagonal scalars are divided out.  1 when k = n, where the
    full space is the unique [n, n] code and that normalization
    degenerates."""
    return 1 if k == n else (q - 1) ** (n - 1)


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


def count_mds_matrix_scan(k, n, gf, threads=1, budget=None):
    """Number of k-subspaces all of whose Plucker coordinates are nonzero,
    by scanning the torus-normalized matrices [I_k | A], one walk whose
    free entries run over 2..q-1.  worker_count reports the workers used
    (see _worker_count)."""
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    q = gf.q
    nk = n - k
    sizes = [q - 2] * _free_entries(k, nk)
    check_budget(math.prod(sizes), budget, f"matrix scan at (k={k}, n={n}, q={q})")
    start = time.perf_counter()
    walk = (_scan_minor_plan(k, nk), sizes, [2] * len(sizes))
    gamma_tilde, workers = _count_walk(gf, walk, threads)
    gamma = gamma_tilde * _column_scalings(k, n, q)
    return CensusResult(k, n, q, gamma, gamma_tilde, "matrix-scan",
                        time.perf_counter() - start, workers)


# ---------------------------------------------------------------------------
# grassmannian-filter
# ---------------------------------------------------------------------------

def _filter_minor_plan(k, n):
    """Minor plans of the big cell [I_k | A], one per multi-index I whose
    minor has order >= 2, lexicographic.  Free entry A[r][c] is value
    r(n-k) + c.  Each i <= k in I is the unit column e_i, so up to sign p_I
    is the minor of A on the rows r with r+1 not in I and the columns c with
    k+c+1 in I.  Order 0 (I = 1..k) is the constant 1 and order 1 a lone
    entry, nonzero because the walk skips 0."""
    from .exterior import multi_indices

    nk = n - k
    plans = []
    for idx in multi_indices(k, n):
        rows = [r for r in range(k) if r + 1 not in idx]
        if len(rows) >= 2:
            cols = [c - k - 1 for c in idx if c > k]
            plans.append(tuple(tuple(("v", r * nk + c) for c in cols) for r in rows))
    return tuple(plans)


def count_mds_grassmannian_filter(k, n, gf, threads=1, budget=None):
    """Independent oracle: walk the Grassmann points of the big cell, the
    only cell where p_(1..k) is nonzero, entries over F_q^*, and keep those
    whose Plucker coordinates are all nonzero.  worker_count reports the
    workers used (see _worker_count)."""
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    q = gf.q
    sizes = [q - 1] * (k * (n - k))
    check_budget(math.prod(sizes), budget,
                 f"Grassmannian filter at (k={k}, n={n}, q={q})")
    start = time.perf_counter()
    walk = (_filter_minor_plan(k, n), sizes, [1] * len(sizes))
    gamma, workers = _count_walk(gf, walk, threads)
    denom = _column_scalings(k, n, q)
    if gamma % denom != 0:
        raise DivisibilityViolation(
            f"gamma={gamma} not divisible by (q-1)^(n-1)={denom} at (k={k}, n={n}, q={q})"
        )
    return CensusResult(k, n, q, gamma, gamma // denom, "grassmannian-filter",
                        time.perf_counter() - start, workers)


# ---------------------------------------------------------------------------
# shared scheduling
# ---------------------------------------------------------------------------

def _worker_count(threads, work):
    """Workers for `work` candidates: one up to POOL_MIN_WORK, else
    `threads`, capped at os.cpu_count()."""
    if threads <= 1 or work <= POOL_MIN_WORK:
        return 1
    return max(1, min(threads, os.cpu_count() or 1))


def _count_chunks(gf, walk, t, lo, hi):
    """All-nonzero candidates among chunks [lo, hi) of one walk (plan,
    sizes, offsets) cut after its first t free entries; the walk's levels
    and their segment grids are built once for all of them.  A pooled call
    gets gf through its pickle, make_field(p, m) in the worker."""
    plan, sizes, offsets = walk
    ops = _vecgf.vector_ops(gf)
    levels = _vecgf.walk_levels(plan, sizes, offsets, ops.dtype, t)
    return sum(_vecgf.count_all_nonzero(ops, prefix, levels)
               for prefix in _vecgf.prefix_values(sizes[:t], offsets[:t], lo, hi))


def _count_walk(gf, walk, threads):
    """The all-nonzero candidates of one walk (plan, sizes, offsets) and the
    workers used, one when the walk is one chunk.  The chunk prefix is
    sized on the free entries the kernel walks, _vecgf.walked_len of them:
    the counted last entry and the tail after it are never materialized.
    So each chunk's walked suffix, and with it every value array, fits
    _vecgf.BLOCK_BYTES; a pooled walk is cut into at least CHUNKS_PER_WORKER
    chunks per worker where the walked entries allow, and submitted as at
    most 8 tasks per worker."""
    plan, sizes, _ = walk
    workers = _worker_count(threads, math.prod(sizes))
    cap = _vecgf.block_len(_vecgf.vector_ops(gf).dtype)
    t = _vecgf.choose_prefix_len(sizes[:_vecgf.walked_len(plan)], cap,
                                 CHUNKS_PER_WORKER * workers if workers > 1 else 1)
    n_chunks = math.prod(sizes[:t])
    if workers == 1 or n_chunks == 1:
        return _count_chunks(gf, walk, t, 0, n_chunks), 1
    step = -(-n_chunks // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_count_chunks, gf, walk, t,
                               lo, min(lo + step, n_chunks))
                   for lo in range(0, n_chunks, step)]
        return sum(f.result() for f in futures), workers


# ---------------------------------------------------------------------------
# derived quantities and closed-form oracles
# ---------------------------------------------------------------------------

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
