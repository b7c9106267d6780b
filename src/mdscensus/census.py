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
                  entry, so the entries run over 1..q-1 and only the minors
                  of order >= 2 are evaluated.  The n-k coordinate
                  scalings are divided out: scaling coordinate k+1+c by
                  lambda != 0 multiplies column c of A, and every p_I
                  through it, by lambda and leaves the other p_I alone, so
                  it maps counted points to counted points.  Every counted
                  point has A[0][c] != 0 (a lone entry is a Plucker
                  coordinate), so the orbit of (F_q^*)^(n-k) through it
                  holds exactly one point whose row 0 is all ones.  The walk
                  fixes row 0 at ones, runs the other (k-1)(n-k) entries over
                  1..q-1, (q-1)^((k-1)(n-k)) points, and gamma is
                  (q-1)^(n-k) times its count (1 at k = n, where nothing is
                  walked).

Each route states only its walk, a minor plan with the sizes and offsets
of its free entries, and how many subspaces one counted point stands for.
One driver, _census, does the rest for both: it budgets the walk's
candidates, hands the walk to the scheduler, multiplies the count into
gamma, divides gamma by (q-1)^(n-1) into gamma-tilde, and checks a count
that theory fixes: for 2 <= k < n, gamma-tilde * |PGL(k, q)| counts
ordered n-arcs, so n! divides it, and a count that breaks this raises
DivisibilityViolation.

Every chunk of a walk yields an exact integer and the total is an
order-independent sum, so results are bit-identical for any
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
The scheduler measures a walk by its walked candidates alone, the product
of the sizes of the free entries the kernel materializes.  A pool starts
only when that passes POOL_MIN_WORK, more than one worker is asked for and
the walk is cut into more than one chunk; it never has more workers than
os.cpu_count(), and the walk is then cut into at least 8 chunks per worker
where its walked entries allow, which go out in at most 8 tasks per worker.
"""

import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import _vecgf
from .budget import check_budget
from .errors import ExactnessViolation, OutOfRange, exact_quotient
from .linalg import check_shape, gl_order, multi_indices

POOL_MIN_WORK = 2**19       # walked candidates a walk must pass to start a pool


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


def _check_orbit_divisibility(k, n, q, gamma_tilde):
    """For 2 <= k < n, gamma-tilde * |PGL(k, q)| counts the ordered n-arcs
    of PG(k-1, q): PGL(k, q) acts regularly on ordered frames, and
    gamma-tilde counts the ordered completions of the standard frame.  S_n
    permutes the n distinct points of an ordered arc freely, so n! divides
    that count; DivisibilityViolation when it does not."""
    if not 2 <= k < n:
        return
    pgl = gl_order(k, q) // (q - 1)
    exact_quotient(gamma_tilde * pgl, math.factorial(n),
                   f"gamma-tilde={gamma_tilde} times |PGL({k},{q})|={pgl} "
                   f"over {n}! at (k={k}, n={n}, q={q})")


def _column_scalings(k, n, q):
    """(q-1)^(n-1), the ratio gamma / gamma-tilde: the column scalings left
    once the diagonal scalars are divided out.  1 when k = n, where the
    full space is the unique [n, n] code and that normalization
    degenerates."""
    return 1 if k == n else (q - 1) ** (n - 1)


def _census(label, k, n, gf, plan, sizes, offset, per_point, threads, budget):
    """The census result of one route: its walk has minor plan plan(k, n)
    and free entries of these sizes, each running from offset, and one
    counted point stands for per_point subspaces.  The walk's candidates
    are budgeted before its plan is built; gamma is the count times
    per_point, gamma-tilde is gamma over (q-1)^(n-1), and the orbit
    divisibility is checked.  The method is the label, lower case and
    hyphenated; worker_count reports the workers used (see _worker_count)."""
    q = gf.q
    check_budget(math.prod(sizes), budget, f"{label} at (k={k}, n={n}, q={q})")
    start = time.perf_counter()
    walk = (plan(k, n), sizes, [offset] * len(sizes))
    count, workers = _count_walk(gf, walk, threads)
    gamma = count * per_point
    gamma_tilde = exact_quotient(gamma, _column_scalings(k, n, q),
                                 f"gamma over (q-1)^(n-1) at (k={k}, n={n}, q={q})")
    _check_orbit_divisibility(k, n, q, gamma_tilde)
    return CensusResult(k, n, q, gamma, gamma_tilde,
                        label.lower().replace(" ", "-"),
                        time.perf_counter() - start, workers)


# ---------------------------------------------------------------------------
# matrix-scan
# ---------------------------------------------------------------------------

def _scan_minor_plan(k, n):
    """All square submatrices of order >= 2 of a normalized A, smallest
    orders first, except the 2 x 2 ones through row 0 and column 0: row 0
    and column 0 are the constant 1, the free entry A[r][c] (r, c >= 1) is
    value (r-1)(n-k-1) + (c-1), and the minor on rows {0, r} and columns
    {0, c} is A[r][c] - 1, nonzero because the walk skips the value 1."""
    nk = n - k

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
    """gamma by the torus-normalized scan of [I_k | A]: the (k-1)(n-k-1)
    free entries of A run over 2..q-1, and one counted A stands for
    (q-1)^(n-1) subspaces (1 at k = n)."""
    check_shape(k, n)
    q = gf.q
    sizes = [q - 2] * ((k - 1) * (n - k - 1) if k < n else 0)
    return _census("matrix scan", k, n, gf, _scan_minor_plan, sizes, 2,
                   _column_scalings(k, n, q), threads, budget)


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
    nk = n - k
    plans = []
    for idx in multi_indices(k, n):
        rows = [r for r in range(k) if r + 1 not in idx]
        if len(rows) >= 2:
            cols = [c - k - 1 for c in idx if c > k]
            plans.append(tuple(tuple(("v", r * nk + c) for c in cols) for r in rows))
    return tuple(plans)


def count_mds_grassmannian_filter(k, n, gf, threads=1, budget=None):
    """gamma by the independent Grassmannian filter on the big cell
    [I_k | A]: row 0 of A is fixed at 1, the other (k-1)(n-k) entries run
    over 1..q-1, and one counted point stands for the (q-1)^(n-k) column
    scalings of it (1 at k = n, where nothing is walked)."""
    check_shape(k, n)
    q = gf.q
    sizes = [1] * (n - k) + [q - 1] * ((k - 1) * (n - k))
    return _census("Grassmannian filter", k, n, gf, _filter_minor_plan, sizes, 1,
                   (q - 1) ** (n - k), threads, budget)


# ---------------------------------------------------------------------------
# shared scheduling
# ---------------------------------------------------------------------------

def _worker_count(threads, work):
    """Workers for `work` walked candidates: one up to POOL_MIN_WORK, else
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
    workers used, one when the walk is one chunk.  Every decision reads the
    free entries the kernel walks, _vecgf.walked_len of them: the counted
    last entry and the tail after it are never materialized.  Their
    product decides the workers; the chunk prefix is cut from them, so each
    chunk's walked suffix, and with it every value array, fits
    _vecgf.BLOCK_BYTES, and a pooled walk has at least one chunk for each
    of its 8 tasks per worker where the walked entries allow."""
    plan, sizes, _ = walk
    walked = sizes[:_vecgf.walked_len(plan)]
    workers = _worker_count(threads, math.prod(walked))
    tasks = 8 * workers if workers > 1 else 1
    cap = _vecgf.block_len(_vecgf.vector_ops(gf).dtype)
    t = _vecgf.choose_prefix_len(walked, cap, tasks)
    n_chunks = math.prod(sizes[:t])
    if workers == 1 or n_chunks == 1:
        return _count_chunks(gf, walk, t, 0, n_chunks), 1
    step = -(-n_chunks // tasks)
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
    if k not in (1, 2):
        return None
    gamma_tilde = math.prod(q - j for j in range(2, n - 1)) if k == 2 else 1
    return _column_scalings(k, n, q) * gamma_tilde


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
            raise ExactnessViolation(
                f"matrix-scan gamma={a.gamma} differs from filter gamma={b.gamma}"
            )
        return CensusResult(k, n, gf.q, a.gamma, a.gamma_tilde, "both",
                            a.elapsed + b.elapsed,
                            max(a.worker_count, b.worker_count))
    raise OutOfRange(f"unknown census method {method!r}")
