"""Vectorized GF(q) arithmetic for the hot enumeration kernels.

Values are either plain Python ints (constants) or numpy arrays over a
shared candidate axis; constant algebra stays in Python, through the
field's scalar operations, so structurally-zero determinants never touch
an array.  On every field whose q x q index fits int16, q <= 181, values
are int16 and each array operation is one gather T[x * q + y] from a flat
q x q table (addition stays XOR when p = 2).  The tables are built once per
field by running the wide operations on the q x q grid; on larger fields
those wide operations are the arithmetic: componentwise mod p on int64
arrays for prime fields, and on extension fields multiplication by
gathering from the field's log/exp tables (log 0 is a sentinel whose sums
all land in a zero tail of the exp array), addition by XOR of the
encodings when p = 2 and base-p digit by digit when p is odd.

Everything here is exact integer arithmetic; numpy is only a carrier.
"""

import functools
import itertools
import math

import numpy as np

from .budget import check_budget
from .errors import OutOfRange
from .linalg import _binom, _cell_matrix_template, gaussian_binomial
from .exterior import multi_indices

PLUCKER_CACHE_CAP = 2**24  # max entries of the cached matrix and of each block
BLOCK_BYTES = 2**16        # max bytes of one value array of a walked block


class VecOps:
    """Scalar-or-array field operations for one GF context.

    Two Python ints combine through the field's scalar operations.  On a
    table field (q * q - 1 fits int16) an array operation is one gather from
    the flat int16 table _add, _sub, _mul, _neg or _div, indexed x * q + y;
    a table left None (addition, subtraction and negation when p = 2, and
    every table past q = 181) falls back to the wide operation."""

    def __init__(self, gf):
        self.gf = gf
        self.q = q = gf.q
        self._add = self._sub = self._mul = self._neg = self._div = None
        if gf.m == 1:
            self.prime = gf.p
            self.dtype = np.int64
        else:
            self.prime = None
            # sums of two logs reach 2 * zero, which must fit the dtype
            self.dtype = np.int16 if 4 * q < 2**15 else np.int32
            zero = 2 * q - 3  # one past the largest sum of two nonzero logs
            self.log = np.array([zero] + gf._log[1:], dtype=self.dtype)
            self.exp = np.zeros(2 * zero + 1, dtype=self.dtype)
            self.exp[:zero] = gf._exp[:zero]
            self.place_values = [gf.p**i for i in range(gf.m)]
        if q * q - 1 <= np.iinfo(np.int16).max:
            self._build_tables()

    def _build_tables(self):
        """T[x * q + y] = x op y for every pair, from the wide operations run
        once on the q x q grid; the quotient's y = 0 column holds -1.  When
        p = 2 addition and subtraction stay XOR and negation the identity."""
        q = self.q
        x, y = np.indices((q, q), dtype=self.dtype).reshape(2, -1)
        self._mul = self._wide_mul(x, y).astype(np.int16)
        self._div = self._wide_quotient(x, y).astype(np.int16)
        if self.gf.p != 2:
            self._add = self._wide_add(x, y).astype(np.int16)
            self._sub = self._wide_sub(x, y).astype(np.int16)
            self._neg = self._wide_neg(y[:q]).astype(np.int16)
        self.dtype = np.int16

    # -- wide operations: the arithmetic past q = 181, and the table builder

    def _log_of(self, x):
        return self.gf._log[x] if isinstance(x, int) else self.log[x]

    def _by_digit(self, x, y, sign):
        """x + sign * y on an odd extension field: digit i of an encoding e
        is (e // p^i) mod p, and the digits add mod p."""
        p = self.gf.p
        out = 0
        for pw in self.place_values:
            out = out + (x // pw + sign * (y // pw)) % p * pw
        return out

    def _wide_mul(self, x, y):
        if self.prime is not None:
            return (x * y) % self.prime
        return self.exp[self._log_of(x) + self._log_of(y)]

    def _wide_add(self, x, y):
        if self.gf.p == 2:
            return x ^ y
        if self.prime is not None:
            return (x + y) % self.prime
        return self._by_digit(x, y, 1)

    def _wide_sub(self, x, y):
        if self.gf.p == 2:
            return x ^ y
        if self.prime is not None:
            return (x - y) % self.prime
        return self._by_digit(x, y, -1)

    def _wide_neg(self, x):
        if self.gf.p == 2:
            return x
        if self.prime is not None:
            return (-x) % self.prime
        return self._by_digit(0, x, -1)

    @functools.cached_property
    def _inverses(self):
        """inv[a] = a^-1 = g^(q-1-log a) from the field's log/exp tables,
        and inv[0] = 0; built on the first wide quotient."""
        gf, q = self.gf, self.q
        out = np.zeros(q, dtype=self.dtype)
        logs = np.array(gf._log[1:], dtype=np.int64)
        out[1:] = np.array(gf._exp[:q - 1], dtype=self.dtype)[(-logs) % (q - 1)]
        return out

    def _wide_quotient(self, x, y):
        return np.where(y == 0, -1, self._wide_mul(x, self._inverses[y]))

    # -- the operations

    def mul(self, x, y):
        if isinstance(x, int):
            if x == 0:
                return 0
            if x == 1:
                return y
            if isinstance(y, int):
                return self.gf._umul(x, y)
        elif isinstance(y, int):
            if y == 0:
                return 0
            if y == 1:
                return x
        if self._mul is None:
            return self._wide_mul(x, y)
        return self._mul.take(x * self.q + y)

    def add(self, x, y):
        if isinstance(x, int):
            if x == 0:
                return y
            if isinstance(y, int):
                return self.gf._uadd(x, y)
        elif isinstance(y, int) and y == 0:
            return x
        if self._add is None:
            return self._wide_add(x, y)
        return self._add.take(x * self.q + y)

    def sub(self, x, y):
        if isinstance(y, int):
            if y == 0:
                return x
            if isinstance(x, int):
                return self.gf._usub(x, y)
        if self._sub is None:
            return self._wide_sub(x, y)
        return self._sub.take(x * self.q + y)

    def neg(self, x):
        if isinstance(x, int):
            return self.gf._uneg(x)
        if self._neg is None:
            return self._wide_neg(x)
        return self._neg.take(x)

    def quotient(self, x, y):
        """x / y elementwise on arrays, and -1 where y = 0: a value outside
        every range of field encodings, which a caller that divides by a
        zero entry can tell apart."""
        if self._div is None:
            return self._wide_quotient(x, y)
        return self._div.take(x * self.q + y)


@functools.lru_cache(maxsize=None)
def vector_ops(gf):
    """The field's VecOps, built once per field, its tables included."""
    return VecOps(gf)


def det_any(ops, m):
    """Determinant of a small matrix of scalar-or-array values."""
    s = len(m)
    if s == 0:
        return 1
    if s == 1:
        return m[0][0]
    if s == 2:
        return ops.sub(ops.mul(m[0][0], m[1][1]), ops.mul(m[0][1], m[1][0]))
    if s == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        t1 = ops.mul(a, ops.sub(ops.mul(e, i), ops.mul(f, h)))
        t2 = ops.mul(b, ops.sub(ops.mul(d, i), ops.mul(f, g)))
        t3 = ops.mul(c, ops.sub(ops.mul(d, h), ops.mul(e, g)))
        return ops.add(ops.sub(t1, t2), t3)
    total = 0
    for j in range(s):
        a = m[0][j]
        if isinstance(a, int) and a == 0:
            continue
        rest = [row[:j] + row[j + 1:] for row in m[1:]]
        term = ops.mul(a, det_any(ops, rest))
        if j % 2:
            term = ops.neg(term)
        total = ops.add(total, term)
    return total


def position_arrays(sizes, offsets, dtype):
    """Mixed-radix odometer grids in C order, the rows of np.indices: one
    array per position, first position slowest; position i runs over
    offsets[i], ..., offsets[i] + sizes[i] - 1.  A size of 0 gives empty
    grids."""
    grid = np.indices(sizes, dtype).reshape(len(sizes), math.prod(sizes))
    grid += np.array(offsets, dtype=dtype)[:, None]
    return list(grid)


def prefix_values(sizes, offsets, lo=0, hi=None):
    """Odometer readings lo..hi-1 (default: all) over `sizes` in the same C
    order, position i running from offsets[i], as tuples of Python ints."""
    ranges = [range(o, o + s) for s, o in zip(sizes, offsets)]
    return itertools.islice(itertools.product(*ranges), lo, hi)


def block_len(dtype):
    """The values of `dtype` that one array of BLOCK_BYTES holds."""
    return BLOCK_BYTES // np.dtype(dtype).itemsize


def choose_prefix_len(sizes, cap, min_chunks=1):
    """Smallest prefix length t such that the odometer suffix sizes[t:] fits
    `cap` candidates and the prefix sizes[:t] reaches min_chunks chunks (or
    covers every position)."""
    t = 0
    while t < len(sizes) and math.prod(sizes[t:]) > cap:
        t += 1
    while t < len(sizes) and math.prod(sizes[:t]) < min_chunks:
        t += 1
    return t


def _last_entry(minor):
    """The largest free-entry index a minor reads, -1 for a constant one."""
    return max((payload for row in minor for kind, payload in row if kind == "v"),
               default=-1)


def _affine_parts(minor, entry):
    """(cofactor, at_zero) plans of a minor that reads free entry x once, at
    row r and column c: its determinant is (-1)^(r+c) x C + D, C the
    cofactor of x and D the determinant at x = 0.  When r + c is even the
    rows of at_zero are swapped, which negates D, so that D / C is the one
    value of x that makes the minor singular when C is nonzero."""
    x = ("v", entry)
    r = next(i for i, row in enumerate(minor) if x in row)
    c = minor[r].index(x)
    cofactor = tuple((*row[:c], *row[c + 1:]) for i, row in enumerate(minor) if i != r)
    at_zero = [(*row[:c], ("c", 0), *row[c + 1:]) if i == r else row
               for i, row in enumerate(minor)]
    if (r + c) % 2 == 0 and len(minor) > 1:
        at_zero[0], at_zero[1] = at_zero[1], at_zero[0]
    return cofactor, tuple(at_zero)


@functools.lru_cache(maxsize=None)
def _plan_entries(minors):
    """(last, counted, parts) of a plan, a tuple of minors, worked out once
    per plan: each minor's _last_entry; the last free entry any minor
    reads, when no minor reads it twice, else None; and the (cofactor,
    at_zero) plans of the minors through that counted entry.  Each
    determinant through the counted entry is affine in it, so the walk
    counts its values instead of walking them.  Kept for the life of the
    process: a run plans few walks and sizes and counts each many times."""
    last = tuple(_last_entry(m) for m in minors)
    top = max(last, default=-1)
    through = [m for m, e in zip(minors, last) if e == top]
    x = ("v", top)
    if top < 0 or any(sum(row.count(x) for row in m) > 1 for m in through):
        return last, None, ()
    return last, top, tuple(_affine_parts(m, top) for m in through)


def walked_len(minors):
    """How many leading free entries a walk of these minors materializes,
    prefix included: every entry up to the last one a minor reads, except
    that last entry when it is counted.  The entries past it only multiply
    the count."""
    last, counted, _ = _plan_entries(tuple(minors))
    return max(last, default=-1) + 1 if counted is None else counted


def walk_levels(minors, sizes, offsets, dtype, t):
    """The levels of a walk cut after its first t free entries, for
    count_all_nonzero: (prefix minors, segments, last level, tail).

    Each minor is checked where its last free entry is reached.  The minors
    whose last entry lies in the prefix (or which read none) are checked on
    the chunk's Python ints.  The suffix up to the last entry any minor
    reads is cut into segments that end at the other minors' last entries;
    a segment is (grids, minors), its grids the odometer over its positions,
    built once for every chunk.  When that last entry is past the prefix
    and no minor reads it twice it is not walked but counted: the last
    level is (size, offset, plans, rows), one (cofactor, at_zero) pair of
    plans per minor through it (see _affine_parts) and the survivors taken
    `rows` at a time, so that no array of the level passes block_len(dtype);
    else the last level is None.  The positions after it form the tail: no
    minor reads them, so they multiply the count by the product of their
    sizes."""
    last, counted, parts = _plan_entries(tuple(minors))
    if counted is not None and counted < t:
        counted = None
    prefix = [m for m, e in zip(minors, last) if e < t]
    segments = []
    start = t
    for end in sorted({e for e in last if e >= t and e != counted}):
        grids = position_arrays(sizes[start:end + 1], offsets[start:end + 1], dtype)
        segments.append((grids, [m for m, e in zip(minors, last) if e == end]))
        start = end + 1
    if counted is None:
        return prefix, segments, None, math.prod(sizes[start:])
    if start < counted:
        # entries the last minors read that no earlier minor ends on
        segments.append((position_arrays(sizes[start:counted], offsets[start:counted],
                                         dtype), []))
    final = (sizes[counted], offsets[counted], parts,
             max(1, block_len(dtype) // len(parts)))
    return prefix, segments, final, math.prod(sizes[counted + 1:])


def _resolve(minor, vals):
    """The minor's matrix: a constant as it is, free entry i as vals[i]."""
    return [[vals[payload] if kind == "v" else payload for kind, payload in row]
            for row in minor]


def _walk_segment(ops, vals, count, grids, minors):
    """The survivors after one segment, (count, vals): the `count` survivors
    `vals` so far against every value of the segment's grids, kept where
    the segment's minors are all nonzero."""
    width = grids[0].size
    grid = [v[:, None] if isinstance(v, np.ndarray) else v for v in vals]
    grid += [g[None, :] for g in grids]
    keep = np.ones((count, width), dtype=bool)
    for minor in minors:
        m = _resolve(minor, grid)
        if len(m) == 2:
            # ad - bc != 0, with no subtraction
            keep &= ops.mul(m[0][0], m[1][1]) != ops.mul(m[0][1], m[1][0])
        else:
            keep &= det_any(ops, m) != 0
    rows, cols = np.divmod(np.flatnonzero(keep), width)
    vals = [v[rows] if isinstance(v, np.ndarray) else v for v in vals]
    return rows.size, vals + [g[cols] for g in grids]


def _count_last(ops, vals, count, final):
    """How many values of the counted entry keep every minor through it
    nonzero, summed over the `count` survivors `vals`.  A minor with
    cofactor C != 0 forbids the one value D / C, D from its at_zero plan
    (see _affine_parts), all of them from one ops.quotient; with C = 0 it
    forbids every value when D = 0 and none otherwise, and the quotient's
    -1 there lies outside every window.  Each survivor keeps the values of
    the window [offset, offset + size) that none of its minors forbids.
    The arrays hold one row per minor and one column per survivor; a
    minor's forbidden value counts where it lies in the window and differs
    from those of every earlier minor."""
    size, offset, plans, rows = final
    total = 0
    for lo in range(0, count, rows):
        part = [v[lo:lo + rows] if isinstance(v, np.ndarray) else v for v in vals]
        cof = np.empty((len(plans), min(rows, count - lo)), dtype=ops.dtype)
        at_zero = np.empty_like(cof)
        for j, (cofactor, zero) in enumerate(plans):
            cof[j] = det_any(ops, _resolve(cofactor, part))
            at_zero[j] = det_any(ops, _resolve(zero, part))
        # encodings are >= 0, so C | D is 0 exactly where C = D = 0
        alive = (cof | at_zero).all(axis=0)
        roots = ops.quotient(at_zero, cof)
        new = roots >= offset
        if offset + size < ops.q:  # roots are < q: a window up to q needs no top
            new &= roots < offset + size
        for j in range(1, len(plans)):
            new[j] &= (roots[:j] != roots[j]).all(axis=0)
        total += int(size * np.count_nonzero(alive) - np.count_nonzero(new & alive))
    return total


def count_all_nonzero(ops, prefix, levels):
    """Count the candidates of one chunk, the prefix values `prefix` (Python
    ints) followed by every suffix assignment, for which every minor of the
    walk is nonzero; `levels` comes from walk_levels.

    Minors are entry lists of rows, each entry ("c", const) or ("v", index)
    of a free entry.  The walk goes level by level: after each segment the
    survivors are the assignments of every position walked so far that pass
    every minor checked so far, one array per suffix position.  A segment's
    minors run on a broadcast grid, the survivors as a (survivors, 1) column
    against the segment as a (1, segment) row; one flatnonzero and a divmod
    gather keep the pairs that pass.  A counted last level is not walked:
    _count_last counts its values from the survivors column alone."""
    prefix_minors, segments, final, tail = levels
    for minor in prefix_minors:
        if det_any(ops, _resolve(minor, prefix)) == 0:
            return 0
    vals = list(prefix)
    count = 1
    for grids, minors in segments:
        count, vals = _walk_segment(ops, vals, count, grids, minors)
        if count == 0:
            return 0
    if final is not None:
        count = _count_last(ops, vals, count, final)
    return count * tail


# ---------------------------------------------------------------------------
# Cached matrix of all Plucker coordinate vectors of G(k, n).
# ---------------------------------------------------------------------------

def _cell_blocks(gf, k, n, width):
    """Column blocks of the Plucker matrix, cell by cell in enumeration
    order.  A cell wider than `width` columns is split by fixing its first
    free entries (the slowest odometer positions), so a block holds at most
    `width` columns, or one."""
    ops = vector_ops(gf)
    indices = multi_indices(k, n)
    for pivots in itertools.combinations(range(1, n + 1), k):
        # the cell's entries row-major, ("c", const) or ("v", free index)
        template = _cell_matrix_template(pivots, k, n)
        free = itertools.count()
        cell = [("v", next(free)) if x is None else ("c", x) for x in template]
        plans = [[[cell[r * n + c - 1] for c in idx] for r in range(k)]
                 for idx in indices]
        sizes = [gf.q] * template.count(None)
        t = choose_prefix_len(sizes, width)
        suffix = position_arrays(sizes[t:], [0] * (len(sizes) - t), ops.dtype)
        for prefix in prefix_values(sizes[:t], [0] * t):
            values = list(prefix) + suffix
            block = np.empty((len(indices), math.prod(sizes[t:])), dtype=ops.dtype)
            for row_pos, plan in enumerate(plans):
                # a scalar determinant broadcasts over the row
                block[row_pos] = det_any(ops, _resolve(plan, values))
            yield block


@functools.lru_cache(maxsize=8)
def plucker_matrix(gf, k, n):
    """Matrix whose column j is the Plucker vector of the j-th enumerated
    point of G(k, n), rows in lexicographic multi-index order, for shapes
    within PLUCKER_CACHE_CAP entries, built one block per cell.  The cached
    array is read-only."""
    out = np.concatenate(list(_cell_blocks(gf, k, n, math.inf)), axis=1)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def plucker_blocks(gf, k, n, budget=None):
    """The one source of Plucker columns: the cached plucker_matrix when it
    fits PLUCKER_CACHE_CAP, else its columns in the same order as blocks
    built on the fly and not kept, each of at most PLUCKER_CACHE_CAP entries
    and of at most BLOCK_BYTES a row.  The sweep is budgeted at
    q^(k(n-k)) * C(n, k) entries before the first block is built."""
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    rows = _binom(n, k)
    check_budget(gf.q ** (k * (n - k)) * rows, budget,
                 f"Plucker sweep of G({k},{n}) over GF({gf.q})")
    if gaussian_binomial(k, n, gf.q) * rows <= PLUCKER_CACHE_CAP:
        yield plucker_matrix(gf, k, n)
    else:
        yield from _cell_blocks(gf, k, n, min(PLUCKER_CACHE_CAP // rows,
                                              block_len(vector_ops(gf).dtype)))


def support_size(gf, coeff_rows, blocks):
    """The columns of the blocks on which at least one coefficient vector
    of coeff_rows pairs nonzero: a form's weight, a section's norm, a
    subcode's support."""
    count = 0
    for mat in blocks:
        hit = np.zeros(mat.shape[1], dtype=bool)
        for coeffs in coeff_rows:
            hit |= form_values(gf, coeffs, mat) != 0
        count += int(np.count_nonzero(hit))
    return count


def form_values(gf, coeffs, mat):
    """GF dot product of a coefficient vector with every column of mat."""
    ops = vector_ops(gf)
    acc = np.zeros(mat.shape[1], dtype=ops.dtype)
    for c, row in zip(coeffs, mat):
        if c:
            acc = ops.add(acc, ops.mul(int(c), row))
    return acc
