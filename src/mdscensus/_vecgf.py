"""Vectorized GF(q) arithmetic for the hot enumeration kernels.

Two execution modes: prime fields compute componentwise mod p on int64
arrays; extension fields with q <= 256 go through the field's lookup tables
(int16 fancy indexing).  Values are either plain Python ints (constants) or
1-d numpy arrays over a shared candidate axis; constant algebra stays in
Python so structurally-zero determinants never touch an array.

Everything here is exact integer arithmetic; numpy is only a carrier.
"""

import functools
import itertools

import numpy as np

from .fields import TABLE_LIMIT
from .linalg import _binom, cell_free_positions, gaussian_binomial
from .exterior import multi_indices

PLUCKER_CACHE_CAP = 2**24  # max N * |G(k,n)| entries held in the cached matrix


class VecOps:
    """Scalar-or-array field operations for one GF context."""

    def __init__(self, gf):
        self.gf = gf
        self.q = gf.q
        if gf.m == 1:
            self.prime = gf.p
            self.dtype = np.int64
            self.tables = None
        elif gf.q <= TABLE_LIMIT:
            self.prime = None
            self.dtype = np.int16
            add = np.array(gf._add, dtype=np.int16)
            sub = np.array(gf._sub, dtype=np.int16)
            mul = np.array(gf._mul, dtype=np.int16)
            neg = np.array(gf._neg, dtype=np.int16)
            self.tables = (add, sub, mul, neg)
        else:
            raise ValueError("no vectorized backend for large extension fields")

    def mul(self, x, y):
        if isinstance(x, int):
            if x == 0:
                return 0
            if x == 1:
                return y
        if isinstance(y, int):
            if y == 0:
                return 0
            if y == 1:
                return x
        if self.prime is not None:
            return (x * y) % self.prime
        return self.tables[2][x, y]

    def add(self, x, y):
        if isinstance(x, int) and x == 0:
            return y
        if isinstance(y, int) and y == 0:
            return x
        if self.prime is not None:
            return (x + y) % self.prime
        return self.tables[0][x, y]

    def sub(self, x, y):
        if isinstance(y, int) and y == 0:
            return x
        if self.prime is not None:
            return (x - y) % self.prime
        if isinstance(x, int) and x == 0:
            return self.tables[3][y]
        return self.tables[1][x, y]

    def neg(self, x):
        if isinstance(x, int) and x == 0:
            return 0
        if self.prime is not None:
            return (-x) % self.prime
        return self.tables[3][x]


def vector_ops(gf):
    """VecOps for the field, or None when no vectorized backend exists."""
    try:
        return VecOps(gf)
    except ValueError:
        return None


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


def position_arrays(sizes, offset, dtype):
    """Odometer grids: one array per position, first position slowest."""
    total = 1
    for s in sizes:
        total *= s
    base = np.arange(total, dtype=np.int64)
    out = []
    period = total
    for s in sizes:
        period //= s
        out.append(((base // period) % s + offset).astype(dtype))
    return out


def count_all_nonzero(ops, values, minors):
    """Count joint assignments (parallel over the candidate axis of the array
    values) for which every listed minor is nonzero.

    values: list of scalar-or-array entries addressed by the minors.
    minors: each a list of rows; each entry is ("c", const) or ("v", index).
    """
    vals = list(values)

    def resolve(entry):
        kind, payload = entry
        return payload if kind == "c" else vals[payload]

    for minor_spec in minors:
        mat = [[resolve(e) for e in row] for row in minor_spec]
        d = det_any(ops, mat)
        if isinstance(d, np.ndarray):
            mask = d != 0
            if not mask.any():
                return 0
            if not mask.all():
                vals = [v[mask] if isinstance(v, np.ndarray) else v for v in vals]
        elif d == 0:
            return 0
    for v in vals:
        if isinstance(v, np.ndarray):
            return int(v.shape[0])
    return 1


# ---------------------------------------------------------------------------
# Cached matrix of all Plucker coordinate vectors of G(k, n).
# ---------------------------------------------------------------------------

def _cell_entry_plan(pivots, k, n, free_index):
    """Entry resolver grid for the echelon cell: ("c", const) / ("v", idx)."""
    pivot_cols = {p - 1: r for r, p in enumerate(pivots)}

    def entry(r, col0):
        if col0 in pivot_cols:
            return ("c", 1 if pivot_cols[col0] == r else 0)
        if col0 < pivots[r] - 1:
            return ("c", 0)
        return ("v", free_index[(r, col0)])

    return entry


@functools.lru_cache(maxsize=8)
def plucker_matrix(gf, k, n):
    """Matrix whose column j is the Plucker vector of the j-th enumerated
    point of G(k, n) (rows in lexicographic multi-index order), or None when
    the field has no vectorized backend or the matrix would be too large.
    The cached array is read-only."""
    ops = vector_ops(gf)
    if ops is None:
        return None
    size = gaussian_binomial(k, n, gf.q)
    big_n = _binom(n, k)
    if size * big_n > PLUCKER_CACHE_CAP:
        return None
    indices = multi_indices(k, n)
    blocks = []
    for pivots in itertools.combinations(range(1, n + 1), k):
        free = cell_free_positions(pivots, k, n)
        free_index = {pos: i for i, pos in enumerate(free)}
        arrays = position_arrays([gf.q] * len(free), 0, ops.dtype)
        cell_size = 1
        for _ in free:
            cell_size *= gf.q
        entry = _cell_entry_plan(pivots, k, n, free_index)
        block = np.empty((big_n, cell_size), dtype=ops.dtype)
        for row_pos, idx in enumerate(indices):
            mat = [
                [
                    arrays[e[1]] if e[0] == "v" else e[1]
                    for e in (entry(r, c - 1) for c in idx)
                ]
                for r in range(k)
            ]
            d = det_any(ops, mat)
            block[row_pos] = d  # scalar broadcasts
        blocks.append(block)
    out = np.concatenate(blocks, axis=1)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def form_values(gf, coeffs, mat):
    """GF dot product of a coefficient vector with every column of mat."""
    ops = vector_ops(gf)
    acc = np.zeros(mat.shape[1], dtype=ops.dtype)
    for c, row in zip(coeffs, mat):
        if c:
            acc = ops.add(acc, ops.mul(int(c), row))
    return acc


def count_nonzero_pairings(gf, coeffs, mat):
    return int(np.count_nonzero(form_values(gf, coeffs, mat)))
