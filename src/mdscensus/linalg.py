"""Dense matrix algebra over GF(q) and Grassmannian enumeration.

Matrices are immutable row-major tuples of int encodings.  The Grassmannian
G(k, n) is enumerated one reduced-row-echelon representative per subspace,
cell by cell: pivot sets in lexicographic order, free entries in odometer
order (last free position cycles fastest).
"""

import itertools
import math
from dataclasses import dataclass

from .budget import check_budget
from .errors import (
    BadIndex,
    DivisibilityViolation,
    FieldMismatch,
    OutOfRange,
    ShapeMismatch,
)


class MatrixGF:
    """A rows x cols matrix over a GF context; data is a flat row-major tuple."""

    __slots__ = ("gf", "rows", "cols", "data")

    def __init__(self, gf, rows, cols, data):
        data = tuple(data)
        if len(data) != rows * cols:
            raise ShapeMismatch(f"need {rows * cols} entries, got {len(data)}")
        for v in data:
            if not 0 <= v < gf.q:
                raise FieldMismatch(f"entry {v} is not an element of GF({gf.q})")
        self.gf = gf
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, gf, rows):
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatch("ragged rows")
        return cls(gf, len(rows), ncols, tuple(itertools.chain.from_iterable(rows)))

    @classmethod
    def identity(cls, gf, n):
        return cls(gf, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i, j):
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def stack(self, other):
        if other.cols != self.cols or other.gf != self.gf:
            raise ShapeMismatch("stack needs matching width and field")
        return MatrixGF(self.gf, self.rows + other.rows, self.cols, self.data + other.data)

    def mul(self, other):
        if self.cols != other.rows or self.gf != other.gf:
            raise ShapeMismatch("incompatible shapes for matrix product")
        gf = self.gf
        rows = [other.row(t) for t in range(other.rows)]
        out = []
        for i in range(self.rows):
            acc = [0] * other.cols
            for c, row in zip(self.row(i), rows):
                if c:
                    acc = [gf.add(x, gf.mul(c, y)) for x, y in zip(acc, row)]
            out += acc
        return MatrixGF(gf, self.rows, other.cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.gf == other.gf
            and (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)
        )

    def __hash__(self):
        return hash((self.gf, self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows))
        return f"MatrixGF({self.gf!r}, [{body}])"


def _rref_rows(gf, rows, ncols):
    """In-place reduced row echelon form on a list of row lists.

    Returns (pivot_columns, rank); rows below the rank are zeroed.
    """
    mul, sub, inv = gf.mul, gf.sub, gf.inv
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        if lead != 1:
            s = inv(lead)
            rows[r] = [mul(s, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [sub(ri[t], mul(f, rr[t])) for t in range(ncols)]
        pivots.append(c)
        r += 1
    return pivots, r


def rref(matrix):
    """Unique reduced row echelon form and rank; row space preserved."""
    rows = matrix.row_list()
    _, rank = _rref_rows(matrix.gf, rows, matrix.cols)
    return MatrixGF.from_rows(matrix.gf, rows), rank


def rank(matrix):
    rows = matrix.row_list()
    _, r = _rref_rows(matrix.gf, rows, matrix.cols)
    return r


def kernel_basis(matrix):
    """Rows spanning {x : matrix @ x = 0}, echelonized (deterministic)."""
    gf = matrix.gf
    rows = matrix.row_list()
    pivots, _ = _rref_rows(gf, rows, matrix.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        vec = [0] * matrix.cols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = gf.neg(rows[r][free])
        basis.append(vec)
    return MatrixGF.from_rows(gf, basis) if basis else MatrixGF(gf, 0, matrix.cols, ())


def det(matrix):
    """Determinant by elimination; closed forms for sizes up to 3."""
    if matrix.rows != matrix.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    gf = matrix.gf
    n = matrix.rows
    d = matrix.data
    if n == 0:
        return 1
    if n == 1:
        return d[0]
    mul, sub = gf.mul, gf.sub
    if n == 2:
        return sub(mul(d[0], d[3]), mul(d[1], d[2]))
    if n == 3:
        a, b, c, e, f, g, h, i, j = d
        t1 = mul(a, sub(mul(f, j), mul(g, i)))
        t2 = mul(b, sub(mul(e, j), mul(g, h)))
        t3 = mul(c, sub(mul(e, i), mul(f, h)))
        return gf.add(sub(t1, t2), t3)
    # general case: track the sign of row swaps during elimination
    rows = matrix.row_list()
    out = 1
    negate = False
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            negate = not negate
        lead = rows[c][c]
        out = mul(out, lead)
        s = gf.inv(lead)
        for r in range(c + 1, n):
            if rows[r][c]:
                f = mul(s, rows[r][c])
                rows[r] = [sub(rows[r][t], mul(f, rows[c][t])) for t in range(n)]
    return gf.neg(out) if negate else out


def minor(matrix, col_set):
    """Determinant of the square submatrix on the 1-based columns col_set."""
    k = matrix.rows
    if len(col_set) != k:
        raise BadIndex(f"need {k} columns, got {len(col_set)}")
    if len(set(col_set)) != len(col_set):
        return 0
    for c in col_set:
        if not 1 <= c <= matrix.cols:
            raise BadIndex(f"column {c} outside 1..{matrix.cols}")
    sub_data = []
    for i in range(k):
        base = i * matrix.cols
        sub_data.extend(matrix.data[base + c - 1] for c in col_set)
    return det(MatrixGF(matrix.gf, k, k, sub_data))


# ---------------------------------------------------------------------------
# Counting formulas.
# ---------------------------------------------------------------------------

def gaussian_binomial(k, n, q):
    """Number of k-dimensional subspaces of GF(q)^n, exact."""
    if not 0 <= k <= n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    if num % den != 0:
        raise DivisibilityViolation(
            f"Gaussian binomial ({n} choose {k})_{q}: {num} not divisible by {den}"
        )
    return num // den


def gl_order(m, q):
    """Order of the general linear group GL(m, GF(q)), exact."""
    if m < 0:
        raise OutOfRange("m must be nonnegative")
    out = q ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        out *= q**i - 1
    return out


# ---------------------------------------------------------------------------
# Grassmannian enumeration via echelon representatives.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrassmannPoint:
    """A k-subspace of GF(q)^n: its unique rref basis matrix and pivot columns."""

    matrix: MatrixGF
    pivots: tuple  # 1-based, strictly increasing

    @property
    def k(self):
        return self.matrix.rows

    @property
    def n(self):
        return self.matrix.cols


def point_from_rows(gf, rows):
    """Canonical GrassmannPoint spanned by the given row vectors."""
    m = MatrixGF.from_rows(gf, rows)
    red, rk = rref(m)
    if rk != m.rows:
        raise ShapeMismatch("rows are linearly dependent")
    pivots = tuple(
        next(j for j in range(red.cols) if red.entry(i, j)) + 1 for i in range(rk)
    )
    return GrassmannPoint(red, pivots)


def cell_free_positions(pivots, k, n):
    """Free (row, col) slots, 0-based columns, of the echelon cell with the
    given 1-based pivot columns; row-major order."""
    pivot_cols = set(p - 1 for p in pivots)
    out = []
    for r in range(k):
        start = pivots[r] - 1
        for c in range(start + 1, n):
            if c not in pivot_cols:
                out.append((r, c))
    return out


def _cell_matrix_template(pivots, k, n):
    """Flat row-major template with 0/1 constants and None at free slots,
    the free slots in cell_free_positions order: the one echelon-cell layout
    of enumerate_grassmannian and of the Plucker blocks."""
    data = [0] * (k * n)
    for r, p in enumerate(pivots):
        data[r * n + (p - 1)] = 1
    for r, c in cell_free_positions(pivots, k, n):
        data[r * n + c] = None
    return data


def enumerate_grassmannian(gf, k, n, budget=None):
    """Yield every k-subspace of GF(q)^n exactly once, deterministically.

    Pivot sets run in lexicographic order; within a cell the free entries run
    in odometer order over gf.elements() (the last free slot cycles fastest).
    Total yield count equals gaussian_binomial(k, n, q).
    """
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    q = gf.q
    estimate = q ** (k * (n - k)) * _binom(n, k)
    check_budget(estimate, budget, f"G({k},{n}) over GF({q})")
    elems = tuple(gf.elements())
    for pivots in itertools.combinations(range(1, n + 1), k):
        template = _cell_matrix_template(pivots, k, n)
        free = [r * n + c for r, c in cell_free_positions(pivots, k, n)]
        if not free:
            yield GrassmannPoint(MatrixGF(gf, k, n, template), pivots)
            continue
        for values in itertools.product(elems, repeat=len(free)):
            data = list(template)
            for pos, v in zip(free, values):
                data[pos] = v
            yield GrassmannPoint(MatrixGF(gf, k, n, data), pivots)


def _binom(n, k):
    """C(n, k), and 0 outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0
