"""Dense matrix algebra over GF(q) and Grassmannian enumeration.

Matrices are immutable row-major tuples of int encodings.  The Grassmannian
G(k, n) is enumerated one reduced-row-echelon representative per subspace,
cell by cell: pivot sets in lexicographic order, free entries in odometer
order (last free position cycles fastest).  The lexicographic k-subsets of
1..n (multi_indices) index both the pivot sets and the Plucker coordinates.
"""

import functools
import itertools
import math
from dataclasses import dataclass

from .budget import check_budget
from .errors import (
    BadIndex,
    OutOfRange,
    ShapeMismatch,
    exact_quotient,
)


class MatrixGF:
    """A rows x cols matrix over a GF context; data is a flat row-major tuple."""

    __slots__ = ("gf", "rows", "cols", "data")

    def __init__(self, gf, rows, cols, data):
        data = gf.encodings(data)
        if len(data) != rows * cols:
            raise ShapeMismatch(f"need {rows * cols} entries, got {len(data)}")
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
        """Entry (i, j) is the dot of row i and column j."""
        if self.cols != other.rows or self.gf != other.gf:
            raise ShapeMismatch("incompatible shapes for matrix product")
        dot = self.gf._udot
        columns = [other.data[j::other.cols] for j in range(other.cols)]
        return MatrixGF(self.gf, self.rows, other.cols,
                        [dot(self.row(i), col) for i in range(self.rows) for col in columns])

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


def _echelon_rows(gf, rows, ncols):
    """In-place forward elimination on a list of row lists: each pivot
    clears the rows below it, and rows below the rank end up zero.

    Returns (pivot_columns, scale, inverses).  scale is the product of the
    pivots, negated once per row swap: the determinant of a square matrix
    of full rank.  inverses holds the inverse of each pivot, for
    _reduce_rows.  The entries must be field encodings, as a MatrixGF's
    are: the rows are combined with the field's unchecked operations.
    """
    mul, sub, neg, inv = gf._umul, gf._usub, gf._uneg, gf._uinv
    nrows = len(rows)
    pivots = []
    inverses = []
    scale = 1
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            scale = neg(scale)
        rr = rows[r]
        lead = rr[c]
        scale = mul(scale, lead)
        s = inv(lead)
        for i in range(r + 1, nrows):
            if rows[i][c]:
                # both rows are zero before column c
                f = mul(s, rows[i][c])
                rows[i] = rows[i][:c] + [sub(a, mul(f, b))
                                         for a, b in zip(rows[i][c:], rr[c:])]
        pivots.append(c)
        inverses.append(s)
        r += 1
    return pivots, scale, inverses


def _reduce_rows(gf, rows, pivots, inverses):
    """In-place backward half on rows in echelon form with these pivot
    columns and pivot inverses, from _echelon_rows: scale each pivot row to
    1 and clear above each pivot, which leaves the unique reduced row
    echelon form."""
    mul, sub = gf._umul, gf._usub
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        s = inverses[r]
        if s != 1:
            # the pivot row is zero before column c
            rows[r][c:] = [mul(s, v) for v in rows[r][c:]]
        rr = rows[r]
        for i in range(r):
            if rows[i][c]:
                f = rows[i][c]
                rows[i] = rows[i][:c] + [sub(a, mul(f, b))
                                         for a, b in zip(rows[i][c:], rr[c:])]


def _rref_rows(gf, rows, ncols):
    """The row lists in reduced row echelon form, reduced in place, and
    their pivot columns, 0-based: _echelon_rows, then _reduce_rows."""
    pivots, _, inverses = _echelon_rows(gf, rows, ncols)
    _reduce_rows(gf, rows, pivots, inverses)
    return rows, pivots


def rref(matrix):
    """Unique reduced row echelon form and rank; row space and shape
    preserved."""
    rows, pivots = _rref_rows(matrix.gf, matrix.row_list(), matrix.cols)
    return (MatrixGF(matrix.gf, matrix.rows, matrix.cols,
                     itertools.chain.from_iterable(rows)), len(pivots))


def rank(matrix):
    pivots, _, _ = _echelon_rows(matrix.gf, matrix.row_list(), matrix.cols)
    return len(pivots)


def kernel_basis(matrix):
    """Rows spanning {x : matrix @ x = 0}, echelonized (deterministic); the
    result has matrix.cols columns, rows or none."""
    gf = matrix.gf
    rows, pivots = _rref_rows(gf, matrix.row_list(), matrix.cols)
    basis = []
    for free in sorted(set(range(matrix.cols)).difference(pivots)):
        vec = [0] * matrix.cols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = gf._uneg(rows[r][free])
        basis.append(vec)
    return MatrixGF(gf, len(basis), matrix.cols, itertools.chain.from_iterable(basis))


def _det_rows(gf, rows):
    """Determinant of the square matrix with these row lists of field
    encodings: the scale of the forward elimination (see _echelon_rows) at
    full rank, 0 below it; 1 for no rows.  The rows are consumed."""
    pivots, scale, _ = _echelon_rows(gf, rows, len(rows))
    return scale if len(pivots) == len(rows) else 0


def det(matrix):
    """Determinant of a square matrix, by _det_rows."""
    if matrix.rows != matrix.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    return _det_rows(matrix.gf, matrix.row_list())


def minor(matrix, col_set):
    """Determinant of the square submatrix on the 1-based columns col_set."""
    k = matrix.rows
    if len(col_set) != k:
        raise BadIndex(f"need {k} columns, got {len(col_set)}")
    for c in col_set:
        if not 1 <= c <= matrix.cols:
            raise BadIndex(f"column {c} outside 1..{matrix.cols}")
    return _det_rows(matrix.gf, [[matrix.data[i * matrix.cols + c - 1] for c in col_set]
                                 for i in range(k)])


# ---------------------------------------------------------------------------
# Counting formulas.
# ---------------------------------------------------------------------------

def check_shape(k, n):
    """OutOfRange unless 1 <= k <= n, the shapes of G(k, n) that the census
    routes, the Grassmannian walks and the form weights take."""
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")


def gaussian_binomial(k, n, q):
    """Number of k-dimensional subspaces of GF(q)^n, exact."""
    if not 0 <= k <= n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return exact_quotient(num, den, f"Gaussian binomial ({n} choose {k})_{q}")


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
    return point_from_matrix(MatrixGF.from_rows(gf, rows))


def point_from_matrix(m):
    """Canonical GrassmannPoint spanned by the rows of m, in m.cols
    dimensions even when m has no rows."""
    rows, pivots = _rref_rows(m.gf, m.row_list(), m.cols)
    if len(pivots) != m.rows:
        raise ShapeMismatch("rows are linearly dependent")
    return GrassmannPoint(MatrixGF(m.gf, m.rows, m.cols,
                                   itertools.chain.from_iterable(rows)),
                          tuple(c + 1 for c in pivots))


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
    Total yield count equals gaussian_binomial(k, n, q), which the budget
    counts.
    """
    check_shape(k, n)
    q = gf.q
    check_budget(gaussian_binomial(k, n, q), budget, f"G({k},{n}) over GF({q})")
    elems = tuple(gf.elements())
    for pivots in multi_indices(k, n):
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


@functools.lru_cache(maxsize=None)
def multi_indices(k, n):
    """All strictly increasing k-tuples from 1..n, lexicographic."""
    if k < 0 or k > n:
        return ()
    return tuple(itertools.combinations(range(1, n + 1), k))


@functools.lru_cache(maxsize=None)
def index_positions(k, n):
    return {idx: pos for pos, idx in enumerate(multi_indices(k, n))}
