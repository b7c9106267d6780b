import itertools
import random

import pytest

from mdscensus.errors import BadIndex, BudgetExceeded, OutOfRange
from mdscensus.fields import field_of_order, make_field
from mdscensus.linalg import (
    MatrixGF,
    cell_free_positions,
    det,
    enumerate_grassmannian,
    gaussian_binomial,
    gl_order,
    kernel_basis,
    minor,
    point_from_rows,
    rank,
    rref,
)


def brute_force_det(gf, m):
    """Leibniz-formula determinant: independent of the elimination path."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term = gf.mul(term, m.entry(i, perm[i]))
        total = gf.add(total, term if sign == 1 else gf.neg(term))
    return total


def test_rref_identity_fixed_point():
    gf = make_field(3, 1)
    eye = MatrixGF.identity(gf, 2)
    red, rk = rref(eye)
    assert red == eye and rk == 2


def test_rref_rank_one():
    gf = make_field(2, 1)
    m = MatrixGF.from_rows(gf, [[1, 1], [1, 1]])
    red, rk = rref(m)
    assert red == MatrixGF.from_rows(gf, [[1, 1], [0, 0]])
    assert rk == 1


def test_rref_hand_elimination():
    gf = make_field(2, 1)
    m = MatrixGF.from_rows(gf, [[0, 1, 1], [1, 0, 1]])
    red, rk = rref(m)
    assert red == MatrixGF.from_rows(gf, [[1, 0, 1], [0, 1, 1]])
    assert rk == 2


def test_rref_idempotent_random():
    rng = random.Random(7)
    for q in (2, 3, 4, 5):
        gf = field_of_order(q)
        for _ in range(25):
            rows = [[rng.randrange(q) for _ in range(5)] for _ in range(3)]
            m = MatrixGF.from_rows(gf, rows)
            red, _ = rref(m)
            again, _ = rref(red)
            assert red == again


def test_minor_identity_block():
    gf = make_field(5, 1)
    m = MatrixGF.from_rows(gf, [[1, 0, 4, 2], [0, 1, 3, 3]])
    assert minor(m, (1, 2)) == 1


def test_minor_hand_value():
    gf = make_field(2, 1)
    m = MatrixGF.from_rows(gf, [[1, 0, 1], [0, 1, 1]])
    assert minor(m, (2, 3)) == 1  # det [[0,1],[1,1]] = -1 = 1 over GF(2)


def test_minor_repeated_column_is_zero():
    gf = make_field(3, 1)
    m = MatrixGF.from_rows(gf, [[1, 2, 0], [2, 2, 1]])
    assert minor(m, (2, 2)) == 0


def test_minor_bad_index():
    gf = make_field(3, 1)
    m = MatrixGF.from_rows(gf, [[1, 2, 0], [2, 2, 1]])
    with pytest.raises(BadIndex):
        minor(m, (1, 4))
    with pytest.raises(BadIndex):
        minor(m, (1, 2, 3))


def test_det_matches_leibniz_oracle():
    rng = random.Random(11)
    for q in (2, 3, 4):
        gf = field_of_order(q)
        for size in (1, 2, 3, 4, 5):
            for _ in range(20):
                m = MatrixGF(
                    gf, size, size, tuple(rng.randrange(q) for _ in range(size * size))
                )
                assert det(m) == brute_force_det(gf, m)


def test_minor_multiplicative_under_gl():
    rng = random.Random(13)
    for q in (2, 3, 5):
        gf = field_of_order(q)
        for _ in range(20):
            m = MatrixGF(gf, 2, 4, tuple(rng.randrange(q) for _ in range(8)))
            while True:
                t = MatrixGF(gf, 2, 2, tuple(rng.randrange(q) for _ in range(4)))
                if det(t) != 0:
                    break
            tm = t.mul(m)
            for cols in itertools.combinations(range(1, 5), 2):
                assert minor(tm, cols) == gf.mul(det(t), minor(m, cols))


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 4, 2) == 35
    assert gaussian_binomial(0, 7, 3) == 1
    assert gaussian_binomial(3, 6, 2) == 1395
    assert gaussian_binomial(2, 4, 3) == 130
    assert gaussian_binomial(1, 2, 2) == 3


def test_gaussian_binomial_symmetry():
    for n in range(7):
        for k in range(n + 1):
            for q in (2, 3, 4, 5):
                assert gaussian_binomial(k, n, q) == gaussian_binomial(n - k, n, q)


def test_gl_order_values():
    assert gl_order(1, 3) == 2
    assert gl_order(2, 2) == 6
    assert gl_order(0, 5) == 1


def test_gl_order_recurrence():
    # |GL(k)| = q^(k-1) (q^k - 1) |GL(k-1)|
    for q in (2, 3, 4, 5):
        for k in range(1, 7):
            assert gl_order(k, q) == q ** (k - 1) * (q**k - 1) * gl_order(k - 1, q)


def test_gl_order_counts_invertible_matrices():
    for q in (2, 3):
        gf = field_of_order(q)
        count = 0
        for data in itertools.product(range(q), repeat=4):
            if det(MatrixGF(gf, 2, 2, data)) != 0:
                count += 1
        assert count == gl_order(2, q)


def test_enumerate_small_counts():
    gf2 = make_field(2, 1)
    assert sum(1 for _ in enumerate_grassmannian(gf2, 2, 4)) == 35
    assert sum(1 for _ in enumerate_grassmannian(gf2, 1, 2)) == 3
    gf3 = make_field(3, 1)
    assert sum(1 for _ in enumerate_grassmannian(gf3, 2, 4)) == 130


def test_enumerate_counts_match_gaussian_binomial():
    for q in (2, 3, 4):
        gf = field_of_order(q)
        for n in range(1, 7):
            for k in range(1, n + 1):
                got = sum(1 for _ in enumerate_grassmannian(gf, k, n))
                assert got == gaussian_binomial(k, n, q), (k, n, q)


def test_enumerate_no_duplicate_row_spaces_small():
    gf = make_field(2, 1)
    seen = set()
    for pt in enumerate_grassmannian(gf, 2, 4):
        space = frozenset(_span(gf, pt.matrix))
        assert space not in seen
        seen.add(space)
    assert len(seen) == 35


def test_enumerate_order_is_documented():
    # pivot sets lexicographic, free entries in odometer order (last free
    # slot cycles fastest)
    gf = make_field(2, 1)
    pts = list(enumerate_grassmannian(gf, 1, 3))
    rows = [pt.matrix.row(0) for pt in pts]
    assert rows == [
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        (0, 1, 0), (0, 1, 1),
        (0, 0, 1),
    ]
    pivots = [pt.pivots for pt in enumerate_grassmannian(gf, 2, 4)]
    ordered = sorted(set(pivots))
    seen = [p for i, p in enumerate(pivots) if i == 0 or pivots[i - 1] != p]
    assert seen == ordered


def test_enumerate_points_are_rref_with_pivots():
    gf = make_field(3, 1)
    for pt in enumerate_grassmannian(gf, 2, 4):
        red, rk = rref(pt.matrix)
        assert rk == 2
        assert red == pt.matrix
        for r, p in enumerate(pt.pivots):
            assert pt.matrix.entry(r, p - 1) == 1


def test_enumerate_budget():
    gf = make_field(2, 1)
    with pytest.raises(BudgetExceeded):
        list(enumerate_grassmannian(gf, 2, 4, budget=10))
    with pytest.raises(OutOfRange):
        list(enumerate_grassmannian(gf, 3, 2))


def test_enumerate_budget_counts_the_points_it_yields():
    # G(2,4) over GF(2) has 35 points; the budget used to count 2^4 * C(4,2)
    gf = make_field(2, 1)
    with pytest.raises(BudgetExceeded):
        list(enumerate_grassmannian(gf, 2, 4, budget=34))
    assert len(list(enumerate_grassmannian(gf, 2, 4, budget=35))) == 35


def test_cell_free_positions_dimensions():
    # sum of q^(free slots) over cells is the Gaussian binomial
    for q in (2, 3):
        for n in range(1, 7):
            for k in range(1, n + 1):
                total = 0
                for pivots in itertools.combinations(range(1, n + 1), k):
                    total += q ** len(cell_free_positions(pivots, k, n))
                assert total == gaussian_binomial(k, n, q)


def test_point_from_rows_canonical():
    gf = make_field(2, 1)
    a = point_from_rows(gf, [[1, 0, 1, 0], [0, 1, 0, 1]])
    b = point_from_rows(gf, [[1, 1, 1, 1], [0, 1, 0, 1]])
    assert a == b
    assert a.pivots == (1, 2)


def test_kernel_basis():
    gf = make_field(3, 1)
    m = MatrixGF.from_rows(gf, [[1, 2, 0], [0, 0, 1]])
    ker = kernel_basis(m)
    assert ker.rows == 1
    for i in range(ker.rows):
        v = ker.row(i)
        for r in range(m.rows):
            acc = 0
            for c in range(m.cols):
                acc = gf.add(acc, gf.mul(m.entry(r, c), v[c]))
            assert acc == 0


def test_empty_matrices_keep_their_shape():
    # rref of a matrix with no rows used to come back 0 x 0
    gf = make_field(3, 1)
    no_rows = MatrixGF(gf, 0, 4, ())
    no_cols = MatrixGF(gf, 4, 0, ())
    assert rref(no_rows) == (no_rows, 0)
    assert rref(no_cols) == (no_cols, 0)
    assert kernel_basis(no_rows) == MatrixGF.identity(gf, 4)
    assert kernel_basis(no_cols) == MatrixGF(gf, 0, 0, ())
    full = MatrixGF.from_rows(gf, [[1, 2], [0, 1]])
    assert kernel_basis(full) == MatrixGF(gf, 0, 2, ())


@pytest.mark.parametrize("q", [5, 8, 9, 191])
@pytest.mark.parametrize("rows, inner, cols",
                         [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (3, 4, 2), (4, 3, 5)])
def test_matrix_mul_matches_triple_loop(q, rows, inner, cols):
    gf = field_of_order(q)
    rng = random.Random(q * 100 + rows * 10 + cols)
    a = MatrixGF(gf, rows, inner, [rng.randrange(q) for _ in range(rows * inner)])
    b = MatrixGF(gf, inner, cols, [rng.randrange(q) for _ in range(inner * cols)])
    expected = []
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc = gf.add(acc, gf.mul(a.entry(i, t), b.entry(t, j)))
            expected.append(acc)
    assert a.mul(b) == MatrixGF(gf, rows, cols, expected)


def _span(gf, matrix):
    vectors = [tuple([0] * matrix.cols)]
    for i in range(matrix.rows):
        row = matrix.row(i)
        new = []
        for scale in range(1, gf.q):
            scaled = tuple(gf.mul(scale, v) for v in row)
            for base in vectors:
                new.append(tuple(gf.add(a, b) for a, b in zip(base, scaled)))
        vectors.extend(new)
    return vectors


def test_rank_and_rref_match_brute_force_span():
    # rank and det run only the forward half of the elimination, rref and
    # kernel_basis both halves; the span is enumerated without either
    rng = random.Random(19)
    for q in (2, 3, 4):
        gf = field_of_order(q)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            m = MatrixGF(gf, rows, cols, [rng.randrange(q) if rng.random() < 0.6 else 0
                                          for _ in range(rows * cols)])
            space = set(_span(gf, m))
            red, rk = rref(m)
            assert q**rank(m) == len(space) == q**rk
            assert set(_span(gf, red)) == space
            assert kernel_basis(m).rows == cols - rk
            if rows == cols:
                assert (det(m) != 0) == (rk == rows)
