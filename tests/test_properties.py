"""Property tests of the field backend, the census kernel and the census.

Fields are drawn from every order make_field accepts up to 1024; 512 = 2^9
and 1024 = 2^10 lie beyond MAX_DEGREE, so GF(256) is the largest binary
field.  The draws include the odd extension fields GF(529), GF(625),
GF(729) and GF(961), whose addition goes through Zech logarithms.  The
kernel is checked on small random walks against a brute-force count, the
census against the duality gamma(k, n) = gamma(n - k, n), and the
contraction against the wedge it is adjoint to.  Runs are derandomized, so
every run checks the same examples.
"""

import functools
import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdscensus import _vecgf
from mdscensus.census import count_mds_grassmannian_filter, count_mds_matrix_scan
from mdscensus.errors import NonPrimePower, UnsupportedSize
from mdscensus.exterior import DualForm, MultiVector, interior_mult, pairing, wedge
from mdscensus.fields import field_of_order
from mdscensus.linalg import MatrixGF, _binom, rank


def _orders(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            field_of_order(q)
        except (NonPrimePower, UnsupportedSize):
            continue
        out.append(q)
    return out


ORDERS = _orders(1024)
PROPERTY = settings(max_examples=300, deadline=None, database=None,
                    derandomize=True)


@st.composite
def field_and_elements(draw, count):
    gf = field_of_order(draw(st.sampled_from(ORDERS)))
    elems = [draw(st.integers(0, gf.q - 1)) for _ in range(count)]
    return gf, elems


def test_orders_cover_large_odd_extensions():
    assert {529, 625, 729, 961, 1021}.issubset(ORDERS)
    assert 512 not in ORDERS and 1024 not in ORDERS


@PROPERTY
@given(field_and_elements(3))
def test_field_axioms(case):
    gf, (a, b, c) = case
    add, mul = gf.add, gf.mul
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, gf.neg(a)) == 0
    assert gf.sub(a, b) == add(a, gf.neg(b))
    assert add(gf.sub(a, b), b) == a
    if a:
        assert mul(a, gf.inv(a)) == 1
        assert gf.div(mul(a, b), a) == b
        assert gf.pow(a, gf.q - 1) == 1
        assert gf.pow(a, -1) == gf.inv(a)
    assert gf.pow(a, gf.q) == a  # Frobenius fixes every element
    assert gf.pow(a, 3) == mul(a, mul(a, a))


@PROPERTY
@given(field_and_elements(1))
def test_inverse_is_an_involution(case):
    gf, (a,) = case
    if a:
        assert gf.inv(gf.inv(a)) == a


@PROPERTY
@given(st.sampled_from(ORDERS), st.data())
def test_vecops_match_scalar_ops(q, data):
    gf = field_of_order(q)
    ops = _vecgf.vector_ops(gf)
    elems = st.integers(0, q - 1)
    xs = data.draw(st.lists(elems, min_size=1, max_size=40))
    ys = data.draw(st.lists(elems, min_size=len(xs), max_size=len(xs)))
    c = data.draw(elems)
    x, y = np.array(xs, dtype=ops.dtype), np.array(ys, dtype=ops.dtype)
    for name in ("add", "sub", "mul"):
        scalar = getattr(gf, name)
        vector = getattr(ops, name)
        assert vector(x, y).tolist() == [scalar(a, b) for a, b in zip(xs, ys)]
        # a Python-int constant on either side broadcasts over the array
        assert np.broadcast_to(vector(c, y), y.shape).tolist() == [
            scalar(c, b) for b in ys]
        assert np.broadcast_to(vector(x, c), x.shape).tolist() == [
            scalar(a, c) for a in xs]
        both = vector(c, ys[0])
        assert type(both) is int and both == scalar(c, ys[0])
    # the scalar dot product the pairing, the weight recursion and matrix
    # products share
    assert gf._udot(xs, ys) == functools.reduce(gf.add, map(gf.mul, xs, ys), 0)
    # exact quotients; -1 where the divisor is 0, outside every window of
    # field values the kernel counts in
    assert ops.quotient(x, y).tolist() == [
        gf.div(a, b) if b else -1 for a, b in zip(xs, ys)]


@st.composite
def kernel_walks(draw):
    """A field, a walk (sizes, offset) of at most 5 free entries, all
    running from one offset, and up to 4 minors of order 1-3 over its free
    entries and constants.  GF(7), GF(8) and GF(9) compute through the
    q x q tables, GF(191) and GF(243) past them, mod p and by log/exp with
    base-3 digits."""
    q = draw(st.sampled_from((7, 8, 9, 191, 243)))
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    offset = draw(st.integers(0, q - max(sizes)))
    entries = st.one_of(
        st.tuples(st.just("v"), st.integers(0, len(sizes) - 1)),
        st.tuples(st.just("c"), st.integers(0, q - 1)))
    minors = []
    for _ in range(draw(st.integers(0, 4))):
        order = draw(st.integers(1, 3))
        minors.append(tuple(tuple(draw(entries) for _ in range(order))
                            for _ in range(order)))
    return q, sizes, offset, minors


def _brute_force_count(gf, sizes, offset, minors):
    """Assignments of the walk whose minors all have full rank, one at a
    time through the generic matrix code."""
    count = 0
    for values in itertools.product(*(range(offset, offset + s) for s in sizes)):
        mats = [[[values[i] if kind == "v" else i for kind, i in row] for row in minor]
                for minor in minors]
        count += all(rank(MatrixGF.from_rows(gf, m)) == len(m) for m in mats)
    return count


@PROPERTY
@given(kernel_walks())
# a size-0 position inside the walk
@example((7, [2, 0, 3], 1,
          [((("v", 0),),), ((("v", 2), ("c", 1)), (("c", 3), ("v", 0)))]))
# free entries 2..3 after the last minor, which is v1 (v0 - 1), zero at
# v1 = 0 and at v0 = 1
@example((8, [3, 2, 3, 2], 0, [((("v", 0), ("v", 1)), (("c", 1), ("v", 1)))]))
# constant-only minors, [[2, 5], [4, 1]] and the singular [[2, 4], [2, 4]]
@example((9, [3, 3], 6,
          [((("c", 2), ("c", 5)), (("c", 4), ("c", 1))), ((("v", 1),),)]))
@example((9, [3, 3], 6, [((("c", 2), ("c", 4)), (("c", 2), ("c", 4)))]))
# the counted last entry x = v1 at (1, 1) with cofactor v0: at v0 = 0 the
# minor is 0 whatever x is (D = 0), then never (D = -2); at v0 = 1 the
# sign of D decides whether x = 2 or x = 5 is forbidden, and the window
# 0..2 holds 2 alone
@example((7, [3, 3], 0, [((("v", 0), ("c", 1)), (("c", 0), ("v", 1)))]))
@example((7, [2, 3], 0, [((("v", 0), ("c", 1)), (("c", 2), ("v", 1)))]))
# a minor reading its last entry twice, x^2 - 1: that entry stays walked
@example((7, [3, 3], 1, [((("v", 1), ("c", 1)), (("c", 1), ("v", 1))),
                         ((("v", 0), ("v", 1)), (("c", 1), ("c", 3)))]))
# x = v1 at (0, 1) forbids v0^-1 in {3, 4} (v0 in {5, 6}), outside the
# window 5..6
@example((9, [2, 2], 5, [((("c", 1), ("v", 1)), (("v", 0), ("c", 1)))]))
# a counted last entry with no values
@example((7, [3, 0], 1, [((("v", 0), ("v", 1)), (("c", 1), ("c", 2)))]))
# free entries 2..3 after the counted entry; at v0 = 1 two minors forbid
# the same value, and [[v1]] forbids 0, outside the window 1..3
@example((8, [3, 3, 3, 2], 1,
          [((("v", 0), ("c", 1)), (("c", 1), ("v", 1))),
           ((("v", 1), ("v", 0)), (("c", 1), ("c", 1))), ((("v", 1),),)]))
def test_kernel_matches_brute_force_at_every_prefix(walk):
    q, sizes, offset, minors = walk
    gf = field_of_order(q)
    ops = _vecgf.vector_ops(gf)
    expected = _brute_force_count(gf, sizes, offset, minors)
    for t in range(len(sizes) + 1):
        levels = _vecgf.walk_levels(minors, t, sizes[t:], offset, ops.dtype)
        got = sum(_vecgf.count_all_nonzero(ops, prefix, levels)
                  for prefix in _vecgf.prefix_values(sizes[:t], offset))
        # a Python int, so that sums over chunks never wrap
        assert got == expected and type(got) is int, t


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(st.integers(4, 7).flatmap(lambda n: st.tuples(st.integers(2, n - 2), st.just(n))),
       st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
def test_census_duality(shape, q):
    # gamma(k, n) = gamma(n - k, n): the dual of an MDS code is MDS, and the
    # scan at n - k walks the transposed minor plan; k = 1 and n - k = 1 are
    # left out, their scans have no minor to transpose
    k, n = shape
    gf = field_of_order(q)
    gamma = count_mds_matrix_scan(k, n, gf).gamma
    assert count_mds_matrix_scan(n - k, n, gf).gamma == gamma
    if (q - 1) ** ((k - 1) * (n - k)) <= 2**18:
        assert count_mds_grassmannian_filter(k, n, gf).gamma == gamma


@st.composite
def adjunction_triples(draw):
    """xi in the l-th power of V, omega in the k-th power of V* and zeta in
    the (k - l)-th power of V, for 1 <= l < k <= n <= 6 over GF(2..5)."""
    gf = field_of_order(draw(st.sampled_from((2, 3, 4, 5))))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, n))
    ell = draw(st.integers(1, k - 1))

    def element(cls, degree):
        coeffs = draw(st.lists(st.integers(0, gf.q - 1), min_size=_binom(n, degree),
                               max_size=_binom(n, degree)))
        return cls(gf, degree, n, coeffs)

    return (element(MultiVector, ell), element(DualForm, k),
            element(MultiVector, k - ell))


@PROPERTY
@given(adjunction_triples())
def test_contraction_is_adjoint_to_wedge(triple):
    xi, omega, zeta = triple
    assert pairing(interior_mult(xi, omega), zeta) == pairing(omega, wedge(xi, zeta))
