"""Property tests of the field backend over prime powers up to about 1024.

Fields are drawn from every order make_field accepts up to 1024; 512 = 2^9
and 1024 = 2^10 lie beyond MAX_DEGREE, so GF(256) is the largest binary
field.  The draws include the odd extension fields GF(529), GF(625),
GF(729) and GF(961), whose addition goes through Zech logarithms.  Runs are
derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdscensus import _vecgf
from mdscensus.errors import NonPrimePower, UnsupportedSize
from mdscensus.fields import field_of_order


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
    assert ops.neg(x).tolist() == [gf.neg(a) for a in xs]
