import itertools

import numpy as np
import pytest

from mdscensus import _vecgf, fields, verify
from mdscensus.errors import (
    DivisionByZero,
    FieldMismatch,
    NonPrimeCharacteristic,
    NonPrimePower,
    UnsupportedSize,
)
from mdscensus.fields import field_of_order, make_field


def smallest_irreducible_quadratic_by_root_search(p):
    """Independent oracle: scan monic quadratics x^2+bx+c in high-degree-first
    order and return the first one without a root in GF(p)."""
    for b in range(p):
        for c in range(p):
            if all((x * x + b * x + c) % p != 0 for x in range(p)):
                return (c, b, 1)
    raise AssertionError


def test_gf2_modulus_is_x():
    gf = make_field(2, 1)
    assert gf.modulus == (0, 1)
    assert gf.q == 2


def test_gf9_modulus_matches_root_search_oracle():
    expected = smallest_irreducible_quadratic_by_root_search(3)
    gf = make_field(3, 2)
    assert gf.modulus == expected
    assert gf.modulus == (1, 0, 1)  # frozen from the oracle: x^2 + 1


@pytest.mark.parametrize("p, m", [(2, 3), (5, 2), (3, 3)])
def test_modulus_is_smallest_with_constant_term_most_significant(p, m):
    # below degree 4 a monic polynomial is irreducible iff it has no root;
    # candidates (c_0, ..., c_{m-1}, 1) count up with c_0 the top digit
    def rootless(poly):
        return all(sum(c * x**i for i, c in enumerate(poly)) % p
                   for x in range(p))

    expected = next(low + (1,) for low in itertools.product(range(p), repeat=m)
                    if rootless(low + (1,)))
    assert make_field(p, m).modulus == expected
    pinned = {(2, 3): (1, 0, 1, 1),   # x^3 + x^2 + 1, not x^3 + x + 1
              (5, 2): (1, 1, 1),      # x^2 + x + 1, not x^2 + 2
              (3, 3): (1, 0, 2, 1)}   # x^3 + 2x^2 + 1, not x^3 + 2x + 1
    assert expected == pinned[p, m]


def test_make_field_rejects_bad_parameters():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1, 1)
    with pytest.raises(UnsupportedSize):
        make_field(2, 9)
    with pytest.raises(UnsupportedSize):
        make_field(1031, 2)  # 1031^2 > 2^20


def test_make_field_deterministic_and_cached():
    a = make_field(5, 2)
    b = make_field(5, 2)
    assert a is b
    assert a == b


def test_field_of_order_factors_prime_powers():
    assert field_of_order(8).p == 2 and field_of_order(8).m == 3
    assert field_of_order(9).p == 3 and field_of_order(9).m == 2
    assert field_of_order(7).m == 1
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(NonPrimePower):
            field_of_order(bad)
    # against the definitions on 0..4096: a prime has exactly two divisors,
    # a prime power exactly one prime divisor
    top = 4096
    divisors = [0] * (top + 1)
    for d in range(1, top + 1):
        for multiple in range(d, top + 1, d):
            divisors[multiple] += 1
    prime_divisors = [[] for _ in range(top + 1)]
    for p in range(2, top + 1):
        if divisors[p] == 2:
            for multiple in range(p, top + 1, p):
                prime_divisors[multiple].append(p)
    for q in range(top + 1):
        assert fields.is_prime(q) == (divisors[q] == 2), q
        if len(prime_divisors[q]) == 1:
            p = prime_divisors[q][0]
            m = next(m for m in range(1, 13) if p**m == q)
            assert fields.factor_prime_power(q) == (p, m)
        else:
            with pytest.raises(NonPrimePower):
                fields.factor_prime_power(q)


def test_gf2_add():
    gf = make_field(2, 1)
    assert gf.add(1, 1) == 0


def test_gf4_mul_x_times_x_plus_1():
    gf = make_field(2, 2)
    x = gf.encode((0, 1))
    x1 = gf.encode((1, 1))
    # x*(x+1) = x^2+x reduced by x^2+x+1 gives 1
    assert gf.mul(x, x1) == 1


def test_gf5_scalar_examples():
    gf = make_field(5, 1)
    assert gf.mul(2, 3) == 1
    assert gf.inv(2) == 3


def test_gf2_inv_one():
    gf = make_field(2, 1)
    assert gf.inv(1) == 1


def test_gf4_inv_x():
    gf = make_field(2, 2)
    x = gf.encode((0, 1))
    assert gf.inv(x) == gf.encode((1, 1))


def test_elements_order_and_length():
    assert list(make_field(2, 1).elements()) == [0, 1]
    assert list(make_field(3, 1).elements()) == [0, 1, 2]
    gf4 = make_field(2, 2)
    assert list(gf4.elements()) == [0, 1, 2, 3]
    assert gf4.coeffs(2) == (0, 1)  # the element x
    assert gf4.coeffs(3) == (1, 1)  # the element x + 1
    for q in (2, 3, 4, 5, 8, 9, 16, 25):
        elems = list(field_of_order(q).elements())
        assert len(elems) == q == len(set(elems))
        assert elems[0] == 0 and elems[1] == 1


def test_axioms_entry_names_the_elements_of_a_failing_axiom(monkeypatch):
    # a product off at 2 * 2 alone stays commutative and keeps every
    # identity, so the triple loop is the first to see it: at (2, 1, 1),
    # 2 * (1 + 1) reads 0 while 2 * 1 + 2 * 1 = 4
    mul = fields.GF.mul
    monkeypatch.setattr(fields.GF, "mul",
                        lambda gf, a, b: 0 if (a, b) == (2, 2) else mul(gf, a, b))
    (entry,) = [c for c in verify.REGISTRY if c.name == "axioms-q5"]
    result = verify.run_check(entry)
    assert not result.passed
    assert result.detail == "an axiom fails at (2, 1, 1)"


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        make_field(3, 1).inv(0)


def test_encoding_round_trip():
    for q in (2, 4, 8, 9, 16, 27):
        gf = field_of_order(q)
        for a in gf.elements():
            assert gf.encode(gf.coeffs(a)) == a


def test_out_of_range_encoding_rejected():
    gf = make_field(3, 1)
    with pytest.raises(FieldMismatch):
        gf.add(3, 0)
    with pytest.raises(FieldMismatch):
        gf.mul(1, -1)
    with pytest.raises(FieldMismatch):
        gf.encode((3,))


def test_large_field_without_tables():
    gf = make_field(521, 1)  # a prime above 256 takes the same log/exp path
    assert gf.mul(2, 3) == 6
    assert gf.mul(gf.inv(7), 7) == 1
    assert gf.sub(3, 5) == 521 - 2


@pytest.mark.parametrize("q", [32, 49, 64, 81, 125, 128, 243, 256])
def test_larger_table_fields_consistent(q):
    gf = field_of_order(q)
    # spot identities across the whole field without cubic sweeps
    for a in range(1, q):
        assert gf.mul(a, gf.inv(a)) == 1
    for a in range(0, q, 7):
        assert gf.add(a, gf.neg(a)) == 0
        assert gf.pow(a, q) == a  # Frobenius fixed point of x -> x^q
    assert gf.encode(gf.coeffs(q - 1)) == q - 1


def test_is_irreducible_agrees_with_factor_search():
    # degree-2 and degree-3 candidates over GF(2), GF(3): a polynomial is
    # reducible exactly when it has a root or (deg 4) a quadratic factor
    for p in (2, 3):
        for d in (2, 3):
            for poly in fields._monic_polys(p, d):
                has_root = any(
                    sum(c * x**i for i, c in enumerate(poly)) % p == 0
                    for x in range(p)
                )
                assert fields.is_irreducible(poly, p) == (not has_root)
    # a constant is not irreducible, and every linear polynomial is
    assert not fields.is_irreducible((1,), 2)
    assert fields.is_irreducible((1, 1), 2) and fields.is_irreducible((0, 2), 3)


PRIME_POWERS_TO_256 = [q for q in range(2, 257)
                       if len(fields._prime_factors(q)) == 1]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_256)
def test_ops_match_poly_reference_on_all_pairs(q):
    """The log/exp (and Zech) scalar ops equal the polynomial reference on
    every pair, and the VecOps array ops equal the scalar ops on every pair."""
    gf = field_of_order(q)
    add = [[gf._digit_sum(a, b) for b in range(q)] for a in range(q)]
    mul = [[gf._mul_raw(a, b) for b in range(q)] for a in range(q)]
    neg = [row.index(0) for row in add]
    assert [gf.neg(a) for a in range(q)] == neg
    assert [[gf.add(a, b) for b in range(q)] for a in range(q)] == add
    assert [[gf.sub(a, b) for b in range(q)] for a in range(q)] == [
        [row[neg[b]] for b in range(q)] for row in add]
    assert [[gf.mul(a, b) for b in range(q)] for a in range(q)] == mul
    assert all(mul[a][gf.inv(a)] == 1 for a in range(1, q))
    ops = _vecgf.vector_ops(gf)
    x, y = (v.astype(ops.dtype).ravel() for v in np.indices((q, q)))
    assert ops.add(x, y).reshape(q, q).tolist() == add
    assert ops.mul(x, y).reshape(q, q).tolist() == mul
    assert ops.sub(x, y).reshape(q, q).tolist() == [
        [row[neg[b]] for b in range(q)] for row in add]
    # the digit sum is exact on arrays too, subtraction included
    assert gf._digit_sum(x, y, -1).reshape(q, q).tolist() == [
        [row[neg[b]] for b in range(q)] for row in add]


# both sides of the q x q table edge, q * q - 1 <= 32767: prime fields, p = 2
# and odd extensions; 181 is the largest table field, 191 the next order, and
# past it 343 = 7^3 carries its digit sums across three digits with p > 3
TABLE_EDGE_ORDERS = (2, 4, 7, 9, 125, 128, 169, 181, 191, 243, 256, 343)


@pytest.mark.parametrize("q", TABLE_EDGE_ORDERS)
def test_vecops_tables_match_field_ops_on_all_pairs(q):
    """Every VecOps array op on the q x q grid, x * q + y in order, equals
    the scalar GF op on that pair; on a table field the grid reads every
    entry of each table.  The quotient's y = 0 column is -1."""
    gf = field_of_order(q)
    ops = _vecgf.vector_ops(gf)
    additive = (ops._add, ops._sub)
    if q <= 181:
        # p = 2 adds and subtracts by XOR
        assert all(t is None for t in additive) == (gf.p == 2)
        tables = [ops._mul, ops._div] + [t for t in additive if t is not None]
        assert ops.dtype == np.int16 and all(t.dtype == np.int16 for t in tables)
    else:
        assert ops._mul is None and ops._div is None and additive == (None,) * 2
    pairs = list(itertools.product(range(q), repeat=2))
    x, y = np.indices((q, q), dtype=ops.dtype).reshape(2, -1)
    for name in ("add", "sub", "mul"):
        scalar = getattr(gf, name)
        assert getattr(ops, name)(x, y).tolist() == [scalar(a, b) for a, b in pairs], name
    quotient = ops.quotient(x, y).reshape(q, q)
    assert (quotient[:, 0] == -1).all()
    assert quotient[:, 1:].ravel().tolist() == [gf.div(a, b) for a in range(q)
                                                for b in range(1, q)]
