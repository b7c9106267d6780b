from fractions import Fraction

import pytest

from mdscensus.asymptotics import (
    a2_closed_form,
    arc_series_top3,
    convergence,
    params,
    predicted_gamma,
)
from mdscensus.census import gamma_closed_form
from mdscensus.errors import NonPrimePower, OutOfRange
from mdscensus.linalg import _binom


def test_a2_closed_form_examples():
    assert a2_closed_form(1, 5) == 6
    assert a2_closed_form(2, 5) == 32
    assert a2_closed_form(1, 2) == 0
    with pytest.raises(OutOfRange):
        a2_closed_form(3, 6)


def test_arc_series_reproduces_b_coefficients():
    for k, n in ((3, 10), (4, 8), (2, 5), (3, 6)):
        p = params(k, n)
        assert arc_series_top3(k, n) == (1, -p.b1, p.b2)


def test_predicted_gamma_small_cases():
    # (3,6): q^9 - 19 q^8 + 152 q^7
    for q in (2, 3, 5):
        assert predicted_gamma(3, 6, q) == q**9 - 19 * q**8 + 152 * q**7
    # (1,3): exactly (q-1)^2, residual identically zero
    for q in (2, 3, 4, 5, 7):
        assert predicted_gamma(1, 3, q) == (q - 1) ** 2
    # (2,4): the quadratic coefficient comes out of the closed form as 9
    assert a2_closed_form(2, 4) == 9
    for q in (2, 3, 4):
        assert predicted_gamma(2, 4, q) == q**4 - 5 * q**3 + 9 * q**2


def test_predicted_gamma_minimal_parameters():
    # (1,2) exercises the delta < 2 corner: a2 = 0 keeps it integral
    for q in (2, 3, 4, 5):
        assert predicted_gamma(1, 2, q) == q - 1


def test_k1_truncation_matches_binomial_coefficients():
    # the three-term truncation of the k = 1 family agrees with the leading
    # binomial coefficients of (q-1)^(n-1)
    for n in range(3, 10):
        p = params(1, n)
        assert 1 - p.big_n == -_binom(n - 1, 1)
        assert p.a2 == _binom(n - 1, 2)


def test_params_out_of_range():
    with pytest.raises(OutOfRange):
        params(0, 4)
    with pytest.raises(OutOfRange):
        params(4, 4)


def test_convergence_exact_family():
    rep = convergence(1, 3, [2, 3, 4, 5, 7, 8, 9])
    assert rep.bounded
    assert all(r.residual == 0 for r in rep.rows)


def test_convergence_k1_k2_oracle():
    rep = convergence(1, 4, [2, 3, 4, 5, 7, 9, 11, 13])
    assert rep.bounded
    for row in rep.rows:
        assert row.gamma_exact == (row.q - 1) ** 3
    rep = convergence(2, 5, [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    assert rep.bounded
    for row in rep.rows:
        assert row.gamma_exact == gamma_closed_form(2, 5, row.q)
        # exact residual: gamma(2,5) - prediction = -58q^3 + 57q^2 - 29q + 6
        q = row.q
        assert row.residual == -58 * q**3 + 57 * q**2 - 29 * q + 6
        assert row.normalized == Fraction(row.residual, q**3)


def test_convergence_brute_force_small():
    rep = convergence(3, 6, [2, 3, 4])
    gammas = {r.q: r.gamma_exact for r in rep.rows}
    assert gammas[2] == 0
    for r in rep.rows:
        assert r.residual == r.gamma_exact - (
            r.q**9 - 19 * r.q**8 + 152 * r.q**7
        )


def test_odd_q_arc_polynomial_carries_expansion_coefficients():
    # Newton interpolation through the odd-q arc counts of the (3,6) family,
    # plus the forced unit leading coefficient, yields a quartic whose top
    # three coefficients are exactly (1, -b1, b2); census values frozen
    from mdscensus.census import count_mds_matrix_scan
    from mdscensus.fields import field_of_order

    qs = [3, 5, 7, 9]
    tildes = [
        count_mds_matrix_scan(3, 6, field_of_order(q), threads=2).gamma_tilde
        for q in qs
    ]
    assert tildes == [0, 6, 140, 882]
    diffs = [tildes]
    while len(diffs[-1]) > 1:
        prev = diffs[-1]
        diffs.append([b - a for a, b in zip(prev, prev[1:])])

    def factorial(i):
        out = 1
        for j in range(2, i + 1):
            out *= j
        return out

    def newton_eval(q):
        # divided differences on the stride-2 grid, exact rationals
        total = Fraction(0)
        prod = 1
        for level, qi in enumerate(qs):
            total += Fraction(diffs[level][0], factorial(level) * 2**level) * prod
            prod *= q - qi
        total += prod  # degree delta-n+1 = 4 with unit leading coefficient
        assert total.denominator == 1
        return int(total)

    # frozen expanded form: q^4 - 14 q^3 + 72 q^2 - 159 q + 126
    p = params(3, 6)
    assert (p.b1, p.b2) == (14, 72)
    for q in (3, 5, 7, 9, 11, 13, 17):
        assert newton_eval(q) == q**4 - p.b1 * q**3 + p.b2 * q**2 - 159 * q + 126
    # the interpolation reproduces the q = 11 census exactly:
    # gamma_tilde(3,6;11) = 3096, computed once by the full scan
    assert newton_eval(11) == 3096


def test_convergence_rejects_non_prime_power():
    with pytest.raises(NonPrimePower):
        convergence(1, 3, [2, 6])
    with pytest.raises(OutOfRange):
        convergence(1, 3, [])
