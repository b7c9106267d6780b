"""Closed-form expansion coefficients and the convergence harness.

The census count of [n,k] MDS codes expands as

    q^delta + (1 - N) q^(delta-1) + a2 q^(delta-2) + (lower order),

with delta = k(n-k) and N = C(n,k).  This module evaluates a2 (and the
arc-count analogues b1, b2) by exact integer arithmetic, produces the
truncated prediction, and compares it against exact counts over a sweep of
field sizes.  No floating point is used anywhere; normalized residuals are
kept as Fractions.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction

from .budget import effective_budget
from .census import count_mds_matrix_scan, gamma_closed_form
from .errors import ExactnessViolation, OutOfRange, exact_quotient
from .fields import check_field_size, factor_prime_power, field_of_order
from .linalg import _binom


@dataclass(frozen=True)
class AsymptoticParams:
    k: int
    n: int
    delta: int
    big_n: int
    a2: int
    b1: int
    b2: int


def params(k, n):
    """Exact expansion coefficients for the (k, n) family."""
    if not 1 <= k <= n - 1:
        raise OutOfRange(f"need 1 <= k <= n-1, got k={k}, n={n}")
    delta = k * (n - k)
    big_n = _binom(n, k)
    # N k(n-k)(k^2 - nk + n + 3) / (2(k+1)(n-k+1)) + (N^2 - 5N + 4) / 2
    a2 = exact_quotient(
        big_n * k * (n - k) * (k * k - n * k + n + 3)
        + (k + 1) * (n - k + 1) * (big_n * big_n - 5 * big_n + 4),
        2 * (k + 1) * (n - k + 1), f"a2({k},{n})")
    b1 = big_n - n
    b2 = a2 - (n - 1) * b1 - _binom(n - 1, 2)
    return AsymptoticParams(k=k, n=n, delta=delta, big_n=big_n, a2=a2, b1=b1, b2=b2)


def a2_closed_form(k, n):
    """The k = 1 and k = 2 families in closed form; must agree with params()."""
    if k == 1:
        return exact_quotient(n * n - 3 * n + 2, 2, f"a2(1,{n})")
    if k == 2:
        return exact_quotient(3 * n**4 - 10 * n**3 + 9 * n**2 - 26 * n + 48, 24,
                              f"a2(2,{n})")
    raise OutOfRange(f"closed form only for k in (1, 2), got k={k}")


def predicted_gamma(k, n, q):
    """Three-term truncation q^delta + (1-N) q^(delta-1) + a2 q^(delta-2)."""
    return _prediction(params(k, n), q)


def _prediction(p, q):
    """predicted_gamma from the family's params, in integers:
    q^(delta-2) (q^2 + (1-N) q + a2), which for delta < 2 must divide
    exactly by q^(2-delta)."""
    quadratic = q * q + (1 - p.big_n) * q + p.a2
    if p.delta >= 2:
        return q ** (p.delta - 2) * quadratic
    return exact_quotient(quadratic, q ** (2 - p.delta),
                          f"three-term prediction at (k={p.k}, n={p.n}, q={q})")


def arc_series_top3(k, n):
    """Leading three coefficients of the arc-count expansion, recomputed by
    long division of the three-term polynomial by (q-1)^(n-1) as a series in
    descending powers of q.  Must equal (1, -b1, b2)."""
    p = params(k, n)
    a = [1, 1 - p.big_n, p.a2]
    b = [(-1) ** j * _binom(n - 1, j) for j in range(3)]
    c0 = a[0]
    c1 = a[1] - b[1] * c0
    c2 = a[2] - b[1] * c1 - b[2] * c0
    return (c0, c1, c2)


# ---------------------------------------------------------------------------
# Convergence harness.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    q: int
    gamma_exact: int
    predicted: int
    residual: int
    normalized: Fraction  # residual / q^(delta-3)


@dataclass(frozen=True)
class ConvergenceReport:
    k: int
    n: int
    rows: tuple
    bounded: bool
    max_normalized: Fraction

    def verdict(self):
        return "bounded" if self.bounded else "unbounded"


ORACLE_VALIDATION_QS = (2, 3, 4, 5)


def _exact_gamma(k, n, q, threads, budget):
    gf = field_of_order(q)
    return count_mds_matrix_scan(k, n, gf, threads=threads, budget=budget).gamma


def _validated_oracle_gamma(k, n, q_list, threads, budget):
    """Closed-form counts for k <= 2, cross-checked against the scan on the
    small validation fields before being trusted."""
    for q in ORACLE_VALIDATION_QS:
        expected = gamma_closed_form(k, n, q)
        got = _exact_gamma(k, n, q, threads, budget)
        if got != expected:
            raise ExactnessViolation(
                f"closed-form count {expected} disagrees with scan {got} "
                f"at (k={k}, n={n}, q={q})"
            )
    return {q: gamma_closed_form(k, n, q) for q in q_list}


def convergence(k, n, q_list, threads=1, budget=None):
    """Exact residual sweep of the three-term prediction against true counts.

    The verdict is a two-window heuristic: "bounded" when the largest
    normalized residual over the upper half of the sweep is at most twice
    the largest over the lower half.  The trailing-term constant is not
    pinned by theory; this threshold is an artifact choice.
    """
    if not q_list:
        raise OutOfRange("empty field-size list")
    try:
        q_list = sorted(set(map(operator.index, q_list)))
    except TypeError:
        raise OutOfRange(f"field sizes must be integers, got {q_list!r}") from None
    for q in q_list:
        # refuse what field_of_order would, before any scan; building the
        # fields here would cost tables that most sweeps never read
        check_field_size(*factor_prime_power(q))
    p = params(k, n)
    budget = effective_budget(budget)
    if k <= 2:
        gammas = _validated_oracle_gamma(k, n, q_list, threads, budget)
    else:
        gammas = {q: _exact_gamma(k, n, q, threads, budget) for q in q_list}
    rows = []
    for q in q_list:
        predicted = _prediction(p, q)
        residual = gammas[q] - predicted
        normalized = residual / Fraction(q) ** (p.delta - 3)
        rows.append(
            ConvergenceRow(q=q, gamma_exact=gammas[q], predicted=predicted,
                           residual=residual, normalized=normalized)
        )
    split = (len(rows) + 1) // 2
    lower = rows[:split]
    upper = rows[split:]
    max_lower = max((abs(r.normalized) for r in lower), default=Fraction(0))
    max_upper = max((abs(r.normalized) for r in upper), default=Fraction(0))
    if max_lower == 0:
        bounded = max_upper == 0
    else:
        bounded = max_upper <= 2 * max_lower
    return ConvergenceReport(k=k, n=n, rows=tuple(rows), bounded=bounded,
                             max_normalized=max(max_lower, max_upper))
