"""Exact arithmetic in GF(p**m).

Elements are ints in [0, q): the canonical encoding of the polynomial
representation a_0 + a_1*x + ... + a_{m-1}*x^{m-1} as sum(a_i * p**i).  A
GF object carries the arithmetic context.  Every field up to ORDER_CAP has
O(q) discrete-log and exponent tables of its smallest generator, built once
from the polynomial product _mul_raw; the digit-wise sum _add_raw builds
nothing and is kept as the reference the tests compare against.  Every
scalar operation takes one path: integers mod p on prime fields;
on extension fields multiplication, inversion and powers through the
log/exp tables, addition by XOR when p = 2 and by Zech logarithms when p is
odd.  Array arithmetic lives in _vecgf.

GF.encodings is the one element rule, an integer in [0, q): MatrixGF,
MultiVector and DualForm apply it when built, and the checked operations
(add, sub, neg, mul, inv, div, pow, coeffs) on each call.  The algebra on
validated entries (exterior, linalg, the weight recursion) computes with
the unchecked _uadd, _usub, _uneg, _umul, _uinv and the dot product _udot.

Fields are immutable after construction and safe to share across worker
processes; make_field() is cached and deterministic.
"""

import functools
import itertools
import math
import operator

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NonPrimeCharacteristic,
    NonPrimePower,
    UnsupportedSize,
)

ORDER_CAP = 2**20
MAX_DEGREE = 8


def _prime_factors(n):
    """The distinct prime factors of n, increasing; none when n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _integers_below(values, bound):
    """Whether every one of the tuple `values` is an integer in [0, bound):
    the one rule for element encodings and base-p digits."""
    try:
        math.gcd(*values)  # one C call: a TypeError unless all are integers
    except TypeError:
        return False
    for a in values:
        if not 0 <= a < bound:
            return False
    return True


def is_prime(n):
    return _prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# Polynomials over GF(p): little-endian coefficient tuples, no trailing zeros.
# ---------------------------------------------------------------------------

def _poly_trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    # b nonzero, not necessarily monic
    rem = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quo = []
    while len(rem) > db:
        lead = rem.pop() * inv_lead % p
        quo.append(lead)
        if lead:
            shift = len(rem) - db
            for i in range(db):
                rem[shift + i] = (rem[shift + i] - lead * b[i]) % p
    return _poly_trim(quo[::-1]), _poly_trim(rem)


def _monic_polys(p, degree):
    """All monic polynomials of the given degree, low coefficients in odometer order."""
    for high in itertools.product(range(p), repeat=degree):
        yield high[::-1] + (1,)


def is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg(poly)/2."""
    degree = len(poly) - 1
    if degree <= 0:
        return False
    if degree == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, degree // 2 + 1):
        for div in _monic_polys(p, d):
            _, rem = _poly_divmod(poly, div, p)
            if not rem:
                return False
    return True


def smallest_irreducible(p, m):
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates x^m + c_{m-1}x^{m-1} + ... + c_0 are ordered by comparing
    coefficients from the constant term up, i.e. (c_0, ..., c_{m-1}) counts
    up like a base-p number with c_0 the most significant digit: GF(8)
    gets x^3 + x^2 + 1, not x^3 + x + 1.
    """
    if m == 1:
        return (0, 1)  # the polynomial x
    return next(low + (1,) for low in itertools.product(range(p), repeat=m)
                if is_irreducible(low + (1,), p))


# ---------------------------------------------------------------------------
# The field object.
# ---------------------------------------------------------------------------

class GF:
    """Arithmetic context for GF(p**m).  Construct via make_field()."""

    __slots__ = (
        "p", "m", "q", "modulus", "_log", "_exp",
        "_uadd", "_usub", "_uneg", "_umul", "_uinv", "_udot",
    )

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self._build_tables()

    # -- encoding -----------------------------------------------------------

    def coeffs(self, a):
        """Little-endian base-p digits of the canonical encoding."""
        self.encodings((a,))
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs):
        """Inverse of coeffs(): canonical integer of a digit vector, at most
        m digits, each an integer in [0, p); else FieldMismatch."""
        if len(coeffs) > self.m or not _integers_below(tuple(coeffs), self.p):
            raise FieldMismatch(f"invalid coefficient vector {coeffs!r}")
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    def encodings(self, values):
        """values as a tuple when each is an element encoding, an integer in
        [0, q); else FieldMismatch naming the first value that is not."""
        values = tuple(values)
        q = self.q
        if _integers_below(values, q):
            return values
        a = next(v for v in values if not _integers_below((v,), q))
        raise FieldMismatch(f"{a!r} is not an element encoding of GF({q})")

    # -- polynomial reference arithmetic (builds the tables) ------------------

    def _mul_raw(self, a, b):
        prod = _poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self.encode(_poly_divmod(prod, self.modulus, self.p)[1])

    def _add_raw(self, a, b):
        p = self.p
        out, shift = 0, 1
        for _ in range(self.m):
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def _pow_raw(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return out

    def _find_generator(self):
        """Smallest encoding of multiplicative order q - 1."""
        order = self.q - 1
        primes = _prime_factors(order)
        for g in range(1, self.q):
            if all(self._pow_raw(g, order // r) != 1 for r in primes):
                return g
        raise AssertionError("no multiplicative generator found")  # unreachable

    def _powers(self, gen):
        """gen^0, ..., gen^(q-2) as encodings, by doubling: the next L
        powers are the first L times gen^L, a GF(p)-linear map on base-p
        digit vectors whose row j is the digit vector of gen^L * x^j."""
        p, m, order = self.p, self.m, self.q - 1
        digits = np.zeros((1, m), dtype=np.int64)
        digits[0, 0] = 1
        step = gen
        while len(digits) < order:
            image = np.array([self.coeffs(self._mul_raw(step, p**j))
                              for j in range(m)], dtype=np.int64)
            digits = np.concatenate([digits, digits @ image % p])
            step = self._mul_raw(step, step)
        return (digits[:order] @ p ** np.arange(m, dtype=np.int64)).tolist()

    # -- tables ----------------------------------------------------------------

    def _build_tables(self):
        """Discrete-log and exponent tables of the smallest generator g:
        exp[i] = g^i, doubled to length 2(q-1) so that exp[log a + log b]
        needs no reduction, and log[0] = None; both are tuples, so no caller
        can change them.  Odd extension fields add by the Zech logarithms
        zech[d] = log(1 + g^d), None where 1 + g^d = 0.  The unchecked
        operations _uadd, _usub, _uneg, _umul, _uinv (of a nonzero element)
        and the dot product _udot(a, b) = sum_i a_i * b_i are bound once
        here: mod p on prime fields, XOR addition when p = 2, Zech-log
        addition on odd extensions, and the log/exp tables for inversion on
        every field and multiplication on every extension field, where _udot
        accumulates with _uadd and _umul."""
        q, p = self.q, self.p
        order = q - 1
        gen = self._find_generator()
        exp = self._powers(gen)
        log = [None] * q
        for i, v in enumerate(exp):
            log[v] = i
        exp, log = tuple(exp + exp), tuple(log)
        self._exp, self._log = exp, log
        self._uinv = lambda a: exp[order - log[a]]
        if self.m == 1:
            self._uadd = lambda a, b: (a + b) % p
            self._usub = lambda a, b: (a - b) % p
            self._uneg = lambda a: -a % p
            self._umul = lambda a, b: a * b % p
            self._udot = lambda a, b: sum(map(operator.mul, a, b)) % p
            return

        def mul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        self._umul = mul
        if p == 2:
            self._uadd = self._usub = operator.xor
            self._uneg = operator.pos
        else:
            half = order // 2  # g^half = -1
            # 1 + v only changes the lowest base-p digit of v; doubled so
            # that every log difference below indexes it without reduction
            zech = [log[v - v % p + (v + 1) % p] for v in exp[:order]] * 2

            def add(a, b):
                if not b:
                    return a
                if not a:
                    return b
                la = log[a]
                z = zech[log[b] - la]
                return 0 if z is None else exp[la + z]

            def sub(a, b):
                if not b:
                    return a
                lb = log[b] + half  # log(-b)
                if not a:
                    return exp[lb]
                la = log[a]
                z = zech[lb - la]
                return 0 if z is None else exp[la + z]

            self._uadd, self._usub = add, sub
            self._uneg = lambda a: exp[log[a] + half] if a else 0
        uadd = self._uadd

        def dot(a, b):
            acc = 0
            for x, y in zip(a, b):
                if x and y:
                    acc = uadd(acc, mul(x, y))
            return acc

        self._udot = dot

    # -- operations ----------------------------------------------------------

    def add(self, a, b):
        self.encodings((a, b))
        return self._uadd(a, b)

    def sub(self, a, b):
        self.encodings((a, b))
        return self._usub(a, b)

    def neg(self, a):
        self.encodings((a,))
        return self._uneg(a)

    def mul(self, a, b):
        self.encodings((a, b))
        return self._umul(a, b)

    def inv(self, a):
        self.encodings((a,))
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.q})")
        return self._uinv(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        self.encodings((a,))
        if a == 0:
            if e < 0:
                raise DivisionByZero(f"inverse of 0 in GF({self.q})")
            return 1 if e == 0 else 0
        return self._exp[self._log[a] * e % (self.q - 1)]

    def elements(self):
        """All q elements in increasing canonical order, starting 0, 1."""
        return range(self.q)

    # -- misc -----------------------------------------------------------------

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        return (make_field, (self.p, self.m))


@functools.lru_cache(maxsize=None)
def make_field(p, m=1):
    """Field GF(p**m) with the smallest monic irreducible modulus of degree m.

    Deterministic across runs: the modulus is the lexicographically smallest
    irreducible candidate (coefficients compared from the constant term up,
    see smallest_irreducible); for m = 1 it is x.
    """
    check_field_size(p, m)
    return GF(p, m, smallest_irreducible(p, m))


def check_field_size(p, m):
    """Refuse what make_field() cannot build, without building a table: a
    characteristic that is not prime, a degree outside 1..MAX_DEGREE, an
    order past ORDER_CAP."""
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if not 1 <= m <= MAX_DEGREE:
        raise UnsupportedSize(f"extension degree {m} outside 1..{MAX_DEGREE}")
    if p**m > ORDER_CAP:
        raise UnsupportedSize(f"field order {p**m} exceeds cap {ORDER_CAP}")


def factor_prime_power(q):
    """Split q into (p, m) with p prime and p**m == q; reject other q,
    non-integers among them."""
    primes = _prime_factors(q) if hasattr(q, "__index__") else []
    if len(primes) != 1:
        raise NonPrimePower(f"{q!r} is not a prime power")
    p = primes[0]
    m = 1
    while p**m < q:
        m += 1
    return p, m


def field_of_order(q):
    """make_field() addressed by order, factoring q into p**m."""
    p, m = factor_prime_power(q)
    return make_field(p, m)
