"""Exterior algebra over V = GF(q)^n and its dual.

Degree-k multivectors and k-forms are dense coefficient tuples over the
lexicographically ordered basis of strictly increasing multi-indices,
linalg.multi_indices (re-exported here).  The sign conventions are fixed by
the determinant pairing <e^I, e_J> = delta_IJ, which forces
iota_{e_i} e^I = (-1)^(t-1) e^(I minus i) when i is the t-th index of I.

Weights of forms (the number of Grassmann points on which a form pairs
nonzero) can be computed two ways: a direct sweep of the Grassmannian on
_vecgf's Plucker blocks, and a recursion that contracts the form along one
vector per projective point and averages the quotient-form weights.  The
recursion stops at 2-forms, whose weight depends only on their rank
(two_form_weight_value); a 1-form on GF(q)^m weighs q^(m-1).  The two are
kept as independent code paths and cross-checked in the test suite.

MultiVector and DualForm validate their coefficients when built
(GF.encodings); the wedge, contraction, pairing, Plucker relations and
weight recursion then compute with the field's unchecked operations.
"""

import functools
import itertools
from dataclasses import dataclass

from . import _vecgf
from .budget import check_budget
from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    ExactnessViolation,
    OutOfRange,
    RankDeficient,
    ShapeMismatch,
    ZeroInput,
    exact_quotient,
)
from .linalg import (
    MatrixGF,
    _binom,
    _echelon_rows,
    check_shape,
    gaussian_binomial,
    index_positions,
    kernel_basis,
    minor,
    multi_indices,
    point_from_matrix,
    point_from_rows,
    rref,
)


def _index_position(k, n, index):
    """Lexicographic position of a multi-index; ShapeMismatch unless it is a
    strictly increasing k-subset of 1..n."""
    try:
        return index_positions(k, n)[tuple(index)]
    except (KeyError, TypeError):
        raise ShapeMismatch(
            f"index {index!r} is not a strictly increasing {k}-subset of 1..{n}"
        ) from None


def merge_sign(a, b):
    """Sign of sorting the concatenation of disjoint increasing tuples a, b,
    i.e. (-1)^(number of pairs x in a, y in b with x > y); 0 on overlap."""
    sign = 1
    for x in a:
        for y in b:
            if x == y:
                return 0, ()
            if x > y:
                sign = -sign
    return sign, tuple(sorted(a + b))


class _Graded:
    """Shared behavior of MultiVector and DualForm: coefficients over I_{k,n}."""

    __slots__ = ("gf", "k", "n", "coeffs")

    def __init__(self, gf, k, n, coeffs):
        coeffs = gf.encodings(coeffs)
        if len(coeffs) != _binom(n, k):
            raise ShapeMismatch(
                f"need {_binom(n, k)} coefficients for degree {k} in dimension {n}"
            )
        self.gf = gf
        self.k = k
        self.n = n
        self.coeffs = coeffs

    def is_zero(self):
        return all(v == 0 for v in self.coeffs)

    def coefficient(self, index):
        return self.coeffs[_index_position(self.k, self.n, index)]

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.gf == other.gf
            and (self.k, self.n, self.coeffs) == (other.k, other.n, other.coeffs)
        )

    def __hash__(self):
        return hash((type(self).__name__, self.gf, self.k, self.n, self.coeffs))

    def __repr__(self):
        terms = [
            f"{c}*{idx}" for idx, c in zip(multi_indices(self.k, self.n), self.coeffs) if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"{type(self).__name__}[k={self.k},n={self.n}]({body})"

    @classmethod
    def zero(cls, gf, k, n):
        return cls(gf, k, n, (0,) * _binom(n, k))

    @classmethod
    def basis(cls, gf, k, n, index):
        coeffs = [0] * _binom(n, k)
        coeffs[_index_position(k, n, index)] = 1
        return cls(gf, k, n, coeffs)

    @classmethod
    def from_terms(cls, gf, k, n, terms):
        """Build from (multi-index, coefficient) pairs; repeats accumulate."""
        coeffs = [0] * _binom(n, k)
        for index, c in terms:
            pos = _index_position(k, n, index)
            coeffs[pos] = gf.add(coeffs[pos], c)
        return cls(gf, k, n, coeffs)


class MultiVector(_Graded):
    """Element of the k-th exterior power of V in the e_I basis."""


class DualForm(_Graded):
    """Element of the k-th exterior power of V* in the e^I basis."""


def plucker_embed(matrix):
    """All maximal minors of a full-rank k x n matrix, as a MultiVector."""
    k, n = matrix.rows, matrix.cols
    coeffs = [minor(matrix, idx) for idx in multi_indices(k, n)]
    if all(c == 0 for c in coeffs):
        raise RankDeficient("matrix has rank below its row count")
    return MultiVector(matrix.gf, k, n, coeffs)


def pairing(omega, lam):
    """Determinant pairing of a k-form with a k-multivector: sum of
    coordinatewise products."""
    if not isinstance(omega, DualForm) or not isinstance(lam, MultiVector):
        raise ShapeMismatch("pairing takes (DualForm, MultiVector)")
    if omega.gf != lam.gf or (omega.k, omega.n) != (lam.k, lam.n):
        raise ShapeMismatch("pairing operands live in different spaces")
    # both coefficient tuples were checked when the operands were built
    return omega.gf._udot(omega.coeffs, lam.coeffs)


def wedge(x, y):
    """Wedge product of two elements of the same algebra (both primal or
    both dual)."""
    if type(x) is not type(y):
        raise ShapeMismatch("wedge needs two multivectors or two forms")
    if x.gf != y.gf or x.n != y.n:
        raise ShapeMismatch("wedge operands live over different spaces")
    k_out = x.k + y.k
    gf = x.gf
    mul, add, sub = gf._umul, gf._uadd, gf._usub
    out = [0] * _binom(x.n, k_out)
    pos = index_positions(k_out, x.n)
    xi = multi_indices(x.k, x.n)
    yi = multi_indices(y.k, y.n)
    for ia, a in zip(xi, x.coeffs):
        if not a:
            continue
        for ib, b in zip(yi, y.coeffs):
            if not b:
                continue
            sign, merged = merge_sign(ia, ib)
            if sign == 0:
                continue
            term = mul(a, b)
            p = pos[merged]
            out[p] = add(out[p], term) if sign > 0 else sub(out[p], term)
    return type(x)(gf, k_out, x.n, out)


def interior_mult(xi, omega):
    """Contraction adjoint to the wedge: <iota_xi omega, zeta> = <omega, xi ^ zeta>.

    A MultiVector contracts a DualForm (yielding a DualForm) and a DualForm
    contracts a MultiVector (yielding a MultiVector).
    """
    if isinstance(xi, MultiVector) and isinstance(omega, DualForm):
        out_cls = DualForm
    elif isinstance(xi, DualForm) and isinstance(omega, MultiVector):
        out_cls = MultiVector
    else:
        raise ShapeMismatch("contraction takes (MultiVector, DualForm) or (DualForm, MultiVector)")
    if xi.gf != omega.gf or xi.n != omega.n:
        raise ShapeMismatch("contraction operands live over different spaces")
    if xi.k > omega.k:
        raise DegreeMismatch(f"cannot contract degree {omega.k} by degree {xi.k}")
    gf, n = xi.gf, xi.n
    mul, add, sub = gf._umul, gf._uadd, gf._usub
    k_out = omega.k - xi.k
    out = [0] * _binom(n, k_out)
    pos = index_positions(k_out, n)
    xi_idx = multi_indices(xi.k, n)
    om_idx = multi_indices(omega.k, n)
    for ia, a in zip(xi_idx, xi.coeffs):
        if not a:
            continue
        ia_set = set(ia)
        for ib, b in zip(om_idx, omega.coeffs):
            if not b:
                continue
            if not ia_set.issubset(ib):
                continue
            rest = tuple(i for i in ib if i not in ia_set)
            sign, _ = merge_sign(ia, rest)
            term = mul(a, b)
            p = pos[rest]
            out[p] = add(out[p], term) if sign > 0 else sub(out[p], term)
    return out_cls(gf, k_out, n, out)


@functools.lru_cache(maxsize=None)
def _plucker_relation_terms(k, n):
    """Quadratic relations cutting out decomposables: one relation per pair
    (K in I_{k-1,n}, J in I_{k+1,n}), as terms (sign, posA, posB) meaning
    sign * x[posA] * x[posB] summed to zero.

    Derived from requiring (iota_{e^K} x) wedge x = 0 for every basis
    contraction, expanded on the basis.
    """
    pos_k = index_positions(k, n)
    relations = []
    for kk in multi_indices(k - 1, n):
        kk_set = set(kk)
        for jj in multi_indices(k + 1, n):
            terms = []
            for i in jj:
                if i in kk_set:
                    continue
                big = tuple(sorted(kk + (i,)))
                rest = tuple(x for x in jj if x != i)
                s1, _ = merge_sign(kk, (i,))
                s2, _ = merge_sign((i,), rest)
                terms.append((s1 * s2, pos_k[big], pos_k[rest]))
            if terms:
                relations.append(tuple(terms))
    return tuple(relations)


def satisfies_plucker(x):
    """True when the coefficient vector is decomposable (a single wedge of
    vectors / covectors), i.e. every quadratic relation vanishes."""
    if x.is_zero():
        raise ZeroInput("the zero element has no projective class")
    return _relations_vanish(x.gf, x.k, x.n, x.coeffs)


def _relations_vanish(gf, k, n, c):
    """satisfies_plucker on a nonzero coefficient sequence c of field
    encodings, which this does not check."""
    if k in (0, 1) or k >= n - 1:
        return True
    mul, add, sub = gf._umul, gf._uadd, gf._usub
    for rel in _plucker_relation_terms(k, n):
        acc = 0
        for sign, a, b in rel:
            if c[a] and c[b]:
                t = mul(c[a], c[b])
                acc = add(acc, t) if sign > 0 else sub(acc, t)
        if acc:
            return False
    return True


# ---------------------------------------------------------------------------
# Kernel/support profile of a form.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormProfile:
    form: DualForm
    v_omega: MatrixGF  # rows span {v : iota_v omega = 0}
    u_omega: MatrixGF  # rows span the annihilator of v_omega in V*
    decomposable: bool


@functools.lru_cache(maxsize=None)
def _contraction_plan(k, n):
    """For each coefficient position of a k-form, the (row, column, odd)
    entries it fills in the contraction matrix; odd entries take its
    negative."""
    pos = index_positions(k - 1, n)
    return tuple(
        tuple((i - 1, pos[ib[:t] + ib[t + 1:]], t % 2 == 1) for t, i in enumerate(ib))
        for ib in multi_indices(k, n)
    )


def _contraction_rows(gf, k, n, coeffs):
    """Rows indexed by e_1..e_n; row i holds the coefficients of the
    contraction by e_i of the k-form with the given coefficients."""
    rows = [[0] * _binom(n, k - 1) for _ in range(n)]
    for b, entries in zip(coeffs, _contraction_plan(k, n)):
        if b:
            nb = gf._uneg(b)
            for i, p, odd in entries:
                rows[i][p] = nb if odd else b
    return rows


def _kernel_matrix(omega):
    """Echelonized basis of {v : iota_v omega = 0}."""
    gf, k, n = omega.gf, omega.k, omega.n
    rows = _contraction_rows(gf, k, n, omega.coeffs)
    # v lies in the kernel iff sum_i v_i * row_i = 0: left null space of the
    # contraction rows, n columns wide even for a 0-form's empty rows
    t_transpose = MatrixGF(gf, _binom(n, k - 1), n, itertools.chain(*zip(*rows)))
    return rref(kernel_basis(t_transpose))[0]


def form_profile(omega):
    """Kernel subspace, its annihilator, and the decomposability flag."""
    if omega.is_zero():
        raise ZeroInput("profile of the zero form")
    v_omega = _kernel_matrix(omega)
    return FormProfile(
        form=omega,
        v_omega=v_omega,
        u_omega=rref(kernel_basis(v_omega))[0],
        decomposable=satisfies_plucker(omega),
    )


# ---------------------------------------------------------------------------
# Weights.
# ---------------------------------------------------------------------------

def form_weight(omega, method="direct", budget=None):
    """Number of k-subspaces whose Plucker vector pairs nonzero with omega.

    direct: sweep the Grassmannian.  recursive: contract along one vector
    per projective point, recurse on the quotient forms, and divide by
    (q^k - 1) / (q - 1); 1-forms in closed form, 2-forms from the rank of
    their contraction matrix.
    """
    if not isinstance(omega, DualForm):
        raise ShapeMismatch("form_weight takes a DualForm")
    if omega.is_zero():
        raise ZeroInput("weight of the zero form")
    check_shape(omega.k, omega.n)
    if method == "direct":
        return _weight_direct(omega, budget)
    if method == "recursive":
        return _weight_recursive(omega, budget)
    raise OutOfRange(f"unknown method {method!r}")


def _weight_direct(omega, budget=None):
    gf, k, n = omega.gf, omega.k, omega.n
    return _vecgf.support_size(gf, [omega.coeffs],
                               _vecgf.plucker_blocks(gf, k, n, budget))


@functools.lru_cache(maxsize=None)
def _complement_positions(k, n):
    """Per 0-based pivot p, the positions in I_{k,n} of the multi-indices
    without p + 1: read in order they are the coordinates of a form on the
    complement of e_(p+1), relabeled."""
    return tuple(
        tuple(pos for pos, idx in enumerate(multi_indices(k, n)) if p + 1 not in idx)
        for p in range(n)
    )


def two_form_weight_value(n, q, r):
    """Weight of a 2-form of rank 2r on GF(q)^n (Nogin 1996), the closed
    form the recursion takes at k = 2: q^(2(n-2)) + q^(2(n-2)-2) + ...,
    r terms."""
    delta = 2 * (n - 2)
    return sum(q ** (delta - 2 * i) for i in range(r))


def _weight_recursive(omega, budget=None):
    """Sum the weights of the quotient forms iota_u omega on V/<u> over the
    nonzero u, and divide by q^k - 1.

    The quotient form scales with u and its weight does not, so only one
    representative u per projective point is walked (_projective_reps) and
    the sum is multiplied by q - 1.  A u in the kernel gives the zero
    quotient and adds nothing.  Each contraction is sum_i u_i * row_i over
    the rows of the contraction matrix, formed once per form; dropping the
    coordinates through u's pivot gives the quotient on the complement of
    that basis direction.  The recursion ends one level early: a nonzero
    1-form on GF(q)^m is nonzero on q^(m-1) projective points, so a 1-form
    returns that closed form, and a 2-form walks no u: its n x n
    contraction matrix is alternating, so its rank is even, and
    two_form_weight_value gives the weight from it.  An odd rank raises
    ExactnessViolation.  Weights of quotient forms of degree >= 2 are
    memoized in a dict that lives for this call only.  No vectorized code
    is used, so this route stays independent of the direct sweep.  The
    budget counts the (q^n - 1)/(q - 1) projective points of the top-level
    walk.
    """
    gf = omega.gf
    q = gf.q
    check_budget(gaussian_binomial(1, omega.n, q), budget,
                 f"recursive weight on G({omega.k},{omega.n}) over GF({q})")
    if omega.k == 1:
        return q ** (omega.n - 1)
    dot = gf._udot
    memo = {}  # (k, coeffs) -> weight, k >= 2; n - k is the same at every depth
    reps = {}

    def projective(n):
        if n not in reps:
            reps[n] = tuple(_projective_reps(gf, n))
        return reps[n]

    def weight(k, n, coeffs):
        key = (k, coeffs)
        if key in memo:
            return memo[key]
        rows = _contraction_rows(gf, k, n, coeffs)
        if k == 2:
            rank = len(_echelon_rows(gf, rows, n)[0])
            if rank % 2:
                raise ExactnessViolation(
                    f"the contraction matrix of a 2-form has odd rank {rank}"
                )
            memo[key] = two_form_weight_value(n, q, rank // 2)
            return memo[key]
        columns = tuple(zip(*rows))
        keep = _complement_positions(k - 1, n)
        total = 0
        for u in projective(n):
            # u's pivot is its first nonzero coordinate, normalized to 1
            quotient = tuple(dot(u, columns[j]) for j in keep[u.index(1)])
            if any(quotient):
                total += weight(k - 1, n - 1, quotient)
        memo[key] = exact_quotient(total * (q - 1), q**k - 1,
                                   "recursive weight sum over q^k - 1")
        return memo[key]

    return weight(omega.k, omega.n, omega.coeffs)


# ---------------------------------------------------------------------------
# Maximal linear subspaces of the Grassmannian.
# ---------------------------------------------------------------------------

def pi_alpha(alpha, budget=None):
    """The set of (alpha.k + 1)-subspaces of GF(q)^n containing alpha: the
    span of alpha and v for one v per projective point of GF(q)^n, those
    inside alpha left out.  The budget counts the (q^n - 1)/(q - 1) points."""
    gf = alpha.matrix.gf
    n = alpha.n
    k = alpha.k + 1
    if k > n:
        raise DimensionMismatch(f"no {k}-subspaces in dimension {n}")
    check_budget(gaussian_binomial(1, n, gf.q), budget, "projective sweep for pi_alpha")
    base_rows = [list(alpha.matrix.row(i)) for i in range(alpha.k)]
    out = set()
    for v in _projective_reps(gf, n):
        try:
            out.add(point_from_rows(gf, base_rows + [list(v)]))
        except ShapeMismatch:  # v lies in alpha
            continue
    return out


def pi_gamma(gamma, budget=None):
    """The set of (gamma.k - 1)-subspaces contained in gamma: the kernel of
    one functional per projective point of GF(q)^k on gamma.  The budget
    counts the (q^k - 1)/(q - 1) points."""
    gf = gamma.matrix.gf
    kk = gamma.k
    if kk < 1:
        raise DimensionMismatch("ambient subspace must have dimension >= 1")
    check_budget(gaussian_binomial(1, kk, gf.q), budget, "functional sweep for pi_gamma")
    out = set()
    for c in _projective_reps(gf, kk):
        # kernel of the functional c on the row space, lifted to V
        ker = kernel_basis(MatrixGF.from_rows(gf, [list(c)]))  # (kk-1) x kk
        out.add(point_from_matrix(ker.mul(gamma.matrix)))
    return out


def _projective_reps(gf, n):
    """One representative per projective point of GF(q)^n: first nonzero
    coordinate normalized to 1, in lexicographic order."""
    for lead in reversed(range(n)):
        for tail in itertools.product(gf.elements(), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail
