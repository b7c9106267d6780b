import itertools
import random

import pytest

from mdscensus.errors import (
    BudgetExceeded,
    DegreeMismatch,
    OutOfRange,
    ShapeMismatch,
    ZeroInput,
)
from mdscensus.fields import field_of_order, make_field
from mdscensus.linalg import (
    MatrixGF,
    enumerate_grassmannian,
    kernel_basis,
    point_from_rows,
    rank,
)
from mdscensus.exterior import (
    DualForm,
    MultiVector,
    form_profile,
    form_weight,
    interior_mult,
    merge_sign,
    multi_indices,
    pairing,
    pi_alpha,
    pi_gamma,
    plucker_embed,
    satisfies_plucker,
    wedge,
)


def random_form(gf, k, n, rng):
    while True:
        coeffs = tuple(rng.randrange(gf.q) for _ in multi_indices(k, n))
        if any(coeffs):
            return DualForm(gf, k, n, coeffs)


# ---------------------------------------------------------------------------
# Plucker embedding and pairing
# ---------------------------------------------------------------------------

def test_embed_identity_block():
    gf = make_field(2, 1)
    m = MatrixGF.from_rows(gf, [[1, 0, 0, 0], [0, 1, 0, 0]])
    lam = plucker_embed(m)
    assert lam.coefficient((1, 2)) == 1
    assert sum(1 for c in lam.coeffs if c) == 1


def test_embed_hand_minors():
    gf = make_field(2, 1)
    m = MatrixGF.from_rows(gf, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert plucker_embed(m).coeffs == (1, 0, 1, 1, 0, 1)


def test_embed_row_scaling_scales_coords():
    gf = make_field(5, 1)
    m = MatrixGF.from_rows(gf, [[1, 2, 3, 0], [0, 1, 4, 2]])
    lam = plucker_embed(m)
    scaled = MatrixGF.from_rows(gf, [[gf.mul(3, v) for v in m.row(0)], list(m.row(1))])
    assert plucker_embed(scaled).coeffs == tuple(gf.mul(3, c) for c in lam.coeffs)


def test_embed_rank_deficient():
    from mdscensus.errors import RankDeficient

    gf = make_field(2, 1)
    with pytest.raises(RankDeficient):
        plucker_embed(MatrixGF.from_rows(gf, [[1, 0, 1], [1, 0, 1]]))


def test_pairing_basis_duality():
    gf = make_field(3, 1)
    lam = MultiVector.basis(gf, 2, 4, (1, 2))
    assert pairing(DualForm.basis(gf, 2, 4, (1, 2)), lam) == 1
    assert pairing(DualForm.basis(gf, 2, 4, (3, 4)), lam) == 0


def test_pairing_example_over_gf2():
    gf = make_field(2, 1)
    lam = plucker_embed(MatrixGF.from_rows(gf, [[1, 0, 1, 0], [0, 1, 0, 1]]))
    omega = DualForm.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])
    assert pairing(omega, lam) == 0  # 1 + 1 over GF(2)


def test_pairing_shape_mismatch():
    gf = make_field(2, 1)
    with pytest.raises(ShapeMismatch):
        pairing(DualForm.basis(gf, 2, 4, (1, 2)), MultiVector.basis(gf, 2, 5, (1, 2)))


# ---------------------------------------------------------------------------
# Interior multiplication
# ---------------------------------------------------------------------------

def test_interior_basis_examples():
    gf = make_field(3, 1)
    e12 = DualForm.basis(gf, 2, 4, (1, 2))
    down = interior_mult(MultiVector.basis(gf, 1, 4, (1,)), e12)
    assert down.coeffs == DualForm.basis(gf, 1, 4, (2,)).coeffs
    down2 = interior_mult(MultiVector.basis(gf, 1, 4, (2,)), e12)
    # second slot picks up the sign (-1)
    assert down2.coeffs == (gf.neg(1), 0, 0, 0)
    down3 = interior_mult(MultiVector.basis(gf, 1, 4, (3,)), e12)
    assert down3.is_zero()


def test_interior_degree_mismatch():
    gf = make_field(2, 1)
    with pytest.raises(DegreeMismatch):
        interior_mult(
            MultiVector.basis(gf, 3, 4, (1, 2, 3)), DualForm.basis(gf, 2, 4, (1, 2))
        )


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 5), (3, 6)])
def test_adjunction_on_basis(k, n):
    # <iota_xi omega, zeta> = <omega, xi wedge zeta> for all basis triples
    gf = make_field(2, 1)
    for ell in (1, k - 1):
        m = k - ell
        for xi_idx in multi_indices(ell, n):
            xi = MultiVector.basis(gf, ell, n, xi_idx)
            for om_idx in multi_indices(k, n):
                omega = DualForm.basis(gf, k, n, om_idx)
                contracted = interior_mult(xi, omega)
                for z_idx in multi_indices(m, n):
                    zeta = MultiVector.basis(gf, m, n, z_idx)
                    lhs = pairing(contracted, zeta)
                    rhs = pairing(omega, wedge(xi, zeta))
                    assert lhs == rhs


def test_adjunction_random_full_vectors():
    rng = random.Random(31)
    for q in (2, 3):
        gf = field_of_order(q)
        for _ in range(20):
            xi = MultiVector(
                gf, 1, 5, tuple(rng.randrange(q) for _ in range(5))
            )
            omega = random_form(gf, 2, 5, rng)
            zeta = MultiVector(
                gf, 1, 5, tuple(rng.randrange(q) for _ in range(5))
            )
            assert pairing(interior_mult(xi, omega), zeta) == pairing(
                omega, wedge(xi, zeta)
            )


def test_wedge_anticommutes_on_vectors():
    gf = make_field(3, 1)
    u = MultiVector.from_terms(gf, 1, 4, [((1,), 1), ((3,), 2)])
    v = MultiVector.from_terms(gf, 1, 4, [((2,), 2), ((4,), 1)])
    uv = wedge(u, v)
    vu = wedge(v, u)
    assert vu.coeffs == tuple(gf.neg(c) for c in uv.coeffs)
    assert wedge(u, u).is_zero()


@pytest.mark.parametrize("cls", [MultiVector, DualForm])
def test_wedge_past_degree_n_is_the_empty_element(cls):
    # degrees 3 + 2 > 4: every pair of indices overlaps, so every term vanishes
    gf = make_field(3, 1)
    rng = random.Random(5)
    x = cls(gf, 3, 4, [rng.randrange(1, 3) for _ in multi_indices(3, 4)])
    y = cls(gf, 2, 4, [rng.randrange(1, 3) for _ in multi_indices(2, 4)])
    out = wedge(x, y)
    assert type(out) is cls
    assert (out.k, out.n, out.coeffs) == (5, 4, ())


def test_merge_sign_basics():
    assert merge_sign((1,), (2, 3)) == (1, (1, 2, 3))
    assert merge_sign((2,), (1, 3)) == (-1, (1, 2, 3))
    assert merge_sign((3,), (1, 2)) == (1, (1, 2, 3))
    assert merge_sign((1, 3), (1,))[0] == 0


# ---------------------------------------------------------------------------
# Plucker relations and decomposability
# ---------------------------------------------------------------------------

def test_plucker_simple_examples():
    gf = make_field(2, 1)
    dec = MultiVector.from_terms(gf, 2, 4, [((1, 2), 1), ((1, 3), 1)])
    assert satisfies_plucker(dec)  # equals e1 ^ (e2 + e3)
    indec = MultiVector.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])
    assert not satisfies_plucker(indec)
    with pytest.raises(ZeroInput):
        satisfies_plucker(MultiVector.zero(gf, 2, 4))


def test_relations_match_direct_contraction_wedge():
    # the precomputed quadratic relations agree with evaluating
    # (iota_{e^K} lambda) ^ lambda for every dual basis contraction
    rng = random.Random(3)
    for q, k, n in ((2, 2, 4), (3, 2, 4), (2, 3, 5)):
        gf = field_of_order(q)
        width = len(multi_indices(k, n))
        for _ in range(30):
            coeffs = tuple(rng.randrange(q) for _ in range(width))
            if not any(coeffs):
                continue
            lam = MultiVector(gf, k, n, coeffs)
            direct = all(
                wedge(
                    interior_mult(DualForm.basis(gf, k - 1, n, kk), lam), lam
                ).is_zero()
                for kk in multi_indices(k - 1, n)
            )
            assert satisfies_plucker(lam) == direct


def test_embedded_points_always_pass():
    for q in (2, 3):
        gf = field_of_order(q)
        for pt in enumerate_grassmannian(gf, 2, 4):
            assert satisfies_plucker(plucker_embed(pt.matrix))


# ---------------------------------------------------------------------------
# Form profiles (kernel and annihilator subspaces)
# ---------------------------------------------------------------------------

def test_profile_decomposable_form():
    gf = make_field(2, 1)
    prof = form_profile(DualForm.basis(gf, 2, 4, (1, 2)))
    assert prof.decomposable
    assert prof.v_omega.rows == 2  # span(e3, e4)
    spanned = {prof.v_omega.row(i) for i in range(2)}
    assert spanned == {(0, 0, 1, 0), (0, 0, 0, 1)}
    assert prof.u_omega.rows == 2


def test_profile_indecomposable_form():
    gf = make_field(2, 1)
    omega = DualForm.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])
    prof = form_profile(omega)
    assert not prof.decomposable
    assert prof.v_omega.rows == 0
    assert prof.u_omega.rows == 4  # >= k + 2


def test_profile_higher_degree():
    gf = make_field(2, 1)
    prof = form_profile(DualForm.basis(gf, 3, 6, (1, 2, 3)))
    assert prof.decomposable
    assert prof.v_omega.rows == 3


def test_profile_dimension_sum_and_fact1():
    # dim V + dim U = n; decomposable iff dim V = n - k; otherwise
    # dim U >= k + 2; a nonzero 0-form used to read dim V = 0
    rng = random.Random(77)
    for q, k, n in ((2, 2, 4), (2, 2, 5), (3, 2, 4), (2, 3, 6), (3, 0, 3)):
        gf = field_of_order(q)
        for _ in range(40):
            omega = random_form(gf, k, n, rng)
            prof = form_profile(omega)
            assert prof.v_omega.rows + prof.u_omega.rows == n
            assert prof.decomposable == (prof.v_omega.rows == n - k)
            if not prof.decomposable:
                assert prof.u_omega.rows >= k + 2


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def test_weight_methods_agree_random():
    rng = random.Random(123)
    # 3-forms recurse once and then take the rank of each quotient 2-form
    for q, k, n, trials in ((3, 2, 4, 25), (2, 2, 5, 25), (2, 3, 6, 20),
                            (3, 3, 5, 20)):
        gf = field_of_order(q)
        for _ in range(trials):
            omega = random_form(gf, k, n, rng)
            direct = form_weight(omega, "direct")
            recursive = form_weight(omega, "recursive")
            assert direct == recursive
            assert direct >= q ** (k * (n - k))


def test_recursive_weight_on_extension_fields():
    # the recursion's dot product adds by XOR on GF(4) and GF(8), by Zech
    # logarithms on GF(9) and GF(25); 1-forms take a closed form and never
    # reach the dot product, so every case here is a 2-form
    rng = random.Random(29)
    for q, k, n, trials in ((4, 2, 4, 6), (8, 2, 3, 6), (9, 2, 3, 6), (25, 2, 3, 3)):
        gf = field_of_order(q)
        for _ in range(trials):
            omega = random_form(gf, k, n, rng)
            assert form_weight(omega, "recursive") == form_weight(omega, "direct")


def test_one_form_weight_is_q_to_the_n_minus_one():
    # a nonzero functional on GF(q)^n vanishes on a hyperplane, so it is
    # nonzero on q^n - q^(n-1) vectors, q^(n-1) projective points
    for q in (2, 3, 4):
        gf = field_of_order(q)
        for n in range(1, 5):
            for coeffs in itertools.product(range(q), repeat=n):
                if any(coeffs):
                    assert form_weight(DualForm(gf, 1, n, coeffs)) == q ** (n - 1)


@pytest.mark.parametrize("q, n", [(2, 4), (3, 4), (2, 5)], ids=["2", "3", "2-5"])
def test_recursive_weight_on_every_two_form(q, n):
    # every nonzero 2-form on GF(q)^n: 63 forms at (4, 2), 728 at (4, 3) and
    # 1023 at (5, 2), so the rank route sees every rank, 2 and 4, there is
    gf = field_of_order(q)
    for coeffs in itertools.product(range(q), repeat=n * (n - 1) // 2):
        if any(coeffs):
            omega = DualForm(gf, 2, n, coeffs)
            assert form_weight(omega, "recursive") == form_weight(omega, "direct")


@pytest.mark.parametrize("method", ["direct", "recursive"])
def test_weight_degree_out_of_range(method):
    # the recursion used to divide by q^0 - 1 on a 0-form
    gf = make_field(3, 1)
    omega = DualForm(gf, 0, 3, (1,))
    with pytest.raises(OutOfRange, match=r"^need 1 <= k <= n, got k=0, n=3$"):
        form_weight(omega, method)


def test_recursive_weight_never_touches_vecgf(monkeypatch):
    from mdscensus import _vecgf

    rng = random.Random(31)
    cases = []
    for q, k, n in ((3, 2, 4), (2, 3, 6), (4, 2, 4), (2, 1, 4)):
        omega = random_form(field_of_order(q), k, n, rng)
        cases.append((omega, form_weight(omega, "direct")))

    def refuse(*args, **kwargs):
        raise AssertionError("the recursive weight reached _vecgf")

    for name, value in list(vars(_vecgf).items()):
        if callable(value) and getattr(value, "__module__", None) == _vecgf.__name__:
            monkeypatch.setattr(_vecgf, name, refuse)
    for omega, weight in cases:
        assert form_weight(omega, "recursive") == weight
    with pytest.raises(AssertionError):
        form_weight(cases[0][0], "direct")


def test_contraction_rows_are_basis_contractions():
    from mdscensus.exterior import _contraction_rows

    rng = random.Random(37)
    for q, k, n in ((2, 2, 4), (3, 3, 5), (4, 2, 5), (5, 4, 5)):
        gf = field_of_order(q)
        for _ in range(5):
            omega = random_form(gf, k, n, rng)
            rows = _contraction_rows(gf, k, n, omega.coeffs)
            for i in range(n):
                e_i = MultiVector.basis(gf, 1, n, (i + 1,))
                assert tuple(rows[i]) == interior_mult(e_i, omega).coeffs


def test_weight_zero_form_rejected():
    gf = make_field(2, 1)
    with pytest.raises(ZeroInput):
        form_weight(DualForm.zero(gf, 2, 4))


def test_recursive_weight_honours_budget():
    # the budget counts the (q^n - 1)/(q - 1) = 15 points of the top walk
    gf = make_field(2, 1)
    omega = DualForm.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])
    for budget in (0, 14):
        with pytest.raises(BudgetExceeded):
            form_weight(omega, "recursive", budget=budget)
    assert form_weight(omega, "recursive", budget=15) == 2**4 + 2**2


def test_indecomposable_weight_second_term():
    # indecomposable 2-forms on F_q^4 have weight q^4 + q^2
    for q in (2, 3, 4):
        gf = field_of_order(q)
        omega = DualForm.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])
        assert form_weight(omega) == q**4 + q**2


# ---------------------------------------------------------------------------
# Maximal linear subspaces pi_alpha / pi_gamma
# ---------------------------------------------------------------------------

def test_pi_alpha_pi_gamma_sizes():
    gf = make_field(2, 1)
    alpha = point_from_rows(gf, [[1, 0, 0, 0]])
    up = pi_alpha(alpha)
    assert len(up) == 7  # (q^(n-k+1) - 1)/(q - 1) at (2,4,2)
    gamma = point_from_rows(gf, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    down = pi_gamma(gamma)
    assert len(down) == 7


def test_pi_gamma_budget_counts_projective_functionals():
    # a plane over GF(3) has (3^2 - 1)/(3 - 1) = 4 lines, one per functional
    gf = make_field(3, 1)
    gamma = point_from_rows(gf, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(BudgetExceeded):
        pi_gamma(gamma, budget=3)
    assert len(pi_gamma(gamma, budget=4)) == 4


def _pi_gamma_by_row_combination(gamma):
    """pi_gamma's definition written out: for each functional c on the row
    space, first nonzero coordinate 1, the kernel of c lifted to GF(q)^n
    by combining gamma's rows entry by entry."""
    gf, kk = gamma.matrix.gf, gamma.k
    out = set()
    for c in itertools.product(gf.elements(), repeat=kk):
        if next((x for x in c if x), None) != 1:
            continue
        ker = kernel_basis(MatrixGF.from_rows(gf, [list(c)]))
        rows = []
        for i in range(ker.rows):
            combo = [0] * gamma.n
            for j in range(kk):
                cj = ker.entry(i, j)
                combo = [gf.add(a, gf.mul(cj, b))
                         for a, b in zip(combo, gamma.matrix.row(j))]
            rows.append(combo)
        out.add(point_from_rows(gf, rows))
    return out


def test_pi_gamma_matches_row_combination():
    for k, n, q in ((3, 4, 2), (3, 4, 3), (2, 4, 4)):
        gf = field_of_order(q)
        for gamma in enumerate_grassmannian(gf, k, n):
            assert pi_gamma(gamma) == _pi_gamma_by_row_combination(gamma), (k, n, q)


def test_pi_gamma_of_a_line_is_its_zero_subspace():
    # the 0-subspace used to be reported in dimension n = 0
    gf = make_field(3, 1)
    (point,) = pi_gamma(point_from_rows(gf, [[1, 2, 0, 1]]))
    assert (point.k, point.n, point.pivots) == (0, 4, ())


def test_pi_alpha_members_contain_alpha():
    gf = make_field(3, 1)
    alpha = point_from_rows(gf, [[1, 2, 0, 1]])
    for beta in pi_alpha(alpha):
        assert beta.k == 2
        stacked = beta.matrix.stack(alpha.matrix)
        assert rank(stacked) == 2  # alpha inside beta


def test_pi_alpha_intersect_pi_gamma_line():
    gf = make_field(2, 1)
    alpha = point_from_rows(gf, [[1, 0, 0, 0]])
    gamma = point_from_rows(gf, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    both = pi_alpha(alpha) & pi_gamma(gamma)
    assert len(both) == 3  # q + 1: the pencil between alpha and gamma
    outside = point_from_rows(gf, [[0, 0, 0, 1]])
    assert not (pi_alpha(outside) & pi_gamma(gamma))


@pytest.mark.parametrize("q, k, n", [(2, 1, 4), (3, 1, 4), (3, 2, 4), (2, 2, 5)])
def test_pi_alpha_is_the_vector_sweep(q, k, n):
    # pi_alpha walks one v per projective point; by definition it is the
    # span of alpha and v over every vector v outside alpha
    gf = field_of_order(q)
    for alpha in enumerate_grassmannian(gf, k, n):
        rows = [list(alpha.matrix.row(i)) for i in range(k)]
        swept = {point_from_rows(gf, rows + [list(v)])
                 for v in itertools.product(range(q), repeat=n)
                 if rank(MatrixGF.from_rows(gf, rows + [list(v)])) == k + 1}
        assert pi_alpha(alpha) == swept


def _dim_sum(a, b):
    return rank(a.matrix.stack(b.matrix))


def test_fact0_pairwise_intersections():
    gf = make_field(2, 1)
    lines = list(enumerate_grassmannian(gf, 1, 4))
    planes3 = list(enumerate_grassmannian(gf, 3, 4))
    pi_a = {a: pi_alpha(a) for a in lines}
    pi_g = {g: pi_gamma(g) for g in planes3}
    # part 1: pi_alpha's meet in one point when dim(alpha + alpha') = k, else not
    for a1, a2 in itertools.combinations(lines, 2):
        meet = pi_a[a1] & pi_a[a2]
        if _dim_sum(a1, a2) == 2:
            assert len(meet) == 1
            (only,) = meet
            assert only == point_from_rows(
                gf, a1.matrix.row_list() + a2.matrix.row_list()
            )
        else:
            assert not meet
    # part 2: dually for pi_gamma's via intersection dimension
    for g1, g2 in itertools.combinations(planes3, 2):
        meet = pi_g[g1] & pi_g[g2]
        inter_dim = 3 + 3 - _dim_sum(g1, g2)
        if inter_dim == 2:
            assert len(meet) == 1
        else:
            assert not meet
    # part 3: pi_alpha meets pi_gamma in a line exactly when alpha < gamma
    for a in lines:
        for g in planes3:
            meet = pi_a[a] & pi_g[g]
            if rank(a.matrix.stack(g.matrix)) == 3:  # alpha inside gamma
                assert len(meet) == 3
            else:
                assert not meet
    # part 4: within one pi_alpha, pairwise intersection is alpha; within one
    # pi_gamma, pairwise span is gamma
    for a in lines[:4]:
        members = list(pi_a[a])
        for b1, b2 in itertools.combinations(members, 2):
            assert _dim_sum(b1, b2) == 3
    for g in planes3[:4]:
        members = list(pi_g[g])
        for b1, b2 in itertools.combinations(members, 2):
            assert _dim_sum(b1, b2) == 3

