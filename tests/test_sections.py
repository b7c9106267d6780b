import itertools
import random

import numpy as np
import pytest

from mdscensus import _vecgf, sections
from mdscensus.census import count_mds_matrix_scan
from mdscensus.errors import BudgetExceeded, DimensionMismatch, OutOfRange, RankDeficient
from mdscensus.exterior import (
    DualForm,
    MultiVector,
    _projective_reps,
    form_weight,
    multi_indices,
    plucker_embed,
    satisfies_plucker,
)
from mdscensus.fields import field_of_order, make_field
from mdscensus.linalg import MatrixGF, gaussian_binomial, rref
from mdscensus.sections import (
    LinearSection,
    coordinate_ann_in_grassmannian,
    coordinate_norm_from_masks,
    coordinate_section,
    inclusion_exclusion,
    section_cardinality,
    section_norm,
    shares_common_core,
    structured_counts,
    support_mask_counts,
    within_common_extension,
)


def random_section(gf, k, n, r, rng):
    width = len(multi_indices(k, n))
    while True:
        forms = []
        for _ in range(r):
            coeffs = tuple(rng.randrange(gf.q) for _ in range(width))
            if any(coeffs):
                forms.append(DualForm(gf, k, n, coeffs))
        try:
            return LinearSection(gf, k, n, tuple(forms))
        except (DimensionMismatch, Exception):
            continue


def test_norm_single_coordinate():
    gf = make_field(2, 1)
    s = coordinate_section(gf, 2, 4, [(1, 2)])
    assert section_norm(s, "point-scan") == 16
    assert section_norm(s, "annihilator-sum") == 16


def test_norm_decomposable_pencil():
    gf = make_field(2, 1)
    s = coordinate_section(gf, 2, 4, [(1, 2), (1, 3)])
    assert section_norm(s, "point-scan") == 24  # q^4 + q^3
    assert section_norm(s, "annihilator-sum") == 24


def test_norm_indecomposable_pencil():
    gf = make_field(2, 1)
    s = coordinate_section(gf, 2, 4, [(1, 2), (3, 4)])
    # weights of the three projective annihilator forms: 16, 16, 20
    assert section_norm(s, "point-scan") == 26
    assert section_norm(s, "annihilator-sum") == 26


def test_norm_methods_agree_all_coordinate_sections():
    # every codim over GF(2) at (2,4) and (2,5); codim <= 3 of G(2,5) for
    # q = 3, 4, 5; codim <= 2 of G(3,6) over GF(2)
    for q, k, n, max_r in ((2, 2, 4, 6), (2, 2, 5, 10), (3, 2, 5, 3), (4, 2, 5, 3),
                           (5, 2, 5, 3), (2, 3, 6, 2)):
        gf = field_of_order(q)
        coords = multi_indices(k, n)
        for r in range(1, max_r + 1):
            for subset in itertools.combinations(coords, r):
                s = coordinate_section(gf, k, n, subset)
                assert section_norm(s, "point-scan") == section_norm(
                    s, "annihilator-sum"
                ), (q, k, n, subset)


def test_norm_methods_agree_random_sections():
    rng = random.Random(99)
    for q, k, n in ((2, 2, 4), (3, 2, 4), (2, 2, 5), (4, 2, 5), (5, 2, 5),
                    (3, 3, 6), (8, 2, 4)):
        gf = field_of_order(q)
        for _ in range(25):
            s = random_section(gf, k, n, rng.randrange(1, 4), rng)
            assert section_norm(s, "point-scan") == section_norm(s, "annihilator-sum")


@pytest.mark.parametrize("cap", [None, 64])
def test_annihilator_sum_makes_one_plucker_pass(monkeypatch, cap):
    # one pass over the blocks per section, also past the cache cap, where
    # the blocks are built on the fly and not kept
    if cap is not None:
        monkeypatch.setattr(_vecgf, "PLUCKER_CACHE_CAP", cap)
    gf = field_of_order(3)
    s = coordinate_section(gf, 2, 5, [(1, 2), (3, 4), (2, 5)])
    expected = section_norm(s, "point-scan")
    calls = {"plucker_blocks": 0, "_cell_blocks": 0}

    def counted(name):
        inner = getattr(_vecgf, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(_vecgf, name, counted(name))
    assert section_norm(s, "annihilator-sum") == expected
    # under the cap the point scan left the matrix in the cache
    assert calls == {"plucker_blocks": 1, "_cell_blocks": 0 if cap is None else 1}
    if cap is not None:
        assert len(list(_vecgf.plucker_blocks(gf, 2, 5))) > 1


def test_annihilator_sum_is_the_average_of_recursive_form_weights():
    # q^(r-1) ||L|| is by definition the sum of the weights of one form per
    # projective point of Ann(L); the recursive weights read no Plucker column
    rng = random.Random(7)
    for k, n, q in ((2, 4, 2), (2, 4, 3), (2, 4, 4), (2, 5, 2), (3, 6, 2)):
        gf = field_of_order(q)
        coords = multi_indices(k, n)
        cases = [coordinate_section(gf, k, n, rng.sample(coords, r)) for r in (1, 2, 3)]
        cases += [random_section(gf, k, n, r, rng) for r in (1, 2, 3)]
        for s in cases:
            weights = sum(form_weight(omega, "recursive") for omega in _projective_forms(s))
            assert q ** (s.codim - 1) * section_norm(s, "annihilator-sum") == weights, (
                k, n, q, s.ann_basis)


def test_annihilator_sum_on_both_sides_of_the_size_rule(monkeypatch):
    # up to q^r = |G(k,n)| value tuples the norm weighs the cached table;
    # past it, as for every coordinate section of codim >= 8 of G(2,5) over
    # GF(2) (2^8 tuples, 155 points), the forms run on the tuples that occur
    gf = field_of_order(2)
    coords = multi_indices(2, 5)
    evaluated = []
    real = sections._nonzero_combinations

    def counted(gf, r, keys):
        evaluated.append(keys.size)
        return real(gf, r, keys)

    monkeypatch.setattr(sections, "_nonzero_combinations", counted)
    sections.annihilator_table.cache_clear()
    for r in (6, 7):
        for subset in itertools.combinations(coords, r):
            s = coordinate_section(gf, 2, 5, subset)
            assert section_norm(s, "annihilator-sum") == section_norm(s, "point-scan")
    # one table per codimension, q^r tuples each, whatever the section count
    assert evaluated == [64, 128]

    def no_table(gf, r):
        raise AssertionError("past the size rule no table is built")

    monkeypatch.setattr(sections, "annihilator_table", no_table)
    for r in (8, 9, 10):
        for subset in itertools.combinations(coords, r):
            s = coordinate_section(gf, 2, 5, subset)
            assert section_norm(s, "annihilator-sum") == section_norm(s, "point-scan")
    # only tuples that occur, never more than the 155 points
    assert len(evaluated) == 2 + 45 + 10 + 1 and max(evaluated[2:]) <= 155


def test_annihilator_sum_slices_across_blocks(monkeypatch):
    # blocks of at most 10 columns (cap 100 entries, 10 rows) read in slices
    # of 4 keys (32 bytes of intp): a slice ends where its block ends, and
    # the norms are those of one whole-matrix pass, below and past the size
    # rule
    cases = []
    for q, subsets in ((3, [[(1, 2), (3, 4)], [(1, 2), (1, 3), (2, 5), (4, 5)]]),
                       (2, [multi_indices(2, 5)[:8]])):
        gf = field_of_order(q)
        for subset in subsets:
            s = coordinate_section(gf, 2, 5, subset)
            cases.append((s, section_norm(s, "annihilator-sum")))
    assert any(s.gf.q ** s.codim > gaussian_binomial(2, 5, s.gf.q) for s, _ in cases)
    monkeypatch.setattr(_vecgf, "PLUCKER_CACHE_CAP", 100)
    monkeypatch.setattr(_vecgf, "BLOCK_BYTES", 32)
    sizes = []
    real = sections._value_keys

    def recorded(gf, coeff_rows, blocks, grid):
        for keys in real(gf, coeff_rows, blocks, grid):
            sizes.append(keys.size)
            yield keys

    monkeypatch.setattr(sections, "_value_keys", recorded)
    ragged = False
    for s, expected in cases:
        widths = [b.shape[1] for b in _vecgf.plucker_blocks(s.gf, 2, 5)]
        assert len(widths) > 1 and max(widths) > 4
        ragged |= any(w % 4 for w in widths)
        sizes.clear()
        assert section_norm(s, "annihilator-sum") == expected
        assert sizes == [min(4, w - lo) for w in widths for lo in range(0, w, 4)]
    assert ragged  # some block ends inside a slice's reach


def test_annihilator_keys_widen_past_int16(monkeypatch):
    # keys are int16 while all q^r of them fit it, else intp: over GF(191)
    # two forms have 36481 tuples, within the 36673 points of G(1,3) (the
    # cached table) and past the 192 of G(1,2) (the occurring tuples)
    dtypes = []
    real = sections._value_keys

    def recorded(gf, coeff_rows, blocks, grid):
        for keys in real(gf, coeff_rows, blocks, grid):
            dtypes.append(keys.dtype)
            yield keys

    monkeypatch.setattr(sections, "_value_keys", recorded)
    for q, n, expected in ((191, 3, 36673 - 1), (191, 2, 192), (3, 3, 13 - 1)):
        gf = field_of_order(q)
        s = LinearSection(gf, 1, n, (DualForm(gf, 1, n, (1, 2, 1)[:n]),
                                     DualForm(gf, 1, n, (0, 1, 1)[:n])))
        dtypes.clear()
        assert section_norm(s, "annihilator-sum") == expected
        assert section_norm(s, "point-scan") == expected
        assert set(dtypes) == {np.dtype(np.intp if q == 191 else np.int16)}


def test_annihilator_forms_are_budgeted(monkeypatch):
    # G(2,5) over GF(5) on its first 7 coordinates: the sweep of 203060
    # entries fits 300000, the 19531 forms on min(5^7, 20306) tuples do not,
    # and the refusal comes before any Plucker block
    gf = field_of_order(5)
    s = coordinate_section(gf, 2, 5, multi_indices(2, 5)[:7])
    # inside: the 31 lines of the plane spanned by e_3, e_4, e_5
    assert section_norm(s, "point-scan", 300000) == 20306 - 31

    def no_pass(*args):
        raise AssertionError("refused forms read no Plucker block")

    monkeypatch.setattr(_vecgf, "plucker_blocks", no_pass)
    with pytest.raises(BudgetExceeded) as refused:
        section_norm(s, "annihilator-sum", 300000)
    assert refused.value.estimate == 19531 * 20306


def test_annihilator_budget_ignores_the_cache():
    # codim 7 of G(2,5) over GF(2): 127 forms on the 128 tuples of a cached
    # table are still 16256 evaluations, over a budget the 1550-entry
    # sweep fits
    gf = field_of_order(2)
    s = coordinate_section(gf, 2, 5, multi_indices(2, 5)[:7])
    assert section_norm(s, "annihilator-sum") == section_norm(s, "point-scan")
    with pytest.raises(BudgetExceeded) as refused:
        section_norm(s, "annihilator-sum", 10000)
    assert refused.value.estimate == 127 * 128
    assert section_norm(s, "annihilator-sum", 127 * 128) == section_norm(s, "point-scan")


def test_annihilator_keys_that_overflow_intp_are_refused():
    # 64 forms over GF(2) have 2^64 value tuples, past any intp key
    gf = field_of_order(2)
    s = coordinate_section(gf, 2, 12, multi_indices(2, 12)[:64])
    with pytest.raises(OutOfRange):
        section_norm(s, "annihilator-sum", 10**30)


PLUCKER_ORACLES = {
    "form-weight": lambda s, budget: form_weight(s.ann_basis[0], "direct", budget),
    "point-scan": lambda s, budget: section_norm(s, "point-scan", budget),
    "annihilator-sum": lambda s, budget: section_norm(s, "annihilator-sum", budget),
    "support-masks": lambda s, budget: support_mask_counts(s.gf, s.k, s.n, budget),
}


@pytest.mark.parametrize("oracle", list(PLUCKER_ORACLES))
def test_plucker_oracle_budget(oracle):
    # every oracle is budgeted by _vecgf.plucker_blocks, at one estimate
    run = PLUCKER_ORACLES[oracle]
    gf = field_of_order(3)
    s = coordinate_section(gf, 2, 5, [(1, 2), (3, 4)])
    estimate = 1210 * 10  # |G(2,5)| over GF(3) times C(5,2)
    with pytest.raises(BudgetExceeded):
        run(s, estimate - 1)
    assert run(s, estimate) == run(s, None)


def test_dependent_annihilator_rejected():
    gf = make_field(2, 1)
    e12 = DualForm.basis(gf, 2, 4, (1, 2))
    with pytest.raises(DimensionMismatch):
        LinearSection(gf, 2, 4, (e12, e12))


def test_section_cardinality_line_cases():
    gf = make_field(3, 1)
    # two decomposable points meeting in a (k-1)-space: the whole line is
    # decomposable, q + 1 points
    a = MultiVector.basis(gf, 2, 4, (1, 2))
    b = MultiVector.basis(gf, 2, 4, (1, 3))
    assert section_cardinality(gf, 2, 4, [a, b]) == 4
    # meeting in less: only the two endpoints
    c = MultiVector.basis(gf, 2, 4, (3, 4))
    assert section_cardinality(gf, 2, 4, [a, c]) == 2


def test_section_cardinality_gf2_line():
    gf = make_field(2, 1)
    a = MultiVector.basis(gf, 2, 4, (1, 2))
    c = MultiVector.basis(gf, 2, 4, (3, 4))
    assert section_cardinality(gf, 2, 4, [a, c]) == 2  # of the 3 points


def _cardinality_by_objects(gf, k, n, spanning):
    """section_cardinality written out on MultiVector objects: each point
    of the span is a sum of scaled basis vectors."""
    reduced, d = rref(MatrixGF.from_rows(gf, [list(v.coeffs) for v in spanning]))
    basis = [MultiVector(gf, k, n, reduced.row(i)) for i in range(d)]
    count = 0
    for coeffs in _projective_reps(gf, d):
        acc = MultiVector.zero(gf, k, n)
        for c, lam in zip(coeffs, basis):
            if c:
                acc = acc.add(lam.scale(c))
        if satisfies_plucker(acc):
            count += 1
    return count


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_section_cardinality_matches_object_sum(q):
    # random spans of up to 3 vectors, decomposable ones among them, with
    # repeats, so the reduced basis can be shorter than the spanning list
    gf = field_of_order(q)
    rng = random.Random(q)
    for k, n in ((2, 4), (2, 5), (3, 5)):
        width = len(multi_indices(k, n))
        for _ in range(4):
            spanning = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                    try:
                        spanning.append(plucker_embed(MatrixGF.from_rows(gf, rows)))
                        continue
                    except RankDeficient:
                        pass
                spanning.append(MultiVector(gf, k, n, [rng.randrange(q) for _ in range(width)]))
            if rng.random() < 0.3:
                spanning.append(spanning[0])
            assert section_cardinality(gf, k, n, spanning) == _cardinality_by_objects(
                gf, k, n, spanning), (q, k, n, spanning)


def test_section_cardinality_budget_counts_projective_points():
    # a span of dimension 2 over GF(3) has (3^2 - 1)/(3 - 1) = 4 points
    gf = make_field(3, 1)
    span = [MultiVector.basis(gf, 2, 4, (1, 2)), MultiVector.basis(gf, 2, 4, (1, 3))]
    with pytest.raises(BudgetExceeded):
        section_cardinality(gf, 2, 4, span, budget=3)
    assert section_cardinality(gf, 2, 4, span, budget=4) == 4
    assert section_cardinality(gf, 2, 4, []) == 0


def test_inclusion_exclusion_gf2():
    gf = make_field(2, 1)
    rep = inclusion_exclusion(2, 4, gf)
    assert rep.e_terms[0] == 96  # N q^delta = 6 * 16
    assert rep.e_terms[1] == 366  # 12 * 24 + 3 * 26
    assert rep.gamma_reconstructed == 0
    assert rep.gamma_reconstructed == count_mds_matrix_scan(2, 4, gf).gamma


def test_inclusion_exclusion_gf3():
    gf = make_field(3, 1)
    rep = inclusion_exclusion(2, 4, gf)
    assert rep.gamma_reconstructed == 8
    assert rep.e_terms[0] == 6 * 3**4


def test_inclusion_exclusion_projective_line():
    for q in (2, 3, 4, 5):
        gf = field_of_order(q)
        rep = inclusion_exclusion(1, 2, gf)
        assert rep.e_terms[0] == 2 * q
        assert rep.gamma_reconstructed == q - 1


def test_inclusion_exclusion_past_old_cap():
    # 35, 13 and 15 coordinates: past the 12 that the 2^N subset walk allowed
    for k, n, q, gamma in ((3, 7, 2, 0), (1, 13, 2, 1), (2, 6, 5, 6144)):
        gf = field_of_order(q)
        rep = inclusion_exclusion(k, n, gf)
        assert rep.gamma_reconstructed == count_mds_matrix_scan(k, n, gf).gamma == gamma


@pytest.mark.parametrize("q", [2, 3])
def test_e_terms_match_subset_walk(q):
    # E_r is by definition the sum of ||L_S|| over the r-subsets S of
    # coordinates; inclusion_exclusion counts it from the support patterns
    gf = field_of_order(q)
    for n in range(1, 11):
        for k in range(1, n + 1):
            big_n = len(multi_indices(k, n))
            if big_n > 10:
                continue
            total = gaussian_binomial(k, n, q)
            masks = support_mask_counts(gf, k, n)
            walked = [sum(coordinate_norm_from_masks(masks, total, sum(1 << i for i in s))
                          for s in itertools.combinations(range(big_n), r))
                      for r in range(1, big_n + 1)]
            assert list(inclusion_exclusion(k, n, gf).e_terms) == walked, (k, n)


def test_first_term_counts_cells():
    # E_1 = N q^delta: every coordinate hyperplane misses exactly q^delta points
    for q, k, n in ((2, 2, 4), (3, 2, 4), (2, 2, 5), (2, 3, 6)):
        gf = field_of_order(q)
        total = gaussian_binomial(k, n, q)
        masks = support_mask_counts(gf, k, n)
        big_n = len(multi_indices(k, n))
        for i in range(big_n):
            norm = total - sum(c for m, c in masks.items() if m & (1 << i) == 0)
            assert norm == q ** (k * (n - k))


def test_structured_counts_values():
    c1, c2 = structured_counts(2, 5)
    assert c1[3] == 20  # C(5,1) C(4,3)
    assert c2[3] == 10  # C(5,3) C(3,3)
    c1, _ = structured_counts(2, 4)
    assert c1[2] == 12  # N delta / 2 at (2,4)


def test_pair_classification_matches_count():
    # exactly N delta / 2 coordinate pairs share a (k-1)-core
    for k, n in ((2, 4), (2, 5), (3, 6)):
        coords = multi_indices(k, n)
        big_n = len(coords)
        delta = k * (n - k)
        shared = sum(
            1
            for pair in itertools.combinations(coords, 2)
            if shares_common_core(pair)
        )
        assert shared == big_n * delta // 2
        # for pairs, core-sharing and extension-fitting coincide
        for pair in itertools.combinations(coords, 2):
            assert shares_common_core(pair) == within_common_extension(pair)


def test_subset_classification_matches_structured_counts():
    for k, n in ((2, 5), (3, 6)):
        coords = multi_indices(k, n)
        c1, c2 = structured_counts(k, n)
        for r in (3, 4, 5):
            in_core = 0
            in_ext = 0
            both = 0
            for subset in itertools.combinations(coords, r):
                a = shares_common_core(subset)
                b = within_common_extension(subset)
                in_core += a
                in_ext += b
                both += a and b
            assert in_core == c1[r], (k, n, r)
            assert in_ext == c2[r], (k, n, r)
            assert both == 0  # the families are disjoint for r >= 3


def test_minimal_section_characterization():
    # ||L|| hits q^d + ... + q^(d-r+1) exactly when every projective point of
    # the annihilator is decomposable
    gf = make_field(2, 1)
    delta = 4
    coords = multi_indices(2, 4)
    for r in (2, 3):
        target = sum(2 ** (delta - i) for i in range(r))
        for subset in itertools.combinations(coords, r):
            s = coordinate_section(gf, 2, 4, subset)
            norm = section_norm(s, "point-scan")
            all_dec = all(
                satisfies_plucker(om)
                for om in _projective_forms(s)
            )
            assert (norm == target) == all_dec, (r, subset)
            assert norm >= target
            assert all_dec == coordinate_ann_in_grassmannian(subset)


def _projective_forms(section):
    """One annihilator form per projective point of Ann(L)."""
    forms = []
    for coeffs in _projective_reps(section.gf, section.codim):
        acc = DualForm.zero(section.gf, section.k, section.n)
        for c, omega in zip(coeffs, section.ann_basis):
            acc = acc.add(omega.scale(c))
        forms.append(acc)
    return forms


def test_codim_two_and_three_residuals_small():
    # coordinate sections with indecomposable annihilators stay within
    # 4 q^(delta-3) of the predicted three-term expansions
    for q in (2, 3, 4):
        gf = field_of_order(q)
        delta = 4
        coords = multi_indices(2, 4)
        for r, extra in ((2, 1), (3, 2)):
            predicted = q**delta + q ** (delta - 1) + extra * q ** (delta - 2)
            for subset in itertools.combinations(coords, r):
                if coordinate_ann_in_grassmannian(subset):
                    continue
                norm = section_norm(coordinate_section(gf, 2, 4, subset))
                assert abs(norm - predicted) <= 4 * q ** (delta - 3), (q, r, subset)


def test_codim1_increment_bound():
    # for a section L_1 inside the Grassmannian and L = span(L_1, P) with P
    # outside, the gain |L meet G| - |L_1| is at most 1, q, q^2 for
    # dim L = 1, 2, >= 3
    for q in (2, 3):
        gf = field_of_order(q)
        # base flags of decomposable coordinate points sharing the index 1
        chain = [(1, 2), (1, 3), (1, 4)]
        outside = MultiVector.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])
        assert not satisfies_plucker(outside)
        for m in (1, 2, 3):
            base = [MultiVector.basis(gf, 2, 4, idx) for idx in chain[:m]]
            l1_size = (q**m - 1) // (q - 1)
            assert section_cardinality(gf, 2, 4, base) == l1_size  # L1 in G
            inside = section_cardinality(gf, 2, 4, base + [outside])
            cap = {1: 1, 2: q}.get(m, q * q)
            assert inside - l1_size <= cap, (q, m, inside)


def test_wt_prop_bound_small():
    # sections of projective dimension >= 3 not inside the Grassmannian meet
    # it in at most 1 + q + 2q^2 + q^3 + ... + q^(ell-1) points
    rng = random.Random(42)
    for q, k, n in ((2, 2, 4), (2, 2, 5)):
        gf = field_of_order(q)
        width = len(multi_indices(k, n))
        for _ in range(40):
            dim = rng.randrange(3, 5)
            spanning = []
            while len(spanning) < dim + 1:
                coeffs = tuple(rng.randrange(q) for _ in range(width))
                if any(coeffs):
                    spanning.append(MultiVector(gf, k, n, coeffs))
            from mdscensus.linalg import MatrixGF, rank as rank_of

            ell = rank_of(MatrixGF.from_rows(gf, [list(v.coeffs) for v in spanning])) - 1
            if ell < 3:
                continue
            inside = section_cardinality(gf, k, n, spanning)
            total_points = (q ** (ell + 1) - 1) // (q - 1)
            if inside == total_points:
                continue  # the section lies inside the Grassmannian
            bound = 1 + q + 2 * q**2 + sum(q**j for j in range(3, ell))
            assert inside <= bound, (q, k, n, ell, inside)
