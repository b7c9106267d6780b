import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from mdscensus import _vecgf, grassmann_code
from mdscensus.errors import BudgetExceeded, OutOfRange, RankDeficient, ShapeMismatch
from mdscensus.exterior import (
    DualForm,
    form_weight,
    multi_indices,
    plucker_embed,
    satisfies_plucker,
    two_form_weight_value,
)
from mdscensus.fields import field_of_order, make_field
from mdscensus.linalg import enumerate_grassmannian, gaussian_binomial
from mdscensus.grassmann_code import (
    build_code,
    higher_weight_search,
    subcode_weight,
    weight_spectrum,
)


def standard_two_form(gf, n, r):
    """e^1^e^2 + e^3^e^4 + ... + e^(2r-1)^e^(2r) as a DualForm."""
    if 2 * r > n:
        raise OutOfRange(f"rank-{2 * r} form needs dimension >= {2 * r}")
    terms = [((2 * i + 1, 2 * i + 2), 1) for i in range(r)]
    return DualForm.from_terms(gf, 2, n, terms)


def recursive_spectrum(gf, k, n):
    """Weight -> multiplicity over the nonzero k-forms on GF(q)^n, the
    reference for the spectra: form_weight(omega, "recursive") reads no
    Plucker matrix.  A form and its nonzero multiples weigh the same, so
    each projective class (first nonzero coefficient 1) is weighed once and
    counted q - 1 times."""
    words = Counter()
    for coeffs in itertools.product(range(gf.q), repeat=math.comb(n, k)):
        if next((c for c in coeffs if c), 0) == 1:
            words[form_weight(DualForm(gf, k, n, coeffs), "recursive")] += gf.q - 1
    return dict(words)


def test_build_code_shapes():
    gf = make_field(2, 1)
    code = build_code(2, 4, gf)
    assert code.length == 35
    assert code.dimension == 6
    code5 = build_code(2, 5, gf)
    assert code5.length == 155
    assert code5.dimension == 10


def test_build_code_projective_line_family():
    for q in (2, 3, 4):
        gf = field_of_order(q)
        code = build_code(1, 3, gf)
        assert code.length == (q**3 - 1) // (q - 1)
        assert code.dimension == 3


def test_codeword_weight_examples():
    gf = make_field(2, 1)
    code = build_code(2, 4, gf)
    assert subcode_weight(code, [DualForm.basis(gf, 2, 4, (1, 2))]) == 16
    omega = DualForm.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])
    assert subcode_weight(code, [omega]) == 20
    assert subcode_weight(code, [DualForm.zero(gf, 2, 4)]) == 0


def test_codeword_weight_matches_form_weight():
    rng = random.Random(17)
    for q, k, n, trials in ((2, 2, 4, 40), (3, 2, 4, 40), (2, 2, 5, 40)):
        gf = field_of_order(q)
        code = build_code(k, n, gf)
        width = len(multi_indices(k, n))
        for _ in range(trials):
            coeffs = tuple(rng.randrange(q) for _ in range(width))
            if not any(coeffs):
                continue
            omega = DualForm(gf, k, n, coeffs)
            weight = subcode_weight(code, [omega])
            assert weight == form_weight(omega, "direct")
            # the direct sweep reads the same Plucker matrix as the code
            assert weight == form_weight(omega, "recursive")


def test_generator_columns_are_plucker_vectors():
    for k, n, q in ((2, 4, 2), (2, 4, 3), (1, 3, 4), (3, 6, 2)):
        gf = field_of_order(q)
        code = build_code(k, n, gf)
        columns = [tuple(col) for col in code.generator.T.tolist()]
        assert columns == [
            plucker_embed(pt.matrix).coeffs for pt in enumerate_grassmannian(gf, k, n)
        ]


def test_exhaustive_spectrum_matches_codeword_weights():
    # GF(3) adds through the q x q tables, GF(4) and GF(8) by XOR, and all
    # three multiply through the tables; GF(2) takes the bit-packed walk
    for k, n, q in ((2, 4, 2), (2, 4, 3), (2, 4, 4), (1, 3, 8)):
        gf = field_of_order(q)
        code = build_code(k, n, gf)
        assert weight_spectrum(code) == recursive_spectrum(gf, k, n), (k, n, q)


def test_packed_walk_prefix_covers_most_rows(monkeypatch):
    # 3 words a row at (2,5,2): a block of 6 words combines 1 row, so the
    # depth-first walk runs 9 rows deep over packed prefix words; length 155
    # leaves 37 padding bits
    gf = make_field(2, 1)
    code = build_code(2, 5, gf)
    monkeypatch.setattr(grassmann_code, "SPECTRUM_BLOCK", 6)
    words = recursive_spectrum(gf, 2, 5)
    assert sum(words.values()) == 1023
    assert weight_spectrum(code) == words


def _alternating_rank_count(n, q, r):
    """Number of alternating n x n matrices over GF(q) of rank 2r:
    q^(r(r-1)) prod_{i<2r} (q^(n-i) - 1) / prod_{1<=i<=r} (q^(2i) - 1)."""
    num = q ** (r * (r - 1)) * math.prod(q ** (n - i) - 1 for i in range(2 * r))
    den = math.prod(q ** (2 * i) - 1 for i in range(1, r + 1))
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("n, q", [(4, 2), (5, 2), (6, 2), (7, 2),
                                  (4, 3), (5, 3), (4, 4)])
def test_two_form_spectrum_by_rank_classes(n, q):
    # the nonzero 2-forms split into GL(n, q)-orbits by rank 2r, each of the
    # weight of standard_two_form(n, r); at q = 2 the rows take 1, 3, 11
    # and 42 packed words
    code = build_code(2, n, field_of_order(q))
    expected = {two_form_weight_value(n, q, r): _alternating_rank_count(n, q, r)
                for r in range(1, n // 2 + 1)}
    assert weight_spectrum(code) == expected


def test_form_values_leave_the_cached_matrix_alone():
    # form_values starts from its first nonzero term, so a unit form's
    # values are a row of the cached Plucker matrix itself: they are the
    # dot products, the matrix keeps its entries and stays read-only
    rng = random.Random(41)
    for q in (3, 4):
        gf = field_of_order(q)
        mat = _vecgf.plucker_matrix(gf, 2, 4)
        before = mat.copy()
        forms = [(0,) * 6, (1, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0), (0, 1, 0, 0, 0, 1)]
        forms += [tuple(rng.randrange(q) for _ in range(6)) for _ in range(10)]
        for coeffs in forms:
            expected = []
            for column in mat.T.tolist():
                acc = 0
                for c, x in zip(coeffs, column):
                    acc = gf.add(acc, gf.mul(c, x))
                expected.append(acc)
            assert _vecgf.form_values(gf, coeffs, mat).tolist() == expected
        assert np.array_equal(mat, before)
        with pytest.raises(ValueError):
            _vecgf.form_values(gf, (1, 0, 0, 0, 0, 0), mat)[0] = 1
        assert not mat.flags.writeable


def test_rank_deficient_generator_raises(monkeypatch):
    real = _vecgf.plucker_blocks

    def damaged(row, source):
        def blocks(gf, k, n, budget=None):
            for block in real(gf, k, n, budget):
                block = block.copy()
                block[row] = 0 if source is None else block[source]
                yield block
        return blocks

    gf = make_field(3, 1)
    # two zero rows, then row 4 overwritten by a copy of row 1
    for row, source in ((3, None), (0, None), (4, 1)):
        monkeypatch.setattr(_vecgf, "plucker_blocks", damaged(row, source))
        with pytest.raises(RankDeficient):
            build_code(2, 4, gf)


def test_generator_is_read_only(monkeypatch):
    gf = make_field(2, 1)
    cached = build_code(2, 5, gf).generator
    monkeypatch.setattr(_vecgf, "PLUCKER_CACHE_CAP", 320)  # past the cap
    joined = build_code(2, 5, gf).generator
    for gen in (cached, joined):
        assert isinstance(gen, np.ndarray)
        with pytest.raises(ValueError):
            gen[0, 0] = 1


def _dual_distribution(spectrum, length, q, dimension):
    """MacWilliams transform: B_j = q^-dimension * sum_i A_i K_j(i), where
    sum_j K_j(i) z^j = (1 + (q - 1) z)^(length - i) (1 - z)^i."""
    sums = [0] * (length + 1)
    for i, count in list(spectrum.items()) + [(0, 1)]:
        grow = [math.comb(length - i, s) * (q - 1) ** s * count
                for s in range(length - i + 1)]
        shrink = [math.comb(i, t) * (-1) ** t for t in range(i + 1)]
        for s, x in enumerate(grow):
            for t, y in enumerate(shrink):
                sums[s + t] += x * y
    size = q**dimension
    if any(value % size for value in sums):
        return None
    return [value // size for value in sums]


def test_macwilliams_dual_distribution():
    for k, n, q in ((2, 4, 2), (2, 5, 2), (2, 4, 3), (2, 6, 2)):
        code = build_code(k, n, field_of_order(q))
        dual = _dual_distribution(weight_spectrum(code), code.length, q,
                                  code.dimension)
        assert dual is not None, (k, n, q)
        assert min(dual) >= 0
        assert dual[0] == 1
        # distinct projective points as columns: no dual word of weight 1 or 2
        assert dual[1] == dual[2] == 0
        assert sum(dual) == q ** (code.length - code.dimension)


def test_subcode_weight_shape_mismatch():
    # a form of another (k, n) or field used to be read against the code's
    # columns: 0 for the first form below, 16 for the GF(3) one
    gf = make_field(2, 1)
    code = build_code(2, 4, gf)
    for form in (DualForm.basis(gf, 2, 5, (4, 5)),
                 DualForm.basis(make_field(3, 1), 2, 4, (1, 2)),
                 DualForm.basis(gf, 1, 4, (1,))):
        with pytest.raises(ShapeMismatch):
            subcode_weight(code, [DualForm.basis(gf, 2, 4, (1, 2)), form])
    with pytest.raises(ShapeMismatch):
        subcode_weight(code, [(1, 0, 0, 0, 0, 0)])


def test_spectrum_support_prediction_k2():
    # supports must be exactly {q^d + q^(d-2) + ... + q^(d-2r+2)}
    for q, n in ((2, 4), (3, 4), (2, 5)):
        gf = field_of_order(q)
        code = build_code(2, n, gf)
        spec = weight_spectrum(code)
        expected = {two_form_weight_value(n, q, r) for r in range(1, n // 2 + 1)}
        assert set(spec) == expected


def test_minimum_weight_words_are_decomposable():
    for q, n in ((2, 4), (2, 5)):
        gf = field_of_order(q)
        delta = 2 * (n - 2)
        width = len(multi_indices(2, n))
        for coeffs in itertools.product(range(q), repeat=width):
            if not any(coeffs):
                continue
            omega = DualForm(gf, 2, n, coeffs)
            w = form_weight(omega, "recursive")
            assert w >= q**delta
            assert (w == q**delta) == satisfies_plucker(omega)


def test_standard_two_forms():
    gf = make_field(2, 1)
    for n, r in ((4, 1), (4, 2), (5, 2), (6, 3)):
        omega = standard_two_form(gf, n, r)
        code_weight = form_weight(omega, "direct")
        assert code_weight == two_form_weight_value(n, 2, r)
    with pytest.raises(OutOfRange):
        standard_two_form(gf, 4, 3)


def test_recursive_weight_of_standard_two_forms_past_the_direct_budget():
    # at (2,10,7) the direct sweep of |G(2,10)| columns is refused, while
    # the recursion takes the rank of one 10 x 10 matrix.  Each rank 2r
    # gives Nogin's closed form, which equals the count by the radical: the
    # (q^n - q^(n-2r)) / (q - 1) projective u outside it give quotient
    # 1-forms of weight q^(n-2), and each point is counted for the
    # (q^2 - 1) / (q - 1) projective u in it
    gf = field_of_order(7)
    with pytest.raises(BudgetExceeded):
        form_weight(standard_two_form(gf, 10, 1), "direct")
    q, n = 7, 10
    for r in range(1, 6):
        by_radical = q ** (n - 2) * (q**n - q ** (n - 2 * r)) // (q**2 - 1)
        assert two_form_weight_value(n, q, r) == by_radical
        omega = standard_two_form(gf, n, r)
        assert form_weight(omega, "recursive") == by_radical


def test_sampled_spectrum_reproducible():
    gf = make_field(2, 1)
    code = build_code(2, 5, gf)
    a = weight_spectrum(code, mode="sample", sample_count=200, seed=11)
    b = weight_spectrum(code, mode="sample", sample_count=200, seed=11)
    assert a == b
    c = weight_spectrum(code, mode="sample", sample_count=200, seed=12)
    assert sum(a.values()) == sum(c.values()) == 200
    assert set(a) <= {64, 80}


def test_sampled_spectrum_counts_draws_against_budget():
    # the draws used to run whatever the budget
    code = build_code(2, 4, make_field(2, 1))
    with pytest.raises(BudgetExceeded):
        weight_spectrum(code, mode="sample", sample_count=200, budget=199)
    spec = weight_spectrum(code, mode="sample", sample_count=200, budget=200)
    assert sum(spec.values()) == 200


def test_subcode_weight_identity():
    # ||D|| = (1/(q^r - q^(r-1))) sum of the member weights
    rng = random.Random(23)
    gf = make_field(2, 1)
    code = build_code(2, 4, gf)
    width = 6
    for _ in range(200):
        r = rng.randrange(1, 4)
        rows = []
        while True:
            rows = [
                tuple(rng.randrange(2) for _ in range(width)) for _ in range(r)
            ]
            from mdscensus.linalg import MatrixGF, rank

            if any(any(row) for row in rows) and rank(
                MatrixGF.from_rows(gf, [list(r_) for r_ in rows])
            ) == r:
                break
        forms = [DualForm(gf, 2, 4, row) for row in rows]
        union_weight = subcode_weight(code, forms)
        total = 0
        for coeffs in itertools.product(range(2), repeat=r):
            if not any(coeffs):
                continue
            acc = DualForm.zero(gf, 2, 4).coeffs
            for c, f in zip(coeffs, forms):
                acc = [gf.add(a, gf.mul(c, b)) for a, b in zip(acc, f.coeffs)]
            total += form_weight(DualForm(gf, 2, 4, acc), "recursive")
        denom = 2**r - 2 ** (r - 1)
        assert total % denom == 0
        assert union_weight == total // denom


def _subcode_loop_minimum(code, r):
    """The minimum support over r-dimensional subcodes, one subcode_weight
    call per subspace of enumerate_grassmannian."""
    return min(
        subcode_weight(code, [DualForm(code.gf, code.k, code.n, pt.matrix.row(i))
                              for i in range(r)])
        for pt in enumerate_grassmannian(code.gf, r, code.dimension)
    )


@pytest.mark.parametrize("k, n, q, r", [(2, 4, 2, 1), (2, 4, 2, 2), (2, 4, 2, 3),
                                        (2, 4, 3, 1), (2, 4, 3, 2)])
def test_higher_weight_exhaustive_matches_subcode_loop(k, n, q, r):
    code = build_code(k, n, field_of_order(q))
    assert higher_weight_search(code, r, "exhaustive") == _subcode_loop_minimum(code, r)


def test_higher_weight_arrays_fit_block_len(monkeypatch):
    # every array the batched search builds, the stacked bases and the
    # field op results (each index temporary has its result's shape)
    # included, holds at most block_len entries; a small BLOCK_BYTES
    # makes it cut the subspaces finer and the generator into column
    # slices, and the minimum is unchanged
    found = []

    def record(out):
        for a in out if isinstance(out, list) else [out]:
            if isinstance(a, np.ndarray):
                found.append(a.size)
        return out

    for name in ("add", "mul"):
        fn = getattr(_vecgf.VecOps, name)
        monkeypatch.setattr(_vecgf.VecOps, name,
                            lambda self, x, y, fn=fn: record(fn(self, x, y)))
    supports = _vecgf.subcode_supports
    monkeypatch.setattr(_vecgf, "subcode_supports",
                        lambda gf, bases, mat: supports(gf, record(bases), mat))
    for k, n, q, r, block_bytes in ((2, 4, 2, 2, 2**16), (2, 4, 3, 2, 2**16),
                                    (2, 4, 2, 2, 2**8), (2, 4, 2, 3, 2**7),
                                    (1, 3, 4, 3, 2**5)):
        code = build_code(k, n, field_of_order(q))
        expected = higher_weight_search(code, r, "exhaustive")
        monkeypatch.setattr(_vecgf, "BLOCK_BYTES", block_bytes)
        found.clear()
        assert higher_weight_search(code, r, "exhaustive") == expected
        cap = _vecgf.block_len(_vecgf.vector_ops(code.gf).dtype)
        assert 0 < max(found) <= cap, (k, n, q, r, block_bytes)
        monkeypatch.setattr(_vecgf, "BLOCK_BYTES", 2**16)


def test_higher_weight_exhaustive_budget():
    code = build_code(2, 4, field_of_order(2))
    work = gaussian_binomial(2, code.dimension, 2) * code.length
    with pytest.raises(BudgetExceeded):
        higher_weight_search(code, 2, "exhaustive", budget=work - 1)
    assert higher_weight_search(code, 2, "exhaustive", budget=work) == 24


def test_higher_weight_r1_matches_minimum_distance():
    for q, k, n in ((2, 2, 4), (3, 2, 4)):
        gf = field_of_order(q)
        code = build_code(k, n, gf)
        assert higher_weight_search(code, 1, mode="structured") == q ** (k * (n - k))
