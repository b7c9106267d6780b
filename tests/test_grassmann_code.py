import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from mdscensus import _vecgf, grassmann_code
from mdscensus.errors import OutOfRange, RankDeficient, ShapeMismatch
from mdscensus.exterior import (
    DualForm,
    form_weight,
    multi_indices,
    plucker_embed,
    satisfies_plucker,
)
from mdscensus.fields import field_of_order, make_field
from mdscensus.linalg import enumerate_grassmannian
from mdscensus.grassmann_code import (
    build_code,
    codeword_weight,
    higher_weight_search,
    higher_weight_value,
    subcode_weight,
    weight_spectrum,
)


def two_form_weight_value(n, q, r):
    """Weight of the rank-2r two-form e^1^e^2 + e^3^e^4 + ... on GF(q)^n."""
    delta = 2 * (n - 2)
    return sum(q ** (delta - 2 * i) for i in range(r))


def standard_two_form(gf, n, r):
    """e^1^e^2 + e^3^e^4 + ... + e^(2r-1)^e^(2r) as a DualForm."""
    if 2 * r > n:
        raise OutOfRange(f"rank-{2 * r} form needs dimension >= {2 * r}")
    terms = [((2 * i + 1, 2 * i + 2), 1) for i in range(r)]
    return DualForm.from_terms(gf, 2, n, terms)


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
    assert codeword_weight(code, DualForm.basis(gf, 2, 4, (1, 2))) == 16
    omega = DualForm.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])
    assert codeword_weight(code, omega) == 20
    assert codeword_weight(code, DualForm.zero(gf, 2, 4)) == 0


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
            weight = codeword_weight(code, omega)
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
        words = Counter(
            codeword_weight(code, DualForm(gf, k, n, coeffs))
            for coeffs in itertools.product(range(q), repeat=code.dimension)
            if any(coeffs)
        )
        assert weight_spectrum(code) == dict(words), (k, n, q)


def test_packed_walk_prefix_covers_most_rows(monkeypatch):
    # 3 words a row at (2,5,2): a block of 6 words combines t = 1 row, so the
    # Gray-code prefix walks the other 9; length 155 leaves 37 padding bits
    gf = make_field(2, 1)
    code = build_code(2, 5, gf)
    monkeypatch.setattr(grassmann_code, "SPECTRUM_BLOCK", 6)
    words = Counter(
        codeword_weight(code, DualForm(gf, 2, 5, coeffs))
        for coeffs in itertools.product(range(2), repeat=code.dimension)
        if any(coeffs)
    )
    assert sum(words.values()) == 1023
    assert weight_spectrum(code) == dict(words)


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


def test_codeword_weight_shape_mismatch():
    gf = make_field(2, 1)
    code = build_code(2, 4, gf)
    with pytest.raises(ShapeMismatch):
        codeword_weight(code, DualForm.basis(gf, 2, 5, (1, 2)))


def test_spectrum_2_5_2():
    gf = make_field(2, 1)
    code = build_code(2, 5, gf)
    spec = weight_spectrum(code)
    assert set(spec) == {64, 80}
    assert sum(spec.values()) == 2**10 - 1


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
        code = build_code(2, n, gf)
        delta = 2 * (n - 2)
        width = len(multi_indices(2, n))
        for coeffs in itertools.product(range(q), repeat=width):
            if not any(coeffs):
                continue
            omega = DualForm(gf, 2, n, coeffs)
            w = codeword_weight(code, omega)
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


def test_sampled_spectrum_reproducible():
    gf = make_field(2, 1)
    code = build_code(2, 5, gf)
    a = weight_spectrum(code, mode="sample", sample_count=200, seed=11)
    b = weight_spectrum(code, mode="sample", sample_count=200, seed=11)
    assert a == b
    c = weight_spectrum(code, mode="sample", sample_count=200, seed=12)
    assert sum(a.values()) == sum(c.values()) == 200
    assert set(a) <= {64, 80}


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
            acc = DualForm.zero(gf, 2, 4)
            for c, f in zip(coeffs, forms):
                if c:
                    acc = acc.add(f.scale(c))
            total += codeword_weight(code, acc)
        denom = 2**r - 2 ** (r - 1)
        assert total % denom == 0
        assert union_weight == total // denom


def test_higher_weight_exhaustive_d2():
    gf = make_field(2, 1)
    code = build_code(2, 4, gf)
    assert higher_weight_search(code, 2, mode="exhaustive") == 24
    assert higher_weight_value(2, 4, 2, 2) == 24


def test_higher_weight_structured_certificates():
    gf = make_field(2, 1)
    code = build_code(2, 4, gf)
    for r in (1, 2, 3):
        assert higher_weight_search(code, r, mode="structured") == higher_weight_value(
            2, 4, 2, r
        )
    with pytest.raises(OutOfRange):
        higher_weight_search(code, 4, mode="structured")


def test_higher_weight_r1_matches_minimum_distance():
    for q, k, n in ((2, 2, 4), (3, 2, 4)):
        gf = field_of_order(q)
        code = build_code(k, n, gf)
        assert higher_weight_search(code, 1, mode="structured") == q ** (k * (n - k))
