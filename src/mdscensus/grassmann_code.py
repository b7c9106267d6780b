"""The evaluation code of the Plucker embedding of G(k, n).

Length is the number of Grassmann points, dimension the number of
coordinates C(n, k); column j of the generator matrix is the Plucker vector
of the j-th enumerated point.  Codewords are identified with k-forms, and a
codeword's Hamming weight equals the number of points on which the form
pairs nonzero, so the weight machinery of the exterior module applies
verbatim.
"""

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _vecgf
from .budget import check_budget
from .errors import OutOfRange, RankDeficient, ShapeMismatch
from .exterior import DualForm
from .linalg import _binom, enumerate_grassmannian, gaussian_binomial


@dataclass(frozen=True)
class GrassmannCode:
    gf: object
    k: int
    n: int
    length: int     # number of Grassmann points
    dimension: int  # number of Plucker coordinates
    generator: np.ndarray  # dimension x length, read-only


# max entries (q > 2) or 64-bit words (q = 2) of the combined block of
# exhaustive spectra
SPECTRUM_BLOCK = 2**16


def build_code(k, n, gf, budget=None):
    """Generator matrix whose column j is the Plucker vector of the j-th
    enumerated point, read from _vecgf.plucker_blocks: the cached matrix
    within the cap, else its blocks joined; read-only either way.

    Full row rank is certified exactly: the coordinate point e_I has the
    unit Plucker vector at I, so every row must own a column that is
    nonzero in that row alone.  A generator that passes has the identity
    among its columns up to scaling; a rank-deficient one never passes."""
    length = gaussian_binomial(k, n, gf.q)
    dimension = _binom(n, k)
    check_budget(length * dimension, budget, f"code build at (k={k}, n={n}, q={gf.q})")
    blocks = list(_vecgf.plucker_blocks(gf, k, n, budget))
    generator = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    generator.flags.writeable = False
    nonzero = generator != 0
    lone = nonzero[:, np.count_nonzero(nonzero, axis=0) == 1]
    if not lone.any(axis=1).all():
        raise RankDeficient("the Plucker embedding generator lost row rank")
    return GrassmannCode(gf=gf, k=k, n=n, length=length, dimension=dimension,
                         generator=generator)


def codeword_weight(code, omega):
    """Hamming weight of the codeword of the form omega, streamed across the
    generator columns with scalar field ops.  Where build_code took the
    cached Plucker matrix, the columns are the ones form_weight(omega,
    "direct") pairs with, so form_weight(omega, "recursive") is the
    independent check."""
    if not isinstance(omega, DualForm):
        raise ShapeMismatch("codewords are indexed by DualForms")
    if omega.gf != code.gf or (omega.k, omega.n) != (code.k, code.n):
        raise ShapeMismatch("form does not match the code parameters")
    gf = code.gf
    support = [
        (c, code.generator[i].tolist()) for i, c in enumerate(omega.coeffs) if c
    ]
    if not support:
        return 0
    weight = 0
    for j in range(code.length):
        acc = 0
        for c, row in support:
            acc = gf.add(acc, gf.mul(c, row[j]))
        if acc:
            weight += 1
    return weight


def _batched_weights(code, coeff_rows):
    """Weights of many codewords at once via the vectorized backend."""
    return [_vecgf.support_size(code.gf, [coeffs], [code.generator])
            for coeffs in coeff_rows]


def _block_histogram(ops, gen, q):
    """Number of codewords of each weight, the zero word included, over all
    q^dimension coefficient vectors.  The last t generator rows are combined
    once into a block of at most SPECTRUM_BLOCK entries; the prefix words
    over the other rows are walked depth first, one row add each, and every
    prefix word is added to the whole block at once."""
    dimension, length = gen.shape
    t = 0
    while t < dimension and q ** (t + 1) * length <= SPECTRUM_BLOCK:
        t += 1
    # the nonzero multiples c * row of every generator row
    multiples = [[ops.mul(c, row) for c in range(1, q)] for row in gen]
    block = np.zeros((1, length), dtype=ops.dtype)
    for scaled in multiples[dimension - t:]:
        block = np.concatenate([block] + [ops.add(block, m) for m in scaled])
    hist = np.zeros(length + 1, dtype=np.int64)

    def walk(depth, word):
        if depth == dimension - t:
            weights = np.count_nonzero(ops.add(block, word), axis=1)
            hist[:] += np.bincount(weights, minlength=length + 1)
            return
        walk(depth + 1, word)
        for m in multiples[depth]:
            walk(depth + 1, ops.add(word, m))

    walk(0, np.zeros(length, dtype=ops.dtype))
    return hist


def _packed_histogram(gen):
    """The GF(2) case of _block_histogram on bit-packed rows: each row is
    packed into 64-bit words (zero padding bits weigh nothing), the last t
    rows are combined once into a block of at most SPECTRUM_BLOCK words,
    and the prefix words over the other rows are walked in Gray-code order,
    one XOR per word; weights are popcounts."""
    dimension, length = gen.shape
    width = -(-length // 64)
    bits = np.zeros((dimension, 64 * width), dtype=bool)
    bits[:, :length] = gen != 0
    rows = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    t = 0
    while t < dimension and 2 ** (t + 1) * width <= SPECTRUM_BLOCK:
        t += 1
    block = np.zeros((1, width), dtype=np.uint64)
    for row in rows[dimension - t:]:
        block = np.concatenate([block, block ^ row])
    hist = np.zeros(length + 1, dtype=np.int64)
    word = np.zeros(width, dtype=np.uint64)
    for i in range(2 ** (dimension - t)):
        if i:
            word ^= rows[(i & -i).bit_length() - 1]  # the bit that flips
        weights = np.bitwise_count(block ^ word).sum(axis=1)
        hist += np.bincount(weights, minlength=length + 1)
    return hist


def weight_spectrum(code, mode="exhaustive", sample_count=None, seed=0, budget=None):
    """Weight -> multiplicity over nonzero codewords.

    exhaustive walks all q^dimension - 1 codewords in blocks, bit-packed
    at q = 2 (see _block_histogram and _packed_histogram); sample draws
    sample_count coefficient vectors from a seeded Mersenne Twister
    (random.Random(seed)), rejecting the zero vector, so sampled spectra
    are reproducible bit for bit.
    """
    gf = code.gf
    q = gf.q
    if mode == "exhaustive":
        n_words = q**code.dimension
        check_budget(n_words, budget, "exhaustive codeword sweep")
        if q == 2:
            hist = _packed_histogram(code.generator)
        else:
            hist = _block_histogram(_vecgf.vector_ops(gf), code.generator, q)
        hist[0] -= 1  # the zero word
        return {w: m for w, m in enumerate(hist.tolist()) if m}
    if mode == "sample":
        if not sample_count or sample_count < 1:
            raise OutOfRange("sample mode needs a positive draw count")
        rng = random.Random(seed)
        block = []
        for _ in range(sample_count):
            while True:
                coeffs = tuple(rng.randrange(q) for _ in range(code.dimension))
                if any(coeffs):
                    break
            block.append(coeffs)
        return dict(Counter(_batched_weights(code, block)))
    raise OutOfRange(f"unknown spectrum mode {mode!r}")


def higher_weight_value(k, n, q, r):
    """q^delta + q^(delta-1) + ... + q^(delta-r+1)."""
    delta = k * (n - k)
    return sum(q ** (delta - i) for i in range(r))


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


def subcode_weight(code, forms):
    """Support size of the subcode spanned by the given forms: columns where
    at least one spanning form evaluates nonzero."""
    return _vecgf.support_size(code.gf, [f.coeffs for f in forms], [code.generator])


def higher_weight_search(code, r, mode="exhaustive", budget=None):
    """Minimum support size over r-dimensional subcodes.

    exhaustive enumerates every r-dimensional space of forms (feasible only
    for tiny parameters); structured evaluates the one family of sections
    whose annihilators are built inside a single maximal linear subspace of
    decomposable forms, which attains q^delta + ... + q^(delta-r+1) and is
    an upper-bound certificate.
    """
    gf = code.gf
    if r < 1 or r > code.dimension:
        raise OutOfRange(f"subcode dimension {r} outside 1..{code.dimension}")
    if mode == "exhaustive":
        n_subspaces = gaussian_binomial(r, code.dimension, gf.q)
        check_budget(n_subspaces * code.length, budget,
                     "exhaustive subcode search")
        best = None
        for pt in enumerate_grassmannian(gf, r, code.dimension, budget=budget):
            forms = [
                DualForm(gf, code.k, code.n, pt.matrix.row(i)) for i in range(r)
            ]
            w = subcode_weight(code, forms)
            if best is None or w < best:
                best = w
        return best
    if mode == "structured":
        if r > code.n - code.k + 1:
            raise OutOfRange(
                f"structured certificates exist only for r <= n-k+1 = "
                f"{code.n - code.k + 1}"
            )
        core = tuple(range(1, code.k))
        forms = [
            DualForm.basis(gf, code.k, code.n, core + (code.k - 1 + i,))
            for i in range(1, r + 1)
        ]
        return subcode_weight(code, forms)
    raise OutOfRange(f"unknown search mode {mode!r}")
