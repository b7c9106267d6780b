"""The evaluation code of the Plucker embedding of G(k, n).

Length is the number of Grassmann points, dimension the number of
coordinates C(n, k); column j of the generator matrix is the Plucker vector
of the j-th enumerated point.  Codewords are identified with k-forms, and a
codeword's Hamming weight equals the number of points on which the form
pairs nonzero, so the weight machinery of the exterior module applies
verbatim: spectra are checked against form_weight(omega, "recursive"),
which reads no Plucker matrix.
"""

import itertools
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _vecgf
from .budget import check_budget
from .errors import OutOfRange, RankDeficient, ShapeMismatch
from .exterior import DualForm
from .linalg import enumerate_grassmannian, gaussian_binomial


@dataclass(frozen=True)
class GrassmannCode:
    gf: object
    k: int
    n: int
    generator: np.ndarray  # dimension x length, read-only

    @property
    def length(self):
        """Number of Grassmann points, the generator's columns."""
        return self.generator.shape[1]

    @property
    def dimension(self):
        """Number of Plucker coordinates, the generator's rows."""
        return self.generator.shape[0]


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
    blocks = list(_vecgf.plucker_blocks(gf, k, n, budget))
    generator = _vecgf._frozen(blocks[0] if len(blocks) == 1
                               else np.concatenate(blocks, axis=1))
    nonzero = generator != 0
    lone = nonzero[:, np.count_nonzero(nonzero, axis=0) == 1]
    if not lone.any(axis=1).all():
        raise RankDeficient("the Plucker embedding generator lost row rank")
    return GrassmannCode(gf=gf, k=k, n=n, generator=generator)


def _histogram(rows, multiples, add, weights, length):
    """Number of codewords of each weight, the zero word included, over all
    q^dimension combinations of the rows: multiples[i] holds the q - 1
    nonzero multiples of rows[i], add(a, b) adds words (a block row by row
    when a is a block) and weights(block) is the weight of each word of a
    block.  The rows past the first t, t from choose_prefix_len, are
    combined once into a block of at most SPECTRUM_BLOCK entries; the prefix
    words over the first t rows are walked depth first, one add each, and
    every prefix word is added to the whole block at once."""
    dimension, width = rows.shape
    q = len(multiples[0]) + 1
    t = _vecgf.choose_prefix_len([q] * dimension, SPECTRUM_BLOCK // width)
    zero = np.zeros(width, dtype=rows.dtype)
    block = zero[None, :]
    for scaled in multiples[t:]:
        block = np.concatenate([block] + [add(block, m) for m in scaled])
    hist = np.zeros(length + 1, dtype=np.int64)

    def walk(depth, word):
        if depth == t:
            hist[:] += np.bincount(weights(add(block, word)), minlength=length + 1)
            return
        walk(depth + 1, word)
        for m in multiples[depth]:
            walk(depth + 1, add(word, m))

    walk(0, zero)
    return hist


def weight_spectrum(code, mode="exhaustive", sample_count=None, seed=0, budget=None):
    """Weight -> multiplicity over nonzero codewords.

    exhaustive walks all q^dimension - 1 codewords in blocks (see
    _histogram): at q = 2 on the generator rows packed into 64-bit words
    (zero padding bits weigh nothing), added by XOR and weighed by popcount;
    at other q on the generator itself, added by the field's addition and
    weighed by the nonzero entries.  sample draws sample_count coefficient
    vectors from a seeded Mersenne Twister (random.Random(seed)), rejecting
    the zero vector, so sampled spectra are reproducible bit for bit.  The
    budget counts codewords: the q^dimension words of exhaustive, the
    sample_count draws of sample.
    """
    gf = code.gf
    q = gf.q
    if mode == "exhaustive":
        n_words = q**code.dimension
        check_budget(n_words, budget, "exhaustive codeword sweep")
        gen = code.generator
        if q == 2:
            bits = np.zeros((code.dimension, -(-code.length // 64) * 64), dtype=bool)
            bits[:, :code.length] = gen != 0
            rows = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
            hist = _histogram(rows, [[row] for row in rows], np.bitwise_xor,
                              lambda block: np.bitwise_count(block).sum(axis=1),
                              code.length)
        else:
            ops = _vecgf.vector_ops(gf)
            multiples = [[ops.mul(c, row) for c in range(1, q)] for row in gen]
            hist = _histogram(gen, multiples, ops.add,
                              lambda block: np.count_nonzero(block, axis=1),
                              code.length)
        hist[0] -= 1  # the zero word
        return {w: m for w, m in enumerate(hist.tolist()) if m}
    if mode == "sample":
        if not sample_count or sample_count < 1:
            raise OutOfRange("sample mode needs a positive draw count")
        check_budget(sample_count, budget, "sampled codeword sweep")
        rng = random.Random(seed)
        weights = Counter()
        for _ in range(sample_count):
            while True:
                coeffs = tuple(rng.randrange(q) for _ in range(code.dimension))
                if any(coeffs):
                    break
            weights[_vecgf.support_size(gf, [coeffs], [code.generator])] += 1
        return dict(weights)
    raise OutOfRange(f"unknown spectrum mode {mode!r}")


def higher_weight_value(k, n, q, r):
    """q^delta + q^(delta-1) + ... + q^(delta-r+1)."""
    delta = k * (n - k)
    return sum(q ** (delta - i) for i in range(r))


def subcode_weight(code, forms):
    """Support size of the subcode spanned by the given forms: columns where
    at least one spanning form evaluates nonzero.  Each form must be a
    DualForm over the code's field and (k, n)."""
    for f in forms:
        if not isinstance(f, DualForm):
            raise ShapeMismatch("codewords are indexed by DualForms")
        if f.gf != code.gf or (f.k, f.n) != (code.k, code.n):
            raise ShapeMismatch("form does not match the code parameters")
    return _vecgf.support_size(code.gf, [f.coeffs for f in forms], [code.generator])


def higher_weight_search(code, r, mode="exhaustive", budget=None):
    """Minimum support size over r-dimensional subcodes.

    exhaustive evaluates every r-dimensional space of forms (feasible only
    for tiny parameters) a block at a time: the echelon bases that
    enumerate_grassmannian yields for a block of subspaces are stacked as
    one coefficient array and evaluated against the generator together
    (_vecgf.subcode_supports), the generator cut into column slices and
    the subspaces into blocks so that no array passes _vecgf.block_len
    entries; the budget counts subspaces times code length.  structured
    evaluates the one family of sections whose annihilators are built
    inside a single maximal linear subspace of decomposable forms, which
    attains q^delta + ... + q^(delta-r+1) and is an upper-bound
    certificate.
    """
    gf = code.gf
    if r < 1 or r > code.dimension:
        raise OutOfRange(f"subcode dimension {r} outside 1..{code.dimension}")
    if mode == "exhaustive":
        n_subspaces = gaussian_binomial(r, code.dimension, gf.q)
        check_budget(n_subspaces * code.length, budget,
                     "exhaustive subcode search")
        dtype = _vecgf.vector_ops(gf).dtype
        cap = _vecgf.block_len(dtype)
        width = min(code.length, max(1, cap // r))
        slices = [code.generator[:, lo:lo + width]
                  for lo in range(0, code.length, width)]
        per_block = max(1, cap // (r * width))
        points = enumerate_grassmannian(gf, r, code.dimension)
        data = (pt.matrix.data for pt in points)
        best = None
        while block := list(itertools.islice(data, per_block)):
            bases = np.array(block, dtype=dtype).reshape(-1, r, code.dimension)
            w = int(sum(_vecgf.subcode_supports(gf, bases, part)
                        for part in slices).min())
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
