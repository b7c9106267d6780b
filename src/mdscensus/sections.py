"""Linear sections of the Grassmannian and the inclusion-exclusion census.

A codimension-r section is carried by a basis of its annihilator: r
independent k-forms.  Its norm counts the Grassmann points outside the
section, by two independent routes: a point scan, and the exact average of
the q^(r-1) + ... + 1 annihilator form weights divided by q^(r-1).  Both
make one pass over the Plucker blocks; the annihilator route reads each
form's values off the basis forms' values on the same block, by linearity
of the pairing.

The inclusion-exclusion report counts, for each r, the pairs of a point
and an r-subset of the coordinate hyperplanes p_I = 0 that misses it,
from the points' support patterns, and reassembles the number of
subspaces with all Plucker coordinates nonzero, which must equal the
census count.  The patterns are 64-bit masks, so C(n, k) <= 64.
"""

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _vecgf
from .budget import check_budget
from .errors import (
    DimensionMismatch,
    ExactnessViolation,
    OutOfRange,
    ShapeMismatch,
)
from .exterior import (
    DualForm,
    MultiVector,
    _projective_reps,
    multi_indices,
    satisfies_plucker,
)
from .linalg import MatrixGF, _binom, gaussian_binomial, rank


@dataclass(frozen=True)
class LinearSection:
    """Codimension-r subspace of the Plucker space, given by Ann(L)."""

    gf: object
    k: int
    n: int
    ann_basis: tuple  # independent DualForms

    def __post_init__(self):
        if not self.ann_basis:
            raise ShapeMismatch("a section needs at least one annihilator form")
        for omega in self.ann_basis:
            if not isinstance(omega, DualForm):
                raise ShapeMismatch("annihilator entries must be DualForms")
            if omega.gf != self.gf or (omega.k, omega.n) != (self.k, self.n):
                raise ShapeMismatch("annihilator form in the wrong space")
        coeff_matrix = MatrixGF.from_rows(
            self.gf, [list(f.coeffs) for f in self.ann_basis]
        )
        if rank(coeff_matrix) != len(self.ann_basis):
            raise DimensionMismatch("annihilator basis is linearly dependent")

    @property
    def codim(self):
        return len(self.ann_basis)


def coordinate_section(gf, k, n, indices):
    """Section annihilated by the chosen coordinate forms e^I."""
    forms = tuple(DualForm.basis(gf, k, n, idx) for idx in indices)
    return LinearSection(gf, k, n, forms)


def section_norm(section, method="point-scan", budget=None):
    """Number of Grassmann points outside the section."""
    if method == "point-scan":
        return _norm_point_scan(section, budget)
    if method == "annihilator-sum":
        return _norm_annihilator_sum(section, budget)
    raise OutOfRange(f"unknown section norm method {method!r}")


def _norm_point_scan(section, budget=None):
    gf, k, n = section.gf, section.k, section.n
    return _vecgf.support_size(gf, [omega.coeffs for omega in section.ann_basis],
                               _vecgf.plucker_blocks(gf, k, n, budget))


def _norm_annihilator_sum(section, budget=None):
    """Sum of the weights of one form per projective point of Ann(L),
    divided by q^(r-1).  One pass over the Plucker blocks: on each block the
    basis forms are evaluated once, and the form c_1 w_1 + ... + c_r w_r
    takes the values c_1 v_1 + ... + c_r v_r there."""
    gf, k, n = section.gf, section.k, section.n
    r = section.codim
    ops = _vecgf.vector_ops(gf)
    combos = list(_projective_reps(gf, r))
    total = 0
    for block in _vecgf.plucker_blocks(gf, k, n, budget):
        values = [_vecgf.form_values(gf, omega.coeffs, block)
                  for omega in section.ann_basis]
        for coeffs in combos:
            acc = 0
            for c, v in zip(coeffs, values):
                acc = ops.add(acc, ops.mul(c, v))
            total += int(np.count_nonzero(acc))
    denom = gf.q ** (r - 1)
    if total % denom != 0:
        raise ExactnessViolation(
            f"annihilator weight sum {total} not divisible by q^(r-1) = {denom}"
        )
    return total // denom


def section_cardinality(gf, k, n, spanning, budget=None):
    """Number of decomposable projective points in the span of the given
    multivectors (the section given directly inside the Plucker space)."""
    if not spanning:
        return 0
    for lam in spanning:
        if not isinstance(lam, MultiVector):
            raise ShapeMismatch("spanning entries must be MultiVectors")
        if lam.gf != gf or (lam.k, lam.n) != (k, n):
            raise ShapeMismatch("spanning vector in the wrong space")
    coeff_matrix = MatrixGF.from_rows(gf, [list(v.coeffs) for v in spanning])
    d = rank(coeff_matrix)
    check_budget(gf.q**d, budget, "projective sweep of a section")
    # reduce to an independent spanning set
    from .linalg import rref

    reduced, _ = rref(coeff_matrix)
    basis = [
        MultiVector(gf, k, n, reduced.row(i)) for i in range(d)
    ]
    count = 0
    for coeffs in _projective_reps(gf, d):
        acc = MultiVector.zero(gf, k, n)
        for c, lam in zip(coeffs, basis):
            if c:
                acc = acc.add(lam.scale(c))
        if satisfies_plucker(acc):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Inclusion-exclusion over coordinate sections.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InclusionExclusionReport:
    k: int
    n: int
    q: int
    e_terms: tuple  # E_1 .. E_N
    gamma_reconstructed: int
    c1_by_r: dict
    c2_by_r: dict


def support_mask_counts(gf, k, n, budget=None):
    """How many Grassmann points have each nonzero-coordinate pattern.

    Returns {bitmask over lexicographic coordinate positions: point count},
    masks increasing.  A mask is one uint64 word, so more than 64
    coordinates are refused before any block is built.
    """
    big_n = _binom(n, k)
    if big_n > 64:
        raise OutOfRange(f"support masks hold 64 coordinates, G({k},{n}) has {big_n}")
    counter = Counter()
    for block in _vecgf.plucker_blocks(gf, k, n, budget):
        masks = np.zeros(block.shape[1], dtype=np.uint64)
        for i, row in enumerate(block):
            masks |= (row != 0).astype(np.uint64) << np.uint64(i)
        values, counts = np.unique(masks, return_counts=True)
        counter.update(dict(zip(values.tolist(), counts.tolist())))
    return dict(sorted(counter.items()))


def coordinate_norm_from_masks(mask_counts, total, subset_mask):
    """||L|| for the coordinate section killing the coordinates in
    subset_mask: points having at least one of those coordinates nonzero."""
    inside = sum(c for m, c in mask_counts.items() if m & subset_mask == 0)
    return total - inside


def inclusion_exclusion(k, n, gf, budget=None):
    """Reassemble the count of all-coordinates-nonzero subspaces from the
    alternating sum over coordinate-section unions.

    E_r sums ||L_S|| over the r-subsets S of coordinates.  A point lies
    outside L_S unless S is among its zero coordinates, so counting pairs
    (point, S) gives E_r = C(N, r) |G(k,n)| - sum over patterns of
    count * C(zeros, r): one pass over the support patterns, no subset
    walk."""
    big_n = _binom(n, k)
    total = gaussian_binomial(k, n, gf.q)
    by_zeros = Counter()
    for mask, count in support_mask_counts(gf, k, n, budget=budget).items():
        by_zeros[big_n - mask.bit_count()] += count
    e_terms = [_binom(big_n, r) * total
               - sum(count * _binom(z, r) for z, count in by_zeros.items())
               for r in range(1, big_n + 1)]
    gamma = sum(term if r % 2 else -term for r, term in enumerate(e_terms, start=1))
    c1, c2 = structured_counts(k, n)
    return InclusionExclusionReport(
        k=k, n=n, q=gf.q,
        e_terms=tuple(e_terms),
        gamma_reconstructed=gamma,
        c1_by_r=c1,
        c2_by_r=c2,
    )


def coordinate_section_rows(gf, k, n, max_r, budget=None):
    """Rows (r, subset bitmask, ||L||, annihilator-inside-Grassmannian flag)
    for every coordinate subset of size <= max_r; deterministic order.  The
    budget counts the subsets before the Plucker pass."""
    big_n = _binom(n, k)
    sizes = range(1, min(max_r, big_n) + 1)
    check_budget(sum(_binom(big_n, r) for r in sizes), budget,
                 f"coordinate sections of G({k},{n}) up to size {max_r}")
    total = gaussian_binomial(k, n, gf.q)
    masks = support_mask_counts(gf, k, n, budget=budget)
    indices = multi_indices(k, n)
    for r in sizes:
        for subset in itertools.combinations(range(big_n), r):
            subset_mask = 0
            for i in subset:
                subset_mask |= 1 << i
            norm = coordinate_norm_from_masks(masks, total, subset_mask)
            in_g = coordinate_ann_in_grassmannian([indices[i] for i in subset])
            yield r, subset_mask, norm, in_g


# ---------------------------------------------------------------------------
# Combinatorial classification of coordinate annihilators.
# ---------------------------------------------------------------------------

def shares_common_core(index_subset):
    """True when one (k-1)-set of positions lies in every multi-index."""
    sets = [set(idx) for idx in index_subset]
    k = len(index_subset[0])
    core = set.intersection(*sets)
    return len(core) >= k - 1


def within_common_extension(index_subset):
    """True when all multi-indices fit inside one (k+1)-set of positions."""
    sets = [set(idx) for idx in index_subset]
    k = len(index_subset[0])
    union = set.union(*sets)
    return len(union) <= k + 1


def coordinate_ann_in_grassmannian(index_subset):
    """Whether the span of the coordinate forms e^I, I in the subset, lies
    entirely inside the Grassmannian of decomposable forms."""
    if len(index_subset) == 1:
        return True
    return shares_common_core(index_subset) or within_common_extension(index_subset)


def structured_counts(k, n):
    """Exact counts of r-subsets of coordinates whose annihilator lies in a
    single maximal linear subspace: the common-core family and the
    common-extension family."""
    big_n = _binom(n, k)
    c1 = {}
    c2 = {}
    for r in range(2, big_n + 1):
        c1[r] = _binom(n, k - 1) * _binom(n - k + 1, r) if r <= n - k + 1 else 0
        c2[r] = _binom(n, k + 1) * _binom(k + 1, r) if r <= k + 1 else 0
    return c1, c2
