"""Linear sections of the Grassmannian and the inclusion-exclusion census.

A codimension-r section is carried by a basis of its annihilator: r
independent k-forms.  Its norm counts the Grassmann points outside the
section, by two independent routes: a point scan, and the exact average of
the q^(r-1) + ... + 1 annihilator form weights divided by q^(r-1).  Both
make one pass over the Plucker blocks.  The annihilator route keys each
Plucker column by the tuple of the r basis forms' values on it, a base-q
integer: by linearity of the pairing, the form c_1 w_1 + ... + c_r w_r is
nonzero on a column exactly when c_1 v_1 + ... + c_r v_r is nonzero on its
tuple v, so the weight sum adds up, over the columns, the number of
projective combinations nonzero on the column's tuple, found by evaluating
every combination on the tuples.

The inclusion-exclusion report counts, for each r, the pairs of a point
and an r-subset of the coordinate hyperplanes p_I = 0 that misses it,
from the points' support patterns, and reassembles the number of
subspaces with all Plucker coordinates nonzero, which must equal the
census count.  The patterns are 64-bit masks, so C(n, k) <= 64.
"""

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _vecgf
from .budget import check_budget
from .errors import (
    DimensionMismatch,
    OutOfRange,
    ShapeMismatch,
    exact_quotient,
)
from .exterior import (
    DualForm,
    MultiVector,
    _projective_reps,
    _relations_vanish,
    multi_indices,
)
from .linalg import MatrixGF, _binom, gaussian_binomial, rank, rref


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
    divided by q^(r-1), in one pass over the Plucker columns.

    The columns are read in slices of block_len(np.intp); each column's key
    is the base-q integer of the r basis forms' values on it, and the form
    c_1 w_1 + ... + c_r w_r takes the value c_1 v_1 + ... + c_r v_r there.
    When the q^r value tuples are no more than the |G(k, n)| columns, each
    slice sums the cached annihilator_table at its keys, one gather; past
    that size the forms are evaluated on the tuples that occur, so no
    section evaluates more than its forms times its columns.  Besides the
    Plucker sweep, the budget counts the (q^r - 1)/(q - 1) * min(q^r,
    |G(k, n)|) form evaluations on every call, cached table or not, before
    the pass."""
    gf, k, n = section.gf, section.k, section.n
    q, r = gf.q, section.codim
    grid = q**r
    points = gaussian_binomial(k, n, q)
    check_budget(gaussian_binomial(1, r, q) * min(grid, points), budget,
                 f"annihilator forms of a codim-{r} section of G({k},{n}) over GF({q})")
    slices = _value_keys(gf, [omega.coeffs for omega in section.ann_basis],
                         _vecgf.plucker_blocks(gf, k, n, budget), grid)
    if grid <= points:
        table = annihilator_table(gf, r)
        total = sum(int(table.take(keys).sum()) for keys in slices)
    else:
        if grid > np.iinfo(np.intp).max:
            raise OutOfRange(f"the {grid} value tuples of {r} forms over GF({q}) "
                             f"overflow an intp key")
        occurring = Counter()
        for keys in slices:
            values, counts = np.unique(keys, return_counts=True)
            occurring.update(dict(zip(values.tolist(), counts.tolist())))
        nonzero = _nonzero_combinations(
            gf, r, np.fromiter(occurring, dtype=np.intp, count=len(occurring)))
        total = sum(c * z for c, z in zip(occurring.values(), nonzero.tolist()))
    return exact_quotient(total, q ** (r - 1), "annihilator weight sum over q^(r-1)")


def _value_keys(gf, coeff_rows, blocks, grid):
    """Per slice of at most block_len(np.intp) columns of the blocks, the
    keys sum_i v_i q^i, v_i the values of coeff_rows[i] on a column: int16
    when all `grid` keys fit it, which halves the work of a slice next to
    intp keys, else intp."""
    dtype = np.int16 if grid <= 2**15 else np.intp
    step = _vecgf.block_len(np.intp)
    for block in blocks:
        for lo in range(0, block.shape[1], step):
            part = block[:, lo:lo + step]
            *low, top = (_vecgf.form_values(gf, coeffs, part) for coeffs in coeff_rows)
            keys = top.astype(dtype)
            for values in reversed(low):
                keys *= gf.q
                keys += values
            yield keys


def _nonzero_combinations(gf, r, keys):
    """For each key, how many of the projective combinations
    c_1 v_1 + ... + c_r v_r are nonzero on its value tuple v, v_i the i-th
    base-q digit of the key; every combination is evaluated on every tuple,
    by _vecgf.form_values on the rows of digits."""
    digits = np.empty((r, len(keys)), dtype=_vecgf.vector_ops(gf).dtype)
    for i in range(r):
        keys, digits[i] = np.divmod(keys, gf.q)
    out = np.zeros(digits.shape[1], dtype=np.int64)
    for coeffs in _projective_reps(gf, r):
        out += _vecgf.form_values(gf, coeffs, digits) != 0
    return out


@functools.lru_cache(maxsize=8)
def annihilator_table(gf, r):
    """_nonzero_combinations on all q^r value tuples, indexed by key: built
    once per field and codimension.  The cached array is read-only."""
    table = _nonzero_combinations(gf, r, np.arange(gf.q**r, dtype=np.intp))
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def section_cardinality(gf, k, n, spanning, budget=None):
    """Number of decomposable projective points in the span of the given
    multivectors (the section given directly inside the Plucker space).

    The spanning rows are reduced to a basis of d rows; each of the
    (q^d - 1)/(q - 1) projective points of the span, which the budget
    counts, has one Plucker coordinate per basis column: the dot of the
    point's coefficients with that column.  The point is nonzero and its
    coordinates are field encodings, so the quadratic relations are tested
    on them directly."""
    for lam in spanning:
        if not isinstance(lam, MultiVector):
            raise ShapeMismatch("spanning entries must be MultiVectors")
        if lam.gf != gf or (lam.k, lam.n) != (k, n):
            raise ShapeMismatch("spanning vector in the wrong space")
    reduced, d = rref(MatrixGF.from_rows(gf, [v.coeffs for v in spanning]))
    check_budget(gaussian_binomial(1, d, gf.q), budget, "projective sweep of a section")
    columns = tuple(zip(*(reduced.row(i) for i in range(d))))
    dot = gf._udot
    return sum(
        _relations_vanish(gf, k, n, [dot(c, col) for col in columns])
        for c in _projective_reps(gf, d)
    )


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
    """Rows (r, subset bitmask, the subset's multi-indices, ||L||,
    annihilator-inside-Grassmannian flag) for every coordinate subset of
    size <= max_r; deterministic order.  The budget counts the subsets
    before the Plucker pass."""
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
            subset_indices = tuple(indices[i] for i in subset)
            norm = coordinate_norm_from_masks(masks, total, subset_mask)
            yield (r, subset_mask, subset_indices, norm,
                   coordinate_ann_in_grassmannian(subset_indices))


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
