"""The check registry behind `mds verify` and the acceptance tests.

Each REGISTRY entry holds a suite, a name, a claim, a scale tag, an optional
time budget and a check function.  The function takes no arguments, returns
a detail line and fails through `_require`, never `assert`, so the checks
also run under `python -O`.  `--scale quick` runs the entries tagged quick,
`--scale full` runs them all, and `tests/test_acceptance.py` runs each entry
as one test.  Entries named `criterion-NN-...` are the release criteria.

The registry is the one home of every claim it states: a claim on a given
input is checked here when an entry states it, and no test re-checks it on
the same inputs.  That covers the census counts the repo pins:
CENSUS_LEDGER holds the rows (k, n, q, gamma-tilde, routes) that
`census-ledger` re-runs on each route listed, and criterion 03 runs the
scan against the filter on every small shape both walks fit, and against
the closed forms.  No test keeps a copy of either table.
"""

import functools
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .asymptotics import a2_closed_form, arc_series_top3, convergence, params
from .census import (
    count_mds,
    count_mds_grassmannian_filter,
    count_mds_matrix_scan,
    gamma_closed_form,
)
from .errors import BudgetExceeded, MdsError
from .exterior import (
    DualForm,
    MultiVector,
    form_profile,
    form_weight,
    interior_mult,
    multi_indices,
    pairing,
    pi_alpha,
    pi_gamma,
    plucker_embed,
    satisfies_plucker,
    wedge,
)
from .fields import _prime_factors, field_of_order, make_field
from .grassmann_code import (
    build_code,
    higher_weight_search,
    higher_weight_value,
    subcode_weight,
    weight_spectrum,
)
from .linalg import (
    MatrixGF,
    enumerate_grassmannian,
    gaussian_binomial,
    point_from_rows,
    rank,
)
from .sections import (
    coordinate_ann_in_grassmannian,
    coordinate_section,
    inclusion_exclusion,
    section_cardinality,
    section_norm,
    structured_counts,
)

SCALES = ("quick", "full")


class CheckFailed(Exception):
    """The claim of a check does not hold; the message says where."""


def _require(cond, detail):
    if not cond:
        raise CheckFailed(detail)


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    claim: str
    scale: str  # "full" for entries past 0.3 s, run only at --scale full
    fn: object
    budget_s: float = None


@dataclass(frozen=True)
class CheckResult:
    entry: Check
    passed: bool
    detail: str
    elapsed: float

    def line(self):
        c = self.entry
        budget = "no budget" if c.budget_s is None else f"budget {c.budget_s:g}s"
        detail = f" [{self.detail}]" if self.detail else ""
        return (f"[{'PASS' if self.passed else 'FAIL'}] {c.suite}/{c.name} "
                f"({self.elapsed:.2f}s / {budget}): {c.claim}{detail}")


REGISTRY = []


def check(suite, name, claim, scale="quick", budget_s=None):
    """Decorator that adds its function to REGISTRY as one entry."""
    def register(fn):
        REGISTRY.append(Check(suite, name, claim, scale, fn, budget_s))
        return fn
    return register


def run_check(entry):
    """Run one entry.  It fails on CheckFailed, on an MdsError (the library's
    own cross-checks raise one) and when it runs past its budget."""
    start = time.perf_counter()
    try:
        detail, passed = entry.fn(), True
    except CheckFailed as exc:
        detail, passed = str(exc), False
    except MdsError as exc:
        detail, passed = f"{type(exc).__name__}: {exc}", False
    elapsed = time.perf_counter() - start
    if passed and entry.budget_s is not None and elapsed > entry.budget_s:
        detail, passed = f"exceeded its {entry.budget_s:g}s budget; {detail}", False
    return CheckResult(entry, passed, detail, elapsed)


def select(suite="all", scale="quick"):
    """The entries of one suite (or 'all') that run at the given scale."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return [c for c in REGISTRY
            if suite in ("all", c.suite) and (scale == "full" or c.scale == "quick")]


def _random_form(gf, k, n, rng):
    width = len(multi_indices(k, n))
    while True:
        coeffs = tuple(rng.randrange(gf.q) for _ in range(width))
        if any(coeffs):
            return DualForm(gf, k, n, coeffs)


def _random_primal_section(gf, k, n, dim, rng):
    while True:
        spanning = [MultiVector(gf, k, n, _random_form(gf, k, n, rng).coeffs)
                    for _ in range(dim + 1)]
        if rank(MatrixGF.from_rows(gf, [list(v.coeffs) for v in spanning])) == dim + 1:
            return spanning


def _field_axioms(q):
    gf = field_of_order(q)
    elems = list(gf.elements())
    _require(elems == list(range(q)), "element order")
    # the tables hold gf.add and gf.mul on every pair; the loops raise
    # inline so that they build no message per pair or triple
    add = [[gf.add(a, b) for b in elems] for a in elems]
    mul = [[gf.mul(a, b) for b in elems] for a in elems]
    for a, b in itertools.product(elems, repeat=2):
        if not (add[a][b] == add[b][a] and mul[a][b] == mul[b][a]):
            raise CheckFailed(f"commutativity fails at {(a, b)}")
    for a, b, c in itertools.product(elems, repeat=3):
        if not (mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                and add[add[a][b]][c] == add[a][add[b][c]]
                and mul[mul[a][b]][c] == mul[a][mul[b][c]]):
            raise CheckFailed(f"an axiom fails at {(a, b, c)}")
    for a in elems:
        _require(add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
                 and add[a][gf.neg(a)] == 0 and gf.pow(a, q) == a,
                 f"an identity fails at {a}")
    for a in elems[1:]:
        _require(mul[a][gf.inv(a)] == 1 and gf.inv(gf.inv(a)) == a,
                 f"inverse fails at {a}")
    return f"q={q} exhaustive"


for _q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
    check("fields", f"axioms-q{_q}",
          "field axioms and identities, inverse involution, element order")(
        functools.partial(_field_axioms, _q))


@check("fields", "gf4-modulus",
       "the unique irreducible quadratic over GF(2) is chosen")
def _gf4_modulus():
    modulus = make_field(2, 2).modulus
    _require(modulus == (1, 1, 1), f"got {modulus}")
    return ""


@check("plucker", "relations-image",
       "the quadratic relations cut out exactly the embedded points")
def _relations_image():
    gf = make_field(2, 1)
    image = {plucker_embed(p.matrix).coeffs for p in enumerate_grassmannian(gf, 2, 4)}
    passing = {
        coeffs
        for coeffs in itertools.product(range(2), repeat=6)
        if any(coeffs) and satisfies_plucker(MultiVector(gf, 2, 4, coeffs))
    }
    _require(passing == image and len(image) == 35,
             f"{len(passing)} pass, {len(image)} embedded")
    return f"{len(passing)} of 63 projective points pass"


@check("plucker", "contraction-adjunction",
       "contraction is adjoint to the wedge on all basis triples")
def _contraction_adjunction():
    gf = make_field(2, 1)
    shapes = ((2, 4), (2, 5), (3, 5), (3, 6))
    for k, n in shapes:
        # contract by a vector and by a (k-1)-vector
        for ell in sorted({1, k - 1}):
            for xi_idx, om_idx in itertools.product(multi_indices(ell, n),
                                                    multi_indices(k, n)):
                xi = MultiVector.basis(gf, ell, n, xi_idx)
                omega = DualForm.basis(gf, k, n, om_idx)
                contracted = interior_mult(xi, omega)
                for z_idx in multi_indices(k - ell, n):
                    zeta = MultiVector.basis(gf, k - ell, n, z_idx)
                    _require(pairing(contracted, zeta) == pairing(omega, wedge(xi, zeta)),
                             f"(k,n) = {(k, n)}: {xi_idx}, {om_idx}, {z_idx}")
    return ", ".join(map(str, shapes)) + "; ell = 1 and k - 1"


@check("plucker", "criterion-08-contraction-decomposability-exhaustive",
       "a 3-form on GF(2)^5 is decomposable exactly when all its vector "
       "contractions are", "full", 60)
def _contraction_decomposability():
    gf = make_field(2, 1)
    xis = [
        MultiVector.from_terms(gf, 1, 5, [((i + 1,), c) for i, c in enumerate(v) if c])
        for v in itertools.product(range(2), repeat=5) if any(v)
    ]
    checked = 0
    for coeffs in itertools.product(range(2), repeat=len(multi_indices(3, 5))):
        if not any(coeffs):
            continue
        omega = DualForm(gf, 3, 5, coeffs)
        contractions_ok = all(
            down.is_zero() or satisfies_plucker(down)
            for down in (interior_mult(xi, omega) for xi in xis)
        )
        _require(satisfies_plucker(omega) == contractions_ok, f"form {coeffs}")
        checked += 1
    _require(checked == 1023, f"{checked} forms checked")
    return f"{checked} forms checked"


@check("plucker", "kernel-dimensions",
       "decomposable forms have full kernels; indecomposable ones span at "
       "least k+2 dual directions; kernel and annihilator dimensions sum to n")
def _kernel_dimensions():
    rng = random.Random(7)
    # (3,0,3): a nonzero 0-form has the whole space as its kernel
    shapes = ((2, 2, 5), (2, 2, 4), (3, 2, 4), (2, 3, 6), (3, 0, 3))
    for q, k, n in shapes:
        gf = field_of_order(q)
        for _ in range(200):
            omega = _random_form(gf, k, n, rng)
            prof = form_profile(omega)
            v, u = prof.v_omega.rows, prof.u_omega.rows
            _require(v + u == n and prof.decomposable == (v == n - k)
                     and (prof.decomposable or u >= k + 2),
                     f"{(q, k, n)} form {omega.coeffs}: dim V {v}, dim U {u}")
    return f"200 random forms at each (q,k,n) in {shapes}"


@check("plucker", "maximal-subspace-intersections",
       "the two families of maximal linear subspaces intersect by the "
       "dimension rules")
def _maximal_subspace_intersections():
    gf = make_field(2, 1)
    lines = list(enumerate_grassmannian(gf, 1, 4))
    solids = list(enumerate_grassmannian(gf, 3, 4))
    pa = {a: pi_alpha(a) for a in lines}
    pg = {g: pi_gamma(g) for g in solids}
    # pi_alpha(a1) and pi_alpha(a2) share the one point a1 + a2 of G(2,4)
    # when that sum is 2-dimensional, else nothing
    for a1, a2 in itertools.combinations(lines, 2):
        want = set()
        if rank(a1.matrix.stack(a2.matrix)) == 2:
            want = {point_from_rows(gf, a1.matrix.row_list() + a2.matrix.row_list())}
        _require(pa[a1] & pa[a2] == want, f"alpha-subspaces of {a1} and {a2}")
    # pi_gamma(g1) and pi_gamma(g2) share one point when g1 and g2 meet in
    # dimension 2, else nothing
    for g1, g2 in itertools.combinations(solids, 2):
        want = 1 if rank(g1.matrix.stack(g2.matrix)) == 4 else 0
        _require(len(pg[g1] & pg[g2]) == want, f"gamma-subspaces of {g1} and {g2}")
    for a, g in itertools.product(lines, solids):
        inside = rank(a.matrix.stack(g.matrix)) == 3
        _require(len(pa[a] & pg[g]) == (3 if inside else 0),
                 f"alpha-subspace of {a}, gamma-subspace of {g}")
    # two points of one pi_alpha(a) meet in a, two of one pi_gamma(g) span
    # g: either way their sum is 3-dimensional
    for family in list(pa.values()) + list(pg.values()):
        for b1, b2 in itertools.combinations(family, 2):
            _require(rank(b1.matrix.stack(b2.matrix)) == 3,
                     f"points {b1} and {b2} of one family")
    return "G(2,4) over GF(2)"


@check("weights", "known-weights",
       "decomposable weight q^delta; rank-4 form adds q^(delta-2)")
def _known_weights():
    got = {}
    for q in (2, 3, 4):
        gf = field_of_order(q)
        got[q] = (form_weight(DualForm.basis(gf, 2, 4, (1, 2))),
                  form_weight(DualForm.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])),
                  form_weight(DualForm.basis(gf, 2, 5, (1, 2))))
        _require(got[q] == (q**4, q**4 + q**2, q**6), f"q={q}: got {got[q]}")
    return f"got {got}"


@check("weights", "criterion-05-weight-spectra-and-minimum-words",
       "the spectra of the (2,4) and (2,5) codes over GF(2); minimum-weight "
       "words are the decomposable forms", budget_s=60)
def _weight_spectra():
    gf = make_field(2, 1)
    code4, code5 = build_code(2, 4, gf), build_code(2, 5, gf)
    spec4, spec5 = weight_spectrum(code4), weight_spectrum(code5)
    _require(spec4 == {16: 35, 20: 28}, f"(2,4): {spec4}")
    _require(set(spec5) == {64, 80}, f"(2,5): {spec5}")
    for n, code, minimum in ((4, code4, 16), (5, code5, 64)):
        for coeffs in itertools.product(range(2), repeat=len(multi_indices(2, n))):
            if not any(coeffs):
                continue
            omega = DualForm(gf, 2, n, coeffs)
            w = subcode_weight(code, [omega])
            _require((w == minimum) == satisfies_plucker(omega),
                     f"(2,{n}) form {coeffs} has weight {w}")
    return f"(2,4): {spec4}; (2,5): {spec5}"


@check("weights", "criterion-06-second-weight-exhaustive",
       "the second generalized weight is q^4 + q^3 over all 651 lines", budget_s=60)
def _second_weight():
    lines = gaussian_binomial(2, 6, 2)
    d2 = higher_weight_search(build_code(2, 4, make_field(2, 1)), 2, mode="exhaustive")
    _require((lines, d2) == (651, 24), f"{lines} lines, d2={d2}")
    return f"d2={d2}"


@check("weights", "criterion-07-weight-recursion-agreement",
       "the contraction recursion reproduces the direct sweep, which is at "
       "least q^delta", "full", 120)
def _weight_recursion():
    rng = random.Random(20240808)
    for q, k, n in ((3, 2, 4), (2, 2, 5), (2, 3, 6), (3, 3, 5)):
        gf = field_of_order(q)
        for _ in range(200):
            omega = _random_form(gf, k, n, rng)
            d, r = form_weight(omega, "direct"), form_weight(omega, "recursive")
            _require(d == r, f"{(q, k, n)} form {omega.coeffs}: direct {d}, recursive {r}")
            _require(d >= q ** (k * (n - k)), f"{(q, k, n)} form {omega.coeffs}: {d}")
    return "(q,k,n) = (3,2,4), (2,2,5), (2,3,6), (3,3,5)"


@check("weights", "indecomposable-trend",
       "indecomposable 3-form weights stay within 4 q^(delta-3) of "
       "q^delta + q^(delta-2)", "full")
def _indecomposable_trend():
    delta = 9
    for q in (2, 3, 4):
        gf, rng, found = field_of_order(q), random.Random(q), 0
        while found < 3:
            omega = _random_form(gf, 3, 6, rng)
            if satisfies_plucker(omega):
                continue
            found += 1
            w = form_weight(omega, "direct")
            _require(abs(w - q**delta - q ** (delta - 2)) <= 4 * q ** (delta - 3),
                     f"q={q}: weight {w}")
    return "three forms on GF(q)^6, q = 2, 3, 4"


def _structured_weight(r):
    got = higher_weight_search(build_code(2, 4, make_field(2, 1)), r, mode="structured")
    _require(got == higher_weight_value(2, 4, 2, r), f"r={r}: {got}")
    return f"r={r}: {got}"


for _r in (1, 2, 3):
    check("weights", f"structured-d{_r}",
          "structured sections certify the higher weight "
          "q^delta + ... + q^(delta-r+1)")(functools.partial(_structured_weight, _r))


@check("sections", "norm-methods",
       "point scan equals the exact annihilator-weight average")
def _norm_methods():
    gf = make_field(2, 1)
    coords = multi_indices(2, 4)
    for r in range(1, 7):
        for subset in itertools.combinations(coords, r):
            s = coordinate_section(gf, 2, 4, subset)
            _require(section_norm(s, "point-scan") == section_norm(s, "annihilator-sum"),
                     f"section {subset}")
    return "all coordinate sections of (2,4,2)"


@check("sections", "criterion-04-inclusion-exclusion-reconstruction",
       "the alternating sum over coordinate sections reassembles the census "
       "count", budget_s=60)
def _inclusion_exclusion():
    pairs = {}
    for k, n, q in ((2, 4, 2), (2, 4, 3), (2, 5, 2)):
        gf = field_of_order(q)
        pairs[(k, n, q)] = (inclusion_exclusion(k, n, gf).gamma_reconstructed,
                            count_mds_matrix_scan(k, n, gf).gamma)
        _require(len(set(pairs[(k, n, q)])) == 1, f"{(k, n, q)}: {pairs[(k, n, q)]}")
    return f"(reconstructed, census): {pairs}"


def _section_bound(q, ell):
    return 1 + q + 2 * q**2 + sum(q**j for j in range(3, ell))


@check("sections", "criterion-09-section-bounds",
       "section cardinality bound and codim-r residuals", "full", 300)
def _section_bounds():
    for q, k, n in ((2, 2, 4), (2, 2, 5)):
        gf = field_of_order(q)
        indices = multi_indices(k, n)
        for m in range(4, len(indices) + 1):
            for subset in itertools.combinations(indices, m):
                spanning = [MultiVector.basis(gf, k, n, idx) for idx in subset]
                inside, ell = section_cardinality(gf, k, n, spanning), m - 1
                if inside == gaussian_binomial(1, ell + 1, q):
                    continue  # the section lies inside the Grassmannian
                _require(inside <= _section_bound(q, ell), f"{(q, k, n)} {subset}")
    rng = random.Random(99)
    for q, k, n in ((2, 2, 4), (2, 2, 5), (2, 3, 6)):
        gf = field_of_order(q)
        for _ in range(500):
            ell = rng.randrange(3, 5)
            inside = section_cardinality(gf, k, n, _random_primal_section(gf, k, n, ell, rng))
            if inside != gaussian_binomial(1, ell + 1, q):
                _require(inside <= _section_bound(q, ell), f"{(q, k, n, ell)}: {inside}")
    delta, coords = 4, multi_indices(2, 4)
    for q in (2, 3, 4):
        gf = field_of_order(q)
        for r, extra in ((2, 1), (3, 2)):
            minimal = higher_weight_value(2, 4, q, r)
            predicted = q**delta + q ** (delta - 1) + extra * q ** (delta - 2)
            for subset in itertools.combinations(coords, r):
                norm = section_norm(coordinate_section(gf, 2, 4, subset))
                if coordinate_ann_in_grassmannian(subset):
                    _require(norm == minimal, f"q={q} {subset}: {norm}")
                else:
                    _require(abs(norm - predicted) <= 4 * q ** (delta - 3),
                             f"q={q} {subset}: {norm}")
    return "coordinate sections of (2,4,2), (2,5,2); 1500 random; codim 2, 3 of (2,4)"


@check("sections", "structured-counts",
       "the two maximal-subspace families count C(n,k-1)C(n-k+1,r) and "
       "C(n,k+1)C(k+1,r)")
def _structured_counts():
    c1, c2 = structured_counts(2, 5)
    got = (c1[3], c2[3], structured_counts(2, 4)[0][2])
    # C(5,1)C(4,3), C(5,3)C(3,3), and C(4,1)C(3,2) = N delta / 2 at (2,4)
    _require(got == (20, 10, 12), f"(2,5) r=3, (2,4) r=2: {got}")
    return f"(2,5) r=3, (2,4) r=2: {got}"


@check("asymptotics", "criterion-01-a2-golden-table",
       "the quadratic coefficients of the k=3 family, and the k=1,2 "
       "polynomial families agree with the general formula", budget_s=1)
def _a2_golden_table():
    golden = {(3, 6): 152, (3, 7): 506, (3, 8): 1360, (3, 9): 3158}
    got = {kn: params(*kn).a2 for kn in golden}
    _require(got == golden, f"{got}")
    for k, n in itertools.product((1, 2), range(3, 13)):
        _require(params(k, n).a2 == a2_closed_form(k, n), f"(k,n) = {(k, n)}")
    return f"{got}"


@check("asymptotics", "criterion-02-arc-expansion-coefficients",
       "the arc-count expansions carry (110, 5561) and (62, 1710)", budget_s=1)
def _arc_coefficients():
    p310, p48 = params(3, 10), params(4, 8)
    got = (p310.b1, p310.b2, p48.b1, p48.b2)
    _require(got == (110, 5561, 62, 1710), f"got {got}")
    return f"(3,10): {got[:2]}; (4,8): {got[2:]}"


@check("asymptotics", "a2-duality",
       "the quadratic coefficient is symmetric under k -> n-k")
def _a2_duality():
    for n in range(2, 13):
        for k in range(1, n):
            _require(params(k, n).a2 == params(n - k, n).a2, f"(k,n) = {(k, n)}")
    return "n <= 12"


@check("asymptotics", "arc-series",
       "long division by (q-1)^(n-1) reproduces the arc coefficients")
def _arc_series():
    shapes = ((3, 10), (4, 8), (2, 6), (2, 5), (3, 6))
    for k, n in shapes:
        p = params(k, n)
        _require(arc_series_top3(k, n) == (1, -p.b1, p.b2), f"(k,n) = {(k, n)}")
    return ", ".join(map(str, shapes))


@check("asymptotics", "criterion-10-convergence-sweeps",
       "residual sweeps stay bounded: (3,6) brute force, (2,5) oracle to q=64",
       budget_s=1800)
def _convergence_sweeps():
    rep36 = convergence(3, 6, [2, 3, 4, 5, 7, 8, 9], threads=8)
    for row in rep36.rows:
        _require(row.predicted == row.q**9 - 19 * row.q**8 + 152 * row.q**7
                 and row.normalized == Fraction(row.residual, row.q**6),
                 f"(3,6) q={row.q}")
    _require(rep36.bounded, f"(3,6): {rep36}")
    rep25 = convergence(2, 5, [q for q in range(2, 65) if len(_prime_factors(q)) == 1])
    _require(rep25.bounded, f"(2,5): {rep25}")
    return (f"max |residual|/q^(delta-3): (3,6) {rep36.max_normalized}, "
            f"(2,5) {rep25.max_normalized}")


# criterion 03 runs both census routes at every shape with n <= 8 over the
# fields to q = 16 that both walks fit within CROSS_BUDGET candidates, and at
# (2,3,529), past the table fields: the routes' own budget check picks the
# shapes
CROSS_BUDGET = 3 * 10**6


@check("census", "criterion-03-census-cross-oracle",
       "the matrix scan, the Grassmannian filter and the closed forms agree",
       budget_s=120)
def _census_cross_oracle():
    shapes = [(k, n, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
              for n in range(1, 9) for k in range(1, n + 1)]
    agreed = 0
    for k, n, q in shapes + [(2, 3, 529)]:
        gf = field_of_order(q)
        try:
            b = count_mds_grassmannian_filter(k, n, gf, budget=CROSS_BUDGET).gamma
            a = count_mds_matrix_scan(k, n, gf, budget=CROSS_BUDGET).gamma
        except BudgetExceeded:
            continue
        _require(a == b, f"{(k, n, q)}: scan {a}, filter {b}")
        agreed += 1
    _require(agreed == 315, f"{agreed} shapes within budget, expected 315")
    # closed forms for the k = 1 and k = 2 families.  The spec's printed
    # k=2 formula C(q+1,n)(q-1)^(n-1) is wrong at q >= 4 (it contradicts
    # both independent enumerations and the quadratic coefficient table);
    # the classical count (q-1)^(n-1)(q-2)...(q-n+2) is used instead.
    for q, k in itertools.product((2, 3, 4, 5, 7, 8, 9), (1, 2)):
        for n in range(k, 7):
            got = count_mds_matrix_scan(k, n, field_of_order(q)).gamma
            _require(got == gamma_closed_form(k, n, q), f"{(k, n, q)}: {got}")
    _require(gamma_closed_form(3, 6, 5) is None, "a closed form past k = 2")
    return f"scan = filter on {agreed} shapes; closed forms k = 1, 2 to n = 6, q = 9"


# every census count the repo pins, as (k, n, q, gamma-tilde, routes), each
# route a census.count_mds method; the filter is left out where its walk is
# long: 6^12 points at (4,8,7), 8^10 at (3,8,9), and at (3,8,11) its 10^10
# points pass the default budget.
# Segre: at odd q a (q+1)-arc is a normal rational curve, fixed by k+2
# points in general position, so gamma-tilde(k, q+1, q) = (q-2)!.  Bose:
# PG(2, q) has no (q+2)-arc at odd q.
CENSUS_LEDGER = (
    (3, 6, 2, 0, ("scan", "filter")),
    (3, 6, 5, 6, ("scan", "filter")),        # Segre
    (4, 6, 5, 6, ("scan", "filter")),        # Segre
    (3, 7, 5, 0, ("scan", "filter")),        # Bose
    (3, 8, 7, 120, ("scan", "filter")),      # Segre
    (3, 9, 7, 0, ("scan", "filter")),        # Bose
    (4, 8, 7, 120, ("scan",)),               # Segre
    (3, 8, 9, 7560, ("scan",)),
    (3, 8, 11, 389592, ("scan",)),
)


@check("census", "census-ledger",
       "every row of the census ledger holds on each route it lists, the "
       "finite-geometry anchors among them", "full", 60)
def _census_ledger():
    for k, n, q, want, routes in CENSUS_LEDGER:
        for route in routes:
            got = count_mds(k, n, field_of_order(q), method=route).gamma_tilde
            _require(got == want, f"row {(k, n, q)} on the {route}: "
                     f"gamma-tilde {got}, the ledger has {want}")
    runs = sum(len(routes) for *_, routes in CENSUS_LEDGER)
    return f"{len(CENSUS_LEDGER)} rows, {runs} route runs"


@check("census", "criterion-11-worker-count-determinism",
       "scan, filter and sweep results are identical at 1, 4 and 8 workers",
       "full", 900)
def _worker_count_determinism():
    gf3, gf9 = make_field(3, 1), make_field(3, 2)
    gf16, gf17 = make_field(2, 4), make_field(17, 1)
    # the (3,7,17) scan walks 15^5 candidates and the (3,6,16) filter 15^5
    # (row 0 all ones, the last entry counted), past census.POOL_MIN_WORK, so
    # their runs at 4 and 8 workers start a pool; so does the (3,7) sweep
    runs = {
        "scan-3-6-3": lambda t: count_mds_matrix_scan(3, 6, gf3, threads=t).gamma,
        "scan-3-6-9": lambda t: count_mds_matrix_scan(3, 6, gf9, threads=t).gamma,
        "scan-3-7-17": lambda t: count_mds_matrix_scan(3, 7, gf17, threads=t).gamma,
        "filter-2-5-3": lambda t: count_mds_grassmannian_filter(2, 5, gf3, threads=t).gamma,
        "filter-3-6-16": lambda t: count_mds_grassmannian_filter(3, 6, gf16, threads=t).gamma,
        "sweep-3-6": lambda t: convergence(3, 6, [2, 3, 4], threads=t),
        "sweep-3-7-17": lambda t: convergence(3, 7, [17], threads=t),
    }
    for label, run in runs.items():
        base = run(1)
        for threads in (4, 8):
            _require(run(threads) == base, f"{label} at {threads} workers")
    return ", ".join(runs)


SUITES = tuple(dict.fromkeys(c.suite for c in REGISTRY))
