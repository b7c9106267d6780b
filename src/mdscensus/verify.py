"""The check registry behind `mds verify` and the acceptance tests.

Each REGISTRY entry holds a suite, a name, a claim, a scale tag, an optional
time budget and a check function.  The function takes no arguments, returns
a detail line and fails through `_require`, never `assert`, so the checks
also run under `python -O`.  `--scale quick` runs the entries tagged quick,
`--scale full` runs them all, and `tests/test_acceptance.py` runs each entry
as one test.  Entries named `criterion-NN-...` are the release criteria.
"""

import functools
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .asymptotics import a2_closed_form, arc_series_top3, convergence, params
from .census import (
    count_mds_grassmannian_filter,
    count_mds_matrix_scan,
    gamma_closed_form,
)
from .errors import MdsError
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
from .linalg import MatrixGF, enumerate_grassmannian, gaussian_binomial, rank
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


def _is_prime_power(q):
    return len(_prime_factors(q)) == 1


def _field_axioms(q):
    gf = field_of_order(q)
    elems = list(gf.elements())
    for a, b, c in itertools.product(elems, repeat=3):
        if not (gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
                and gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
                and gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))):
            raise CheckFailed(f"an axiom fails at {(a, b, c)}")
    for a in elems[1:]:
        _require(gf.mul(a, gf.inv(a)) == 1 and gf.inv(gf.inv(a)) == a,
                 f"inverse fails at {a}")
    _require(len(set(elems)) == q and elems[:2] == [0, 1], "element order")
    return f"q={q} exhaustive"


for _q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
    check("fields", f"axioms-q{_q}",
          "field axioms, inverse involution, element order")(
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
    for n in (4, 5):
        for xi_idx, om_idx, z_idx in itertools.product(
            multi_indices(1, n), multi_indices(2, n), multi_indices(1, n)
        ):
            xi = MultiVector.basis(gf, 1, n, xi_idx)
            omega = DualForm.basis(gf, 2, n, om_idx)
            zeta = MultiVector.basis(gf, 1, n, z_idx)
            _require(pairing(interior_mult(xi, omega), zeta)
                     == pairing(omega, wedge(xi, zeta)),
                     f"n={n}: {xi_idx}, {om_idx}, {z_idx}")
    return "(2,4) and (2,5)"


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
       "least k+2 dual directions")
def _kernel_dimensions():
    gf = make_field(2, 1)
    rng = random.Random(7)
    for _ in range(200):
        omega = _random_form(gf, 2, 5, rng)
        prof = form_profile(omega)
        if prof.decomposable:
            _require(prof.v_omega.rows == 3, f"kernel of {omega.coeffs}")
        else:
            _require(prof.u_omega.rows >= 4, f"annihilator of {omega.coeffs}")
    return "200 random 2-forms on GF(2)^5"


@check("plucker", "maximal-subspace-intersections",
       "the two families of maximal linear subspaces intersect by the "
       "dimension rules")
def _maximal_subspace_intersections():
    gf = make_field(2, 1)
    lines = list(enumerate_grassmannian(gf, 1, 4))
    solids = list(enumerate_grassmannian(gf, 3, 4))
    pa = {a: pi_alpha(a) for a in lines}
    pg = {g: pi_gamma(g) for g in solids}
    for a1, a2 in itertools.combinations(lines, 2):
        want = 1 if rank(a1.matrix.stack(a2.matrix)) == 2 else 0
        _require(len(pa[a1] & pa[a2]) == want, "two alpha-subspaces")
    for a, g in itertools.product(lines, solids):
        inside = rank(a.matrix.stack(g.matrix)) == 3
        _require(len(pa[a] & pg[g]) == (3 if inside else 0),
                 "an alpha- and a gamma-subspace")
    return "G(2,4) over GF(2)"


@check("weights", "known-weights",
       "decomposable weight q^delta; rank-4 form adds q^(delta-2)")
def _known_weights():
    gf = make_field(2, 1)
    got = (form_weight(DualForm.basis(gf, 2, 4, (1, 2))),
           form_weight(DualForm.from_terms(gf, 2, 4, [((1, 2), 1), ((3, 4), 1)])),
           form_weight(DualForm.basis(gf, 2, 5, (1, 2))))
    _require(got == (16, 20, 64), f"got {got}")
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
    for q, k, n in ((3, 2, 4), (2, 2, 5), (2, 3, 6)):
        gf = field_of_order(q)
        for _ in range(200):
            omega = _random_form(gf, k, n, rng)
            d, r = form_weight(omega, "direct"), form_weight(omega, "recursive")
            _require(d == r, f"{(q, k, n)} form {omega.coeffs}: direct {d}, recursive {r}")
            _require(d >= q ** (k * (n - k)), f"{(q, k, n)} form {omega.coeffs}: {d}")
    return "(q,k,n) = (3,2,4), (2,2,5), (2,3,6)"


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
    got = (c1[3], c2[3])
    _require(got == (20, 10), f"(2,5) r=3: {got}")
    return f"(2,5) r=3: {got}"


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
    for k, n in ((3, 10), (4, 8), (2, 6)):
        p = params(k, n)
        _require(arc_series_top3(k, n) == (1, -p.b1, p.b2), f"(k,n) = {(k, n)}")
    return "(3,10), (4,8), (2,6)"


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
    rep25 = convergence(2, 5, [q for q in range(2, 65) if _is_prime_power(q)])
    _require(rep25.bounded, f"(2,5): {rep25}")
    return (f"max |residual|/q^(delta-3): (3,6) {rep36.max_normalized}, "
            f"(2,5) {rep25.max_normalized}")


@check("census", "criterion-03-census-cross-oracle",
       "the matrix scan, the Grassmannian filter and the closed forms agree",
       budget_s=120)
def _census_cross_oracle():
    for q in (2, 3, 4):
        gf = field_of_order(q)
        for n in range(1, 7):
            for k in range(1, min(3, n) + 1):
                a = count_mds_matrix_scan(k, n, gf).gamma
                b = count_mds_grassmannian_filter(k, n, gf).gamma
                _require(a == b, f"{(k, n, q)}: scan {a}, filter {b}")
    # closed forms for the k = 1 and k = 2 families.  The spec's printed
    # k=2 formula C(q+1,n)(q-1)^(n-1) is wrong at q >= 4 (it contradicts
    # both independent enumerations and the quadratic coefficient table);
    # the classical count (q-1)^(n-1)(q-2)...(q-n+2) is used instead.
    for q in (2, 3, 4, 5, 7, 8, 9):
        gf = field_of_order(q)
        for n in range(1, 7):
            got = count_mds_matrix_scan(1, n, gf).gamma
            _require(got == (q - 1) ** (n - 1), f"(1, {n}, {q}): {got}")
        for n in range(2, 7):
            got = count_mds_matrix_scan(2, n, gf).gamma
            _require(got == gamma_closed_form(2, n, q), f"(2, {n}, {q}): {got}")
    return "scan = filter for k <= 3, n <= 6, q <= 4; closed forms k = 1, 2 to q = 9"


@check("census", "theory-anchors",
       "the scan matches finite geometry, also past the filter's budget: "
       "(q+1)-arcs at odd q are normal rational curves, and the plane has "
       "no (q+2)-arc at odd q")
def _theory_anchors():
    # Segre: at odd q a (q+1)-arc is a normal rational curve, fixed by k+2
    # points in general position, so gamma-tilde(k, q+1, q) = (q-2)!.
    # Bose: PG(2, q) has no (q+2)-arc at odd q.  The filter refuses
    # (3,8,7), (4,8,7) and (3,9,7) at the default budget.
    expected = {(3, 6, 5): 6, (4, 6, 5): 6, (3, 8, 7): 120, (4, 8, 7): 120,
                (3, 7, 5): 0, (3, 9, 7): 0}
    for (k, n, q), want in expected.items():
        got = count_mds_matrix_scan(k, n, field_of_order(q)).gamma_tilde
        _require(got == want, f"{(k, n, q)}: gamma-tilde {got}, expected {want}")
    return "gamma-tilde (q-2)! at (3,6,5), (4,6,5), (3,8,7), (4,8,7); 0 at (3,7,5), (3,9,7)"


@check("census", "criterion-11-worker-count-determinism",
       "scan, filter and sweep results are identical at 1, 4 and 8 workers",
       "full", 900)
def _worker_count_determinism():
    gf3, gf9 = make_field(3, 1), make_field(3, 2)
    gf17, gf32 = make_field(17, 1), make_field(2, 5)
    # the (3,7,17) scan walks 15^5 candidates and the (2,5,32) filter 31^4
    # (A[0][0] = 1, the last entry counted), past census.POOL_MIN_WORK, so
    # their runs at 4 and 8 workers start a pool; so does the (3,7) sweep
    runs = {
        "scan-3-6-3": lambda t: count_mds_matrix_scan(3, 6, gf3, threads=t).gamma,
        "scan-3-6-9": lambda t: count_mds_matrix_scan(3, 6, gf9, threads=t).gamma,
        "scan-3-7-17": lambda t: count_mds_matrix_scan(3, 7, gf17, threads=t).gamma,
        "filter-2-5-3": lambda t: count_mds_grassmannian_filter(2, 5, gf3, threads=t).gamma,
        "filter-2-5-32": lambda t: count_mds_grassmannian_filter(2, 5, gf32, threads=t).gamma,
        "sweep-3-6": lambda t: convergence(3, 6, [2, 3, 4], threads=t),
        "sweep-3-7-17": lambda t: convergence(3, 7, [17], threads=t),
    }
    for label, run in runs.items():
        base = run(1)
        for threads in (4, 8):
            _require(run(threads) == base, f"{label} at {threads} workers")
    return ", ".join(runs)


SUITES = tuple(dict.fromkeys(c.suite for c in REGISTRY))
