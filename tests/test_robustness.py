import ast
import json
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import mdscensus
from mdscensus import _vecgf, verify
from mdscensus.asymptotics import convergence
from mdscensus.budget import DEFAULT_BUDGET, effective_budget
from mdscensus.census import count_mds
from mdscensus.cli import main
from mdscensus.errors import (
    DimensionMismatch,
    FieldMismatch,
    NonPrimePower,
    OutOfRange,
    ShapeMismatch,
    ZeroInput,
)
from mdscensus.exterior import (
    DualForm,
    MultiVector,
    form_profile,
    form_weight,
    interior_mult,
    multi_indices,
    pairing,
    pi_alpha,
    pi_gamma,
    satisfies_plucker,
    wedge,
)
from mdscensus.fields import field_of_order, make_field
from mdscensus.grassmann_code import build_code, higher_weight_search, weight_spectrum
from mdscensus.linalg import (
    MatrixGF,
    det,
    gl_order,
    kernel_basis,
    point_from_matrix,
    point_from_rows,
    rank,
)
from mdscensus.sections import (
    LinearSection,
    annihilator_table,
    coordinate_norm_from_masks,
    coordinate_section,
    section_cardinality,
    section_norm,
    support_mask_counts,
)

PACKAGE_DIR = pathlib.Path(mdscensus.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no check may live in one
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert found == []


def test_package_modules_read_every_import():
    # a module-level import that its module never reads is a leftover of a
    # deletion; __init__.py imports to re-export
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found.extend(
            f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in read
        )
    assert found == []


def _run_python(*argv, paths=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), *paths, env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def test_count_under_optimize_flag():
    proc = _run_python("-O", "-m", "mdscensus.cli", "count", "--k", "3", "--n", "6",
                       "--q", "5", "--method", "both")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["gamma"], payload["gamma_tilde"]) == ("6144", "6")


def test_verify_under_optimize_flag():
    # the registry fails through CheckFailed, so -O runs every check
    proc = _run_python("-O", "-m", "mdscensus.cli", "verify", "--scale", "quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    total = len(verify.select("all", "quick"))
    assert proc.stdout.splitlines()[-1] == f"OK: {total}/{total} checks passed"
    assert proc.stdout.count("[PASS] ") == total


ODD_RANK_SCRIPT = """
from mdscensus import exterior
from mdscensus.errors import ExactnessViolation
from mdscensus.fields import field_of_order

real = exterior._echelon_rows

def one_pivot_short(gf, rows, ncols):
    pivots, scale, inverses = real(gf, rows, ncols)
    return pivots[:-1], scale, inverses[:-1]

exterior._echelon_rows = one_pivot_short
omega = exterior.DualForm.basis(field_of_order(3), 2, 4, (1, 2))
try:
    exterior.form_weight(omega, "recursive")
except ExactnessViolation as exc:
    print("refused:", exc)
"""


def test_odd_two_form_rank_raises_under_optimize_flag():
    # an alternating matrix has even rank, so an odd one is a fault of the
    # elimination, refused with or without -O
    for flags in ((), ("-O",)):
        proc = _run_python(*flags, "-c", ODD_RANK_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("refused: "), proc.stdout


ORBIT_SCRIPT = """
from mdscensus import census
from mdscensus.errors import DivisibilityViolation
from mdscensus.fields import field_of_order

real = census._count_walk
gf = field_of_order(4)
# gamma-tilde(2,5,4) = 2 and |PGL(2,4)| = 60, so 5! divides 2 * 60, not 3 * 60
for route, step in ((census.count_mds_matrix_scan, 1),
                    (census.count_mds_grassmannian_filter, 3**4)):
    def one_off(gf, walk, threads, step=step):
        count, workers = real(gf, walk, threads)
        return count + step, workers
    census._count_walk = one_off
    try:
        route(2, 5, gf)
    except DivisibilityViolation as exc:
        print("refused:", exc)
    census._count_walk = real
    print("counted:", route(2, 5, gf).gamma_tilde)
"""


def test_orbit_divisibility_raises_under_optimize_flag():
    # a gamma-tilde off by one breaks n! | gamma-tilde |PGL(k,q)| on either
    # route, refused with or without -O
    for flags in ((), ("-O",)):
        proc = _run_python(*flags, "-c", ORBIT_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["refused", "counted"] * 2, lines
        assert lines[1] == lines[3] == "counted: 2"


def test_cached_annihilator_table_is_read_only():
    table = annihilator_table(make_field(3, 1), 2)
    assert isinstance(table, np.ndarray) and table.size == 9
    with pytest.raises(ValueError):
        table[0] = 1
    with pytest.raises(ValueError):
        table += 1


# per field, how many arrays its VecOps keeps: the four q x q tables (two
# when p = 2), log and exp on extension fields, and the inverses
@pytest.mark.parametrize("q, kept", [(7, 5), (8, 5), (9, 7), (191, 1), (243, 3)])
def test_cached_vecops_arrays_are_read_only(q, kept):
    gf = field_of_order(q)
    assert isinstance(gf._log, tuple) and isinstance(gf._exp, tuple)
    ops = _vecgf.vector_ops(gf)
    names = ("_add", "_sub", "_mul", "_div", "log", "exp", "_inverses")
    arrays = [a for a in (getattr(ops, name, None) for name in names) if a is not None]
    assert len(arrays) == kept
    for table in arrays:
        with pytest.raises(ValueError):
            table[0] = 1
        with pytest.raises(ValueError):
            table += 1


def test_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps package functions by name (support_mask_counts,
    # inclusion_exclusion, section_norm, form_values, ...): a rename must
    # fail here, not only in the traced benchmark
    perfbench = PACKAGE_DIR.parent.parent / "perfbench"
    proc = _run_python("-c", "import tracer; tracer.install(tracer.Tracer()); "
                       "print('installed')", paths=(str(perfbench),))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


def test_cli_imports_the_registry_lazily():
    # only the verify command imports the registry, so no other command
    # pays for its imports
    proc = _run_python("-c", "import sys, mdscensus.cli; "
                       "print('mdscensus.verify' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr


def test_budget_validation(monkeypatch):
    monkeypatch.delenv("MDS_BUDGET", raising=False)
    assert effective_budget() == DEFAULT_BUDGET
    assert effective_budget(0) == 0
    with pytest.raises(OutOfRange):
        effective_budget(-5)
    monkeypatch.setenv("MDS_BUDGET", "abc")
    with pytest.raises(OutOfRange):
        effective_budget()
    monkeypatch.setenv("MDS_BUDGET", "-1")
    with pytest.raises(OutOfRange):
        effective_budget()
    monkeypatch.setenv("MDS_BUDGET", "81")
    assert effective_budget() == 81


def test_budget_validation_cli(monkeypatch, capsys):
    monkeypatch.delenv("MDS_BUDGET", raising=False)
    shape = ["count", "--k", "2", "--n", "4", "--q", "3"]
    assert main(shape + ["--budget", "-5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "nonnegative" in err
    monkeypatch.setenv("MDS_BUDGET", "abc")
    assert main(shape) == 1
    out, err = capsys.readouterr()
    assert out == "" and "MDS_BUDGET" in err


def test_cached_plucker_matrix_is_read_only():
    mat = _vecgf.plucker_matrix(make_field(3, 1), 2, 4)
    assert isinstance(mat, np.ndarray)
    with pytest.raises(ValueError):
        mat[0, 0] = 1
    with pytest.raises(ValueError):
        mat += 1


def _over_cap_values(gf, k, n, forms, sections):
    return (
        [form_weight(omega, "direct") for omega in forms],
        [section_norm(s, method) for s in sections
         for method in ("point-scan", "annihilator-sum")],
        support_mask_counts(gf, k, n),
        # ndarray fields defeat dataclass equality: compare the arrays
        build_code(k, n, gf).generator.tolist(),
    )


def test_over_cap_blocks_match_cached_matrix(monkeypatch):
    """Past PLUCKER_CACHE_CAP every Plucker consumer reads the same columns
    as prefix-chunked blocks built on the fly, and gets the same values."""
    rng = random.Random(11)
    cases = []
    for k, n, q in ((2, 4, 3), (2, 5, 2), (3, 6, 2), (2, 4, 4)):
        gf = field_of_order(q)
        width = len(multi_indices(k, n))
        forms = []
        while len(forms) < 3:
            coeffs = [rng.randrange(q) for _ in range(width)]
            if any(coeffs[1:]):  # independent of e^I for the first I
                forms.append(DualForm(gf, k, n, coeffs))
        first = DualForm.basis(gf, k, n, multi_indices(k, n)[0])
        sections = [coordinate_section(gf, k, n, multi_indices(k, n)[:2]),
                    LinearSection(gf, k, n, (first, forms[0]))]
        cached = _vecgf.plucker_matrix(gf, k, n)
        cases.append((gf, k, n, forms, sections, cached,
                      _over_cap_values(gf, k, n, forms, sections)))
    # 320 entries: at most 53, 32 or 16 columns a block for C(n, k) = 6, 10
    # or 20, so every shape takes several blocks
    cap = 320
    monkeypatch.setattr(_vecgf, "PLUCKER_CACHE_CAP", cap)
    # then 48 bytes a block row: 24 int16 columns
    for block_bytes in (_vecgf.BLOCK_BYTES, 48):
        monkeypatch.setattr(_vecgf, "BLOCK_BYTES", block_bytes)
        for gf, k, n, forms, sections, cached, expected in cases:
            blocks = list(_vecgf.plucker_blocks(gf, k, n))
            assert len(blocks) > 1 and all(b.size <= cap for b in blocks)
            assert all(row.nbytes <= block_bytes for b in blocks for row in b)
            assert np.array_equal(np.concatenate(blocks, axis=1), cached)
            assert _over_cap_values(gf, k, n, forms, sections) == expected, (k, n, gf.q)


def test_support_masks_count_bit_63(monkeypatch):
    # a synthetic 64-row block: int64 masks read bit 63 as the sign bit
    block = np.zeros((64, 5), dtype=np.int64)
    block[63, [0, 1, 4]] = 1
    block[0, 1] = 2
    block[:, 2] = 1
    block[62, 3] = 1
    monkeypatch.setattr(_vecgf, "plucker_blocks", lambda gf, k, n, budget=None: [block])
    masks = support_mask_counts(make_field(3, 1), 1, 64)
    assert masks == {2**62: 1, 2**63: 2, 2**63 + 1: 1, 2**64 - 1: 1}
    assert coordinate_norm_from_masks(masks, 5, 1 << 63) == 4
    assert coordinate_norm_from_masks(masks, 5, 1 << 62) == 2


GF3 = make_field(3, 1)
FORM = DualForm.basis(GF3, 2, 4, (1, 2))
VECTOR = MultiVector.basis(GF3, 2, 4, (1, 2))
WIDER_FORM = DualForm.basis(GF3, 2, 5, (1, 2))
WIDER_VECTOR = MultiVector.basis(GF3, 2, 5, (1, 2))


def _code():
    return build_code(2, 4, make_field(2, 1))


# validation branches that no other test runs, one row each: (call, exception)
REFUSALS = {
    "spectrum-sample-count-0": (
        lambda: weight_spectrum(_code(), mode="sample", sample_count=0), OutOfRange),
    "spectrum-unknown-mode": (
        lambda: weight_spectrum(_code(), mode="walk"), OutOfRange),
    "search-unknown-mode": (
        lambda: higher_weight_search(_code(), 1, mode="walk"), OutOfRange),
    "count-unknown-method": (lambda: count_mds(2, 4, GF3, method="walk"), OutOfRange),
    "weight-unknown-method": (lambda: form_weight(FORM, "walk"), OutOfRange),
    "norm-unknown-method": (
        lambda: section_norm(LinearSection(GF3, 2, 4, (FORM,)), "walk"), OutOfRange),
    "weight-of-a-multivector": (lambda: form_weight(VECTOR), ShapeMismatch),
    "pairing-types": (lambda: pairing(VECTOR, FORM), ShapeMismatch),
    "wedge-types": (lambda: wedge(VECTOR, FORM), ShapeMismatch),
    "wedge-spaces": (lambda: wedge(VECTOR, WIDER_VECTOR), ShapeMismatch),
    "interior-types": (lambda: interior_mult(VECTOR, VECTOR), ShapeMismatch),
    "interior-spaces": (lambda: interior_mult(VECTOR, WIDER_FORM), ShapeMismatch),
    "profile-of-zero": (lambda: form_profile(DualForm.zero(GF3, 2, 4)), ZeroInput),
    "pi-alpha-of-the-whole-space": (
        lambda: pi_alpha(point_from_rows(GF3, [[1, 0], [0, 1]])), DimensionMismatch),
    "pi-gamma-of-the-zero-space": (
        lambda: pi_gamma(point_from_matrix(MatrixGF(GF3, 0, 3, ()))), DimensionMismatch),
    "section-without-forms": (lambda: LinearSection(GF3, 2, 4, ()), ShapeMismatch),
    "section-of-a-multivector": (
        lambda: LinearSection(GF3, 2, 4, (VECTOR,)), ShapeMismatch),
    "section-form-in-another-space": (
        lambda: LinearSection(GF3, 2, 4, (WIDER_FORM,)), ShapeMismatch),
    "cardinality-of-a-form": (
        lambda: section_cardinality(GF3, 2, 4, [FORM]), ShapeMismatch),
    "cardinality-vector-in-another-space": (
        lambda: section_cardinality(GF3, 2, 4, [WIDER_VECTOR]), ShapeMismatch),
    "matrix-ragged-rows": (
        lambda: MatrixGF.from_rows(GF3, [[1, 0], [1]]), ShapeMismatch),
    "matrix-short-data": (lambda: MatrixGF(GF3, 2, 2, (1, 0, 1)), ShapeMismatch),
    "matrix-entry-outside-the-field": (
        lambda: MatrixGF(GF3, 1, 2, (1, 3)), FieldMismatch),
    "det-non-square": (lambda: det(MatrixGF(GF3, 1, 2, (1, 0))), ShapeMismatch),
    "gl-order-negative": (lambda: gl_order(-1, 3), OutOfRange),
    "verify-unknown-suite": (lambda: verify.select("nowhere"), ValueError),
    "verify-unknown-scale": (lambda: verify.select("all", "huge"), ValueError),
    # GF.encodings, the one element rule: an integer in [0, q)
    "matrix-non-integer-entry": (
        lambda: MatrixGF(GF3, 2, 2, (1.5, 0, 0, 1)), FieldMismatch),
    "form-non-integer-coefficient": (
        lambda: DualForm(GF3, 2, 4, (2.5, 0, 0, 0, 0, 1)), FieldMismatch),
    "form-coefficient-outside-the-field": (
        lambda: DualForm(GF3, 2, 4, (3, 0, 0, 0, 0, 1)), FieldMismatch),
    "checked-add-of-a-non-integer": (lambda: GF3.add(1.5, 1), FieldMismatch),
    # integer parameters at the library edge, once truncated
    "convergence-non-integer-q": (
        lambda: convergence(2, 5, [2.5, 3.9]), OutOfRange),
    "field-of-non-integer-order": (lambda: field_of_order(4.0), NonPrimePower),
    "non-integer-budget": (lambda: effective_budget(2.5), OutOfRange),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_validation_refuses(case):
    call, exception = REFUSALS[case]
    with pytest.raises(exception):
        call()



@pytest.mark.parametrize("q", [3, 4, 9])
def test_algebra_makes_no_checked_call_on_validated_inputs(monkeypatch, q):
    # the checked operations serve the edge: once MatrixGF, MultiVector and
    # DualForm have validated their entries, the algebra computes unchecked
    gf = field_of_order(q)
    rng = random.Random(q)

    def graded(cls, k, n):
        return cls(gf, k, n, [rng.randrange(1, q) for _ in multi_indices(k, n)])

    vector, bivector = graded(MultiVector, 1, 5), graded(MultiVector, 2, 5)
    form2, form3 = graded(DualForm, 2, 4), graded(DualForm, 3, 5)
    matrix = MatrixGF(gf, 3, 5, [rng.randrange(q) for _ in range(15)])
    spanning = [graded(MultiVector, 2, 4), MultiVector.basis(gf, 2, 4, (1, 2))]
    # the one Plucker relation on (2,4): p12 p34 - p13 p24 + p14 p23 = 0
    p12, p13, p14, p23, p24, p34 = form2.coeffs
    relation = gf.add(gf.sub(gf.mul(p12, p34), gf.mul(p13, p24)), gf.mul(p14, p23))
    direct = form_weight(form3, "direct")

    def refuse(*args):
        raise AssertionError("a checked field operation was called")

    for op in ("add", "sub", "mul", "neg", "inv"):
        monkeypatch.setattr(type(gf), op, refuse)
    assert wedge(vector, bivector).k == 3
    assert interior_mult(vector, form3).k == 2
    assert satisfies_plucker(form2) == (relation == 0)
    assert form_weight(form3, "recursive") == direct
    assert rank(matrix) + kernel_basis(matrix).rows == 5
    assert section_cardinality(gf, 2, 4, spanning) >= 1
