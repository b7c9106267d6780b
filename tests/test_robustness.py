import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mdscensus
from mdscensus import _vecgf
from mdscensus.budget import DEFAULT_BUDGET, effective_budget
from mdscensus.cli import main
from mdscensus.errors import OutOfRange
from mdscensus.fields import make_field

PACKAGE_DIR = pathlib.Path(mdscensus.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no check may live in one
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert found == []


def test_count_under_optimize_flag():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mdscensus.cli", "count",
         "--k", "3", "--n", "6", "--q", "5", "--method", "both"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["gamma"], payload["gamma_tilde"]) == ("6144", "6")


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
