import json
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from mdscensus import _vecgf, cli, verify
from mdscensus.cli import main
from mdscensus.errors import OutOfRange


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--k", "2", "--n", "4", "--q", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == "8"
    assert payload["gamma_tilde"] == "1"
    assert payload["method"] == "matrix-scan"
    assert "elapsed_ms" in payload


def test_count_both_methods(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--k", "2", "--n", "4", "--q", "2", "--method", "both"
    )
    assert code == 0
    assert json.loads(out)["gamma"] == "0"


def test_count_budget_refusal(capsys):
    # the scan walks 14^9 > 2^32 torus-normalized candidates at (4,8,16)
    code, out, err = run_cli(
        capsys, "count", "--k", "4", "--n", "8", "--q", "16"
    )
    assert code == 2
    assert "exceeds budget" in err
    assert out == ""


def test_non_prime_power_rejected(capsys):
    code, _, err = run_cli(capsys, "count", "--k", "2", "--n", "4", "--q", "6")
    assert code == 1
    assert "prime power" in err


def test_grassmann_count(capsys):
    code, out, _ = run_cli(capsys, "grassmann-count", "--k", "2", "--n", "4", "--q", "2")
    assert code == 0
    assert json.loads(out)["count"] == "35"


def test_grassmann_count_rejects_non_prime_powers(capsys):
    # the count used to print 1591, 1 and 70 for q = 6, 0 and -3, and to
    # die in gaussian_binomial with a ZeroDivisionError at q = 1
    for q in ("6", "1", "0", "-3"):
        code, out, err = run_cli(capsys, "grassmann-count", "--k", "2", "--n", "4",
                                 "--q", q)
        assert code == 1, q
        assert out == "" and err == f"error: {q} is not a prime power\n", q


def test_asympt_coefficients(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--k", "3", "--n", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["b1"] == "110"
    assert payload["b2"] == "5561"


def test_asympt_with_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "asympt", "--k", "1", "--n", "3", "--q-list", "2,3,4,5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "bounded"
    assert all(row["residual"] == "0" for row in payload["rows"])


def test_asympt_rejects_empty_q_list(capsys):
    # an empty list or an empty token used to skip the sweep, or drop the
    # token, and exit 0
    for q_list in (",", "", "3,,5", "3,5,"):
        code, out, err = run_cli(
            capsys, "asympt", "--k", "1", "--n", "3", "--q-list", q_list
        )
        assert code == 1, q_list
        assert out == "" and "--q-list" in err, q_list
    code, out, _ = run_cli(capsys, "asympt", "--k", "1", "--n", "3", "--q-list", "3, 5")
    assert code == 0
    assert [row["q"] for row in json.loads(out)["rows"]] == [3, 5]


def test_weight_both_methods(capsys):
    code, out, _ = run_cli(
        capsys, "weight", "--k", "2", "--n", "4", "--q", "2",
        "--form", '[{"index":[1,2],"coeff":1},{"index":[3,4],"coeff":1}]',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weight_direct"] == "20"
    assert payload["weight_recursive"] == "20"


def test_weight_malformed_form(capsys):
    code, _, err = run_cli(
        capsys, "weight", "--k", "2", "--n", "4", "--q", "2", "--form", "not json"
    )
    assert code == 1
    assert "malformed" in err


def test_weight_rejects_bad_indices(capsys):
    # a repeated, unordered or out-of-range index used to end in a KeyError
    # traceback
    for index in ([1, 1], [1, 5], [2, 1], [1]):
        form = json.dumps([{"index": index, "coeff": 1}])
        code, out, err = run_cli(
            capsys, "weight", "--k", "2", "--n", "4", "--q", "3", "--form", form
        )
        assert code == 1, index
        assert out == "" and err.splitlines() == [err.strip()], index
        assert err.startswith(f"error: index {tuple(index)!r} is not a strictly "
                              "increasing 2-subset of 1..4"), index


def test_weight_rejects_non_integer_coefficients(capsys):
    # int(coeff) used to read 1.5, true and "2" as coefficients: each printed
    # weight 81 at (2,4,3) and exited 0
    for coeff in (1.5, True, "2", 2.0, None):
        form = json.dumps([{"index": [1, 2], "coeff": coeff}])
        code, out, err = run_cli(
            capsys, "weight", "--k", "2", "--n", "4", "--q", "3", "--form", form
        )
        assert code == 1, coeff
        assert out == "" and err.splitlines() == [err.strip()], coeff
        assert err.startswith(f"error: malformed form description: coefficient "
                              f"{json.dumps(coeff)} is not an integer"), coeff
    form = json.dumps([{"index": [1, 2], "coeff": 2}])
    code, out, _ = run_cli(capsys, "weight", "--k", "2", "--n", "4", "--q", "3",
                           "--form", form)
    assert code == 0 and json.loads(out)["weight_direct"] == "81"


def test_code_spectrum_csv(capsys):
    code, out, _ = run_cli(
        capsys, "code", "--k", "2", "--n", "4", "--q", "2",
        "--spectrum", "exhaustive", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,multiplicity"
    assert "16,35" in lines and "20,28" in lines


def test_code_sampled_spectrum_deterministic(capsys):
    args = ("code", "--k", "2", "--n", "4", "--q", "2",
            "--spectrum", "sample:100:7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_code_dr_structured(capsys):
    code, out, _ = run_cli(
        capsys, "code", "--k", "2", "--n", "4", "--q", "2", "--dr", "2",
        "--dr-mode", "exhaustive",
    )
    assert code == 0
    assert json.loads(out)["d_r"] == "24"


def test_code_dr_below_one_rejected(capsys):
    # --dr 0 used to drop the d_r report and exit 0
    for r in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "code", "--k", "2", "--n", "4", "--q", "2", "--dr", r
        )
        assert code == 1, r
        assert out == "" and "subcode dimension" in err, r


def test_incl_excl_verified(capsys):
    code, out, _ = run_cli(
        capsys, "incl-excl", "--k", "2", "--n", "4", "--q", "3",
        "--verify-against-census",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_reconstructed"] == "8"
    assert payload["match"] is True


def test_sections_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sections", "--k", "2", "--n", "4", "--q", "2",
        "--max-r", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,subset_id")
    # 6 singletons + 15 pairs
    assert len(lines) == 1 + 6 + 15
    for line in lines[1:7]:
        assert line.split(",")[3] == "16"


def test_sections_max_r_below_one_rejected(capsys):
    # --max-r 0 used to print an empty row list and exit 0
    for r in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "sections", "--k", "2", "--n", "4", "--q", "2", "--max-r", r
        )
        assert code == 1, r
        assert out == "" and f"--max-r must be at least 1, got {r}" in err, r


def test_sections_refused_by_subset_count(capsys, monkeypatch):
    # --exhaustive on G(3,7) asks for all 2^35 - 1 coordinate subsets: the
    # subset count is checked against the budget before the Plucker pass
    def no_blocks(*args, **kwargs):
        raise AssertionError("a Plucker block was built")

    monkeypatch.setattr(_vecgf, "plucker_blocks", no_blocks)
    code, out, err = run_cli(capsys, "sections", "--k", "3", "--n", "7", "--q", "2",
                             "--exhaustive", "--budget", "1000000")
    assert code == 2
    assert out == "" and err.splitlines() == [
        "refused: estimated work 34359738367 for coordinate sections of G(3,7) "
        "up to size 35 exceeds budget 1000000"]


@pytest.mark.parametrize("command", [("sections",), ("incl-excl",), ("code",)])
def test_plucker_commands_reject_k_out_of_range(capsys, command):
    # k > n used to end in numpy's "need at least one array to concatenate",
    # k = 0 in a one-point answer with exit 0
    for k, n in (("4", "3"), ("0", "3")):
        code, out, err = run_cli(capsys, *command, "--k", k, "--n", n, "--q", "2")
        assert code == 1, (command, k)
        assert out == "" and err.splitlines() == [
            f"error: need 1 <= k <= n, got k={k}, n={n}"], (command, k)


@pytest.mark.parametrize("command", [("sections", "--max-r", "2"), ("incl-excl",)])
def test_plucker_commands_refuse_past_64_coordinates(capsys, monkeypatch, command):
    # G(4,8) has 70 coordinates: int64 masks dropped positions 64..69 and
    # read position 63 as the sign bit, so sections printed wrong norms
    def no_blocks(*args, **kwargs):
        raise AssertionError("a Plucker block was built")

    monkeypatch.setattr(_vecgf, "plucker_blocks", no_blocks)
    code, out, err = run_cli(capsys, *command, "--k", "4", "--n", "8", "--q", "2")
    assert code == 1
    assert out == "" and err.splitlines() == [
        "error: support masks hold 64 coordinates, G(4,8) has 70"]


def test_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--k", "2", "--n", "4", "--q", "3", "--format", "table"
    )
    assert code == 0
    assert "gamma: 8" in out
    assert "gamma_tilde: 1" in out


def test_verify_quick_fields(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "fields", "--scale", "quick")
    assert code == 0
    assert "OK" in out
    assert "[FAIL]" not in out


def test_verify_rejects_unread_options(capsys):
    # verify prints its own report and each entry sets its own worker count:
    # it has no --format, --seed, --output, --budget or --threads to ignore
    for option in (["--format", "csv"], ["--seed", "3"], ["--output", "x.json"],
                   ["--budget", "10"], ["--threads", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "fields", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_option_is_gone(capsys):
    # nothing read a global --seed; sampled spectra carry their own seed
    with pytest.raises(SystemExit) as exc:
        main(["count", "--k", "2", "--n", "4", "--q", "3", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_output_file_omits_elapsed(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, out, _ = run_cli(
        capsys, "count", "--k", "2", "--n", "4", "--q", "3",
        "--output", str(target),
    )
    assert code == 0
    assert "elapsed_ms" in json.loads(out)
    saved = json.loads(target.read_text())
    assert "elapsed_ms" not in saved
    assert saved["gamma"] == "8"


def test_output_file_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        run_cli(
            capsys, "count", "--k", "2", "--n", "5", "--q", "2",
            "--threads", "2", "--output", str(path),
        )
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, _, err = run_cli(
            capsys, "count", "--k", "2", "--n", "4", "--q", "5",
            "--output", str(target),
        )
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in err


def test_threads_do_not_change_results(capsys):
    outputs = []
    for t in ("1", "4"):
        _, out, _ = run_cli(
            capsys, "count", "--k", "2", "--n", "5", "--q", "3", "--threads", t
        )
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        outputs.append(payload)
    assert outputs[0] == outputs[1]


def test_threads_below_one_rejected(capsys):
    for t in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "count", "--k", "2", "--n", "4", "--q", "3", "--threads", t
        )
        assert code == 1
        assert out == "" and "--threads must be at least 1" in err


def test_verify_reports_failing_entries_and_runs_the_rest(monkeypatch, capsys):
    def claim_fails():
        verify._require(False, "planted failure")

    def library_raises():
        raise OutOfRange("planted error")

    planted = [
        verify.Check("fields", "planted-claim", "a claim that does not hold",
                     "quick", claim_fails),
        verify.Check("fields", "planted-error", "a check whose library call "
                     "raises", "quick", library_raises),
    ]
    monkeypatch.setattr(verify, "REGISTRY", [planted[0], *verify.REGISTRY, planted[1]])
    code, out, _ = run_cli(capsys, "verify", "--suite", "fields")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("[FAIL] fields/planted-claim (")
    assert lines[0].endswith("[planted failure]")
    assert lines[-2].startswith("[FAIL] fields/planted-error (")
    assert lines[-2].endswith("[OutOfRange: planted error]")
    assert sum(line.startswith("[PASS] fields/") for line in lines) == 11
    assert lines[-1] == "FAILED: 11/13 checks passed"


def test_run_check_fails_an_entry_past_its_budget():
    slow = verify.Check("fields", "slow", "a claim that holds slowly", "quick",
                        lambda: time.sleep(0.01) or "held", 0.001)
    result = verify.run_check(slow)
    assert not result.passed
    assert result.detail == "exceeded its 0.001s budget; held"
    assert result.line().startswith("[FAIL] fields/slow (")
    assert "s / budget 0.001s): a claim that holds slowly" in result.line()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_repeated_main_calls_share_no_state(capsys):
    # one parser serves every call: a value given once must not become the
    # next call's default, and an argparse exit must not poison it
    code, out, _ = run_cli(capsys, "count", "--k", "2", "--n", "4", "--q", "3",
                           "--method", "filter")
    assert code == 0 and json.loads(out)["method"] == "grassmannian-filter"
    code, out, _ = run_cli(capsys, "count", "--k", "2", "--n", "4", "--q", "3")
    assert code == 0 and json.loads(out)["method"] == "matrix-scan"
    with pytest.raises(SystemExit) as exc:
        main(["count", "--k", "2", "--n", "4"])
    assert exc.value.code == 2
    assert "--q" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "count", "--k", "2", "--n", "4", "--q", "3")
    assert code == 0 and json.loads(out)["gamma"] == "8"


def test_verify_suite_choices_match_registry():
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    suite = next(a for a in subcommands["verify"]._actions if a.dest == "suite")
    assert set(suite.choices) == {*verify.SUITES, "all"}
    assert len({c.name for c in verify.REGISTRY}) == len(verify.REGISTRY)


@pytest.mark.parametrize("raised, code, message", [
    (BrokenProcessPool("boom"), 3, "error: a worker process died"),
    (KeyboardInterrupt(), 130, "interrupted"),
])
def test_worker_death_and_interrupt_exit_codes(monkeypatch, capsys, raised, code,
                                               message):
    def handler(config):
        raise raised

    monkeypatch.setitem(cli._HANDLERS, "count", handler)
    got, out, err = run_cli(capsys, "count", "--k", "2", "--n", "4", "--q", "3")
    assert got == code
    assert out == "" and err == message + "\n"
