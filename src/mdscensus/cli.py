"""Command-line front end.

Every command prints structured output (json, csv, or an aligned table) with
big integers rendered as decimal strings, and maps failures to exit codes:
0 success, 1 invalid input or failed verification, 2 budget refusal, 3 a
worker process died, 130 interrupted.
"""

import argparse
import functools
import json
import sys
from concurrent.futures.process import BrokenProcessPool

from .budget import effective_budget
from .errors import BudgetExceeded, MdsError, OutOfRange
from .fields import factor_prime_power, field_of_order
from .linalg import gaussian_binomial

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_WORKER_DIED = 3
EXIT_INTERRUPTED = 130


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _stringify(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        # decimal strings keep 64-bit-plus counts safe in downstream tooling
        return str(value) if abs(value) >= 2**53 else value
    return value


def _render_json(payload):
    def clean(obj):
        if isinstance(obj, dict):
            return {str(k): clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return _stringify(obj)

    return json.dumps(clean(payload), indent=2)


def _render_csv(payload):
    rows = payload.get("rows")
    lines = []
    if rows:
        header = list(rows[0].keys())
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(str(row[h]) for h in header))
    else:
        scalars = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
        lines.append(",".join(scalars.keys()))
        lines.append(",".join(str(v) for v in scalars.values()))
    return "\n".join(lines)


def _render_table(payload):
    lines = []
    for key, value in payload.items():
        if key == "rows":
            continue
        lines.append(f"{key}: {value}")
    rows = payload.get("rows")
    if rows:
        header = list(rows[0].keys())
        widths = [
            max(len(h), *(len(str(r[h])) for r in rows)) for h in header
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append(
                "  ".join(str(row[h]).ljust(w) for h, w in zip(header, widths))
            )
    return "\n".join(lines)


def _emit(payload, args):
    renderers = {"json": _render_json, "csv": _render_csv, "table": _render_table}
    if args.fmt not in renderers:
        raise MdsError(f"unknown format {args.fmt!r}")
    text = renderers[args.fmt](payload)
    print(text)
    if args.output:
        # files omit wall-clock fields so identical configs write identical bytes
        canonical = {k: v for k, v in payload.items() if k != "elapsed_ms"}
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(renderers[args.fmt](canonical) + "\n")
        except OSError as exc:
            raise MdsError(f"cannot write {args.output}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_count(args):
    from .census import count_mds

    gf = field_of_order(args.q)
    res = count_mds(args.k, args.n, gf, method=args.method,
                    threads=args.threads, budget=args.budget)
    return {
        "k": res.k,
        "n": res.n,
        "q": res.q,
        "gamma": str(res.gamma),
        "gamma_tilde": str(res.gamma_tilde),
        "method": res.method,
        "elapsed_ms": int(res.elapsed * 1000),
    }


def _cmd_grassmann_count(args):
    factor_prime_power(args.q)
    return {
        "k": args.k,
        "n": args.n,
        "q": args.q,
        "count": str(gaussian_binomial(args.k, args.n, args.q)),
    }


def _cmd_sections(args):
    from .exterior import multi_indices
    from .sections import coordinate_section_rows

    gf = field_of_order(args.q)
    indices = multi_indices(args.k, args.n)
    max_r = len(indices) if args.exhaustive else args.max_r
    if max_r < 1:
        raise OutOfRange(f"--max-r must be at least 1, got {max_r}")
    rows = []
    for r, mask, norm, in_g in coordinate_section_rows(
        gf, args.k, args.n, max_r, budget=args.budget
    ):
        names = ";".join(
            ".".join(str(i) for i in indices[pos])
            for pos in range(len(indices))
            if mask >> pos & 1
        )
        rows.append(
            {"r": r, "subset_id": mask, "indices": names,
             "norm": str(norm), "ann_in_grassmannian": int(in_g)}
        )
    return {"k": args.k, "n": args.n, "q": args.q, "rows": rows}


def _cmd_incl_excl(args):
    from .sections import inclusion_exclusion

    gf = field_of_order(args.q)
    rep = inclusion_exclusion(args.k, args.n, gf, budget=args.budget)
    payload = {
        "k": rep.k,
        "n": rep.n,
        "q": rep.q,
        "gamma_reconstructed": str(rep.gamma_reconstructed),
        "e_terms": [str(e) for e in rep.e_terms],
        "c1_by_r": {str(r): v for r, v in rep.c1_by_r.items()},
        "c2_by_r": {str(r): v for r, v in rep.c2_by_r.items()},
    }
    if args.verify_against_census:
        from .census import count_mds_matrix_scan

        gamma = count_mds_matrix_scan(args.k, args.n, gf,
                                      threads=args.threads,
                                      budget=args.budget).gamma
        payload["census_gamma"] = str(gamma)
        payload["match"] = rep.gamma_reconstructed == gamma
    return payload


def _cmd_asympt(args):
    from .asymptotics import convergence, params

    p = params(args.k, args.n)
    payload = {
        "k": p.k,
        "n": p.n,
        "delta": p.delta,
        "num_coordinates": p.big_n,
        "a2": str(p.a2),
        "b1": str(p.b1),
        "b2": str(p.b2),
    }
    if args.q_list:
        rep = convergence(args.k, args.n, args.q_list, threads=args.threads,
                          budget=args.budget)
        payload["verdict"] = rep.verdict()
        payload["max_normalized_residual"] = str(rep.max_normalized)
        payload["rows"] = [
            {
                "q": row.q,
                "gamma": str(row.gamma_exact),
                "predicted": str(row.predicted),
                "residual": str(row.residual),
                "normalized_residual": str(row.normalized),
            }
            for row in rep.rows
        ]
    return payload


def _cmd_code(args):
    from .grassmann_code import build_code, higher_weight_search, weight_spectrum

    gf = field_of_order(args.q)
    code = build_code(args.k, args.n, gf, budget=args.budget)
    payload = {
        "k": args.k,
        "n": args.n,
        "q": args.q,
        "length": str(code.length),
        "dimension": code.dimension,
    }
    spectrum_arg = args.spectrum
    if spectrum_arg:
        if spectrum_arg == "exhaustive":
            spec = weight_spectrum(code, mode="exhaustive", budget=args.budget)
        else:
            parts = spectrum_arg.split(":")
            if len(parts) != 3 or parts[0] != "sample":
                raise MdsError(
                    f"spectrum must be 'exhaustive' or 'sample:COUNT:SEED', "
                    f"got {spectrum_arg!r}"
                )
            spec = weight_spectrum(code, mode="sample", sample_count=int(parts[1]),
                                   seed=int(parts[2]), budget=args.budget)
        payload["rows"] = [
            {"weight": str(w), "multiplicity": str(m)}
            for w, m in sorted(spec.items())
        ]
    if args.dr is not None:
        value = higher_weight_search(code, args.dr, mode=args.dr_mode,
                                     budget=args.budget)
        payload["r"] = args.dr
        payload["d_r"] = str(value)
        payload["search_mode"] = args.dr_mode
    return payload


def _cmd_weight(args):
    from .exterior import DualForm, form_weight

    gf = field_of_order(args.q)
    try:
        terms = json.loads(args.form)
        parsed = [(tuple(t["index"]), t["coeff"]) for t in terms]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise MdsError(f"malformed form description: {exc}") from exc
    for _, coeff in parsed:
        # JSON true and false load as bool, a subclass of int
        if type(coeff) is not int:
            raise MdsError(f"malformed form description: coefficient "
                           f"{json.dumps(coeff)} is not an integer")
    omega = DualForm.from_terms(gf, args.k, args.n, parsed)
    method = args.method
    payload = {"k": args.k, "n": args.n, "q": args.q}
    if method in ("direct", "both"):
        payload["weight_direct"] = str(form_weight(omega, "direct", budget=args.budget))
    if method in ("recursive", "both"):
        payload["weight_recursive"] = str(
            form_weight(omega, "recursive", budget=args.budget)
        )
    if method == "both" and payload["weight_direct"] != payload["weight_recursive"]:
        raise MdsError("direct and recursive weights disagree; this is a bug")
    return payload


def _cmd_verify(args):
    from .verify import run_check, select

    entries = select(args.suite, args.scale)
    passed = 0
    for entry in entries:
        result = run_check(entry)
        passed += result.passed
        print(result.line(), flush=True)
    all_ok = passed == len(entries)
    print(f"{'OK' if all_ok else 'FAILED'}: {passed}/{len(entries)} checks passed")
    return EXIT_OK if all_ok else EXIT_INVALID


_HANDLERS = {
    "count": _cmd_count,
    "grassmann-count": _cmd_grassmann_count,
    "sections": _cmd_sections,
    "incl-excl": _cmd_incl_excl,
    "asympt": _cmd_asympt,
    "code": _cmd_code,
    "weight": _cmd_weight,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, *, needs_q=True):
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    if needs_q:
        sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--format", dest="fmt", choices=("json", "csv", "table"),
                     default="json")
    sub.add_argument("--output", default=None)


@functools.cache
def build_parser():
    """The mds parser, built once per process: main parses every call with
    it, and argparse keeps no state between parse_args calls."""
    parser = argparse.ArgumentParser(
        prog="mds",
        description="Exact censuses of MDS codes and Grassmannian sections "
                    "over small finite fields",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="census of [n,k] MDS codes over GF(q)")
    _add_common(p)
    p.add_argument("--method", choices=("scan", "filter", "both"), default="scan")

    p = subs.add_parser("grassmann-count", help="number of k-subspaces of GF(q)^n")
    _add_common(p)

    p = subs.add_parser("sections", help="norms of coordinate sections")
    _add_common(p)
    p.add_argument("--max-r", type=int, default=2)
    p.add_argument("--exhaustive", action="store_true")

    p = subs.add_parser("incl-excl", help="inclusion-exclusion reconstruction")
    _add_common(p)
    p.add_argument("--verify-against-census", action="store_true")

    p = subs.add_parser("asympt", help="expansion coefficients and residual sweeps")
    _add_common(p, needs_q=False)
    p.add_argument("--q-list", default=None,
                   help="comma-separated prime powers for the residual sweep")

    p = subs.add_parser("code", help="the Plucker evaluation code")
    _add_common(p)
    p.add_argument("--spectrum", default=None,
                   help="'exhaustive' or 'sample:COUNT:SEED'")
    p.add_argument("--dr", type=int, default=None,
                   help="report the r-th generalized weight")
    p.add_argument("--dr-mode", choices=("exhaustive", "structured"),
                   default="structured")

    p = subs.add_parser("weight", help="weight of one k-form")
    _add_common(p)
    p.add_argument("--form", required=True,
                   help='JSON list like [{"index":[1,2],"coeff":1}]')
    p.add_argument("--method", choices=("direct", "recursive", "both"),
                   default="both")

    p = subs.add_parser("verify", help="run the check registry")
    p.add_argument("--suite",
                   choices=("fields", "plucker", "weights", "sections",
                            "asymptotics", "census", "all"),
                   default="all")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")

    return parser


def _check_args(args):
    """Validate --threads, resolve --budget and split --q-list into its
    prime powers, in place on the parsed arguments; an empty list or token
    is refused."""
    # verify has no --threads: each registry entry sets its own worker count
    threads = getattr(args, "threads", 1)
    if threads < 1:
        raise OutOfRange(f"--threads must be at least 1, got {threads}")
    if getattr(args, "budget", None) is not None:
        args.budget = effective_budget(args.budget)
    if getattr(args, "q_list", None) is not None:
        tokens = [tok.strip() for tok in args.q_list.split(",")]
        if not all(tokens):
            raise OutOfRange(
                f"--q-list needs comma-separated prime powers, got {args.q_list!r}")
        args.q_list = [int(tok) for tok in tokens]


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        if args.command == "verify":
            return _cmd_verify(args)
        _emit(_HANDLERS[args.command](args), args)
        return EXIT_OK
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MdsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenProcessPool:
        print("error: a worker process died", file=sys.stderr)
        return EXIT_WORKER_DIED
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
