"""Command-line front end.

Subcommands: analyze, mstd, zoo, random, verify. Channel documents are
single JSON objects read from a file path or standard input ("-"); all
results go to standard output as JSON (default) or a plain table, with
diagnostics on standard error.

Exit codes: 0 success, 1 internal numeric failure, 2 parse/parameter
error, 3 CPTP validation failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import documents, oracle, zoo
from .channels import CptpReport, _cptp_report, random_channel
from .documents import (
    DocumentError,
    ParsedChannel,
    dumps,
    kraus_document,
    parse_channel_document,
)
from .inverter import _solve
from .metrics import MC_MIN_SAMPLES, mstd_analytic, mstd_monte_carlo, mstd_surface_analytic
from .numerics import ConvergenceError, RngStream
from .oracle import BRUTE_FORCE_MIN_SAMPLES

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_PARSE = 2
EXIT_CPTP = 3
EXIT_VERIFY = 4


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        _emit_error("parse", str(exc))
        return EXIT_PARSE
    except ConvergenceError as exc:
        _emit_error("numeric", str(exc))
        return EXIT_NUMERIC
    except BrokenPipeError:
        return EXIT_OK


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasinv",
        description="Unitary quasi-inverses of single-qubit channels "
        "by mean-square trace-distance maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full pipeline: validate, MSTD, quasi-inverse")
    p_analyze.add_argument("path", help="channel document file, or - for stdin")
    _add_format(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_mstd = sub.add_parser("mstd", help="mean square trace distance of a channel")
    p_mstd.add_argument("path", help="channel document file, or - for stdin")
    p_mstd.add_argument("--monte-carlo", type=int, metavar="N", default=None,
                        help="estimate from N samples instead of the closed form")
    p_mstd.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_mstd.add_argument("--surface", action="store_true",
                        help="average over the ball surface (pure states) instead of the ball")
    _add_format(p_mstd)
    p_mstd.set_defaults(func=cmd_mstd)

    p_zoo = sub.add_parser("zoo", help="emit a named channel family as a kraus document")
    p_zoo.add_argument("family", choices=sorted(zoo.FAMILIES))
    usage = (f"{family.name}: {' '.join(family.arg_names)}" for family in zoo.FAMILY_TABLE)
    p_zoo.add_argument("params", type=float, nargs="+", help=" | ".join(usage))
    p_zoo.add_argument("--label", default=None, help="override the document label")
    p_zoo.set_defaults(func=cmd_zoo)

    p_random = sub.add_parser("random", help="stream reproducible random CPTP channels")
    p_random.add_argument("--count", type=int, default=1, metavar="N")
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--kraus", type=int, default=4, metavar="K",
                          help="number of Kraus operators, 1..4 (default 4)")
    p_random.set_defaults(func=cmd_random)

    p_verify = sub.add_parser("verify", help="brute-force check of the solver result")
    p_verify.add_argument("path", help="channel document file, or - for stdin")
    p_verify.add_argument("--samples", type=int, default=100_000, metavar="N")
    p_verify.add_argument("--seed", type=int, default=0)
    _add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _add_format(sub_parser) -> None:
    sub_parser.add_argument("--format", choices=("json", "table"), default="json")


def _emit_error(code: str, message: str) -> None:
    try:
        print(dumps({"error": {"code": code, "message": message}}, indent=2))
    except BrokenPipeError:
        pass
    print(f"error: {message}", file=sys.stderr)


def _read_document(path: str) -> ParsedChannel:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return parse_channel_document(obj)


def _cptp_json(report: CptpReport) -> dict:
    return {
        "tp_exact": report.tp_exact,
        "tp_residual": report.tp_residual,
        "min_choi_eigenvalue": report.min_choi_eigenvalue,
        "passed": report.passed,
    }


def _affine_json(e) -> dict:
    return {"m": e.m.tolist(), "c": e.c.tolist()}


def _validated(parsed: ParsedChannel, fmt: str) -> dict | None:
    """Input, affine form and CPTP report of a channel, as a document.

    For a channel that fails the check, prints that document, reports the
    failure on stderr and returns None.
    """
    # parsed.affine is already the affine form of parsed.kraus: check it once
    residual = None if parsed.kraus is None else parsed.kraus.residual
    report = _cptp_report(parsed.affine, residual)
    doc = {"input": parsed.doc, "affine": _affine_json(parsed.affine), "cptp": _cptp_json(report)}
    if report.passed:
        return doc
    _print_doc(doc, fmt)
    print("error: channel failed the CPTP check", file=sys.stderr)
    return None


def cmd_analyze(args) -> int:
    parsed = _read_document(args.path)
    doc = _validated(parsed, args.format)
    if doc is None:
        return EXIT_CPTP
    result, qf = _solve(parsed.affine)
    doc.update(
        {
            "mstd_before": result.mstd_before,
            "q_matrix": documents.real_matrix_to_json(qf.q),
            "lambda_max": result.lambda_max,
            "quasi_inverse": {
                "x": result.x.tolist(),
                "matrix": documents.complex_matrix_to_json(result.unitary),
            },
            "delta_mstd": result.delta_mstd,
            "mstd_after": result.mstd_after,
            "trivial": result.trivial,
            "degenerate": result.degenerate,
        }
    )
    _print_doc(doc, args.format)
    return EXIT_OK


def cmd_mstd(args) -> int:
    if args.monte_carlo is not None and args.monte_carlo < MC_MIN_SAMPLES:
        raise DocumentError(
            f"--monte-carlo must be at least {MC_MIN_SAMPLES}, got {args.monte_carlo}"
        )
    parsed = _read_document(args.path)
    if _validated(parsed, args.format) is None:
        return EXIT_CPTP
    if args.monte_carlo is not None:
        region = "surface" if args.surface else "ball"
        mstd = mstd_monte_carlo(parsed.affine, args.monte_carlo, RngStream(args.seed), region)
    elif args.surface:
        mstd = mstd_surface_analytic(parsed.affine)
    else:
        mstd = mstd_analytic(parsed.affine)
    doc = {
        "input": parsed.doc,
        "mstd": {
            "value": mstd.value,
            "method": mstd.method,
            "stderr": mstd.stderr,
            "n_samples": mstd.n_samples,
        },
    }
    _print_doc(doc, args.format)
    return EXIT_OK


def cmd_zoo(args) -> int:
    try:
        kraus, _ = zoo.make(zoo.spec_from_values(args.family, args.params))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    label = args.label
    if label is None:
        rendered = ", ".join(f"{p:g}" for p in args.params)
        label = f"{args.family}({rendered})"
    print(dumps(kraus_document(kraus, label), indent=2))
    return EXIT_OK


def cmd_random(args) -> int:
    if args.count < 1:
        raise DocumentError(f"--count must be at least 1, got {args.count}")
    if not 1 <= args.kraus <= 4:
        raise DocumentError(f"--kraus must be in 1..4, got {args.kraus}")
    rng = RngStream(args.seed)
    for index in range(args.count):
        channel = random_channel(rng, args.kraus)
        label = f"random(seed={args.seed}, index={index}, kraus={args.kraus})"
        print(dumps(kraus_document(channel, label)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < BRUTE_FORCE_MIN_SAMPLES:
        raise DocumentError(
            f"--samples must be at least {BRUTE_FORCE_MIN_SAMPLES}, got {args.samples}"
        )
    parsed = _read_document(args.path)
    if _validated(parsed, args.format) is None:
        return EXIT_CPTP
    result, _ = _solve(parsed.affine)
    verification = oracle.verify(
        parsed.affine,
        result,
        args.samples,
        RngStream(args.seed),
        channel_id=parsed.label,
    )
    doc = {
        "input": parsed.doc,
        "verification": {
            "channel_id": verification.channel_id,
            "solver_delta": verification.solver_delta,
            "best_sampled_delta": verification.best_sampled_delta,
            "n_samples": verification.n_samples,
            "max_violation": verification.max_violation,
            "passed": verification.passed,
        },
    }
    _print_doc(doc, args.format)
    return EXIT_OK if verification.passed else EXIT_VERIFY


def _print_doc(doc: dict, fmt: str) -> None:
    if fmt == "table":
        print(_as_table(doc))
    else:
        print(dumps(doc, indent=2))


def _as_table(doc: dict, prefix: str = "") -> str:
    lines = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.append(_as_table(value, prefix=name + "."))
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{name}:")
            for row in value:
                lines.append("    " + "  ".join(_cell(x) for x in row))
        else:
            lines.append(f"{name}: {_cell(value)}")
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:+.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(_cell(v) for v in value) + "]"
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
