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
import gc
import json
import os
import sys

from . import documents, oracle, zoo
from .channels import _cptp_report, random_channel
from .documents import (
    DocumentError,
    ParsedChannel,
    dumps,
    kraus_document,
    parse_channel_document,
)
from .inverter import _solve
from .metrics import MC_MAX_SAMPLES, MC_MIN_SAMPLES, mstd_analytic, mstd_monte_carlo, mstd_surface_analytic
from .numerics import ConvergenceError, RngStream
from .oracle import BRUTE_FORCE_MAX_SAMPLES, BRUTE_FORCE_MIN_SAMPLES

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_PARSE = 2
EXIT_CPTP = 3
EXIT_VERIFY = 4


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except DocumentError as exc:
        _emit_error("parse", str(exc))
        return EXIT_PARSE
    except ConvergenceError as exc:
        _emit_error("numeric", str(exc))
        return EXIT_NUMERIC
    except RecursionError:
        # json.loads of the input, or the echo of its input field in dumps or a table
        _emit_error("parse", "document is nested too deeply")
        return EXIT_PARSE
    except BrokenPipeError:
        return EXIT_OK


def run() -> None:
    """Program entry of the ``quasinv`` command and of ``python -m quasinv.cli``: exits with ``main()``'s code.

    Everything imported by now (numpy and quasinv, some 21,000 objects the
    collector tracks) lives until exit, so it is frozen first: no collection
    walks it again, those at interpreter shutdown included. ``main`` leaves
    the collector alone for callers in their own process.
    """
    gc.freeze()
    sys.exit(main())


def _parse_args(argv: list) -> argparse.Namespace:
    """The parsed command line; a named subcommand goes through its own parser only.

    Anything that parser leaves over, and any argv not led by a subcommand
    name, is parsed again by the full parser, so every help text, usage
    line, error message and exit code is argparse's own.
    """
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The full parser, and each subcommand's own parser by name."""
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
    return parser, sub.choices


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
        text.encode("utf-8")  # stdin may carry undecodable bytes as lone surrogates
    except (OSError, UnicodeError) as exc:
        raise DocumentError(f"cannot read {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past int's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return parse_channel_document(obj)


def _validated(parsed: ParsedChannel, fmt: str) -> dict | None:
    """Input, affine form and CPTP report of a channel, as a document.

    For a channel that fails the check, prints that document, reports the
    failure on stderr and returns None.
    """
    # parsed.affine is already the affine form of parsed.kraus: check it once
    residual = None if parsed.kraus is None else parsed.kraus.residual
    report = _cptp_report(parsed.affine, residual)
    doc = documents.validated_document(parsed, report)
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
    doc.update(documents.solver_fields(*_solve(parsed.affine)))
    _print_doc(doc, args.format)
    return EXIT_OK


def cmd_mstd(args) -> int:
    if args.monte_carlo is not None:
        _check_range("--monte-carlo", args.monte_carlo, MC_MIN_SAMPLES, MC_MAX_SAMPLES)
    parsed = _read_document(args.path)
    if _validated(parsed, args.format) is None:
        return EXIT_CPTP
    if args.monte_carlo is not None:
        region = "surface" if args.surface else "ball"
        mstd = mstd_monte_carlo(
            parsed.affine, args.monte_carlo, RngStream(args.seed), region, workers=_cpus()
        )
    elif args.surface:
        mstd = mstd_surface_analytic(parsed.affine)
    else:
        mstd = mstd_analytic(parsed.affine)
    _print_doc(documents.report_document(parsed, "mstd", mstd), args.format)
    return EXIT_OK


def cmd_zoo(args) -> int:
    try:
        kraus = zoo.channel(zoo.spec_from_values(args.family, args.params))
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
    _check_range("--kraus", args.kraus, 1, 4)
    rng = RngStream(args.seed)
    for index in range(args.count):
        channel = random_channel(rng, args.kraus)
        label = f"random(seed={args.seed}, index={index}, kraus={args.kraus})"
        print(dumps(kraus_document(channel, label)))
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_range("--samples", args.samples, BRUTE_FORCE_MIN_SAMPLES, BRUTE_FORCE_MAX_SAMPLES)
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
        workers=_cpus(),
    )
    _print_doc(documents.report_document(parsed, "verification", verification), args.format)
    return EXIT_OK if verification.passed else EXIT_VERIFY


def _check_range(option: str, value: int, low: int, high: int) -> None:
    """Refuse an option value outside low..high as a parse error."""
    if not low <= value <= high:
        raise DocumentError(f"{option} must be in {low}..{high}, got {value}")


def _cpus() -> int:
    """Worker threads for the sampling commands: every CPU this process may run on.

    The output does not depend on this count, only the wall time does.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        elif isinstance(value, list) and value and all(isinstance(row, list) for row in value):
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
    run()
