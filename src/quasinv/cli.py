"""Command-line front end.

Subcommands: analyze, mstd, zoo, random, verify. Channel documents are
single JSON objects read from a file path or standard input ("-"); all
results go to standard output as JSON (default) or a plain table, with
diagnostics on standard error.

Exit codes: 0 success, 1 internal numeric failure or output that could
not be written, 2 parse/parameter error, 3 CPTP validation failure,
4 verification failure. Every byte, help and usage text included, goes
out through ``_write``, which never raises: a closed pipe keeps the
code, any other refused stdout write or flush gives one ``error:`` line
and exit 1, and a refused stderr write is dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import documents, zoo
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
from .numerics import ConvergenceError

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_OUTPUT = 1  # the output could not be written
EXIT_PARSE = 2
EXIT_CPTP = 3
EXIT_VERIFY = 4


def main(argv=None) -> int:
    global _refused
    _refused = None
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return _exit_code(args.func(args))
    except DocumentError as exc:
        code, kind, message = EXIT_PARSE, "parse", str(exc)
    except ConvergenceError as exc:
        code, kind, message = EXIT_NUMERIC, "numeric", str(exc)
    except RecursionError:  # json.loads of the input, or the echo of its input field in dumps or a table
        code, kind, message = EXIT_PARSE, "parse", "document is nested too deeply"
    _report_failure({"error": {"code": kind, "message": message}}, "json", message)
    return _exit_code(code)


def run() -> None:
    """Program entry of the ``quasinv`` command and of ``python -m quasinv.cli``: ends the process with ``main()``'s code.

    Once ``main`` returns, or argparse exits after help or a usage error,
    stdout and stderr are flushed and ``os._exit`` ends the process at
    once with that code: the interpreter's teardown, with its collections
    over the ~21,000 objects NumPy and quasinv leave tracked, would only
    free memory the exit frees anyway. Help, usage and every other write
    follow ``_write``'s rules; a refused stdout flush ends as a refused
    write unless one was refused already, and a refused stderr flush is
    dropped. ``main(argv)`` itself never exits but through argparse, so a
    test, a service or a benchmark can call it in its own process.
    """
    global _refused
    try:
        code = main()
    except SystemExit as exc:  # argparse's exit: 0 after help, 2 after a usage error
        code = _exit_code(exc.code)
    try:
        sys.stdout.flush()
    except OSError as exc:
        if _refused is None:  # else a refused write left this in the buffer and is reported already
            _refused = exc
            code = _exit_code(code)
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


# the first OSError of a stdout write in the current call of main; None while stdout takes every write
_refused = None


def _write(text: str, file=None) -> None:
    """Write ``text`` to ``file``, stdout if None, and never raise: the one writer of every byte the CLI emits.

    The first OSError of a stdout write is kept in ``_refused`` for
    ``_exit_code``, and stdout gets nothing more until ``main`` starts
    again. A refused stderr write is dropped. Both streams are looked up at
    call time.
    """
    global _refused
    if file is not None and file is not sys.stdout:
        with contextlib.suppress(OSError):
            file.write(text)
    elif _refused is None:
        try:
            sys.stdout.write(text)
        except OSError as exc:
            _refused = exc


def _exit_code(code: int) -> int:
    """``code``, or EXIT_OUTPUT with one ``error:`` line if stdout refused a write other than to a closed pipe."""
    if _refused is None or isinstance(_refused, BrokenPipeError):
        return code
    _write(f"error: cannot write the output: {_refused.strerror or _refused}\n", sys.stderr)
    return EXIT_OUTPUT


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage text go through ``_write``, as every other byte does."""

    def _print_message(self, message, file=None):
        _write(message, file or sys.stderr)


def _parse_args(argv: list) -> argparse.Namespace:
    """The parsed command line, as a Namespace of its own; each distinct argv is parsed once per process.

    The last ``_PARSED_MAX`` successful parses are kept: a repeated argv
    gets a fresh copy of its Namespace (its lists copied too), so a caller
    that changes one changes no later call's. Help, usage errors and their
    exit raise SystemExit, which is never kept, so they repeat on every
    call.
    """
    args = _parse(tuple(argv))
    return argparse.Namespace(**{k: v[:] if type(v) is list else v for k, v in vars(args).items()})


# command lines whose parse _parse_args keeps; a warm caller repeats a few, a one-shot process has one
_PARSED_MAX = 64


@functools.lru_cache(maxsize=_PARSED_MAX)
def _parse(argv: tuple) -> argparse.Namespace:
    """The parsed command line; a named subcommand goes through its own parser only.

    Anything that parser leaves over, and any argv not led by a subcommand
    name, is parsed again by the full parser, so every help text, usage
    line, error message and exit code is argparse's own.
    """
    if argv and argv[0] in _COMMANDS:
        args, extras = _parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return _parser().parse_args(argv)


@functools.lru_cache(maxsize=None)
def _parser(name: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with a subcommand's name that subcommand's own; each is built once per process.

    Both apply the builders of ``_COMMANDS``: the full parser each one to
    its ``add_parser``, a subcommand's own parser one of them to a parser
    named as ``add_parser`` would name it.
    """
    if name is not None:
        parser = _Parser(prog=f"quasinv {name}")
        _COMMANDS[name][1](parser)
        return parser
    parser = _Parser(
        prog="quasinv",
        description="Unitary quasi-inverses of single-qubit channels "
        "by mean-square trace-distance maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, build) in _COMMANDS.items():
        build(sub.add_parser(command, help=help_text))
    return parser


def _analyze_args(p) -> None:
    p.add_argument("path", help="channel document file, or - for stdin")
    _add_format(p)
    p.set_defaults(func=cmd_analyze)


def _mstd_args(p) -> None:
    p.add_argument("path", help="channel document file, or - for stdin")
    p.add_argument("--monte-carlo", type=int, metavar="N", default=None,
                   help="estimate from N samples instead of the closed form")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--surface", action="store_true",
                   help="average over the ball surface (pure states) instead of the ball")
    _add_format(p)
    p.set_defaults(func=cmd_mstd)


def _zoo_args(p) -> None:
    p.add_argument("family", choices=sorted(zoo.FAMILIES))
    usage = (f"{family.name}: {' '.join(family.arg_names)}" for family in zoo.FAMILY_TABLE)
    p.add_argument("params", type=float, nargs="+", help=" | ".join(usage))
    p.add_argument("--label", default=None, help="override the document label")
    p.set_defaults(func=cmd_zoo)


def _random_args(p) -> None:
    p.add_argument("--count", type=int, default=1, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kraus", type=int, default=4, metavar="K",
                   help="number of Kraus operators, 1..4 (default 4)")
    p.set_defaults(func=cmd_random)


def _verify_args(p) -> None:
    p.add_argument("path", help="channel document file, or - for stdin")
    p.add_argument("--samples", type=int, default=100_000, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=cmd_verify)


# each subcommand's help line and argument builder, in the order the full parser lists them
_COMMANDS = {
    "analyze": ("full pipeline: validate, MSTD, quasi-inverse", _analyze_args),
    "mstd": ("mean square trace distance of a channel", _mstd_args),
    "zoo": ("emit a named channel family as a kraus document", _zoo_args),
    "random": ("stream reproducible random CPTP channels", _random_args),
    "verify": ("brute-force check of the solver result", _verify_args),
}


def _add_format(sub_parser) -> None:
    sub_parser.add_argument("--format", choices=("json", "table"), default="json")


def _report_failure(doc: dict, fmt: str, message: str) -> None:
    """Print a failed command's document to stdout, then ``error: message`` to stderr."""
    _print_doc(doc, fmt)
    _write(f"error: {message}\n", sys.stderr)


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
    _report_failure(doc, fmt, "channel failed the CPTP check")
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
        from .sampling import RngStream  # the sampling commands alone load the generator

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
    _write(dumps(kraus_document(kraus, label), indent=2) + "\n")
    return EXIT_OK


def cmd_random(args) -> int:
    from .sampling import RngStream

    if args.count < 1:
        raise DocumentError(f"--count must be at least 1, got {args.count}")
    _check_range("--kraus", args.kraus, 1, 4)
    rng = RngStream(args.seed)
    for index in range(args.count):
        if _refused is not None:  # stdout takes no more: the rest would be lost
            break
        channel = random_channel(rng, args.kraus)
        label = f"random(seed={args.seed}, index={index}, kraus={args.kraus})"
        _write(dumps(kraus_document(channel, label)) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle
    from .sampling import RngStream

    _check_range("--samples", args.samples, oracle.BRUTE_FORCE_MIN_SAMPLES, oracle.BRUTE_FORCE_MAX_SAMPLES)
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
    _write((_as_table(doc) if fmt == "table" else dumps(doc, indent=2)) + "\n")


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
