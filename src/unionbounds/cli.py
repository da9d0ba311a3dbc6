"""Command-line front end.

Subcommands: ``bounds`` evaluates the bound report for a JSON event system,
``generate`` writes a seed-deterministic random system, ``bc`` tabulates the
finite-horizon limsup estimators over a grid, and ``selftest`` runs the
built-in sharpness and sandwich suites.

Exit codes: 0 ok, 1 input error, 2 internal inequality violation.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import Sequence

from ._numeric import Number, is_exact
from .events import EventSystem, build_system, random_system
from .unions import compare_bounds

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VIOLATION = 2

FORMATS = ("table", "json", "csv")
PROFILES = ("dense", "sparse", "disjoint-ish")
MODELS = ("independent", "geometric", "identical", "explicit")


class CliInputError(ValueError):
    """Bad usage or bad input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2)
        raise CliInputError(message)


def parse_number(text: str) -> Number:
    """Exact numeric literal: "2", "1/3" and "0.25" parse to rationals."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"cannot parse number {text!r}") from exc
    return value.numerator if value.denominator == 1 else value


def format_number(value: Number) -> str:
    return f"{float(value):.12g}"


def load_system(path: str) -> EventSystem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if (
        not isinstance(document, dict)
        or "weights" not in document
        or "events" not in document
    ):
        raise CliInputError(
            f"{path}: expected a JSON object with 'weights' and 'events'"
        )
    try:
        return build_system(document["weights"], document["events"])
    except (ValueError, TypeError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def serialize_system(system: EventSystem) -> str:
    """Canonical form: rationals as p/q strings, atoms sorted, one per line."""
    document = {
        "weights": [str(weight) for weight in system.weights],
        "events": [list(event) for event in system.events],
    }
    return json.dumps(document, indent=2) + "\n"


def write_text(path: str | None, text: str) -> None:
    """Write atomically via a unique sibling temp file; '-' or None means stdout.

    On failure the temp file is removed and the target is left as it was. An
    operating-system error, such as a missing directory or a directory as the
    target, is an input error naming the path."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory, name = os.path.split(path)
    try:
        fd, temp = tempfile.mkstemp(
            prefix=f"{name}.", suffix=".tmp", dir=directory or "."
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            # mkstemp creates the file 0600; keep the mode a plain open() gives.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(temp, 0o666 & ~umask)
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}") from exc


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in [list(headers)] + [list(row) for row in rows]
    ]
    return "\n".join(lines) + "\n"


def _float(value: Number, column: str, label: str) -> float:
    """The output's one number conversion: an exact value becomes a float."""
    try:
        return float(value)
    except OverflowError:
        raise CliInputError(f"{column} at {label} is outside the float range") from None


def _cell(value, column: str, label: str) -> str:
    """Table and CSV text of one cell."""
    if value is None or isinstance(value, str):
        return value or ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    return format_number(_float(value, column, label))


def _json(value, key: str = "", label: str = ""):
    """``value`` with every number that is not an integer made a float; an
    object is labelled by its first field in errors."""
    if isinstance(value, dict):
        label = next((f"{k}={v}" for k, v in value.items()), label)
        return {k: _json(v, k, label) for k, v in value.items()}
    if isinstance(value, list):
        return [_json(item, key, label) for item in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    return _float(value, key, label)


def _emit(
    args: argparse.Namespace,
    document: dict,
    columns: Sequence[str],
    sections: Sequence[tuple[str, str, list[tuple]]],
    heading: Sequence[str] = (),
    table_only: Sequence[str] = (),
) -> None:
    """Write one command's result in the format ``args.format`` names.

    JSON writes ``document``. The table writes the ``heading`` lines, then
    each (caption, tag, rows) section under its caption; CSV writes the rows
    of all sections under one header, appends each section's tag to the
    first cell and leaves out the ``table_only`` columns. A value outside
    the float range is an input error that names its column and its row
    (by the row's first cell or field).
    """

    def cells(row: tuple) -> list[str]:
        label = f"{columns[0]}={row[0]}"
        return [_cell(value, column, label) for column, value in zip(columns, row)]

    if args.format == "json":
        text = json.dumps(_json(document), indent=2) + "\n"
    elif args.format == "csv":
        import csv
        kept = [i for i, column in enumerate(columns) if column not in table_only]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([columns[i] for i in kept])
        for _, tag, rows in sections:
            for row in rows:
                line = cells(row)
                line[0] += tag
                writer.writerow([line[i] for i in kept])
        text = buffer.getvalue()
    else:
        blocks = list(heading)
        for caption, _, rows in sections:
            table = _render_table(columns, [cells(row) for row in rows])
            blocks.append(f"\n{caption}\n{table}" if caption else table)
        text = "\n".join(blocks)
    write_text(args.output, text)


# ---------------------------------------------------------------- bounds


def _exponent_pairs(args: argparse.Namespace) -> list[tuple[Number, Number]]:
    a_list = args.a or []
    rho_list = args.rho or []
    if len(a_list) != len(rho_list):
        raise CliInputError("--a and --rho must be given the same number of times")
    if not a_list:
        return [(1, 1)]
    for a, rho in zip(a_list, rho_list):
        if not a > 0 or not rho > 0:
            raise CliInputError("exponent parameters must be positive")
    return list(zip(a_list, rho_list))


def _exact_text(value: Number) -> str | None:
    """Exact text of ``value``; None for a float or past the int-to-str limit."""
    try:
        return str(value) if is_exact(value) else None
    except ValueError:
        return None


_BOUNDS_COLUMNS = ("name", "kind", "value", "clamped", "exact", "pass", "note")


def run_bounds(args: argparse.Namespace) -> int:
    system = load_system(args.input)
    if system.n_events == 0:
        raise CliInputError(f"{args.input}: the system has no events")
    reports = [compare_bounds(system, a, rho) for a, rho in _exponent_pairs(args)]
    exact = reports[0].exact
    text = _exact_text(exact)
    document = {"input": args.input, "exact": text, "exact_float": exact}
    document["sections"], sections = [], []
    for report in reports:
        rows, entries = [], []
        for entry in report.entries:
            value = entry.clamped if args.clamp else entry.value
            row = (entry.name, entry.kind, value, entry.clamped, exact, entry.passed)
            rows.append((*row, entry.error or ""))
            entries.append(dict(zip(_BOUNDS_COLUMNS, row)))
            entries[-1].update(value_exact=_exact_text(entry.value), error=entry.error)
        a, rho = str(report.a), str(report.rho)
        document["sections"].append(
            {"a": a, "rho": rho, "all_pass": report.all_pass, "entries": entries}
        )
        caption = f"a={a} rho={rho}"
        tag = "" if (report.a, report.rho) == (1, 1) else f"[{caption}]"
        sections.append((caption, tag, rows))
    shown = format_number(exact) if text is None else f"{text} ({format_number(exact)})"
    heading = (f"input: {args.input}", f"exact union probability: {shown}")
    _emit(args, document, _BOUNDS_COLUMNS, sections, heading, table_only=("note",))
    return EXIT_OK if all(report.all_pass for report in reports) else EXIT_VIOLATION


# -------------------------------------------------------------- generate


def run_generate(args: argparse.Namespace) -> int:
    try:
        system = random_system(args.seed, args.events, args.atoms, args.profile)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    write_text(args.output, serialize_system(system))
    return EXIT_OK


# -------------------------------------------------------------------- bc


def _build_model(args: argparse.Namespace):
    from .borel_cantelli import ExplicitSequence, IdenticalSequence, IndependentSequence
    probabilities = args.p or []
    if args.model == "explicit":
        if args.input is None:
            raise CliInputError("--model explicit requires --input")
        return ExplicitSequence(load_system(args.input))
    if not probabilities:
        raise CliInputError(f"--model {args.model} requires --p")
    try:
        if args.model == "independent":
            if len(probabilities) == 1:
                return IndependentSequence(probabilities[0])
            return IndependentSequence(probabilities)
        if args.model == "geometric":
            if len(probabilities) != 1:
                raise CliInputError("--model geometric takes exactly one --p")
            ratio = probabilities[0]
            if not 0 <= ratio < 1:
                raise CliInputError("geometric ratio must satisfy 0 <= p < 1")
            return IndependentSequence(lambda k: ratio**k)
        if len(probabilities) != 1:
            raise CliInputError("--model identical takes exactly one --p")
        return IdenticalSequence(probabilities[0])
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


_BC_COLUMNS = (
    "n", "m", "lower", "lower_condition",
    "upper", "upper_window", "upper_condition", "kochen_stone",
)
_BC_ESTIMATORS = ("bc_lower_estimate", "bc_upper_estimate", "kochen_stone_ratio")


def _bind_estimators() -> None:
    """Bind the estimators, imported on first use, as the module globals that
    ``run_bc`` calls; a name already bound (a tracer's setattr wrapper) is kept."""
    from . import borel_cantelli
    for name in _BC_ESTIMATORS:
        globals().setdefault(name, getattr(borel_cantelli, name))


def __getattr__(name: str):
    if name in _BC_ESTIMATORS:
        _bind_estimators()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_bc(args: argparse.Namespace) -> int:
    _bind_estimators()
    model = _build_model(args)
    rows = []
    for n in sorted(set(args.n)):
        try:
            lower = bc_lower_estimate(model, n)
            upper = bc_upper_estimate(model, args.m, n)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
        try:  # the window 1..n is valid, so only alpha_1(n) = 0 raises
            ratio = kochen_stone_ratio(model, n)
        except ValueError:
            ratio = None  # no event can occur among the first n
        rows.append((
            n, args.m, lower.value, lower.condition_value,
            upper.value, upper.window_bound, upper.condition_value, ratio,
        ))
    document = {"model": args.model, "rows": [dict(zip(_BC_COLUMNS, r)) for r in rows]}
    _emit(args, document, _BC_COLUMNS, [("", "", rows)])
    return EXIT_OK


# -------------------------------------------------------------- selftest

S2_WEIGHTS = ("1/4", "1/4", "1/4", "1/4")
S2_EVENTS = ((0, 1), (0, 2))
S3_WEIGHTS = ("1/10", "1/5", "1/4", "3/20", "1/5", "1/10")
S3_EVENTS = ((0, 1, 2), (1, 3), (2, 3, 4))


def reference_system(name: str) -> EventSystem:
    """The two small systems used by the test suites: "s2" is a pair of
    independent fair events on four atoms, "s3" is a three-event system on
    six atoms with union probability 9/10."""
    if name == "s2":
        return build_system(S2_WEIGHTS, S2_EVENTS)
    if name == "s3":
        return build_system(S3_WEIGHTS, S3_EVENTS)
    raise ValueError(f"unknown reference system {name!r}")


def run_selftest(args: argparse.Namespace) -> int:
    for option in ("sharpness", "systems"):
        if getattr(args, option) < 0:
            raise CliInputError(f"--{option} must be non-negative")
    from ._selftest import run_selftest
    return run_selftest(args)


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unionbounds",
        description="Sharp moment bounds for unions of events.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bounds = commands.add_parser(
        "bounds", help="evaluate the bound report for a JSON event system"
    )
    bounds.add_argument("--input", required=True, help="event-system JSON file")
    bounds.add_argument("--output", default=None, help="output file (default stdout)")
    bounds.add_argument("--format", choices=FORMATS, default="table")
    bounds.add_argument(
        "--a",
        action="append",
        type=parse_number,
        help="exponent a; repeat with --rho for extra report sections",
    )
    bounds.add_argument(
        "--rho", action="append", type=parse_number, help="exponent rho"
    )
    bounds.add_argument(
        "--clamp",
        action="store_true",
        help="show values clamped into [0, 1] in the value column",
    )
    bounds.set_defaults(func=run_bounds)

    generate = commands.add_parser(
        "generate", help="write a seed-deterministic random event system"
    )
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--events", type=int, default=3)
    generate.add_argument("--atoms", type=int, default=16)
    generate.add_argument("--profile", choices=PROFILES, default="dense")
    generate.add_argument("--output", default=None)
    generate.set_defaults(func=run_generate)

    bc = commands.add_parser(
        "bc", help="tabulate finite-horizon limsup estimators"
    )
    bc.add_argument("--model", choices=MODELS, required=True)
    bc.add_argument(
        "--p",
        action="append",
        type=parse_number,
        help="event probability; repeat to give a 1-based sequence",
    )
    bc.add_argument("--input", default=None, help="system file for --model explicit")
    bc.add_argument(
        "--n",
        action="append",
        type=int,
        required=True,
        help="horizon; repeat for a grid",
    )
    bc.add_argument("--m", type=int, default=1, help="window start (default 1)")
    bc.add_argument("--format", choices=FORMATS, default="table")
    bc.add_argument("--output", default=None)
    bc.set_defaults(func=run_bc)

    selftest = commands.add_parser(
        "selftest", help="run the built-in sharpness and sandwich suites"
    )
    selftest.add_argument("--seed", type=int, default=20260814)
    selftest.add_argument("--sharpness", type=int, default=200)
    selftest.add_argument("--systems", type=int, default=40)
    selftest.add_argument(
        "--inject-violation", action="store_true", help=argparse.SUPPRESS
    )
    selftest.set_defaults(func=run_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    Registers ``gc.freeze`` with ``atexit``, once per process however often
    ``main`` runs, so the interpreter's exit-time collections neither traverse
    nor free the heap. The collector is untouched until exit. Finalizers of
    objects left in unreachable cycles at exit do not run; the CLI relies on
    none."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
