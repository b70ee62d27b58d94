"""Command-line front end.

Matrices travel as JSON documents whose entries are scalar strings in the
same grammar the library parses, so exactness survives serialization.  Every
command builds one JSON document; ``--format pretty`` renders that document
and nothing else, so both formats carry the same facts.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional, Sequence

from .decomp import STAGES, Block, Decomposition
from .errors import (
    InternalInvariantViolation,
    JordanFormError,
    ParseError,
    SpectrumNotRepresentable,
    UsageError,
)
from .matrices import ExactMatrix
from .scalars import DIGITS, GaussianRational, format_scalar, is_int, parse_scalar
from .spectral import Spectrum, spectrum, spectrum_with_ladders

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_REPRESENTABLE = 2
EXIT_CHECK_FAILED = 3
EXIT_INTERNAL = 4


# --- documents -------------------------------------------------------------

def matrix_to_document(matrix: ExactMatrix) -> dict:
    return {"n": matrix.rows, "entries": matrix.entries_str()}


def document_to_matrix(doc) -> ExactMatrix:
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise ParseError('a matrix document needs the keys "n" and "entries"')
    n = doc["n"]
    entries = doc["entries"]
    if not is_int(n) or n < 1:
        raise ParseError(f"matrix size must be a positive integer, got {n!r}")
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError(f"expected {n} rows of entries")
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"expected square {n}x{n} entries")
        rows.append([_document_entry(item) for item in row])
    return ExactMatrix(rows)


def _document_entry(item):
    """A scalar string, or a JSON integer taken as it is; any other JSON
    value is a ParseError that quotes it, cut to 40 characters."""
    if isinstance(item, str):
        return parse_scalar(item)
    if is_int(item):
        return item
    text = json.dumps(item)
    text = text if len(text) <= 40 else text[:40] + "..."
    raise ParseError(f"a matrix entry must be a scalar string or an integer, got {text}")


def spectrum_to_document(spect: Spectrum) -> dict:
    return {
        "entries": [
            {
                "lambda": format_scalar(entry.eigenvalue),
                "multiplicity": entry.multiplicity,
                "geometric": entry.geometric_dim,
                "max_stage": entry.max_stage,
            }
            for entry in spect.entries
        ]
    }


def decomposition_to_document(decomposition: Decomposition) -> dict:
    return {
        "kind": decomposition.kind,
        "V": matrix_to_document(decomposition.V),
        "M": matrix_to_document(decomposition.M),
        "blocks": [
            {"lambda": format_scalar(block.eigenvalue), "size": block.size}
            for block in decomposition.blocks
        ],
    }


def document_to_decomposition(doc) -> Decomposition:
    for key in ("kind", "V", "M", "blocks"):
        if not isinstance(doc, dict) or key not in doc:
            raise ParseError(f'a decomposition document needs the key "{key}"')
    if doc["kind"] not in STAGES:
        raise ParseError(f'"kind" must be one of {", ".join(STAGES)}, got {doc["kind"]!r}')
    if not isinstance(doc["blocks"], list):
        raise ParseError(f'"blocks" must be a list, got {doc["blocks"]!r}')
    blocks = []
    for item in doc["blocks"]:
        if not isinstance(item, dict) or "lambda" not in item or "size" not in item:
            raise ParseError(f'each of "blocks" needs the keys "lambda" and "size", got {item!r}')
        size = item["size"]
        if not is_int(size) or size < 1:
            raise ParseError(f'block "size" must be a positive integer, got {size!r}')
        blocks.append(Block(parse_scalar(item["lambda"]), size))
    return Decomposition(
        doc["kind"],
        document_to_matrix(doc["V"]),
        document_to_matrix(doc["M"]),
        tuple(blocks),
    )


def _check_document(matrix: ExactMatrix, decomposition: Decomposition) -> dict:
    """The checks of a decomposition; only --check and verify load jordanform.verify."""
    from .verify import check_decomposition

    report = check_decomposition(matrix, decomposition)
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in report.results]
    return {"passed": report.passed, "checks": checks}


# --- pretty rendering: read off the document alone --------------------------

def _grid(cells: List[List[str]]) -> List[str]:
    if not cells:
        return ["  (empty)"]
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return ["  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]


def pretty_matrix(matrix: ExactMatrix) -> str:
    return "\n".join(_grid(matrix.entries_str()))


def _check_lines(report: dict) -> List[str]:
    return [
        f"check {c['name']}: " + ("pass" if c["passed"] else f"FAIL ({c['detail']})")
        for c in report["checks"]
    ]


def _pretty(doc: dict) -> List[str]:
    """The lines of a verify, decomposition, matrix or spectrum document."""
    if "reports" in doc:
        lines = []
        for report in doc["reports"]:
            lines.append(f"{report['kind']}: {'pass' if report['passed'] else 'FAIL'}")
            lines += ["  " + line for line in _check_lines(report)]
        return lines
    if "kind" in doc:
        blocks = doc["blocks"]
        lines = [
            f"kind: {doc['kind']}",
            "V:", *_grid(doc["V"]["entries"]),
            "M:", *_grid(doc["M"]["entries"]),
            "blocks: " + " ".join(f"{b['lambda']}:{b['size']}" for b in blocks),
        ]
        if doc["kind"] == "jordan":
            diagonal = all(b["size"] == 1 for b in blocks)
            lines.append(f"diagonalizable: {'yes' if diagonal else 'no'}")
        return lines + (_check_lines(doc["check"]) if "check" in doc else [])
    if "n" in doc:
        return _grid(doc["entries"])
    return [" ".join(f"{key}={value}" for key, value in e.items()) for e in doc["entries"]]


def _emit(doc: dict, fmt: str) -> None:
    print(json.dumps(doc, indent=2) if fmt == "json" else "\n".join(_pretty(doc)))


# --- argument plumbing -----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token as a value, not an option, when it looks like
        # a negative number: widen that to "-" and a digit, so --spectrum
        # -1,3, --structure -1:2 and the path -1.json are values too.
        self._negative_number_matcher = re.compile(f"-{DIGITS}")

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="jordanform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument(
        "matrix",
        nargs="?",
        default="-",
        help="path to a matrix JSON document, or - for stdin (default)",
    )
    matrix.add_argument(
        "--spectrum",
        dest="provided",
        metavar="LAMBDAS",
        help="comma-separated eigenvalues the matrix must have, checked against root finding",
    )
    matrix.add_argument("--format", choices=("json", "pretty"), default="pretty")

    sub.add_parser("spectrum", parents=[matrix], help="eigenvalues with multiplicities")
    for kind in STAGES:
        stage = sub.add_parser(kind, parents=[matrix], help=f"compute the {kind} decomposition")
        stage.add_argument(
            "--check",
            action="store_true",
            help="append a verification report; failures set exit code 3",
        )
    sub.add_parser("verify", parents=[matrix], help="run all decompositions and their checks")

    gen = sub.add_parser("gen", help="generate a matrix with known structure")
    gen.add_argument(
        "--structure",
        required=True,
        help='block structure, e.g. "3:3" or "0:2,1;1:1", of total size at most 1000',
    )
    gen.add_argument("--seed", type=_ascii_int, default=0)
    gen.add_argument("--bound", type=_ascii_int, default=3)
    gen.add_argument("--format", choices=("json", "pretty"), default="json")
    return parser


def _ascii_int(text: str) -> int:
    """int() of ASCII digits after an optional "-": not "+5", " 7", "1_000" or another script's."""
    if not re.fullmatch(f"-?{DIGITS}", text):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _read_matrix(path: str) -> ExactMatrix:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError(f"JSON in {path!r} cannot be read: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"JSON in {path!r} is nested too deeply") from exc
    return document_to_matrix(doc)


def _parse_provided(text: Optional[str]) -> Optional[List[GaussianRational]]:
    if text is None:
        return None
    items = [item.strip() for item in text.split(",")]
    if not any(items):
        raise UsageError("--spectrum needs at least one eigenvalue")
    return [parse_scalar(item) for item in items]


# --- subcommand handlers ---------------------------------------------------

def _cmd_matrix(args) -> int:
    """spectrum, one stage, or verify (every stage and its checks); the
    stages all read off one analysis of the matrix."""
    matrix = _read_matrix(args.matrix)
    provided = _parse_provided(args.provided)
    if args.command == "spectrum":
        _emit(spectrum_to_document(spectrum(matrix, provided)), args.format)
        return EXIT_OK
    ladders = spectrum_with_ladders(matrix, provided)[1]
    if args.command in STAGES:
        decomposition = STAGES[args.command](matrix, ladders)
        doc = decomposition_to_document(decomposition)
        if args.check:
            doc["check"] = _check_document(matrix, decomposition)
        reports = [doc["check"]] if args.check else []
    else:
        reports = [
            {"kind": kind, **_check_document(matrix, stage(matrix, ladders))}
            for kind, stage in STAGES.items()
        ]
        doc = {"n": matrix.rows, "reports": reports}
    _emit(doc, args.format)
    return EXIT_OK if all(report["passed"] for report in reports) else EXIT_CHECK_FAILED


def _cmd_gen(args) -> int:
    from .verify import generate_case, parse_structure

    structure = parse_structure(args.structure)
    matrix, _expected = generate_case(structure, args.seed, args.bound)
    # Default is JSON (unlike the other subcommands) so gen can be piped
    # straight into them.
    _emit(matrix_to_document(matrix), args.format)
    return EXIT_OK


def run(argv: Sequence[str]) -> int:
    """Execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"jordanform: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    handler = _cmd_gen if args.command == "gen" else _cmd_matrix
    try:
        return handler(args)
    except (JordanFormError, OSError) as exc:
        # Every package error without a code of its own is a usage error.
        print(f"jordanform {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, SpectrumNotRepresentable):
            return EXIT_NOT_REPRESENTABLE
        return EXIT_INTERNAL if isinstance(exc, InternalInvariantViolation) else EXIT_USAGE


def main() -> None:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact answers of any size
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
