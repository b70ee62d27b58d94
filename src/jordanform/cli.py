"""Command-line front end.

Matrices travel as JSON documents whose entries are scalar strings in the
same grammar the library parses, so exactness survives serialization; the
pretty format is for eyes only and JSON is authoritative.
"""

from __future__ import annotations

import argparse
import json
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
from .scalars import GaussianRational, format_scalar, parse_scalar
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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"matrix size must be a positive integer, got {n!r}")
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError(f"expected {n} rows of entries")
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"expected square {n}x{n} entries")
        rows.append([parse_scalar(str(item)) for item in row])
    return ExactMatrix(rows)


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
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ParseError(f'block "size" must be a positive integer, got {size!r}')
        blocks.append(Block(parse_scalar(item["lambda"]), size))
    return Decomposition(
        doc["kind"],
        document_to_matrix(doc["V"]),
        document_to_matrix(doc["M"]),
        tuple(blocks),
    )


# --- pretty rendering ------------------------------------------------------

def pretty_matrix(matrix: ExactMatrix) -> str:
    cells = matrix.entries_str()
    if not cells:
        return "  (empty)"
    widths = [
        max(len(cells[i][j]) for i in range(matrix.rows))
        for j in range(matrix.cols)
    ]
    lines = [
        "  " + "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in cells
    ]
    return "\n".join(lines)


def _blocks_line(blocks: Sequence[Block]) -> str:
    return "blocks: " + " ".join(
        f"{format_scalar(block.eigenvalue)}:{block.size}" for block in blocks
    )


def _pretty_decomposition(decomposition: Decomposition) -> List[str]:
    lines = [f"kind: {decomposition.kind}"]
    lines.append("V:")
    lines.append(pretty_matrix(decomposition.V))
    lines.append("M:")
    lines.append(pretty_matrix(decomposition.M))
    lines.append(_blocks_line(decomposition.blocks))
    if decomposition.kind == "jordan":
        answer = "yes" if decomposition.is_diagonal_form() else "no"
        lines.append(f"diagonalizable: {answer}")
    return lines


def _pretty_spectrum(spect: Spectrum) -> List[str]:
    return [
        f"lambda={format_scalar(e.eigenvalue)} multiplicity={e.multiplicity} "
        f"geometric={e.geometric_dim} max_stage={e.max_stage}"
        for e in spect.entries
    ]


def _report_document(report) -> dict:
    return {
        "passed": report.passed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in report.results
        ],
    }


def _pretty_report(report) -> List[str]:
    return [
        f"check {result.name}: {'pass' if result.passed else 'FAIL'}"
        + ("" if result.passed else f" ({result.detail})")
        for result in report.results
    ]


# --- argument plumbing -----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="jordanform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_command(name: str, help_text: str, check_flag: bool = True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "matrix",
            nargs="?",
            default="-",
            help="path to a matrix JSON document, or - for stdin (default)",
        )
        cmd.add_argument(
            "--spectrum",
            dest="provided",
            metavar="LAMBDAS",
            help="comma-separated eigenvalues to use instead of root finding",
        )
        cmd.add_argument(
            "--format", choices=("json", "pretty"), default="pretty"
        )
        if check_flag:
            cmd.add_argument(
                "--check",
                action="store_true",
                help="append a verification report; failures set exit code 3",
            )
        return cmd

    add_matrix_command("spectrum", "eigenvalues with multiplicities", check_flag=False)
    for kind in STAGES:
        add_matrix_command(kind, f"compute the {kind} decomposition")
    add_matrix_command("verify", "run all decompositions and their checks", check_flag=False)

    gen = sub.add_parser("gen", help="generate a matrix with known structure")
    gen.add_argument(
        "--structure",
        required=True,
        help='block structure, e.g. "3:3" or "0:2,1;1:1"',
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--bound", type=int, default=3)
    gen.add_argument("--format", choices=("json", "pretty"), default="json")
    return parser


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
    return document_to_matrix(doc)


def _parse_provided(text: Optional[str]) -> Optional[List[GaussianRational]]:
    if text is None:
        return None
    items = [item.strip() for item in text.split(",")]
    if not any(items):
        raise UsageError("--spectrum needs at least one eigenvalue")
    return [parse_scalar(item) for item in items]


def _emit(doc: dict, pretty_lines: List[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(pretty_lines))


# --- subcommand handlers ---------------------------------------------------

def _cmd_matrix(args) -> int:
    """spectrum, one stage, or verify (every stage and its checks); the
    stages all read off one analysis of the matrix."""
    matrix = _read_matrix(args.matrix)
    provided = _parse_provided(args.provided)
    if args.command == "spectrum":
        spect = spectrum(matrix, provided)
        _emit(spectrum_to_document(spect), _pretty_spectrum(spect), args.format)
        return EXIT_OK
    ladders = spectrum_with_ladders(matrix, provided)[1]
    if args.command in STAGES:
        decomposition = STAGES[args.command](matrix, ladders)
        doc = decomposition_to_document(decomposition)
        pretty = _pretty_decomposition(decomposition)
        passed = True
        if args.check:
            from .verify import check_decomposition

            report = check_decomposition(matrix, decomposition)
            doc["check"] = _report_document(report)
            pretty.extend(_pretty_report(report))
            passed = report.passed
    else:
        from .verify import check_decomposition

        doc = {"n": matrix.rows, "reports": []}
        pretty = []
        for kind, stage in STAGES.items():
            report = check_decomposition(matrix, stage(matrix, ladders))
            doc["reports"].append({"kind": kind, **_report_document(report)})
            pretty.append(f"{kind}: {'pass' if report.passed else 'FAIL'}")
            pretty.extend("  " + line for line in _pretty_report(report))
        passed = all(report["passed"] for report in doc["reports"])
    _emit(doc, pretty, args.format)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_gen(args) -> int:
    from .verify import generate_case, parse_structure

    structure = parse_structure(args.structure)
    matrix, _expected = generate_case(structure, args.seed, args.bound)
    # Default is JSON (unlike the other subcommands) so gen can be piped
    # straight into them.
    _emit(matrix_to_document(matrix), [pretty_matrix(matrix)], args.format)
    return EXIT_OK


def _join_negative_values(argv: Sequence[str]) -> List[str]:
    """argv with ``--spectrum -1,3`` written as ``--spectrum=-1,3``, and
    ``--structure -1:2`` as ``--structure=-1:2``, also for the prefixes
    (``--s`` ... ``--spectru``, ``--st`` ... ``--structur``) that argparse
    accepts: it takes only -<digits> for a negative number, so it would read
    a value that starts with a negative number as an option."""
    joined: List[str] = []
    for token in argv:
        negative = token[:1] == "-" and "0" <= token[1:2] <= "9"
        flag = joined[-1] if joined else ""
        if negative and len(flag) > 2 and any(
            name.startswith(flag) for name in ("--spectrum", "--structure")
        ):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def run(argv: Sequence[str]) -> int:
    """Execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(argv))
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
