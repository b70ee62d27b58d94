"""The "same bytes" transcript: command-line calls whose output the byte
contract pins, each with its stdout, stderr and exit code.  It is the one
pin of the command line's bytes; no other golden holds them.

The calls are grouped into sections:

- gen: ``gen --seed 5`` on each structure of STRUCTURES;
- commands: that matrix piped into every command of COMMANDS, for every
  structure but the last;
- n24: the same for the last structure, at n = 24 the largest;
- separate-argument: a structure that starts with a negative value, given as
  a separate argument, and ``jordan`` reading the matrix from a file;
- provided-lists: ``--spectrum`` lists, valid, out of canonical order, and
  rejected with exit 1;
- exit-2: matrices with a Krylov factor that has no root in Q(i);
- case <structure>: for each structure of CASES, ``gen --seed 0`` piped into
  every stage in json, and into spectrum, every stage with ``--check`` and
  verify in pretty, then the same gen in pretty.

Beyond the bytes, every call must exit with its expected code, and a few
pairs must print the same: a structure given as a separate argument and in
the = form, a provided list out of order and no list, and an exit-2 matrix
with and without its one eigenvalue in Q(i) provided.  tests/golden/
same_bytes.json holds one sha256 per section, so a difference names its
section.  ``--write`` is the only way to regenerate it: use it only in a
change that means to alter the output, and say so in CHANGES.md.

Run as a script, it prints the transcript as JSON::

    python tests/same_bytes.py [--subprocess] [--check] [--write]

In process by default, through ``cli.run``; with ``--subprocess``, each call
is a ``python -m jordanform`` process, which inherits PYTHONHASHSEED.
``--check`` compares the section digests with the golden, and the script
exits 1 when they or an expectation differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "same_bytes.json"

# Each is the argument list of gen, after "gen" and before "--seed 5".  The
# one with entries up to 9 in S has reductions whose denominator grows past
# 64 bits before their one content strip; the next repeats chain lengths at
# several stages for two eigenvalues; the next has a non-integral Gaussian
# eigenvalue of multiplicity 3, so root finding clears denominators of a
# complex factor; the next repeats a large Gaussian eigenvalue, so root
# finding takes the square-free part and counts multiplicities over Z[i],
# and real eigenvalues are hashed as scalars; the next has nine distinct
# eigenvalues at n = 11, so schur runs eleven Schur steps through all nine;
# the next has open partitions of 4, so spectrum builds ladders; the next
# has multiplicities 2 and 3 only, so spectrum reads their dimensions off
# one rank each; the last, at n = 24 with five eigenvalues and entries up to
# 9 in S, is the largest, and its jordan --check and verify print the
# chain-counts verdict that similarity, invertibility and shape prove, with
# no kernel built.
STRUCTURES: Tuple[Tuple[str, ...], ...] = (
    ("--structure=0:3,1;2:1",),
    ("--structure=-1:2,2;1:1",),
    ("--structure=1i:2;-1i:2;1/2:1",),
    ("--structure=2:1;1i:1;-1i:1;1/2:1",),
    ("--structure=1:2,2,1;0:1",),
    ("--structure=0:5,3;1i:3,1",),
    ("--structure=0:5,3;1i:3,1", "--bound", "9"),
    ("--structure=0:3,3,2,2,1;1i:2,2,1",),
    ("--structure=1/2+1/3i:2,1;-1/2:1",),
    ("--structure=1000000007+3i:2;3:1,1;-5i:1",),
    ("--structure=0:1;1:1;2:1;-1:1;3:1;1i:1;-1i:1;1+1i:1;1/2:2,1",),
    ("--structure=0:2,2;1:3,1",),
    ("--structure=0:2,1;1:3;2:2",),
    ("--structure=0:5,3;1:4,2;-1:3,1;2:3,2;1i:1", "--bound", "9"),
)

# Each is the text of a structure that gen builds at seed 0 with entries up
# to 3 in S.  SMALL is every structure with n <= 4, in the order of
# exhaustive_structures; GAUSSIAN has Gaussian eigenvalues at n = 6..8;
# CHAINS, both at n = 16, has ladders with several stages of repeated
# chain lengths, so its sections pin the Jordan chains, and with them V, past
# the first stage; DEFLATIONS has two long runs of Schur steps, nine distinct
# eigenvalues at n = 11 and a single chain of length 8.
SMALL = (
    "0:1",
    "0:2", "0:1,1", "0:1;1:1",
    "0:3", "0:2,1", "0:1,1,1", "0:2;1:1", "0:1,1;1:1", "0:1;1:1;2:1",
    "0:4", "0:3,1", "0:2,2", "0:2,1,1", "0:1,1,1,1", "0:3;1:1", "0:2,1;1:1",
    "0:1,1,1;1:1", "0:2;1:2", "0:2;1:1,1", "0:1,1;1:1,1", "0:2;1:1;2:1",
    "0:1,1;1:1;2:1", "-1:1;0:1;1:1;2:1",
)
GAUSSIAN = ("1i:3;-1i:2;1:1", "1+1i:2,2;2:3", "1/2-1i:4;1i:2,1;0:1")
CHAINS = ("0:3,3,2,2,1;1i:2,2,1", "1:4,4,2;-1:3,3")
DEFLATIONS = ("0:1;1:1;2:1;-1:1;3:1;1i:1;-1i:1;1+1i:1;1/2:2,1", "2:8")
CASES = SMALL + GAUSSIAN + CHAINS + DEFLATIONS

STAGES = ("schur", "blockdiag", "blocktri", "jordan")

COMMANDS: Tuple[List[str], ...] = tuple(
    [*command, "--format", fmt]
    for fmt, commands in (
        ("json", ("spectrum", "verify", "schur", "blockdiag", "blocktri", "jordan", "jordan --check")),
        ("pretty", ("spectrum", "verify", "jordan --check")),
    )
    for command in (c.split() for c in commands)
)


def _matrix(*rows: Sequence[str]) -> str:
    return json.dumps({"n": len(rows), "entries": [list(row) for row in rows]})


# The companion matrix of z^3 - 2; diag(1) + that companion;
# companion(z^2 - 2) + companion(z^2 - 2) + [1], where two Krylov factors
# keep z^2 - 2; and companion(z^2 - i/3) + companion(z^2 - i/3) + [1], then
# the same with a 1 at row 0, column 2 coupling the two companions: both
# keep z^2 - 1/3i in two Krylov factors, so minimal_polynomial takes lcms of
# Gaussian-rational polynomials.  The coupled one's rest is the square, as
# its minimal polynomial is not the lcm of the rests.
CUBE = _matrix(["0", "0", "2"], ["1", "0", "0"], ["0", "1", "0"])
ONE_AND_CUBE = _matrix(
    ["1", "0", "0", "0"], ["0", "0", "0", "2"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]
)
TWO_SQUARES = _matrix(
    ["0", "2", "0", "0", "0"], ["1", "0", "0", "0", "0"], ["0", "0", "0", "2", "0"],
    ["0", "0", "1", "0", "0"], ["0", "0", "0", "0", "1"],
)


def _gaussian_squares(coupling: str) -> str:
    return _matrix(
        ["0", "1/3i", coupling, "0", "0"], ["1", "0", "0", "0", "0"],
        ["0", "0", "0", "1/3i", "0"], ["0", "0", "1", "0", "0"], ["0", "0", "0", "0", "1"],
    )


NOT_REPRESENTABLE = (
    "jordanform spectrum: SpectrumNotRepresentable: no root in Q(i) for the remaining factor "
)

Result = Tuple[int, str, str]  # exit code, stdout, stderr
Runner = Callable[[Sequence[str], str], Result]


def run_in_process(argv: Sequence[str], stdin: str = "") -> Result:
    """One call through ``cli.run``."""
    from jordanform import cli

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_subprocess(argv: Sequence[str], stdin: str = "") -> Result:
    """One call as ``python -m jordanform``, with this environment and src/ on the path."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), path))))
    done = subprocess.run(
        [sys.executable, "-m", "jordanform", *argv],
        input=stdin.encode("utf-8"), capture_output=True, env=env, timeout=600,
    )
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")


class Transcript:
    """The calls of each section, and what broke an expectation."""

    def __init__(self, runner: Runner, directory: Path):
        self.runner = runner
        self.directory = directory
        self.sections: Dict[str, List[list]] = {}
        self.problems: List[str] = []

    def call(self, section: str, argv: Sequence[str], stdin: Optional[str] = None,
             label: str = "", expect: int = 0) -> Result:
        """Run argv, with stdin piped in when given (label names it), and
        record it; a file in the scratch directory is written {dir}/name."""
        actual = [arg.format(dir=self.directory) for arg in argv]
        code, out, err = result = self.runner(actual, stdin or "")
        line = " ".join(argv) + (f" < {label}" if label else "")
        self.sections.setdefault(section, []).append([line, code, out, err])
        if code != expect:
            self.problems.append(f"{section}: {line} exited {code}, not {expect}: {err.strip()}")
        return result

    def same(self, section: str, what: str, first: str, second: str) -> None:
        if first != second:
            self.problems.append(f"{section}: {what} differ")

    def fails_once(self, section: str, argv: Sequence[str], stdin: Optional[str] = None,
                   label: str = "", expect: int = 1, want: Optional[str] = None) -> None:
        """Run a call that must exit with code expect and write one stderr
        line, the line want when given."""
        err = self.call(section, argv, stdin, label, expect)[2]
        if err.count("\n") != 1 or want is not None and err != want:
            wanted = "one line" if want is None else repr(want)
            self.problems.append(f"{section}: {' '.join(argv)} wrote {err!r}, not {wanted}")


def record(runner: Runner) -> Transcript:
    """Every call of the transcript, in order."""
    with tempfile.TemporaryDirectory() as directory:
        script = Transcript(runner, Path(directory))
        for k, structure in enumerate(STRUCTURES):
            generate = ["gen", *structure, "--seed", "5"]
            matrix = script.call("gen", generate)[1]
            section = "n24" if k == len(STRUCTURES) - 1 else "commands"
            for command in COMMANDS:
                script.call(section, command, matrix, " ".join(generate))
        _separate_argument(script)
        _provided_lists(script)
        _exit_2(script)
        for structure in CASES:
            _case(script, structure)
        return script


def _separate_argument(script: Transcript) -> None:
    # A structure that starts with a negative value, as a separate argument:
    # the same matrix as the = form.
    section = "separate-argument"
    separate = script.call(section, ["gen", "--structure", "-1:2,2;1:1", "--seed", "5"])[1]
    joined = script.call(section, ["gen", "--structure=-1:2,2;1:1", "--seed", "5"])[1]
    script.same(section, "the separate and the = form of --structure", separate, joined)
    (script.directory / "separate.json").write_text(separate, encoding="utf-8")
    script.call(section, ["jordan", "{dir}/separate.json", "--format", "json"])


def _provided_lists(script: Transcript) -> None:
    # A valid list, then one with a value that is not an eigenvalue, which
    # exits 1 with one stderr line.
    section = "provided-lists"
    for command in ("spectrum", "jordan"):
        script.call(section, [command, "{dir}/separate.json", "--spectrum=1,-1", "--format", "json"])
        script.fails_once(section, [command, "{dir}/separate.json", "--spectrum=-1,1,7"])
    # A list out of canonical order is checked against the root search, so
    # spectrum, jordan and verify print the same bytes with it as without.
    gaussian = script.call(section, ["gen", "--structure=1i:2;-1i:2;1/2:1", "--seed", "5"])[1]
    (script.directory / "gaussian.json").write_text(gaussian, encoding="utf-8")
    for command in ("spectrum", "jordan", "verify"):
        found = script.call(section, [command, "{dir}/gaussian.json", "--format", "json"])[1]
        given = script.call(
            section, [command, "{dir}/gaussian.json", "--spectrum=1/2,-1i,1i", "--format", "json"]
        )[1]
        script.same(section, f"{command} with and without a provided list", found, given)
    # verify with a repeated value, then with an incomplete list.
    for provided in ("-1,-1,1", "-1"):
        script.fails_once(section, ["verify", "{dir}/separate.json", f"--spectrum={provided}"])


def _exit_2(script: Transcript) -> None:
    section = "exit-2"
    # The companion matrix of z^3 - 2: the stderr line names the minimal
    # polynomial's rootless rest after the Krylov factors found it.
    for command in ("spectrum", "verify"):
        script.fails_once(section, [command], CUBE, "companion(z^3 - 2)", expect=2)
    # diag(1) + companion(z^3 - 2), without a list and with its one
    # eigenvalue in Q(i): the same stderr line, which names z^3 - 2.
    for provided in ((), ("--spectrum=1",)):
        script.fails_once(section, ["spectrum", *provided], ONE_AND_CUBE,
                          "[1] + companion(z^3 - 2)", 2, NOT_REPRESENTABLE + "z^3 - 2\n")
    script.fails_once(section, ["spectrum"], TWO_SQUARES,
                      "companion(z^2 - 2) + companion(z^2 - 2) + [1]", 2,
                      NOT_REPRESENTABLE + "z^2 - 2\n")
    for coupling, rest in (("0", "z^2 - 1/3i"), ("1", "z^4 - 2/3iz^2 - 1/9")):
        label = f"companion(z^2 - i/3) + companion(z^2 - i/3) + [1], coupled by {coupling}"
        script.fails_once(section, ["spectrum"], _gaussian_squares(coupling), label, 2,
                          NOT_REPRESENTABLE + rest + "\n")


def _case(script: Transcript, structure: str) -> None:
    section = f"case {structure}"
    generate = ["gen", f"--structure={structure}", "--seed", "0"]
    label = " ".join(generate)
    matrix = script.call(section, generate)[1]
    for stage in STAGES:
        script.call(section, [stage, "--format", "json"], matrix, label)
    # No --format: these also pin pretty as the default of every command
    # that reads a matrix.
    for command in ("spectrum", *(f"{stage} --check" for stage in STAGES), "verify"):
        script.call(section, command.split(), matrix, label)
    script.call(section, [*generate, "--format", "pretty"])


def digests(sections: Dict[str, List[list]]) -> Dict[str, str]:
    """One sha256 per section, of its calls as JSON."""
    return {
        name: hashlib.sha256(json.dumps(calls).encode("ascii")).hexdigest()
        for name, calls in sections.items()
    }


def differing(sections: Dict[str, List[list]], golden: Dict[str, str]) -> List[str]:
    """The sections whose digest is not the golden one, or that only one side has."""
    found = digests(sections)
    return sorted(name for name in set(found) | set(golden) if found.get(name) != golden.get(name))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--subprocess", action="store_true",
                        help="run each call as python -m jordanform")
    parser.add_argument("--check", action="store_true",
                        help=f"compare the section digests with {GOLDEN.relative_to(ROOT)}")
    parser.add_argument("--write", action="store_true",
                        help=f"write the section digests to {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    if not args.subprocess:
        sys.path.insert(0, str(ROOT / "src"))
    script = record(run_subprocess if args.subprocess else run_in_process)
    print(json.dumps(script.sections, indent=1))
    outputs = "".join(out for calls in script.sections.values() for _, _, out, _ in calls)
    decompositions, reports = (outputs.count(f'"{key}"') for key in ("kind", "checks"))
    print(f"{decompositions} decompositions and {reports} check reports", file=sys.stderr)
    problems = list(script.problems)
    if args.write:
        GOLDEN.write_text(json.dumps(digests(script.sections), indent=2) + "\n", encoding="utf-8")
    if args.check:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        problems += [f"{name}: differs from the golden" for name in differing(script.sections, golden)]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
