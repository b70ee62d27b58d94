"""The CLI's exit paths under hypothesis: malformed matrix documents and
argument lists, run in process through ``cli.run``.

Every run must return 0, 1 or 2 and never raise.  A nonzero exit writes
nothing to standard output and exactly one line to standard error: for an
argument list the parser refuses, ``jordanform: error: ...``; otherwise
``jordanform <command>: <ErrorType>: ...``, with exit 2 for
SpectrumNotRepresentable alone.  Matrices stay at n <= 4 and generated
structures small, so the examples run in seconds.
"""

import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from jordanform.cli import EXIT_NOT_REPRESENTABLE, run  # noqa: E402

MATRIX_COMMANDS = ("spectrum", "schur", "blockdiag", "blocktri", "jordan", "verify")
# Past the interpreter's limit on int <-> str digits, which the tests keep.
LONG = "9" * (getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300) + "9"

VALID = ['"0"', '"1"', '"-2"', '"1/2"', '"1i"', '"-1i"', '"1+1i"', '"3/4-1/2i"', "2", "-1", "0"]
MALFORMED = [
    '"1/0"', '"i"', '"x"', '""', '"1.5"', '" 1"', '"1/2/3"', '"1e3"', '"--1"', '"+1"',
    '"1+i"', '"1\\n2"', "1.5", "null", "true", "{}", "[]", "1e400", "NaN", "Infinity",
    '"\\u00e9"', LONG, f'"{LONG}"', f'"1/{LONG}"', f'"{LONG}i"',
]
NESTED = st.integers(1, 3000).map(lambda depth: "[" * depth + "1" + "]" * depth)
BAD_ENTRY = st.one_of(st.sampled_from(MALFORMED), NESTED, st.text(max_size=6).map(json.dumps))
BAD_SIZE = st.one_of(
    st.sampled_from(["0", "-1", "5", '"2"', "2.0", "true", "null", "[2]", LONG]), NESTED
)
BAD_ENTRIES = st.one_of(st.sampled_from(['"entries"', "{}", "null", "[1, 2]", "[[]]"]), NESTED)
BAD_DOCUMENT = st.sampled_from([
    '{{"entries": {entries}}}', '{{"n": {size}}}', "[{size}, {entries}]", "{entries}",
    '{{"n": {size}, "entries": {entries}', '{{"n": {size}, "entries": {entries}}} x',
])

NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    phases=NO_SHRINK)


@st.composite
def documents(draw):
    """The bytes of a matrix document: well formed, or broken at one level
    (an entry, the shape, the entries, n, the JSON text or its encoding)."""
    n = draw(st.integers(1, 4))
    rows = [[draw(st.sampled_from(VALID)) for _ in range(n)] for _ in range(n)]
    size, template = str(n), '{{"n": {size}, "entries": {entries}}}'
    broken = draw(st.integers(0, 6))
    if broken == 1:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(BAD_ENTRY)
    elif broken == 2:
        row = rows[draw(st.integers(0, n - 1))]
        row.append(row[0]) if draw(st.booleans()) else row.pop()
    elif broken == 3:
        rows.append(rows[0]) if draw(st.booleans()) else rows.pop()
    entries = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    if broken == 4:
        entries = draw(BAD_ENTRIES)
    elif broken == 5:
        size = draw(BAD_SIZE)
    elif broken == 6:
        template = draw(BAD_DOCUMENT)
    text = template.format(size=size, entries=entries).encode()
    return b"\xff" + text if draw(st.integers(0, 19)) == 0 else text


OPTIONS = st.lists(st.sampled_from([
    "--spectrum", "--spectrum=1", "--spectrum=1,1", "--spectrum=", "--spectrum=,",
    "--spectrum=x", "--spectrum=1/0", "--spectrum=-1,2", "--spectrum=1i,-1i,2",
    f"--spectrum={LONG}", "--spectrum=1\n2", "-1", "1,2", "--format", "json", "pretty",
    "xml", "--format=json", "--check", "--bogus", "-", "extra", "--help",
]), max_size=4)
GEN_OPTIONS = st.lists(st.sampled_from([
    "--structure=0:2;1i:1", "--structure", "-1:2", "--structure=0:2,1", "--structure=1/0:1",
    "--structure=0:0", "--structure=;", "--structure=1:1;1:1", "--structure=1:", "--structure=x",
    "--structure=0:1001", f"--structure=0:{LONG}", f"--structure={LONG}:1", "--structure=0:\n1",
    "--seed", "-3", "--seed=x", f"--seed={LONG}", "--bound", "0", "2", "--bound=-1",
    "--format", "pretty", "xml", "--help",
]), max_size=5)


@pytest.fixture(scope="module")
def directory():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert err == ""
        return
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    match = re.fullmatch(r"jordanform(?: (\S+): ([A-Z]\w*)|: error): .+\n", err, re.DOTALL)
    assert match, err
    if match.group(1) is not None:
        assert match.group(1) == argv[0]
    assert (code == EXIT_NOT_REPRESENTABLE) == (match.group(2) == "SpectrumNotRepresentable")


@SETTINGS
@given(documents(), st.sampled_from(MATRIX_COMMANDS), OPTIONS)
def test_a_malformed_document_exits_with_one_line(directory, document, command, options):
    path = directory / "matrix.json"
    path.write_bytes(document)
    argv = [command, str(path), *options]
    assert_exit_contract(argv, *run_captured(argv))


@SETTINGS
@given(st.one_of(
    st.tuples(st.sampled_from(MATRIX_COMMANDS + ("gen",)), OPTIONS).map(lambda t: [t[0], *t[1]]),
    st.tuples(st.just("gen"), GEN_OPTIONS).map(lambda t: [t[0], *t[1]]),
    st.lists(st.text(max_size=8), max_size=3),
))
def test_a_malformed_argument_list_exits_with_one_line(argv):
    # A matrix command without a path, or with "-", reads a valid 2x2
    # document from standard input; "extra" names a file that is not there.
    sys_stdin = sys.stdin
    sys.stdin = io.StringIO('{"n": 2, "entries": [["1", "1"], ["0", "1i"]]}')
    try:
        assert_exit_contract(argv, *run_captured(argv))
    finally:
        sys.stdin = sys_stdin
