"""``--format pretty`` prints exactly the bytes recorded in tests/golden/pretty.json.

The cases are those of test_stage_goldens.py.  For each, the golden file maps
``spectrum``, every stage with ``--check``, ``verify`` and ``gen`` to the
sha256 of their pretty output.  Regenerate it with
``PYTHONPATH=src python tests/test_pretty_goldens.py`` only when a change
means to alter the pretty output, and say so in CHANGES.md.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from jordanform import generate_case, parse_structure
from jordanform.cli import EXIT_OK, matrix_to_document, run

from test_stage_goldens import STAGES, cases

GOLDEN = Path(__file__).resolve().parent / "golden" / "pretty.json"


def commands(text, seed, path):
    yield "spectrum", ["spectrum", path]
    for stage in STAGES:
        yield f"{stage} --check", [stage, path, "--check"]
    yield "verify", ["verify", path]
    yield "gen", ["gen", f"--structure={text}", "--seed", seed, "--format", "pretty"]


def pretty_digests(case, path):
    text, seed = case.rsplit("@", 1)
    matrix, _expected = generate_case(parse_structure(text), int(seed), 3)
    path.write_text(json.dumps(matrix_to_document(matrix)))
    digests = {}
    for name, argv in commands(text, seed, str(path)):
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(argv) == EXIT_OK
        digests[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_pretty_output_is_unchanged(case, golden, tmp_path):
    assert pretty_digests(case, tmp_path / "matrix.json") == golden[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "matrix.json"
        table = {case: pretty_digests(case, path) for case in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}", file=sys.stderr)
