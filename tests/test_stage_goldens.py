"""The four stages print exactly the bytes recorded in tests/golden/stages.json.

Each case is a generated matrix: every structure with n <= 4 at seed 0, plus
a few structures with Gaussian eigenvalues at n = 6..8, two at n = 16 whose
ladders have several stages with repeated chain lengths, so that the golden
pins the Jordan chains, and with them V, past the first stage, and two long
runs of Schur steps: nine distinct eigenvalues at n = 11 and a single chain
of length 8.  The golden file maps each case to the sha256 of
``jordanform <stage> --format json`` for schur, blockdiag, blocktri and
jordan.  Regenerate it with ``PYTHONPATH=src python tests/test_stage_goldens.py``
only when a change means to alter the output contract, and say so in CHANGES.md.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from jordanform import exhaustive_structures, format_scalar, generate_case, parse_structure
from jordanform.cli import EXIT_OK, matrix_to_document, run

GOLDEN = Path(__file__).resolve().parent / "golden" / "stages.json"
STAGES = ("schur", "blockdiag", "blocktri", "jordan")
SEED = 0
GAUSSIAN = ("1i:3;-1i:2;1:1", "1+1i:2,2;2:3", "1/2-1i:4;1i:2,1;0:1")
CHAINS = ("0:3,3,2,2,1;1i:2,2,1", "1:4,4,2;-1:3,3")
DEFLATIONS = ("0:1;1:1;2:1;-1:1;3:1;1i:1;-1i:1;1+1i:1;1/2:2,1", "2:8")


def structure_text(structure):
    return ";".join(
        f"{format_scalar(value)}:{','.join(map(str, lengths))}"
        for value, lengths in structure.entries
    )


def cases():
    texts = [structure_text(s) for n in range(1, 5) for s in exhaustive_structures(n)]
    return [f"{text}@{SEED}" for text in texts + list(GAUSSIAN) + list(CHAINS) + list(DEFLATIONS)]


def stage_digests(case, path):
    text, seed = case.rsplit("@", 1)
    matrix, _expected = generate_case(parse_structure(text), int(seed), 3)
    path.write_text(json.dumps(matrix_to_document(matrix)))
    digests = {}
    for stage in STAGES:
        out = io.StringIO()
        with redirect_stdout(out):
            assert run([stage, str(path), "--format", "json"]) == EXIT_OK
        digests[stage] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_stage_output_is_unchanged(case, golden, tmp_path):
    assert stage_digests(case, tmp_path / "matrix.json") == golden[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "matrix.json"
        table = {case: stage_digests(case, path) for case in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}", file=sys.stderr)
