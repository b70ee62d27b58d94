"""Each generated case keeps its bytes: one test per ``case <structure>``
section of the same-bytes transcript (tests/same_bytes.py), so a failure
names its case.

A case is a structure that gen builds at seed 0: every structure with
n <= 4, plus the Gaussian, chain and deflation structures.  Its section holds
every stage in json, spectrum, every stage with ``--check`` and verify in
pretty, and gen in pretty.  The digests are those of
tests/golden/same_bytes.json, the one golden of the command line's bytes;
regenerate it only with ``python tests/same_bytes.py --write``.
"""

import json

import pytest

import same_bytes
from jordanform import exhaustive_structures, format_scalar

SEED = 0


def structure_text(structure):
    return ";".join(
        f"{format_scalar(value)}:{','.join(map(str, lengths))}"
        for value, lengths in structure.entries
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(same_bytes.GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    small = [structure_text(s) for n in range(1, 5) for s in exhaustive_structures(n)]
    assert list(same_bytes.SMALL) == small
    cases = {name for name in golden if name.startswith("case ")}
    assert cases == {f"case {structure}" for structure in same_bytes.CASES}
    assert len(cases) == len(same_bytes.CASES)


@pytest.mark.parametrize("structure", same_bytes.CASES, ids=lambda s: f"{s}@{SEED}")
def test_stage_output_is_unchanged(structure, transcript, golden):
    section = f"case {structure}"
    assert [p for p in transcript.problems if p.startswith(f"{section}: ")] == []
    calls = transcript.sections[section]
    assert calls[0][0] == f"gen --structure={structure} --seed {SEED}"
    assert same_bytes.digests({section: calls})[section] == golden[section]
