"""The same-bytes transcript (tests/same_bytes.py), run in process through
``cli.run``, matches tests/golden/same_bytes.json section by section."""

import json

import same_bytes


def test_the_transcript_keeps_its_bytes_and_expectations(transcript):
    assert transcript.problems == []
    golden = json.loads(same_bytes.GOLDEN.read_text(encoding="utf-8"))
    assert same_bytes.differing(transcript.sections, golden) == []
