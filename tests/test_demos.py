"""Each demo prints exactly the bytes recorded in tests/golden/demos/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env=env,
        check=True,
        timeout=120,
    )
    golden = ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt"
    assert result.stdout == golden.read_bytes()


def test_every_demo_has_a_golden_file():
    goldens = sorted((ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert [g.stem for g in goldens] == [d.stem for d in DEMOS]
