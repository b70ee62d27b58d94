"""Calls per case of every jordanform function, on each benchmark workload.

    python3 tools/traffic.py --seed 1 2 3

builds one round of each workload's corpus at each seed with
``bench/corpus.py`` (read, never changed), runs every case in process under
cProfile, and prints, for each workload, how many times each function of the
package in ``src/`` ran per case, most called first.  jordan-lib runs
``jordan_decomposition``; spectrum-roots runs ``spectrum``, where a planted
cubic must end in ``SpectrumNotRepresentable``; verify-cli runs ``verify`` then
``jordan`` on the case's matrix file through ``cli.run``.

The counts leave out process start: the package is imported, and the
in-process inputs built, before profiling begins, so module-level work such
as ``verify.PALETTE`` is not counted.  A count depends on the inputs alone,
not on timing, so two trees compare exactly.  Standard library only.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import io
import json
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import corpus  # noqa: E402
import jordanform  # noqa: E402
import jordanform.cli  # noqa: E402
import jordanform.verify  # noqa: E402

PACKAGE = Path(jordanform.__file__).resolve().parent


def _jordan(case, matrix) -> None:
    jordanform.jordan_decomposition(matrix)


def _spectrum(case, matrix) -> None:
    try:
        jordanform.spectrum(matrix)
    except jordanform.SpectrumNotRepresentable:
        if case.cubic is None:
            raise


def in_process(call):
    def run(cases) -> cProfile.Profile:
        matrices = [jordanform.ExactMatrix.from_rows(case.cells()) for case in cases]
        profile = cProfile.Profile()
        for case, matrix in zip(cases, matrices):
            profile.runcall(call, case, matrix)
        return profile

    return run


def verify_then_jordan(cases) -> cProfile.Profile:
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as work:
        for index, case in enumerate(cases):
            path = Path(work) / f"case{index:03d}.json"
            path.write_text(json.dumps({"n": case.n, "entries": case.cells()}), encoding="utf-8")
            for command in ("verify", "jordan"):
                argv = [command, str(path), "--format", "json"]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = profile.runcall(jordanform.cli.run, argv)
                if code != 0:
                    raise SystemExit(f"verify-cli {case.describe()}: {command} exited {code}")
    return profile


WORKLOADS = {
    "jordan-lib": in_process(_jordan),
    "verify-cli": verify_then_jordan,
    "spectrum-roots": in_process(_spectrum),
}


def calls(profile: cProfile.Profile) -> dict:
    """Calls of each package function, by its pstats name ``file:line(name)``."""
    return {
        f"{Path(file).name}:{line}({name})": stats[1]
        for (file, line, name), stats in pstats.Stats(profile).stats.items()
        if Path(file).resolve().parent == PACKAGE
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[1],
                        help="corpus seeds, one round each (default: 1)")
    args = parser.parse_args(argv)
    for name, run in WORKLOADS.items():
        cases = [case for seed in args.seed for case in corpus.WORKLOADS[name](seed, 1)]
        counts = calls(run(cases))
        print(f"{name}: {len(cases)} cases, seeds {' '.join(map(str, args.seed))}")
        for label, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
            print(f"{count / len(cases):12.2f}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
