"""jordanform benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload jordan-lib --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree; it imports ``jordanform`` from
``src/`` there and nowhere else, and exits with status 2 when that is
missing.

A run does a fixed amount of work: each workload fixes how many whole
rounds of its corpus a run of RUN_SECONDS does, ``--seconds`` scales that
number (at least one round), and no case is ever cut off by the clock, so
every run on every commit does the same cases.  A
round holds one case per template, each with its own seeded input.  Each
case's output is checked by ``oracle`` against what the corpus planted; a
case that raises, or whose output the oracle refuses, makes the run
incorrect.
The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (tracing off).  With
``--trace 1`` the run repeats the cases with spans around root finding and
the spectrum, then probes each layer's public functions on one input per
template, and prints the per-layer metrics; a per-case table goes to
standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
import corpus  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = 30
SETUP_SAMPLES = 15
STARTUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120
CLI_ENV = dict(os.environ, PYTHONPATH=str(SRC))
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"


class CaseFailed(Exception):
    """The program raised or exited nonzero where an answer was expected."""


@dataclass
class Item:
    case: corpus.Case
    cells: List[List[str]]
    text: str  # the matrix document
    matrix: Any = None  # jordanform.ExactMatrix
    path: Optional[Path] = None

    @property
    def representable(self) -> bool:
        return self.case.cubic is None


def fresh_import():
    """Import the package from SRC, dropping any copy already imported."""
    for name in [m for m in sys.modules if m == "jordanform" or m.startswith("jordanform.")]:
        del sys.modules[name]
    jf = importlib.import_module("jordanform")
    importlib.import_module("jordanform.cli")
    if Path(jf.__file__).resolve().parent != SRC / "jordanform":
        raise ImportError(f"jordanform imported from {jf.__file__}, not {SRC}")
    return jf


def prepare(cases: List[corpus.Case], work: Optional[Path]) -> List[Item]:
    """The inputs as cells and documents; with ``work``, also as files."""
    items = []
    for index, case in enumerate(cases):
        cells = case.cells()
        item = Item(case, cells, json.dumps({"n": case.n, "entries": cells}))
        if work is not None:
            item.path = work / f"case{index:03d}.json"
            item.path.write_text(item.text, encoding="utf-8")
        items.append(item)
    return items


def import_s() -> float:
    """Wall time of a new interpreter importing the package and its CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import jordanform.cli"], cwd=ROOT,
                   env=CLI_ENV, capture_output=True, check=True,
                   timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - start


def hand_over(jf, items: List[Item]) -> float:
    """Give every input to the package; returns the seconds it took."""
    start = time.perf_counter()
    for item in items:
        item.matrix = jf.ExactMatrix.from_rows(item.cells)
    return time.perf_counter() - start


def blocks_of(jf, decomposition) -> list:
    return [(jf.format_scalar(b.eigenvalue), b.size) for b in decomposition.blocks]


def planted(jf, item: Item) -> list:
    """The planted eigenvalues as package scalars."""
    return [jf.parse_scalar(oracle.fmt(v)) for v, _ in item.case.structure]


# --- the workloads -----------------------------------------------------------------

class JordanLib:
    """In-process jordan_decomposition, checked by the Fraction oracle."""

    name = "jordan-lib"
    corpus = staticmethod(corpus.jordan_lib)
    rounds = 4  # 20 cases; the median falls among the 12 at n = 12
    uses_files = False

    def run(self, jf, item: Item, spans=None):
        return jf.jordan_decomposition(item.matrix)

    def check(self, jf, item: Item, d) -> None:
        oracle.check_decomposition(item.case.a, d.V.entries_str(), d.M.entries_str(),
                                   blocks_of(jf, d), item.case.structure)


class SpectrumRoots:
    """In-process spectrum(); cubic cases must end in SpectrumNotRepresentable."""

    name = "spectrum-roots"
    corpus = staticmethod(corpus.spectrum_roots)
    rounds = 3
    uses_files = False

    def run(self, jf, item: Item, spans=None):
        try:
            return jf.spectrum(item.matrix)
        except jf.SpectrumNotRepresentable as exc:
            if item.representable:
                raise
            return exc

    def check(self, jf, item: Item, result) -> None:
        if not item.representable:
            if not isinstance(result, jf.SpectrumNotRepresentable):
                raise oracle.OracleError("a spectrum for a matrix with an irrational cubic")
            oracle.check_cubic(str(result.factor), item.case.cubic)
            return
        entries = [(jf.format_scalar(e.eigenvalue), e.multiplicity, e.geometric_dim,
                    e.max_stage) for e in result.entries]
        oracle.check_spectrum(entries, item.case.structure, item.case.quadratics)


# The checks ``verify`` must report, per stage, in order.
STAGE_CHECKS = ["similarity", "invertible", "multiplicity-sum", "shape", "trace"]
VERIFY_CHECKS = {
    "schur": STAGE_CHECKS,
    "blockdiag": STAGE_CHECKS,
    "blocktri": STAGE_CHECKS,
    "jordan": STAGE_CHECKS + ["chain-counts"],
}


class VerifyCli:
    """``verify`` then ``jordan`` on the same file, one subprocess at a time.

    The ``verify`` report must list every check of every stage, passed.
    ``verify`` prints no matrices, so the check also computes the schur,
    blockdiag and blocktri stages in-process, untimed, for the oracle.  It
    gives them the planted eigenvalues: the spectrum they would otherwise
    recompute is the one the ``jordan`` output already shows to the oracle,
    and skipping it takes about 40% off the check.
    """

    name = "verify-cli"
    corpus = staticmethod(corpus.verify_cli)
    rounds = 4  # 28 cases; the median falls among the 12 at n = 6
    uses_files = True

    def run(self, jf, item: Item, spans=None):
        outputs = []
        for command in ("verify", "jordan"):
            argv = ["-m", "jordanform"]
            if spans is not None:
                argv = [str(TRACED_CLI), str(spans)]
            done = subprocess.run(
                [sys.executable, *argv, command, str(item.path), "--format", "json"],
                cwd=ROOT, env=CLI_ENV, capture_output=True, text=True,
                timeout=SUBPROCESS_TIMEOUT_S,
            )
            if done.returncode != 0:
                raise CaseFailed(f"{command} exited {done.returncode}: {done.stderr.strip()}")
            outputs.append(done.stdout)
        return outputs

    def check(self, jf, item: Item, outputs) -> None:
        report = json.loads(outputs[0])
        kinds = [r["kind"] for r in report["reports"]]
        if report["n"] != item.case.n or kinds != list(VERIFY_CHECKS):
            raise oracle.OracleError(f"verify reported n={report['n']}, stages {kinds}")
        for stage in report["reports"]:
            names = [c["name"] for c in stage["checks"]]
            if names != VERIFY_CHECKS[stage["kind"]]:
                raise oracle.OracleError(f"verify: {stage['kind']} reported checks {names}")
            if not stage["passed"] or not all(c["passed"] for c in stage["checks"]):
                raise oracle.OracleError(f"verify: {stage['kind']} failed a check")
        doc = json.loads(outputs[1])
        blocks = [(b["lambda"], b["size"]) for b in doc["blocks"]]
        oracle.check_decomposition(item.case.a, doc["V"]["entries"], doc["M"]["entries"],
                                   blocks, item.case.structure)
        for kind, decompose in (("schur", jf.trigonalize), ("blockdiag", jf.block_diagonalize),
                                ("blocktri", jf.blockwise_trigonalize)):
            d = decompose(item.matrix, planted(jf, item))
            oracle.check_stage(kind, item.case.a, d.V.entries_str(), d.M.entries_str(),
                               blocks_of(jf, d), item.case.structure)


WORKLOADS = {w.name: w for w in (JordanLib(), VerifyCli(), SpectrumRoots())}


# --- one pass over the cases ---------------------------------------------------------

@dataclass
class Pass:
    seconds: List[float]
    attempted: int = 0
    failed: int = 0
    correct: bool = True


def run_cases(jf, workload, items: List[Item], spans=None, on_case=None,
              setups: Optional[List[float]] = None) -> Pass:
    """Time and check every case.  With ``setups``, also time a set-up
    (a fresh import plus the hand-over) before SETUP_SAMPLES cases evenly
    spaced (before every case in a shorter run), so that the samples spread
    over the whole run rather than one phase of a machine whose speed
    drifts."""
    result = Pass([])
    marks = {k * len(items) // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
    for index, item in enumerate(items):
        if setups is not None and index in marks:
            setups.append(import_s() + hand_over(jf, items))
        result.attempted += 1
        start = time.perf_counter()
        try:
            output = workload.run(jf, item, spans)
        except (jf.JordanFormError, CaseFailed, subprocess.TimeoutExpired) as exc:
            # Every input has a planted answer the program can represent
            # (cubic cases catch their SpectrumNotRepresentable in run()),
            # so a raise is a wrong result, never an expected outcome.
            result.seconds.append(time.perf_counter() - start)
            result.failed += 1
            result.correct = False
            print(f"{item.case.name}: failed: {exc}", file=sys.stderr)
            continue
        result.seconds.append(time.perf_counter() - start)
        try:
            workload.check(jf, item, output)
        except (oracle.OracleError, KeyError, ValueError) as exc:
            result.correct = False
            print(f"{item.case.name}: wrong output: {exc}", file=sys.stderr)
        if on_case is not None:
            on_case(item, result.seconds[-1])
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(done: Pass, setup: float, children: bool) -> dict:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "cases_per_s": metric(done.attempted / sum(done.seconds), "1/s"),
        "case_s.p50": metric(statistics.median(done.seconds), "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def cli_help_s() -> float:
    """Wall time of ``python -m jordanform --help``: start, import, exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "jordanform", "--help"], cwd=ROOT,
                   env=CLI_ENV, capture_output=True, check=True,
                   timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - start


def traced(jf, workload, items: List[Item], work: Path) -> tuple:
    """Cases again with spans on, then the layer probes."""
    names = list(layers.SHARE_SPANS.values())
    roots = layers.SHARE_SPANS["trace.roots_share"]
    if workload.uses_files:
        span_file = work / "spans.json"
        span_file.write_text("{}", encoding="utf-8")
        spans = span_file
        current = lambda: defaultdict(float, json.loads(span_file.read_text(encoding="utf-8")))
    else:
        recorder = layers.Spans().install(names)
        spans = None
        current = lambda: recorder.seconds
    rows = []
    last = [0.0]

    def on_case(item, s):
        now = current()[roots]
        rows.append((item, s, now - last[0]))
        last[0] = now

    done = run_cases(jf, workload, items, spans=spans, on_case=on_case)
    seconds = current()
    jf = fresh_import()  # drop the wrappers before probing
    total = sum(done.seconds)
    metrics = {"trace.cases_per_s": metric(done.attempted / total, "1/s")}
    for key, name in layers.SHARE_SPANS.items():
        metrics[key] = metric(seconds[name] / total, "ratio")

    samples = defaultdict(list)
    seen = set()
    for item in items:
        if item.case.name in seen:
            continue
        seen.add(item.case.name)
        matrix = jf.ExactMatrix.from_rows(item.cells)
        eigenvalues = [jf.parse_scalar(oracle.fmt(v)) for v, _ in item.case.structure]
        layers.probe(jf, samples, matrix, item.cells, item.text, eigenvalues,
                     item.representable)
    samples["cli.startup_s"] = [cli_help_s() for _ in range(STARTUP_REPEATS)]
    metrics.update(layers.summarize(samples))

    print(f"{'case':<18} {'n':>2} {'in_bits':>7} {'case_s':>8} {'roots_share':>11}",
          file=sys.stderr)
    for item, s, in_roots in rows:
        print(f"{item.case.name:<18} {item.case.n:>2} "
              f"{oracle.bit_length(item.cells):>7} {s:>8.3f} {in_roots / s:>11.3f}",
              file=sys.stderr)
    return done, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jordanform" / "__init__.py").is_file():
        print(f"bench: no jordanform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    rounds = max(1, round(workload.rounds * args.seconds / RUN_SECONDS))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        work = Path(tmp)
        # Untimed: the corpus is the benchmark's code, the files its own;
        # the first import and --help leave the bytecode cache a user's
        # first call would.
        items = prepare(workload.corpus(args.seed, rounds),
                        work if workload.uses_files else None)
        jf = fresh_import()
        cli_help_s()
        hand_over(jf, items)

        if args.trace:
            done, metrics = traced(jf, workload, items, work)
        else:
            setups: List[float] = []
            done = run_cases(jf, workload, items, setups=setups)
            metrics = end_to_end(done, statistics.median(setups),
                                 children=workload.uses_files)

    print(json.dumps({
        "correct": done.correct,
        "attempted": done.attempted,
        "failed": done.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
