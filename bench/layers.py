"""Layer timings taken from outside the package.

Two tools, both used only by the traced run (``--trace 1``):

* ``Spans`` wraps named package functions, wherever a ``jordanform``
  module binds them, and sums the wall time spent inside each.  The traced run uses it for shares of case time, such as the
  share spent in root finding.
* ``probe`` calls each layer's public functions once on one workload input
  and records the wall time of each call under the per-layer metric names.

Nothing here edits the package's files; wrappers live in this process only.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

import oracle

# Functions whose time the traced run reports as a share of case time.
SHARE_SPANS = {
    "trace.roots_share": "poly_roots_exact",
    "trace.spectrum_share": "spectrum_with_ladders",
}

# Per-layer metrics in the order they are printed, with their units.
PROBE_UNITS = {
    "scalars.mul_us": "us",
    "scalars.add_us": "us",
    "scalars.parse_us": "us",
    "scalars.format_us": "us",
    "polynomials.lcm_ms": "ms",
    "matrices.rref_ms": "ms",
    "matrices.nullspace_ms": "ms",
    "matrices.krylov_ms": "ms",
    "matrices.inverse_ms": "ms",
    "matrices.complete_basis_ms": "ms",
    "matrices.matmul_ms": "ms",
    "spectral.minpoly_ms": "ms",
    "spectral.roots_ms": "ms",
    "spectral.spectrum_ms": "ms",
    "decomp.ladder_ms": "ms",
    "decomp.chains_ms": "ms",
    "decomp.schur_ms": "ms",
    "decomp.blockdiag_ms": "ms",
    "decomp.blocktri_ms": "ms",
    "decomp.jordan_ms": "ms",
    "decomp.v_bits_max": "bits",
    "verify.check_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.emit_ms": "ms",
    "cli.startup_s": "s",
}

# The three stages that only verify runs are probed at n <= STAGE_PROBE_MAX_N:
# at n = 16 a single Schur triangularization takes longer than a whole run.
STAGE_PROBE_MAX_N = 8


class Spans:
    """Inclusive wall time per wrapped function name."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start

        return traced

    def install(self, names) -> "Spans":
        """Rebind every package-level binding of the named functions."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "jordanform" or key.startswith("jordanform.")
        ]
        wrappers = {}
        for module in modules:
            for name in names:
                function = getattr(module, name, None)
                if not callable(function):
                    continue
                if id(function) not in wrappers:
                    wrappers[id(function)] = self._wrap(name, function)
                setattr(module, name, wrappers[id(function)])
        return self


def _timed(samples: Dict[str, List[float]], metric: str, scale: float, call, *args):
    start = time.perf_counter()
    try:
        return call(*args)
    finally:
        samples[metric].append((time.perf_counter() - start) * scale)


def _per_call_us(call, values, repeats: int = 3) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    batches = []
    for _ in range(repeats):
        start = time.perf_counter()
        for value in values:
            call(*value)
        batches.append((time.perf_counter() - start) * 1e6 / len(values))
    return statistics.median(batches)


def probe(jf, samples: Dict[str, List[float]], matrix, cells, text: str,
          eigenvalues, representable: bool) -> None:
    """Time each layer's public functions once on one input.

    ``eigenvalues`` are the planted ones (package scalars, at least one);
    stages get them as provided eigenvalues, so their timings exclude root
    finding, which ``spectral.roots_ms`` and ``spectral.spectrum_ms`` cover.
    """
    n = matrix.rows
    ms = 1e3
    lam = eigenvalues[0]
    shifted = jf.shift_by(matrix, lam)
    _timed(samples, "matrices.rref_ms", ms, jf.rref, shifted)
    kernel = _timed(samples, "matrices.nullspace_ms", ms, jf.nullspace_basis, shifted)
    first = _timed(samples, "matrices.krylov_ms", ms, jf.krylov_annihilator,
                   matrix, jf.ExactMatrix.basis_vector(n, 0))
    second = jf.krylov_annihilator(matrix, jf.ExactMatrix.basis_vector(n, n - 1))
    _timed(samples, "polynomials.lcm_ms", ms, jf.poly_lcm, first, second)
    # An integer above every planted real part is never an eigenvalue.
    outside = 1 + max(abs(oracle.parse(jf.format_scalar(v))[0]) for v in eigenvalues)
    _timed(samples, "matrices.inverse_ms", ms, jf.inverse,
           jf.shift_by(matrix, jf.parse_scalar(str(int(outside)))))
    _timed(samples, "matrices.complete_basis_ms", ms, jf.complete_basis,
           jf.Basis(n, (kernel.vectors[0],)))
    square = _timed(samples, "matrices.matmul_ms", ms, matrix.__mul__, matrix)
    minpoly = _timed(samples, "spectral.minpoly_ms", ms, jf.minimal_polynomial, matrix)
    try:
        _timed(samples, "spectral.roots_ms", ms, jf.poly_roots_exact, minpoly)
        _timed(samples, "spectral.spectrum_ms", ms, jf.spectrum, matrix)
    except jf.SpectrumNotRepresentable:
        if representable:
            raise
    _timed(samples, "cli.parse_ms", ms,
           lambda: jf.cli.document_to_matrix(json.loads(text)))

    entries = [matrix[i, j] for i in range(n) for j in range(n)]
    products = [square[i, j] for i in range(n) for j in range(n)]
    pairs = list(zip(entries, products))
    samples["scalars.mul_us"].append(_per_call_us(lambda x, y: x * y, pairs))
    samples["scalars.add_us"].append(_per_call_us(lambda x, y: x + y, pairs))
    strings = [(cell,) for row in cells for cell in row]
    samples["scalars.parse_us"].append(_per_call_us(jf.parse_scalar, strings))
    samples["scalars.format_us"].append(
        _per_call_us(jf.format_scalar, [(x,) for x in entries + products]))

    if not representable:
        return
    ladder = _timed(samples, "decomp.ladder_ms", ms, jf.stage_ladder, matrix, lam)
    _timed(samples, "decomp.chains_ms", ms, jf.jordan_chains, matrix, ladder)
    decomposition = _timed(samples, "decomp.jordan_ms", ms,
                           jf.jordan_decomposition, matrix, eigenvalues)
    samples["decomp.v_bits_max"].append(
        oracle.bit_length(decomposition.V.entries_str()))
    _timed(samples, "verify.check_ms", ms, jf.check_decomposition, matrix, decomposition)
    _timed(samples, "cli.emit_ms", ms,
           lambda: json.dumps(jf.cli.decomposition_to_document(decomposition), indent=2))
    if n <= STAGE_PROBE_MAX_N:
        _timed(samples, "decomp.schur_ms", ms, jf.trigonalize, matrix, eigenvalues)
        _timed(samples, "decomp.blockdiag_ms", ms, jf.block_diagonalize, matrix, eigenvalues)
        _timed(samples, "decomp.blocktri_ms", ms, jf.blockwise_trigonalize, matrix, eigenvalues)


def summarize(samples: Dict[str, List[float]]) -> Dict[str, dict]:
    """Median per metric; the bit size is a maximum, not a median."""
    out = {}
    for metric, unit in PROBE_UNITS.items():
        values = samples.get(metric)
        if not values:
            raise RuntimeError(f"no probe produced {metric}")
        value = max(values) if metric == "decomp.v_bits_max" else statistics.median(values)
        out[metric] = {"value": value, "unit": unit}
    return out
