"""Exact Jordan decompositions over the Gaussian rationals.

A = V * J * V^-1 computed with arbitrary-precision rational arithmetic:
triangularization, generalized-eigenspace block diagonalization, blockwise
triangularization, and the canonical Jordan form, plus structural checks
and a round-trip test-case generator.

The public names load on first use (PEP 562), so a command-line call
imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "Block": "decomp",
    "Decomposition": "decomp",
    "JordanChain": "decomp",
    "block_diagonalize": "decomp",
    "blockwise_trigonalize": "decomp",
    "jordan_chains": "decomp",
    "jordan_decomposition": "decomp",
    "jordan_matrix": "decomp",
    "trigonalize": "decomp",
    "DependentInput": "errors",
    "DimensionMismatch": "errors",
    "IncompleteSpectrum": "errors",
    "InternalInvariantViolation": "errors",
    "InvalidProvidedEigenvalue": "errors",
    "InvalidStructure": "errors",
    "JordanFormError": "errors",
    "NotAnEigenvalue": "errors",
    "ParseError": "errors",
    "SingularMatrix": "errors",
    "SpectrumNotRepresentable": "errors",
    "ZeroDenominator": "errors",
    "ZeroVector": "errors",
    "Basis": "matrices",
    "ExactMatrix": "matrices",
    "complete_basis": "matrices",
    "inverse": "matrices",
    "krylov_annihilator": "matrices",
    "minimal_polynomial": "matrices",
    "nullspace_basis": "matrices",
    "rank": "matrices",
    "rref": "matrices",
    "shift_by": "matrices",
    "Polynomial": "polynomials",
    "format_polynomial": "polynomials",
    "poly_gcd": "polynomials",
    "poly_lcm": "polynomials",
    "poly_roots_exact": "polynomials",
    "GaussianRational": "scalars",
    "format_scalar": "scalars",
    "parse_scalar": "scalars",
    "Spectrum": "spectral",
    "SpectrumEntry": "spectral",
    "StageLadder": "spectral",
    "poly_apply": "spectral",
    "spectrum": "spectral",
    "stage_ladder": "spectral",
    "CheckReport": "verify",
    "CheckResult": "verify",
    "JordanStructure": "verify",
    "check_decomposition": "verify",
    "elementary_conjugator": "verify",
    "exhaustive_structures": "verify",
    "generate_case": "verify",
    "parse_structure": "verify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
