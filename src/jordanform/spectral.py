"""Determinant-free eigenvalue discovery inside Q(i), and the kernel ladders.

The eigenvalues are the roots of the characteristic polynomial, taken
factor by factor from one Krylov pass (``matrices.krylov_factors``) and
found exactly by ``polynomials.poly_roots_exact``, which finds every root in
Q(i).  A factor without one is reported, never approximated, and the factor
reported is the minimal polynomial less the roots found: a factor's rootless
rest when no other factor keeps one, else from a second Krylov pass
(``matrices.minimal_polynomial``).  The factors also give each
eigenvalue's algebraic multiplicity m, which bounds its stage ladder, the
nested kernels of (A - lambda*I)^k: the ladder stops at dimension m, and
``spectrum`` builds none for m <= 3, where one rank fixes the partition.  A
ladder costs one n-row elimination whatever its length
(``matrices.kernel_ladder``), and the ladders are all a decomposition stage
reads.  A provided list of eigenvalues replaces no part of the search: it is
checked against the roots found, which give each value its multiplicity,
and a rootless rest is reported with or without a list.
"""

from __future__ import annotations

from collections import Counter
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    IncompleteSpectrum,
    InternalInvariantViolation,
    InvalidProvidedEigenvalue,
    InvalidStructure,
    NotAnEigenvalue,
    SpectrumNotRepresentable,
)
from .matrices import (
    Basis,
    ExactMatrix,
    kernel_ladder,
    krylov_factors,
    minimal_polynomial,
    rank,
    shift_by,
)
from .polynomials import Polynomial, poly_roots_exact
from .scalars import GaussianRational, _coerce, format_scalar, is_int


class SpectrumEntry(NamedTuple):
    eigenvalue: GaussianRational
    multiplicity: int
    geometric_dim: int
    max_stage: int


class Spectrum(NamedTuple):
    """Eigenvalues in canonical (re, im) order with their dimension data.

    multiplicity is the dimension of the generalized eigenspace,
    geometric_dim the dimension of the eigenspace, and max_stage the power
    at which the kernel ladder of (A - lambda*I)^k stabilizes.
    """

    entries: Tuple[SpectrumEntry, ...]


def poly_apply(poly: Polynomial, matrix: ExactMatrix) -> ExactMatrix:
    """Evaluate a polynomial at a square matrix (Horner)."""
    n = matrix.rows
    result = ExactMatrix.zeros(n, n)
    identity = ExactMatrix.identity(n)
    for coefficient in reversed(poly.coefficients):
        result = result * matrix + identity * coefficient
    return result


def _eigenvalues(
    matrix: ExactMatrix, provided: Optional[Sequence[GaussianRational]] = None
) -> List[Tuple[GaussianRational, int]]:
    """The distinct roots in Q(i) of the characteristic polynomial, sorted,
    each with its multiplicity, summed over the roots every Krylov factor
    has (poly_roots_exact).  A provided list is checked against those sums:
    walking it in its given order, a repeat, or a value that is no root, is
    rejected; then a root found but not provided is IncompleteSpectrum.
    When a factor keeps a part without roots, the minimal polynomial mu,
    less the roots, is the factor SpectrumNotRepresentable reports.  Every
    factor divides mu and mu divides their product, so when one factor
    alone keeps a rootless rest r, mu's rootless part is r; only two or more
    such rests take a second pass for mu."""
    if provided is not None:
        provided = [_coerce(value, "provided eigenvalue") for value in provided]
    counts: Counter[GaussianRational] = Counter()
    rests = []
    for factor in krylov_factors(matrix):
        found, rest = poly_roots_exact(factor)
        counts.update(dict(found))
        if rest.degree >= 1:
            rests.append(rest)
    for k, lam in enumerate(provided or ()):
        if provided.index(lam) < k:
            raise InvalidProvidedEigenvalue(f"duplicate eigenvalue {format_scalar(lam)}")
        if not counts[lam]:
            raise InvalidProvidedEigenvalue(
                f"{format_scalar(lam)} is not an eigenvalue: A - (value)I has full rank"
            )
    if provided is not None and len(counts) > len(provided):
        total = sum(counts[lam] for lam in provided)
        raise IncompleteSpectrum(
            f"eigenvalue multiplicities cover {total} of {matrix.rows} dimensions"
        )
    if rests:
        raise SpectrumNotRepresentable(
            rests[0] if len(rests) == 1 else poly_roots_exact(minimal_polynomial(matrix))[1]
        )
    return sorted(counts.items(), key=lambda item: item[0])


class StageLadder(NamedTuple):
    """The nested kernels of (A - lambda*I)^k for k = 1..L.

    stage_bases[k-1] is the canonical basis of the k-th kernel; dimensions
    grow strictly until they stabilize at stage L, whose kernel is the
    generalized eigenspace.
    """

    eigenvalue: GaussianRational
    stage_bases: Tuple[Basis, ...]

    @property
    def max_stage(self) -> int:
        return len(self.stage_bases)

    @property
    def top(self) -> Basis:
        return self.stage_bases[-1]

    def dims(self) -> List[int]:
        return [basis.dimension for basis in self.stage_bases]


def _root_without_eigenvector(eigenvalue: GaussianRational) -> InternalInvariantViolation:
    return InternalInvariantViolation(
        f"characteristic polynomial root {format_scalar(eigenvalue)} is not an eigenvalue"
    )


def stage_ladder(matrix: ExactMatrix, eigenvalue: GaussianRational,
                 multiplicity: Optional[int] = None) -> StageLadder:
    """Kernel ladder of (A - lambda*I)^k from one elimination of
    [A - lambda*I | I] (``matrices.kernel_ladder``), stopping at
    stabilization, or on reaching dimension multiplicity when given, which
    saves the step that finds no growth; never past k = n.  A
    trivial kernel is NotAnEigenvalue, or, with a multiplicity, which only
    an eigenvalue has, an InternalInvariantViolation.  A multiplicity that is
    not an integer >= 1 is InvalidStructure."""
    if multiplicity is not None and not (is_int(multiplicity) and multiplicity >= 1):
        raise InvalidStructure(f"multiplicity must be an integer >= 1, got {multiplicity!r}")
    eigenvalue = _coerce(eigenvalue, "provided eigenvalue")
    bases = kernel_ladder(shift_by(matrix, eigenvalue), multiplicity)
    if bases[0].dimension == 0:
        if multiplicity is not None:
            raise _root_without_eigenvector(eigenvalue)
        raise NotAnEigenvalue(f"{format_scalar(eigenvalue)} has a trivial eigenspace")
    return StageLadder(eigenvalue, tuple(bases))


def _entry(eigenvalue: GaussianRational, dims: Sequence[int]) -> SpectrumEntry:
    return SpectrumEntry(eigenvalue, dims[-1], dims[0], len(dims))


def _dims(matrix: ExactMatrix, eigenvalue: GaussianRational, multiplicity: int) -> List[int]:
    """The ladder dimensions of an eigenvalue of multiplicity m, read off one
    rank for m = 2 or 3: every partition of m <= 3 is a hook (s, 1, ..., 1),
    fixed by its number of parts g = dim ker (A - lambda*I), and a hook's
    kernel dimensions are g, g + 1, ..., m."""
    if multiplicity == 1:
        return [1]
    if multiplicity > 3:
        return stage_ladder(matrix, eigenvalue, multiplicity).dims()
    geometric = matrix.rows - rank(shift_by(matrix, eigenvalue))
    if geometric == 0:
        raise _root_without_eigenvector(eigenvalue)
    return list(range(geometric, multiplicity + 1))


def spectrum_with_ladders(
    matrix: ExactMatrix,
    provided: Optional[Sequence[GaussianRational]] = None,
) -> Tuple[Spectrum, Tuple[StageLadder, ...]]:
    """spectrum(), read off the stage ladders, and the ladders in its order.

    The ladders are all the decomposition stages read, so a caller that runs
    several stages on one matrix analyses it once.
    """
    ladders = tuple(stage_ladder(matrix, lam, m) for lam, m in _eigenvalues(matrix, provided))
    return Spectrum(tuple(_entry(ladder.eigenvalue, ladder.dims()) for ladder in ladders)), ladders


def spectrum(
    matrix: ExactMatrix,
    provided: Optional[Sequence[GaussianRational]] = None,
) -> Spectrum:
    """The full spectrum with multiplicities, geometric dimensions and stages.

    The eigenvalues are the distinct roots in Q(i) of the Krylov factors of
    the characteristic polynomial, with the multiplicities the factors give;
    when a factor keeps a rootless part, SpectrumNotRepresentable carries the
    minimal polynomial less those roots.  A provided list is checked against
    the roots found: each value must be one of them, which gives its
    multiplicity; a repeated value is rejected, and a root in Q(i) left out
    of the list is IncompleteSpectrum.  A simple eigenvalue's entry is
    (lambda, 1, 1, 1), with no ladder built; one of multiplicity 2 or 3 is
    read off one rank (``_dims``), and from 4 on the stage ladder gives it.
    """
    return Spectrum(tuple(
        _entry(lam, _dims(matrix, lam, m)) for lam, m in _eigenvalues(matrix, provided)
    ))
