"""Determinant-free eigenvalue discovery inside Q(i).

The minimal polynomial is assembled as the lcm of the Krylov annihilators
of the standard basis vectors (a spanning family, so the lcm annihilates
the whole space), and its roots are extracted exactly: divisor-based
candidate enumeration, then the quadratic formula for a leftover quadratic.
Anything that resists is reported, never approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import (
    IncompleteSpectrum,
    InternalInvariantViolation,
    InvalidProvidedEigenvalue,
    SpectrumNotRepresentable,
)
from .matrices import ExactMatrix, krylov_annihilator, rank, shift_by
from .polynomials import Polynomial, poly_gcd, poly_lcm
from .scalars import ONE, ZERO, GaussianRational, format_scalar, gaussian_sqrt


class SpectrumEntry(NamedTuple):
    eigenvalue: GaussianRational
    multiplicity: int
    geometric_dim: int
    max_stage: int


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in canonical (re, im) order with their dimension data.

    multiplicity is the dimension of the generalized eigenspace,
    geometric_dim the dimension of the eigenspace, and max_stage the power
    at which the kernel ladder of (A - lambda*I)^k stabilizes.
    """

    entries: Tuple[SpectrumEntry, ...]

    def eigenvalues(self) -> List[GaussianRational]:
        return [entry.eigenvalue for entry in self.entries]

    def multiplicity_pairs(self) -> Tuple[Tuple[GaussianRational, int], ...]:
        return tuple((e.eigenvalue, e.multiplicity) for e in self.entries)


def minimal_polynomial(matrix: ExactMatrix) -> Polynomial:
    """Least-degree monic annihilator of the whole space."""
    n = matrix.rows
    result = krylov_annihilator(matrix, ExactMatrix.basis_vector(n, 0))
    for index in range(1, n):
        if result.degree == n:
            break
        result = poly_lcm(
            result, krylov_annihilator(matrix, ExactMatrix.basis_vector(n, index))
        )
    return result.monic()


def poly_apply(poly: Polynomial, matrix: ExactMatrix) -> ExactMatrix:
    """Evaluate a polynomial at a square matrix (Horner)."""
    n = matrix.rows
    result = ExactMatrix.zeros(n, n)
    identity = ExactMatrix.identity(n)
    for coefficient in reversed(poly.coefficients):
        result = result * matrix + identity * coefficient
    return result


def _integer_divisors(value: int) -> List[int]:
    value = abs(value)
    small, large = [], []
    d = 1
    while d * d <= value:
        if value % d == 0:
            small.append(d)
            if d != value // d:
                large.append(value // d)
        d += 1
    return small + large[::-1]


def _gaussian_divisors(re: int, im: int) -> List[Tuple[int, int]]:
    """Divisors of re + im*i in Z[i] (all associates included)."""
    norm = re * re + im * im
    found: Set[Tuple[int, int]] = set()
    for d in _integer_divisors(norm):
        for x in range(math.isqrt(d) + 1):
            y_sq = d - x * x
            y = math.isqrt(y_sq)
            if y * y != y_sq:
                continue
            for cand in {(x, y), (x, -y), (-x, y), (-x, -y)}:
                cx, cy = cand
                if cx == 0 and cy == 0:
                    continue
                # (re + im*i) / (cx + cy*i) must land in Z[i].
                qr = re * cx + im * cy
                qi = im * cx - re * cy
                if qr % d == 0 and qi % d == 0:
                    found.add(cand)
    return sorted(found)


def _cleared_coefficients(poly: Polynomial) -> List[Tuple[int, int]]:
    scale = 1
    for c in poly.coefficients:
        scale = scale * c.re.denominator // math.gcd(scale, c.re.denominator)
        scale = scale * c.im.denominator // math.gcd(scale, c.im.denominator)
    return [
        (int(c.re * scale), int(c.im * scale)) for c in poly.coefficients
    ]


def _root_candidates(poly: Polynomial) -> List[GaussianRational]:
    """Every possible root of poly in Q(i), by divisor enumeration.

    For real coefficients the classical candidates p/q (p dividing the
    constant, q the leading coefficient, both signs) suffice for the
    rational roots; non-real coefficients get the same theorem over Z[i],
    with unit multiples folded in.
    """
    cleared = _cleared_coefficients(poly)
    constant, leading = cleared[0], cleared[-1]
    candidates: Set[GaussianRational] = set()
    if all(im == 0 for _, im in cleared):
        for p in _integer_divisors(constant[0]):
            for q in _integer_divisors(leading[0]):
                candidates.add(GaussianRational(Fraction(p, q)))
                candidates.add(GaussianRational(Fraction(-p, q)))
    else:
        units = (ONE, -ONE, GaussianRational(0, 1), GaussianRational(0, -1))
        for pr, pi in _gaussian_divisors(*constant):
            top = GaussianRational(pr, pi)
            for qr, qi in _gaussian_divisors(*leading):
                quotient = top / GaussianRational(qr, qi)
                for unit in units:
                    candidates.add(quotient * unit)
    return sorted(candidates)


def _deflate(work: Polynomial, root: GaussianRational) -> Tuple[Polynomial, int]:
    """Divide (z - root) out of work as often as it goes; returns the count."""
    count = 0
    while work.degree >= 1 and work(root).is_zero():
        work = work.exact_div(Polynomial([-root, ONE]))
        count += 1
    return work, count


def _square_free_roots(work: Polynomial) -> List[GaussianRational]:
    """The distinct roots of a monic leftover factor, found by the quadratic
    formula (through gaussian_sqrt) on its square-free part
    work / gcd(work, work'), which has degree 2 for a repeated conjugate pair
    such as (z^2 + 1)^2.  Raises SpectrumNotRepresentable carrying work
    itself when that part has degree above 2 or roots outside Q(i)."""
    derivative = Polynomial([k * c for k, c in enumerate(work.coefficients)][1:])
    core = work // poly_gcd(work, derivative)
    if core.degree == 1:
        return [-core.coefficients[0]]
    if core.degree == 2:  # square-free, so the two roots are distinct
        half_b = core.coefficients[1] / 2
        discriminant_root = gaussian_sqrt(half_b * half_b - core.coefficients[0])
        if discriminant_root is not None:
            return [-half_b + discriminant_root, -half_b - discriminant_root]
    raise SpectrumNotRepresentable(work)


def poly_roots_exact(
    poly: Polynomial,
) -> List[Tuple[GaussianRational, int]]:
    """All roots of poly inside Q(i), with multiplicities, canonically sorted.

    The procedure: strip roots at zero, run the divisor-based candidate
    enumeration against the cleared constant and leading coefficients and
    deflate every hit to exhaustion, then close a remaining factor whose
    square-free part is quadratic with the quadratic formula through
    gaussian_sqrt.  Any other leftover raises SpectrumNotRepresentable
    carrying the resistant factor.
    """
    if poly.degree < 1:
        raise ValueError("poly_roots_exact needs degree >= 1")
    roots: List[Tuple[GaussianRational, int]] = []
    work = poly.monic()
    zero_count = 0
    while work.degree >= 1 and work.coefficients[0].is_zero():
        work = Polynomial(work.coefficients[1:])
        zero_count += 1
    if zero_count:
        roots.append((ZERO, zero_count))
    if work.degree >= 1:
        for candidate in _root_candidates(work):
            work, count = _deflate(work, candidate)
            if count:
                roots.append((candidate, count))
            if work.degree == 0:
                break
    if work.degree >= 1:
        for root in _square_free_roots(work):
            work, count = _deflate(work, root)
            roots.append((root, count))
    return sorted(roots)


def spectrum_with_ladders(
    matrix: ExactMatrix,
    provided: Optional[Sequence[GaussianRational]] = None,
) -> Tuple[Spectrum, tuple]:
    """spectrum() plus the stage ladders it was derived from.

    The pipeline stages need both and the ladders are the expensive part,
    so this keeps them from being computed twice.
    """
    from .decomp import stage_ladder  # deferred: decomp builds on this module

    if not matrix.is_square():
        raise InvalidProvidedEigenvalue("spectrum of a non-square matrix")
    n = matrix.rows
    if provided is None:
        lambdas = [root for root, _ in poly_roots_exact(minimal_polynomial(matrix))]
        for lam in lambdas:
            if rank(shift_by(matrix, lam)) == n:
                raise InternalInvariantViolation(
                    f"minimal polynomial root {format_scalar(lam)} is not an eigenvalue"
                )
    else:
        lambdas = []
        for candidate in provided:
            if candidate in lambdas:
                raise InvalidProvidedEigenvalue(
                    f"duplicate eigenvalue {format_scalar(candidate)}"
                )
            if rank(shift_by(matrix, candidate)) == n:
                raise InvalidProvidedEigenvalue(
                    f"{format_scalar(candidate)} is not an eigenvalue: "
                    "A - (value)I has full rank"
                )
            lambdas.append(candidate)
    entries = []
    ladders = []
    for lam in sorted(lambdas):
        ladder = stage_ladder(matrix, lam)
        dims = ladder.dims()
        entries.append(SpectrumEntry(lam, dims[-1], dims[0], ladder.max_stage))
        ladders.append(ladder)
    total = sum(entry.multiplicity for entry in entries)
    if total != n:
        raise IncompleteSpectrum(
            f"eigenvalue multiplicities cover {total} of {n} dimensions"
        )
    return Spectrum(tuple(entries)), tuple(ladders)


def spectrum(
    matrix: ExactMatrix,
    provided: Optional[Sequence[GaussianRational]] = None,
) -> Spectrum:
    """The full spectrum with multiplicities, geometric dimensions and stages.

    Without provided eigenvalues, the distinct roots of the minimal
    polynomial are used.  With them, every candidate is validated
    (A - lambda*I must lose rank), duplicates are rejected, and the
    multiplicities must cover the full dimension.
    """
    return spectrum_with_ladders(matrix, provided)[0]


def find_eigenvalue(matrix: ExactMatrix) -> GaussianRational:
    """The canonically smallest eigenvalue of the matrix."""
    if matrix.rows == 0:
        raise ValueError("find_eigenvalue needs n >= 1")
    return spectrum(matrix).entries[0].eigenvalue
