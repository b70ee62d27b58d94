"""Determinant-free eigenvalue discovery inside Q(i), and the kernel ladders.

The eigenvalues are the roots of the characteristic polynomial, taken
factor by factor from one Krylov pass (``matrices.krylov_factors``) and
extracted exactly by a search over Z[i] in integer arithmetic: a factor,
cleared to a monic polynomial over the Gaussian integers, has the roots of
its square-free part modulo a split prime Hensel-lifted and recovered by
Gaussian rounding, and every candidate is checked exactly.  This finds
every root in Q(i); a factor without one is reported, never approximated,
and the factor reported is the minimal polynomial less the roots found:
a factor's rootless rest when no other factor keeps one, else from a second
Krylov pass (``matrices.minimal_polynomial``).  The factors also give each
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

import math
from collections import Counter
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    IncompleteSpectrum,
    InternalInvariantViolation,
    InvalidProvidedEigenvalue,
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
from .polynomials import Polynomial, _divide, _gcd, _integral, _rational
from .scalars import GaussianRational, _coerce, _reduced, format_scalar


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


def _split_primes() -> Iterator[int]:
    """The primes p = 1 (mod 4) in increasing order: those that split in Z[i]."""
    p = 5
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 4


def _value_and_slope(
    coefficients: Sequence[int], x: int, modulus: int
) -> Tuple[int, int]:
    """g(x) and g'(x) modulo modulus, in one Horner pass."""
    value = slope = 0
    for c in reversed(coefficients):
        slope = (slope * x + value) % modulus
        value = (value * x + c) % modulus
    return value, slope


def _simple_roots_mod(coefficients: Sequence[int], p: int) -> Optional[List[Tuple[int, int]]]:
    """Each root x of g modulo the prime p with 1/g'(x) mod p, or None when one is repeated."""
    roots = []
    for x in range(p):
        value, slope = _value_and_slope(coefficients, x, p)
        if value == 0:
            if slope == 0:
                return None
            roots.append((x, pow(slope, -1, p)))
    return roots


def _gaussian_integer_roots(g: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """A list of Gaussian integers holding every root in Z[i] of g, a monic
    square-free polynomial over Z[i] given as (re, im) pairs, ascending.

    For a prime p = 1 (mod 4), iota^2 = -1 (mod p^k) and pi = gcd(p, iota - i),
    Z[i]/pi^k is Z/p^k with i sent to iota.  The roots of g modulo pi are
    found by trying every residue, at the first p where all are simple, and
    Newton-lifted together with iota until p^k > 8 B^2, B the Cauchy bound of
    g.  A lift from m to m^2 needs the inverses of 2*iota and of the slopes
    only modulo m: carried over, each takes one Newton step inv*(2 - s*inv).
    The multiples of pi^k form a square lattice whose shortest vector is
    p^(k/2) > 2B long, so a root of g, of modulus at most B, is the Gaussian
    rounding remainder of its lifted residue modulo pi^k.
    """
    bound = 2 + max(math.isqrt(a * a + b * b) for a, b in g[:-1])
    for p in _split_primes():
        iota = next(x for x in range(2, p) if (x * x + 1) % p == 0)
        residues = _simple_roots_mod([(a + b * iota) % p for a, b in g], p)
        if residues is not None:
            break
    # pi = u + v*i with u^2 + v^2 = p (Fermat: p = 1 mod 4 is such a sum,
    # so u stays below sqrt(p)) and u + v*iota = 0 (mod p).
    u = next(u for u in range(1, p) if math.isqrt(p - u * u) ** 2 == p - u * u)
    v = math.isqrt(p - u * u)
    if (u + v * iota) % p:
        v = -v
    half = pow(2 * iota, -1, p)
    modulus = p
    while residues and modulus <= 8 * bound * bound:
        old, modulus = modulus, modulus * modulus
        half = half * (2 - 2 * iota * half) % old
        iota = (iota - (iota * iota + 1) * half) % modulus
        u, v = u * u - v * v, 2 * u * v  # pi^k squared, of norm p^(2k)
        coefficients = [(a + b * iota) % modulus for a, b in g]
        for k, (x, inverse) in enumerate(residues):
            value, slope = _value_and_slope(coefficients, x, modulus)
            inverse = inverse * (2 - slope * inverse) % old
            residues[k] = ((x - value * inverse) % modulus, inverse)
    roots = []
    for x, _ in residues:
        # x - (u + v*i)*q, q the nearest Gaussian integer to x/(u + v*i).
        qu = (2 * x * u + modulus) // (2 * modulus)
        qv = (modulus - 2 * x * v) // (2 * modulus)
        roots.append((x - u * qu + v * qv, -u * qv - v * qu))
    return roots


def poly_roots_exact(poly: Polynomial) -> Tuple[List[Tuple[GaussianRational, int]], Polynomial]:
    """The roots of poly inside Q(i), with multiplicities, canonically
    sorted, and the monic rest of poly once they are divided out, which has
    no root in Q(i): the constant 1 when poly splits over Q(i).

    A linear z + c has the root -c.  Any other poly is worked on as one
    polynomial over Z[i] (``polynomials._integral``): with c the lcm of the
    denominators of f = poly / lead, G(y) = c^d f(y/c) is monic with roots
    beta = c * root.  gcd(G, G') is monic in Z[i][y] by Gauss's lemma and
    found by pseudo-remainders (``polynomials._gcd``), so S = G / gcd(G, G')
    is exact.  S is searched (_gaussian_integer_roots), and each candidate is
    divided out of G while the remainder is 0, which counts its multiplicity
    m: as m - 1 is its multiplicity in gcd(G, G'), no more than
    1 + deg gcd(G, G') tries.  Scalars are built only for the roots and the
    rest.
    """
    if poly.degree < 1:
        raise ValueError("poly_roots_exact needs degree >= 1")
    work = poly.monic()
    if work.degree == 1:
        return [(-work.coefficients[0], 1)], Polynomial([1])
    scale, (g,) = _integral(work)
    a = _gcd(g, [(k * x, k * y) for k, (x, y) in enumerate(g)][1:])
    roots: List[Tuple[GaussianRational, int]] = []
    for u, v in _gaussian_integer_roots(_divide(g, a)[0]):
        count = 0
        while count < len(a) and not (division := _divide(g, [(-u, -v), (1, 0)]))[1]:
            g, count = division[0], count + 1
        if count:
            roots.append((_reduced(u, v, scale), count))
    return sorted(roots), _rational(g, scale)


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
    return sorted(counts.items())


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
    an eigenvalue has, an InternalInvariantViolation."""
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


def find_eigenvalue(matrix: ExactMatrix) -> GaussianRational:
    """The canonically smallest eigenvalue of the matrix, with no kernel built."""
    return _eigenvalues(matrix)[0][0]
