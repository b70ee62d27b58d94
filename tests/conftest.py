"""Shared helpers: small constructors and seeded random generators.

All randomness in this suite flows through random.Random with explicit
seeds, so every run exercises exactly the same cases.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import same_bytes
from jordanform import (
    Basis,
    ExactMatrix,
    GaussianRational,
    Polynomial,
    check_decomposition,
    elementary_conjugator,
    parse_scalar,
    rank,
)


@pytest.fixture(scope="session")
def transcript() -> same_bytes.Transcript:
    """The same-bytes transcript, run in process through ``cli.run`` once
    for every test that reads it."""
    return same_bytes.record(same_bytes.run_in_process)


def gr(value) -> GaussianRational:
    if isinstance(value, str):
        return parse_scalar(value)
    return GaussianRational(value)


def mat(rows) -> ExactMatrix:
    return ExactMatrix.from_rows(rows)


def col(entries) -> ExactMatrix:
    return ExactMatrix([[gr(x)] for x in entries])


def shape_check(matrix: ExactMatrix, claim):
    """The "shape" entry of check_decomposition's report on claim."""
    return next(r for r in check_decomposition(matrix, claim).results if r.name == "shape")


def from_roots(*roots) -> Polynomial:
    """The monic polynomial with the given roots, repeats counted."""
    result = Polynomial([1])
    for root in roots:
        result = result * Polynomial([-root, 1])
    return result


def norm_sq(x: GaussianRational) -> Fraction:
    """re**2 + im**2, an exact nonnegative rational."""
    return x.re * x.re + x.im * x.im


def as_matrix(basis: Basis) -> ExactMatrix:
    """The basis vectors side by side, n x 0 for the empty basis."""
    if not basis.vectors:
        return ExactMatrix.zeros(basis.ambient_dim, 0)
    return ExactMatrix.hstack(basis.vectors)


def in_span(basis: Basis, vector: ExactMatrix) -> bool:
    return rank(ExactMatrix.hstack([*basis.vectors, vector])) == basis.dimension


def companion_sum(*polys: Polynomial) -> ExactMatrix:
    """The block-diagonal sum of the companion matrices of monic polynomials."""
    n = sum(p.degree for p in polys)
    rows = [[gr(0)] * n for _ in range(n)]
    at = 0
    for p in polys:
        for i in range(p.degree):
            if i:
                rows[at + i][at + i - 1] = gr(1)
            rows[at + i][at + p.degree - 1] = -p.coefficients[i]
        at += p.degree
    return ExactMatrix(rows)


def rand_fraction(rng: random.Random, bound: int = 6) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


def rand_scalar(rng: random.Random, bound: int = 6, gaussian: bool = True) -> GaussianRational:
    re = rand_fraction(rng, bound)
    im = rand_fraction(rng, bound) if gaussian and rng.random() < 0.5 else 0
    return GaussianRational(re, im)


def rand_matrix(rng: random.Random, rows: int, cols: int, bound: int = 4) -> ExactMatrix:
    return ExactMatrix(
        [[rand_scalar(rng, bound) for _ in range(cols)] for _ in range(rows)]
    )


def rand_ranked_matrix(rng: random.Random, rows: int, cols: int) -> ExactMatrix:
    """A matrix whose rank is often deficient: a thin product half the time."""
    if rng.random() < 0.5:
        inner = rng.randint(0, min(rows, cols))
        if inner == 0:
            return ExactMatrix.zeros(rows, cols)
        return rand_matrix(rng, rows, inner) * rand_matrix(rng, inner, cols)
    return rand_matrix(rng, rows, cols)


def derogatory(rng: random.Random, n: int) -> ExactMatrix:
    """lambda*I, or one random block twice on the diagonal (plus a scalar
    when n is odd), conjugated half of the time."""
    if rng.random() < 0.4:
        core = ExactMatrix.identity(n) * GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
    else:
        half = rand_matrix(rng, n // 2, n // 2, 3)
        rows = [[GaussianRational(0)] * n for _ in range(n)]
        for at in (0, n // 2):
            for i in range(n // 2):
                for j in range(n // 2):
                    rows[at + i][at + j] = half[i, j]
        if n % 2:
            rows[n - 1][n - 1] = GaussianRational(rng.randint(-3, 3))
        core = ExactMatrix(rows)
    if rng.random() < 0.5:
        return core
    s, s_inv = elementary_conjugator(n, rng.randrange(1000), 2)
    return s * core * s_inv


# Recurring matrices.
SHEAR2 = mat([[1, 1], [0, 1]])
UPPER3 = mat([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
DENSE3 = mat([[2, 1, 1], [-4, 5, 4], [1, 0, 2]])
ROTATION2 = mat([[0, -1], [1, 0]])
CUBE_COMPANION = mat([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
