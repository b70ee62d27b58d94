"""The Krylov factors of the characteristic polynomial against oracles that
share none of this package's elimination: sympy's charpoly on seeded random
Q(i) matrices, and the planted eigenvalues of generated cases."""

import random

import pytest

from jordanform import (
    ExactMatrix,
    GaussianRational,
    Polynomial,
    elementary_conjugator,
    exhaustive_structures,
    generate_case,
)
from jordanform.matrices import krylov_factors

from conftest import rand_matrix


def product(factors):
    out = Polynomial([1])
    for factor in factors:
        assert factor.degree > 0 and factor.leading == GaussianRational(1)
        out = out * factor
    return out


def derogatory(rng, n):
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


def seeded_matrices():
    rng = random.Random(67)
    matrices = []
    for k in range(45):
        n = rng.randint(1, 6)
        matrices.append(derogatory(rng, max(n, 2)) if k % 3 == 0 else rand_matrix(rng, n, n, 3))
    return matrices


def test_factors_multiply_to_sympys_charpoly():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def number(x):
        return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
            x.im.numerator, x.im.denominator
        )

    derogatory_seen = 0
    for matrix in seeded_matrices():
        factors = krylov_factors(matrix)
        derogatory_seen += len(factors) > 1
        ours = sum(number(c) * z**k for k, c in enumerate(product(factors).coefficients))
        theirs = sympy.Matrix(
            [[number(matrix[i, j]) for j in range(matrix.cols)] for i in range(matrix.rows)]
        ).charpoly(z).as_expr()
        assert sympy.expand(ours - theirs) == 0
    assert derogatory_seen >= 10


def test_factors_multiply_to_the_planted_eigenvalues():
    structures = [s for n in range(1, 6) for s in exhaustive_structures(n)]
    for seed, structure in enumerate(structures):
        matrix, _ = generate_case(structure, seed, 3)
        planted = Polynomial([1])
        for eigenvalue, lengths in structure.entries:
            planted = planted * Polynomial.from_roots(*[eigenvalue] * sum(lengths))
        assert product(krylov_factors(matrix)) == planted
