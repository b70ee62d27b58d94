"""The Krylov factors of the characteristic polynomial against oracles that
share none of this package's elimination: sympy's charpoly and eigenvalues
on seeded random Q(i) matrices, and the planted eigenvalues of generated
cases."""

import random

import pytest

from jordanform import (
    GaussianRational,
    Polynomial,
    SpectrumNotRepresentable,
    exhaustive_structures,
    generate_case,
)
from jordanform.matrices import krylov_factors
from jordanform.spectral import _eigenvalues

from conftest import derogatory, from_roots, rand_matrix


def product(factors):
    out = Polynomial([1])
    for factor in factors:
        assert factor.degree > 0 and factor.leading == GaussianRational(1)
        out = out * factor
    return out


def seeded_matrices():
    rng = random.Random(67)
    matrices = []
    for k in range(45):
        n = rng.randint(1, 6)
        matrices.append(derogatory(rng, max(n, 2)) if k % 3 == 0 else rand_matrix(rng, n, n, 3))
    return matrices


def number(sympy, x):
    return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
        x.im.numerator, x.im.denominator
    )


def sympy_matrix(sympy, matrix):
    return sympy.Matrix(
        [[number(sympy, matrix[i, j]) for j in range(matrix.cols)] for i in range(matrix.rows)]
    )


def test_factors_multiply_to_sympys_charpoly():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    derogatory_seen = 0
    for matrix in seeded_matrices():
        factors = krylov_factors(matrix)
        derogatory_seen += len(factors) > 1
        ours = sum(number(sympy, c) * z**k for k, c in enumerate(product(factors).coefficients))
        theirs = sympy_matrix(sympy, matrix).charpoly(z).as_expr()
        assert sympy.expand(ours - theirs) == 0
    assert derogatory_seen >= 10


def test_multiplicities_are_sympys_eigenvals():
    """Where the Krylov factors split over Q(i), the eigenvalues and
    multiplicities read off them are sympy's.  (Where they do not, the
    factors are still sympy's charpoly, above, and poly_roots_exact's rests
    are checked against sympy's factorisation in test_roots_oracle.py;
    factoring every charpoly here over Q(i) would take seconds.)"""
    sympy = pytest.importorskip("sympy")
    split = 0
    for matrix in seeded_matrices():
        try:
            eigenvalues = _eigenvalues(matrix)
        except SpectrumNotRepresentable:
            continue
        split += 1
        ours = {number(sympy, lam): m for lam, m in eigenvalues}
        assert ours == sympy_matrix(sympy, matrix).eigenvals()
    assert split >= 15


def test_factors_multiply_to_the_planted_eigenvalues():
    structures = [s for n in range(1, 6) for s in exhaustive_structures(n)]
    for seed, structure in enumerate(structures):
        matrix, _ = generate_case(structure, seed, 3)
        planted = Polynomial([1])
        for eigenvalue, lengths in structure.entries:
            planted = planted * from_roots(*[eigenvalue] * sum(lengths))
        assert product(krylov_factors(matrix)) == planted
