"""Jordan structures against sympy's ``Matrix.jordan_form``, an oracle that
shares none of this package's arithmetic.

Each input is S * J * S^-1 for a Jordan matrix J of size n <= 5 and a
seeded random dense S with entries in [-3, 3], built and inverted in sympy
(not by ``generate_case``).  The eigenvalues come from {0, 1, -1, i, -i,
1/2, 1 + i}; each case draws one or two of them for its blocks, so an
eigenvalue often has several blocks (a derogatory structure).  Non-real
eigenvalues are drawn at n <= 4 only: sympy's ranks over expressions in I
take seconds at n = 5, against a tenth of that for a real spectrum.
sympy's own (P, J) must also pass ``check_decomposition`` as a Jordan claim.
The other three stages are checked on the same inputs in sympy arithmetic,
against the planted spectrum alone.
"""

import random

import pytest

from jordanform import (
    Block,
    Decomposition,
    ExactMatrix,
    block_diagonalize,
    blockwise_trigonalize,
    check_decomposition,
    jordan_decomposition,
    parse_scalar,
    trigonalize,
)

sympy = pytest.importorskip("sympy")

REAL = (0, 1, -1, sympy.Rational(1, 2))
PALETTE = REAL + (sympy.I, -sympy.I, 1 + sympy.I)


def number(x):
    return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
        x.im.numerator, x.im.denominator
    )


def text(value):
    re, im = sympy.re(value), sympy.im(value)
    return f"{re}+{im}i" if im else str(re)


def exact(matrix):
    return ExactMatrix([[text(x) for x in matrix.row(i)] for i in range(matrix.rows)])


def sympy_blocks(jordan):
    """The (eigenvalue, size) pairs on the diagonal of a Jordan matrix."""
    blocks, start = [], 0
    for k in range(1, jordan.rows + 1):
        if k == jordan.rows or jordan[k - 1, k] == 0:
            blocks.append((jordan[start, start], k - start))
            start = k
    return blocks


def cases(count=30, seed=24):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        eigenvalues = rng.sample(PALETTE if n <= 4 else REAL, rng.randint(1, 2))
        planted, room = [], n
        while room:
            size = rng.randint(1, min(room, 3))
            planted.append((rng.choice(eigenvalues), size))
            room -= size
        jordan = sympy.diag(*[sympy.jordan_cell(lam, size) for lam, size in planted])
        while True:
            s = sympy.Matrix(n, n, lambda i, j: rng.randint(-3, 3))
            if s.det() != 0:
                break
        yield planted, s * jordan * s.inv()


def key(lam):
    return sympy.re(lam), sympy.im(lam)


def multiset(pairs):
    """(eigenvalue, size) pairs as a sorted list, the eigenvalue as its exact
    (re, im)."""
    return sorted((key(lam), size) for lam, size in pairs)


def test_jordan_blocks_are_sympys():
    derogatory = gaussian = 0
    for planted, matrix in cases():
        ours = exact(matrix)
        decomposition = jordan_decomposition(ours)
        assert check_decomposition(ours, decomposition).passed
        p, theirs = matrix.jordan_form()
        expected = multiset(sympy_blocks(theirs))
        # sympy's own (P, J), which orders and scales its chains its own way,
        # passes the checker as a Jordan claim.
        claim = Decomposition(
            "jordan", exact(p), exact(theirs),
            tuple(Block(parse_scalar(text(lam)), size) for lam, size in sympy_blocks(theirs)),
        )
        assert check_decomposition(ours, claim).passed
        assert multiset(planted) == expected
        assert multiset((number(b.eigenvalue), b.size) for b in decomposition.blocks) == expected
        eigenvalues = [lam for lam, _ in planted]
        derogatory += len(set(eigenvalues)) < len(eigenvalues)
        gaussian += any(sympy.im(lam) for lam in eigenvalues)
    assert derogatory >= 5 and gaussian >= 5


def symbolic(matrix):
    return sympy.Matrix(matrix.rows, matrix.cols, lambda i, j: number(matrix[i, j]))


def is_zero(matrix):
    """Whether every entry is 0 once its products of sums are expanded."""
    return matrix.expand().is_zero_matrix


def test_the_other_stages_match_the_planted_spectrum_in_sympy():
    for planted, matrix in cases():
        n, ours = matrix.rows, exact(matrix)
        # Each eigenvalue's algebraic multiplicity, in canonical (re, im) order.
        spectrum = {}
        for lam, size in planted:
            spectrum[key(lam)] = spectrum.get(key(lam), 0) + size
        spectrum = sorted(spectrum.items())
        for stage in (trigonalize, block_diagonalize, blockwise_trigonalize):
            decomposition = stage(ours)
            kind = decomposition.kind
            v, m = symbolic(decomposition.V), symbolic(decomposition.M)
            assert is_zero(matrix * v - v * m) and v.rank() == n, kind
            blocks = [(key(number(b.eigenvalue)), b.size) for b in decomposition.blocks]
            diagonal = [key(m[i, i]) for i in range(n)]
            if kind == "schur":
                assert blocks == [(lam, 1) for lam, count in spectrum for _ in range(count)]
                assert m.is_upper and diagonal == [lam for lam, _ in blocks]
                continue
            assert blocks == spectrum, kind
            start = 0
            for lam, size in blocks:
                end = start + size
                assert m[start:end, :start].is_zero_matrix and m[start:end, end:].is_zero_matrix
                block = m[start:end, start:end]
                shifted = block - (lam[0] + sympy.I * lam[1]) * sympy.eye(size)
                if kind == "blockdiag":
                    assert is_zero(shifted ** size), kind
                else:
                    assert block.is_upper and diagonal[start:end] == [lam] * size, kind
                start = end
