import random
from collections import Counter
from fractions import Fraction

import pytest

from jordanform import (
    DimensionMismatch,
    ExactMatrix,
    GaussianRational,
    IncompleteSpectrum,
    InvalidProvidedEigenvalue,
    InvalidStructure,
    NotAnEigenvalue,
    Polynomial,
    SpectrumNotRepresentable,
    exhaustive_structures,
    elementary_conjugator,
    generate_case,
    jordan_chains,
    minimal_polynomial,
    poly_apply,
    poly_roots_exact,
    spectrum,
    stage_ladder,
)

from jordanform import spectral
from jordanform.matrices import krylov_factors
from jordanform.spectral import spectrum_with_ladders

from conftest import (
    CUBE_COMPANION, DENSE3, ROTATION2, SHEAR2, UPPER3, companion_sum, from_roots, gr, mat,
)


def roots_as_strs(pairs):
    return [(str(root), mult) for root, mult in pairs]


def split_roots(poly):
    """The roots poly_roots_exact finds, once it has left no rootless rest."""
    roots, rest = poly_roots_exact(poly)
    assert rest == Polynomial([1])
    return roots


# --- poly_roots_exact ---------------------------------------------------------

def test_double_root():
    assert roots_as_strs(split_roots(Polynomial([1, -2, 1]))) == [("1", 2)]


def test_quadratic_with_imaginary_roots():
    assert roots_as_strs(split_roots(Polynomial([1, 0, 1]))) == [
        ("-1i", 1),
        ("1i", 1),
    ]


def test_unsolvable_cubic():
    cubic = Polynomial([-2, 0, 0, 1])
    roots, rest = poly_roots_exact(cubic)
    assert roots == []
    assert rest == cubic
    assert str(rest) == "z^3 - 2"


def test_gaussian_pair_from_real_quadratic():
    # z^2 - 2z + 2 = (z - (1+i))(z - (1-i))
    assert roots_as_strs(split_roots(Polynomial([2, -2, 1]))) == [
        ("1-1i", 1),
        ("1+1i", 1),
    ]


def test_repeated_gaussian_root():
    p = from_roots(gr("1i"), gr("1i"))
    assert roots_as_strs(split_roots(p)) == [("1i", 2)]


def test_mixed_spectrum_with_nonreal_coefficients():
    roots = [gr("0"), gr("1"), gr("2"), gr("-1"), gr("1i")]
    p = from_roots(*roots)
    assert split_roots(p) == [(r, 1) for r in sorted(roots)]


def test_unsolvable_real_quadratic():
    z2_minus_2 = Polynomial([-2, 0, 1])
    assert poly_roots_exact(z2_minus_2) == ([], z2_minus_2)


def test_real_quartic_with_two_conjugate_pairs():
    # (z^2+1)(z^2+4): no rational root, every root in Q(i).
    p = Polynomial([1, 0, 1]) * Polynomial([4, 0, 1])
    assert roots_as_strs(split_roots(p)) == [
        ("-2i", 1),
        ("-1i", 1),
        ("1i", 1),
        ("2i", 1),
    ]


def test_repeated_conjugate_pair():
    # (z^2 + 1)^2: no rational candidate, closed through its square-free part.
    p = Polynomial([1, 0, 2, 0, 1])
    assert roots_as_strs(split_roots(p)) == [("-1i", 2), ("1i", 2)]


def test_repeated_irrational_pair_reports_the_whole_factor():
    p = Polynomial([-2, 0, 1]) * Polynomial([-2, 0, 1])  # (z^2 - 2)^2
    roots, rest = poly_roots_exact(p)
    assert roots == []
    assert rest == p
    assert str(rest) == "z^4 - 4z^2 + 4"


def test_two_distinct_conjugate_pairs():
    # (z^2 + 1)(z^2 - 2z + 2): real coefficients, two pairs in Q(i).
    p = Polynomial([2, -2, 3, -2, 1])
    assert roots_as_strs(split_roots(p)) == [
        ("-1i", 1),
        ("1i", 1),
        ("1-1i", 1),
        ("1+1i", 1),
    ]


def test_roots_with_zero_roots_and_scaling():
    p = Polynomial([0, 0, -4, 4]) * gr("3/7")  # 3/7 * 4z^2(z - 1)
    assert roots_as_strs(split_roots(p)) == [("0", 2), ("1", 1)]


def test_constant_rejected():
    with pytest.raises(ValueError):
        poly_roots_exact(Polynomial([5]))


# --- minimal polynomial ----------------------------------------------------------

def test_minimal_polynomial_upper3():
    assert minimal_polynomial(UPPER3) == from_roots(1, 1, 1)


def test_minimal_polynomial_diagonal():
    assert minimal_polynomial(mat([[2, 0], [0, 5]])) == from_roots(2, 5)


def test_minimal_polynomial_annihilates_and_is_minimal():
    rng = random.Random(31)
    structures = [s for n in range(1, 5) for s in exhaustive_structures(n)]
    picked = rng.sample(structures, 12)
    for index, structure in enumerate(picked):
        matrix, _ = generate_case(structure, index, 2)
        minimal = minimal_polynomial(matrix)
        assert poly_apply(minimal, matrix).is_zero()
        roots = split_roots(minimal)
        assert minimal == from_roots(*(root for root, m in roots for _ in range(m)))
        # Dividing out any single root must break the annihilation.
        for k in range(len(roots)):
            shrunk = from_roots(*(r for j, (r, m) in enumerate(roots) for _ in range(m - (j == k))))
            assert not poly_apply(shrunk, matrix).is_zero()


def test_empty_matrix_is_a_dimension_error():
    # Provided eigenvalues are checked against the Krylov factors too, so an
    # empty list gives no empty spectrum.
    empty = ExactMatrix.zeros(0, 0)
    with pytest.raises(DimensionMismatch):
        minimal_polynomial(empty)
    with pytest.raises(DimensionMismatch):
        krylov_factors(empty)
    with pytest.raises(DimensionMismatch):
        spectrum(empty)
    with pytest.raises(DimensionMismatch):
        spectrum_with_ladders(empty, [])


@pytest.mark.parametrize("provided", [None, [], [gr("1")]])
def test_non_square_spectrum_is_a_dimension_error(provided):
    wide = mat([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatch):
        spectrum(wide, provided)
    with pytest.raises(DimensionMismatch):
        spectrum_with_ladders(wide, provided)


# --- spectrum ---------------------------------------------------------------------

def entry_tuples(spect):
    return [
        (str(e.eigenvalue), e.multiplicity, e.geometric_dim, e.max_stage)
        for e in spect.entries
    ]


def test_spectrum_upper3():
    assert entry_tuples(spectrum(UPPER3)) == [("1", 3, 1, 3)]


def test_spectrum_diagonal():
    assert entry_tuples(spectrum(mat([[2, 0], [0, 5]]))) == [
        ("2", 1, 1, 1),
        ("5", 1, 1, 1),
    ]


def test_spectrum_dense3():
    assert entry_tuples(spectrum(DENSE3)) == [("3", 3, 1, 3)]


def test_spectrum_not_representable():
    with pytest.raises(SpectrumNotRepresentable):
        spectrum(CUBE_COMPANION)


def test_spectrum_repeated_conjugate_pair():
    # Minimal polynomial z^4 + 2z^2 + 1: eigenvalues +-i, one chain of 2 each.
    a = mat([[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert str(minimal_polynomial(a)) == "z^4 + 2z^2 + 1"
    assert entry_tuples(spectrum(a)) == [("-1i", 2, 1, 2), ("1i", 2, 1, 2)]


# --- the rootless residual -------------------------------------------------------
# The eigenvalues come from the Krylov factors of the characteristic
# polynomial; the factor SpectrumNotRepresentable names is the minimal
# polynomial less its roots in Q(i), which no single Krylov factor need equal.

SQRT2 = Polynomial([-2, 0, 1])  # z^2 - 2


def test_rootless_factor_is_the_minimal_polynomials_rest():
    matrix = companion_sum(SQRT2, SQRT2 * SQRT2)
    assert krylov_factors(matrix) == [SQRT2, SQRT2 * SQRT2]
    with pytest.raises(SpectrumNotRepresentable) as err:
        spectrum(matrix)
    assert str(err.value.factor) == "z^4 - 4z^2 + 4"
    assert err.value.factor == minimal_polynomial(matrix)


def test_rootless_factor_joins_the_rests_of_several_factors():
    # (z-1)^2 (z^2-2) and (z-1)(z^2+2): the factors keep z^2 - 2 and z^2 + 2,
    # the minimal polynomial less its root 1 keeps their product.
    first = from_roots(1, 1) * SQRT2
    second = from_roots(1) * Polynomial([2, 0, 1])
    matrix = companion_sum(first, second)
    factors = krylov_factors(matrix)
    assert factors == [first, second]
    with pytest.raises(SpectrumNotRepresentable) as err:
        spectrum(matrix)
    assert str(err.value.factor) == "z^4 - 4"
    assert [str(poly_roots_exact(factor)[1]) for factor in factors] == ["z^2 - 2", "z^2 + 2"]


def test_one_krylov_factor_is_the_minimal_polynomial():
    # The exit-2 path names a lone Krylov factor's rest without computing
    # the minimal polynomial: the pass from e_0 then spans the space, so e_0
    # is a cyclic vector.  Seeded dense integer and Gaussian matrices, with
    # entries in {0, 1} a third of the time so that some are not cyclic.
    rng = random.Random(2601)
    lone = several = 0
    for trial in range(150):
        n = rng.randint(1, 5)
        parts = (0, 1) if trial % 3 == 0 else range(-3, 4)
        gaussian = trial % 2 == 1
        matrix = ExactMatrix([
            [GaussianRational(rng.choice(parts), rng.choice(parts) if gaussian else 0)
             for _ in range(n)]
            for _ in range(n)
        ])
        factors = krylov_factors(matrix)
        if len(factors) == 1:
            lone += 1
            assert factors[0] == minimal_polynomial(matrix)
        else:
            several += 1
    assert lone > 100 and several > 5


def test_one_rest_among_several_factors_is_the_minimal_polynomials_rest(monkeypatch):
    # Every Krylov factor divides the minimal polynomial, which divides their
    # product; so when one factor alone keeps a rootless rest, that rest is
    # the minimal polynomial's, and the second Krylov pass runs only when two
    # or more factors keep one.  Seeded S (B_1 + ... + B_k) S^-1, one B_j
    # always without a root in Q(i).
    rootless = [companion_sum(Polynomial([-2, 0, 0, 1])), companion_sum(Polynomial([-3, 0, 1])),
                companion_sum(Polynomial([gr("1i"), 0, 1]))]
    blocks = rootless + [mat([[1]]), mat([[2]]), mat([[1, 1], [0, 1]])]
    passes = []

    def counted(matrix):
        passes.append(matrix)
        return minimal_polynomial(matrix)

    monkeypatch.setattr(spectral, "minimal_polynomial", counted)
    rng = random.Random(2903)
    tally = Counter()
    for trial in range(135):
        chosen = [rng.choice(rootless)] + rng.sample(blocks, rng.randint(1, 3))
        rng.shuffle(chosen)
        block_sum = ExactMatrix.block_diagonal(chosen)
        s, s_inv = elementary_conjugator(block_sum.rows, trial, 2)
        matrix = s * block_sum * s_inv
        factors = krylov_factors(matrix)
        rests = sum(poly_roots_exact(factor)[1].degree >= 1 for factor in factors)
        passes.clear()
        with pytest.raises(SpectrumNotRepresentable) as err:
            spectrum(matrix)
        assert err.value.factor == poly_roots_exact(minimal_polynomial(matrix))[1]
        assert len(passes) == (rests >= 2)
        tally[len(factors) >= 2, rests >= 2] += 1
    assert tally[True, False] >= 20 and tally[True, True] >= 50 and tally[False, False] >= 20
    # Two factors keep z^2 - 2, and the minimal polynomial keeps it once.
    sqrt2 = Polynomial([-2, 0, 1])
    passes.clear()
    with pytest.raises(SpectrumNotRepresentable) as err:
        spectrum(companion_sum(sqrt2, sqrt2, Polynomial([-1, 1])))
    assert str(err.value.factor) == "z^2 - 2"
    assert len(passes) == 1


def test_spectrum_with_provided_matches_automatic():
    assert spectrum(DENSE3, [gr("3")]) == spectrum(DENSE3)


def test_spectrum_with_wrong_provided_value():
    with pytest.raises(InvalidProvidedEigenvalue):
        spectrum(CUBE_COMPANION, [gr("3/2")])


def test_spectrum_with_duplicate_provided_value():
    with pytest.raises(InvalidProvidedEigenvalue):
        spectrum(DENSE3, [gr("3"), gr("3")])


def test_spectrum_with_incomplete_provided_set():
    with pytest.raises(IncompleteSpectrum):
        spectrum(mat([[2, 0], [0, 5]]), [gr("2")])


def test_provided_ints_and_fractions_become_scalars():
    # An outside value becomes a scalar once, so entries, ladders and chains
    # carry GaussianRational, and a value that is no eigenvalue is named in
    # the error rather than failing in formatting or arithmetic.
    diag = mat([[2, 0], [0, "1/2"]])
    for matrix, provided in ((DENSE3, [3]), (diag, [Fraction(1, 2), 2])):
        entries = spectrum(matrix, provided).entries
        assert entries == spectrum(matrix).entries
        assert all(type(entry.eigenvalue) is GaussianRational for entry in entries)
    ladder = stage_ladder(DENSE3, 3)
    assert type(ladder.eigenvalue) is GaussianRational
    assert {type(chain.eigenvalue) for chain in jordan_chains(DENSE3, ladder)} == {GaussianRational}
    with pytest.raises(InvalidProvidedEigenvalue, match="^2 is not an eigenvalue"):
        spectrum(DENSE3, [2])
    with pytest.raises(InvalidProvidedEigenvalue, match="^1/3 is not an eigenvalue"):
        spectrum(DENSE3, [3, Fraction(1, 3)])
    with pytest.raises(NotAnEigenvalue, match="^5 has a trivial eigenspace"):
        stage_ladder(DENSE3, 5)
    for call in (lambda: spectrum(DENSE3, [3.0]), lambda: stage_ladder(DENSE3, 3.0)):
        with pytest.raises(TypeError, match="^cannot use float as a provided eigenvalue$"):
            call()


@pytest.mark.parametrize("multiplicity", [0, -1, True, 2.0])
def test_stage_ladder_refuses_a_multiplicity_that_is_no_int_at_least_one(multiplicity):
    # The first three once gave the dims [1] of the 3 x 3 Jordan block at 2.
    from jordanform.decomp import Block, jordan_matrix

    block = jordan_matrix([Block(GaussianRational(2), 3)])
    assert stage_ladder(block, 2, 3).dims() == [1, 2, 3]
    with pytest.raises(InvalidStructure, match="^multiplicity must be an integer >= 1, got "):
        stage_ladder(block, 2, multiplicity)


def test_every_reported_eigenvalue_has_an_eigenvector():
    from jordanform import nullspace_basis, shift_by

    for matrix in (SHEAR2, UPPER3, DENSE3, ROTATION2):
        for entry in spectrum(matrix).entries:
            assert nullspace_basis(shift_by(matrix, entry.eigenvalue)).dimension > 0


def test_similarity_invariance_seeded():
    structures = [s for n in range(1, 5) for s in exhaustive_structures(n)]
    cases = 0
    seed = 0
    while cases < 200:
        structure = structures[cases % len(structures)]
        matrix, _ = generate_case(structure, seed, 2)
        s, s_inv = elementary_conjugator(matrix.rows, seed + 1000, 2)
        conjugated = s * matrix * s_inv
        assert [(e.eigenvalue, e.multiplicity) for e in spectrum(matrix).entries] == [
            (e.eigenvalue, e.multiplicity) for e in spectrum(conjugated).entries
        ]
        cases += 1
        seed += 1


def test_triangular_spectrum_is_its_diagonal_seeded():
    rng = random.Random(32)
    palette = [gr("0"), gr("1"), gr("2"), gr("-1"), gr("1i")]
    for _ in range(40):
        n = rng.randint(1, 4)
        diagonal = [palette[rng.randrange(len(palette))] for _ in range(n)]
        rows = [
            [
                diagonal[i]
                if i == j
                else (gr(rng.randint(-2, 2)) if j > i else gr("0"))
                for j in range(n)
            ]
            for i in range(n)
        ]
        spect = spectrum(ExactMatrix(rows))
        counted = sorted(
            (lam, diagonal.count(lam)) for lam in set(diagonal)
        )
        assert [(e.eigenvalue, e.multiplicity) for e in spect.entries] == counted
