"""Metamorphic relations: the Jordan blocks and spectrum entries of a matrix
built from A, predicted from A's own blocks.

Write J(A) for the multiset of (eigenvalue, block size).  Then J(Aᵀ) = J(A);
J(Ā) is J(A) with each eigenvalue conjugated; J(A ⊕ B) = J(A) ∪ J(B);
J(cA + dI), c ≠ 0, maps λ to cλ + d and J(A⁻¹) maps λ to 1/λ, both keeping
the sizes.  For a polynomial p, let r be the order of the first derivative
of p that is nonzero at λ: a block of size s at λ becomes blocks of sizes
⌈(s − i)/r⌉ at p(λ) for i = 0 … r − 1, zeros dropped, and eigenvalues with
the same p(λ) pool their blocks (Horn & Johnson, Topics in Matrix Analysis,
§6.2).  ``spectrum``'s entries (multiplicity, geometric dimension, max
stage) follow from the predicted blocks.

A fixed seeded slice always runs: every exhaustive structure with n ≤ 5,
and structures with Gaussian eigenvalues up to n = 16.  Where hypothesis is
installed, it draws further structures up to n = 16.
"""

from collections import Counter, defaultdict

import pytest

from jordanform import (
    ExactMatrix,
    GaussianRational,
    JordanStructure,
    Polynomial,
    SpectrumEntry,
    exhaustive_structures,
    generate_case,
    inverse,
    jordan_decomposition,
    parse_structure,
    poly_apply,
    shift_by,
    spectrum,
)

from conftest import gr

try:
    from hypothesis import Phase, given, settings, strategies as st
except ImportError:
    given = None


def jordan_blocks(matrix):
    return Counter(jordan_decomposition(matrix).blocks)


def predicted_entries(blocks):
    """The spectrum entries that the blocks {(λ, s): count} make."""
    sizes = defaultdict(list)
    for (lam, size), count in blocks.items():
        sizes[lam] += [size] * count
    return tuple(SpectrumEntry(lam, sum(s), len(s), max(s)) for lam, s in sorted(sizes.items()))


def mapped(blocks, f):
    return Counter({(f(lam), size): count for (lam, size), count in blocks.items()})


def derivative(poly):
    return Polynomial([c * j for j, c in enumerate(poly.coefficients)][1:])


def applied(blocks, poly):
    """J(p(A)) from J(A), for p of degree at least 1."""
    result = Counter()
    for (lam, size), count in blocks.items():
        r, slope = 1, derivative(poly)
        while slope(lam).is_zero():
            r, slope = r + 1, derivative(slope)
        for i in range(r):
            if size > i:
                result[poly(lam), -(-(size - i) // r)] += count
    return result


def transpose(a):
    return ExactMatrix([list(a.column_entries(j)) for j in range(a.cols)])


def conjugate(a):
    return ExactMatrix([[x.conjugate() for x in a.row(i)] for i in range(a.rows)])


def polynomial(text):
    """Coefficients in ascending degree, as in ``Polynomial``."""
    return Polynomial([gr(c) for c in text.split()])


# z², z³ − 2z² + z, z² + iz and 3 − 2z: z² pools the palette's 1 and −1 and
# splits the blocks of 0; z(z − 1)² splits the blocks of 1 and pools them
# with those of 0.
POLYNOMIALS = [polynomial(text) for text in ("0 0 1", "0 1 -2 1", "0 1i 1", "3 -2")]
AFFINE = [(gr("2"), gr("0")), (gr("-1/2+1i"), gr("1-1i"))]
SMALL = [structure for n in range(1, 6) for structure in exhaustive_structures(n)]
LARGE = [parse_structure(text) for text in (
    "1i:3,1;-1i:2;1/2:2",
    "1+1i:4,2,1;-2:3;0:2,2",
    "1-1i:5,3;2i:4,2;-1/2:2",
)]


def relations(a, blocks, partner, partner_blocks, polynomials, affine):
    """(name, matrix, predicted blocks) for every relation on A."""
    yield "transpose", transpose(a), blocks
    yield "conjugate", conjugate(a), mapped(blocks, GaussianRational.conjugate)
    yield "direct sum", ExactMatrix.block_diagonal([a, partner]), blocks + partner_blocks
    for c, d in affine:
        yield f"{c}A + {d}I", shift_by(a * c, -d), mapped(blocks, lambda lam: c * lam + d)
    if all(not lam.is_zero() for lam, _ in blocks):
        yield "inverse", inverse(a), mapped(blocks, lambda lam: 1 / lam)
    for poly in polynomials:
        yield f"p = {poly}", poly_apply(poly, a), applied(blocks, poly)


def check_relations(structure, seed, partner, polynomials=POLYNOMIALS, affine=AFFINE):
    a = generate_case(structure, seed, 3)[0]
    blocks = jordan_blocks(a)
    assert blocks == Counter(structure.blocks())
    b = generate_case(partner, seed, 3)[0]
    checked = 0
    for name, matrix, expected in relations(a, blocks, b, Counter(partner.blocks()),
                                            polynomials, affine):
        assert jordan_blocks(matrix) == expected, name
        assert spectrum(matrix).entries == predicted_entries(expected), name
        checked += 1
    return checked


@pytest.mark.parametrize("index", range(len(SMALL)))
def test_relations_on_the_exhaustive_structures(index):
    # B in A ⊕ B is the structure before A's.
    assert check_relations(SMALL[index], 1, SMALL[index - 1]) >= 8


@pytest.mark.parametrize("structure", LARGE, ids=[str(s.n) for s in LARGE])
def test_relations_on_gaussian_spectra_up_to_n_16(structure):
    assert check_relations(structure, 5, parse_structure("1i:2;0:1")) >= 8


def test_a_polynomial_splits_and_pools_blocks():
    # z² on 0:3;1:2;-1:2;1i:1 gives 0:(2,1), 1:(2,2), -1:(1).
    structure = parse_structure("0:3;1:2;-1:2;1i:1")
    expected = Counter({(gr(0), 2): 1, (gr(0), 1): 1, (gr(1), 2): 2, (gr(-1), 1): 1})
    assert applied(Counter(structure.blocks()), POLYNOMIALS[0]) == expected
    assert jordan_blocks(poly_apply(POLYNOMIALS[0], generate_case(structure, 2, 3)[0])) == expected


if given is None:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_relations_on_drawn_structures():
        pass
else:
    SCALARS = [gr(x) for x in ("0", "1", "-1", "2", "1/2", "1i", "-1i", "1+1i", "-2+1i", "1/2-1i")]

    @st.composite
    def structures(draw):
        """One to four distinct eigenvalues, n from 1 to 16."""
        eigenvalues = draw(st.lists(st.sampled_from(SCALARS), min_size=1, max_size=4,
                                    unique=True))
        entries, room = [], 16
        for k, lam in enumerate(eigenvalues):
            spare = room - (len(eigenvalues) - 1 - k)  # one for each later eigenvalue
            lengths = draw(st.lists(st.integers(1, min(5, spare)), min_size=1, max_size=3))
            while sum(lengths) > spare:
                lengths.pop()
            room -= sum(lengths)
            entries.append((lam, tuple(lengths)))
        return JordanStructure(tuple(entries))

    NONZERO = st.sampled_from(SCALARS[1:])

    def power_at(mu, k, c, d):
        """c(z − μ)^k + d, whose first k − 1 derivatives vanish at μ."""
        q = Polynomial([1])
        for _ in range(k):
            q = q * Polynomial([-mu, 1])
        coefficients = [c * x for x in q.coefficients]
        coefficients[0] += d
        return Polynomial(coefficients)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(structures(), st.sampled_from([s for s in SMALL if s.n <= 3]),
           st.integers(0, 10**6), st.lists(st.sampled_from(SCALARS), min_size=1, max_size=3),
           NONZERO, NONZERO, st.sampled_from(SCALARS), st.integers(1, 3), st.data())
    def test_relations_on_drawn_structures(structure, partner, seed, low, top, c, d, k, data):
        # A drawn polynomial, and one with r = k at an eigenvalue of A.
        mu = data.draw(st.sampled_from([lam for lam, _ in structure.entries]))
        polynomials = [Polynomial(low + [top]), power_at(mu, k, c, d)]
        assert check_relations(structure, seed, partner, polynomials, [(c, d)]) >= 5
