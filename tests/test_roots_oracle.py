"""poly_roots_exact against an independent oracle: sympy's factorisation
over Q(i), on polynomials built by hypothesis from planted roots.

Both sides get the same planted roots; the package multiplies them out with
its own Polynomial, sympy with its own arithmetic, and the roots found must
be exactly the linear factors sympy reports, with their multiplicities, and
the rest exactly the product of the others.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from jordanform import (  # noqa: E402
    GaussianRational,
    Polynomial,
    poly_roots_exact,
)

from conftest import from_roots  # noqa: E402

Z = sympy.Symbol("z")
PART = st.integers(-(2**60), 2**60)

# (re numerator, im numerator, denominator, multiplicity, add the conjugate)
ROOT = st.tuples(PART, PART, st.integers(1, 3), st.integers(1, 3), st.booleans())
# (degree, re, im, power) for (z^degree - c)^power with c = re + im*i and
# z^degree - c irreducible over Q(i): z^3 - c is Eisenstein at the prime c,
# sqrt(p) is not in Q(i) for a prime p, and neither is sqrt(-i) =
# (1 - i)/sqrt(2).  Squared, the square-free step meets a gcd with no root.
EXTRA = st.sampled_from([
    None, (3, 2, 0, 1), (3, 7, 0, 1), (2, 3, 0, 1), (2, 11, 0, 1), (2, 3, 0, 2), (2, 0, -1, 2),
])
LEADING = st.sampled_from([(1, 0), (3, 0), (-2, 5), (0, 1), (7, -7)])


def planted_case(roots, extra, leading):
    """The same polynomial built twice: as a package Polynomial and as a
    sympy expression."""
    ours = Polynomial([GaussianRational(*leading)])
    theirs = sympy.Integer(leading[0]) + sympy.I * leading[1]
    for re, im, den, mult, conjugate in roots:
        values = [(re, im)] + ([(re, -im)] if conjugate and im else [])
        for a, b in values:
            root = GaussianRational(Fraction(a, den), Fraction(b, den))
            ours = ours * from_roots(*[root] * mult)
            value = sympy.Rational(a, den) + sympy.I * sympy.Rational(b, den)
            theirs *= (Z - value) ** mult
    if extra:
        degree, re, im, power = extra
        for _ in range(power):
            ours = ours * Polynomial([GaussianRational(-re, -im)] + [0] * (degree - 1) + [1])
        theirs *= (Z**degree - re - sympy.I * im) ** power
    return ours, theirs


def to_scalar(value):
    re, im = sympy.re(value), sympy.im(value)
    return GaussianRational(
        Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))
    )


# No shrinking: a failing example is reported as found, since shrinking
# integers near 2^60 takes minutes.
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(st.lists(ROOT, min_size=1, max_size=3), EXTRA, LEADING)
@example([(5, 0, 1, 2, False)], (2, 3, 0, 2), (1, 0))
@example([(1, 2, 3, 1, True)], (2, 0, -1, 2), (-2, 5))
def test_roots_are_the_linear_factors_sympy_finds(roots, extra, leading):
    ours, theirs = planted_case(roots, extra, leading)
    _, factors = sympy.factor_list(sympy.expand(theirs), Z, gaussian=True)
    expected = []
    leftover = sympy.Integer(1)
    for factor, mult in factors:
        coefficients = sympy.Poly(factor, Z).all_coeffs()
        if len(coefficients) == 2:
            expected.append((to_scalar(-coefficients[1] / coefficients[0]), mult))
        else:
            leftover *= factor**mult
    roots, rest = poly_roots_exact(ours)
    assert roots == sorted(expected)
    # The rest is sympy's product of the non-linear factors, made monic: the
    # constant 1 when every root is in Q(i).
    monic = sympy.Poly(sympy.expand(leftover), Z).monic().all_coeffs()
    assert rest == Polynomial([to_scalar(c) for c in reversed(monic)])
