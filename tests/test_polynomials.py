import random
from fractions import Fraction

import pytest

from jordanform import GaussianRational, Polynomial, format_polynomial, poly_gcd, poly_lcm

from conftest import from_roots, gr, rand_scalar


def poly(*ascending):
    return Polynomial([gr(c) if isinstance(c, str) else c for c in ascending])


def rand_poly(rng, max_degree=4):
    return Polynomial([rand_scalar(rng, 3) for _ in range(rng.randint(1, max_degree + 1))])


def test_trailing_zeros_are_stripped():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert hash(poly(1, 2, 0, 0)) == hash(poly(gr("2/2"), 2))
    assert poly(0, 0).is_zero()
    assert Polynomial().degree == -1
    assert poly(5).degree == 0


def test_from_roots():
    assert from_roots(1, -1) == poly(-1, 0, 1)
    assert from_roots(1, 1) == poly(1, -2, 1)


def test_evaluation():
    p = from_roots(2, gr("1i"))
    assert p(gr("2")).is_zero()
    assert p(gr("1i")).is_zero()
    assert p(gr("0")) == gr("2") * gr("1i")


def test_arithmetic():
    a = poly(1, 1)  # 1 + z
    b = poly(-1, 1)  # -1 + z
    assert a * b == poly(-1, 0, 1)
    assert a * Polynomial() == Polynomial()
    assert a * 3 == 3 * a == poly(3, 3)


def test_gcd_and_lcm():
    a = from_roots(1, 1, -1)
    b = from_roots(1, 2)
    g = poly_gcd(a, b)
    assert g == from_roots(1)
    l = poly_lcm(a, b)
    assert l == from_roots(1, 1, -1, 2)
    assert l.leading == gr("1")
    with pytest.raises(ValueError, match="the zero polynomial has no leading coefficient"):
        Polynomial().leading


def test_gcd_and_lcm_with_zero_and_constants():
    b = poly("1/2i", 3, "2i")
    assert poly_gcd(Polynomial(), b) == poly_gcd(b, Polynomial()) == b.monic()
    assert poly_gcd(Polynomial(), Polynomial()).is_zero()
    assert poly_lcm(Polynomial(), b).is_zero() and poly_lcm(b, Polynomial()).is_zero()
    assert poly_gcd(poly("2i"), b) == poly(1)
    assert poly_lcm(poly("2i"), b) == b.monic()


def seeded_pairs(rng, count):
    """count pairs of Gaussian-rational polynomials of degree up to 5: the
    first half drawn at random, the second sharing a factor s as s*u and
    s^2*w, so that the gcd has positive degree."""
    for k in range(count):
        if k < count // 2:
            yield rand_poly(rng, 5), rand_poly(rng, 5)
        else:
            s = Polynomial([rand_scalar(rng, 3), 1]) * rand_poly(rng, 1)
            yield s * rand_poly(rng, 1), s * s * rand_poly(rng, 1)


def test_gcd_lcm_properties_seeded():
    # Against sympy's gcd and lcm over QQ_I, an oracle with its own arithmetic.
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def theirs(p):
        coefficients = [sympy.Rational(c.re.numerator, c.re.denominator)
                        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
                        for c in reversed(p.coefficients)]
        return sympy.Poly(coefficients or [0], z, domain="QQ_I")

    def ours(q):
        return Polynomial([GaussianRational(Fraction(str(sympy.re(c))), Fraction(str(sympy.im(c))))
                           for c in reversed(q.all_coeffs())])

    rng = random.Random(12)
    pairs = [(a, b) for a, b in seeded_pairs(rng, 240) if not (a.is_zero() or b.is_zero())]
    shared = gaussian = 0
    for a, b in pairs:
        g, l = poly_gcd(a, b), poly_lcm(a, b)
        assert g == ours(theirs(a).gcd(theirs(b)).monic()), (a, b)
        assert l == ours(theirs(a).lcm(theirs(b)).monic()), (a, b)
        assert l.degree + g.degree == a.degree + b.degree
        shared += g.degree >= 1
        gaussian += any(c.im and c.im.denominator > 1 for c in g.coefficients + l.coefficients)
    assert len(pairs) >= 200 and shared >= 100 and gaussian >= 100, (len(pairs), shared, gaussian)


def test_monic():
    assert poly(2, 4).monic() == poly("1/2", 1)
    assert Polynomial().monic().is_zero()


@pytest.mark.parametrize(
    "p, text",
    [
        (poly(1, -2, 1), "z^2 - 2z + 1"),
        (poly(-2, 0, 0, 1), "z^3 - 2"),
        (poly(1, 0, 1), "z^2 + 1"),
        (poly(0, gr("1i")), "1iz"),
        (poly(gr("1+2i"), 1), "z + (1+2i)"),
        (Polynomial(), "0"),
        (poly(0, -1), "-z"),
        # A complex constant after other terms, its real part either sign.
        (poly(gr("2-3i"), 0, 1), "z^2 + (2-3i)"),
        (poly(gr("-1-1i"), 5, 1), "z^2 + 5z + (-1-1i)"),
        # -z and -z^k after a leading term; i and -i keep their 1.
        (poly(0, -1, 0, 1), "z^3 - z"),
        (poly(1, 0, -1, 1), "z^3 - z^2 + 1"),
        (poly(0, gr("-1i"), 1), "z^2 - 1iz"),
        (poly(gr("-1i"), 0, 0, gr("1i")), "1iz^3 - 1i"),
        # A complex leading coefficient with a negative real part.
        (poly(0, 1, gr("-1+2i")), "(-1+2i)z^2 + z"),
        (poly(gr("-1-1i"), 0, gr("-2+1i")), "(-2+1i)z^2 + (-1-1i)"),
        # Coefficients of 1/2 and -1/2 keep their numerator.
        (poly("-1/2", "1/2", 1), "z^2 + 1/2z - 1/2"),
        (poly(0, "-1/2"), "-1/2z"),
        # Zero coefficients between nonzero ones print nothing.
        (poly(3, 0, 0, 0, -2), "-2z^4 + 3"),
    ],
)
def test_format_polynomial(p, text):
    assert format_polynomial(p) == text
    assert repr(p) == f"Polynomial<{text}>"
