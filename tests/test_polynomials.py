import random

import pytest

from jordanform import Polynomial, format_polynomial, poly_gcd, poly_lcm

from conftest import from_roots, gr, rand_scalar


def poly(*ascending):
    return Polynomial([gr(c) if isinstance(c, str) else c for c in ascending])


def rand_poly(rng, max_degree=4):
    return Polynomial([rand_scalar(rng, 3) for _ in range(rng.randint(1, max_degree + 1))])


def test_trailing_zeros_are_stripped():
    assert poly(1, 2, 0, 0) == poly(1, 2)
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
    assert a + b == poly(0, 2)
    assert a - a == Polynomial()
    assert a * 3 == poly(3, 3)


def test_divmod_property_seeded():
    rng = random.Random(11)
    for _ in range(150):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(poly(1, 1), Polynomial())


def test_exact_div():
    product = from_roots(1, 2, 3)
    assert product.exact_div(from_roots(2)) == from_roots(1, 3)
    with pytest.raises(ValueError):
        product.exact_div(poly(1, 1))


def test_gcd_and_lcm():
    a = from_roots(1, 1, -1)
    b = from_roots(1, 2)
    g = poly_gcd(a, b)
    assert g == from_roots(1)
    l = poly_lcm(a, b)
    assert l == from_roots(1, 1, -1, 2)
    assert l.leading == gr("1")


def test_gcd_lcm_properties_seeded():
    rng = random.Random(12)
    for _ in range(60):
        a = rand_poly(rng, 3)
        b = rand_poly(rng, 3)
        if a.is_zero() or b.is_zero():
            continue
        g = poly_gcd(a, b)
        assert (a % g).is_zero()
        assert (b % g).is_zero()
        l = poly_lcm(a, b)
        assert (l % a.monic()).is_zero()
        assert (l % b.monic()).is_zero()
        assert l.degree + g.degree == a.degree + b.degree


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
    ],
)
def test_format_polynomial(p, text):
    assert format_polynomial(p) == text
