import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from jordanform import (
    ExactMatrix,
    GaussianRational,
    ParseError,
    Polynomial,
    ZeroDenominator,
    format_scalar,
    parse_scalar,
)

from conftest import gr, norm_sq, rand_scalar


@pytest.mark.parametrize(
    "text, re, im",
    [
        ("1/2", Fraction(1, 2), 0),
        ("-3", -3, 0),
        ("1/2-3/4i", Fraction(1, 2), Fraction(-3, 4)),
        ("1i", 0, 1),
        ("-1i", 0, -1),
        ("0-1i", 0, -1),
        ("5/1i", 0, 5),
        ("2+3i", 2, 3),
        ("1/2--3/4i", Fraction(1, 2), Fraction(3, 4)),
        ("007", 7, 0),
    ],
)
def test_parse_scalar(text, re, im):
    assert parse_scalar(text) == GaussianRational(re, im)


@pytest.mark.parametrize(
    "text",
    ["", "1.5", "i", "-i", "1 + 2i", "--3", "3/", "/2", "1/2/3", "2i+3", "abc",
     # Digits of other scripts: Arabic-Indic three, fullwidth 1/2, 3/(Arabic-Indic four)i.
     "\u0663", "\uff11/\uff12", "3/\u0664i"],
)
def test_parse_scalar_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["1/0", "3/0i", "1/2+7/0i"])
def test_parse_scalar_zero_denominator(text):
    with pytest.raises(ZeroDenominator):
        parse_scalar(text)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer literals of any length",
)
@pytest.mark.parametrize("form", ["{}", "1/{}", "2+{}i", "1-1/{}i"])
def test_parse_scalar_past_the_digit_limit_is_a_parse_error(form):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError):
        parse_scalar(form.format(digits))


def test_format_parse_round_trip_seeded():
    rng = random.Random(101)
    for _ in range(1000):
        value = rand_scalar(rng)
        assert parse_scalar(format_scalar(value)) == value


def test_field_axioms_seeded():
    rng = random.Random(202)
    one = GaussianRational(1)
    zero = GaussianRational(0)
    for _ in range(1000):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        c = rand_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * (one / a) == one


def test_sort_order_is_lexicographic():
    values = [gr("1"), gr("-1i"), gr("0"), gr("1i"), gr("-1"), gr("1/2")]
    assert sorted(values) == [
        gr("-1"),
        gr("-1i"),
        gr("0"),
        gr("1i"),
        gr("1/2"),
        gr("1"),
    ]


def test_order_is_total_on_samples():
    rng = random.Random(303)
    for _ in range(200):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        assert (a < b) + (b < a) + (a == b) == 1


def test_rational_parts_are_stored_reduced():
    value = parse_scalar("4/6")
    assert (value.re.numerator, value.re.denominator) == (2, 3)
    negative = parse_scalar("-4/6-2/4i")
    assert (negative.re.numerator, negative.re.denominator) == (-2, 3)
    assert (negative.im.numerator, negative.im.denominator) == (-1, 2)


def test_values_are_immutable():
    value = gr("1+2i")
    with pytest.raises(AttributeError):
        value.re = Fraction(5)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)


def test_conjugate_and_norm():
    v = gr("3-4i")
    assert v.conjugate() == gr("3+4i")
    assert norm_sq(v) == Fraction(25)
    assert v * v.conjugate() == GaussianRational(25)
    assert +v is v


# --- the public edge: Fractions in and out, floats refused -------------------

def test_constructor_parts_may_be_fractions_and_strings():
    assert GaussianRational(Fraction(1, 2), "1/3") == gr("1/2+1/3i")
    assert GaussianRational(Fraction(4, 2), Fraction(0)) == gr("2")


def test_parts_read_back_as_fractions():
    value = gr("-4/6+3/9i")
    assert (value.re, value.im) == (Fraction(-2, 3), Fraction(1, 3))
    assert type(value.re) is Fraction and type(value.im) is Fraction
    assert GaussianRational(value.re, value.im) == value


def test_fractions_as_entries_coefficients_and_factors():
    half = Fraction(1, 2)
    assert gr("1i") + half == half + gr("1i") == gr("1/2+1i")
    assert gr("1/2") == half and gr("1/3") < half
    assert 3 - GaussianRational(1, 2) == gr("2-2i")
    assert half / GaussianRational(1, 2) == gr("1/10-1/5i")
    assert GaussianRational(1, 2).__rsub__("x") is NotImplemented
    assert GaussianRational(1, 2).__rtruediv__("x") is NotImplemented
    assert ExactMatrix([[half, 1], [0, "1i"]]) == ExactMatrix([["1/2", "1"], ["0", "1i"]])
    assert Polynomial([half, 1]) == Polynomial([gr("1/2"), gr("1")])
    assert Polynomial([1, 2]) * half == half * Polynomial([1, 2]) == Polynomial([half, 1])
    matrix = ExactMatrix([[1, "1i"], [2, 3]])
    halved = ExactMatrix([["1/2", "1/2i"], ["1", "3/2"]])
    assert matrix * half == halved
    assert half * matrix == halved


@pytest.mark.parametrize("build, message", [
    (lambda: GaussianRational(0.5), "floating-point values are not exact; use int or Fraction"),
    (lambda: GaussianRational(1, 0.5), "floating-point values are not exact; use int or Fraction"),
    (lambda: ExactMatrix([[1, 0.5]]), "cannot use float as a matrix entry"),
    (lambda: Polynomial([1, 0.5]), "cannot use float as a polynomial coefficient"),
])
def test_floats_are_refused_with_the_role_they_were_for(build, message):
    with pytest.raises(TypeError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("combine", [
    lambda x: x + 0.5, lambda x: 0.5 * x, lambda x: x < 0.5,
    lambda x: Polynomial([x]) * 0.5, lambda x: ExactMatrix([[x]]) * 0.5,
    lambda x: 0.5 * ExactMatrix([[x]]),
])
def test_floats_do_not_combine_with_exact_values(combine):
    with pytest.raises(TypeError):
        combine(gr("1"))


# --- differential test against a plain (Fraction, Fraction) reference ---------

def _ref_rational(rng: random.Random) -> Fraction:
    # Sizes from a few bits to well past 2**64, numerator and denominator alike.
    num_bits, den_bits = rng.choice((3, 20, 70, 130)), rng.choice((2, 20, 70, 130))
    return Fraction(rng.randint(-(2 ** num_bits), 2 ** num_bits), rng.randint(1, 2 ** den_bits))


def _ref_value(rng: random.Random):
    re, im = _ref_rational(rng), _ref_rational(rng)
    kind = rng.random()
    if kind < 0.2:
        im = Fraction(0)  # real only
    elif kind < 0.4:
        re = Fraction(0)  # imaginary only
    elif kind < 0.45:
        re = im = Fraction(0)
    return re, im


def _ref_format(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else ''}{im}i"


def _assert_matches(value: GaussianRational, re: Fraction, im: Fraction):
    assert (value.re, value.im) == (re, im)
    for part in (value.re, value.im):
        assert math.gcd(part.numerator, part.denominator) == 1
    assert value == GaussianRational(re, im)
    assert hash(value) == hash(GaussianRational(re, im))


def test_differential_against_fraction_pairs_seeded():
    rng = random.Random(505)
    for _ in range(2000):
        (r1, i1), (r2, i2) = _ref_value(rng), _ref_value(rng)
        x, y = GaussianRational(r1, i1), GaussianRational(r2, i2)
        _assert_matches(x, r1, i1)
        _assert_matches(x + y, r1 + r2, i1 + i2)
        _assert_matches(x - y, r1 - r2, i1 - i2)
        _assert_matches(x * y, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
        _assert_matches(-x, -r1, -i1)
        _assert_matches(x.conjugate(), r1, -i1)
        assert norm_sq(x) == r1 * r1 + i1 * i1
        norm = r2 * r2 + i2 * i2
        if norm:
            _assert_matches(x / y, (r1 * r2 + i1 * i2) / norm, (i1 * r2 - r1 * i2) / norm)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        assert (x == y) == ((r1, i1) == (r2, i2))
        assert (x < y) == ((r1, i1) < (r2, i2))
        assert (x <= y) == ((r1, i1) <= (r2, i2))
        assert (x > y) == ((r1, i1) > (r2, i2))
        assert (x >= y) == ((r1, i1) >= (r2, i2))
        text = format_scalar(x)
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            # An int or a Fraction on the left takes the reflected comparison;
            # a str is no scalar, so every comparison with one is a TypeError.
            for left in (r1, r2, math.floor(r2)):
                assert compare(left, x) == compare((left, 0), (r1, i1))
            with pytest.raises(TypeError):
                compare(x, text)
        assert text == _ref_format(r1, i1)
        # Equal values reached by different routes compare and hash equal.
        routes = [parse_scalar(text), (x + y) - y, x.conjugate().conjugate()]
        if not y.is_zero():
            routes.append((x * y) / y)
        if i1 == 0:
            assert x == r1 and x < r1 + 1
        for other in routes:
            assert other == x
            assert hash(other) == hash(x)
            assert format_scalar(other) == text


@pytest.mark.parametrize(
    "value",
    [
        0, 1, -1, 2**100 + 7, -(2**100 + 7),
        Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 3), Fraction(2**80 + 1, 3**40),
        # A denominator that is a multiple of the hash modulus hashes as inf.
        Fraction(3, sys.hash_info.modulus), Fraction(-3, sys.hash_info.modulus),
    ],
)
def test_a_real_value_hashes_as_the_number_it_equals(value):
    scalar = GaussianRational(value)
    assert scalar == value
    assert hash(scalar) == hash(value)
    assert len({scalar, value}) == 1
    assert {value: "x"}.get(scalar) == "x"
    assert {scalar: "x"}.get(value) == "x"


def test_equal_scalars_share_set_and_dict_entries():
    assert hash(gr(-1)) == hash(-1) == -2
    assert {1: "one", Fraction(1, 2): "half"}.get(gr("1/2")) == "half"
    assert {gr(1), 1, gr("2/2"), Fraction(2, 2)} == {1}
    values = {gr("1+1i"), gr("1-1i"), gr("2/2+2/2i"), gr(0), 0}
    assert len(values) == 3 and gr("1+1i") in values and 0 in values


def test_int_subclasses_become_plain_ints():
    value = gr("1/2") * True + False
    assert value == gr("1/2")
    assert format_scalar(GaussianRational(0) + True) == "1"


def test_format_scalar_takes_an_int_or_fraction_and_refuses_a_float():
    assert format_scalar(2) == "2"
    assert format_scalar(Fraction(1, 2)) == "1/2"
    with pytest.raises(TypeError, match="float"):
        format_scalar(0.5)
