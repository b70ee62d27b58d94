"""Exact scalars: rationals and Gaussian rationals, the field Q(i).

A Gaussian rational is stored as three Python integers (a + b*i)/d in
canonical form, d > 0 and gcd(a, b, d) = 1, so all field operations are
exact and equal values have equal parts; nothing in this package ever
rounds.  It is the only number type inside the package: ``_coerce`` is the
one place an outside value (an int, a ``Fraction`` or a Gaussian rational)
becomes a scalar.  It also owns the integer rule: ``is_int`` says what an
integer argument is (an int, never a bool), and ``DIGITS`` what the digits
of an integer in text are (ASCII only).  ``fractions`` is met only at the
public edge: the ``re`` and ``im`` properties load it on first use, and a
caller's ``Fraction`` is looked for only once it is loaded, as one cannot
exist before.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from typing import TYPE_CHECKING, Optional, Tuple

from .errors import ParseError, ZeroDenominator

if TYPE_CHECKING:
    from fractions import Fraction

DIGITS = "[0-9]+"  # ASCII digits only: \d matches any script's
_RATIONAL = rf"-?{DIGITS}(?:/{DIGITS})?"
# Groups: real, sign, imaginary (after the sign), imaginary alone.
_SCALAR_RE = re.compile(rf"({_RATIONAL})(?:([+-])({_RATIONAL})i)?|({_RATIONAL})i")

_gcd = math.gcd
_new = object.__new__


def _operand(operator):
    """The binary operator on a scalar other side: an int or Fraction becomes
    one (``_coerce``), and any other type is NotImplemented."""

    @functools.wraps(operator)
    def on_scalar(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return operator(self, other)

    return on_scalar


@functools.total_ordering
class GaussianRational:
    """A complex scalar a + bi with exact rational real and imaginary parts.

    Values are immutable: ``re`` and ``im`` are read-only, the integer
    parts are private, and every operation returns a new value.  The
    comparison operators implement the lexicographic order on (re, im):
    Q(i) admits no field order, so this is purely a fixed output convention
    that makes sorted results byte-deterministic.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction | str = 0, im: int | Fraction | str = 0):
        value = _part(re) + _part(im) * _make(0, 1, 1)
        self._a, self._b, self._d = value._a, value._b, value._d

    @property
    def re(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._b, self._d)

    @_operand
    def __add__(self, other):
        d, e = self._d, other._d
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    @_operand
    def __sub__(self, other):
        return self + -other

    @_operand
    def __rsub__(self, other):
        return other + -self

    @_operand
    def __mul__(self, other):
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, other):
        # (a + bi)/d divided by (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2)).
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    @_operand
    def __rtruediv__(self, other):
        return other / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    @_operand
    def __eq__(self, other):
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        a, b, d = self._a, self._b, self._d
        if b:
            return hash((a, b, d))
        # A real value hashes as the int or Fraction it equals: Python's
        # rational hash, |a| times the inverse of d modulo the hash modulus.
        modulus = sys.hash_info.modulus
        value = hash(hash(abs(a)) * pow(d, -1, modulus)) if d % modulus else sys.hash_info.inf
        value = value if a >= 0 else -value
        return -2 if value == -1 else value

    @_operand
    def __lt__(self, other):
        # The (re, im) keys of both sides, each times the other's (positive) denominator.
        return (self._a * other._d, self._b * other._d) < (other._a * self._d, other._b * self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        parts = (self._a, self._b) if self._b else (self._a,)
        return f"GaussianRational({', '.join(repr(_format_ratio(p, self._d)) for p in parts)})"


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The internal constructor: (a + b*i)/d, already in canonical form."""
    value = _new(GaussianRational)
    value._a, value._b, value._d = a, b, d
    return value


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, brought to canonical form with one gcd."""
    if d != 1:
        g = _gcd(a, b, d)
        a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


def is_int(value) -> bool:
    """Whether value is an integer argument (a size, count or seed): an int,
    never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(value, role: Optional[str] = None) -> Optional[GaussianRational]:
    """An outside value as a scalar: a GaussianRational as it is, an int (bool
    and other int subclasses become plain ints) or a Fraction as a real one.
    Anything else is None, or, when ``role`` names what the value is for, a
    TypeError that says so."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return _make(value.numerator, 0, value.denominator)
    if role is None:
        return None
    raise TypeError(f"cannot use {type(value).__name__} as a {role}")


def _part(value) -> GaussianRational:
    """A real or imaginary part given to the constructor, as a real scalar: an
    int, a Fraction, or the grammar's rational text ``-?digits(/digits)?``."""
    if isinstance(value, str):
        match = _SCALAR_RE.fullmatch(value)
        if match is None or match.lastindex != 1:  # the real group alone matched
            raise ParseError(f"a scalar part must be rational text, got {value!r}")
        return parse_scalar(value)
    if isinstance(value, float):
        raise TypeError("floating-point values are not exact; use int or Fraction")
    if isinstance(value, GaussianRational):  # its imaginary part would be lost
        raise TypeError("cannot use GaussianRational as a scalar part")
    return _coerce(value, "scalar part")


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)


def _parse_rational(token: str, original: str) -> Tuple[int, int]:
    numerator, _, denominator = token.partition("/")
    try:
        num, den = int(numerator), int(denominator) if denominator else 1
    except ValueError as exc:  # the token is digits, so the digit limit refused it
        raise ParseError(f"scalar of {len(original)} characters: {exc}") from exc
    if den == 0:
        raise ZeroDenominator(f"zero denominator in scalar {original!r}")
    return num, den


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar literal.

    Grammar (no whitespace): ``rational = ["-"] digits ["/" digits]``; a
    scalar is a rational, a rational followed by ``i``, or
    ``rational ("+"|"-") rational "i"``.  Examples: ``-3``, ``1/2``,
    ``1i``, ``1/2-3/4i``.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a scalar string, got {type(text).__name__}")
    match = _SCALAR_RE.fullmatch(text)
    if match:
        real, sign, imag, alone = match.groups()
        if alone is not None:
            return _reduced(0, *_parse_rational(alone, text))
        p, q = _parse_rational(real, text)
        if imag is None:
            return _reduced(p, 0, q)
        r, s = _parse_rational(imag, text)
        return _reduced(p * s, -r * q if sign == "-" else r * q, q * s)
    hint = " (write 1i for the imaginary unit)" if text.strip("+-") == "i" else ""
    raise ParseError(f"malformed scalar {text!r}{hint}")


def _format_ratio(num: int, den: int) -> str:
    g = _gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def format_scalar(value: GaussianRational) -> str:
    """Canonical text form; ``parse_scalar(format_scalar(v)) == v``.  An int
    or Fraction formats as the scalar it is; another type is a TypeError."""
    value = _coerce(value, "scalar")
    a, b, d = value._a, value._b, value._d
    if not b:
        return _format_ratio(a, d)
    imag = _format_ratio(b, d) + "i"
    if not a:
        return imag
    return _format_ratio(a, d) + ("+" if b > 0 else "") + imag

