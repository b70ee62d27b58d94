"""Univariate polynomials over the Gaussian rationals.  Their one division is
``_divide``, over Z[i], where gcd, lcm and ``spectral.poly_roots_exact`` work
on polynomials as lists of (re, im) int pairs, ascending."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from .scalars import ONE, ZERO, GaussianRational, _coerce, _reduced, format_scalar


class Polynomial:
    """Coefficients in ascending degree; trailing zeros are stripped, so the
    zero polynomial has an empty coefficient tuple (and degree -1)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [_coerce(c, "polynomial coefficient") for c in coefficients]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading(self) -> GaussianRational:
        if self.is_zero():
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading
        if lead == ONE:
            return self
        return Polynomial([c / lead for c in self.coefficients])

    def __call__(self, point: GaussianRational) -> GaussianRational:
        result = ZERO
        for coefficient in reversed(self.coefficients):
            result = result * point + coefficient
        return result

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        size = max(len(self.coefficients), len(other.coefficients))
        return Polynomial(
            [
                (self.coefficients[k] if k < len(self.coefficients) else ZERO)
                + (other.coefficients[k] if k < len(other.coefficients) else ZERO)
                for k in range(size)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial([-c for c in self.coefficients])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            factor = _coerce(other)
            if factor is None:
                return NotImplemented
            return Polynomial([c * factor for c in self.coefficients])
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [ZERO] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial<{format_polynomial(self)}>"


def _divide(a: Sequence[Tuple[int, int]], b: Sequence[Tuple[int, int]]):
    """(q, r) with lead(b)^k * a = q*b + g*r over Z[i] for some k >= 0, g the
    integer content of r; q is read only when b is monic, where k = 0."""
    *low, (c, e) = b
    a, quotient = list(a), []
    while len(a) >= len(b):
        p, q = a.pop()
        quotient.append((p, q))
        if (p or q) and (c != 1 or e):
            a = [(x * c - y * e, x * e + y * c) for x, y in a]
        for j, (x, y) in enumerate(low, len(a) - len(low)):
            a[j] = (a[j][0] - p * x + q * y, a[j][1] - p * y - q * x)
    while a and a[-1] == (0, 0):
        a.pop()
    content = math.gcd(*(x for pair in a for x in pair))
    return quotient[::-1], [(x // content, y // content) for x, y in a]


def _integral(*polys: Polynomial) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """c, the lcm of the denominators of the polys made monic, and each such f
    of degree d as G(y) = c^d f(y/c), monic over Z[i] with c times its roots."""
    monic = [poly.monic() for poly in polys]
    c = math.lcm(*(x._d for f in monic for x in f.coefficients))
    return c, [[(x._a * c ** (f.degree - k) // x._d, x._b * c ** (f.degree - k) // x._d)
                for k, x in enumerate(f.coefficients)] for f in monic]


def _rational(g: Sequence[Tuple[int, int]], scale: int) -> Polynomial:
    """The f with g = c^d f(y/c), c = scale: the inverse of _integral."""
    return Polynomial([_reduced(x, y, scale ** (len(g) - 1 - k)) for k, (x, y) in enumerate(g)])


def _gcd(a: Sequence[Tuple[int, int]], b: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The monic gcd over Z[i] when it lies in Z[i][y], as it does for monic a
    and b (Gauss's lemma): the last pseudo-remainder over its leading coefficient."""
    while b:
        a, b = b, _divide(a, b)[1]
    c, e = a[-1] if a else (1, 0)
    norm = c * c + e * e
    return [((x * c + y * e) // norm, (y * c - x * e) // norm) for x, y in a]


def poly_gcd(first: Polynomial, second: Polynomial) -> Polynomial:
    """Monic greatest common divisor, taken over Z[i] on both made monic
    integral with one scale (_integral)."""
    scale, (f, s) = _integral(first, second)
    return _rational(_gcd(f, s), scale)


def poly_lcm(first: Polynomial, second: Polynomial) -> Polynomial:
    """Monic least common multiple: first made monic times second over the
    gcd, a quotient exact over Z[i] as the gcd is monic there."""
    if first.is_zero() or second.is_zero():
        return Polynomial()
    scale, (f, s) = _integral(first, second)
    return first.monic() * _rational(_divide(s, _gcd(f, s))[0], scale)


def format_polynomial(poly: Polynomial) -> str:
    """Human form with terms in descending degree, e.g. ``z^3 - 2``."""
    if poly.is_zero():
        return "0"
    parts = []
    for k in range(poly.degree, -1, -1):
        coefficient = poly.coefficients[k]
        if coefficient.is_zero():
            continue
        if k == 0:
            text = format_scalar(coefficient)
            if coefficient._a and coefficient._b:
                text = f"({text})"
        else:
            power = "z" if k == 1 else f"z^{k}"
            if coefficient == ONE:
                text = power
            elif coefficient == -ONE:
                text = f"-{power}"
            elif coefficient._a and coefficient._b:
                text = f"({format_scalar(coefficient)}){power}"
            else:
                text = f"{format_scalar(coefficient)}{power}"
        parts.append(text)
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out
