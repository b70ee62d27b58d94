"""Univariate polynomials over the Gaussian rationals."""

from __future__ import annotations

from typing import Iterable

from .scalars import ONE, ZERO, GaussianRational, _coerce, format_scalar


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

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coefficients)
        divisor = other.coefficients
        quotient = [ZERO] * max(len(remainder) - len(divisor) + 1, 0)
        inv_lead = ONE / other.leading
        for k in range(len(remainder) - len(divisor), -1, -1):
            factor = remainder[k + len(divisor) - 1] * inv_lead
            quotient[k] = factor
            if factor.is_zero():
                continue
            for j, d in enumerate(divisor):
                remainder[k + j] = remainder[k + j] - factor * d
        return Polynomial(quotient), Polynomial(remainder)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        quotient, remainder = divmod(self, other)
        if not remainder.is_zero():
            raise ValueError(f"{other} does not divide {self}")
        return quotient

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


def poly_gcd(first: Polynomial, second: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean algorithm."""
    a, b = first, second
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(first: Polynomial, second: Polynomial) -> Polynomial:
    """Monic least common multiple; exact since the gcd divides the product."""
    if first.is_zero() or second.is_zero():
        return Polynomial()
    return (first * second).exact_div(poly_gcd(first, second)).monic()


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
