"""Univariate polynomials over the Gaussian rationals, and their roots in Q(i).

This is the one module that sees polynomials over Z[i] as lists of (re, im)
int pairs, ascending.  gcd, lcm and ``poly_roots_exact`` clear denominators
into that form (``_integral``) and work there; its one division is
``_divide``.  Root finding takes a monic polynomial over the Gaussian
integers, finds the roots of its square-free part modulo a split prime,
Hensel-lifts them and recovers them by Gaussian rounding, and checks every
candidate exactly, so it finds every root in Q(i) and approximates none."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

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


def _split_primes() -> Iterator[int]:
    """The primes p = 1 (mod 4) in increasing order: those that split in Z[i]."""
    p = 5
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 4


def _value_and_slope(
    coefficients: Sequence[int], x: int, modulus: int
) -> Tuple[int, int]:
    """g(x) and g'(x) modulo modulus, in one Horner pass."""
    value = slope = 0
    for c in reversed(coefficients):
        slope = (slope * x + value) % modulus
        value = (value * x + c) % modulus
    return value, slope


def _simple_roots_mod(coefficients: Sequence[int], p: int) -> Optional[List[Tuple[int, int]]]:
    """Each root x of g modulo the prime p with 1/g'(x) mod p, or None when one is repeated."""
    roots = []
    for x in range(p):
        value, slope = _value_and_slope(coefficients, x, p)
        if value == 0:
            if slope == 0:
                return None
            roots.append((x, pow(slope, -1, p)))
    return roots


def _gaussian_integer_roots(g: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """A list of Gaussian integers holding every root in Z[i] of g, a monic
    square-free polynomial over Z[i] given as (re, im) pairs, ascending.

    For a prime p = 1 (mod 4), iota^2 = -1 (mod p^k) and pi = gcd(p, iota - i),
    Z[i]/pi^k is Z/p^k with i sent to iota.  The roots of g modulo pi are
    found by trying every residue, at the first p where all are simple, and
    Newton-lifted together with iota until p^k > 8 B^2, B the Cauchy bound of
    g.  A lift from m to m^2 needs the inverses of 2*iota and of the slopes
    only modulo m: carried over, each takes one Newton step inv*(2 - s*inv).
    The multiples of pi^k form a square lattice whose shortest vector is
    p^(k/2) > 2B long, so a root of g, of modulus at most B, is the Gaussian
    rounding remainder of its lifted residue modulo pi^k.
    """
    bound = 2 + max(math.isqrt(a * a + b * b) for a, b in g[:-1])
    for p in _split_primes():
        iota = next(x for x in range(2, p) if (x * x + 1) % p == 0)
        residues = _simple_roots_mod([(a + b * iota) % p for a, b in g], p)
        if residues is not None:
            break
    # pi = u + v*i with u^2 + v^2 = p (Fermat: p = 1 mod 4 is such a sum,
    # so u stays below sqrt(p)) and u + v*iota = 0 (mod p).
    u = next(u for u in range(1, p) if math.isqrt(p - u * u) ** 2 == p - u * u)
    v = math.isqrt(p - u * u)
    if (u + v * iota) % p:
        v = -v
    half = pow(2 * iota, -1, p)
    modulus = p
    while residues and modulus <= 8 * bound * bound:
        old, modulus = modulus, modulus * modulus
        half = half * (2 - 2 * iota * half) % old
        iota = (iota - (iota * iota + 1) * half) % modulus
        u, v = u * u - v * v, 2 * u * v  # pi^k squared, of norm p^(2k)
        coefficients = [(a + b * iota) % modulus for a, b in g]
        for k, (x, inverse) in enumerate(residues):
            value, slope = _value_and_slope(coefficients, x, modulus)
            inverse = inverse * (2 - slope * inverse) % old
            residues[k] = ((x - value * inverse) % modulus, inverse)
    roots = []
    for x, _ in residues:
        # x - (u + v*i)*q, q the nearest Gaussian integer to x/(u + v*i).
        qu = (2 * x * u + modulus) // (2 * modulus)
        qv = (modulus - 2 * x * v) // (2 * modulus)
        roots.append((x - u * qu + v * qv, -u * qv - v * qu))
    return roots


def poly_roots_exact(poly: Polynomial) -> Tuple[List[Tuple[GaussianRational, int]], Polynomial]:
    """The roots of poly inside Q(i), with multiplicities, canonically
    sorted, and the monic rest of poly once they are divided out, which has
    no root in Q(i): the constant 1 when poly splits over Q(i).

    A linear z + c has the root -c.  Any other poly is worked on as one
    polynomial over Z[i] (``_integral``): with c the lcm of the
    denominators of f = poly / lead, G(y) = c^d f(y/c) is monic with roots
    beta = c * root.  gcd(G, G') is monic in Z[i][y] by Gauss's lemma and
    found by pseudo-remainders (``_gcd``), so S = G / gcd(G, G')
    is exact.  S is searched (_gaussian_integer_roots), and each candidate is
    divided out of G while the remainder is 0, which counts its multiplicity
    m: as m - 1 is its multiplicity in gcd(G, G'), no more than
    1 + deg gcd(G, G') tries.  Scalars are built only for the roots and the
    rest.
    """
    if poly.degree < 1:
        raise ValueError("poly_roots_exact needs degree >= 1")
    work = poly.monic()
    if work.degree == 1:
        return [(-work.coefficients[0], 1)], Polynomial([1])
    scale, (g,) = _integral(work)
    a = _gcd(g, [(k * x, k * y) for k, (x, y) in enumerate(g)][1:])
    roots: List[Tuple[GaussianRational, int]] = []
    for u, v in _gaussian_integer_roots(_divide(g, a)[0]):
        count = 0
        while count < len(a) and not (division := _divide(g, [(-u, -v), (1, 0)]))[1]:
            g, count = division[0], count + 1
        if count:
            roots.append((_reduced(u, v, scale), count))
    return sorted(roots), _rational(g, scale)


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
