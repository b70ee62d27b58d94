"""Output oracle for the benchmark, independent of jordanform's arithmetic.

Scalars of Q(i) are plain ``(Fraction, Fraction)`` pairs and matrices are
lists of rows of such pairs.  Program outputs reach this module only as
scalar strings in the documented grammar, parsed here by its own parser,
so a fault in jordanform's scalars, elimination or formatting cannot make
a wrong answer look right.  Every check raises ``OracleError`` naming what
failed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Sequence, Tuple

Scalar = Tuple[Fraction, Fraction]
Matrix = List[List[Scalar]]
# A planted Jordan structure: (eigenvalue, chain lengths) in canonical order.
Structure = List[Tuple[Scalar, List[int]]]

ZERO: Scalar = (Fraction(0), Fraction(0))
ONE: Scalar = (Fraction(1), Fraction(0))


class OracleError(AssertionError):
    """An output of the program contradicts an exact property of its input."""


def q(re, im=0) -> Scalar:
    return (Fraction(re), Fraction(im))


def add(a: Scalar, b: Scalar) -> Scalar:
    return (a[0] + b[0], a[1] + b[1])


def sub(a: Scalar, b: Scalar) -> Scalar:
    return (a[0] - b[0], a[1] - b[1])


def mul(a: Scalar, b: Scalar) -> Scalar:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    columns = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for column in columns:
            re = im = Fraction(0)
            for (ar, ai), (br, bi) in zip(row, column):
                if ar or ai:
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
            out_row.append((re, im))
        out.append(out_row)
    return out


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


# --- the scalar grammar -----------------------------------------------------

_RATIONAL = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"(?P<re>{_RATIONAL})(?P<sign>[+-])(?P<im>{_RATIONAL})i"
    rf"|(?P<pure>{_RATIONAL})i"
    rf"|(?P<real>{_RATIONAL})"
)


def _rational(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise OracleError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse(text: str) -> Scalar:
    """Parse a scalar string: ``a``, ``bi``, ``a+bi`` or ``a-bi``."""
    match = _SCALAR_RE.fullmatch(text)
    if match is None:
        raise OracleError(f"malformed scalar {text!r}")
    if match.group("real") is not None:
        return (_rational(match.group("real")), Fraction(0))
    if match.group("pure") is not None:
        return (Fraction(0), _rational(match.group("pure")))
    im = _rational(match.group("im"))
    return (_rational(match.group("re")), -im if match.group("sign") == "-" else im)


def _format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def fmt(value: Scalar) -> str:
    """The canonical scalar text, as the package documents it."""
    re_part, im_part = value
    if im_part == 0:
        return _format_rational(re_part)
    if re_part == 0:
        return _format_rational(im_part) + "i"
    sign = "+" if im_part > 0 else "-"
    return _format_rational(re_part) + sign + _format_rational(abs(im_part)) + "i"


def parse_matrix(cells: Sequence[Sequence[str]]) -> Matrix:
    return [[parse(cell) for cell in row] for row in cells]


def bit_length(cells: Sequence[Sequence[str]]) -> int:
    """Largest bit length of any numerator or denominator in the cells."""
    best = 0
    for row in cells:
        for re_part, im_part in (parse(cell) for cell in row):
            for part in (re_part, im_part):
                best = max(best, abs(part.numerator).bit_length(),
                           part.denominator.bit_length())
    return best


# --- nonsingularity by fraction-free elimination -----------------------------

def _gauss_divide(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    """a / b in Z[i]; the caller guarantees that b divides a."""
    norm = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    if re % norm or im % norm:
        raise OracleError("inexact Bareiss division: the oracle itself is wrong")
    return (re // norm, im // norm)


def is_nonsingular(matrix: Matrix) -> bool:
    """Bareiss elimination over Z[i] after clearing each column's denominators.

    Scaling a column by a nonzero integer keeps the rank, and every Bareiss
    step divides exactly by the previous pivot, so no fraction appears.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return False
    work = [[None] * n for _ in range(n)]
    for j in range(n):
        scale = 1
        for i in range(n):
            for part in matrix[i][j]:
                den = part.denominator
                scale = scale * den // _gcd(scale, den)
        for i in range(n):
            re_part, im_part = matrix[i][j]
            work[i][j] = (int(re_part * scale), int(im_part * scale))
    previous = (1, 0)
    for k in range(n):
        pivot = next((r for r in range(k, n) if work[r][k] != (0, 0)), None)
        if pivot is None:
            return False
        work[k], work[pivot] = work[pivot], work[k]
        pr, pi = work[k][k]
        for i in range(k + 1, n):
            ar, ai = work[i][k]
            for j in range(k + 1, n):
                xr, xi = work[i][j]
                yr, yi = work[k][j]
                num = (xr * pr - xi * pi - (ar * yr - ai * yi),
                       xr * pi + xi * pr - (ar * yi + ai * yr))
                work[i][j] = _gauss_divide(num, previous)
            work[i][k] = (0, 0)
        previous = (pr, pi)
    return True


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# --- checks -------------------------------------------------------------------

def jordan_blocks(structure: Structure) -> List[Tuple[Scalar, int]]:
    """Blocks in the package's canonical layout: eigenvalues ascending by
    (re, im), chains of one eigenvalue in decreasing length."""
    return [
        (value, size)
        for value, lengths in sorted(structure)
        for size in sorted(lengths, reverse=True)
    ]


def jordan_matrix(blocks: Sequence[Tuple[Scalar, int]]) -> Matrix:
    n = sum(size for _, size in blocks)
    out = [[ZERO] * n for _ in range(n)]
    offset = 0
    for value, size in blocks:
        for k in range(size):
            out[offset + k][offset + k] = value
            if k + 1 < size:
                out[offset + k][offset + k + 1] = ONE
        offset += size
    return out


def _similarity(a: Matrix, v_cells, m_cells) -> Matrix:
    """Parse V and M, check A*V == V*M and that V is nonsingular; return M."""
    n = len(a)
    v = parse_matrix(v_cells)
    m = parse_matrix(m_cells)
    if len(v) != n or len(m) != n or any(len(r) != n for r in v + m):
        raise OracleError(f"V or M is not {n}x{n}")
    if matmul(a, v) != matmul(v, m):
        raise OracleError("A*V != V*M")
    if not is_nonsingular(v):
        raise OracleError("V is singular")
    return m


def _same_blocks(blocks: Sequence[Tuple[str, int]],
                 expected: Sequence[Tuple[Scalar, int]]) -> None:
    got = [(parse(value), size) for value, size in blocks]
    if got != list(expected):
        raise OracleError(
            f"blocks {[(fmt(x), s) for x, s in got]} != planted "
            f"{[(fmt(x), s) for x, s in expected]}"
        )


def check_decomposition(
    a: Matrix,
    v_cells: Sequence[Sequence[str]],
    m_cells: Sequence[Sequence[str]],
    blocks: Sequence[Tuple[str, int]],
    structure: Structure,
) -> None:
    """A Jordan decomposition (V, M, blocks) of A against the planted structure.

    Checks A*V == V*M, that V is nonsingular, that the block list is the
    planted one in canonical order and that M is its Jordan matrix.
    """
    m = _similarity(a, v_cells, m_cells)
    expected = jordan_blocks(structure)
    _same_blocks(blocks, expected)
    if m != jordan_matrix(expected):
        raise OracleError("M is not the Jordan matrix of the planted blocks")


def check_stage(
    kind: str,
    a: Matrix,
    v_cells: Sequence[Sequence[str]],
    m_cells: Sequence[Sequence[str]],
    blocks: Sequence[Tuple[str, int]],
    structure: Structure,
) -> None:
    """A ``schur``, ``blockdiag`` or ``blocktri`` decomposition of A.

    Checks A*V == V*M and that V is nonsingular.  Blocks follow the
    planted eigenvalues in canonical order: for schur one block of size 1
    per eigenvalue counted with multiplicity, M upper triangular with those
    values on its diagonal; otherwise one block per eigenvalue, sized by
    its algebraic multiplicity, with M zero outside the blocks.  A blocktri
    block is upper triangular with its eigenvalue on the diagonal; a
    blockdiag block B has (B - lambda*I)^size == 0.
    """
    m = _similarity(a, v_cells, m_cells)
    n = len(a)
    spaces = [(value, sum(lengths)) for value, lengths in sorted(structure)]
    if kind == "schur":
        expected = [(value, 1) for value, size in spaces for _ in range(size)]
        _same_blocks(blocks, expected)
        if any(m[i][j] != ZERO for i in range(n) for j in range(i)):
            raise OracleError("schur: M is not upper triangular")
        if [m[i][i] for i in range(n)] != [value for value, _ in expected]:
            raise OracleError("schur: the diagonal of M is not the planted eigenvalues")
        return
    if kind not in ("blockdiag", "blocktri"):
        raise OracleError(f"unknown stage {kind!r}")
    _same_blocks(blocks, spaces)
    owner = [k for k, (_, size) in enumerate(spaces) for _ in range(size)]
    if any(m[i][j] != ZERO for i in range(n) for j in range(n) if owner[i] != owner[j]):
        raise OracleError(f"{kind}: M is not zero outside the blocks")
    offset = 0
    for value, size in spaces:
        block = [row[offset:offset + size] for row in m[offset:offset + size]]
        offset += size
        if kind == "blocktri":
            if any(block[i][j] != ZERO for i in range(size) for j in range(i)) or any(
                block[i][i] != value for i in range(size)
            ):
                raise OracleError(f"blocktri: the {fmt(value)} block is not triangular "
                                  "with its eigenvalue on the diagonal")
            continue
        shifted = [[sub(x, value) if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(block)]
        power = shifted
        for _ in range(size - 1):
            power = matmul(power, shifted)
        if any(x != ZERO for row in power for x in row):
            raise OracleError(f"blockdiag: the {fmt(value)} block has another eigenvalue")


def check_spectrum(
    entries: Sequence[Tuple[str, int, int, int]],
    structure: Structure,
    quadratics: Sequence[Tuple[int, int]] = (),
) -> None:
    """Spectrum entries (lambda, multiplicity, geometric, max stage).

    They must equal the planted eigenvalues with their algebraic and
    geometric multiplicities and longest chains; every non-real root of a
    planted real quadratic z^2 - 2a z + (a^2 + b^2), given as (a, b), must
    satisfy that quadratic.
    """
    expected = [
        (value, sum(lengths), len(lengths), max(lengths))
        for value, lengths in sorted(structure)
    ]
    got = [(parse(value), mult, geo, stage) for value, mult, geo, stage in entries]
    if got != expected:
        raise OracleError(
            f"spectrum {[(fmt(e[0]),) + tuple(e[1:]) for e in got]} != planted "
            f"{[(fmt(e[0]),) + tuple(e[1:]) for e in expected]}"
        )
    values = [value for value, *_ in got]
    for a_part, b_part in quadratics:
        for sign in (1, -1):
            root = q(a_part, sign * b_part)
            if root not in values:
                raise OracleError(f"root {fmt(root)} of a planted quadratic missing")
            square = mul(root, root)
            value = add(sub(square, mul(q(2 * a_part), root)),
                        q(a_part * a_part + b_part * b_part))
            if value != ZERO:
                raise OracleError(f"{fmt(root)} does not satisfy its quadratic")


def cubic_text(constant: int) -> str:
    """The package's documented rendering of the factor z^3 - c."""
    return f"z^3 - {constant}" if constant > 0 else f"z^3 + {-constant}"


def check_cubic(factor_text: str, constant: int) -> None:
    """The factor a SpectrumNotRepresentable names must be the planted cubic."""
    if factor_text != cubic_text(constant):
        raise OracleError(
            f"unrepresentable factor {factor_text!r} != planted {cubic_text(constant)!r}"
        )
