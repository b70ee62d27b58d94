"""An executable specification of the canonical Jordan decomposition.

It states what V, J and the blocks of ``jordan_decomposition`` must be for
any matrix whose spectrum is known, from definitions alone, and shares no
code with the package: it uses the standard library only, works on pairs of
``Fraction`` (re, im), and parses and formats the scalar grammar itself.
It is slow on purpose, forming each power of N = A - lambda*I explicitly.

The rules, given A and its spectrum sorted by (re, im):

- The canonical basis of a subspace is the RREF of its vectors read
  backwards, read back, in ascending free column: each vector is 1 at its
  free column (its last nonzero entry) and 0 at the other free columns.
- Stage k of lambda is the canonical basis of ker N^k, from the explicit
  power, for k = 1, 2, ... until its dimension is lambda's multiplicity.
- From the top stage down, each chain is extended by N.  Then stage k's
  vectors are walked in order, and a chain is seeded at each one that is
  independent of ker N^(k-1), the extended chains and the seeds already
  taken.
- V lists the chains in seed order (decreasing length), each chain's
  vectors in ascending stage, eigenvalue after eigenvalue; J has one Jordan
  block per chain.

    jordan(entries, spectrum) -> (V, J, blocks)

takes A's entries as scalar text and the spectrum as (eigenvalue text,
multiplicity) pairs, and returns V and J as rows of scalar text and the
blocks as (eigenvalue text, size) pairs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Sequence, Tuple

Scalar = Tuple[Fraction, Fraction]  # (re, im)
Vector = List[Scalar]

ZERO: Scalar = (Fraction(0), Fraction(0))
ONE: Scalar = (Fraction(1), Fraction(0))

_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_SCALAR = re.compile(rf"(?P<re>{_RATIONAL})(?:(?P<im>[+-]{_RATIONAL})i)?|(?P<alone>{_RATIONAL})i")


def parse(text: str) -> Scalar:
    """A scalar in the grammar: ``a``, ``bi`` or ``a+bi``/``a-bi``."""
    match = _SCALAR.fullmatch(text)
    if match is None:
        raise ValueError(f"not a scalar: {text!r}")
    if match["alone"] is not None:
        return Fraction(0), Fraction(match["alone"])
    return Fraction(match["re"]), Fraction(match["im"] or 0)


def fmt(x: Scalar) -> str:
    """The canonical text of a scalar (a Fraction's str is the grammar's rational)."""
    a, b = x
    if not b:
        return str(a)
    imag = f"{b}i"
    if not a:
        return imag
    return str(a) + ("+" if b > 0 else "") + imag


def _sub(x: Scalar, y: Scalar) -> Scalar:
    return x[0] - y[0], x[1] - y[1]


def _mul(x: Scalar, y: Scalar) -> Scalar:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div(x: Scalar, y: Scalar) -> Scalar:
    norm = y[0] * y[0] + y[1] * y[1]
    return _mul(x, (y[0] / norm, -y[1] / norm))


def _matmul(a: Sequence[Vector], b: Sequence[Vector]) -> List[Vector]:
    columns = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for column in columns:
            re_sum = im_sum = Fraction(0)
            for x, y in zip(row, column):
                re_sum += x[0] * y[0] - x[1] * y[1]
                im_sum += x[0] * y[1] + x[1] * y[0]
            out_row.append((re_sum, im_sum))
        out.append(out_row)
    return out


def _apply(a: Sequence[Vector], v: Vector) -> Vector:
    return [column[0] for column in _matmul(a, [[x] for x in v])]


def rref(rows: Sequence[Vector]) -> Tuple[List[Vector], List[int]]:
    """The nonzero rows of the reduced row echelon form, and their pivots."""
    rows = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    done: List[Vector] = []
    pivots: List[int] = []
    for column in range(width):
        index = next((i for i, row in enumerate(rows) if row[column] != ZERO), None)
        if index is None:
            continue
        pivot_row = rows.pop(index)
        pivot_row = [_div(x, pivot_row[column]) for x in pivot_row]
        rows = [[_sub(x, _mul(row[column], y)) for x, y in zip(row, pivot_row)] for row in rows]
        done = [[_sub(x, _mul(row[column], y)) for x, y in zip(row, pivot_row)] for row in done]
        done.append(pivot_row)
        pivots.append(column)
    return done, pivots


def kernel(a: Sequence[Vector]) -> List[Vector]:
    """A basis of ker a: per free column, 1 there, 0 at the other free
    columns, and the negated RREF entries at the pivots."""
    n = len(a[0])
    rows, pivots = rref(a)
    basis = []
    for free in range(n):
        if free not in pivots:
            v = [ZERO] * n
            v[free] = ONE
            for row, pivot in zip(rows, pivots):
                v[pivot] = (-row[free][0], -row[free][1])
            basis.append(v)
    return basis


def canonical(vectors: Sequence[Vector]) -> List[Vector]:
    """The canonical basis of the span: the RREF of the vectors read
    backwards, read back, in ascending free column."""
    rows, _ = rref([v[::-1] for v in vectors])
    return [row[::-1] for row in reversed(rows)]


class _Span:
    """A growing span, to test independence."""

    def __init__(self, vectors: Sequence[Vector] = ()):
        self.rows: List[Tuple[int, Vector]] = []
        for v in vectors:
            self.add(v)

    def add(self, v: Vector) -> bool:
        """Add v; False when it already lies in the span."""
        for pivot, row in self.rows:
            if v[pivot] != ZERO:
                v = [_sub(x, _mul(v[pivot], y)) for x, y in zip(v, row)]
        pivot = next((j for j, x in enumerate(v) if x != ZERO), None)
        if pivot is None:
            return False
        self.rows.append((pivot, [_div(x, v[pivot]) for x in v]))
        return True


def stages(shifted: Sequence[Vector], multiplicity: int) -> List[List[Vector]]:
    """The canonical bases of ker N, ker N^2, ... for N = shifted, up to
    dimension multiplicity."""
    power, ladder = shifted, []
    while not ladder or len(ladder[-1]) < multiplicity:
        if len(ladder) == len(shifted):
            raise ValueError(f"no generalized eigenspace of dimension {multiplicity}")
        ladder.append(canonical(kernel(power)))
        power = _matmul(power, shifted)
    return ladder


def chains(a: Sequence[Vector], eigenvalue: Scalar, multiplicity: int) -> List[List[Vector]]:
    """The Jordan chains of eigenvalue, in seed order, each in ascending stage."""
    shifted = [[_sub(x, eigenvalue) if i == j else x for j, x in enumerate(row)]
               for i, row in enumerate(a)]
    ladder = stages(shifted, multiplicity)
    found: List[List[Vector]] = []  # each chain from its seed down
    for k in range(len(ladder), 0, -1):
        used = _Span(ladder[k - 2] if k > 1 else ())
        for chain in found:
            chain.append(_apply(shifted, chain[-1]))
            used.add(chain[-1])
        for v in ladder[k - 1]:
            if used.add(v):
                found.append([v])
    return [chain[::-1] for chain in found]


def jordan(
    entries: Sequence[Sequence[str]], spectrum: Sequence[Tuple[str, int]]
) -> Tuple[List[List[str]], List[List[str]], List[Tuple[str, int]]]:
    """V, J and the blocks of A's canonical Jordan decomposition, as text."""
    a = [[parse(x) for x in row] for row in entries]
    n = len(a)
    columns: List[Vector] = []
    blocks: List[Tuple[Scalar, int]] = []
    for eigenvalue, multiplicity in sorted(((parse(t), m) for t, m in spectrum)):
        for chain in chains(a, eigenvalue, multiplicity):
            columns += chain
            blocks.append((eigenvalue, len(chain)))
    if len(columns) != n:
        raise ValueError(f"the spectrum covers {len(columns)} of {n} dimensions")
    j = [[ZERO] * n for _ in range(n)]
    start = 0
    for eigenvalue, size in blocks:
        for i in range(start, start + size):
            j[i][i] = eigenvalue
            if i + 1 < start + size:
                j[i][i + 1] = ONE
        start += size
    v_text = [[fmt(column[i]) for column in columns] for i in range(n)]
    j_text = [[fmt(x) for x in row] for row in j]
    return v_text, j_text, [(fmt(value), size) for value, size in blocks]
