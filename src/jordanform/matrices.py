"""Dense exact matrices over Q(i) and the elimination toolkit.

``Echelon`` is the only elimination: it grows a reduced basis one vector at
a time for the layers that ask again and again whether a vector is new
(Krylov runs, basis completion and chain seeding), and ``rref`` is built on
it.  Kernels are read off the RREF, which is unique, so the same subspace
always gets byte-identical basis vectors whatever order the rows arrive in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DependentInput, DimensionMismatch, SingularMatrix, ZeroVector
from .polynomials import Polynomial
from .scalars import ONE, ZERO, GaussianRational, format_scalar, parse_scalar


def _entry(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")


class ExactMatrix:
    """An immutable dense matrix of Gaussian rationals.

    Equality is entrywise exact equality.  Arithmetic never rounds; entry
    growth under elimination is accepted (target sizes are small).
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Iterable], cols: Optional[int] = None):
        table = tuple(tuple(_entry(x) for x in row) for row in data)
        object.__setattr__(self, "rows", len(table))
        if table:
            width = len(table[0])
            if any(len(row) != width for row in table):
                raise DimensionMismatch("rows of unequal length")
            if cols is not None and cols != width:
                raise DimensionMismatch("explicit column count does not match data")
        else:
            width = cols or 0
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_data", table)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "ExactMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def column(cls, entries: Iterable) -> "ExactMatrix":
        return cls([[x] for x in entries])

    @classmethod
    def basis_vector(cls, n: int, index: int) -> "ExactMatrix":
        return cls.column([ONE if i == index else ZERO for i in range(n)])

    @classmethod
    def hstack(cls, mats: Sequence["ExactMatrix"]) -> "ExactMatrix":
        if not mats:
            raise DimensionMismatch("hstack of an empty sequence")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise DimensionMismatch("hstack of matrices with different row counts")
        return cls(
            [[x for m in mats for x in m._data[i]] for i in range(rows)],
            cols=sum(m.cols for m in mats),
        )

    def __getitem__(self, key: Tuple[int, int]) -> GaussianRational:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> Tuple[GaussianRational, ...]:
        return self._data[i]

    def col(self, j: int) -> "ExactMatrix":
        return ExactMatrix.column([self._data[i][j] for i in range(self.rows)])

    def column_entries(self, j: int = 0) -> Tuple[GaussianRational, ...]:
        return tuple(self._data[i][j] for i in range(self.rows))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        return ExactMatrix(
            [row[c0:c1] for row in self._data[r0:r1]], cols=c1 - c0
        )

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        total = ZERO
        for i in range(self.rows):
            total = total + self._data[i][i]
        return total

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self._data for x in row)

    def is_upper_triangular(self) -> bool:
        return all(
            self._data[i][j].is_zero()
            for i in range(self.rows)
            for j in range(min(i, self.cols))
        )

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition with different shapes")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ],
            cols=self.cols,
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExactMatrix([[-x for x in row] for row in self._data], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            factor = _entry(other)
            return ExactMatrix(
                [[x * factor if x else x for x in row] for row in self._data], cols=self.cols
            )
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        other_t = list(zip(*other._data)) if other._data else []
        out = []
        for row in self._data:
            out_row = []
            for col in range(other.cols):
                acc = ZERO
                column = other_t[col] if other_t else ()
                for a, b in zip(row, column):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return ExactMatrix(out, cols=other.cols)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def entries_str(self) -> List[List[str]]:
        return [[format_scalar(x) for x in row] for row in self._data]

    def __repr__(self):
        return f"ExactMatrix({self.entries_str()!r})"


def shift_by(matrix: ExactMatrix, scalar: GaussianRational) -> ExactMatrix:
    """matrix - scalar * identity."""
    if not matrix.is_square():
        raise DimensionMismatch("shift of a non-square matrix")
    return ExactMatrix(
        [
            [x - scalar if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(matrix._data)
        ],
        cols=matrix.cols,
    )


class Basis(NamedTuple):
    """An ordered, linearly independent family of column vectors.

    Bases produced in this package are canonical: they come out of the RREF
    free-variable construction (or a fixed completion rule), so the same
    subspace always gets byte-identical vectors.
    """

    ambient_dim: int
    vectors: Tuple[ExactMatrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def as_matrix(self) -> ExactMatrix:
        if not self.vectors:
            return ExactMatrix.zeros(self.ambient_dim, 0)
        return ExactMatrix.hstack(self.vectors)


class Echelon:
    """A reduced basis of a growing subspace, built one vector at a time.

    ``rows`` holds (pivot, row) pairs in insertion order; each row is 1 at its
    pivot, its first nonzero entry, and 0 at the pivot of every earlier row.
    """

    def __init__(self):
        self.rows: List[Tuple[int, List[GaussianRational]]] = []

    def reduce(self, entries: Sequence[GaussianRational]) -> List[GaussianRational]:
        """The entries less their part along the rows; 0 at every pivot."""
        vector = list(entries)
        for pivot, row in self.rows:
            factor = vector[pivot]
            if factor:
                vector = [x - factor * y if y else x for x, y in zip(vector, row)]
        return vector

    def insert(self, entries: Sequence[GaussianRational]) -> bool:
        """Add a vector to the span; False, rows untouched, if already in it."""
        vector = self.reduce(entries)
        for pivot, lead in enumerate(vector):
            if lead:
                inv = ONE / lead
                self.rows.append((pivot, [x * inv if x else x for x in vector]))
                return True
        return False


def rref(matrix: ExactMatrix) -> Tuple[ExactMatrix, List[int]]:
    """Reduced row echelon form together with the pivot column indices.

    The RREF of a matrix is unique, so every basis read off it depends on
    the row space alone.  The rows go into an ``Echelon``; then, in
    descending pivot order, each is reduced against the finished rows below
    it, which clears the entries above every pivot from the bottom up.
    """
    echelon = Echelon()
    for i in range(matrix.rows):
        echelon.insert(matrix.row(i))
    reduced = Echelon()
    for pivot, row in sorted(echelon.rows, key=lambda item: -item[0]):
        reduced.rows.append((pivot, reduced.reduce(row)))
    reduced.rows.reverse()
    rows = [row for _, row in reduced.rows]
    rows.extend([ZERO] * matrix.cols for _ in range(matrix.rows - len(rows)))
    return ExactMatrix(rows, cols=matrix.cols), [pivot for pivot, _ in reduced.rows]


def rank(matrix: ExactMatrix) -> int:
    return len(rref(matrix)[1])


def kernel_from_rref(reduced: ExactMatrix, pivots: Sequence[int]) -> Basis:
    """Canonical kernel basis read off an RREF, one vector per free column f,
    in order: 1 at f, 0 at every other free column, and the negated RREF
    entry at each pivot column.  Rows past the pivots are never read."""
    pivot_set = set(pivots)
    vectors = []
    for free in range(reduced.cols):
        if free in pivot_set:
            continue
        entries = [ZERO] * reduced.cols
        entries[free] = ONE
        for k, pivot_col in enumerate(pivots):
            entries[pivot_col] = -reduced[k, free]
        vectors.append(ExactMatrix.column(entries))
    return Basis(reduced.cols, tuple(vectors))


def nullspace_basis(matrix: ExactMatrix) -> Basis:
    """Canonical basis of the kernel (see ``kernel_from_rref``)."""
    return kernel_from_rref(*rref(matrix))


def solve(matrix: ExactMatrix, rhs: ExactMatrix) -> Optional[ExactMatrix]:
    """One exact solution of matrix * x = rhs, or None when inconsistent.

    When the system is underdetermined, all free variables are set to zero,
    which makes the returned representative canonical.
    """
    if rhs.cols != 1 or rhs.rows != matrix.rows:
        raise DimensionMismatch(
            f"solve needs a {matrix.rows}x1 right-hand side, got {rhs.rows}x{rhs.cols}"
        )
    reduced, pivots = rref(ExactMatrix.hstack([matrix, rhs]))
    if matrix.cols in pivots:
        return None
    entries = [ZERO] * matrix.cols
    for k, pivot_col in enumerate(pivots):
        entries[pivot_col] = reduced[k, matrix.cols]
    return ExactMatrix.column(entries)


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises SingularMatrix when the rank is deficient."""
    if not matrix.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    n = matrix.rows
    reduced, pivots = rref(ExactMatrix.hstack([matrix, ExactMatrix.identity(n)]))
    if pivots != list(range(n)):
        raise SingularMatrix(f"matrix of rank {len([p for p in pivots if p < n])} < {n}")
    return reduced.submatrix(0, n, n, 2 * n)


def complete_basis(partial: Basis) -> ExactMatrix:
    """Extend a partial basis to an invertible square matrix.

    The given vectors stay in front; the remaining columns are standard
    basis vectors taken greedily in index order, skipping any that is
    already dependent on the columns collected so far.
    """
    n = partial.ambient_dim
    span = Echelon()
    if not all(span.insert(v.column_entries()) for v in partial.vectors):
        raise DependentInput("the given vectors are not linearly independent")
    columns = list(partial.vectors)
    for index in range(n):
        if len(columns) == n:
            break
        candidate = ExactMatrix.basis_vector(n, index)
        if span.insert(candidate.column_entries()):
            columns.append(candidate)
    return ExactMatrix.hstack(columns)


def krylov_run(matrix: ExactMatrix, vector: ExactMatrix) -> Tuple[Polynomial, Echelon]:
    """``krylov_annihilator`` and an echelon whose rows, cut to their first n
    entries, span the cyclic subspace; the other n + 1 entries of a row are
    its coefficients over the powers."""
    if not matrix.is_square():
        raise DimensionMismatch("krylov_annihilator needs a square matrix")
    if vector.cols != 1 or vector.rows != matrix.rows:
        raise DimensionMismatch("vector shape does not match the matrix")
    if vector.is_zero():
        raise ZeroVector("krylov_annihilator of the zero vector")
    n = matrix.rows
    echelon = Echelon()
    power = vector
    for degree in range(n + 1):
        tag = [ONE if k == degree else ZERO for k in range(n + 1)]
        reduced = echelon.reduce(list(power.column_entries()) + tag)
        if not any(reduced[:n]):
            # 0 = sum of c_k * A^k v with c_degree = 1: the annihilator itself.
            return Polynomial(reduced[n:]), echelon
        echelon.insert(reduced)
        power = matrix * power
    raise AssertionError("n+1 Krylov vectors cannot stay independent")


def krylov_annihilator(matrix: ExactMatrix, vector: ExactMatrix) -> Polynomial:
    """Monic polynomial of least degree with P(matrix) * vector = 0.

    Reduces vector, A*vector, A^2*vector, ... against the earlier powers
    and stops at the first power that reduces to zero; since the retained
    powers are independent, the combination found is unique.
    """
    return krylov_run(matrix, vector)[0]
