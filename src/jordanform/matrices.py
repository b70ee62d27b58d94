"""Dense exact matrices over Q(i) and the elimination toolkit.

``Echelon`` is the only elimination: it grows a reduced basis one vector at
a time for the layers that ask again and again whether a vector is new
(Krylov runs, basis completion and chain seeding), and ``rref`` is built on
it.  Kernels are read off the RREF, which is unique, so the same subspace
always gets byte-identical basis vectors whatever order the rows arrive in.
Elimination and products run on packed vectors, Gaussian integers over one
positive denominator: ``(re, im, d)`` with int lists re and im.  A row
operation is int arithmetic, then one gcd that divides out the content and
leaves the row primitive, so entries keep their true size; scalars are built
only for what callers read.  The format stays inside this module, and so do
the analyses run on it: kernel ladders, the factors of the characteristic
polynomial from one Krylov pass, and the minimal polynomial as the lcm of the
Krylov annihilators of the standard basis vectors (a spanning family, so the
lcm annihilates the whole space).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DependentInput, DimensionMismatch, SingularMatrix, ZeroVector
from .polynomials import Polynomial, poly_lcm
from .scalars import ONE, ZERO, GaussianRational, _reduced, format_scalar, parse_scalar

Packed = Tuple[List[int], List[int], int]
Row = Tuple[int, List[int], List[int], int]  # (pivot, re, im, d)


def _entry(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")


def _pack(entries: Sequence[GaussianRational]) -> Packed:
    """Scalars as one packed vector over the lcm of their denominators,
    which leaves it primitive: gcd(d, *re, *im) == 1."""
    d = lcm(*[x._d for x in entries])
    return [x._a * (d // x._d) for x in entries], [x._b * (d // x._d) for x in entries], d


def _primitive(re: List[int], im: List[int], d: int) -> Packed:
    """The same packed vector with its content gcd(d, *re, *im) divided out."""
    g = gcd(d, *re, *im)
    if g == 1:
        return re, im, d
    return [a // g for a in re], [b // g for b in im], d // g


def _unpack(re: Sequence[int], im: Sequence[int], d: int) -> List[GaussianRational]:
    return [_reduced(a, b, d) for a, b in zip(re, im)]


def _product(rows: Iterable[Packed], right: Packed, width: int) -> List[Packed]:
    """Each packed row times the matrix packed row-major in ``right``: a
    packed row over the product of the denominators, content not removed."""
    r_re, r_im, e = right
    c_re = [r_re[j::width] for j in range(width)]
    c_im = [r_im[j::width] for j in range(width)] if any(r_im) else None
    out = []
    for re, im, d in rows:
        x_re = [sum(map(mul, re, c)) for c in c_re]
        x_im = [sum(map(mul, im, c)) for c in c_re] if any(im) else [0] * width
        if c_im is not None:
            x_re = [x - sum(map(mul, im, c)) for x, c in zip(x_re, c_im)]
            x_im = [y + sum(map(mul, re, c)) for y, c in zip(x_im, c_im)]
        out.append((x_re, x_im, d * e))
    return out


class ExactMatrix:
    """An immutable dense matrix of Gaussian rationals.

    Equality is entrywise exact equality, and arithmetic never rounds.
    Products and elimination work on packed rows, Gaussian integers over one
    denominator kept primitive (content removed) after every step, so the
    integers stay at the size the exact values need.
    """

    __slots__ = ("rows", "cols", "_data")

    def __new__(cls, data: Iterable[Iterable]) -> "ExactMatrix":
        table = tuple(tuple(_entry(x) for x in row) for row in data)
        width = len(table[0]) if table else 0
        if any(len(row) != width for row in table):
            raise DimensionMismatch("rows of unequal length")
        return cls._trusted(table, width)

    @classmethod
    def _trusted(cls, table: Sequence[Sequence], cols: int) -> "ExactMatrix":
        """A matrix over a rectangular table of scalars this package built,
        taken as they are: ``_entry`` coercion is for caller input."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", len(table))
        object.__setattr__(matrix, "cols", cols)
        object.__setattr__(matrix, "_data", tuple(map(tuple, table)))
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "ExactMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        table = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        return cls._trusted(table, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._trusted([[ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def column(cls, entries: Iterable) -> "ExactMatrix":
        return cls([[x] for x in entries])

    @classmethod
    def basis_vector(cls, n: int, index: int) -> "ExactMatrix":
        return cls._trusted([[ONE if i == index else ZERO] for i in range(n)], 1)

    @classmethod
    def hstack(cls, mats: Sequence["ExactMatrix"]) -> "ExactMatrix":
        if not mats:
            raise DimensionMismatch("hstack of an empty sequence")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise DimensionMismatch("hstack of matrices with different row counts")
        return cls._trusted(
            [[x for m in mats for x in m._data[i]] for i in range(rows)],
            sum(m.cols for m in mats),
        )

    def __getitem__(self, key: Tuple[int, int]) -> GaussianRational:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> Tuple[GaussianRational, ...]:
        return self._data[i]

    def col(self, j: int) -> "ExactMatrix":
        return ExactMatrix._trusted([[row[j]] for row in self._data], 1)

    def column_entries(self, j: int = 0) -> Tuple[GaussianRational, ...]:
        return tuple(self._data[i][j] for i in range(self.rows))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        return ExactMatrix._trusted([row[c0:c1] for row in self._data[r0:r1]], c1 - c0)

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self._data[i][i] for i in range(self.rows)), ZERO)

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
        return ExactMatrix._trusted(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)],
            self.cols,
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExactMatrix._trusted([[-x for x in row] for row in self._data], self.cols)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            factor = _entry(other)
            return ExactMatrix._trusted(
                [[x * factor if x else x for x in row] for row in self._data], self.cols
            )
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = _pack([x for row in other._data for x in row])
        products = _product(map(_pack, self._data), right, other.cols)
        return ExactMatrix._trusted([_unpack(*row) for row in products], other.cols)

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
    return ExactMatrix._trusted(
        [[x - scalar if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(matrix._data)],
        matrix.cols,
    )


class Basis(NamedTuple):
    """An ordered, linearly independent family of column vectors.

    Bases produced in this package are canonical: they come out of the RREF
    free-variable construction, so the same subspace always gets
    byte-identical vectors.
    """

    ambient_dim: int
    vectors: Tuple[ExactMatrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


class Echelon:
    """A reduced basis of a growing subspace, built one vector at a time.

    ``packed`` holds (pivot, re, im, d) in insertion order: a primitive
    packed row that is 1 at its pivot (re[pivot] == d, im[pivot] == 0), its
    first nonzero entry, and 0 at the pivot of every earlier row.  ``rows``
    shows the same rows as (pivot, scalars) pairs.
    """

    def __init__(self):
        self.packed: List[Row] = []

    @property
    def rows(self) -> List[Tuple[int, List[GaussianRational]]]:
        return [(pivot, _unpack(re, im, d)) for pivot, re, im, d in self.packed]

    def reduce(self, re: List[int], im: List[int], d: int) -> Packed:
        """A packed vector less its part along the rows; 0 at every pivot.
        Against a row y over e, x over d becomes (e*x - f*y)/(d*e), f the
        numerator of x at y's pivot, and then loses its content."""
        for pivot, y_re, y_im, e in self.packed:
            f_re, f_im = re[pivot], im[pivot]
            if not (f_re or f_im):
                continue
            if f_im:
                re = [a * e - f_re * b + f_im * c for a, b, c in zip(re, y_re, y_im)]
                im = [a * e - f_re * c - f_im * b for a, b, c in zip(im, y_re, y_im)]
            else:
                re = [a * e - f_re * b for a, b in zip(re, y_re)]
                im = [a * e - f_re * c for a, c in zip(im, y_im)]
            re, im, d = _primitive(re, im, d * e)
        return re, im, d

    def add(self, re: List[int], im: List[int], d: int) -> bool:
        """Add a packed vector to the span; False, rows untouched, if already in it."""
        re, im, d = self.reduce(re, im, d)
        for pivot, (f_re, f_im) in enumerate(zip(re, im)):
            if f_re or f_im:
                # Over its pivot entry (f_re + f_im*i)/d: times the conjugate over the norm.
                self.packed.append((pivot, *_primitive(
                    [a * f_re + b * f_im for a, b in zip(re, im)],
                    [b * f_re - a * f_im for a, b in zip(re, im)],
                    f_re * f_re + f_im * f_im,
                )))
                return True
        return False

    def insert(self, entries: Sequence[GaussianRational]) -> bool:
        """Add a vector of scalars to the span; False if already in it."""
        return self.add(*_pack(entries))


def _forward_rows(rows: Iterable[Packed]) -> List[Row]:
    """The packed rows in echelon form (``Echelon``), in insertion order."""
    echelon = Echelon()
    for row in rows:
        echelon.add(*row)
    return echelon.packed


def _back_substitute(rows: List[Row]) -> List[Row]:
    """The RREF of echelon rows, in pivot order: in descending pivot order,
    each row is reduced against the finished rows below it, clearing above
    every pivot."""
    reduced = Echelon()
    for pivot, re, im, d in sorted(rows, key=lambda row: -row[0]):
        reduced.packed.append((pivot, *reduced.reduce(re, im, d)))
    reduced.packed.reverse()
    return reduced.packed


def _rref_rows(rows: Iterable[Packed]) -> List[Row]:
    """The nonzero rows of the RREF of the packed rows, in pivot order."""
    return _back_substitute(_forward_rows(rows))


def rref(matrix: ExactMatrix) -> Tuple[ExactMatrix, List[int]]:
    """Reduced row echelon form together with the pivot column indices.
    The RREF is unique, so every basis read off it depends on the row space alone."""
    rows = _rref_rows(map(_pack, matrix._data))
    table = [_unpack(re, im, d) for _, re, im, d in rows]
    table.extend([ZERO] * matrix.cols for _ in range(matrix.rows - len(rows)))
    return ExactMatrix._trusted(table, matrix.cols), [row[0] for row in rows]


def rank(matrix: ExactMatrix) -> int:
    return sum(map(Echelon().insert, matrix._data))


def _kernel_from_rref(rows: Sequence[Row], cols: int) -> Basis:
    """Canonical kernel basis read off the nonzero RREF rows from
    ``_rref_rows``, one vector per free column f, in order: 1 at f, 0 at
    every other free column, and the negated RREF entry at each pivot."""
    pivots = {row[0] for row in rows}
    vectors = []
    for free in range(cols):
        if free in pivots:
            continue
        entries = [ZERO] * cols
        entries[free] = ONE
        for pivot, re, im, d in rows:
            entries[pivot] = _reduced(-re[free], -im[free], d)
        vectors.append(ExactMatrix._trusted([[x] for x in entries], 1))
    return Basis(cols, tuple(vectors))


def nullspace_basis(matrix: ExactMatrix) -> Basis:
    """Canonical basis of the kernel (see ``_kernel_from_rref``)."""
    return _kernel_from_rref(_rref_rows(map(_pack, matrix._data)), matrix.cols)


def _times(rows: Sequence[Row], right: Packed, n: int) -> List[Packed]:
    """RREF rows times the n x n matrix packed row-major in ``right``.  A row
    over d is d at its pivot and 0 at the other pivots, so its product is d
    times the pivot's row of the matrix plus the free columns' share."""
    re, im, e = right
    pivots = {row[0] for row in rows}
    free = [j for j in range(n) if j not in pivots]
    part = ([a for f in free for a in re[f * n:f * n + n]],
            [b for f in free for b in im[f * n:f * n + n]], e)
    cut = [([r_re[f] for f in free], [r_im[f] for f in free], d) for _, r_re, r_im, d in rows]
    return [
        ([x + d * a for x, a in zip(x_re, re[p * n:p * n + n])],
         [y + d * b for y, b in zip(x_im, im[p * n:p * n + n])], de)
        for (p, _, _, d), (x_re, x_im, de) in zip(rows, _product(cut, part, n))
    ]


def kernel_ladder(matrix: ExactMatrix, top: Optional[int] = None) -> List[Basis]:
    """Canonical bases of ker M, ker M^2, ... while the dimension grows and
    is below top (default n), so never past k = n.  ker M^(k+1) is
    ker(R_k * M), R_k the RREF rows of M^k: no power of M is formed, and the
    same kernel has the same basis.  The step that finds no growth stops
    after the forward half of the elimination; a top where the kernels
    stabilize (an eigenvalue's multiplicity) saves that step too."""
    if not matrix.is_square():
        raise DimensionMismatch("kernel ladder of a non-square matrix")
    n = matrix.rows
    rows = _rref_rows(map(_pack, matrix._data))
    bases = [_kernel_from_rref(rows, n)]
    right = _pack([x for row in matrix._data for x in row])
    while 0 < bases[-1].dimension < (n if top is None else top):
        forward = _forward_rows(_times(rows, right, n))
        if n - len(forward) == bases[-1].dimension:
            break
        rows = _back_substitute(forward)
        bases.append(_kernel_from_rref(rows, n))
    return bases


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


def _krylov_run(
    transposed: Packed, start: Packed, span: Sequence[Row] = ()
) -> Tuple[Polynomial, Echelon]:
    """The annihilator of a packed vector v under A relative to the span of
    echelon rows: the monic p of least degree with p(A) v in that span (the
    Krylov annihilator of v for an empty span).  A v is the row v^T A^T,
    given A^T packed.  Also returns an echelon whose rows, cut to their first
    n entries, are the span's followed by the run's; the other n + 1 entries
    are power coefficients, 0 on the span's rows."""
    re, im, d = start
    n = len(re)
    pad = [0] * (n + 1)
    echelon = Echelon()
    echelon.packed = [(pivot, y_re + pad, y_im + pad, e) for pivot, y_re, y_im, e in span]
    for degree in range(n + 1):
        tag = [0] * degree + [d] + [0] * (n - degree)
        x_re, x_im, x_d = echelon.reduce(re + tag, im + pad, d)
        if not (any(x_re[:n]) or any(x_im[:n])):
            # 0 = sum of c_k * A^k v with c_degree = 1, modulo the span.
            return Polynomial(_unpack(x_re[n:], x_im[n:], x_d)), echelon
        echelon.add(x_re, x_im, x_d)
        re, im, d = _primitive(*_product([(re, im, d)], transposed, n)[0])
    raise AssertionError("n+1 Krylov vectors cannot stay independent")


def krylov_factors(matrix: ExactMatrix) -> List[Polynomial]:
    """Monic polynomials of positive degree whose product is the
    characteristic polynomial, from one Krylov pass (Keller-Gehrig 1985).

    A run starts at each e_i outside the span found so far, an A-invariant
    subspace, and stops at the first power that reduces to zero modulo the
    span and its own earlier powers; its relative annihilator is the
    characteristic polynomial of A on the quotient, and its powers join the
    span.  Each of the n + (number of runs) reductions is done once.
    """
    n = matrix.rows
    if n == 0 or not matrix.is_square():
        raise DimensionMismatch(f"characteristic polynomial of a {n}x{matrix.cols} matrix")
    transposed = _pack([x for column in zip(*matrix._data) for x in column])
    span: List[Row] = []
    factors = []
    for index in range(n):
        if len(span) == n:
            break
        start = ([int(i == index) for i in range(n)], [0] * n, 1)
        factor, run = _krylov_run(transposed, start, span)
        if factor.degree > 0:
            factors.append(factor)
            span += [(pivot, *_primitive(re[:n], im[:n], d))
                     for pivot, re, im, d in run.packed[len(span):]]
    return factors


def krylov_annihilator(matrix: ExactMatrix, vector: ExactMatrix) -> Polynomial:
    """Monic polynomial of least degree with P(matrix) * vector = 0.

    Reduces vector, A*vector, A^2*vector, ... against the earlier powers
    and stops at the first power that reduces to zero; since the retained
    powers are independent, the combination found is unique.
    """
    if not matrix.is_square():
        raise DimensionMismatch("krylov_annihilator needs a square matrix")
    if vector.cols != 1 or vector.rows != matrix.rows:
        raise DimensionMismatch("vector shape does not match the matrix")
    if vector.is_zero():
        raise ZeroVector("krylov_annihilator of the zero vector")
    transposed = _pack([x for column in zip(*matrix._data) for x in column])
    return _krylov_run(transposed, _pack(vector.column_entries()))[0]


def minimal_polynomial(matrix: ExactMatrix) -> Polynomial:
    """Least-degree monic annihilator of the whole space: the lcm of the
    Krylov annihilators of e_0, e_1, ..., skipping each e_i that already lies
    in the sum of the cyclic subspaces found so far (the lcm annihilates it)."""
    n = matrix.rows
    if n == 0 or not matrix.is_square():
        raise DimensionMismatch(f"minimal polynomial of a {n}x{matrix.cols} matrix")
    transposed = _pack([x for column in zip(*matrix._data) for x in column])
    span = Echelon()
    result = Polynomial([ONE])
    for index in range(n):
        start = ([int(i == index) for i in range(n)], [0] * n, 1)
        if len(span.packed) < n and span.add(*start):
            annihilator, cyclic = _krylov_run(transposed, start)
            for _, re, im, d in cyclic.packed:
                span.add(re[:n], im[:n], d)
            result = poly_lcm(result, annihilator)
    return result
