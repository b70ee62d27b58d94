"""Dense exact matrices over Q(i) and the elimination toolkit.

``Echelon`` is the only elimination: it grows a reduced basis one vector at
a time, and ``rref`` is built on it.  Kernels are read off the RREF, which is
unique, so the same subspace always gets byte-identical basis vectors
whatever order the rows arrive in.  Elimination and products run on packed
vectors, Gaussian integers over one positive denominator: ``(re, im, d)``
with int lists re and im.  An echelon row carries its support, and a
reduction step is int arithmetic on that support after scaling x by the
row's denominator over its gcd with the multiplier, so a row whose
denominator divides the multiplier costs no scaling; x's content is divided
out once, at the end.  Products take packed columns: A^T is A's rows.
Scalars are built only for what callers read: a kernel ``Basis`` keeps its
packed rows and builds its vectors when they are read.  The format stays
inside this module, and so do the analyses run on it: kernel ladders from
one elimination of [N | I], Jordan chains seeded against the ladder's own
rows, the factors of the characteristic polynomial from one Krylov pass, and
the minimal polynomial as the lcm of the Krylov annihilators of the standard
basis vectors (a spanning family, so the lcm annihilates the whole space).
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, lcm
from operator import mul, or_
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DependentInput, DimensionMismatch, InternalInvariantViolation, SingularMatrix, ZeroVector
)
from .polynomials import Polynomial, poly_lcm
from .scalars import (
    ONE, ZERO, GaussianRational, _coerce, _reduced, format_scalar, is_int, parse_scalar
)

Packed = Tuple[List[int], List[int], int]
Row = Tuple[int, List[int], List[int], int, List[int]]  # (pivot, re, im, d, support)
Columns = Tuple[List[List[int]], Optional[List[List[int]]], int]  # re, im (None if all 0), e


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
    return [_reduced(a, b, d) if a or b else ZERO for a, b in zip(re, im)]


def _columns(vectors: Sequence[Packed]) -> Columns:
    """Packed vectors as the columns of a right factor over their lcm e."""
    e = lcm(*[d for _, _, d in vectors])
    c_re = [re if (m := e // d) == 1 else [a * m for a in re] for re, _, d in vectors]
    c_im = [im if (m := e // d) == 1 else [b * m for b in im] for _, im, d in vectors]
    return c_re, c_im if any(map(any, c_im)) else None, e


def _product(rows: Iterable[Packed], columns: Columns) -> List[Packed]:
    """Each packed row times the matrix of the packed ``columns``: a packed
    row over the product of the denominators, content not removed."""
    c_re, c_im, e = columns
    out = []
    for re, im, d in rows:
        x_re = [sum(map(mul, re, c)) for c in c_re]
        x_im = [sum(map(mul, im, c)) for c in c_re] if any(im) else [0] * len(c_re)
        if c_im is not None:
            x_re = [x - sum(map(mul, im, c)) for x, c in zip(x_re, c_im)]
            x_im = [y + sum(map(mul, re, c)) for y, c in zip(x_im, c_im)]
        out.append((x_re, x_im, d * e))
    return out


def _size(value, name: str) -> int:
    """A size or dimension: an int >= 0, else DimensionMismatch."""
    if not (is_int(value) and value >= 0):
        raise DimensionMismatch(f"{name} must be an integer >= 0, got {value!r}")
    return value


class ExactMatrix:
    """An immutable dense matrix of Gaussian rationals.

    Equality is entrywise exact equality, and arithmetic never rounds.
    Products and elimination work on packed vectors, Gaussian integers over
    one denominator, and each reduction ends by removing the content, so the
    integers stay near the size the exact values need.
    """

    __slots__ = ("rows", "cols", "_data")

    def __new__(cls, data: Iterable[Sequence]) -> "ExactMatrix":
        # A row is a list or a tuple: a str, bytes or dict row would read as
        # its items, and a set of rows or entries is ordered by the hash seed.
        if isinstance(data, (set, frozenset)):
            raise TypeError(f"cannot use {type(data).__name__} as a matrix row")
        rows = list(data)
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise TypeError(f"cannot use {type(row).__name__} as a matrix row")
        table = tuple(tuple(parse_scalar(x) if isinstance(x, str) else _coerce(x, "matrix entry")
                            for x in row) for row in rows)
        width = len(table[0]) if table else 0
        if any(len(row) != width for row in table):
            raise DimensionMismatch("rows of unequal length")
        return cls._trusted(table, width)

    @classmethod
    def _trusted(cls, table: Sequence[Sequence], cols: int) -> "ExactMatrix":
        """A matrix over a rectangular table of scalars this package built,
        taken as they are: coercion is for caller input."""
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
        table = [[ONE if i == j else ZERO for j in range(n)] for i in range(_size(n, "n"))]
        return cls._trusted(table, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        _size(rows, "rows")
        _size(cols, "cols")
        return cls._trusted([[ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def basis_vector(cls, n: int, index: int) -> "ExactMatrix":
        _size(n, "n")
        if not (is_int(index) and 0 <= index < n):
            raise DimensionMismatch(f"index must be an integer in [0, {n}), got {index!r}")
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

    def column_entries(self, j: int = 0) -> Tuple[GaussianRational, ...]:
        return tuple(self._data[i][j] for i in range(self.rows))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        if not (all(map(is_int, (r0, r1, c0, c1)))
                and 0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise DimensionMismatch(f"submatrix [{r0!r}:{r1!r}, {c0!r}:{c1!r}] "
                                    f"outside a {self.rows}x{self.cols} matrix")
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
        if not isinstance(other, ExactMatrix):
            factor = _coerce(other)
            if factor is None:
                return NotImplemented
            return ExactMatrix._trusted(
                [[x * factor if x else x for x in row] for row in self._data], self.cols
            )
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = _columns([_pack(other.column_entries(j)) for j in range(other.cols)])
        products = _product(map(_pack, self._data), right)
        return ExactMatrix._trusted([_unpack(*row) for row in products], other.cols)

    def __rmul__(self, other):
        factor = _coerce(other)
        return NotImplemented if factor is None else self * factor

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


class Basis:
    """An ordered, linearly independent family of column vectors; immutable.

    A basis holds the canonical rows of its span from the moment it is built:
    its vectors reversed, as the RREF rows of their span in ``_kernel_rows``'
    order, unique to the span, so a kernel's vectors, however scaled, mixed
    or ordered, get its canonical echelon rows.  Independence is checked
    there: a zero vector is ZeroVector, another dependent family
    DependentInput.  Bases produced in this package are canonical (the RREF
    free-variable construction, so the same subspace always gets
    byte-identical vectors); ``_of_rows`` builds one from the rows
    ``_kernel_rows`` gave, with no elimination, and its vectors are built
    only when they are read.  ambient_dim is an int >= 0 and each vector an
    ambient_dim x 1 ``ExactMatrix``, else DimensionMismatch.
    """

    __slots__ = ("ambient_dim", "_rows", "_vectors")
    _fields = ("ambient_dim", "vectors")

    def __init__(self, ambient_dim: int, vectors: Iterable[ExactMatrix]):
        vectors = tuple(vectors)
        shape = (_size(ambient_dim, "ambient_dim"), 1)
        if not all(isinstance(v, ExactMatrix) and (v.rows, v.cols) == shape for v in vectors):
            raise DimensionMismatch(f"basis vectors must be {ambient_dim}x1 matrices")
        rows = _rref_rows(_pack(v.column_entries()[::-1]) for v in vectors)
        if len(rows) < len(vectors):
            if any(v.is_zero() for v in vectors):
                raise ZeroVector("the basis holds the zero vector")
            raise DependentInput("the basis vectors are linearly dependent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_vectors", vectors)

    @classmethod
    def _of_rows(cls, rows: List[Row], cols: int) -> "Basis":
        """The basis that canonical rows (``_kernel_rows``) stand for."""
        basis = object.__new__(cls)
        object.__setattr__(basis, "ambient_dim", cols)
        object.__setattr__(basis, "_rows", rows)
        object.__setattr__(basis, "_vectors", None)
        return basis

    def __setattr__(self, name, value):
        raise AttributeError("Basis is immutable")

    def __eq__(self, other):
        if not isinstance(other, Basis):
            return NotImplemented
        return (self.ambient_dim, self.vectors) == (other.ambient_dim, other.vectors)

    def __hash__(self):
        return hash((self.ambient_dim, self.vectors))

    def __repr__(self):
        return f"Basis(ambient_dim={self.ambient_dim!r}, vectors={self.vectors!r})"

    @property
    def vectors(self) -> Tuple[ExactMatrix, ...]:
        if self._vectors is None:
            object.__setattr__(self, "_vectors", tuple(
                ExactMatrix._trusted([[x] for x in _unpack(re[::-1], im[::-1], d)], 1)
                for _, re, im, d, _ in reversed(self._rows)))
        return self._vectors

    @property
    def dimension(self) -> int:
        return len(self._rows)

    @property
    def free_columns(self) -> Tuple[int, ...]:
        """The free columns of the span's canonical basis, ascending as its vectors
        are: a canonical vector is 1 at its own, its last nonzero entry, and 0 at
        the others.  They are the canonical rows' pivots counted from the end."""
        return tuple(self.ambient_dim - 1 - row[0] for row in reversed(self._rows))


class Echelon:
    """A reduced basis of a growing subspace, built one vector at a time.

    ``packed`` holds (pivot, re, im, d, support) in insertion order: a
    primitive packed row that is 1 at its pivot (re[pivot] == d, im[pivot]
    == 0), its first nonzero entry, and 0 at the pivot of every earlier row,
    with its support, the indices of its nonzero entries.  ``rows`` shows
    the same rows as (pivot, scalars) pairs.
    """

    def __init__(self, rows: Iterable[Row] = ()):
        self.packed: List[Row] = list(rows)

    @property
    def rows(self) -> List[Tuple[int, List[GaussianRational]]]:
        return [(pivot, _unpack(re, im, d)) for pivot, re, im, d, _ in self.packed]

    def reduce(self, re: List[int], im: List[int], d: int) -> Packed:
        """A packed vector less its part along the rows; 0 at every pivot.
        Against a row y over e, x over d becomes (e*x - f*y)/(d*e), f the
        numerator of x at y's pivot, with e and f first divided by
        g = gcd(e, f) (exact: (e*x - f*y)/(d*e) = ((e/g)*x - (f/g)*y)/(d*e/g)),
        so a row whose denominator divides f costs no scaling.  Only y's
        support changes beyond that scaling.  x loses its content once, at the
        end, so the result is primitive."""
        touched = False
        for pivot, y_re, y_im, e, support in self.packed:
            f_re, f_im = re[pivot], im[pivot]
            if not (f_re or f_im):
                continue
            if e != 1:
                g = gcd(e, f_re, f_im)
                if g != 1:
                    e, f_re, f_im = e // g, f_re // g, f_im // g
            if e != 1:
                re, im, d = [a * e for a in re], [b * e for b in im], d * e
            elif not touched:
                re, im = re[:], im[:]
            touched = True
            for j in support:
                b, c = y_re[j], y_im[j]
                re[j] -= f_re * b - f_im * c
                im[j] -= f_re * c + f_im * b
        return _primitive(re, im, d) if touched else (re, im, d)

    def add(self, re: List[int], im: List[int], d: int) -> bool:
        """Add a packed vector to the span; False, rows untouched, if already in it."""
        re, im, d = self.reduce(re, im, d)
        pivot = next((j for j, (a, b) in enumerate(zip(re, im)) if a or b), None)
        if pivot is None:
            return False
        f_re, f_im = re[pivot], im[pivot]
        if f_im:  # over the pivot entry (f_re + f_im*i)/d: times its conjugate over the norm
            re, im, d = ([a * f_re + b * f_im for a, b in zip(re, im)],
                         [b * f_re - a * f_im for a, b in zip(re, im)], f_re * f_re + f_im * f_im)
        elif f_re < 0:
            re, im, d = [-a for a in re], [-b for b in im], -f_re
        else:
            d = f_re
        self.packed.append(_row(pivot, *_primitive(re, im, d)))
        return True

    def insert(self, entries: Sequence[GaussianRational]) -> bool:
        """Add a vector of scalars to the span; False if already in it."""
        return self.add(*_pack(entries))


def _row(pivot: int, re: List[int], im: List[int], d: int) -> Row:
    """A packed row with its pivot and its support."""
    return pivot, re, im, d, list(compress(count(), map(or_, re, im)))


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
    for pivot, re, im, d, _ in sorted(rows, key=lambda row: -row[0]):
        reduced.packed.append(_row(pivot, *reduced.reduce(re, im, d)))
    reduced.packed.reverse()
    return reduced.packed


def _rref_rows(rows: Iterable[Packed]) -> List[Row]:
    """The nonzero rows of the RREF of the packed rows, in pivot order."""
    return _back_substitute(_forward_rows(rows))


def rref(matrix: ExactMatrix) -> Tuple[ExactMatrix, List[int]]:
    """Reduced row echelon form together with the pivot column indices.
    The RREF is unique, so every basis read off it depends on the row space alone."""
    rows = _rref_rows(map(_pack, matrix._data))
    table = [_unpack(re, im, d) for _, re, im, d, _ in rows]
    table.extend([ZERO] * matrix.cols for _ in range(matrix.rows - len(rows)))
    return ExactMatrix._trusted(table, matrix.cols), [row[0] for row in rows]


def rank(matrix: ExactMatrix) -> int:
    return sum(map(Echelon().insert, matrix._data))


def _kernel_rows(rows: Sequence[Row], cols: int) -> List[Row]:
    """The canonical kernel basis of the first cols columns of nonzero RREF
    rows: per free column f, 1 at f, 0 at the other free columns and the
    negated RREF entry at each pivot.  f is its last nonzero entry, so the
    vectors reversed are the RREF rows of the reversed kernel, pivot
    cols - 1 - f, and come in that form."""
    pivots = {row[0] for row in rows}
    d = lcm(*[row[3] for row in rows])
    kernel = []
    for free in range(cols - 1, -1, -1):
        if free not in pivots:
            re, im = [0] * cols, [0] * cols
            re[cols - 1 - free] = d
            for p, y_re, y_im, e, _ in rows:
                re[cols - 1 - p], im[cols - 1 - p] = -y_re[free] * (d // e), -y_im[free] * (d // e)
            kernel.append(_row(cols - 1 - free, *_primitive(re, im, d)))
    return kernel


def nullspace_basis(matrix: ExactMatrix) -> Basis:
    """Canonical basis of the kernel (see ``_kernel_rows``)."""
    rows = _kernel_rows(_rref_rows(map(_pack, matrix._data)), matrix.cols)
    return Basis._of_rows(rows, matrix.cols)


def kernel_ladder(matrix: ExactMatrix, top: Optional[int] = None) -> List[Basis]:
    """Canonical bases of ker N, ker N^2, ... for N the matrix, while the
    dimension grows and is below top (default n), so never past k = n.

    One elimination of [N | I] is the only n-row work: its rows with a pivot
    below n are the RREF of N (stage 1) with the rows E that make it from N,
    and the rest are a basis L of the left kernel.  With K the stage-(k-1)
    vectors followed by the stage-k vectors at the free columns D_k stage k
    added, N*y = K*c is solvable exactly when L*K*c = 0, by y = E*K*c at the
    pivots and 0 elsewhere.  The y of the canonical c with free column in D_k
    add ker N^(k+1) to ker N^k; reduced with the stage-k rows (reversed, as
    ``_kernel_rows`` gives them) they make its canonical basis.  No such c,
    or a top where the kernels stop (a multiplicity), ends the ladder."""
    if not matrix.is_square():
        raise DimensionMismatch("kernel ladder of a non-square matrix")
    n = matrix.rows
    forward = _forward_rows((re + [0] * i + [d] + [0] * (n - 1 - i), im + [0] * n, d)
                            for i, (re, im, d) in enumerate(map(_pack, matrix._data)))
    rows = _back_substitute([row for row in forward if row[0] < n])
    stage = _kernel_rows(rows, n)
    bases = [Basis._of_rows(stage, n)]
    if not 0 < len(stage) < (n if top is None else top):
        return bases
    # L and E reversed, as the stage rows are.  lift takes K*c to y reversed:
    # its column n-1-p is the row of E at pivot p.
    left = [(re[:n - 1:-1], im[:n - 1:-1], 1) for pivot, re, im, _, _ in forward if pivot >= n]
    columns: List[Packed] = [([0] * n, [0] * n, 1)] * n
    for pivot, re, im, e, _ in rows:
        columns[n - 1 - pivot] = re[:n - 1:-1], im[:n - 1:-1], e
    lift = _columns(columns)
    previous: List[Row] = []
    while 0 < len(stage) < (n if top is None else top):
        known = {row[0] for row in previous}
        k_rows = previous + [row for row in stage if row[0] not in known]
        width, old = len(k_rows), len(previous)
        k_re, k_im = [row[1] for row in k_rows], [row[2] for row in k_rows]
        system = _product(left, _columns([(re, im, 1) for re, im in zip(k_re, k_im)]))
        solutions = [(re[::-1], im[::-1], d) for pivot, re, im, d, _
                     in _kernel_rows(_rref_rows(system), width) if pivot < width - old]
        if not solutions:
            break
        span = _columns([(re, im, 1) for re, im in zip(zip(*k_re), zip(*k_im))])  # K^T
        echelon = Echelon(stage)
        for y in _product(_product(solutions, span), lift):
            echelon.add(*y)
        previous, stage = stage, _back_substitute(echelon.packed)
        bases.append(Basis._of_rows(stage, n))
    return bases


def kernel_chains(matrix: ExactMatrix, stages: Sequence[Basis]) -> List[List[ExactMatrix]]:
    """Jordan chains v_1, ..., v_k (N v_1 = 0, N v_(j+1) = v_j) of N = matrix
    from its kernel ladder ``stages``: from the top stage down, every chain is
    extended by N, then a stage-k vector seeds a chain when it is independent
    of ker N^(k-1) and the chain vectors placed.  The reversed rows of a
    canonical basis form an echelon, 1 at each row's pivot and 0 at the other
    rows' pivots, so one ``Echelon`` per stage, seeded with stage k-1's rows,
    takes the chain images and then stage k's vectors, all reversed, and a
    vector it adds is independent."""
    transposed = _columns(list(map(_pack, matrix._data)))
    chains: List[List[Packed]] = []
    for k in range(len(stages), 0, -1):
        used = Echelon(stages[k - 2]._rows if k > 1 else ())
        if chains:
            for chain, x in zip(chains, _product([c[-1] for c in chains], transposed)):
                re, im, d = _primitive(*x)
                chain.append((re, im, d))
                used.add(re[::-1], im[::-1], d)
        for _, re, im, d, _ in stages[k - 1]._rows[::-1]:
            if used.add(re, im, d):
                chains.append([(re[::-1], im[::-1], d)])
    return [[ExactMatrix._trusted([[x] for x in _unpack(*v)], 1) for v in reversed(chain)]
            for chain in chains]


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

    The given vectors stay in front, then each e_i whose i is no free column
    of their span: the greedy rule, as e_i lies in span + span(e_0 ... e_(i-1))
    exactly when some vector of the span has its last nonzero entry at i.
    """
    n, free = partial.ambient_dim, partial.free_columns
    standard = [ExactMatrix.basis_vector(n, i) for i in range(n) if i not in free]
    return ExactMatrix.hstack([*partial.vectors, *standard])


def _krylov_run(
    transposed: Columns, start: Packed, span: Sequence[Row] = ()
) -> Tuple[Polynomial, List[Row]]:
    """The annihilator of a packed vector v under A relative to the span of
    echelon rows: the monic p of least degree with p(A) v in that span (the
    Krylov annihilator of v for an empty span).  A v is the row v^T A^T,
    given A^T as columns, which are A's rows.  Also returns the run's own
    echelon rows, primitive with supports, less the n + 1 power coefficients
    they carry in the run (none on the span's rows, whose supports lie below n)."""
    re, im, d = start
    n = len(re)
    pad = [0] * (n + 1)
    echelon = Echelon(span)
    for degree in range(n + 1):
        tag = [0] * degree + [d] + [0] * (n - degree)
        x_re, x_im, x_d = echelon.reduce(re + tag, im + pad, d)
        if not (any(x_re[:n]) or any(x_im[:n])):
            # 0 = sum of c_k * A^k v with c_degree = 1, modulo the span.
            return Polynomial(_unpack(x_re[n:], x_im[n:], x_d)), [
                _row(pivot, *_primitive(y_re[:n], y_im[:n], e))
                for pivot, y_re, y_im, e, _ in echelon.packed[len(span):]]
        echelon.add(x_re, x_im, x_d)
        re, im, d = _primitive(*_product([(re, im, d)], transposed)[0])
    raise InternalInvariantViolation("n+1 Krylov vectors cannot stay independent")


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
    transposed = _columns(list(map(_pack, matrix._data)))
    span: List[Row] = []
    factors = []
    for index in range(n):
        if len(span) == n:
            break
        start = ([int(i == index) for i in range(n)], [0] * n, 1)
        factor, run = _krylov_run(transposed, start, span)
        if factor.degree > 0:
            factors.append(factor)
            span += run
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
    return _krylov_run(_columns(list(map(_pack, matrix._data))), _pack(vector.column_entries()))[0]


def minimal_polynomial(matrix: ExactMatrix) -> Polynomial:
    """Least-degree monic annihilator of the whole space: the lcm of the
    Krylov annihilators of e_0, e_1, ..., skipping each e_i that already lies
    in the sum of the cyclic subspaces found so far (the lcm annihilates it)."""
    n = matrix.rows
    if n == 0 or not matrix.is_square():
        raise DimensionMismatch(f"minimal polynomial of a {n}x{matrix.cols} matrix")
    transposed = _columns(list(map(_pack, matrix._data)))
    span = Echelon()
    result = Polynomial([ONE])
    for index in range(n):
        start = ([int(i == index) for i in range(n)], [0] * n, 1)
        if len(span.packed) < n and span.add(*start):
            annihilator, cyclic = _krylov_run(transposed, start)
            for _, re, im, d, _ in cyclic:
                span.add(re, im, d)
            result = poly_lcm(result, annihilator)
    return result
