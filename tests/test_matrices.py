import math
import random
from fractions import Fraction

import pytest

from jordanform import (
    Basis,
    Block,
    GaussianRational,
    DependentInput,
    DimensionMismatch,
    ExactMatrix,
    Polynomial,
    SingularMatrix,
    ZeroVector,
    complete_basis,
    elementary_conjugator,
    format_scalar,
    inverse,
    jordan_matrix,
    krylov_annihilator,
    nullspace_basis,
    poly_apply,
    rank,
    rref,
    shift_by,
)
from jordanform import matrices
from jordanform.matrices import Echelon, _pack, kernel_chains, kernel_ladder

from conftest import (
    DENSE3, ROTATION2, SHEAR2, UPPER3, as_matrix, col, gr, mat, rand_matrix, rand_ranked_matrix,
    rand_scalar,
)


def columns_of(basis):
    return [[str(x) for x in v.column_entries()] for v in basis.vectors]


# --- rref -------------------------------------------------------------------

def test_rref_of_strict_upper():
    reduced, pivots = rref(mat([[0, 1, 1], [0, 0, 1], [0, 0, 0]]))
    assert reduced == mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert pivots == [1, 2]


def test_rref_of_identity():
    identity = ExactMatrix.identity(3)
    reduced, pivots = rref(identity)
    assert reduced == identity
    assert pivots == [0, 1, 2]


def test_rref_of_zero():
    zero = ExactMatrix.zeros(2, 2)
    reduced, pivots = rref(zero)
    assert reduced == zero
    assert pivots == []


def test_rref_is_idempotent_seeded():
    rng = random.Random(21)
    for _ in range(200):
        m = rand_ranked_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced, pivots = rref(m)
        again, pivots_again = rref(reduced)
        assert again == reduced
        assert pivots_again == pivots
        assert pivots == sorted(pivots)


def reference_rref(rows):
    """Textbook Gauss-Jordan on (re, im) pairs of Fractions, independent of
    the package: per column, swap the first nonzero entry at or below the
    next pivot row up, scale it to 1, and clear the rest of the column."""
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    data = [list(row) for row in rows]
    pivots = []
    for col in range(len(data[0])):
        top = len(pivots)
        found = [r for r in range(top, len(data)) if data[r][col] != (0, 0)]
        if not found:
            continue
        data[top], data[found[0]] = data[found[0]], data[top]
        a, b = data[top][col]
        norm = a * a + b * b
        data[top] = [mul(x, (a / norm, -b / norm)) for x in data[top]]
        for r in range(len(data)):
            factor = data[r][col]
            if r != top and factor != (0, 0):
                data[r] = [
                    (x[0] - m[0], x[1] - m[1])
                    for x, m in zip(data[r], (mul(factor, y) for y in data[top]))
                ]
        pivots.append(col)
    return data, pivots


def big_shared_factor_matrix(rng, rows, cols):
    """20-digit entries whose numerators share one factor and whose
    denominators share another, so that elimination has content to remove."""
    top, bottom = rng.randint(10**19, 10**20), rng.randint(10**19, 10**20)

    def part():
        return Fraction(top * rng.randint(-9, 9), bottom * rng.randint(1, 9))

    def entry():
        return GaussianRational(part(), part() if rng.random() < 0.5 else 0)

    return ExactMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


def test_rref_matches_an_independent_gauss_jordan_seeded():
    rng = random.Random(61)
    zero = gr(0)
    inputs = []
    for trial in range(120):
        rows, cols = [(7, 3), (3, 7), (5, 5), (6, 4)][trial % 4]  # tall, wide, square
        if trial % 3:  # rank deficient: a product through a thin inner dimension
            inner = rng.randint(1, min(rows, cols) - 1)
            m = rand_matrix(rng, rows, inner) * rand_matrix(rng, inner, cols)
        else:
            m = rand_matrix(rng, rows, cols)
        if trial % 5 == 0:  # a zero row in the middle
            table = [list(m.row(i)) for i in range(m.rows)]
            table.insert(rows // 2, [zero] * cols)
            m = ExactMatrix(table)
        inputs.append(m)
    for trial in range(40):
        rows, cols = [(6, 3), (3, 6), (5, 5), (4, 4)][trial % 4]
        m = big_shared_factor_matrix(rng, rows, cols)
        if trial % 2:  # rank deficient, its rows sums of multiples of two rows
            weights = rand_matrix(rng, rows, 2, bound=3)
            m = weights * big_shared_factor_matrix(rng, 2, cols)
        inputs.append(m)
    for m in inputs:
        reduced, pivots = rref(m)
        expected, expected_pivots = reference_rref(
            [[(x.re, x.im) for x in m.row(i)] for i in range(m.rows)]
        )
        assert pivots == expected_pivots
        assert [[(x.re, x.im) for x in reduced.row(i)] for i in range(m.rows)] == expected
        # Equal scalars have equal parts: every entry is in canonical form.
        assert [list(reduced.row(i)) for i in range(m.rows)] == [
            [GaussianRational(*pair) for pair in row] for row in expected
        ]
        # The elimination rows stay primitive with a unit pivot, and carry
        # the indices of their nonzero entries.
        echelon = Echelon()
        for i in range(m.rows):
            echelon.add(*_pack(m.row(i)))
        for pivot, re, im, d, support in echelon.packed:
            assert (re[pivot], im[pivot]) == (d, 0)
            assert math.gcd(d, *re, *im) == 1
            assert support == [j for j in range(len(re)) if re[j] or im[j]]


def reference_matmul(left, right, width):
    """Schoolbook product of two tables of (re, im) pairs of Fractions, the
    right one with ``width`` columns, independent of the package."""
    columns = [[row[j] for row in right] for j in range(width)]
    return [
        [
            (
                sum((a[0] * b[0] - a[1] * b[1] for a, b in zip(row, column)), Fraction(0)),
                sum((a[0] * b[1] + a[1] * b[0] for a, b in zip(row, column)), Fraction(0)),
            )
            for column in columns
        ]
        for row in left
    ]


def rand_mixed_scalar(rng):
    """Zero, a small rational with a mixed denominator, a pure imaginary, a
    Gaussian rational, or one with 20-digit numerators and denominators."""
    kind = rng.randrange(5)
    if kind == 0:
        return gr(0)
    if kind == 4:
        def big():
            return Fraction(rng.randint(-10**20, 10**20), rng.randint(10**19, 10**20))
        return GaussianRational(big(), big())
    small = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    other = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return GaussianRational(*[(small, 0), (0, small), (small, other)][kind - 1])


def test_matmul_matches_an_independent_product_seeded():
    rng = random.Random(67)
    shapes = [(2, 0, 3), (0, 2, 3), (1, 1, 1), (3, 1, 4)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)) for _ in range(80)]
    for rows, inner, cols in shapes:
        # ExactMatrix([]) is 0x0, so the shapes without rows come from zeros().
        left_rows = [[rand_mixed_scalar(rng) for _ in range(inner)] for _ in range(rows)]
        left = ExactMatrix(left_rows) if rows else ExactMatrix.zeros(0, inner)
        right_rows = [[rand_mixed_scalar(rng) for _ in range(cols)] for _ in range(inner)]
        right = ExactMatrix(right_rows) if inner else ExactMatrix.zeros(0, cols)
        product = left * right
        left_pairs = [[(x.re, x.im) for x in left.row(i)] for i in range(rows)]
        expected = reference_matmul(
            left_pairs, [[(x.re, x.im) for x in right.row(i)] for i in range(inner)], cols
        )
        assert (product.rows, product.cols) == (rows, cols)
        assert [list(product.row(i)) for i in range(rows)] == [
            [GaussianRational(*pair) for pair in row] for row in expected
        ]
        if rows and inner:
            scalar = rand_mixed_scalar(rng)
            for factor in (scalar, scalar.re.numerator, scalar.re):
                c, d = (scalar.re, scalar.im) if factor is scalar else (Fraction(factor), 0)
                scaled = ExactMatrix(
                    [GaussianRational(a * c - b * d, a * d + b * c) for a, b in row]
                    for row in left_pairs
                )
                assert left * factor == scaled
                assert factor * left == scaled
    assert ExactMatrix.zeros(2, 0) * ExactMatrix.zeros(0, 3) == ExactMatrix.zeros(2, 3)
    assert (ExactMatrix.zeros(0, 2) * ExactMatrix.zeros(2, 3)).cols == 3


# --- null space / column space ----------------------------------------------

def test_nullspace_of_shifted_upper3():
    shifted = UPPER3 - ExactMatrix.identity(3)
    basis = nullspace_basis(shifted)
    assert columns_of(basis) == [["1", "0", "0"]]


def test_nullspace_of_shifted_upper3_squared():
    shifted = UPPER3 - ExactMatrix.identity(3)
    basis = nullspace_basis(shifted * shifted)
    assert columns_of(basis) == [["1", "0", "0"], ["0", "1", "0"]]


def test_nullspace_of_identity_is_empty():
    assert nullspace_basis(ExactMatrix.identity(4)).dimension == 0


def test_nullspace_vectors_are_in_the_kernel_seeded():
    rng = random.Random(22)
    for _ in range(100):
        m = rand_ranked_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = nullspace_basis(m)
        assert basis.dimension == m.cols - rank(m)
        for v in basis.vectors:
            assert (m * v).is_zero()


def test_nullspace_vectors_are_one_at_their_own_free_column_seeded():
    # A vector's last nonzero entry is 1, and every other vector is 0 there:
    # the coordinates of a vector of the span are its entries at these indices.
    # free_columns lists them in the vectors' order, for the canonical basis
    # and for any other basis of the same span.
    rng = random.Random(23)
    mixed = 0
    for trial in range(100):
        n = rng.randint(2, 6)
        basis = nullspace_basis(rand_ranked_matrix(rng, rng.randint(1, n - 1), n))
        last_nonzero = []
        for k, v in enumerate(basis.vectors):
            free = max(i for i, x in enumerate(v.column_entries()) if x)
            assert v[free, 0] == gr(1)
            assert all(u[free, 0].is_zero() for j, u in enumerate(basis.vectors) if j != k)
            last_nonzero.append(free)
        assert basis.free_columns == tuple(last_nonzero)
        mix, _ = elementary_conjugator(basis.dimension, trial, 2)
        columns = as_matrix(basis) * mix * gr("-2/3+1i")
        hand_made = Basis(n, [columns.submatrix(0, n, j, j + 1) for j in range(columns.cols)][::-1])
        assert hand_made.free_columns == tuple(last_nonzero)
        mixed += hand_made.vectors != basis.vectors
    assert mixed >= 50


# --- inverse ----------------------------------------------------------------

def test_inverse_of_chain_matrix():
    v = mat([[-2, -1, 1], [0, -4, 0], [-2, 1, 0]])
    v_inv = inverse(v)
    assert v * v_inv == ExactMatrix.identity(3)
    assert v_inv * v == ExactMatrix.identity(3)


def test_inverse_of_identity():
    assert inverse(ExactMatrix.identity(4)) == ExactMatrix.identity(4)


def test_inverse_of_singular_raises():
    with pytest.raises(SingularMatrix):
        inverse(mat([[1, 2], [2, 4]]))


def test_inverse_round_trip_seeded():
    from jordanform import elementary_conjugator

    for seed in range(40):
        s, s_inv = elementary_conjugator(4, seed, 3)
        assert s * s_inv == ExactMatrix.identity(4)
        assert inverse(s) == s_inv


# --- basis completion ---------------------------------------------------------

def test_complete_basis_single_vector():
    base = complete_basis(Basis(3, (col([1, 0, 0]),)))
    assert base == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_complete_basis_full_input_unchanged():
    full = Basis(2, (col([1, 2]), col([0, 1])))
    assert complete_basis(full) == mat([[1, 0], [2, 1]])


def test_complete_basis_skips_dependent_candidates():
    base = complete_basis(Basis(2, (col([0, 1]),)))
    assert base == mat([[0, 1], [1, 0]])


def test_complete_basis_rejects_dependent_input():
    with pytest.raises(DependentInput):
        complete_basis(Basis(2, (col([1, 2]), col([2, 4]))))


def greedy_completion(n, vectors):
    """The greedy rule, independent of free columns: the given vectors, then
    e_0, e_1, ... each unless the columns so far and it have deficient rank."""
    columns = list(vectors)
    if columns and rank(ExactMatrix.hstack(columns)) < len(columns):
        raise DependentInput("the given vectors are not linearly independent")
    for index in range(n):
        candidate = ExactMatrix.basis_vector(n, index)
        if rank(ExactMatrix.hstack(columns + [candidate])) == len(columns) + 1:
            columns.append(candidate)
    return ExactMatrix.hstack(columns)


def test_complete_basis_is_the_greedy_completion_seeded():
    rng = random.Random(40)
    outcomes = {"matrix": 0, "dependent": 0, "zero": 0}
    for trial in range(400):
        n = rng.randint(1, 6)
        vectors = []
        for _ in range(rng.randint(0, n)):
            roll = rng.random()
            if roll < 0.04:
                vectors.append(ExactMatrix.zeros(n, 1))
            elif roll < 0.12 and vectors:  # dependent: a multiple of one given
                vectors.append(rng.choice(vectors) * gr("3/2"))
            else:  # sparse, so that the free columns vary
                vectors.append(ExactMatrix(
                    [[rand_scalar(rng, 4) if rng.random() < 0.5 else 0] for _ in range(n)]
                ))
        if any(v.is_zero() for v in vectors):
            with pytest.raises(ZeroVector):
                complete_basis(Basis(n, vectors))
            outcomes["zero"] += 1
            continue
        try:
            expected = greedy_completion(n, vectors)
        except DependentInput:
            with pytest.raises(DependentInput):
                complete_basis(Basis(n, vectors))
            outcomes["dependent"] += 1
            continue
        got = complete_basis(Basis(n, vectors))
        assert got == expected and got.entries_str() == expected.entries_str()
        outcomes["matrix"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_complete_basis_is_invertible_seeded():
    rng = random.Random(25)
    for _ in range(60):
        m = rand_ranked_matrix(rng, rng.randint(2, 5), rng.randint(1, 5))
        partial = nullspace_basis(m)
        if partial.dimension == 0:
            continue
        base = complete_basis(Basis(m.cols, partial.vectors))
        assert base.rows == base.cols == m.cols
        assert rank(base) == m.cols
        for j, v in enumerate(partial.vectors):
            assert base.submatrix(0, m.cols, j, j + 1) == v


# --- krylov annihilator --------------------------------------------------------

def test_krylov_shear():
    p = krylov_annihilator(SHEAR2, ExactMatrix.basis_vector(2, 1))
    assert p == Polynomial([1, -2, 1])


def test_krylov_identity_eigenvector():
    p = krylov_annihilator(ExactMatrix.identity(3), ExactMatrix.basis_vector(3, 0))
    assert p == Polynomial([-1, 1])


def test_krylov_rotation():
    p = krylov_annihilator(ROTATION2, ExactMatrix.basis_vector(2, 0))
    assert p == Polynomial([1, 0, 1])


def test_krylov_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        krylov_annihilator(SHEAR2, col([0, 0]))


def test_krylov_annihilates_and_is_minimal_seeded():
    rng = random.Random(26)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rand_ranked_matrix(rng, n, n)
        v = rand_ranked_matrix(rng, n, 1)
        if v.is_zero():
            continue
        p = krylov_annihilator(m, v)
        assert (poly_apply(p, m) * v).is_zero()
        # Minimality: the Krylov vectors below the found degree are independent.
        powers = [v]
        for _ in range(p.degree - 1):
            powers.append(m * powers[-1])
        assert rank(ExactMatrix.hstack(powers)) == p.degree


# --- matrix basics -------------------------------------------------------------

def test_matrix_equality_and_trace():
    assert DENSE3.trace() == gr("9")
    assert DENSE3 == mat([[2, 1, 1], [-4, 5, 4], [1, 0, 2]])
    assert DENSE3 != UPPER3


def test_matrix_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch):
        mat([[1, 2], [3]])


def test_matrix_is_immutable():
    with pytest.raises(AttributeError):
        DENSE3.rows = 5


def test_matrix_multiplication_shape_check():
    with pytest.raises(DimensionMismatch):
        _ = DENSE3 * ExactMatrix.identity(2)


WIDE = mat([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("call, message", [
    (lambda: ExactMatrix.hstack([]), "hstack of an empty sequence"),
    (lambda: ExactMatrix.hstack([DENSE3, SHEAR2]), "hstack of matrices with different row counts"),
    (lambda: WIDE.trace(), "trace of a non-square matrix"),
    (lambda: DENSE3 + SHEAR2, "matrix addition with different shapes"),
    (lambda: shift_by(WIDE, gr(1)), "shift of a non-square matrix"),
    (lambda: kernel_ladder(WIDE), "kernel ladder of a non-square matrix"),
    (lambda: inverse(WIDE), "inverse of a non-square matrix"),
    (lambda: krylov_annihilator(WIDE, col([1, 0])), "krylov_annihilator needs a square matrix"),
    (lambda: krylov_annihilator(DENSE3, col([1, 0])), "vector shape does not match the matrix"),
    (lambda: krylov_annihilator(DENSE3, mat([[1, 0, 0]])),
     "vector shape does not match the matrix"),
], ids=["hstack-nothing", "hstack-rows", "trace", "add", "shift_by", "kernel_ladder",
        "inverse", "krylov-matrix", "krylov-vector-rows", "krylov-vector-cols"])
def test_each_shape_error_names_what_is_wrong(call, message):
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: ExactMatrix.identity(True), "n must be an integer >= 0, got True"),
    (lambda: ExactMatrix.identity(-1), "n must be an integer >= 0, got -1"),
    (lambda: ExactMatrix.identity(2.0), "n must be an integer >= 0, got 2.0"),
    (lambda: ExactMatrix.zeros(2, -1), "cols must be an integer >= 0, got -1"),
    (lambda: ExactMatrix.zeros(-1, 2), "rows must be an integer >= 0, got -1"),
    (lambda: ExactMatrix.zeros(2, True), "cols must be an integer >= 0, got True"),
    (lambda: ExactMatrix.basis_vector(2, 5), "index must be an integer in [0, 2), got 5"),
    (lambda: ExactMatrix.basis_vector(2, 2), "index must be an integer in [0, 2), got 2"),
    (lambda: ExactMatrix.basis_vector(2, -1), "index must be an integer in [0, 2), got -1"),
    (lambda: ExactMatrix.basis_vector(2, False), "index must be an integer in [0, 2), got False"),
    (lambda: ExactMatrix.basis_vector(-1, 0), "n must be an integer >= 0, got -1"),
], ids=["identity-True", "identity-negative", "identity-float", "zeros-negative-cols",
        "zeros-negative-rows", "zeros-True", "basis_vector-past-n", "basis_vector-at-n",
        "basis_vector-negative", "basis_vector-False", "basis_vector-negative-n"])
def test_size_constructors_take_ints_in_range(call, message):
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert str(err.value) == message


SQUARE2 = mat([[1, 2], [3, 4]])


@pytest.mark.parametrize("bounds", [
    (0, 2, 0, 5),  # once reported cols == 5 over rows of length 2
    (0, 2, -1, 2),  # once reported cols == 3 over rows [2] and [4]
    (0, 3, 0, 2),  # a row bound past the end
    (2, 1, 0, 2),  # r0 > r1
    (0, 2, 0, 1.0),  # a float bound
], ids=["cols-past-the-end", "negative-c0", "rows-past-the-end", "r0-above-r1", "float"])
def test_submatrix_refuses_bounds_outside_the_matrix(bounds):
    with pytest.raises(DimensionMismatch) as err:
        SQUARE2.submatrix(*bounds)
    r0, r1, c0, c1 = map(repr, bounds)
    assert str(err.value) == f"submatrix [{r0}:{r1}, {c0}:{c1}] outside a 2x2 matrix"


def test_submatrix_takes_every_bound_inside_the_matrix():
    assert SQUARE2.submatrix(0, 2, 0, 2) == SQUARE2
    assert SQUARE2.submatrix(1, 2, 0, 1) == mat([[3]])
    empty = SQUARE2.submatrix(2, 2, 1, 1)
    assert (empty.rows, empty.cols) == (0, 0)


def test_size_constructors_at_the_edges():
    assert (ExactMatrix.identity(0).rows, ExactMatrix.identity(0).cols) == (0, 0)
    assert (ExactMatrix.zeros(0, 3).rows, ExactMatrix.zeros(2, 0).cols) == (0, 0)
    assert ExactMatrix.basis_vector(2, 0) == col([1, 0])
    assert ExactMatrix.basis_vector(2, 1) == col([0, 1])


def test_a_string_is_no_matrix_row():
    for data in (["12"], [[1, 2], "34"], "12"):
        with pytest.raises(TypeError, match="cannot use str as a matrix row"):
            ExactMatrix(data)
    with pytest.raises(TypeError, match="cannot use float as a matrix entry"):
        ExactMatrix([[1.5]])
    assert ExactMatrix([["12"]]) == mat([[12]])  # a string entry is still a scalar


@pytest.mark.parametrize("data, refused", [
    ([b"12"], "bytes"),  # once [[49, 50]], the byte values
    ([{3: "a", 1: "b"}], "dict"),  # once [[3, 1]], the keys
    ([{"1", "2", "3"}], "set"),  # once ordered by the hash seed
    ({("1", "0"), ("0", "1"), ("2", "2")}, "set"),  # rows ordered by the hash seed
    (frozenset({(1, 2)}), "frozenset"),
], ids=["bytes-row", "dict-row", "set-row", "set-of-rows", "frozenset-of-rows"])
def test_a_row_is_a_list_or_a_tuple(data, refused):
    with pytest.raises(TypeError, match=f"^cannot use {refused} as a matrix row$"):
        ExactMatrix(data)


@pytest.mark.parametrize("ambient_dim, vectors", [
    (True, ()),
    (-1, ()),
    (2.0, ()),
    ("2", ()),
    (None, ()),
    (2, [col([1, 2, 3])]),
    (2, [col([1])]),
    (2, [mat([[1, 0], [0, 1]])]),
    (2, [mat([[1, 2]])]),
    (2, [[1, 2]]),
    (2, [col([1, 0]), (1, 0)]),
], ids=["dim-True", "dim-negative", "dim-float", "dim-str", "dim-None", "vector-too-long",
        "vector-too-short", "vector-square", "vector-row", "vector-list", "vector-tuple"])
def test_basis_refuses_a_dimension_or_vector_of_the_wrong_kind(ambient_dim, vectors):
    # Vectors of another size would reach jordan_chains, which would build
    # chains of that size for the matrix.
    with pytest.raises(DimensionMismatch):
        Basis(ambient_dim, vectors)


def test_a_dependent_family_is_refused_where_the_basis_is_built():
    # Built, either would report a dimension above that of its span.
    with pytest.raises(DependentInput, match="^the basis vectors are linearly dependent$"):
        Basis(2, [col([1, 2]), col([2, 4])])
    with pytest.raises(ZeroVector, match="^the basis holds the zero vector$"):
        Basis(2, [col([0, 0])])


# --- packed storage -------------------------------------------------------------

def assert_canonical(m):
    # A stored row is primitive over d > 0, so equal values mean equal rows:
    # the matrix equals, and hashes as, the one its own text builds.
    for re, im, d in m._data:
        assert len(re) == len(im) == m.cols and d > 0 and math.gcd(d, *re, *im) == 1
    again = ExactMatrix(m.entries_str())
    assert m == again and hash(m) == hash(again)


def mixed_cells(rng, m):
    """m's entries as strings, ints and Fractions, mixed at random."""
    return [[format_scalar(x) if x.im or rng.random() < 0.3
             else int(x.re) if x.re.denominator == 1 else x.re for x in m.row(i)]
            for i in range(m.rows)]


def nilpotent(rng, n):
    """A conjugate of a nilpotent Jordan matrix by a random rational matrix."""
    while True:
        s = rand_matrix(rng, n, n)
        if rank(s) == n:
            break
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(3, n - sum(sizes))))
    return s * jordan_matrix([Block(gr(0), k) for k in sizes]) * inverse(s)


def test_every_path_stores_primitive_rows_seeded():
    rng = random.Random(4601)
    product_contents = 0
    for trial in range(40):
        n = rng.randint(1, 5)
        a, b = rand_matrix(rng, n, n), rand_matrix(rng, n, n + 1)
        built = ExactMatrix(mixed_cells(rng, a))
        assert built == a and hash(built) == hash(a)
        lam = rand_scalar(rng)
        results = [built, a * b, b.submatrix(0, n, 1, n + 1) * a, -a, rref(b)[0], rref(a)[0],
                   ExactMatrix.hstack([a, b, a]), ExactMatrix.block_diagonal([a, b, a]),
                   shift_by(a, lam), shift_by(a, Fraction(1, 2)), shift_by(a, 3),
                   a * lam, Fraction(2, 3) * a, a * 0, a + rand_matrix(rng, n, n), a - a,
                   a.submatrix(rng.randint(0, n - 1), n, rng.randint(0, n - 1), n),
                   *nullspace_basis(b).vectors]
        if rank(a) == n:  # I, from raw rows over large denominators
            results.append(a * inverse(a))
            assert results[-1] == ExactMatrix.identity(n)
            assert hash(results[-1]) == hash(ExactMatrix.identity(n))
        N = nilpotent(rng, n)
        results += [v for chain in kernel_chains(N, kernel_ladder(N)) for v in chain]
        results += [v for basis in kernel_ladder(N) for v in basis.vectors]
        for m in results:
            assert_canonical(m)
        # Before its content goes, row i of a * b lies over d * e: d is the
        # denominator of a's row i and e the lcm of b's.
        e = math.lcm(*[d for _, _, d in b._data])
        product_contents += any(x < d * e for (_, _, x), (_, _, d) in zip((a * b)._data, a._data))
    assert product_contents >= 20  # most raw product rows had content to remove


def test_core_routines_run_on_the_stored_rows(monkeypatch):
    rng = random.Random(4602)
    a, b, N = rand_matrix(rng, 4, 4), rand_matrix(rng, 4, 5), nilpotent(rng, 5)
    lam = rand_scalar(rng)

    def run():
        ladder = kernel_ladder(N)
        return (rank(b), nullspace_basis(b), ladder, kernel_chains(N, ladder),
                shift_by(a, lam), a * b, a == ExactMatrix.hstack([a]))

    expected = run()

    def refuse(*args):
        raise AssertionError("converted between scalars and packed rows")

    monkeypatch.setattr(matrices, "_pack", refuse)
    monkeypatch.setattr(matrices, "_unpack", refuse)
    assert run() == expected
    with pytest.raises(AssertionError, match="converted"):
        a.row(0)
