"""The incremental echelon, and the layers built on it checked against
slower references that form matrix powers explicitly.

The inputs are seeded random matrices over Q(i), many of them derogatory
(lambda*I, several equal Jordan blocks), conjugated by a random invertible
matrix rather than taken from generate_case.  The one exception scales
generate_case matrices by a rational diagonal, so that elimination runs on
denominators past 64 bits end to end.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from jordanform import (
    Basis,
    Block,
    DimensionMismatch,
    ExactMatrix,
    Polynomial,
    check_decomposition,
    generate_case,
    inverse,
    jordan_decomposition,
    jordan_matrix,
    minimal_polynomial,
    nullspace_basis,
    parse_structure,
    rank,
    shift_by,
    stage_ladder,
)
from jordanform import matrices
from jordanform.decomp import STAGES
from jordanform.matrices import Echelon, _pack, _unpack, kernel_chains, kernel_ladder
from jordanform.spectral import spectrum_with_ladders

from conftest import from_roots, gr, rand_matrix, rand_scalar


def entries(values):
    return [gr(v) for v in values]


def scalar_rows(echelon):
    return [(pivot, _unpack(re, im, d)) for pivot, re, im, d, _ in echelon.packed]


def snapshot(echelon):
    return [(pivot, list(row)) for pivot, row in scalar_rows(echelon)]


# --- Echelon.add of scalar vectors ------------------------------------------------

def test_insert_reports_independence():
    echelon = Echelon()
    assert echelon.add(*_pack(entries([0, 2, 4])))
    assert echelon.add(*_pack(entries([1, 0, "1i"])))
    assert not echelon.add(*_pack(entries([2, 3, "6+2i"])))  # 1.5 * first + 2 * second
    assert not echelon.add(*_pack(entries([0, 0, 0])))
    assert echelon.add(*_pack(entries([0, 0, 5])))
    assert not echelon.add(*_pack(entries(["1/3", "-7i", 9])))
    assert len(echelon.packed) == 3


def test_dependent_insert_leaves_the_rows_unchanged():
    echelon = Echelon()
    echelon.add(*_pack(entries([1, "1i", 0, 2])))
    echelon.add(*_pack(entries([0, 3, 1, "-1"])))
    before = snapshot(echelon)
    assert not echelon.add(*_pack(entries([2, "6+2i", 2, 2])))  # 2 * first + 2 * second
    assert snapshot(echelon) == before


def test_rows_are_unit_at_their_pivot_and_clear_earlier_pivots():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 6)
        echelon = Echelon()
        for _ in range(n + 2):
            echelon.add(*_pack([rand_scalar(rng, 3) for _ in range(n)]))
        rows = scalar_rows(echelon)
        for index, (pivot, row) in enumerate(rows):
            assert row[pivot] == gr(1)
            assert not any(row[:pivot])
            assert not any(row[p] for p, _ in rows[:index])


def test_insert_matches_rank_growth_seeded():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 6)
        dim = rng.randint(0, n)
        # Vectors from a random subspace of dimension <= dim, plus zeros.
        spanning = [[rand_scalar(rng, 3) for _ in range(n)] for _ in range(dim)]
        echelon = Echelon()
        inserted = []
        for _ in range(n + 3):
            weights = [rand_scalar(rng, 2) for _ in spanning]
            vector = [sum((w * s[i] for w, s in zip(weights, spanning)), gr(0)) for i in range(n)]
            before = rank(ExactMatrix.hstack(inserted)) if inserted else 0
            inserted.append(ExactMatrix([[x] for x in vector]))
            grew = rank(ExactMatrix.hstack(inserted)) > before
            rows = snapshot(echelon)
            assert echelon.add(*_pack(vector)) == grew
            if not grew:
                assert snapshot(echelon) == rows
        assert len(echelon.packed) == rank(ExactMatrix.hstack(inserted))


# --- Echelon.reduce and add against a Fraction reference ---------------------------

def values(re, im, d):
    return [(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im)]


def reference_reduce(rows, x):
    """x less f*y for each row y in insertion order, f = x at y's pivot."""
    for pivot, y_re, y_im, e, _ in rows:
        f_re, f_im = x[pivot]
        x = [(a - (f_re * b - f_im * c), z - (f_re * c + f_im * b))
             for (a, z), (b, c) in zip(x, values(y_re, y_im, e))]
    return x


def is_primitive(re, im, d):
    return d > 0 and gcd(d, *re, *im) == 1


def big_vector(rng, n):
    """A primitive packed vector, entries and denominator well past 64 bits."""
    re = [rng.randint(-(1 << 90), 1 << 90) for _ in range(n)]
    im = [rng.choice((0, rng.randint(-(1 << 90), 1 << 90))) for _ in range(n)]
    d = rng.randint(1, 1 << 80)
    g = gcd(d, *re, *im)
    return [a // g for a in re], [b // g for b in im], d // g


def divisible_vector(rng, rows, n):
    """An integer vector whose numerator at each row's pivot, when reduce
    reaches that row, is a multiple of the row's denominator: no step scales it."""
    re = [rng.randint(-99, 99) for _ in range(n)]
    im = [rng.randint(-99, 99) for _ in range(n)]
    x_re, x_im = re[:], im[:]  # x as reduce will have it at each row
    for pivot, y_re, y_im, e, _ in rows:
        f_re, f_im = rng.randint(-3, 3), rng.randint(-3, 3)
        re[pivot] += f_re * e - x_re[pivot]
        im[pivot] += f_im * e - x_im[pivot]
        x_re = [a - (f_re * b - f_im * c) for a, b, c in zip(x_re, y_re, y_im)]
        x_im = [a - (f_re * c + f_im * b) for a, b, c in zip(x_im, y_re, y_im)]
    return re, im, 1


@pytest.mark.parametrize("seed", [11, 12])
def test_reduce_and_add_match_a_fraction_reference(seed, monkeypatch):
    rng = random.Random(seed)
    strips = []
    primitive = matrices._primitive
    monkeypatch.setattr(matrices, "_primitive", lambda *x: strips.append(x[2]) or primitive(*x))
    grown = unscaled = 0
    for _ in range(25):
        n = rng.randint(2, 7)
        echelon = Echelon()
        for _ in range(rng.randint(1, n - 1)):
            echelon.add(*big_vector(rng, n))
        for _ in range(6):
            divisible = rng.random() < 0.5
            x = divisible_vector(rng, echelon.packed, n) if divisible else big_vector(rng, n)
            expected = reference_reduce(echelon.packed, values(*x))
            del strips[:]
            re, im, d = echelon.reduce(*x)
            assert values(re, im, d) == expected and is_primitive(re, im, d)
            assert all(expected[row[0]] == (0, 0) for row in echelon.packed)
            # A reduction that touches x strips its content once, at the end,
            # however far its denominator grew (past 64 bits on some vectors).
            assert len(strips) == (expected != values(*x))
            if divisible:
                assert d == 1 and all(stripped == 1 for stripped in strips)
                unscaled += len(strips) == 1 and any(row[3] != 1 for row in echelon.packed)
            else:
                grown += bool(strips) and strips[0] > x[2] << 64
            before = list(echelon.packed)
            pivot = next((j for j, value in enumerate(expected) if value != (0, 0)), None)
            assert echelon.add(*x) == (pivot is not None)
            if pivot is None:
                assert echelon.packed == before
                continue
            assert echelon.packed[:-1] == before
            row_pivot, row_re, row_im, row_d, support = echelon.packed[-1]
            a, b = expected[pivot]
            u, v = a / (a * a + b * b), -b / (a * a + b * b)  # 1 / x[pivot]
            assert row_pivot == pivot and is_primitive(row_re, row_im, row_d)
            assert values(row_re, row_im, row_d) == [(c * u - z * v, c * v + z * u)
                                                     for c, z in expected]
            assert support == [j for j, value in enumerate(expected) if value != (0, 0)]
    assert grown > 0 and unscaled > 0


# --- seeded Q(i) matrices with planted Jordan structure ----------------------------

def planted_cases(seed, count):
    """(A, blocks) with A = P * J * P^-1 for a random invertible P."""
    rng = random.Random(seed)
    cases = []
    for index in range(count):
        lam, mu = rand_scalar(rng, 3), rand_scalar(rng, 3)
        while mu == lam:
            mu = rand_scalar(rng, 3)
        shapes = [
            [(lam, 1)] * rng.randint(1, 5),  # lambda * I
            [(lam, 2), (lam, 2)],
            [(lam, 2), (lam, 2), (mu, 1)],
            [(lam, 3), (lam, 1), (mu, 2)],
            [(lam, 2), (lam, 1), (lam, 1), (mu, 1), (mu, 1)],
            [(lam, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            + [(mu, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))],
        ]
        blocks = [Block(value, size) for value, size in shapes[index % len(shapes)]]
        n = sum(block.size for block in blocks)
        while True:
            p = rand_matrix(rng, n, n, bound=2)
            if rank(p) == n:
                break
        cases.append((p * jordan_matrix(blocks) * inverse(p), blocks))
    return cases


def random_cases(seed, count):
    """Unstructured random matrices, sometimes of low rank."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n, bound=3)
        if rng.random() < 0.4:
            inner = rng.randint(1, n)
            m = rand_matrix(rng, n, inner, bound=2) * rand_matrix(rng, inner, n, bound=2)
        cases.append(m)
    return cases


def vec(matrix):
    return ExactMatrix([[matrix[i, j]] for j in range(matrix.cols) for i in range(matrix.rows)])


def reference_minimal_polynomial(matrix):
    """The least d with vec(I), vec(A), ..., vec(A^d) dependent.  The kernel
    of their hstack is then a line whose canonical vector is 1 in the last
    coordinate: the coefficients of the monic minimal polynomial."""
    powers = [ExactMatrix.identity(matrix.rows)]
    while True:
        powers.append(powers[-1] * matrix)
        kernel = nullspace_basis(ExactMatrix.hstack([vec(p) for p in powers]))
        if kernel.dimension:
            return Polynomial(kernel.vectors[0].column_entries())


@pytest.mark.parametrize("seed", [3, 17])
def test_stage_ladder_matches_kernels_of_explicit_powers(seed):
    for matrix, blocks in planted_cases(seed, 12):
        n = matrix.rows
        for lam in sorted({block.eigenvalue for block in blocks}):
            ladder = stage_ladder(matrix, lam)
            sizes = [block.size for block in blocks if block.eigenvalue == lam]
            assert ladder.dims() == [sum(min(s, k) for s in sizes) for k in range(1, max(sizes) + 1)]
            shifted = shift_by(matrix, lam)
            power = shifted
            for basis in ladder.stage_bases:
                expected = nullspace_basis(power)
                assert basis.vectors == expected.vectors
                assert [v.entries_str() for v in basis.vectors] == [
                    v.entries_str() for v in expected.vectors
                ]
                power = power * shifted
            if ladder.top.dimension < n:
                assert nullspace_basis(power).dimension == ladder.top.dimension


def ladder_inputs(seed, count):
    """Matrices not from generate_case: dense ones, products of low rank,
    strictly upper triangular ones, and sparser strictly upper triangular
    ones conjugated by a random matrix, with rational or Gaussian entries."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        n = rng.randint(1, 6)
        gaussian = index % 2 == 0
        scalar = lambda: rand_scalar(rng, 3, gaussian)  # noqa: E731
        kind = index % 4
        if kind == 0:
            rows = [[scalar() for _ in range(n)] for _ in range(n)]
        elif kind == 1:
            inner = rng.randint(1, n)
            left = ExactMatrix([[scalar() for _ in range(inner)] for _ in range(n)])
            right = ExactMatrix([[scalar() for _ in range(n)] for _ in range(inner)])
            rows = [list((left * right).row(i)) for i in range(n)]
        else:
            density = 0.7 if kind == 2 else 0.3
            rows = [[scalar() if j > i and rng.random() < density else gr(0) for j in range(n)]
                    for i in range(n)]
            p = ExactMatrix([[scalar() for _ in range(n)] for _ in range(n)])
            if kind == 3 and rank(p) == n:
                conjugated = p * ExactMatrix(rows) * inverse(p)
                rows = [list(conjugated.row(i)) for i in range(n)]
        out.append(ExactMatrix(rows))
    return out


@pytest.mark.parametrize("seed", [7, 31])
def test_kernel_ladder_stages_are_the_kernels_of_explicit_powers(seed):
    stages = 0
    for matrix in ladder_inputs(seed, 80):
        n = matrix.rows
        full = kernel_ladder(matrix)
        power = matrix
        for basis in full:
            expected = nullspace_basis(power)
            assert [v.entries_str() for v in basis.vectors] == [
                v.entries_str() for v in expected.vectors
            ]
            power = power * matrix
            stages += 1
        dims = [basis.dimension for basis in full]
        assert dims == sorted(set(dims)) and len(dims) <= n
        if 0 < dims[-1] < n:  # stopped because the kernels stabilized
            assert nullspace_basis(power).dimension == dims[-1]
        for top in range(1, n + 1):
            bounded = kernel_ladder(matrix, top)
            cut = next((k for k, dim in enumerate(dims) if dim >= top), len(dims) - 1)
            assert [b.vectors for b in bounded] == [b.vectors for b in full[:cut + 1]]
    assert stages >= 120


@pytest.mark.parametrize("seed", [5, 29])
def test_minimal_polynomial_matches_references(seed):
    for matrix, blocks in planted_cases(seed, 12):
        degrees = {}
        for block in blocks:
            degrees[block.eigenvalue] = max(degrees.get(block.eigenvalue, 0), block.size)
        planted = from_roots(*[lam for lam, d in degrees.items() for _ in range(d)])
        assert minimal_polynomial(matrix) == planted
        assert reference_minimal_polynomial(matrix) == planted
    for matrix in random_cases(seed, 30):
        assert minimal_polynomial(matrix) == reference_minimal_polynomial(matrix)


@pytest.mark.parametrize("seed", [7, 31])
def test_kernel_chains_read_packed_and_scalar_bases_alike(seed):
    chains = 0
    for matrix in ladder_inputs(seed, 80):
        ladder = kernel_ladder(matrix)
        packed = kernel_chains(matrix, ladder)
        rebuilt = kernel_chains(matrix, [Basis(b.ambient_dim, b.vectors) for b in ladder])
        assert [[v.entries_str() for v in chain] for chain in rebuilt] == [
            [v.entries_str() for v in chain] for chain in packed
        ]
        chains += len(packed)
    assert chains >= 100


def test_a_ladder_basis_counts_without_building_vectors(monkeypatch):
    ladder = kernel_ladder(jordan_matrix([Block(gr(0), 3), Block(gr(0), 1)]))

    def vector(*args):
        raise AssertionError("vectors were built")

    monkeypatch.setattr(matrices, "_vector", vector)
    assert [basis.dimension for basis in ladder] == [2, 3, 4]
    with pytest.raises(AssertionError, match="vectors were built"):
        ladder[0].vectors


def test_bases_compare_by_their_vectors():
    (matrix, blocks), = [case for case in planted_cases(5, 4) if len(case[1]) > 2][:1]
    lam = blocks[0].eigenvalue
    shifted = shift_by(matrix, lam)
    n = matrix.rows
    first, second = nullspace_basis(shifted), nullspace_basis(shifted)
    assert first.dimension >= 2
    assert first is not second and first == second and hash(first) == hash(second)
    rebuilt = Basis(first.ambient_dim, first.vectors)
    assert rebuilt == first and hash(rebuilt) == hash(first) and repr(rebuilt) == repr(first)
    assert repr(first).startswith(f"Basis(ambient_dim={n}, vectors=(ExactMatrix(")
    assert Basis(n, first.vectors[:-1]) != first and Basis(n + 1, ()) != Basis(n, ())
    with pytest.raises(DimensionMismatch):  # vectors of another dimension are no basis
        Basis(n + 1, first.vectors)
    assert first != (first.ambient_dim, first.vectors)
    assert stage_ladder(matrix, lam) == stage_ladder(matrix, lam)
    assert stage_ladder(matrix, lam) != stage_ladder(matrix, blocks[-1].eigenvalue)
    with pytest.raises(AttributeError):
        first.ambient_dim = 0


PRIMES = [p for p in range(2, 224) if all(p % q for q in range(2, p))]


def prime_scaled(matrix, seed):
    """D*A*D^-1 for a diagonal D of ratios of distinct primes, so a row's
    entries share no denominator and elimination runs well past 64 bits."""
    rng = random.Random(seed)
    primes = rng.sample(PRIMES, 2 * matrix.rows)
    scale = [Fraction(p, q) for p, q in zip(primes[::2], primes[1::2])]
    return ExactMatrix([[matrix[i, j] * gr(scale[i] / scale[j]) for j in range(matrix.cols)]
                        for i in range(matrix.rows)])


@pytest.mark.parametrize("text", ["0:4,3,2;1:3", "2:5,3;1i:4,2;-1i:2", "0:6,4,2;1:5,3;-1:4"])
def test_rational_conjugates_keep_their_blocks_stages_and_ladders(text):
    structure = parse_structure(text)
    matrix = prime_scaled(generate_case(structure, 3, 3)[0], len(text))
    assert lcm(*[x._d for i in range(matrix.rows) for x in matrix.row(i)]).bit_length() > 64
    assert jordan_decomposition(matrix).blocks == structure.blocks()
    ladders = spectrum_with_ladders(matrix)[1]
    for kind, stage in STAGES.items():
        assert check_decomposition(matrix, stage(matrix, ladders)).passed, kind
    for eigenvalue, lengths in structure.entries:
        ladder = stage_ladder(matrix, eigenvalue)
        shifted = shift_by(matrix, eigenvalue)
        power = shifted
        assert ladder.max_stage == max(lengths)
        for basis in ladder.stage_bases:
            assert basis.vectors == nullspace_basis(power).vectors
            power = power * shifted
