import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jordanform.decomp
import jordanform.matrices as matrices
from jordanform import (
    Basis,
    Block,
    Decomposition,
    DependentInput,
    DimensionMismatch,
    ExactMatrix,
    GaussianRational,
    InternalInvariantViolation,
    InvalidStructure,
    NotAnEigenvalue,
    StageLadder,
    ZeroVector,
    block_diagonalize,
    blockwise_trigonalize,
    elementary_conjugator,
    exhaustive_structures,
    format_scalar,
    generate_case,
    inverse,
    jordan_chains,
    jordan_decomposition,
    jordan_matrix,
    nullspace_basis,
    parse_structure,
    rank,
    shift_by,
    spectrum,
    stage_ladder,
    trigonalize,
)
from jordanform.cli import decomposition_to_document
from jordanform.scalars import ONE, ZERO
from jordanform.spectral import spectrum_with_ladders

from conftest import (
    DENSE3,
    ROTATION2,
    SHEAR2,
    UPPER3,
    as_matrix,
    col,
    gr,
    in_span,
    mat,
    shape_check,
)
from same_bytes import CHAINS, DEFLATIONS, GAUSSIAN


@pytest.fixture(scope="module")
def corpus():
    """Structured cases with known Jordan forms, n = 1..4, two seeds each."""
    cases = []
    for n in range(1, 5):
        for structure in exhaustive_structures(n):
            for seed in (0, 1):
                matrix, expected = generate_case(structure, seed, 2)
                cases.append((structure, matrix, expected))
    return cases


def vec_strs(vectors):
    return [[str(x) for x in v.column_entries()] for v in vectors]


# --- trigonalize -----------------------------------------------------------------

def test_trigonalize_already_triangular():
    decomposition = trigonalize(SHEAR2)
    assert decomposition.V == ExactMatrix.identity(2)
    assert decomposition.M == SHEAR2


def test_trigonalize_base_case():
    decomposition = trigonalize(mat([[5]]))
    assert decomposition.V == mat([[1]])
    assert decomposition.M == mat([[5]])


def test_trigonalize_dense3():
    decomposition = trigonalize(DENSE3)
    assert decomposition.M.is_upper_triangular()
    assert [str(decomposition.M[i, i]) for i in range(3)] == ["3", "3", "3"]
    assert DENSE3 * decomposition.V == decomposition.V * decomposition.M
    inverse(decomposition.V)


def test_trigonalize_diagonal_is_spectrum(corpus):
    for _structure, matrix, _expected in corpus[::5]:
        decomposition = trigonalize(matrix)
        assert matrix * decomposition.V == decomposition.V * decomposition.M
        assert decomposition.M.is_upper_triangular()
        diagonal = sorted(decomposition.M[i, i] for i in range(matrix.rows))
        expected = sorted(
            entry.eigenvalue
            for entry in spectrum(matrix).entries
            for _ in range(entry.multiplicity)
        )
        assert diagonal == expected


def test_trigonalize_deflates_along_the_known_spectrum(monkeypatch):
    # Each step takes the head of the sorted spectrum, so diag(0, 1, 2)
    # needs one kernel for 0 and one for 1; the 1x1 tail needs none.
    matrix = mat([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    ladders = spectrum_with_ladders(matrix)[1]
    kernels = []
    real_kernel_rows = matrices._kernel_rows

    def counted_kernel_rows(rows, cols):
        kernels.append(cols)
        return real_kernel_rows(rows, cols)

    monkeypatch.setattr(matrices, "_kernel_rows", counted_kernel_rows)
    decomposition = jordanform.decomp.STAGES["schur"](matrix, ladders)
    assert [str(decomposition.M[i, i]) for i in range(3)] == ["0", "1", "2"]
    assert kernels == [3, 2]


def test_a_schur_step_without_an_eigenvector_is_an_internal_error():
    # The last step, on the 1x1 tail, checks its eigenvalue like the others.
    for entries, eigenvalues in (([[0, 0], [0, 1]], ["5", "1"]), ([[1, 0], [0, 2]], ["1", "5"])):
        with pytest.raises(InternalInvariantViolation, match="^schur: no eigenvector for 5$"):
            matrices.triangularize(mat(entries), [gr(x) for x in eigenvalues])


def test_schur_declares_the_spectrum_it_deflated(monkeypatch):
    # The blocks are the eigenvalues the steps deflated, not U's diagonal read
    # back: with U's last diagonal entry skewed by 1, the blocks stay the
    # spectrum and the claim fails shape.
    matrix = generate_case(parse_structure("0:2,1;1i:1;2:1"), 0, 3)[0]
    ladders = spectrum_with_ladders(matrix)[1]
    triangularize = jordanform.decomp.triangularize
    n = matrix.rows
    skew = ExactMatrix([[int(i == j == n - 1) for j in range(n)] for i in range(n)])

    def skewed(tail, eigenvalues):
        v, u = triangularize(tail, eigenvalues)
        return v, u + skew

    monkeypatch.setattr(jordanform.decomp, "triangularize", skewed)
    claim = jordanform.decomp.STAGES["schur"](matrix, ladders)
    assert claim.M[n - 1, n - 1] == gr("3")
    expected = [ladder.eigenvalue for ladder in ladders for _ in range(ladder.top.dimension)]
    assert [str(x) for x in expected] == ["0", "0", "0", "1i", "2"]
    assert claim.blocks == tuple(Block(lam, 1) for lam in expected)
    assert shape_check(matrix, claim) == (
        "shape", False, "diagonal entry is not its block's eigenvalue"
    )


def reference_triangularize(matrix, eigenvalues):
    # Schur's deflation in scalar arithmetic, as the stage once ran it: the
    # oracle that matrices.triangularize must match byte for byte.
    # eigenvalues is the block's sorted spectrum.  Step k conjugates the tail
    # T by B = [v, e_i for i != p], v the canonical eigenvector for lam_k, p its
    # last nonzero index (v_p = 1): B^-1 T B = [[lam_k, row p of T], [0, T']],
    # T'[i][j] = T[i][j] - v_i*T[p][j] (i, j != p).  Column k of V is v on the
    # live indices, row k of H is row p of T, and U is the upper triangle of H*V.
    n = matrix.rows
    tail = [list(matrix.row(i)) for i in range(n)]
    live = list(range(n))
    rows_v, rows_h = ([[ZERO] * n for _ in range(n)] for _ in range(2))
    for k, lam in enumerate(eigenvalues):
        v, p = (ONE,), 0  # a 1x1 tail needs no kernel
        if len(live) > 1:
            kernel = nullspace_basis(shift_by(ExactMatrix(tail), lam))
            if not kernel.dimension:
                raise InternalInvariantViolation(f"schur: no eigenvector for {format_scalar(lam)}")
            v, p = kernel.vectors[0].column_entries(), kernel.free_columns[0]
        head = tail.pop(p)
        for i, x, h in zip(live, v, head):
            rows_v[i][k], rows_h[k][i] = x, h
        del live[p], head[p]
        for row in tail:
            del row[p]
        tail = [[t - x * h for t, h in zip(row, head)] if x else row
                for row, x in zip(tail, v[:p] + v[p + 1:])]
    hv = ExactMatrix(rows_h) * (v_matrix := ExactMatrix(rows_v))
    return v_matrix, ExactMatrix([(ZERO,) * k + hv.row(k)[k:] for k in range(n)])


def triangularize_oracle_inputs():
    for n in range(1, 6):
        for structure in exhaustive_structures(n):
            yield generate_case(structure, 0, 3)[0]
    for text in GAUSSIAN + CHAINS + DEFLATIONS:
        for seed in (0, 1, 2):
            yield generate_case(parse_structure(text), seed, 3)[0]
    yield generate_case(parse_structure("0:5,3;1i:3,1"), 0, 9)[0]


def test_triangularize_matches_the_scalar_deflation_byte_for_byte():
    # Both the whole sorted spectrum, as schur hands it, and each blockdiag
    # block M_j with its one eigenvalue m_j times, as blocktri hands it.
    for matrix in triangularize_oracle_inputs():
        ladders = spectrum_with_ladders(matrix)[1]
        eigenvalues = [ladder.eigenvalue for ladder in ladders
                       for _ in range(ladder.top.dimension)]
        calls = [(matrix, eigenvalues)]
        blockdiag = jordanform.decomp.STAGES["blockdiag"](matrix, ladders)
        offset = 0
        for block in blockdiag.blocks:
            end = offset + block.size
            calls.append((blockdiag.M.submatrix(offset, end, offset, end),
                          [block.eigenvalue] * block.size))
            offset = end
        for tail, spectrum_in_order in calls:
            v, u = matrices.triangularize(tail, spectrum_in_order)
            expected_v, expected_u = reference_triangularize(tail, spectrum_in_order)
            assert (v._data, u._data) == (expected_v._data, expected_u._data)
            assert (v.rows, v.cols, u.rows, u.cols) == (expected_v.rows, expected_v.cols,
                                                        expected_u.rows, expected_u.cols)


def test_schur_does_no_scalar_arithmetic(monkeypatch):
    # The deflation runs on packed rows: no scalar is subtracted or multiplied
    # and no matrix is built from a scalar table while the stage runs.
    cases = [generate_case(parse_structure("0:2,1;1i:1;2:1"), 0, 3)[0],
             generate_case(parse_structure(CHAINS[0]), 0, 3)[0]]
    assert [matrix.rows for matrix in cases] == [5, 16]
    inputs = [(matrix, spectrum_with_ladders(matrix)[1]) for matrix in cases]
    expected = [jordanform.decomp.STAGES["schur"](*pair) for pair in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("scalar arithmetic or a scalar table in schur")

    monkeypatch.setattr(GaussianRational, "__sub__", refuse)
    monkeypatch.setattr(GaussianRational, "__mul__", refuse)
    monkeypatch.setattr(ExactMatrix, "__new__", refuse)
    assert [jordanform.decomp.STAGES["schur"](*pair) for pair in inputs] == expected


def schur_structure_inputs():
    for n in range(1, 6):
        for structure in exhaustive_structures(n):
            yield generate_case(structure, 0, 3)[0]
    for text in CHAINS + DEFLATIONS:
        for bound in (3, 9):
            yield generate_case(parse_structure(text), 0, bound)[0]


def test_schur_vectors_give_m_by_forward_substitution():
    # Step k deflates the last nonzero index p_k of column k of V, so the p_k
    # are distinct, rows p_0 ... p_(n-1) of V form a unit lower triangular L,
    # and L * M is those rows of A * V: M follows from V.
    for matrix in schur_structure_inputs():
        decomposition = trigonalize(matrix)
        v, n = decomposition.V, matrix.rows
        pivots = [max(i for i in range(n) if v[i, k]) for k in range(n)]
        assert sorted(pivots) == list(range(n))
        lower = ExactMatrix([v.row(p) for p in pivots])
        assert all(lower[k, k] == 1 and not any(lower.row(k)[k + 1:]) for k in range(n))
        image = matrix * v
        assert lower * decomposition.M == ExactMatrix([image.row(p) for p in pivots])


# Run in a new interpreter whose recursion limit is far below n: a Schur step
# that nested a frame per dimension would end in RecursionError.  The input is
# a 64x64 Jordan matrix with blocks of size 4, its indices permuted.
SHALLOW_STACK = """
import sys
from jordanform import Block, ExactMatrix, GaussianRational, jordan_matrix
from jordanform import blockwise_trigonalize, trigonalize
n = 64
jordan = jordan_matrix([Block(GaussianRational(k % 3), 4) for k in range(n // 4)])
order = [7 * i % n for i in range(n)]
matrix = ExactMatrix([[jordan[i, j] for j in order] for i in order])
sys.setrecursionlimit(40)
for stage in (trigonalize, blockwise_trigonalize):
    d = stage(matrix)
    print(stage.__name__, d.M.is_upper_triangular() and matrix * d.V == d.V * d.M)
"""


def test_triangularizing_needs_no_stack_depth_that_grows_with_n():
    env = dict(os.environ, PYTHONPATH=str(Path(jordanform.decomp.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", SHALLOW_STACK],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-400:]
    assert done.stdout == "trigonalize True\nblockwise_trigonalize True\n"


# --- stage ladders ----------------------------------------------------------------

def test_ladder_upper3():
    ladder = stage_ladder(UPPER3, gr("1"))
    assert ladder.dims() == [1, 2, 3]
    assert ladder.max_stage == 3
    assert vec_strs(ladder.stage_bases[0].vectors) == [["1", "0", "0"]]
    assert vec_strs(ladder.stage_bases[1].vectors) == [
        ["1", "0", "0"],
        ["0", "1", "0"],
    ]


def test_ladder_dense3():
    ladder = stage_ladder(DENSE3, gr("3"))
    assert ladder.dims() == [1, 2, 3]
    assert vec_strs(ladder.stage_bases[0].vectors) == [["1", "0", "1"]]
    # The second stage contains (1, 2, 0).
    assert in_span(ladder.stage_bases[1], col([1, 2, 0]))


def test_ladder_identity():
    ladder = stage_ladder(ExactMatrix.identity(2), gr("1"))
    assert ladder.dims() == [2]
    assert ladder.max_stage == 1


def test_ladder_requires_an_eigenvalue():
    with pytest.raises(NotAnEigenvalue):
        stage_ladder(SHEAR2, gr("7"))


def test_ladder_nesting_and_stabilization(corpus):
    for _structure, matrix, _expected in corpus[::7]:
        for entry in spectrum(matrix).entries:
            ladder = stage_ladder(matrix, entry.eigenvalue)
            dims = ladder.dims()
            assert dims == sorted(set(dims))  # strictly increasing
            assert dims[-1] == entry.multiplicity
            assert ladder.max_stage <= matrix.rows
            shifted = shift_by(matrix, entry.eigenvalue)
            # Each stage-k vector lies in the (k+1)-st kernel.
            power = shifted
            for k, basis in enumerate(ladder.stage_bases, start=1):
                next_power = power * shifted
                for v in basis.vectors:
                    assert (next_power * v).is_zero()
                power = next_power
            # Stabilization persists for two further powers.
            top_dim = dims[-1]
            power = shifted
            for _ in range(ladder.max_stage + 1):
                power = power * shifted
            assert matrix.rows - rank(power) == top_dim
            assert matrix.rows - rank(power * shifted) == top_dim


def test_generalized_eigenspaces_are_invariant(corpus):
    for _structure, matrix, _expected in corpus[::9]:
        for entry in spectrum(matrix).entries:
            top = stage_ladder(matrix, entry.eigenvalue).top
            free = [max(i for i, x in enumerate(v.column_entries()) if x) for v in top.vectors]
            for u in top.vectors:
                # A*u stays in the span, whose coordinates are its free-column entries.
                image = matrix * u
                assert as_matrix(top) * ExactMatrix([[image[f, 0]] for f in free]) == image


# --- block diagonalization ----------------------------------------------------------

def test_blockdiag_of_diagonal():
    decomposition = block_diagonalize(mat([[2, 0], [0, 5]]))
    assert decomposition.V == ExactMatrix.identity(2)
    assert decomposition.M == mat([[2, 0], [0, 5]])
    assert [(str(b.eigenvalue), b.size) for b in decomposition.blocks] == [
        ("2", 1),
        ("5", 1),
    ]


def test_blockdiag_single_block():
    decomposition = block_diagonalize(SHEAR2)
    assert [(str(b.eigenvalue), b.size) for b in decomposition.blocks] == [("1", 2)]
    assert SHEAR2 * decomposition.V == decomposition.V * decomposition.M


def test_blockdiag_two_simple_blocks():
    from jordanform import JordanStructure, GaussianRational

    structure = JordanStructure(
        ((GaussianRational(0), (1,)), (GaussianRational(1), (1,)))
    )
    matrix, _ = generate_case(structure, 5, 3)
    decomposition = block_diagonalize(matrix)
    assert [(str(b.eigenvalue), b.size) for b in decomposition.blocks] == [
        ("0", 1),
        ("1", 1),
    ]
    assert decomposition.M == mat([[0, 0], [0, 1]])


def test_blockdiag_zero_outside_blocks(corpus):
    for _structure, matrix, _expected in corpus[::6]:
        decomposition = block_diagonalize(matrix)
        offset = 0
        spans = []
        for block in decomposition.blocks:
            spans.append(range(offset, offset + block.size))
            offset += block.size
        for i in range(matrix.rows):
            for j in range(matrix.rows):
                if not any(i in span and j in span for span in spans):
                    assert decomposition.M[i, j].is_zero()
        assert matrix * decomposition.V == decomposition.V * decomposition.M


def test_blockdiag_equals_the_conjugation_by_the_inverse(corpus):
    structure = parse_structure("1+1i:2,1;1-1i:1;-1:1")
    gaussian, _ = generate_case(structure, 3, 3)
    provided = [gr("-1"), gr("1-1i"), gr("1+1i")]
    cases = [(matrix, None) for _structure, matrix, _expected in corpus]
    for matrix, eigenvalues in cases + [(gaussian, provided)]:
        decomposition = block_diagonalize(matrix, eigenvalues)
        v = decomposition.V
        assert decomposition.M == inverse(v) * matrix * v


# --- blockwise triangularization ------------------------------------------------------

def test_blocktri_upper3():
    decomposition = blockwise_trigonalize(UPPER3)
    assert decomposition.M.is_upper_triangular()
    assert [str(decomposition.M[i, i]) for i in range(3)] == ["1", "1", "1"]


def test_blocktri_diagonal():
    decomposition = blockwise_trigonalize(mat([[2, 0], [0, 5]]))
    assert decomposition.M == mat([[2, 0], [0, 5]])


def test_blocktri_dense3():
    decomposition = blockwise_trigonalize(DENSE3)
    assert decomposition.M.is_upper_triangular()
    assert [str(decomposition.M[i, i]) for i in range(3)] == ["3", "3", "3"]
    assert DENSE3 * decomposition.V == decomposition.V * decomposition.M


def test_blocktri_blocks_have_constant_diagonal(corpus):
    for _structure, matrix, _expected in corpus[::6]:
        decomposition = blockwise_trigonalize(matrix)
        assert decomposition.M.is_upper_triangular()
        offset = 0
        for block in decomposition.blocks:
            for k in range(block.size):
                assert decomposition.M[offset + k, offset + k] == block.eigenvalue
            offset += block.size
        assert matrix * decomposition.V == decomposition.V * decomposition.M


def permuted_jordan(text):
    # The Jordan matrix of a structure with its indices permuted by i -> 7i mod n.
    jordan = jordan_matrix(parse_structure(text).blocks())
    n = jordan.rows
    order = [7 * i % n for i in range(n)]
    return ExactMatrix([[jordan[i, j] for j in order] for i in order])


# n = 59, seven eigenvalues, chains of length 1 to 9.
PERMUTED_59 = "0:9,5,3;1:8,4;-1:7,2;2:6,3;1i:5;-1i:4;1/2:3"


def blocktri_inputs():
    for n in range(1, 7):
        for structure in exhaustive_structures(n):
            for seed in (1, 2):
                yield generate_case(structure, seed, 3)[0]
    for text in CHAINS + DEFLATIONS:
        for bound in (3, 9):
            yield generate_case(parse_structure(text), 0, bound)[0]
    yield permuted_jordan(PERMUTED_59)


def reference_blocktri(matrix, ladders):
    # Blocktri built the long way: each diagonal block cut back out of the
    # blockdiag M, triangularized, and V multiplied by the block-diagonal
    # matrix of the blocks' Schur vectors in one n x n product.
    base = jordanform.decomp.STAGES["blockdiag"](matrix, ladders)
    inner, offset = [], 0
    for block in base.blocks:
        end = offset + block.size
        sub = base.M.submatrix(offset, end, offset, end)
        inner.append(reference_triangularize(sub, [block.eigenvalue] * block.size))
        offset = end
    v = base.V * ExactMatrix.block_diagonal([w for w, _ in inner])
    u = ExactMatrix.block_diagonal([u for _, u in inner])
    return Decomposition("blocktri", v, u, base.blocks)


def test_blocktri_equals_the_blocks_cut_out_of_blockdiag():
    for matrix in blocktri_inputs():
        ladders = spectrum_with_ladders(matrix)[1]
        assert jordanform.decomp.STAGES["blocktri"](matrix, ladders) == reference_blocktri(
            matrix, ladders
        )


def test_blocktri_multiplies_no_two_n_by_n_matrices(monkeypatch):
    # With two or more eigenvalues every block is smaller than n, so no
    # product of the stage needs an n x n factor on both sides.
    inputs = [generate_case(parse_structure(text), 0, 3)[0] for text in CHAINS]
    inputs += [generate_case(parse_structure("0:2,1;1:3;2:2"), 5, 9)[0]]
    inputs += [permuted_jordan(PERMUTED_59)]
    multiply = ExactMatrix.__mul__
    shapes = []

    def recording(left, right):
        if isinstance(right, ExactMatrix):
            shapes.append((left.rows, left.cols, right.cols))
        return multiply(left, right)

    for matrix in inputs:
        n, ladders = matrix.rows, spectrum_with_ladders(matrix)[1]
        assert len(ladders) >= 2
        shapes.clear()
        monkeypatch.setattr(ExactMatrix, "__mul__", recording)
        decomposition = jordanform.decomp.STAGES["blocktri"](matrix, ladders)
        monkeypatch.undo()
        assert shapes and (n, n, n) not in shapes
        assert matrix * decomposition.V == decomposition.V * decomposition.M


def test_schur_and_blocktri_share_the_first_run():
    # The first m_1 Schur vectors are the run of the smallest eigenvalue, which
    # lies in its generalized eigenspace G_1.  There the canonical order by last
    # nonzero entry and the coordinate order agree, so schur and blocktri take
    # the same first m_1 columns of V and the same leading m_1 x m_1 block of M.
    # Later runs differ.
    inputs = [
        generate_case(structure, seed, 3)[0]
        for n in range(1, 7)
        for structure in exhaustive_structures(n)
        for seed in (1, 2, 3)
    ]
    ci_24 = "0:5,3;1:4,2;-1:3,1;2:3,2;1i:1"
    inputs += [
        generate_case(parse_structure(text), seed, bound)[0]
        for text in CHAINS + DEFLATIONS + (ci_24,)
        for seed in (5, 11)
        for bound in (3, 9)
    ]
    for matrix in inputs:
        ladders = spectrum_with_ladders(matrix)[1]
        schur = jordanform.decomp.STAGES["schur"](matrix, ladders)
        blocktri = jordanform.decomp.STAGES["blocktri"](matrix, ladders)
        n, m1 = matrix.rows, blocktri.blocks[0].size
        assert schur.V.submatrix(0, n, 0, m1) == blocktri.V.submatrix(0, n, 0, m1)
        assert schur.M.submatrix(0, m1, 0, m1) == blocktri.M.submatrix(0, m1, 0, m1)


# --- jordan chains ---------------------------------------------------------------------

def test_chains_dense3():
    ladder = stage_ladder(DENSE3, gr("3"))
    chains = jordan_chains(DENSE3, ladder)
    assert len(chains) == 1
    assert vec_strs(chains[0].vectors) == [
        ["-2", "0", "-2"],
        ["-1", "-4", "1"],
        ["1", "0", "0"],
    ]


def test_chains_shear():
    ladder = stage_ladder(SHEAR2, gr("1"))
    chains = jordan_chains(SHEAR2, ladder)
    assert len(chains) == 1
    assert vec_strs(chains[0].vectors) == [["1", "0"], ["0", "1"]]


def test_chains_identity():
    ladder = stage_ladder(ExactMatrix.identity(2), gr("1"))
    chains = jordan_chains(ExactMatrix.identity(2), ladder)
    assert [c.length for c in chains] == [1, 1]
    assert vec_strs(chains[0].vectors) == [["1", "0"]]
    assert vec_strs(chains[1].vectors) == [["0", "1"]]


def test_chains_from_a_basis_with_the_zero_vector_raise_zero_vector():
    good = stage_ladder(DENSE3, gr("3"))

    def chains(zero_first_stage):
        # The zero basis is refused where it is built, inside the call.
        if not zero_first_stage:
            return jordan_chains(DENSE3, good)
        bad = StageLadder(gr("3"), (Basis(3, [col([0, 0, 0])]),) + good.stage_bases[1:])
        return jordan_chains(DENSE3, bad)

    with pytest.raises(ZeroVector):
        chains(True)
    # A bare StopIteration here would end map early and drop the third result.
    with pytest.raises(ZeroVector):
        list(map(chains, [False, True, False]))


def test_chains_from_recombined_stage_bases_are_the_canonical_chains():
    # Each stage basis, mixed by an invertible matrix and scaled, spans the
    # same kernel, so its reversed rows, the RREF of that kernel, and the
    # chains are the same.
    cases = [jordan_matrix([Block(gr("2"), 3), Block(gr("2"), 1)])]
    cases += [generate_case(parse_structure(text), 7, 3)[0]
              for text in ("0:3,1;1:2,2", "1i:2,2,1;-1:1") + CHAINS]
    recombined_stages = 0
    for seed, matrix in enumerate(cases):
        for entry in spectrum(matrix).entries:
            ladder = stage_ladder(matrix, entry.eigenvalue)
            bases = []
            for basis in ladder.stage_bases:
                mix, _ = elementary_conjugator(basis.dimension, seed + len(bases), 2)
                columns = as_matrix(basis) * mix * gr("-2/3")
                bases.append(Basis(basis.ambient_dim, [
                    columns.submatrix(0, columns.rows, j, j + 1) for j in range(columns.cols)
                ]))
                recombined_stages += bases[-1] != basis
            chains = jordan_chains(matrix, StageLadder(ladder.eigenvalue, tuple(bases)))
            assert [vec_strs(c.vectors) for c in chains] == [
                vec_strs(c.vectors) for c in jordan_chains(matrix, ladder)
            ]
    assert recombined_stages >= 20


def test_a_hand_made_ladder_is_reduced_once_where_it_is_built(monkeypatch):
    # Each stage basis is a recombined, scaled kernel, so Basis(...) reduces it
    # to the kernel's canonical rows; after that no read runs an elimination.
    matrix = generate_case(parse_structure("0:3,1;1:2,2"), 7, 3)[0]
    ladder = stage_ladder(matrix, gr("0"))
    bases = []
    for basis in ladder.stage_bases:
        mix, _ = elementary_conjugator(basis.dimension, len(bases), 2)
        columns = as_matrix(basis) * mix * gr("-2/3")
        bases.append(Basis(basis.ambient_dim, [
            columns.submatrix(0, columns.rows, j, j + 1) for j in range(columns.cols)
        ]))
    assert all(made != basis for made, basis in zip(bases, ladder.stage_bases))
    expected = [vec_strs(c.vectors) for c in jordan_chains(matrix, ladder)]

    def rref_rows(rows):
        raise AssertionError("a built basis ran an elimination")

    monkeypatch.setattr(matrices, "_rref_rows", rref_rows)
    hand_made = StageLadder(ladder.eigenvalue, tuple(bases))
    assert hand_made.dims() == ladder.dims() == [2, 3, 4]
    assert [b.free_columns for b in bases] == [b.free_columns for b in ladder.stage_bases]
    assert [vec_strs(c.vectors) for c in jordan_chains(matrix, hand_made)] == expected


def test_chains_from_a_dependent_basis_raise_dependent_input():
    good = stage_ladder(DENSE3, gr("3"))
    top = good.stage_bases[-1].vectors
    with pytest.raises(DependentInput):
        bad = StageLadder(gr("3"), good.stage_bases[:-1] + (Basis(3, [top[0], top[0], top[1]]),))
        jordan_chains(DENSE3, bad)


def test_chains_from_a_ladder_of_another_size_raise_dimension_mismatch():
    ladder = stage_ladder(UPPER3, gr("1"))  # in dimension 3, not SHEAR2's 2
    with pytest.raises(DimensionMismatch, match="stage ladder bases must be in dimension 2"):
        jordan_chains(SHEAR2, ladder)


def test_chains_from_a_ladder_with_no_stage_raise_invalid_structure():
    with pytest.raises(InvalidStructure, match="a stage ladder needs at least one stage"):
        jordan_chains(SHEAR2, StageLadder(gr("1"), ()))


def test_chains_that_miss_the_ladder_dimensions_are_an_internal_error(monkeypatch):
    matrix, _ = generate_case(parse_structure("1i:3,1;2:1"), 3, 3)
    ladder = stage_ladder(matrix, gr("1i"))
    real_chains = jordanform.decomp.kernel_chains
    monkeypatch.setattr(jordanform.decomp, "kernel_chains", lambda *args: real_chains(*args)[1:])
    with pytest.raises(
        InternalInvariantViolation,
        match=r"^chain counts for 1i disagree with the ladder dimensions \[2, 3, 4\]$",
    ):
        jordan_chains(matrix, ladder)


def test_chains_of_a_stage_are_extended_by_one_product(monkeypatch):
    matrix, expected = generate_case(parse_structure("0:3,3,3;1:1"), 5, 3)
    ladder = stage_ladder(matrix, gr("0"))
    products = []
    real_product = matrices._product

    def counted_product(rows, columns):
        products.append(len(rows))
        return real_product(rows, columns)

    monkeypatch.setattr(matrices, "_product", counted_product)
    chains = jordan_chains(matrix, ladder)
    monkeypatch.undo()
    assert [chain.length for chain in chains] == [3, 3, 3]
    # Stages 2 and 1 each extend the three chains with one 3-row product by
    # N, and no other product runs.
    assert products == [3, 3]
    assert jordan_decomposition(matrix).M == expected


def test_chain_identities(corpus):
    for _structure, matrix, _expected in corpus:
        for entry in spectrum(matrix).entries:
            ladder = stage_ladder(matrix, entry.eigenvalue)
            chains = jordan_chains(matrix, ladder)
            dims = ladder.dims()
            assert len(chains) == dims[0]
            assert sum(c.length for c in chains) == dims[-1]
            # Stage-l vector counts match the kernel dimension differences.
            for stage in range(1, ladder.max_stage + 1):
                at_stage = sum(1 for c in chains if c.length >= stage)
                previous = dims[stage - 2] if stage >= 2 else 0
                assert at_stage == dims[stage - 1] - previous
            lengths = [c.length for c in chains]
            assert lengths == sorted(lengths, reverse=True)
            shifted = shift_by(matrix, entry.eigenvalue)
            for chain in chains:
                assert (shifted * chain.vectors[0]).is_zero()
                assert not chain.vectors[0].is_zero()
                for k in range(1, chain.length):
                    assert shifted * chain.vectors[k] == chain.vectors[k - 1]
                # v_k has stage exactly k: k-1 applications reach a nonzero
                # vector, one more kills it.
                for k, v in enumerate(chain.vectors, start=1):
                    image = v
                    for _ in range(k - 1):
                        image = shifted * image
                    assert not image.is_zero()
                    assert (shifted * image).is_zero()


# --- jordan decomposition ---------------------------------------------------------------

def test_jordan_dense3_exact():
    decomposition = jordan_decomposition(DENSE3)
    assert decomposition.V == mat([[-2, -1, 1], [0, -4, 0], [-2, 1, 0]])
    assert decomposition.M == mat([[3, 1, 0], [0, 3, 1], [0, 0, 3]])


def test_jordan_shear_is_its_own_form():
    decomposition = jordan_decomposition(SHEAR2)
    assert decomposition.M == SHEAR2
    assert any(block.size > 1 for block in decomposition.blocks)
    assert [block.size for block in decomposition.blocks] == [2]


def test_jordan_reorders_diagonal_canonically():
    decomposition = jordan_decomposition(mat([[5, 0, 0], [0, 5, 0], [0, 0, 2]]))
    assert decomposition.M == mat([[2, 0, 0], [0, 5, 0], [0, 0, 5]])
    assert [(str(b.eigenvalue), b.size) for b in decomposition.blocks] == [
        ("2", 1),
        ("5", 1),
        ("5", 1),
    ]


def test_jordan_rotation():
    decomposition = jordan_decomposition(ROTATION2)
    assert decomposition.M == mat([["-1i", "0"], ["0", "1i"]])
    for j, entry in enumerate(spectrum(ROTATION2).entries):
        column = decomposition.V.submatrix(0, 2, j, j + 1)
        assert ROTATION2 * column == column * entry.eigenvalue


def test_jordan_round_trip(corpus):
    for _structure, matrix, expected in corpus:
        decomposition = jordan_decomposition(matrix)
        assert decomposition.M == expected
        assert matrix * decomposition.V == decomposition.V * decomposition.M
        inverse(decomposition.V)


def test_diagonalizable_cases_degenerate_to_diagonal(corpus):
    for structure, matrix, _expected in corpus:
        if all(
            length == 1 for _, lengths in structure.entries for length in lengths
        ):
            decomposition = jordan_decomposition(matrix)
            assert all(block.size == 1 for block in decomposition.blocks)
            for i in range(matrix.rows):
                for j in range(matrix.rows):
                    if i != j:
                        assert decomposition.M[i, j].is_zero()


def test_jordan_is_deterministic():
    first = jordan_decomposition(DENSE3)
    second = jordan_decomposition(DENSE3)
    assert first == second
    assert json.dumps(decomposition_to_document(first)) == json.dumps(
        decomposition_to_document(second)
    )


def layout_inputs():
    """Every structure of size n <= 4, and three Gaussian cases of size 8-12."""
    inputs = [generate_case(structure, 0, 3)[0]
              for n in range(1, 5) for structure in exhaustive_structures(n)]
    for text, seed in (("1i:3,1;1+1i:2;-1:2", 11), ("1-1i:2,2,1;2i:3,1;0:2", 12),
                       ("1i:2,2;-1i:2,1;1/2:1,1;2+1i:2", 13)):
        inputs.append(generate_case(parse_structure(text), seed, 3)[0])
    return inputs


def test_jordan_lays_out_the_chains_of_the_ladders_in_order():
    # V is every chain's vectors side by side: ladders in order, chains in
    # decreasing length, vectors in ascending stage; one block per chain.
    for matrix in layout_inputs():
        ladders = spectrum_with_ladders(matrix)[1]
        chains = [chain for ladder in ladders for chain in jordan_chains(matrix, ladder)]
        v = ExactMatrix.hstack([x for chain in chains for x in chain.vectors])
        blocks = tuple(Block(chain.eigenvalue, chain.length) for chain in chains)
        for decomposition in (jordan_decomposition(matrix),
                              jordanform.decomp.STAGES["jordan"](matrix, ladders)):
            assert decomposition.V == v
            assert decomposition.blocks == blocks
            assert decomposition.M == jordan_matrix(blocks)


# --- the jordan shape check ---------------------------------------------------------------

def jordan_shape(m, blocks):
    """The shape check of a jordan claim about M itself: A = M, V = I."""
    return shape_check(m, Decomposition("jordan", ExactMatrix.identity(m.rows), m, tuple(blocks)))


@pytest.mark.parametrize(
    "rows, eigenvalues",
    [
        pytest.param([[1, 2], [0, 1]], ["1", "1"], id="bad-superdiagonal"),
        pytest.param([[1, 1], [0, 2]], ["1", "2"], id="mismatched-coupling"),
        pytest.param([[1, 0], [1, 1]], ["1", "1"], id="lower-entry"),
    ],
)
def test_jordan_shape_rejects_a_non_jordan_matrix(rows, eigenvalues):
    # The declared blocks are the diagonal read as 1 x 1 blocks.
    blocks = [Block(gr(x), 1) for x in eigenvalues]
    assert jordan_shape(mat(rows), blocks) == (
        "shape", False, "M is not the Jordan matrix of the declared blocks"
    )


def test_is_jordan_matrix_single_block():
    m = mat([[3, 1, 0], [0, 3, 1], [0, 0, 3]])
    assert jordan_shape(m, [Block(gr("3"), 3)]) == (
        "shape", True, "Jordan matrix matching the declared blocks"
    )
    assert jordan_shape(m, [Block(gr("3"), 1)] * 3)[1] is False


def test_is_jordan_matrix_identity():
    one = gr("1")
    assert jordan_shape(ExactMatrix.identity(4), [Block(one, 1)] * 4) == (
        "shape", True, "Jordan matrix matching the declared blocks"
    )
    merged = [Block(one, 2), Block(one, 1), Block(one, 1)]
    assert jordan_shape(ExactMatrix.identity(4), merged)[1] is False


def test_is_jordan_matrix_round_trips_every_structure():
    # Adjacent blocks may share an eigenvalue: a 0 on the superdiagonal splits them.
    for n in range(1, 6):
        for structure in exhaustive_structures(n):
            blocks = structure.blocks()
            assert jordan_shape(jordan_matrix(blocks), blocks) == (
                "shape", True, "Jordan matrix matching the declared blocks"
            ), structure


def test_trace_identity(corpus):
    for _structure, matrix, _expected in corpus[::4]:
        total = gr("0")
        for entry in spectrum(matrix).entries:
            total = total + entry.eigenvalue * entry.multiplicity
        assert matrix.trace() == total
