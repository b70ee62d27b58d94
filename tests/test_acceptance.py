"""Acceptance suite: one test per criterion, each printing a pass line.

Every assertion here is exact (byte/entry equality, integer counts); the
only tolerances are the wall-clock budgets stated alongside the criteria.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion.
"""

import io
import json
import time

import pytest

from jordanform import (
    check_decomposition,
    exhaustive_structures,
    generate_case,
    inverse,
    jordan_chains,
    jordan_decomposition,
    nullspace_basis,
    rank,
    shift_by,
    spectrum,
    stage_ladder,
    trigonalize,
)
from jordanform.cli import (
    EXIT_NOT_REPRESENTABLE,
    EXIT_OK,
    EXIT_USAGE,
    matrix_to_document,
    run,
)

from conftest import CUBE_COMPANION, DENSE3, ROTATION2, SHEAR2, UPPER3, col, gr, in_span, mat

GOLDEN_TIME_BUDGET = 0.1
SWEEP_TIME_BUDGET = 30.0


@pytest.fixture(scope="module")
def sweep():
    """The full structured corpus: n = 1..5, every structure, seeds 0..2."""
    start = time.perf_counter()
    cases = []
    for n in range(1, 6):
        for structure in exhaustive_structures(n):
            for seed in (0, 1, 2):
                matrix, expected = generate_case(structure, seed, 3)
                decomposition = jordan_decomposition(matrix)
                cases.append((structure, seed, matrix, expected, decomposition))
    elapsed = time.perf_counter() - start
    return cases, elapsed


def report(number, text):
    print(f"criterion {number}: PASS — {text}")


def test_criterion_1_golden_dense3_jordan():
    start = time.perf_counter()
    decomposition = jordan_decomposition(DENSE3)
    elapsed = time.perf_counter() - start
    assert decomposition.V == mat([[-2, -1, 1], [0, -4, 0], [-2, 1, 0]])
    assert decomposition.M == mat([[3, 1, 0], [0, 3, 1], [0, 0, 3]])
    ladder = stage_ladder(DENSE3, gr("3"))
    assert ladder.dims() == [1, 2, 3]
    assert ladder.max_stage == 3
    stage1 = ladder.stage_bases[0]
    assert stage1.dimension == 1
    assert in_span(stage1, col([1, 0, 1]))
    assert in_span(ladder.stage_bases[1], col([1, 2, 0]))
    assert elapsed < GOLDEN_TIME_BUDGET
    report(1, f"exact V, J, and ladder for the dense 3x3 in {elapsed:.4f}s")


def test_criterion_2_golden_upper3_ladder():
    start = time.perf_counter()
    ladder = stage_ladder(UPPER3, gr("1"))
    elapsed = time.perf_counter() - start
    assert ladder.dims() == [1, 2, 3]
    stage1 = ladder.stage_bases[0]
    assert stage1.dimension == 1
    assert stage1.vectors[0] == col([1, 0, 0])
    stage2 = ladder.stage_bases[1]
    for member in (col([1, 0, 0]), col([0, 1, 0])):
        assert in_span(stage2, member)
    assert elapsed < GOLDEN_TIME_BUDGET
    report(2, f"ladder dims (1,2,3) with expected stage bases in {elapsed:.4f}s")


def test_criterion_3_golden_shear_non_diagonalizable():
    start = time.perf_counter()
    decomposition = jordan_decomposition(SHEAR2)
    elapsed = time.perf_counter() - start
    assert decomposition.M == SHEAR2
    assert any(block.size == 2 for block in decomposition.blocks)
    assert [block.size for block in decomposition.blocks] == [2]
    assert elapsed < GOLDEN_TIME_BUDGET
    report(3, f"shear is its own Jordan form, reported non-diagonalizable, {elapsed:.4f}s")


def test_criterion_4_round_trip_oracle(sweep):
    cases, elapsed = sweep
    assert len(cases) == (1 + 3 + 6 + 14 + 27) * 3
    for structure, seed, _matrix, expected, decomposition in cases:
        computed = json.dumps(matrix_to_document(decomposition.M))
        reference = json.dumps(matrix_to_document(expected))
        assert computed == reference, (structure, seed)
    assert elapsed < SWEEP_TIME_BUDGET
    report(4, f"{len(cases)} cases recovered byte-for-byte in {elapsed:.2f}s")


def test_criterion_5_similarity_suite(sweep):
    cases, _ = sweep
    emitted = [(matrix, decomposition) for _, _, matrix, _, decomposition in cases]
    emitted.append((DENSE3, jordan_decomposition(DENSE3)))
    emitted.append((SHEAR2, jordan_decomposition(SHEAR2)))
    emitted.append((ROTATION2, jordan_decomposition(ROTATION2)))
    for matrix, decomposition in emitted:
        assert matrix * decomposition.V == decomposition.V * decomposition.M
        inverse(decomposition.V)
        assert check_decomposition(matrix, decomposition).passed
    report(5, f"A*V == V*M exactly with invertible V for {len(emitted)} decompositions")


def test_criterion_6_structural_theorems(sweep):
    cases, _ = sweep
    checked = 0
    for _structure, _seed, matrix, _expected, decomposition in cases:
        n = matrix.rows
        spect = spectrum(matrix)
        assert sum(e.multiplicity for e in spect.entries) == n
        weighted = gr("0")
        for entry in spect.entries:
            weighted = weighted + entry.eigenvalue * entry.multiplicity
        assert matrix.trace() == weighted
        for entry in spect.entries:
            ladder = stage_ladder(matrix, entry.eigenvalue)
            dims = ladder.dims()
            assert all(a < b for a, b in zip(dims, dims[1:]))
            shifted = shift_by(matrix, entry.eigenvalue)
            power = shifted
            for _ in range(ladder.max_stage - 1):
                power = power * shifted
            for _ in range(2):  # two extra powers keep the top dimension
                power = power * shifted
                assert n - rank(power) == dims[-1]
            chains = jordan_chains(matrix, ladder)
            assert len(chains) == nullspace_basis(shifted).dimension
            assert sum(c.length for c in chains) == entry.multiplicity
            for chain in chains:
                assert (shifted * chain.vectors[0]).is_zero()
                for k in range(1, chain.length):
                    assert shifted * chain.vectors[k] == chain.vectors[k - 1]
        schur = trigonalize(matrix)
        diagonal = sorted(schur.M[i, i] for i in range(n))
        with_multiplicity = sorted(
            e.eigenvalue for e in spect.entries for _ in range(e.multiplicity)
        )
        assert diagonal == with_multiplicity
        checked += 1
    report(6, f"all structural identities exact on {checked} corpus cases")


def test_criterion_7_complex_path():
    start = time.perf_counter()
    decomposition = jordan_decomposition(ROTATION2)
    elapsed = time.perf_counter() - start
    assert decomposition.M == mat([["-1i", "0"], ["0", "1i"]])
    assert [(str(b.eigenvalue), b.size) for b in decomposition.blocks] == [
        ("-1i", 1),
        ("1i", 1),
    ]
    for j, entry in enumerate(spectrum(ROTATION2).entries):
        column = decomposition.V.submatrix(0, 2, j, j + 1)
        assert not column.is_zero()
        assert ROTATION2 * column == column * entry.eigenvalue
    assert elapsed < GOLDEN_TIME_BUDGET
    report(7, f"rotation matrix gives diag(-i, i) with exact eigenvectors, {elapsed:.4f}s")


def test_criterion_8_failure_paths(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(matrix_to_document(CUBE_COMPANION)))
    assert run(["jordan", str(path)]) == EXIT_NOT_REPRESENTABLE
    err = capsys.readouterr().err
    assert "z^3 - 2" in err
    assert run(["jordan", str(path), "--spectrum", "5/3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "InvalidProvidedEigenvalue" in err
    report(8, "exit 2 names the unresolved cubic; bad --spectrum names the check")


def test_criterion_9_byte_determinism(tmp_path, capsys, monkeypatch, sweep):
    path = tmp_path / "dense3.json"
    path.write_text(json.dumps(matrix_to_document(DENSE3)))
    outputs = []
    for _ in range(2):
        assert run(["jordan", str(path), "--format", "json"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    gen_args = ["gen", "--structure", "0:2,1;1:1", "--seed", "3", "--bound", "3"]
    pipe_outputs = []
    for _ in range(2):
        assert run(gen_args) == EXIT_OK
        payload = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert run(["jordan", "--format", "json"]) == EXIT_OK
        pipe_outputs.append(capsys.readouterr().out)
    assert pipe_outputs[0] == pipe_outputs[1]
    report(9, "repeated runs emit byte-identical JSON")
