"""chain-counts against a reference that computes it on every Jordan claim.

``check_decomposition`` computes chain-counts only when similarity,
invertible or shape fails, since those three passing prove it.  The
reference here computes it on every claim, from the ranks of explicit dense
powers of A - lambda*I, and the two reports must be equal on pipeline
output and on claims that lie about it.
"""

import random

import pytest

import jordanform.verify as verify
from jordanform import (
    Block,
    Decomposition,
    ExactMatrix,
    check_decomposition,
    exhaustive_structures,
    generate_case,
    jordan_matrix,
    parse_structure,
    rank,
    shift_by,
)
from jordanform.cli import decomposition_to_document
from jordanform.decomp import STAGES
from jordanform.spectral import spectrum_with_ladders
from jordanform.scalars import ONE, format_scalar
from jordanform.verify import CheckResult

from conftest import mat
from same_bytes import CHAINS, DEFLATIONS, GAUSSIAN


def dense_power_dims(matrix, eigenvalue):
    """dim ker (A - lambda*I)^k for k = 1, 2, ... from the ranks of explicit
    powers, until they stop growing or reach n."""
    n = matrix.rows
    shifted = shift_by(matrix, eigenvalue)
    power, dims = shifted, [n - rank(shifted)]
    while dims[-1] < n and len(dims) < n:
        power = power * shifted
        dim = n - rank(power)
        if dim == dims[-1]:
            break
        dims.append(dim)
    return dims


def reference_chain_counts(matrix, blocks):
    if not matrix.is_square():
        return False, "A is not square"
    per_eigenvalue = {}
    for block in blocks:
        per_eigenvalue.setdefault(block.eigenvalue, []).append(block.size)
    for eigenvalue, sizes in per_eigenvalue.items():
        dims = dense_power_dims(matrix, eigenvalue)
        if len(sizes) != dims[0] or sum(sizes) != dims[-1]:
            return False, (
                f"{format_scalar(eigenvalue)}: {len(sizes)} blocks / "
                f"{sum(sizes)} total vs geometric {dims[0]} / "
                f"multiplicity {dims[-1]}"
            )
    return True, "chain counts match the kernel dimensions"


def with_reference_chain_counts(matrix, claim, results):
    """A Jordan claim's check results with chain-counts computed anyway."""
    *head, last = results
    assert last.name == "chain-counts"
    return (*head, CheckResult("chain-counts", *reference_chain_counts(matrix, claim.blocks)))


def with_entry(matrix, i, j, value):
    rows = [list(matrix.row(r)) for r in range(matrix.rows)]
    rows[i][j] = value
    return ExactMatrix(rows)


def with_columns(matrix, order):
    return ExactMatrix([[matrix[i, j] for j in order] for i in range(matrix.rows)])


def lies(claim):
    """A result claimed as Jordan, then claims that change one thing about it."""
    _, v, m, blocks = claim = claim._replace(kind="jordan")
    n = v.rows
    yield claim
    yield claim._replace(V=with_columns(v, [n - 1, *range(1, n - 1), 0][:n]))
    yield claim._replace(M=with_entry(m, 0, n - 1, m[0, n - 1] + ONE))
    yield claim._replace(V=with_entry(v, n - 1, 0, v[n - 1, 0] + ONE))
    yield claim._replace(V=ExactMatrix.zeros(n, n))
    yield claim._replace(blocks=blocks[::-1])
    relabelled = (Block(blocks[0].eigenvalue + ONE, blocks[0].size),) + blocks[1:]
    yield claim._replace(blocks=relabelled)
    yield claim._replace(M=jordan_matrix(relabelled), blocks=relabelled)
    # Passes similarity and shape: only invertible stands in for chain-counts.
    yield claim._replace(V=ExactMatrix.zeros(n, n), M=jordan_matrix(relabelled), blocks=relabelled)
    if len(blocks) > 1:
        # The first two chains as one, and the first chain over the second.
        merged = (Block(blocks[0].eigenvalue, blocks[0].size + blocks[1].size),) + blocks[2:]
        yield claim._replace(M=jordan_matrix(merged), blocks=merged)
        order, start = list(range(n)), blocks[0].size
        overlap = min(start, blocks[1].size)
        order[start:start + overlap] = range(overlap)
        yield claim._replace(V=with_columns(v, order))


def stage_results(matrix):
    _, ladders = spectrum_with_ladders(matrix)
    return [stage(matrix, ladders) for stage in STAGES.values()]


def assert_reports_match(cases):
    """Every lie about every stage's result on each matrix: the report equals
    the reference.  Returns the number of passing and of failing reports."""
    passing = failing = 0
    for matrix in cases:
        for result in stage_results(matrix):
            for claim in lies(result):
                report = check_decomposition(matrix, claim)
                reference = with_reference_chain_counts(matrix, claim, report.results)
                assert report.results == reference, claim
                passing += report.passed
                failing += not report.passed
    return passing, failing


def test_reports_match_the_reference_on_every_small_structure():
    cases = [generate_case(s, seed, 3)[0]
             for n in range(1, 7) for seed, s in enumerate(exhaustive_structures(n))]
    passing, failing = assert_reports_match(cases)
    # Each structure's jordan result passes, as does a schur, blockdiag or
    # blocktri result that is already a Jordan matrix.
    assert passing >= len(cases)
    assert failing > 5 * passing


def test_reports_match_the_reference_on_seeded_cases_up_to_n_16():
    texts = GAUSSIAN + CHAINS + DEFLATIONS + ("0:4,2;1:3;-1:1", "1i:3,3;2:2,1,1")
    cases = [generate_case(parse_structure(text), seed, 3)[0]
             for seed, text in enumerate(texts)]
    assert max(matrix.rows for matrix in cases) == 16
    passing, failing = assert_reports_match(cases)
    assert passing >= len(cases) and failing > 5 * passing


def test_reports_match_the_reference_on_the_sympy_oracle_matrices():
    sympy_oracle = pytest.importorskip("test_jordan_oracle")
    cases = [ExactMatrix([[sympy_oracle.text(x) for x in matrix.row(i)]
                          for i in range(matrix.rows)])
             for _, matrix in sympy_oracle.cases()]
    passing, failing = assert_reports_match(cases)
    assert passing >= len(cases) and failing > 5 * passing


def test_a_passing_report_computes_no_kernel_and_one_rank(monkeypatch):
    calls = {"kernel_ladder": 0, "rank": 0}

    def counted(name):
        real = getattr(verify, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    rng = random.Random(31)
    for structure in rng.sample(exhaustive_structures(6), 6):
        matrix, _ = generate_case(structure, 4, 3)
        jordan = stage_results(matrix)[-1]
        for claim in lies(jordan):
            calls.update(kernel_ladder=0, rank=0)
            report = check_decomposition(matrix, claim)
            if report.passed:
                assert calls == {"kernel_ladder": 0, "rank": 1}
            else:
                assert calls["kernel_ladder"] <= len({b.eigenvalue for b in claim.blocks})


def test_a_failing_report_names_a_block_built_from_an_int():
    # Block(2, 1) holds the int 2, which the failing row formats.
    claim = Decomposition(
        "jordan", ExactMatrix.identity(2), mat([[2, 0], [0, 2]]), (Block(2, 1), Block(2, 1))
    )
    report = check_decomposition(mat([[2, 1], [0, 2]]), claim)
    assert report.results[-1] == (
        "chain-counts", False, "2: 2 blocks / 2 total vs geometric 1 / multiplicity 2"
    )
    assert decomposition_to_document(claim)["blocks"] == [{"lambda": "2", "size": 1}] * 2
