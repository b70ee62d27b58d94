import hashlib
import itertools
import random

import pytest

from jordanform import (
    Block,
    Decomposition,
    ExactMatrix,
    InvalidStructure,
    JordanStructure,
    ParseError,
    block_diagonalize,
    blockwise_trigonalize,
    check_decomposition,
    elementary_conjugator,
    exhaustive_structures,
    format_scalar,
    generate_case,
    jordan_decomposition,
    jordan_matrix,
    parse_structure,
    trigonalize,
)
from jordanform.decomp import STAGES
from jordanform.scalars import ONE
from jordanform.verify import PALETTE

from conftest import DENSE3, gr, mat, shape_check
from same_bytes import CHAINS
from test_chain_counts import stage_results, with_columns, with_entry


# --- JordanStructure ----------------------------------------------------------

def test_structure_is_canonicalized():
    a = JordanStructure(((gr("1"), (1, 3)), (gr("0"), (2,))))
    b = JordanStructure(((gr("0"), (2,)), (gr("1"), (3, 1))))
    assert a == b
    assert a.n == 6
    assert [(str(b_.eigenvalue), b_.size) for b_ in a.blocks()] == [
        ("0", 2),
        ("1", 3),
        ("1", 1),
    ]


@pytest.mark.parametrize(
    "entries",
    [
        (),
        ((gr("1"), ()),),
        ((gr("1"), (0,)),),
        ((gr("1"), (1,)), (gr("1"), (2,))),
        ((gr("1"), (True,)),),
    ],
)
def test_structure_validation(entries):
    with pytest.raises(InvalidStructure):
        JordanStructure(entries)


def test_structure_eigenvalues_are_scalars_when_the_structure_is_built():
    for value in (1.5, "x", "1", None):
        with pytest.raises(TypeError, match="as a structure eigenvalue"):
            JordanStructure(((value, (2,)),))
    # An int or a Fraction is the scalar it stands for, also when deduplicating.
    assert JordanStructure(((1, (2,)),)) == JordanStructure(((gr("1"), (2,)),))
    assert type(JordanStructure(((1, (2,)),)).entries[0][0]) is type(gr("1"))
    with pytest.raises(InvalidStructure, match="duplicate eigenvalue 1"):
        JordanStructure(((1, (2,)), (gr("1"), (1,))))


def test_parse_structure():
    parsed = parse_structure("0:2,1;1:1")
    assert parsed == JordanStructure(((gr("0"), (2, 1)), (gr("1"), (1,))))
    assert parse_structure("3:3") == JordanStructure(((gr("3"), (3,)),))
    assert parse_structure("1i:2") == JordanStructure(((gr("1i"), (2,)),))
    assert parse_structure(" 0 : 2 , 1 ; 1: 1 ") == parsed  # whitespace around parts and tokens


@pytest.mark.parametrize(
    "text",
    ["", "3", "3:", "3:x", ":1", "3:1;;", "0:-1", "0:0", "0:1_0", "0:+2", "0:\u0662"],
)
def test_parse_structure_rejects_malformed(text):
    with pytest.raises((ParseError, InvalidStructure)):
        parse_structure(text)


# --- generate_case --------------------------------------------------------------

def test_generate_case_round_trip_single_chain():
    structure = parse_structure("3:3")
    matrix, expected = generate_case(structure, 11, 3)
    assert expected == mat([[3, 1, 0], [0, 3, 1], [0, 0, 3]])
    assert jordan_decomposition(matrix).M == expected


def test_generate_case_identity_is_fixed():
    structure = parse_structure("1:1,1")
    for seed in range(5):
        matrix, expected = generate_case(structure, seed, 3)
        assert matrix == ExactMatrix.identity(2)
        assert expected == ExactMatrix.identity(2)


def test_generate_case_mixed_blocks():
    structure = parse_structure("0:2;1:1")
    matrix, expected = generate_case(structure, 9, 3)
    decomposition = jordan_decomposition(matrix)
    assert decomposition.M == expected
    assert [(str(b.eigenvalue), b.size) for b in decomposition.blocks] == [
        ("0", 2),
        ("1", 1),
    ]


def test_generate_case_is_deterministic():
    structure = parse_structure("0:2,1;1:1")
    first = generate_case(structure, 42, 3)
    second = generate_case(structure, 42, 3)
    assert first == second
    other_seed = generate_case(structure, 43, 3)
    assert other_seed[1] == first[1]


def test_generate_case_rejects_bad_bound():
    with pytest.raises(InvalidStructure):
        generate_case(parse_structure("0:1"), 0, 0)


@pytest.mark.parametrize("seed, entry_bound", [(None, 3), (0, 2.0), (0, True)])
def test_generate_case_refuses_a_seed_or_bound_that_is_no_int_before_building(
    seed, entry_bound, monkeypatch
):
    # A seed of None drew a different matrix on each call.
    from jordanform import verify

    def built(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(verify, "jordan_matrix", built)
    with pytest.raises(InvalidStructure, match="must be an integer, got"):
        generate_case(parse_structure("0:2,1"), seed, entry_bound)


@pytest.mark.parametrize("n, seed, entry_bound, message", [
    (3, 1, 0, "^entry_bound must be >= 1$"),
    (3, 1, 2.5, "^entry_bound must be an integer, got 2.5$"),
    (3, None, 3, "^seed must be an integer, got None$"),
    (3, 1.5, 3, "^seed must be an integer, got 1.5$"),
    (3, "1", 3, "^seed must be an integer, got '1'$"),
    (3, True, 3, "^seed must be an integer, got True$"),
    (-1, 1, 3, "^n must be >= 0, got -1$"),
    (2.0, 1, 3, "^n must be an integer, got 2.0$"),
    (True, 1, 3, "^n must be an integer, got True$"),
])
def test_elementary_conjugator_refuses_an_argument_that_is_no_int_in_range(
    n, seed, entry_bound, message
):
    # Each once gave a matrix, a bare ValueError from randrange, or, for the
    # float bound, a DeprecationWarning (Python 3.11) or a TypeError (3.12+).
    with pytest.raises(InvalidStructure, match=message):
        elementary_conjugator(n, seed, entry_bound)


def test_elementary_conjugator_is_exactly_invertible():
    for n, seed in itertools.product((1, 2, 4, 6), (0, 3, 17)):
        s, s_inv = elementary_conjugator(n, seed, 3)
        assert s * s_inv == ExactMatrix.identity(n)


# --- exhaustive_structures --------------------------------------------------------

def test_structures_n1():
    assert exhaustive_structures(1) == [JordanStructure(((gr("0"), (1,)),))]


def test_structures_n2():
    assert exhaustive_structures(2) == [
        JordanStructure(((gr("0"), (2,)),)),
        JordanStructure(((gr("0"), (1, 1)),)),
        JordanStructure(((gr("0"), (1,)), (gr("1"), (1,)))),
    ]


def test_structures_n3():
    assert exhaustive_structures(3) == [
        JordanStructure(((gr("0"), (3,)),)),
        JordanStructure(((gr("0"), (2, 1)),)),
        JordanStructure(((gr("0"), (1, 1, 1)),)),
        JordanStructure(((gr("0"), (2,)), (gr("1"), (1,)))),
        JordanStructure(((gr("0"), (1, 1)), (gr("1"), (1,)))),
        JordanStructure(((gr("0"), (1,)), (gr("1"), (1,)), (gr("2"), (1,)))),
    ]


def _partitions_brute(total):
    if total == 0:
        return [()]
    out = set()

    def grow(remaining, bound, prefix):
        if remaining == 0:
            out.add(prefix)
            return
        for part in range(min(bound, remaining), 0, -1):
            grow(remaining - part, part, prefix + (part,))

    grow(total, total, ())
    return sorted(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_structures_match_brute_force_enumeration(n):
    # Independent enumeration: multisets of partitions totaling n.
    pool = [p for total in range(1, n + 1) for p in _partitions_brute(total)]
    expected = set()
    for count in range(1, min(n, len(PALETTE)) + 1):
        for combo in itertools.combinations_with_replacement(pool, count):
            if sum(sum(p) for p in combo) == n:
                expected.add(tuple(sorted(combo)))
    produced = exhaustive_structures(n)
    seen = {
        tuple(sorted(lengths for _, lengths in s.entries)) for s in produced
    }
    assert seen == expected
    assert len(produced) == len(expected)  # no duplicates up to renaming
    for structure in produced:
        assert structure.n == n
        lambdas = [lam for lam, _ in structure.entries]
        assert sorted(set(lambdas)) == sorted(lambdas)
        assert set(lambdas) <= set(PALETTE)


@pytest.mark.parametrize(
    "n, digest",
    [
        (4, "868e90341f734c76141eaf0d7e3f0decb320c73cc386cc6b0138ddf175d6d3b5"),
        (5, "16b6461863e5155a375d81db636a793c3daf3ad13e41a8291168ef8aa952fb1f"),
        (6, "18b4daca6170af9eb6b5102cf60fbf1f78715e532c711ed7dcb593a80a7f8603"),
    ],
)
def test_structures_keep_their_order_and_labels(n, digest):
    # The list order and each structure's palette labels both follow the
    # order of the partition pool; the digests pin them exactly.
    text = "\n".join(
        ";".join(f"{format_scalar(value)}:{','.join(map(str, lengths))}" for value, lengths in s.entries)
        for s in exhaustive_structures(n)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_structure_counts():
    assert [len(exhaustive_structures(n)) for n in range(1, 6)] == [1, 3, 6, 14, 27]


def test_structures_out_of_range():
    with pytest.raises(InvalidStructure):
        exhaustive_structures(0)
    with pytest.raises(InvalidStructure):
        exhaustive_structures(7)


@pytest.mark.parametrize("n", [2.0, True])
def test_structures_need_an_int(n):
    # 2.0 once raised a bare TypeError, and True gave the n = 1 list.
    with pytest.raises(InvalidStructure, match="^exhaustive_structures supports integers"):
        exhaustive_structures(n)


# --- check_decomposition ------------------------------------------------------------

def known_good():
    return Decomposition(
        "jordan",
        mat([[-2, -1, 1], [0, -4, 0], [-2, 1, 0]]),
        mat([[3, 1, 0], [0, 3, 1], [0, 0, 3]]),
        jordan_decomposition(DENSE3).blocks,
    )


def test_check_passes_on_known_pair():
    report = check_decomposition(DENSE3, known_good())
    assert report.passed
    assert not report.failures()


def test_check_names_are_unique_and_complete():
    report = check_decomposition(DENSE3, known_good())
    names = [result.name for result in report.results]
    assert len(names) == len(set(names))
    assert set(names) == {
        "similarity",
        "invertible",
        "multiplicity-sum",
        "shape",
        "trace",
        "chain-counts",
    }


def test_check_detects_corrupted_v():
    good = known_good()
    swapped = ExactMatrix.hstack([good.V.submatrix(0, 3, j, j + 1) for j in (1, 0, 2)])
    report = check_decomposition(DENSE3, Decomposition("jordan", swapped, good.M, good.blocks))
    assert not report.passed
    assert any(result.name == "similarity" for result in report.failures())


def test_check_identity_jordan():
    identity = ExactMatrix.identity(2)
    decomposition = jordan_decomposition(identity)
    assert [(str(b.eigenvalue), b.size) for b in decomposition.blocks] == [
        ("1", 1),
        ("1", 1),
    ]
    assert check_decomposition(identity, decomposition).passed


def test_check_detects_wrong_kind_shape():
    candidate = Decomposition(
        "schur",
        ExactMatrix.identity(2),
        mat([[0, 0], [1, 0]]),
        (jordan_decomposition(ExactMatrix.identity(2)).blocks),
    )
    report = check_decomposition(mat([[0, 0], [1, 0]]), candidate)
    assert any(r.name == "shape" and not r.passed for r in report.results)


def test_check_detects_singular_v():
    singular = Decomposition(
        "jordan",
        mat([[1, 1], [1, 1]]),
        ExactMatrix.identity(2),
        jordan_decomposition(ExactMatrix.identity(2)).blocks,
    )
    report = check_decomposition(ExactMatrix.identity(2), singular)
    assert ("invertible", False, "V not invertible: matrix of rank 1 < 2") in report.results


def test_check_detects_non_square_v():
    wide = Decomposition(
        "jordan",
        mat([[1, 0, 0], [0, 1, 0]]),
        ExactMatrix.identity(2),
        jordan_decomposition(ExactMatrix.identity(2)).blocks,
    )
    report = check_decomposition(ExactMatrix.identity(2), wide)
    assert (
        "invertible", False, "V not invertible: inverse of a non-square matrix"
    ) in report.results


def test_check_passes_on_every_pipeline_output():
    rng = random.Random(77)
    structures = [s for n in range(1, 5) for s in exhaustive_structures(n)]
    for structure in rng.sample(structures, 8):
        matrix, _ = generate_case(structure, 2, 2)
        for decompose in (
            trigonalize,
            block_diagonalize,
            blockwise_trigonalize,
            jordan_decomposition,
        ):
            report = check_decomposition(matrix, decompose(matrix))
            assert report.passed, (structure, decompose.__name__, report.failures())


def test_check_reports_a_non_square_matrix_without_raising():
    a = mat([[1, 2, 3], [0, 1, 0]])
    report = check_decomposition(a, jordan_decomposition(mat([[1, 2], [0, 1]])))
    assert [(r.name, r.passed) for r in report.results] == [
        ("similarity", False),
        ("invertible", True),
        ("multiplicity-sum", False),
        ("shape", False),
        ("trace", False),
        ("chain-counts", False),
    ]
    assert report.results[2].detail == report.results[-1].detail == "A is not square"


# --- lying claims: a correct result with its blocks changed ---------------------------------

LABELS_SWAPPED = {gr("1"): gr("2"), gr("2"): gr("1")}


@pytest.fixture(scope="module")
def two_eigenvalues():
    matrix, _ = generate_case(parse_structure("1:2;2:2"), 3, 3)
    return matrix


@pytest.mark.parametrize(
    "lie",
    [
        pytest.param(lambda blocks: blocks[::-1], id="reversed"),
        pytest.param(
            lambda blocks: tuple(Block(LABELS_SWAPPED[b.eigenvalue], b.size) for b in blocks),
            id="labels-swapped",
        ),
    ],
)
def test_schur_claim_with_other_blocks_fails_shape(two_eigenvalues, lie):
    truth = trigonalize(two_eigenvalues)
    claim = truth._replace(blocks=lie(truth.blocks))
    assert claim.blocks != truth.blocks
    assert shape_check(two_eigenvalues, claim) == (
        "shape", False, "diagonal entry is not its block's eigenvalue"
    )


@pytest.mark.parametrize("sizes", [(-1, 3), (0, 2)], ids=["negative", "zero"])
def test_non_positive_block_size_fails_shape_for_every_kind(sizes):
    # The sizes sum to n = 2, and the weighted eigenvalues to the trace.
    m = mat([[1, 1], [0, 1]])
    blocks = tuple(Block(gr("1"), size) for size in sizes)
    for kind in STAGES:
        claim = Decomposition(kind, ExactMatrix.identity(2), m, blocks)
        assert shape_check(m, claim) == (
            "shape", False, "declared block sizes do not partition M"
        ), kind


def test_block_sizes_are_tested_before_anything_of_their_size_is_built():
    # One block of size 10^15 on a 2x2 claim: the shape check reads the sizes
    # alone, so the report costs what M costs, not what the sizes claim.
    identity = ExactMatrix.identity(2)
    for kind in STAGES:
        claim = Decomposition(kind, identity, identity, (Block(ONE, 10**15),))
        verdicts = {r.name: r[1:] for r in check_decomposition(identity, claim).results}
        assert verdicts["multiplicity-sum"] == (
            False, "block sizes sum to 1000000000000000 of 2"
        ), kind
        assert verdicts["shape"] == (False, "declared block sizes do not partition M"), kind


MALFORMED = "declared blocks are not (scalar, int size) pairs"


@pytest.mark.parametrize(
    "blocks",
    [(Block(1.0, 1),), (Block("1", 1),), (Block(1, 1.0),), (Block(1, True),), ((1, 1),), ("1",),
     None],
    ids=["float-eigenvalue", "str-eigenvalue", "float-size", "bool-size", "plain-tuple", "str",
         "none"],
)
def test_malformed_blocks_fail_every_check_that_reads_them_without_raising(blocks):
    # A, V and M are the 1x1 identity, so similarity and invertible pass.
    one = ExactMatrix.identity(1)
    for kind in STAGES:
        report = check_decomposition(one, Decomposition(kind, one, one, blocks))
        names = ["multiplicity-sum", "shape", "trace"] + ["chain-counts"] * (kind == "jordan")
        assert report.results == (
            ("similarity", True, "A*V == V*M"),
            ("invertible", True, "V has an exact inverse"),
            *[(name, False, MALFORMED) for name in names],
        ), kind


ONE_BLOCK = (Block(gr("1"), 1),)
MULTIPLICITY_SUM = ("multiplicity-sum", True, "block sizes sum to 1 of 1")
TRACE = ("trace", True, "trace(A) equals the multiplicity-weighted eigenvalue sum")


@pytest.mark.parametrize(
    "kind", [["jordan"], {"jordan": 1}, ("jordan",), None, 7, "frobenius"],
    ids=["list", "dict", "tuple", "none", "int", "unknown-str"],
)
def test_a_kind_that_is_no_stage_gets_the_unknown_kind_report_without_raising(kind):
    one = ExactMatrix.identity(1)
    report = check_decomposition(one, Decomposition(kind, one, one, ONE_BLOCK))
    assert report.results == (
        ("similarity", True, "A*V == V*M"),
        ("invertible", True, "V has an exact inverse"),
        MULTIPLICITY_SUM,
        ("shape", False, f"unknown kind {kind!r}"),
        TRACE,
    )


@pytest.mark.parametrize(
    "v, m, unreadable",
    [
        (None, ExactMatrix.identity(1), "V"),
        (ExactMatrix.identity(1), [[1]], "M"),
        ([[1]], None, "V and M"),
    ],
    ids=["v-none", "m-list", "both"],
)
def test_a_v_or_m_that_is_no_matrix_fails_the_checks_that_read_it_without_raising(
    v, m, unreadable
):
    one = ExactMatrix.identity(1)
    detail = f"{unreadable} not an ExactMatrix"
    invertible = (
        ("invertible", True, "V has an exact inverse") if unreadable == "M"
        else ("invertible", False, "V not invertible: not an ExactMatrix")
    )
    chain_counts = ("chain-counts", True, "chain counts match the kernel dimensions")
    for kind in STAGES:
        report = check_decomposition(one, Decomposition(kind, v, m, ONE_BLOCK))
        assert report.results == (
            ("similarity", False, detail),
            invertible,
            MULTIPLICITY_SUM,
            ("shape", False, detail),
            TRACE,
            *[chain_counts] * (kind == "jordan"),
        ), kind
        # With malformed blocks as well, the blocks' checks fail as they do alone.
        report = check_decomposition(one, Decomposition(kind, v, m, None))
        assert report.results[:2] == (("similarity", False, detail), invertible), kind
        assert {r.detail for r in report.results[2:]} == {MALFORMED}, kind


@pytest.mark.parametrize("a", [None, [[1]]], ids=["none", "list"])
def test_an_a_that_is_no_matrix_fails_the_checks_that_read_it_without_raising(a):
    one = ExactMatrix.identity(1)
    unreadable = "A not an ExactMatrix"
    for kind in STAGES:
        report = check_decomposition(a, Decomposition(kind, one, one, ONE_BLOCK))
        assert report.results == (
            ("similarity", False, unreadable),
            ("invertible", True, "V has an exact inverse"),
            ("multiplicity-sum", False, unreadable),
            ("shape", False, unreadable),
            ("trace", False, "trace identity failed"),
            *[("chain-counts", False, unreadable)] * (kind == "jordan"),
        ), kind


@pytest.mark.parametrize("fields", [3, 5, 0], ids=["3-tuple", "5-tuple", "none"])
def test_a_claim_that_is_no_four_tuple_fails_every_check_of_its_kind_without_raising(fields):
    one = ExactMatrix.identity(1)
    for kind in STAGES:
        claim = (kind, one, one, ONE_BLOCK, None)[:fields] or None
        names = ["similarity", "invertible", "multiplicity-sum", "shape", "trace"]
        names += ["chain-counts"] * (kind == "jordan" and fields > 0)
        assert check_decomposition(one, claim).results == tuple(
            (name, False, "claim is not a (kind, V, M, blocks) tuple") for name in names
        ), kind


def _claims():
    """(A, claim) pairs: every mix of a good or broken kind, A, V, M and
    blocks around A = V*M*V^-1, M one Jordan block of 1, then claims that
    are not 4-tuples."""
    a, v, m = mat([[0, 1], [-1, 2]]), mat([[1, 1], [1, 2]]), mat([[1, 1], [0, 1]])
    good = (Block(gr("1"), 2),)

    def broken(x):  # x, no matrix, non-square, the wrong size
        return [x, None, mat([[1, 0, 0], [0, 1, 0]]), ExactMatrix.identity(3)]

    blocks = [
        good, None, (), list(good), (Block(1.0, 2),),
        (Block(gr("1"), True), Block(gr("1"), True)),
        (Block(gr("1"), 0), Block(gr("1"), 2)),
        ((1, 2),), (1, 2), (Block(gr("2"), 2),),
    ]
    kinds = [*STAGES, "frobenius", ["jordan"], None, 7]
    singular = mat([[1, 1], [1, 1]])
    for claim in itertools.product(kinds, broken(v) + [singular], broken(m), blocks):
        for matrix in broken(a):
            yield matrix, claim
    for kind in kinds:
        yield a, (kind, v, m)
        yield a, (kind, v, m, good, None)
        yield a, [kind, v, m, good]
    yield a, None
    yield a, "jordan"


def test_reports_on_a_fixed_product_of_claims_keep_their_bytes():
    # Pins every check's name, order, verdict and detail on 6426 claims.
    reports = "\n".join(repr(check_decomposition(*pair).results) for pair in _claims())
    assert hashlib.sha256(reports.encode()).hexdigest() == (
        "f604cae462e672872c2d3656ce0e14566acc34763f620752434e59b1499266e9"
    )


def test_blockdiag_claim_with_swapped_labels_fails(two_eigenvalues):
    truth = block_diagonalize(two_eigenvalues)
    claim = truth._replace(
        blocks=tuple(Block(LABELS_SWAPPED[b.eigenvalue], b.size) for b in truth.blocks)
    )
    report = check_decomposition(two_eigenvalues, claim)
    assert report.failures() == [
        ("shape", False, "a block less its eigenvalue is not nilpotent")
    ]


@pytest.mark.parametrize("sizes", [(1, 2), (2, 1), (1, 1, 1)], ids=["1-2", "2-1", "1-1-1"])
def test_each_entry_outside_the_blocks_fails_shape(sizes):
    # I with one more 1 where row and column lie in different blocks: blockdiag
    # finds it outside the blocks, and so does blocktri above the diagonal
    # (below it, the triangle rule speaks first).
    blocks = tuple(Block(ONE, size) for size in sizes)
    owner = [k for k, size in enumerate(sizes) for _ in range(size)]
    identity = ExactMatrix.identity(3)
    for i, j in itertools.product(range(3), repeat=2):
        if owner[i] != owner[j]:
            m = with_entry(identity, i, j, ONE)
            for kind in ("blockdiag", "blocktri"):
                below = kind == "blocktri" and i > j
                detail = "nonzero entry below the diagonal" if below else (
                    "nonzero entry outside the declared blocks")
                claim = Decomposition(kind, identity, m, blocks)
                assert shape_check(m, claim) == ("shape", False, detail), (kind, i, j)


def test_the_shape_of_a_block_kind_is_read_off_whole_matrices(monkeypatch):
    # blockdiag and blocktri cut M into its diagonal blocks and compare M with
    # their block-diagonal matrix: no scalar row of M is ever read.
    matrices = [generate_case(parse_structure(text), 0, 3)[0]
                for text in ("0:2,1;1i:1;2:1",) + CHAINS]
    claims = [(matrix, stage(matrix)) for matrix in matrices
              for stage in (block_diagonalize, blockwise_trigonalize)]

    def no_row(self, i):
        raise AssertionError("the shape check read a scalar row of M")

    monkeypatch.setattr(ExactMatrix, "row", no_row)
    for matrix, claim in claims:
        assert check_decomposition(matrix, claim).passed, (claim.kind, matrix.rows)


def test_jordan_matrix_assembly():
    j = jordan_matrix((Block(gr("2"), 2), Block(gr("5"), 1)))
    assert j == mat([[2, 1, 0], [0, 2, 0], [0, 0, 5]])


@pytest.mark.parametrize("sizes", [(-1, 3), (3, -1), (0, 2)])
def test_jordan_matrix_rejects_a_block_size_below_one(sizes):
    # (-1, 3) once gave [[3, 1], [1, 3]] through negative indices, and
    # (3, -1) a bare IndexError.
    with pytest.raises(InvalidStructure, match="at least 1"):
        jordan_matrix([Block(gr("1"), sizes[0]), Block(gr("3"), sizes[1])])


@pytest.mark.parametrize("size", [True, 2.0])
def test_jordan_matrix_rejects_a_block_size_that_is_no_int(size):
    # True once gave [[2]], which check_decomposition calls malformed, and
    # 2.0 a bare TypeError.
    with pytest.raises(InvalidStructure, match="at least 1"):
        jordan_matrix([Block(gr("2"), size)])


@pytest.mark.parametrize("blocks", [[(1, 2)], [[1, 2]], [None]], ids=["pair", "list", "None"])
def test_jordan_matrix_refuses_an_item_that_is_no_block(blocks):
    # The size rule reads .size, which a pair or a list lacks: no bare AttributeError.
    with pytest.raises(InvalidStructure, match="^Jordan blocks must be Blocks"):
        jordan_matrix(blocks)


@pytest.mark.parametrize("size", [2, 1, 0, -1, True, False, 2.0, "2", None], ids=repr)
def test_every_site_agrees_on_what_a_block_size_is(size):
    # The rule scalars.is_int spells, pinned by behaviour: JordanStructure,
    # jordan_matrix, the command line's decomposition document and
    # check_decomposition (on a 1 x 1 or 2 x 2 Jordan matrix, so a size below
    # 1 fails its shape) all take an int >= 1, never a bool, a float, a
    # string or None.
    from jordanform.cli import document_to_decomposition

    def accepts(call, error):
        try:
            call()
        except error:
            return False
        return True

    one = {"n": 1, "entries": [["1"]]}
    document = {"kind": "jordan", "V": one, "M": one, "blocks": [{"lambda": "0", "size": size}]}
    claims = [(jordan_matrix([Block(gr("0"), n)]), ExactMatrix.identity(n)) for n in (1, 2)]
    verdicts = [
        accepts(lambda: JordanStructure(((gr("0"), (size,)),)), InvalidStructure),
        accepts(lambda: jordan_matrix([Block(gr("0"), size)]), InvalidStructure),
        accepts(lambda: document_to_decomposition(document), ParseError),
        any(
            check_decomposition(j, Decomposition("jordan", i, j, (Block(gr("0"), size),))).passed
            for j, i in claims
        ),
    ]
    assert verdicts == [type(size) is int and size >= 1] * 4


def test_blockdiag_shape_rejects_every_relabelling():
    # Each permutation of the eigenvalue labels over the blocks that moves
    # one fails shape; the true labels pass.
    relabelled = 0
    for structure in (s for n in range(2, 6) for s in exhaustive_structures(n)):
        matrix, _ = generate_case(structure, 3, 3)
        truth = block_diagonalize(matrix)
        labels = [block.eigenvalue for block in truth.blocks]
        assert shape_check(matrix, truth).passed
        for order in set(itertools.permutations(labels)):
            if list(order) != labels:
                claim = truth._replace(blocks=tuple(
                    Block(lam, block.size) for lam, block in zip(order, truth.blocks)
                ))
                assert not shape_check(matrix, claim).passed
                relabelled += 1
    assert relabelled == 253


def lying_claims(claim):
    """Claims about a stage's result that are false by construction, of its
    kind: with V invertible, V*M' != A*V for any M' != M."""
    _, v, m, blocks = claim
    n = v.rows
    for i, j in itertools.product(range(n), repeat=2):
        yield claim._replace(M=with_entry(m, i, j, m[i, j] + ONE))
    for j, k in itertools.permutations(range(n), 2):  # column j over column k: V singular
        yield claim._replace(V=with_columns(v, [j if c == k else c for c in range(n)]))
    for k, block in enumerate(blocks):  # the trace moves by the block's size
        yield claim._replace(blocks=(*blocks[:k], Block(block.eigenvalue + ONE, block.size),
                                     *blocks[k + 1:]))
    for j, k in itertools.combinations(range(len(blocks)), 2):
        if blocks[j] != blocks[k]:
            swapped = list(blocks)
            swapped[j], swapped[k] = blocks[k], blocks[j]
            yield claim._replace(blocks=tuple(swapped))
    for j, k in itertools.combinations(range(n), 2):
        # V*P with P swapping j and k satisfies A*V*P = V*P*M only if P*M*P = M.
        order = [k if c == j else j if c == k else c for c in range(n)]
        permuted = ExactMatrix([[m[r, c] for c in order] for r in order])
        if permuted != m:
            yield claim._replace(V=with_columns(v, order))


def test_lying_claims_of_every_kind_fail_some_check_without_raising():
    claims = lies = 0
    for structure in (s for n in range(1, 5) for s in exhaustive_structures(n)):
        matrix, _ = generate_case(structure, 1, 3)
        for truth in stage_results(matrix):
            assert check_decomposition(matrix, truth).passed
            claims += 1
            for claim in lying_claims(truth):
                assert not check_decomposition(matrix, claim).passed, claim
                lies += 1
    assert (claims, lies) == (96, 2715)
