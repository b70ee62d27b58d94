"""Structural checks and the round-trip test-case generator.

check_decomposition re-derives the structural claims a decomposition makes
(similarity, invertibility, shape, trace) from scratch.  A Jordan claim's
block counts follow from similarity, invertibility and shape, so they are
computed only when one of those fails.  generate_case inverts the pipeline:
it conjugates a known Jordan matrix with an exactly invertible transform,
giving an independent oracle for what the decomposition must recover.

The shape is read off the declared blocks, whose positive sizes must add up
to n; that is tested on the sizes alone, before anything of size n is
built.  A jordan M must be their Jordan matrix.  A schur or blocktri M is
upper triangular, its diagonal the declared eigenvalues, each repeated by
its block's size.  A blockdiag or blocktri M must equal the block-diagonal
matrix of its own s_j x s_j diagonal blocks M_j, and
(M_j - lambda_j I)^(s_j) = 0 for each blockdiag block M_j.
"""

from __future__ import annotations

import re
from itertools import accumulate, combinations_with_replacement
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .decomp import Block, Decomposition, jordan_matrix
from .errors import InvalidStructure, ParseError
from .matrices import ExactMatrix, kernel_ladder, rank, shift_by
from .scalars import (
    DIGITS,
    ZERO,
    GaussianRational,
    _coerce,
    format_scalar,
    is_int,
    parse_scalar,
)

# Order decides which eigenvalue each partition group receives during
# enumeration; the imaginary unit exercises the Gaussian arithmetic paths.
PALETTE: Tuple[GaussianRational, ...] = (
    GaussianRational(0),
    GaussianRational(1),
    GaussianRational(2),
    GaussianRational(-1),
    GaussianRational(0, 1),
)

# The largest total size generate_case builds: its cost grows about as n^2.6,
# and n = 400 already takes seconds.
MAX_GENERATED_N = 1000


class _Structure(NamedTuple):
    entries: Tuple[Tuple[GaussianRational, Tuple[int, ...]], ...]


class JordanStructure(_Structure):
    """Target block structure: per eigenvalue, a multiset of chain lengths.

    Stored canonically (eigenvalues ascending, lengths descending), so two
    descriptions of the same structure compare equal.  An eigenvalue is a
    scalar, an int or a Fraction; anything else is a TypeError.
    """

    __slots__ = ()

    def __new__(cls, entries: Tuple[Tuple[GaussianRational, Tuple[int, ...]], ...]):
        seen = set()
        canonical = []
        if not entries:
            raise InvalidStructure("a structure needs at least one eigenvalue")
        for eigenvalue, lengths in entries:
            eigenvalue = _coerce(eigenvalue, "structure eigenvalue")
            if eigenvalue in seen:
                raise InvalidStructure(
                    f"duplicate eigenvalue {format_scalar(eigenvalue)}"
                )
            seen.add(eigenvalue)
            if not lengths:
                raise InvalidStructure(
                    f"eigenvalue {format_scalar(eigenvalue)} has no chain lengths"
                )
            if not all(is_int(size) and size >= 1 for size in lengths):
                raise InvalidStructure("chain lengths must be integers >= 1")
            canonical.append((eigenvalue, tuple(sorted(lengths, reverse=True))))
        canonical.sort(key=lambda item: item[0])
        return super().__new__(cls, tuple(canonical))

    @property
    def n(self) -> int:
        return sum(sum(lengths) for _, lengths in self.entries)

    def blocks(self) -> Tuple[Block, ...]:
        return tuple(
            Block(eigenvalue, size)
            for eigenvalue, lengths in self.entries
            for size in lengths
        )


def parse_structure(text: str) -> JordanStructure:
    """Parse ``lambda:len(,len)*(;lambda:len(,len)*)*``, e.g. ``0:2,1;1:1``."""
    entries = []
    for part in text.split(";"):
        part = part.strip()
        if ":" not in part:
            raise ParseError(f"malformed structure component {part!r}")
        scalar_text, lengths_text = part.split(":", 1)
        eigenvalue = parse_scalar(scalar_text.strip())
        tokens = [tok.strip() for tok in lengths_text.split(",")]
        try:
            # int() alone would also take "+2", "1_0" and digits of any script.
            if not all(re.fullmatch(DIGITS, tok) for tok in tokens):
                raise ValueError("chain lengths are ASCII digits")
            lengths = tuple(map(int, tokens))
        except ValueError as exc:  # not digits, or past the digit limit
            raise ParseError(f"malformed chain lengths in {part!r}") from exc
        entries.append((eigenvalue, lengths))
    return JordanStructure(tuple(entries))


def elementary_conjugator(
    n: int, seed: int, entry_bound: int = 3
) -> Tuple[ExactMatrix, ExactMatrix]:
    """A seeded integer matrix S with its exact inverse.

    S is a product of elementary row operations, so invertibility is
    structural: each row operation on S is undone on S^-1 by the inverse
    column operation, no elimination involved.  n must be an integer >= 0,
    seed an integer and entry_bound an integer >= 1, else InvalidStructure.
    """
    for name, value in (("n", n), ("seed", seed), ("entry_bound", entry_bound)):
        if not is_int(value):
            raise InvalidStructure(f"{name} must be an integer, got {value!r}")
    if n < 0:
        raise InvalidStructure(f"n must be >= 0, got {n}")
    if entry_bound < 1:
        raise InvalidStructure("entry_bound must be >= 1")
    import random  # here, its one user, so that verify and --check leave it unloaded
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    columns = [row[:] for row in rows]  # of S^-1
    for _ in range(2 * n if n > 1 else 0):
        target = rng.randrange(n)
        source = rng.randrange(n - 1)
        if source >= target:
            source += 1
        if rng.randrange(4) == 0:
            rows[target], rows[source] = rows[source], rows[target]
            columns[target], columns[source] = columns[source], columns[target]
        else:
            factor = rng.randrange(1, entry_bound + 1) * (-1 if rng.randrange(2) else 1)
            rows[target] = [x + factor * y for x, y in zip(rows[target], rows[source])]
            columns[source] = [x - factor * y for x, y in zip(columns[source], columns[target])]
    return ExactMatrix(rows), ExactMatrix([list(row) for row in zip(*columns)])


def generate_case(
    structure: JordanStructure, seed: int, entry_bound: int
) -> Tuple[ExactMatrix, ExactMatrix]:
    """Build (A, J_expected) with A = S * J * S^-1, deterministically.

    The returned pair is the round-trip oracle: running the Jordan pipeline
    on A must reproduce J_expected byte for byte.  A total size n above
    MAX_GENERATED_N, or a seed or entry_bound that elementary_conjugator
    refuses, is an InvalidStructure, raised before anything is built.
    """
    if structure.n > MAX_GENERATED_N:
        raise InvalidStructure(f"total size {structure.n} is above the limit {MAX_GENERATED_N}")
    s, s_inv = elementary_conjugator(structure.n, seed, entry_bound)
    expected = jordan_matrix(structure.blocks())
    return s * expected * s_inv, expected


def exhaustive_structures(n: int) -> List[JordanStructure]:
    """Every block structure of total size n, over the fixed palette.

    Structures are enumerated as multisets of partitions (so structures
    equal up to eigenvalue renaming appear once) and the palette values are
    assigned to the groups in canonical group order.
    """
    if not is_int(n) or not 1 <= n <= 6:
        raise InvalidStructure("exhaustive_structures supports integers 1 <= n <= 6")
    # Every partition of a total up to n (a descending tuple), largest total
    # first, each total's partitions in descending lex order.
    parts = range(n, 0, -1)
    pool = sorted(
        (p for k in parts for p in combinations_with_replacement(parts, k) if sum(p) <= n),
        key=lambda p: (sum(p), p),
        reverse=True,
    )
    return [
        JordanStructure(tuple(zip(PALETTE, groups)))
        for count in range(1, min(n, len(PALETTE)) + 1)
        for groups in combinations_with_replacement(
            [p for p in pool if sum(p) <= n - count + 1], count
        )
        if sum(map(sum, groups)) == n
    ]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class CheckReport(NamedTuple):
    results: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def failures(self) -> List[CheckResult]:
        return [result for result in self.results if not result.passed]


# What the shape check reports when it passes, by kind.
_SHAPES = {
    "schur": "upper triangular",
    "blockdiag": "zero outside blocks",
    "blocktri": "triangular blocks with constant diagonals",
    "jordan": "Jordan matrix matching the declared blocks",
}


def _shape_ok(kind, m: ExactMatrix, blocks: Sequence[Block]) -> Tuple[bool, str]:
    if not isinstance(kind, str) or kind not in _SHAPES:
        return False, f"unknown kind {kind!r}"
    sizes = [block.size for block in blocks]
    if any(size < 1 for size in sizes) or sum(sizes) != m.rows:
        return False, "declared block sizes do not partition M"
    if kind == "jordan" and m != jordan_matrix(blocks):
        return False, "M is not the Jordan matrix of the declared blocks"
    if kind in ("schur", "blocktri"):
        if not m.is_upper_triangular():
            return False, "nonzero entry below the diagonal"
        diagonal = [block.eigenvalue for block in blocks for _ in range(block.size)]
        if [m[i, i] for i in range(m.rows)] != diagonal:
            return False, "diagonal entry is not its block's eigenvalue"
    if kind in ("blockdiag", "blocktri"):
        # M's diagonal blocks: the s x s block of each size s ends at the running sum.
        parts = [m.submatrix(end - s, end, end - s, end)
                 for s, end in zip(sizes, accumulate(sizes))]
        if m != ExactMatrix.block_diagonal(parts):
            return False, "nonzero entry outside the declared blocks"
    if kind == "blockdiag":
        for block, part in zip(blocks, parts):
            power = shift_by(part, block.eigenvalue)
            for _ in range((block.size - 1).bit_length()):  # to a power >= s_j
                power = power * power
            if not power.is_zero():
                return False, "a block less its eigenvalue is not nilpotent"
    return True, _SHAPES[kind]


_CHAIN_COUNTS_MATCH = "chain counts match the kernel dimensions"


def _chain_counts_ok(matrix: ExactMatrix, blocks: Sequence[Block]) -> Tuple[bool, str]:
    per_eigenvalue: Dict[GaussianRational, List[int]] = {}
    for block in blocks:
        per_eigenvalue.setdefault(block.eigenvalue, []).append(block.size)
    for eigenvalue, sizes in per_eigenvalue.items():
        dims = [basis.dimension for basis in kernel_ladder(shift_by(matrix, eigenvalue))]
        if len(sizes) != dims[0] or sum(sizes) != dims[-1]:
            return False, (
                f"{format_scalar(eigenvalue)}: {len(sizes)} blocks / "
                f"{sum(sizes)} total vs geometric {dims[0]} / "
                f"multiplicity {dims[-1]}"
            )
    return True, _CHAIN_COUNTS_MATCH


def _check_names(kind) -> List[str]:
    """The checks a claim of this kind gets, in report order."""
    names = ["similarity", "invertible", "multiplicity-sum", "shape", "trace"]
    return names + ["chain-counts"] * (kind == "jordan")


def _report(names: List[str], verdicts: Dict[str, Tuple[bool, str]], unread: str) -> CheckReport:
    """Each check in names with its verdict; a check with none fails with
    unread, which says what part of the claim it could not read."""
    return CheckReport(
        tuple(CheckResult(name, *verdicts.get(name, (False, unread))) for name in names)
    )


def check_decomposition(
    matrix: ExactMatrix, decomposition: Decomposition
) -> CheckReport:
    """Re-verify every structural claim of a decomposition.

    Failures never raise; each check contributes exactly one entry to the
    report, and a kind that is no stage, an A, V or M that is not an
    ExactMatrix, or blocks that are not (scalar, int size) pairs, a bool being
    no size, fail every check that reads them.  A claim that is not a
    (kind, V, M, blocks) tuple fails every check of the kind it names first.
    A Jordan claim that passes similarity, invertible and shape passes
    chain-counts with nothing computed: then A is similar to
    M = jordan_matrix(blocks), so dim ker (A - lambda*I)^k equals
    dim ker (M - lambda*I)^k for every lambda and k, which the blocks give
    (Horn & Johnson, Matrix Analysis, 3.1).
    """
    fields = tuple(decomposition) if isinstance(decomposition, (tuple, list)) else ()
    names = _check_names(fields[0] if fields else None)
    if len(fields) != 4:
        return _report(names, {}, "claim is not a (kind, V, M, blocks) tuple")
    kind, v, m, blocks = fields
    verdicts: Dict[str, Tuple[bool, str]] = {}
    strangers = [k for k, x in zip("AVM", (matrix, v, m)) if not isinstance(x, ExactMatrix)]
    named = ", ".join(strangers[:-1]) + " and " * (len(strangers) > 1) + "".join(strangers[-1:])
    unreadable = strangers and f"{named} not an ExactMatrix"
    n = None if "A" in strangers else matrix.rows
    square = n is not None and matrix.is_square()
    not_square = "A not an ExactMatrix" if n is None else "A is not square"
    shapes_match = not strangers and square and all(x.rows == x.cols == n for x in (v, m))

    if shapes_match:
        similar = matrix * v == v * m
        verdicts["similarity"] = similar, "A*V == V*M" if similar else "A*V != V*M"
    else:
        verdicts["similarity"] = False, unreadable or f"A, V and M are not all {n} x {n}"

    v_rank = rank(v) if isinstance(v, ExactMatrix) and v.is_square() else None
    if not isinstance(v, ExactMatrix):
        detail = "V not invertible: not an ExactMatrix"
    elif v_rank is None:
        detail = "V not invertible: inverse of a non-square matrix"
    elif v_rank < v.rows:
        detail = f"V not invertible: matrix of rank {v_rank} < {v.rows}"
    else:
        detail = "V has an exact inverse"
    verdicts["invertible"] = v_rank is not None and v_rank == v.rows, detail

    if not isinstance(blocks, (tuple, list)) or not all(
        isinstance(b, Block) and _coerce(b.eigenvalue) is not None and is_int(b.size)
        for b in blocks
    ):
        return _report(names, verdicts, "declared blocks are not (scalar, int size) pairs")

    total = sum(block.size for block in blocks)
    detail = f"block sizes sum to {total} of {n}" if square else not_square
    verdicts["multiplicity-sum"] = square and total == n, detail

    verdicts["shape"] = (
        _shape_ok(kind, m, blocks) if shapes_match else (False, unreadable or "wrong shape")
    )

    weighted = sum((block.eigenvalue * block.size for block in blocks), ZERO)
    trace_ok = square and matrix.trace() == weighted
    verdicts["trace"] = trace_ok, (
        "trace(A) equals the multiplicity-weighted eigenvalue sum" if trace_ok
        else "trace identity failed"
    )

    if "chain-counts" in names:
        proven = all(verdicts[name][0] for name in ("similarity", "invertible", "shape"))
        verdicts["chain-counts"] = (
            (True, _CHAIN_COUNTS_MATCH) if proven
            else _chain_counts_ok(matrix, blocks) if square else (False, not_square)
        )

    return _report(names, verdicts, "")
