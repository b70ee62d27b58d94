"""The decomposition pipeline: triangularization, generalized-eigenspace
block diagonalization, blockwise triangularization, and the Jordan form, laid
out from the eliminations of ``matrices`` on the stage ladders of ``spectral``.

Every stage returns a Decomposition (V, M) with A * V = V * M exactly.  All
choices that the underlying theorems leave open (eigenvector picks, deflation
indices, chain seeds, block layout) are pinned to canonical rules, so
identical inputs always produce identical output matrices.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DimensionMismatch, InternalInvariantViolation, InvalidStructure
from .matrices import ExactMatrix, kernel_chains, shift_by, triangularize
from .scalars import GaussianRational, format_scalar, is_int
from .spectral import StageLadder, spectrum_with_ladders


class Block(NamedTuple):
    eigenvalue: GaussianRational
    size: int


class JordanChain(NamedTuple):
    """Vectors v_1, ..., v_len with (A - lambda*I) v_k = v_{k-1} and v_1 an
    eigenvector; v_k has stage exactly k."""

    eigenvalue: GaussianRational
    vectors: Tuple[ExactMatrix, ...]

    @property
    def length(self) -> int:
        return len(self.vectors)


class Decomposition(NamedTuple):
    """A similarity A = V * M * V^-1 with block metadata in layout order."""

    kind: str  # "schur" | "blockdiag" | "blocktri" | "jordan"
    V: ExactMatrix
    M: ExactMatrix
    blocks: Tuple[Block, ...]


Part = Tuple[Block, ExactMatrix, ExactMatrix]  # a block with its V part and M part


# The stages proper take the ladders spectrum_with_ladders returns, so a
# caller that runs several stages on one matrix (cli verify) analyses it once;
# STAGES lists them by kind.

def _schur(matrix: ExactMatrix, ladders: Sequence[StageLadder]) -> Decomposition:
    eigenvalues = [ladder.eigenvalue for ladder in ladders for _ in range(ladder.top.dimension)]
    v, u = triangularize(matrix, eigenvalues)
    return Decomposition("schur", v, u, tuple(Block(lam, 1) for lam in eigenvalues))


def trigonalize(
    matrix: ExactMatrix,
    eigenvalues: Optional[Sequence[GaussianRational]] = None,
) -> Decomposition:
    """Similarity to an upper triangular M with the sorted spectrum down its diagonal."""
    return _schur(matrix, spectrum_with_ladders(matrix, eigenvalues)[1])


def _eigenspace_blocks(matrix: ExactMatrix, ladders: Sequence[StageLadder]) -> Iterator[Part]:
    # (block_j, V_j, M_j) per ladder, V_j its canonical top-stage basis.  Each
    # vector of V_j is 1 at its free column and 0 at the others, and span(V_j)
    # is A-invariant: M_j is the rows of A*V_j there.
    for ladder in ladders:
        v = ExactMatrix.hstack(ladder.top.vectors)
        rows = ExactMatrix([matrix.row(f) for f in ladder.top.free_columns])
        yield Block(ladder.eigenvalue, v.cols), v, rows * v


def _assemble(kind: str, parts: Iterable[Part]) -> Decomposition:
    """One block per part: V is the V parts side by side, M the M parts down its diagonal.
    Only blockdiag and blocktri, whose M_j is computed from their own V_j, need it."""
    blocks, v_parts, m_parts = zip(*parts)
    return Decomposition(kind, ExactMatrix.hstack(v_parts), ExactMatrix.block_diagonal(m_parts),
                         blocks)


def _blockdiag(matrix: ExactMatrix, ladders: Sequence[StageLadder]) -> Decomposition:
    return _assemble("blockdiag", _eigenspace_blocks(matrix, ladders))


def block_diagonalize(
    matrix: ExactMatrix,
    eigenvalues: Optional[Sequence[GaussianRational]] = None,
) -> Decomposition:
    """Similarity to a block diagonal matrix via generalized eigenspaces.

    V concatenates the canonical top-stage ladder bases in canonical
    eigenvalue order; block j has the size of the j-th multiplicity.
    """
    return _blockdiag(matrix, spectrum_with_ladders(matrix, eigenvalues)[1])


def _blocktri(matrix: ExactMatrix, ladders: Sequence[StageLadder]) -> Decomposition:
    parts = []
    for block, v_j, m_j in _eigenspace_blocks(matrix, ladders):
        w_j, u_j = triangularize(m_j, [block.eigenvalue] * block.size)
        parts.append((block, v_j * w_j, u_j))
    return _assemble("blocktri", parts)


def blockwise_trigonalize(
    matrix: ExactMatrix,
    eigenvalues: Optional[Sequence[GaussianRational]] = None,
) -> Decomposition:
    """Block diagonalization with each diagonal block triangularized in place.

    Each block M_j of block_diagonalize has one eigenvalue and is triangularized
    as in trigonalize, M_j W_j = W_j U_j: V = [V_1 W_1 ... V_r W_r], M = diag(U_j).
    """
    return _blocktri(matrix, spectrum_with_ladders(matrix, eigenvalues)[1])


def jordan_chains(matrix: ExactMatrix, ladder: StageLadder) -> List[JordanChain]:
    """All Jordan chains for one eigenvalue, in decreasing length, seeded
    from its stage ladder by ``matrices.kernel_chains``.  A ladder with no
    stage is InvalidStructure, and one whose stages are not in the matrix's
    dimension DimensionMismatch."""
    if not ladder.stage_bases:
        raise InvalidStructure("a stage ladder needs at least one stage")
    if any(basis.ambient_dim != matrix.rows for basis in ladder.stage_bases):
        raise DimensionMismatch(f"stage ladder bases must be in dimension {matrix.rows}")
    chains = [
        JordanChain(ladder.eigenvalue, tuple(vectors))
        for vectors in kernel_chains(shift_by(matrix, ladder.eigenvalue), ladder.stage_bases)
    ]
    dims = ladder.dims()
    if len(chains) != dims[0] or sum(c.length for c in chains) != dims[-1]:
        raise InternalInvariantViolation(
            f"chain counts for {format_scalar(ladder.eigenvalue)} disagree with "
            f"the ladder dimensions {dims}"
        )
    return chains


def jordan_matrix(blocks: Sequence[Block]) -> ExactMatrix:
    """The Jordan matrix with the given blocks, in the given order: each a
    ``Block`` of int size at least 1, else InvalidStructure."""
    if not all(isinstance(block, Block) and is_int(block.size) and block.size >= 1
               for block in blocks):
        raise InvalidStructure("Jordan blocks must be Blocks of integer size, each at least 1")
    return ExactMatrix.block_diagonal([
        ExactMatrix([[lam if j == i else int(j == i + 1) for j in range(s)] for i in range(s)])
        for lam, s in blocks])


def _jordan(matrix: ExactMatrix, ladders: Sequence[StageLadder]) -> Decomposition:
    chains = [chain for ladder in ladders for chain in jordan_chains(matrix, ladder)]
    blocks = tuple(Block(chain.eigenvalue, chain.length) for chain in chains)
    v = ExactMatrix.hstack([x for chain in chains for x in chain.vectors])
    return Decomposition("jordan", v, jordan_matrix(blocks), blocks)


def jordan_decomposition(
    matrix: ExactMatrix,
    eigenvalues: Optional[Sequence[GaussianRational]] = None,
) -> Decomposition:
    """The canonical Jordan decomposition A = V * J * V^-1.

    V concatenates, per eigenvalue in canonical order, the Jordan chains in
    decreasing length, each contributing its vectors in ascending stage
    order; J carries one Jordan block per chain.
    """
    return _jordan(matrix, spectrum_with_ladders(matrix, eigenvalues)[1])


STAGES: Dict[str, Callable[[ExactMatrix, Sequence[StageLadder]], Decomposition]] = {
    "schur": _schur,
    "blockdiag": _blockdiag,
    "blocktri": _blocktri,
    "jordan": _jordan,
}
