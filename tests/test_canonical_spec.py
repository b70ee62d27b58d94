"""jordan_decomposition against the executable specification of its bytes.

``canonical_spec`` builds V, J and the blocks from the definitions alone,
with no jordanform code, so these inputs pin the canonical output where no
golden holds it: every exhaustive structure with n <= 5 at seeds 1 and 2
(bound 2), and four larger structures with Gaussian and fractional
eigenvalues at seeds 3 and 4 (bound 3), 110 in all.
"""

import pytest

import canonical_spec
from jordanform import (
    exhaustive_structures, format_scalar, generate_case, jordan_decomposition, parse_structure
)

LARGER = ("1/2:3,1;1i:2,2", "-1:2,2,1;1/3-1/2i:3,1", "0:4,2;1+1i:3;-2/3:2,1",
          "0:3,3,2;1i:2,1;-1/2+2i:2,1")

CASES = ([(structure, seed, 2) for n in range(1, 6) for structure in exhaustive_structures(n)
          for seed in (1, 2)]
         + [(parse_structure(text), seed, 3) for text in LARGER for seed in (3, 4)])


@pytest.mark.parametrize("structure, seed, bound", CASES,
                         ids=[f"{s.n}-{i}-seed{seed}" for i, (s, seed, _) in enumerate(CASES)])
def test_jordan_decomposition_is_the_specified_one(structure, seed, bound):
    a, _ = generate_case(structure, seed, bound)
    spectrum = [(format_scalar(value), sum(lengths)) for value, lengths in structure.entries]
    d = jordan_decomposition(a)
    got = (d.V.entries_str(), d.M.entries_str(),
           [(format_scalar(b.eigenvalue), b.size) for b in d.blocks])
    assert got == canonical_spec.jordan(a.entries_str(), spectrum)
