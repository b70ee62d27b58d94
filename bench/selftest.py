"""Self-tests of the benchmark's oracle and corpus; they never import jordanform.

    python3 bench/selftest.py

Each planted case carries a decomposition the oracle must accept: A * S =
S * B with S the conjugator and B the planted core, which also serves as a
schur, blockdiag and blocktri stage.  Perturbing any part of it must make
the oracle refuse.
"""

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import corpus  # noqa: E402
import oracle  # noqa: E402
from oracle import OracleError, q  # noqa: E402


def _cells(matrix):
    return [[oracle.fmt(x) for x in row] for row in matrix]


def _planted(case):
    """The planted answer in the form the program prints it."""
    blocks = [(oracle.fmt(v), s) for v, s in oracle.jordan_blocks(case.structure)]
    return _cells(case.conjugator), _cells(case.core), blocks


def _stage_blocks(kind, case):
    """The block list a schur, blockdiag or blocktri stage prints."""
    spaces = [(oracle.fmt(v), sum(ls)) for v, ls in sorted(case.structure)]
    if kind == "schur":
        return [(value, 1) for value, size in spaces for _ in range(size)]
    return spaces


def _spectrum_entries(case):
    return [(oracle.fmt(v), sum(ls), len(ls), max(ls)) for v, ls in sorted(case.structure)]


class OracleTest(unittest.TestCase):
    def setUp(self):
        slots = corpus.JORDAN_ROUNDS[0][0][2]
        self.case = corpus.jordan_case("t", slots, random.Random(7), random.Random(8))

    def test_planted_decomposition_is_accepted(self):
        v, m, blocks = _planted(self.case)
        oracle.check_decomposition(self.case.a, v, m, blocks, self.case.structure)

    def test_perturbed_v_is_rejected(self):
        v, m, blocks = _planted(self.case)
        v[2][3] = oracle.fmt(oracle.add(oracle.parse(v[2][3]), q(1, 1)))
        with self.assertRaisesRegex(OracleError, r"A\*V != V\*M"):
            oracle.check_decomposition(self.case.a, v, m, blocks, self.case.structure)

    def test_singular_v_is_rejected(self):
        n = self.case.n
        v = [["0"] * n for _ in range(n)]  # A*0 == 0*M holds; only the rank check can fail
        _, m, blocks = _planted(self.case)
        with self.assertRaisesRegex(OracleError, "singular"):
            oracle.check_decomposition(self.case.a, v, m, blocks, self.case.structure)

    def test_wrong_block_list_is_rejected(self):
        v, m, blocks = _planted(self.case)
        for wrong in (blocks[::-1], blocks[:-1] + [(blocks[-1][0], blocks[-1][1] + 1)]):
            with self.assertRaisesRegex(OracleError, "blocks"):
                oracle.check_decomposition(self.case.a, v, m, wrong, self.case.structure)

    def test_planted_stages_are_accepted(self):
        # The planted Jordan matrix is also upper triangular, block diagonal
        # and blockwise triangular.
        v, m, _ = _planted(self.case)
        for kind in ("schur", "blockdiag", "blocktri"):
            oracle.check_stage(kind, self.case.a, v, m, _stage_blocks(kind, self.case),
                               self.case.structure)

    def test_perturbed_stage_v_is_rejected(self):
        v, m, _ = _planted(self.case)
        v[0][0] = oracle.fmt(oracle.add(oracle.parse(v[0][0]), q(0, 1)))
        for kind in ("schur", "blockdiag", "blocktri"):
            with self.assertRaisesRegex(OracleError, r"A\*V != V\*M"):
                oracle.check_stage(kind, self.case.a, v, m, _stage_blocks(kind, self.case),
                                   self.case.structure)

    def test_wrong_stage_blocks_are_rejected(self):
        v, m, _ = _planted(self.case)
        for kind in ("schur", "blockdiag", "blocktri"):
            blocks = _stage_blocks(kind, self.case)
            with self.assertRaisesRegex(OracleError, "blocks"):
                oracle.check_stage(kind, self.case.a, v, m, blocks[::-1], self.case.structure)

    def test_stage_of_the_wrong_shape_is_rejected(self):
        # V = S * R and M = R * B * R, R the reversal: a true similarity
        # whose M is lower triangular, with its blocks in reverse order.
        v = _cells([row[::-1] for row in self.case.conjugator])
        m = _cells([row[::-1] for row in self.case.core[::-1]])
        with self.assertRaisesRegex(OracleError, "upper triangular"):
            oracle.check_stage("schur", self.case.a, v, m,
                               _stage_blocks("schur", self.case), self.case.structure)
        for kind in ("blockdiag", "blocktri"):
            with self.assertRaisesRegex(OracleError, kind):
                oracle.check_stage(kind, self.case.a, v, m, _stage_blocks(kind, self.case),
                                   self.case.structure)

    def test_wrong_eigenvalue_is_rejected(self):
        case = dict(corpus.SPECTRUM_TEMPLATES)["pair-1e12"](random.Random(3))
        entries = _spectrum_entries(case)
        oracle.check_spectrum(entries, case.structure, case.quadratics)
        wrong = [(oracle.fmt(oracle.add(oracle.parse(entries[0][0]), q(1))),) + entries[0][1:]]
        with self.assertRaisesRegex(OracleError, "spectrum"):
            oracle.check_spectrum(wrong + entries[1:], case.structure, case.quadratics)
        with self.assertRaisesRegex(OracleError, "spectrum"):
            oracle.check_spectrum(entries[:-1], case.structure, case.quadratics)

    def test_root_off_its_quadratic_is_rejected(self):
        case = dict(corpus.SPECTRUM_TEMPLATES)["pair-1e12"](random.Random(3))
        a_part, b_part = case.quadratics[0]
        with self.assertRaises(OracleError):
            oracle.check_spectrum(_spectrum_entries(case), case.structure, [(a_part, b_part + 1)])

    def test_cubic_factor(self):
        case = dict(corpus.SPECTRUM_TEMPLATES)["cubic-1e13"](random.Random(5))
        oracle.check_cubic(f"z^3 - {case.cubic}", case.cubic)
        for wrong in (f"z^3 - {case.cubic + 1}", f"z^3 + {case.cubic}", "z^2 - 2"):
            with self.assertRaises(OracleError):
                oracle.check_cubic(wrong, case.cubic)

    def test_fraction_free_nonsingularity(self):
        self.assertTrue(oracle.is_nonsingular(oracle.identity(4)))
        # det [[1, i], [i, -1]] = -1 - i^2 = 0 and det [[1+i, 2], [1, 1-i]] = 2 - 2 = 0.
        self.assertFalse(oracle.is_nonsingular([[q(1), q(0, 1)], [q(0, 1), q(-1)]]))
        self.assertFalse(oracle.is_nonsingular([[q(1, 1), q(2)], [q(1), q(1, -1)]]))
        half = oracle.Fraction(1, 2)
        self.assertTrue(oracle.is_nonsingular([[q(half, 1), q(2)], [q(1), q(1, -1)]]))

    def test_scalar_text_round_trips(self):
        for text in ("0", "-3", "1/2", "1i", "-1i", "1/2-3/4i", "-7+2/3i", "5/3i"):
            self.assertEqual(oracle.fmt(oracle.parse(text)), text)
        for bad in ("i", "1+i", "1.5", "1/0", " 1"):
            with self.assertRaises(OracleError):
                oracle.parse(bad)


class CorpusTest(unittest.TestCase):
    def test_every_case_plants_its_answer(self):
        for build in corpus.WORKLOADS.values():
            for case in build(1, 1):
                s, b = case.conjugator, case.core
                self.assertEqual(oracle.matmul(case.a, s), oracle.matmul(s, b), case.name)
                self.assertTrue(oracle.is_nonsingular(s), case.name)
                self.assertEqual(case.n, sum(sum(ls) for _, ls in case.structure)
                                 + (3 if case.cubic else 0), case.name)

    def test_conjugator_inverse_is_exact(self):
        rng = random.Random(11)
        for n in (1, 2, 5, 16):
            s, s_inv = corpus.conjugator(n, rng)
            self.assertEqual(oracle.matmul(s, s_inv), oracle.identity(n))

    def test_same_seed_same_inputs(self):
        for name, build in corpus.WORKLOADS.items():
            first = [c.cells() for c in build(3, 1)]
            self.assertEqual(first, [c.cells() for c in build(3, 1)], name)
            self.assertNotEqual(first, [c.cells() for c in build(4, 1)], name)

    def test_no_conjugate_pair_in_a_jordan_spectrum(self):
        for build in (corpus.jordan_lib, corpus.verify_cli):
            for case in build(1, 20):  # the values vary by round, not by seed
                values = {v for v, _ in case.structure}
                for re_part, im_part in values:
                    if im_part:
                        self.assertNotIn((re_part, -im_part), values, case.name)

    def test_cubic_constants_are_eisenstein_primes(self):
        for case in corpus.spectrum_roots(2, 1):
            if case.cubic is not None:
                self.assertTrue(corpus.is_prime(case.cubic))


if __name__ == "__main__":
    unittest.main()
