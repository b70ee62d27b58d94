"""Seeded corpora for the three workloads, built without jordanform.

Every case plants its answer.  A = S * B * S^-1 where B is a Jordan matrix
(or a real rotation block, or a companion matrix) and S is an integer
unimodular matrix with an exact integer inverse.  Nothing here calls the
package, so a change to ``jordanform.verify.generate_case`` cannot change
the inputs.

The seed picks S; the templates fix sizes, block structures and the
magnitude of every constant term.  Which palette value fills each
eigenvalue slot of jordan-lib and verify-cli depends on the round and the
template, not on the seed: the values move a case's cost by up to a
quarter (at n = 12 a chain of 5 at -1 costs more than one at -2), so
drawing them per seed would move a run's median case from seed to seed.
Two seeds thus give the same spectra and inputs that differ in S, whose
shape keeps entry sizes, and so cost, nearly the same.

    python3 bench/corpus.py --workload jordan-lib --seed 1
prints the first two rounds, one line per case: round, size, structure,
and the largest entry bit length of the input.
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import oracle

Scalar = oracle.Scalar
Matrix = oracle.Matrix

REAL_PALETTE = (0, 1, 2, -1, 3, -2)
GAUSS_PALETTE = ((0, 1), (1, 1), (1, -1), (0, -1), (2, 1), (-1, 1))


@dataclass
class Case:
    """One input with the facts it was built from."""

    name: str
    a: Matrix
    structure: oracle.Structure  # eigenvalues with chain lengths, as planted
    conjugator: Matrix
    core: Matrix  # B in A = S * B * S^-1
    quadratics: List[Tuple[int, int]] = field(default_factory=list)
    cubic: Optional[int] = None  # c when the spectrum must stop at z^3 - c

    @property
    def n(self) -> int:
        return len(self.a)

    def cells(self) -> List[List[str]]:
        return [[oracle.fmt(x) for x in row] for row in self.a]

    def describe(self) -> str:
        parts = [
            f"{oracle.fmt(value)}:{','.join(map(str, lengths))}"
            for value, lengths in self.structure
        ]
        if self.cubic is not None:
            parts.append(oracle.cubic_text(self.cubic))
        return f"{self.name:<18} n={self.n:<2} {';'.join(parts)}"


# --- the conjugator -------------------------------------------------------------

def _permutation(n: int, rng: random.Random) -> List[List[int]]:
    order = list(range(n))
    rng.shuffle(order)
    return [[int(order[i] == j) for j in range(n)] for i in range(n)]


def _unit_lower_inverse(lower: List[List[int]]) -> List[List[int]]:
    n = len(lower)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            inv[i][j] = -sum(lower[i][k] * inv[k][j] for k in range(j, i))
    return inv


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _int_matmul(a, b):
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def conjugator(n: int, rng: random.Random) -> Tuple[Matrix, Matrix]:
    """An integer unimodular S = P*L*U*Q and its exact inverse.

    P and Q are permutations; L (U) is unit lower (upper) bidiagonal with
    off-diagonal entries +-1.  The inverse Q^T * U^-1 * L^-1 * P^T comes
    from forward substitution on unit triangular integer matrices, with no
    division.  The shape keeps entry sizes, and so elimination cost,
    nearly the same for every seed; the sign patterns and permutations
    differ.
    """
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    upper_t = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        lower[i][i - 1] = rng.choice((-1, 1))
        upper_t[i][i - 1] = rng.choice((-1, 1))
    p, qm = _permutation(n, rng), _permutation(n, rng)
    s = _int_matmul(_int_matmul(_int_matmul(p, lower), _transpose(upper_t)), qm)
    s_inv = _int_matmul(
        _int_matmul(
            _int_matmul(_transpose(qm), _transpose(_unit_lower_inverse(upper_t))),
            _unit_lower_inverse(lower),
        ),
        _transpose(p),
    )
    lift = lambda rows: [[oracle.q(x) for x in row] for row in rows]
    return lift(s), lift(s_inv)


def _block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    n = sum(len(b) for b in blocks)
    out = [[oracle.ZERO] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[offset + i][offset:offset + len(row)] = row
        offset += len(block)
    return out


def _case(name, rng, core, structure, **extra) -> Case:
    s, s_inv = conjugator(len(core), rng)
    a = oracle.matmul(oracle.matmul(s, core), s_inv)
    return Case(name, a, structure, s, core, **extra)


# --- primes, for constant terms with few divisors -------------------------------

def is_prime(value: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if value < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if value % p == 0:
            return value == p
    d, r = value - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in small:
        x = pow(base, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(r - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def prime_near(target: int, rng: random.Random) -> int:
    """The first prime at or above a seeded point within 1% above target."""
    value = target + rng.randrange(max(1, target // 100))
    while not is_prime(value):
        value += 1
    return value


def gaussian_prime_near(norm_target: int, rng: random.Random) -> Tuple[int, int]:
    """p + qi with p > q > 0 and prime norm p^2 + q^2 just above target."""
    root = math.isqrt(norm_target)
    q = rng.randrange(root // 4, root // 2)
    p = math.isqrt(norm_target - q * q)
    while not is_prime(p * p + q * q):
        p += 1
    return (p, q)


# --- jordan-lib ---------------------------------------------------------------

# (size, label, slots); a slot is (palette kind, chain lengths).  "long"
# mixes long chains, "short" has many short chains, "single" gives one
# eigenvalue a single long chain.  A single chain at n = 16 costs 8 s, more
# than a round should, so it stops at n = 12.  Two kinds of round alternate,
# each with one case at n = 8 and one at n = 16 around three at n = 12 that
# cost about the same (1.2 to 1.7 s), so the median case of a run falls in
# the middle of a group of like cases.
_N12_LONG = (12, "long", (("r", (5, 3)), ("g", (3, 1))))
_N12_SINGLE = (12, "single", (("r", (9,)), ("g", (2,)), ("r", (1,))))
JORDAN_ROUNDS = (
    ((8, "long", (("r", (4, 2)), ("g", (2,)))),
     _N12_LONG, _N12_LONG, _N12_SINGLE,
     (16, "long", (("r", (6, 4)), ("g", (4, 2))))),
    ((8, "single", (("g", (6,)), ("r", (1,)), ("r", (1,)))),
     _N12_LONG, _N12_LONG, _N12_SINGLE,
     (16, "short", (("r", (2, 2, 1, 1)), ("g", (2, 1, 1)), ("r", (1, 1, 1)), ("g", (2, 1))))),
)


def _palette_values(slots, rng) -> List[Scalar]:
    """Distinct palette values per slot kind, never a conjugate pair: a
    spectrum closed under conjugation gives a real minimal polynomial with
    non-real roots the root finder cannot reach past degree 2."""
    reals = list(REAL_PALETTE)
    gauss = list(GAUSS_PALETTE)
    rng.shuffle(reals)
    rng.shuffle(gauss)
    values = []
    for kind, _ in slots:
        if kind == "r":
            values.append(oracle.q(reals.pop()))
            continue
        re_part, im_part = gauss.pop()
        if (re_part, -im_part) in gauss:
            gauss.remove((re_part, -im_part))
        values.append(oracle.q(re_part, im_part))
    return values


def jordan_case(name: str, slots, values: random.Random, rng: random.Random) -> Case:
    """The template's slots filled from the palettes by ``values``,
    conjugated by an S drawn from ``rng``."""
    values = _palette_values(slots, values)
    structure = sorted(
        (value, sorted(lengths, reverse=True)) for value, (_, lengths) in zip(values, slots)
    )
    core = oracle.jordan_matrix(oracle.jordan_blocks(structure))
    return _case(name, rng, core, structure)


def jordan_lib(seed: int, rounds: int) -> List[Case]:
    cases = []
    for r in range(rounds):
        for index, (n, label, slots) in enumerate(JORDAN_ROUNDS[r % 2]):
            values = random.Random(f"jordan-lib:{r}:{index}")
            rng = random.Random(f"jordan-lib:{seed}:{r}:{index}")
            cases.append(jordan_case(f"n{n}-{label}", slots, values, rng))
    return cases


# --- verify-cli ---------------------------------------------------------------

# Two cases below the three at n = 6 and two above, so that the median
# case falls in the middle of the n = 6 group.
VERIFY_TEMPLATES = (
    (4, "long", (("r", (3,)), ("g", (1,)))),
    (5, "short", (("g", (1, 1)), ("r", (2,)), ("r", (1,)))),
    (6, "long", (("g", (4,)), ("r", (2,)))),
    (6, "long", (("g", (4,)), ("r", (2,)))),
    (6, "short", (("r", (2, 1)), ("g", (1, 1)), ("r", (1,)))),
    (7, "long", (("r", (4, 2)), ("g", (1,)))),
    (8, "short", (("r", (2, 1, 1)), ("g", (1, 1)), ("r", (2,)))),
)


def verify_cli(seed: int, rounds: int) -> List[Case]:
    cases = []
    for r in range(rounds):
        for index, (n, label, slots) in enumerate(VERIFY_TEMPLATES):
            values = random.Random(f"verify-cli:{r}:{index}")
            rng = random.Random(f"verify-cli:{seed}:{r}:{index}")
            cases.append(jordan_case(f"n{n}-{label}", slots, values, rng))
    return cases


# --- spectrum-roots -----------------------------------------------------------

def _diag(values: Sequence[Scalar]) -> Matrix:
    return oracle.jordan_matrix([(v, 1) for v in values])


def real_big(name: str, target: int, small: Sequence[Tuple[int, Sequence[int]]], rng) -> Case:
    """A real spectrum: one large prime P plus small eigenvalues with chains.

    The minimal polynomial's constant term is P times the product of the
    small eigenvalues raised to their longest chain, kept within 1% of the
    target (P is the first prime past a seeded point).
    """
    scale = 1
    for value, lengths in small:
        scale *= abs(value) ** max(lengths)
    big = prime_near(target // scale, rng)
    structure = sorted([(oracle.q(big), [1])] + [(oracle.q(v), sorted(ls, reverse=True)) for v, ls in small])
    core = oracle.jordan_matrix(oracle.jordan_blocks(structure))
    return _case(name, rng, core, structure)


def gaussian_big(name: str, norm_target: int, small: Sequence[Tuple[Tuple[int, int], int]], rng) -> Case:
    """A non-real spectrum: a Gaussian prime p+qi of prime norm near the
    target divided by the small eigenvalues' norms, plus small Gaussian or
    real eigenvalues (each a single simple block of the given length)."""
    scale = 1
    for (re_part, im_part), length in small:
        scale *= (re_part * re_part + im_part * im_part) ** length
    p, qq = gaussian_prime_near(norm_target // scale, rng)
    if rng.randrange(2):
        qq = -qq
    structure = sorted([(oracle.q(p, qq), [1])] + [(oracle.q(*v), [length]) for v, length in small])
    core = oracle.jordan_matrix(oracle.jordan_blocks(structure))
    return _case(name, rng, core, structure)


def conjugate_pair(name: str, pair_norm: int, small: Sequence[int], rng) -> Case:
    """A real matrix with eigenvalues a +- bi (a^2 + b^2 a prime near
    pair_norm) and simple small real eigenvalues; the roots a +- bi are
    closed by the quadratic formula."""
    a_part, b_part = gaussian_prime_near(pair_norm, rng)
    if rng.randrange(2):
        a_part = -a_part
    rotation = [[oracle.q(a_part), oracle.q(-b_part)], [oracle.q(b_part), oracle.q(a_part)]]
    core = _block_diagonal([rotation, _diag([oracle.q(v) for v in small])])
    structure = sorted(
        [(oracle.q(a_part, b_part), [1]), (oracle.q(a_part, -b_part), [1])]
        + [(oracle.q(v), [1]) for v in small]
    )
    return _case(name, rng, core, structure, quadratics=[(a_part, b_part)])


def eisenstein_cubic(name: str, target: int, small: Sequence[int], rng) -> Case:
    """Companion matrix of z^3 - c, c a prime near target (so z^3 - c is
    Eisenstein at c, hence irreducible over Q and over Q(i) since its
    degree is odd), next to simple small real eigenvalues."""
    c = prime_near(target, rng)
    companion = [
        [oracle.ZERO, oracle.ZERO, oracle.q(c)],
        [oracle.ONE, oracle.ZERO, oracle.ZERO],
        [oracle.ZERO, oracle.ONE, oracle.ZERO],
    ]
    core = _block_diagonal([companion, _diag([oracle.q(v) for v in small])])
    structure = sorted((oracle.q(v), [1]) for v in small)
    return _case(name, rng, core, structure, cubic=c)


SPECTRUM_TEMPLATES = (
    ("real-1e11", lambda rng: real_big("real-1e11", 10**11, [(2, (2,)), (-1, (1,))], rng)),
    ("real-1e13", lambda rng: real_big("real-1e13", 10**13, [(2, (2, 1)), (-1, (1,))], rng)),
    ("real-1e14", lambda rng: real_big("real-1e14", 10**14, [(3, (2,)), (-1, (1,)), (2, (1,))], rng)),
    ("real-1e15", lambda rng: real_big("real-1e15", 10**15, [(2, (1,)), (-1, (2,))], rng)),
    ("gauss-1e11", lambda rng: gaussian_big("gauss-1e11", 10**11, [((1, 1), 1), ((0, 1), 1)], rng)),
    ("gauss-1e12", lambda rng: gaussian_big("gauss-1e12", 10**12, [((1, -1), 1), ((2, 0), 1)], rng)),
    ("pair-1e12", lambda rng: conjugate_pair("pair-1e12", 10**12 // 6, [2, 3], rng)),
    ("pair-1e13", lambda rng: conjugate_pair("pair-1e13", 10**13 // 2, [-1, 2, 1], rng)),
    ("cubic-1e13", lambda rng: eisenstein_cubic("cubic-1e13", 10**13 // 6, [2, -3], rng)),
)


# The templates near 1e13 cost about the same (0.3-0.45 s) and run twice
# per round; three templates cost less (under 0.25 s) and three more (over
# 0.7 s), so the median case of a run falls in the middle of their group.
SPECTRUM_MEDIAN_GROUP = ("real-1e13", "pair-1e13", "cubic-1e13")


def spectrum_roots(seed: int, rounds: int) -> List[Case]:
    cases = []
    for r in range(rounds):
        for label, build in SPECTRUM_TEMPLATES:
            for copy in range(2 if label in SPECTRUM_MEDIAN_GROUP else 1):
                rng = random.Random(f"spectrum-roots:{seed}:{r}:{label}:{copy}")
                cases.append(build(rng))
    return cases


WORKLOADS = {
    "jordan-lib": jordan_lib,
    "verify-cli": verify_cli,
    "spectrum-roots": spectrum_roots,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cases = WORKLOADS[args.workload](args.seed, 2)
    for index, case in enumerate(cases):
        print(f"r{2 * index // len(cases)} {case.describe()}  "
              f"input_bits={oracle.bit_length(case.cells())}")


if __name__ == "__main__":
    main()
