"""poly_roots_exact returns exactly what tests/golden/roots.txt records.

Each case is a seeded polynomial: a leading coefficient (not always 1, not
always real), up to three planted roots in Q(i) of multiplicity up to 3,
with parts up to 10^15 and denominators up to 6, and at times a factor with
no root in Q(i), squared in some cases.  Each line of the golden file holds
a case's seed, its roots as scalar text with their multiplicities, and the
monic rest.  Regenerate it with ``PYTHONPATH=src python
tests/test_roots_golden.py`` only when a change means to alter what root
finding returns, and say so in CHANGES.md.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

from jordanform import GaussianRational, Polynomial, format_scalar, poly_roots_exact, parse_scalar

from conftest import from_roots

GOLDEN = Path(__file__).resolve().parent / "golden" / "roots.txt"
CASES = 1200
LEADING = ("1", "3", "-2+5i", "1i", "7-7i", "1/2", "-2/3+1/5i")
# Monic factors without a root in Q(i), ascending coefficients.
ROOTLESS = (("-2", "0", "0", "1"), ("-3", "0", "1"), ("1i", "0", "1"), ("3", "-2", "1"))
PART_LIMITS = (20, 10**6, 10**15)


def planted(seed):
    """The polynomial of one case."""
    rng = random.Random(f"roots-golden:{seed}")
    poly = Polynomial([parse_scalar(rng.choice(LEADING))])
    if rng.random() < 0.3:
        rest = Polynomial([parse_scalar(c) for c in rng.choice(ROOTLESS)])
        for _ in range(rng.choice((1, 1, 2))):
            poly = poly * rest
    for _ in range(rng.randint(0 if poly.degree else 1, 3)):
        limit = rng.choice(PART_LIMITS)
        den = rng.choice((1, 1, 1, 2, 3, 6))
        re = rng.randint(-limit, limit)
        im = 0 if rng.random() < 0.3 else rng.randint(-limit, limit)
        root = GaussianRational(Fraction(re, den), Fraction(im, den))
        poly = poly * from_roots(*[root] * rng.choice((1, 1, 1, 2, 3)))
    return poly


def record(seed):
    """One golden line: the seed, the roots with multiplicities, the rest."""
    roots, rest = poly_roots_exact(planted(seed))
    found = " ".join(f"{format_scalar(root)}^{count}" for root, count in roots)
    return f"{seed}: {found} | {rest}"


def test_golden_covers_every_case():
    assert len(GOLDEN.read_text().splitlines()) == CASES


def test_roots_are_unchanged():
    golden = GOLDEN.read_text().splitlines()
    changed = [(line, want) for line, want in zip(map(record, range(CASES)), golden) if line != want]
    assert not changed, f"{len(changed)} cases differ, the first: {changed[0]}"


if __name__ == "__main__":
    GOLDEN.write_text("".join(record(seed) + "\n" for seed in range(CASES)))
    print(f"wrote {CASES} cases to {GOLDEN}", file=sys.stderr)
