"""Properties checked by hypothesis on generated inputs, derandomized so that
every run tries the same examples."""

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction  # noqa: E402

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from jordanform import (  # noqa: E402
    ExactMatrix,
    GaussianRational,
    SpectrumNotRepresentable,
    format_scalar,
    inverse,
    parse_scalar,
    spectrum,
)

from conftest import gr  # noqa: E402

# No shrinking: a failure is reported with the example that found it, since
# shrinking large generated values can take minutes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

PALETTE = [gr(x) for x in ("0", "0", "1", "-1", "2", "1/2", "1i", "-1i", "1+1i")]


@st.composite
def matrix_and_conjugator(draw):
    """A over the palette, upper triangular half the time so that its
    spectrum is often in Q(i), and S = L*U unimodular with small entries."""
    n = draw(st.integers(1, 5))
    triangular = draw(st.booleans())
    value, small = st.sampled_from(PALETTE), st.integers(-2, 2)
    a = [[gr(0) if triangular and j < i else draw(value) for j in range(n)] for i in range(n)]
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else draw(small) if j > i else 0 for j in range(n)] for i in range(n)]
    return ExactMatrix(a), ExactMatrix(lower) * ExactMatrix(upper)


def spectrum_or_factor(matrix):
    try:
        return spectrum(matrix)
    except SpectrumNotRepresentable as exc:
        return str(exc.factor)


@settings(max_examples=80, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(matrix_and_conjugator())
def test_spectrum_is_similarity_invariant(pair):
    """The spectrum, or the minimal polynomial less its roots that a
    SpectrumNotRepresentable carries, is the same for S*A*S^-1 as for A."""
    a, s = pair
    assert spectrum_or_factor(s * a * inverse(s)) == spectrum_or_factor(a)


# Numerators and denominators far beyond 64 bits, and zero parts often.
BIG = 10**40
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


def canonical_literal(re, im):
    """The canonical text of re + im*i, from Fraction's own lowest terms:
    a real part only when nonzero or alone, then a signed imaginary part."""
    if not im:
        return str(re)
    imag = f"{im}i"
    if not re:
        return imag
    return f"{re}+{imag}" if im > 0 else f"{re}{imag}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(RATIONALS, RATIONALS)
def test_format_then_parse_gives_the_scalar_back(re, im):
    value = GaussianRational(re, im)
    assert parse_scalar(format_scalar(value)) == value
    assert eval(repr(value)) == value


@settings(max_examples=200, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(RATIONALS, RATIONALS)
def test_parse_then_format_gives_a_canonical_literal_back(re, im):
    text = canonical_literal(re, im)
    value = parse_scalar(text)
    assert (value.re, value.im) == (re, im)
    assert format_scalar(value) == text
