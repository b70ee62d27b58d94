"""Properties checked by hypothesis on generated inputs, derandomized so that
every run tries the same examples."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from jordanform import ExactMatrix, SpectrumNotRepresentable, inverse, spectrum  # noqa: E402

from conftest import gr  # noqa: E402

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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(matrix_and_conjugator())
def test_spectrum_is_similarity_invariant(pair):
    """The spectrum, or the minimal polynomial less its roots that a
    SpectrumNotRepresentable carries, is the same for S*A*S^-1 as for A."""
    a, s = pair
    assert spectrum_or_factor(s * a * inverse(s)) == spectrum_or_factor(a)
