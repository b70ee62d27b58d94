"""The algebraic multiplicities read off the Krylov factors, and the work they
bound: spectrum() against spectrum_with_ladders, ladders that stop at the
multiplicity against ladders that run to stabilization, and counts of the
ladders and eliminations the found and provided paths run."""

import functools
import random
from collections import Counter

from jordanform import (
    Basis,
    ExactMatrix,
    JordanFormError,
    SpectrumNotRepresentable,
    elementary_conjugator,
    exhaustive_structures,
    format_scalar,
    generate_case,
    minimal_polynomial,
    parse_structure,
    poly_roots_exact,
)
from jordanform import matrices, spectral
from jordanform.spectral import (
    _eigenvalues,
    spectrum,
    spectrum_with_ladders,
    stage_ladder,
)

from conftest import derogatory, gr, rand_matrix, rand_scalar


@functools.lru_cache(maxsize=None)
def corpus():
    """Every exhaustive structure with n <= 5 as a generated case, then 300
    seeded random Q(i) matrices with n <= 6: a third derogatory, a third
    dense (mostly without a spectrum in Q(i)) and a third conjugated
    triangular ones over a palette with repeated and Gaussian values."""
    out = [
        generate_case(structure, seed, 3)[0]
        for seed, structure in enumerate(
            s for n in range(1, 6) for s in exhaustive_structures(n)
        )
    ]
    rng = random.Random(15)
    palette = [gr(x) for x in ("0", "1", "-1", "1/2", "1i", "-1i", "1+1i")]
    for k in range(300):
        n = rng.randint(1, 6)
        if k % 3 == 0:
            out.append(derogatory(rng, max(n, 2)))
        elif k % 3 == 1:
            out.append(rand_matrix(rng, n, n, 3))
        else:
            rows = [
                [palette[rng.randrange(len(palette))] if i == j
                 else rand_scalar(rng, 2) if j > i else gr(0) for j in range(n)]
                for i in range(n)
            ]
            s, s_inv = elementary_conjugator(n, rng.randrange(1000), 2)
            out.append(s * ExactMatrix(rows) * s_inv)
    return tuple(out)


def outcome(fn, matrix):
    try:
        return fn(matrix)
    except JordanFormError as exc:
        return type(exc).__name__, str(exc)


def bases_text(ladder):
    return [[v.entries_str() for v in basis.vectors] for basis in ladder.stage_bases]


def test_spectrum_is_what_spectrum_with_ladders_reads():
    errors = 0
    for matrix in corpus():
        got = outcome(spectrum, matrix)
        assert got == outcome(lambda m: spectrum_with_ladders(m)[0], matrix)
        errors += isinstance(got, tuple) and got[0] == "SpectrumNotRepresentable"
    assert 50 <= errors <= 200


def up_to_six_and_large():
    """Every exhaustive structure with n <= 6, then multiplicities of 4 and
    up, forced ([4]) and open (two partitions share g)."""
    large = ("0:4", "0:2,2", "0:3,1", "0:2,1,1", "1i:2,2;2:3,1")
    return [s for n in range(1, 7) for s in exhaustive_structures(n)] + [
        parse_structure(text) for text in large
    ]


def test_spectrum_reads_the_ladders_dims_off_one_rank_up_to_multiplicity_3():
    # A partition of m <= 3 is fixed by its number of parts, the geometric
    # dimension; from m = 4 on, spectrum() builds the ladder.
    cases = 0
    for structure in up_to_six_and_large():
        for seed in (5, 6):
            matrix, _ = generate_case(structure, seed, 3)
            assert spectrum(matrix) == spectrum_with_ladders(matrix)[0]
            cases += 1
    assert cases == 2 * (108 + 5)


def test_spectrum_builds_a_ladder_only_from_multiplicity_4(monkeypatch):
    built = []
    kernel_ladder = spectral.kernel_ladder

    def counted(matrix, top=None):
        built.append(top)
        return kernel_ladder(matrix, top)

    monkeypatch.setattr(spectral, "kernel_ladder", counted)
    tally = Counter()
    for structure in up_to_six_and_large():
        matrix, _ = generate_case(structure, 5, 3)
        built.clear()
        entries = spectrum(matrix).entries
        assert built == [entry.multiplicity for entry in entries if entry.multiplicity >= 4]
        tally[bool(built)] += 1
    assert tally == {False: 58, True: 55}


def test_a_root_without_an_eigenvector_is_the_same_violation_on_both_paths(monkeypatch):
    # Unreachable with exact roots: a rank that claims a trivial kernel, and
    # a ladder that finds one, both end in the ladder's message.
    matrix, _ = generate_case(parse_structure("1:2"), 5, 3)
    monkeypatch.setattr(spectral, "rank", lambda shifted: shifted.rows)
    rank_path = outcome(spectrum, matrix)
    monkeypatch.setattr(spectral, "kernel_ladder", lambda shifted, top=None: [Basis(2, [])])
    assert rank_path == outcome(lambda m: spectrum_with_ladders(m)[0], matrix) == (
        "InternalInvariantViolation", "characteristic polynomial root 1 is not an eigenvalue"
    )


def test_a_list_of_the_roots_in_q_i_names_the_same_rootless_factor():
    # The eigenvalues in Q(i) are the roots of the minimal polynomial; a list
    # of all of them, in either order, leaves the rootless part to report.
    rootless = 0
    for matrix in corpus():
        expected = outcome(spectrum, matrix)
        if expected[0] != "SpectrumNotRepresentable":
            continue
        roots = [root for root, _ in poly_roots_exact(minimal_polynomial(matrix))[0]]
        for provided in (roots, roots[::-1]):
            assert outcome(lambda m: spectrum(m, provided), matrix) == expected
        rootless += 1
    assert rootless >= 50


def test_ladders_that_stop_at_the_multiplicity_have_the_same_bases():
    eigenvalues = 0
    for matrix in corpus():
        try:
            pairs = _eigenvalues(matrix)
        except SpectrumNotRepresentable:
            continue
        assert sum(m for _, m in pairs) == matrix.rows
        for lam, m in pairs:
            bounded = stage_ladder(matrix, lam, m)
            assert bounded.top.dimension == m
            assert bases_text(bounded) == bases_text(stage_ladder(matrix, lam))
            eigenvalues += 1
    assert eigenvalues >= 400


def test_spectrum_builds_no_ladder_for_a_simple_eigenvalue(monkeypatch):
    built = []
    kernel_ladder = spectral.kernel_ladder

    def counted(matrix, top=None):
        built.append(top)
        return kernel_ladder(matrix, top)

    monkeypatch.setattr(spectral, "kernel_ladder", counted)
    simple, _ = generate_case(parse_structure("2:1;1i:1;-1i:1;1/2:1"), 5, 3)
    assert [entry[1:] for entry in spectrum(simple).entries] == [(1, 1, 1)] * 4
    assert built == []
    mixed, _ = generate_case(parse_structure("1:2,2,1;0:1"), 5, 3)
    assert [entry[1:] for entry in spectrum(mixed).entries] == [(1, 1, 1), (5, 3, 2)]
    assert built == [5]


def test_each_ladder_runs_one_n_row_elimination_whatever_its_stages(monkeypatch):
    """A ladder eliminates [N | I] once; its later stages solve systems with
    fewer rows than n.  So the n-row eliminations count the ladders, found
    and provided eigenvalues alike, also for chains of length up to 6."""
    sizes = []
    forward_rows = matrices._forward_rows

    def counted(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return forward_rows(rows)

    monkeypatch.setattr(matrices, "_forward_rows", counted)
    for text in ("0:3,1;2:1", "-1:2,2;1:1", "1:2,2,1;0:1", "1i:2;-1i:2;1/2:1", "0:6;1:1", "2:5,4"):
        matrix, _ = generate_case(parse_structure(text), 5, 3)
        n = matrix.rows
        for provided in (None, [entry[0] for entry in spectrum(matrix).entries]):
            sizes.clear()
            spect, _ = spectrum_with_ladders(matrix, provided)
            assert sizes.count(n) == len(spect.entries)
            assert all(size < n for size in sizes if size != n)
            assert len(sizes) == sum(entry.max_stage for entry in spect.entries)


def test_provided_eigenvalues_in_reversed_order_give_the_found_ladders():
    # With two or more eigenvalues, a list that leaves one out, or adds a
    # value that is no eigenvalue, is rejected as the CLI reports it.
    cases = rejected = 0
    for structure in (s for n in range(1, 6) for s in exhaustive_structures(n)):
        matrix, _ = generate_case(structure, 5, 3)
        spect, ladders = spectrum_with_ladders(matrix)
        provided = [entry.eigenvalue for entry in reversed(spect.entries)]
        again, provided_ladders = spectrum_with_ladders(matrix, provided)
        assert again == spect
        assert spectrum(matrix, provided) == spect
        assert [bases_text(ladder) for ladder in provided_ladders] == [
            bases_text(ladder) for ladder in ladders
        ]
        cases += 1
        if len(provided) < 2:
            continue
        n = matrix.rows
        for k, entry in enumerate(reversed(spect.entries)):
            shorter = provided[:k] + provided[k + 1:]
            assert outcome(lambda m: spectrum(m, shorter), matrix) == (
                "IncompleteSpectrum",
                f"eigenvalue multiplicities cover {n - entry.multiplicity} of {n} dimensions",
            )
        stranger = max(provided) + 1
        assert outcome(lambda m: spectrum(m, provided + [stranger]), matrix) == (
            "InvalidProvidedEigenvalue",
            f"{format_scalar(stranger)} is not an eigenvalue: A - (value)I has full rank",
        )
        rejected += 1
    assert (cases, rejected) == (51, 33)
