import io
import json
import os
import subprocess
import sys
import time

import pytest

from jordanform import (
    ExactMatrix,
    Polynomial,
    check_decomposition,
    generate_case,
    jordan_decomposition,
    parse_structure,
)
from jordanform import cli, decomp, errors, matrices
from jordanform.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_NOT_REPRESENTABLE,
    EXIT_OK,
    EXIT_USAGE,
    decomposition_to_document,
    document_to_decomposition,
    document_to_matrix,
    matrix_to_document,
    run,
)

from conftest import CUBE_COMPANION, DENSE3, companion_sum


def write_doc(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_document(matrix)))
    return str(path)


@pytest.fixture()
def dense3_path(tmp_path):
    return write_doc(tmp_path, "dense3.json", DENSE3)


@pytest.fixture()
def cube_path(tmp_path):
    return write_doc(tmp_path, "cube.json", CUBE_COMPANION)


def cli_process(*args):
    """Run the CLI in a new interpreter, through ``main`` as a shell would."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "jordanform", *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=60, env=env)


# --- document round-trips --------------------------------------------------------

def test_matrix_document_round_trip():
    doc = matrix_to_document(DENSE3)
    assert document_to_matrix(json.loads(json.dumps(doc))) == DENSE3


def test_decomposition_document_round_trip():
    decomposition = jordan_decomposition(DENSE3)
    doc = decomposition_to_document(decomposition)
    assert document_to_decomposition(json.loads(json.dumps(doc))) == decomposition


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"n": 2},
        {"n": 0, "entries": []},
        {"n": 2, "entries": [["1", "2"]]},
        {"n": 2, "entries": [["1", "2"], ["3"]]},
        {"n": 1, "entries": [["nope"]]},
        {"n": True, "entries": [["5"]]},
    ],
)
def test_bad_matrix_documents_rejected(doc):
    from jordanform import ParseError

    with pytest.raises(ParseError):
        document_to_matrix(doc)


def test_an_integer_entry_is_taken_as_it_is():
    assert document_to_matrix({"n": 1, "entries": [[2]]}) == ExactMatrix([["2"]])
    assert document_to_matrix({"n": 2, "entries": [[-3, "1/2"], [0, 10**30]]}) == ExactMatrix(
        [["-3", "1/2"], ["0", str(10**30)]]
    )


DEEP_ENTRY = [[]]
for _ in range(898):
    DEEP_ENTRY = [DEEP_ENTRY]


@pytest.mark.parametrize(
    "entry, quoted",
    [
        (True, "true"),
        (False, "false"),
        (1.5, "1.5"),
        (None, "null"),
        ({"a": 1}, '{"a": 1}'),
        (DEEP_ENTRY, "[" * 40 + "..."),
    ],
    ids=["true", "false", "float", "null", "object", "nested-900"],
)
def test_an_entry_that_is_neither_a_string_nor_an_integer_is_quoted_as_json(
    tmp_path, capsys, entry, quoted
):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"n": 1, "entries": [[entry]]}))
    assert run(["spectrum", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "jordanform spectrum: ParseError: a matrix entry must be a scalar string or an integer, "
        f"got {quoted}"
    ]


def _decomposition_doc(**changes):
    doc = decomposition_to_document(jordan_decomposition(DENSE3))
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize(
    "doc, key",
    [
        ([], "kind"),
        ({"kind": "jordan"}, "V"),
        (_decomposition_doc(blocks=None), "blocks"),
        (_decomposition_doc(kind="lu"), "kind"),
        (_decomposition_doc(blocks="x"), "blocks"),
        (_decomposition_doc(blocks=["x"]), "size"),
        (_decomposition_doc(blocks=[{"lambda": "3"}]), "size"),
        (_decomposition_doc(blocks=[{"size": 3}]), "lambda"),
        (_decomposition_doc(blocks=[{"lambda": "3", "size": "x"}]), "size"),
        (_decomposition_doc(blocks=[{"lambda": "3", "size": 1.5}]), "size"),
        (_decomposition_doc(blocks=[{"lambda": "3", "size": True}]), "size"),
        (_decomposition_doc(blocks=[{"lambda": "3", "size": 0}]), "size"),
        (_decomposition_doc(blocks=[{"lambda": 3, "size": 3}]), "scalar"),
        (_decomposition_doc(V={"n": 3}), "entries"),
    ],
)
def test_bad_decomposition_documents_raise_parse_errors_naming_the_key(doc, key):
    from jordanform import ParseError

    with pytest.raises(ParseError, match=key):
        document_to_decomposition(doc)


# --- subcommands --------------------------------------------------------------------

def test_jordan_json_output(dense3_path, capsys):
    assert run(["jordan", dense3_path, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "jordan"
    assert doc["V"]["entries"] == [["-2", "-1", "1"], ["0", "-4", "0"], ["-2", "1", "0"]]
    assert doc["M"]["entries"] == [["3", "1", "0"], ["0", "3", "1"], ["0", "0", "3"]]
    assert doc["blocks"] == [{"lambda": "3", "size": 3}]


def test_jordan_pretty_output(dense3_path, capsys):
    assert run(["jordan", dense3_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "kind: jordan" in out
    assert "blocks: 3:3" in out
    assert "diagonalizable: no" in out
    assert "-2  -1  1" in out


def test_spectrum_subcommand(tmp_path, capsys):
    path = write_doc(tmp_path, "id2.json", ExactMatrix.identity(2))
    assert run(["spectrum", path, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == [
        {"lambda": "1", "multiplicity": 2, "geometric": 2, "max_stage": 1}
    ]


def test_schur_blockdiag_blocktri(dense3_path, capsys):
    for kind in ("schur", "blockdiag", "blocktri"):
        assert run([kind, dense3_path, "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == kind


def test_not_representable_exit_code(cube_path, capsys):
    assert run(["jordan", cube_path]) == EXIT_NOT_REPRESENTABLE
    err = capsys.readouterr().err
    assert "SpectrumNotRepresentable" in err
    assert "z^3 - 2" in err


def test_two_distinct_conjugate_pairs(tmp_path, capsys):
    # diag(rotation(0, 1), rotation(1, 1)): a real matrix with eigenvalues
    # +-i and 1 +- i.
    matrix = ExactMatrix.from_rows(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]]
    )
    path = write_doc(tmp_path, "pairs.json", matrix)
    assert run(["spectrum", path, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    lambdas = [entry["lambda"] for entry in doc["entries"]]
    assert lambdas == ["-1i", "1i", "1-1i", "1+1i"]
    assert run(["jordan", path, "--format", "json"]) == EXIT_OK
    decomposition = document_to_decomposition(json.loads(capsys.readouterr().out))
    assert check_decomposition(matrix, decomposition).passed


@pytest.mark.parametrize(
    "entries, eigenvalues",
    [
        (
            [[str(10**18 + 9), "1", "0"], ["0", "2", "0"], ["0", "0", "3"]],
            ["2", "3", "1000000000000000009"],
        ),
        # The constant term of the minimal polynomial has norm about 10^36.
        (
            [["500000000000000003+500000000000000021i", "1"], ["0", "1+1i"]],
            ["1+1i", "500000000000000003+500000000000000021i"],
        ),
    ],
)
def test_spectrum_with_a_huge_constant_term_is_fast(tmp_path, entries, eigenvalues):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": len(entries), "entries": entries}))
    start = time.perf_counter()
    done = cli_process("spectrum", str(path), "--format", "json")
    elapsed = time.perf_counter() - start
    assert done.returncode == EXIT_OK, done.stderr
    doc = json.loads(done.stdout)
    assert [entry["lambda"] for entry in doc["entries"]] == eigenvalues
    assert elapsed < 10


def test_a_literal_past_the_interpreter_digit_limit(tmp_path):
    literal = "9" * 4999 + "7"
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 1, "entries": [[literal]]}))
    done = cli_process("spectrum", str(path), "--format", "json")
    assert done.returncode == EXIT_OK, done.stderr[-300:]
    assert json.loads(done.stdout)["entries"][0]["lambda"] == literal


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_a_json_integer_past_the_interpreter_digit_limit(tmp_path, capsys):
    # In process the limit holds, and json.loads refuses the integer: a
    # ParseError with one stderr line.  The CLI lifts the limit and reads it.
    path = tmp_path / "long.json"
    path.write_text('{"n": 1, "entries": [[' + "9" * 4999 + "7" + "]]}")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(["jordan", str(path)]) == EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"jordanform jordan: ParseError: JSON in {str(path)!r} ")
    assert captured.err.count("\n") == 1
    done = cli_process("jordan", str(path), "--format", "json")
    assert done.returncode == EXIT_OK, done.stderr[-300:]
    assert json.loads(done.stdout)["M"]["entries"] == [["9" * 4999 + "7"]]


def test_a_factor_past_the_interpreter_digit_limit(tmp_path):
    # a = 10^2200 + 1 in [[a, a], [a, 0]]: the factor z^2 - a*z - a^2 has no
    # root in Q(i), and a^2 = 10^4400 + 2*10^2200 + 1 has 4401 digits.
    a = "1" + "0" * 2199 + "1"
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 2, "entries": [[a, a], [a, "0"]]}))
    done = cli_process("spectrum", str(path))
    assert done.returncode == EXIT_NOT_REPRESENTABLE, done.stderr[-300:]
    assert done.stderr.startswith("jordanform spectrum: SpectrumNotRepresentable: ")
    assert f"z^2 - {a}z - " + "1" + "0" * 2199 + "2" + "0" * 2199 + "1\n" in done.stderr


def test_internal_error_exit_code(dense3_path, monkeypatch, capsys):
    from jordanform import InternalInvariantViolation

    def broken(matrix, ladders):
        raise InternalInvariantViolation("chain count mismatch")

    monkeypatch.setitem(decomp.STAGES, "jordan", broken)
    assert run(["jordan", dense3_path]) == EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "jordanform jordan: InternalInvariantViolation: chain count mismatch\n"
    )


def test_a_krylov_run_that_never_ends_is_an_internal_error(dense3_path, monkeypatch, capsys):
    # An echelon that keeps no row lets n + 1 Krylov vectors stay independent,
    # which no real echelon allows.
    monkeypatch.setattr(matrices.Echelon, "add", lambda self, re, im, d: True)
    assert run(["spectrum", dense3_path]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "jordanform spectrum: InternalInvariantViolation: "
        "n+1 Krylov vectors cannot stay independent\n"
    )


PACKAGE_ERRORS = [
    error for error in vars(errors).values()
    if isinstance(error, type) and issubclass(error, errors.JordanFormError)
]


@pytest.mark.parametrize("error", [*PACKAGE_ERRORS, OSError], ids=lambda error: error.__name__)
def test_every_error_type_exits_with_its_code(dense3_path, monkeypatch, capsys, error):
    # SpectrumNotRepresentable and InternalInvariantViolation have their own
    # codes; every other package error, and a file that cannot be read, is a
    # usage error.
    if error is errors.SpectrumNotRepresentable:
        exc = error(Polynomial([-2, 0, 0, 1]))
        message = "no root in Q(i) for the remaining factor z^3 - 2"
    else:
        exc, message = error("stage failed"), "stage failed"

    def broken(matrix, ladders):
        raise exc

    monkeypatch.setitem(decomp.STAGES, "jordan", broken)
    codes = {errors.SpectrumNotRepresentable: 2, errors.InternalInvariantViolation: 4}
    assert run(["jordan", dense3_path]) == codes.get(error, EXIT_USAGE)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"jordanform jordan: {error.__name__}: {message}\n"


def test_not_representable_names_the_minimal_polynomials_rest(tmp_path, capsys):
    # Krylov factors z^2 - 2 and (z^2 - 2)^2: the reported factor is the
    # minimal polynomial's rest, not the first factor's.
    sqrt2 = Polynomial([-2, 0, 1])
    path = write_doc(tmp_path, "sqrt2.json", companion_sum(sqrt2, sqrt2 * sqrt2))
    assert run(["spectrum", path]) == EXIT_NOT_REPRESENTABLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "jordanform spectrum: SpectrumNotRepresentable: "
        "no root in Q(i) for the remaining factor z^4 - 4z^2 + 4\n"
    )


# diag(1) + companion(z^2 - 2), diag(1, 2) + companion(z^2 - 2) and
# diag(1) + companion(z^3 - 2): eigenvalues in Q(i) and a rootless part.
SQRT2_WITH_ONE = ExactMatrix.from_rows([[1, 0, 0], [0, 0, 2], [0, 1, 0]])
SQRT2_WITH_ONE_TWO = companion_sum(
    Polynomial([-1, 1]), Polynomial([-2, 1]), Polynomial([-2, 0, 1])
)
CUBE_WITH_ONE = companion_sum(Polynomial([-1, 1]), Polynomial([-2, 0, 0, 1]))


@pytest.mark.parametrize(
    "command, matrix, provided, factor",
    [
        ("spectrum", SQRT2_WITH_ONE, "1", "z^2 - 2"),
        ("jordan", SQRT2_WITH_ONE_TWO, "1,2", "z^2 - 2"),
        ("verify", CUBE_WITH_ONE, "1", "z^3 - 2"),
    ],
)
def test_a_complete_list_names_the_rootless_factor(
    tmp_path, capsys, command, matrix, provided, factor
):
    # With every eigenvalue in Q(i) provided, the exit code and stderr line
    # are those of the same call without the list.
    path = write_doc(tmp_path, "matrix.json", matrix)
    assert run([command, path]) == EXIT_NOT_REPRESENTABLE
    found = capsys.readouterr()
    assert found.err == (
        f"jordanform {command}: SpectrumNotRepresentable: "
        f"no root in Q(i) for the remaining factor {factor}\n"
    )
    assert run([command, path, f"--spectrum={provided}"]) == EXIT_NOT_REPRESENTABLE
    assert capsys.readouterr() == found


def test_spectrum_command_builds_no_ladder_for_a_simple_eigenvalue(monkeypatch, capsys):
    # Like spectrum(), the spectrum command reads a simple eigenvalue's entry
    # off its multiplicity; a stage still needs every ladder.
    import jordanform.spectral

    built = []
    kernel_ladder = jordanform.spectral.kernel_ladder

    def counted(matrix, top=None):
        built.append(top)
        return kernel_ladder(matrix, top)

    monkeypatch.setattr(jordanform.spectral, "kernel_ladder", counted)
    assert run(["gen", "--structure", "2:1;1i:1;-1i:1;1/2:1", "--seed", "5"]) == EXIT_OK
    payload = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert run(["spectrum", "-", "--format", "json"]) == EXIT_OK
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [(e["multiplicity"], e["geometric"], e["max_stage"]) for e in entries] == [(1, 1, 1)] * 4
    assert built == []
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert run(["jordan", "-"]) == EXIT_OK
    assert built == [1, 1, 1, 1]


def test_wrong_provided_eigenvalue(cube_path, capsys):
    assert run(["jordan", cube_path, "--spectrum", "3/2"]) == EXIT_USAGE
    assert "InvalidProvidedEigenvalue" in capsys.readouterr().err


def test_provided_spectrum_matches_automatic(dense3_path, capsys):
    assert run(["jordan", dense3_path, "--format", "json"]) == EXIT_OK
    automatic = capsys.readouterr().out
    assert run(["jordan", dense3_path, "--format", "json", "--spectrum", "3"]) == EXIT_OK
    assert capsys.readouterr().out == automatic


def test_check_flag_appends_report(dense3_path, capsys):
    assert run(["jordan", dense3_path, "--format", "json", "--check"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["check"]["passed"] is True
    names = [c["name"] for c in doc["check"]["checks"]]
    assert names == [
        "similarity",
        "invertible",
        "multiplicity-sum",
        "shape",
        "trace",
        "chain-counts",
    ]


def test_gen_pipe_round_trip(monkeypatch, capsys):
    assert run(["gen", "--structure", "3:3", "--seed", "7", "--bound", "3"]) == EXIT_OK
    payload = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert run(["jordan", "--check", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["check"]["passed"] is True
    assert doc["M"]["entries"] == [["3", "1", "0"], ["0", "3", "1"], ["0", "0", "3"]]


def test_gen_output_is_a_matrix_document(capsys):
    assert run(["gen", "--structure", "0:2,1;1:1", "--seed", "5"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    matrix = document_to_matrix(doc)
    assert matrix.rows == 4


def test_gen_malformed_structure(capsys):
    assert run(["gen", "--structure", "nope"]) == EXIT_USAGE
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    ["--seed", "\u0663", "--bound", "\uff12"], ["--seed", "\u0663"], ["--bound", "\uff12"],
    ["--seed", "1_000"], ["--seed", "+5"], ["--seed", " 7"], ["--seed", "7 "], ["--seed", "-"],
    ["--bound", "+2"], ["--bound", "\u00b2"], ["--bound", "-\u0663"],
])
def test_gen_seed_and_bound_are_ascii_digits(options, capsys):
    # int() takes all of these but "-" and the superscript; gen takes ASCII
    # digits after an optional "-".
    assert run(["gen", "--structure", "0:2", *options]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("jordanform: error: argument --")


@pytest.mark.parametrize("options", [["--seed", "-5"], ["--seed=-5", "--bound", "12"]])
def test_gen_takes_a_negative_seed(options, capsys):
    assert run(["gen", "--structure", "0:2", *options]) == EXIT_OK
    assert document_to_matrix(json.loads(capsys.readouterr().out)).rows == 2


def test_gen_refuses_a_bound_below_one_as_a_structure_error(capsys):
    assert run(["gen", "--structure", "0:2", "--bound", "-1"]) == EXIT_USAGE
    assert run(["gen", "--structure", "0:2", "--bound", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["jordanform gen: InvalidStructure: entry_bound must be >= 1"] * 2


def test_gen_refuses_a_structure_above_the_size_bound_before_building(monkeypatch, capsys):
    from jordanform import verify

    def built(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(verify, "jordan_matrix", built)
    monkeypatch.setattr(verify, "elementary_conjugator", built)
    assert run(["gen", "--structure", "0:100000"]) == EXIT_USAGE
    assert run(["gen", "--structure", f"0:{verify.MAX_GENERATED_N};1:1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "jordanform gen: InvalidStructure: total size 100000 is above the limit 1000",
        "jordanform gen: InvalidStructure: total size 1001 is above the limit 1000",
    ]
    # At the bound itself, generation starts.
    with pytest.raises(AssertionError, match="a matrix was built"):
        generate_case(parse_structure(f"0:{verify.MAX_GENERATED_N}"), 0, 3)


def test_gen_help_states_the_size_bound(capsys):
    from jordanform import verify

    assert run(["gen", "--help"]) == EXIT_OK
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"of total size at most {verify.MAX_GENERATED_N}" in help_text


def test_verify_subcommand(dense3_path, capsys):
    assert run(["verify", dense3_path, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    kinds = [report["kind"] for report in doc["reports"]]
    assert kinds == ["schur", "blockdiag", "blocktri", "jordan"]
    assert all(report["passed"] for report in doc["reports"])


def test_verify_finds_the_spectrum_once(dense3_path, cube_path, monkeypatch, capsys):
    # The eigenvalues come from one Krylov pass; the minimal polynomial is
    # computed only to name the rootless factor of the exit-2 path, and only
    # when two or more factors of the pass keep a rootless rest: the
    # companion matrix of z^3 - 2 is cyclic, so its one factor is the
    # minimal polynomial.
    # Provided eigenvalues are checked against the same pass and its root
    # search, which give their multiplicities.
    import jordanform.decomp
    import jordanform.spectral

    calls = []
    real_analysis = jordanform.spectral.spectrum_with_ladders

    def counted(name):
        real = getattr(jordanform.spectral, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(jordanform.spectral, name, spy)

    def counted_analysis(matrix, provided=None):
        calls.append("spectrum_with_ladders")
        return real_analysis(matrix, provided)

    counted("krylov_factors")
    counted("poly_roots_exact")
    counted("minimal_polynomial")
    for module in (jordanform.spectral, jordanform.decomp, cli):
        monkeypatch.setattr(module, "spectrum_with_ladders", counted_analysis)
    assert run(["verify", dense3_path, "--format", "json"]) == EXIT_OK
    assert calls == ["spectrum_with_ladders", "krylov_factors", "poly_roots_exact"]
    assert all(report["passed"] for report in json.loads(capsys.readouterr().out)["reports"])
    calls.clear()
    assert run(["verify", dense3_path, "--spectrum", "3"]) == EXIT_OK
    assert calls == ["spectrum_with_ladders", "krylov_factors", "poly_roots_exact"]
    assert "jordan: pass" in capsys.readouterr().out
    calls.clear()
    assert run(["verify", cube_path]) == EXIT_NOT_REPRESENTABLE
    assert calls == ["spectrum_with_ladders", "krylov_factors", "poly_roots_exact"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "jordanform verify: SpectrumNotRepresentable: "
        "no root in Q(i) for the remaining factor z^3 - 2\n"
    )


@pytest.mark.parametrize(
    "matrix, provided, message",
    [
        (DENSE3, "3,3", "InvalidProvidedEigenvalue: duplicate eigenvalue 3"),
        (
            DENSE3,
            "7,3",
            "InvalidProvidedEigenvalue: 7 is not an eigenvalue: A - (value)I has full rank",
        ),
        (
            ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
            "1",
            "IncompleteSpectrum: eigenvalue multiplicities cover 2 of 3 dimensions",
        ),
        # With two faults, the first in list order is reported.
        (
            DENSE3,
            "7,3,3",
            "InvalidProvidedEigenvalue: 7 is not an eigenvalue: A - (value)I has full rank",
        ),
        (DENSE3, "3,3,7", "InvalidProvidedEigenvalue: duplicate eigenvalue 3"),
        # A missing root in Q(i) wins over the rootless part.
        (
            SQRT2_WITH_ONE_TWO,
            "1",
            "IncompleteSpectrum: eigenvalue multiplicities cover 1 of 4 dimensions",
        ),
    ],
)
def test_verify_rejects_a_bad_spectrum_list(tmp_path, capsys, matrix, provided, message):
    path = write_doc(tmp_path, "matrix.json", matrix)
    assert run(["verify", path, "--spectrum", provided]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"jordanform verify: {message}\n"


def test_byte_determinism(dense3_path, capsys):
    assert run(["jordan", dense3_path, "--format", "json"]) == EXIT_OK
    first = capsys.readouterr().out
    assert run(["jordan", dense3_path, "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_stdin_input(monkeypatch, capsys):
    payload = json.dumps(matrix_to_document(DENSE3))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert run(["spectrum", "-", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["lambda"] == "3"


def test_non_utf8_input_is_a_parse_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    assert run(["spectrum", str(path)]) == EXIT_USAGE
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(["spectrum", "-"]) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("jordanform spectrum: ParseError: ") for line in lines)


@pytest.mark.parametrize(
    "payload",
    ["[" * 100000, '{"n": 1, "entries": [[' + "[" * 1000 + '"1"' + "]" * 1000 + "]]}"],
    ids=["bare", "in-a-matrix"],
)
def test_deeply_nested_json_is_a_parse_error(tmp_path, monkeypatch, capsys, payload):
    path = tmp_path / "deep.json"
    path.write_text(payload)
    assert run(["spectrum", str(path)]) == EXIT_USAGE
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert run(["spectrum", "-"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"jordanform spectrum: ParseError: JSON in {str(path)!r} is nested too deeply",
        "jordanform spectrum: ParseError: JSON in '-' is nested too deeply",
    ]


def test_usage_errors(tmp_path, capsys):
    assert run([]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE
    assert run(["jordan", str(tmp_path / "missing.json")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["jordan", str(bad)]) == EXIT_USAGE
    capsys.readouterr()


def test_empty_spectrum_flag(dense3_path, capsys):
    assert run(["jordan", dense3_path, "--spectrum", ""]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("values", ["-1,3", "-1i,3"])
def test_spectrum_list_may_start_with_a_negative_value(tmp_path, capsys, command, values):
    # argparse reads "-1,3" as an option; it must work as --spectrum=-1,3 does.
    first = values.split(",")[0]
    path = write_doc(tmp_path, "matrix.json", ExactMatrix.from_rows([[first, 1], [0, 3]]))
    assert run([command, path, f"--spectrum={values}"]) == EXIT_OK
    joined = capsys.readouterr()
    assert run([command, path, "--spectrum", values]) == EXIT_OK
    assert capsys.readouterr() == joined
    expected = {"spectrum": f"lambda={first} multiplicity=1", "verify": "jordan: pass"}
    assert expected[command] in joined.out


@pytest.mark.parametrize("flag, values", [
    ("--spec", "-1,3"), ("--sp", "-1i,3"), ("--s", "-1,3"),
    # No flag: a path that starts with a negative number is the matrix path.
    pytest.param(None, "-1.json", id="path--1.json"),
])
def test_spectrum_flag_prefix_takes_a_negative_list(tmp_path, monkeypatch, capsys, flag, values):
    monkeypatch.chdir(tmp_path)
    first = values.split(",")[0] if flag else "-1"
    write_doc(tmp_path, "-1.json", ExactMatrix.from_rows([[first, 1], [0, 3]]))
    if flag:
        joined, separate = ["./-1.json", f"--spectrum={values}"], ["./-1.json", flag, values]
    else:
        joined, separate = ["./-1.json"], [values]
    assert run(["spectrum", *joined]) == EXIT_OK
    expected = capsys.readouterr()
    assert run(["spectrum", *separate]) == EXIT_OK
    assert capsys.readouterr() == expected


@pytest.mark.parametrize(
    "flag, value, rest",
    [("--structure", "-1:2,2;1:1", ["--seed", "5"]), ("--struct", "-1:2", [])],
)
def test_structure_may_start_with_a_negative_value(capsys, flag, value, rest):
    # argparse reads "-1:2" as an option; it must work as --structure=-1:2 does.
    assert run(["gen", f"--structure={value}", *rest]) == EXIT_OK
    joined = capsys.readouterr()
    assert run(["gen", flag, value, *rest]) == EXIT_OK
    assert capsys.readouterr() == joined
    assert joined.err == ""


def test_spectrum_flag_without_a_value(dense3_path, capsys):
    assert run(["verify", dense3_path, "--spectrum"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jordanform: error: argument --spectrum: expected one argument\n"


@pytest.mark.parametrize("command", ["spectrum", *decomp.STAGES, "verify"])
def test_every_matrix_command_takes_the_shared_options(capsys, command):
    # Option lines only: argparse words its headings differently across versions.
    assert run([command, "--help"]) == EXIT_OK
    options = {line.strip().split("  ")[0] for line in capsys.readouterr().out.splitlines()
               if line.strip().startswith("--")}
    shared = {"--spectrum LAMBDAS", "--format {json,pretty}"}
    assert options == (shared | {"--check"} if command in decomp.STAGES else shared)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "jordan" in capsys.readouterr().out


def test_check_failure_maps_to_exit_code():
    # The honest pipeline never fails its own checks, so exercise the
    # translation directly.
    from jordanform import CheckReport, CheckResult

    failing = CheckReport((CheckResult("similarity", False, "A*V != V*M"),))
    assert not failing.passed
    assert EXIT_CHECK_FAILED == 3


# What the shape check says when each stage's blocks are listed in reverse.
REVERSED_SHAPE = {
    "schur": "diagonal entry is not its block's eigenvalue",
    "blockdiag": "a block less its eigenvalue is not nilpotent",
    "blocktri": "diagonal entry is not its block's eigenvalue",
    "jordan": "M is not the Jordan matrix of the declared blocks",
}


@pytest.mark.parametrize("fmt", ["json", "pretty"])
@pytest.mark.parametrize("command", ["verify", *decomp.STAGES])
def test_a_failing_check_is_reported_in_both_formats(tmp_path, monkeypatch, capsys, command, fmt):
    for kind, stage in list(decomp.STAGES.items()):
        def reversed_blocks(matrix, ladders, stage=stage):
            result = stage(matrix, ladders)
            return result._replace(blocks=result.blocks[::-1])

        monkeypatch.setitem(decomp.STAGES, kind, reversed_blocks)
    matrix, _expected = generate_case(parse_structure("1:2;2:2"), 3, 3)
    path = write_doc(tmp_path, "matrix.json", matrix)
    argv = [command, path, "--format", fmt] + ([] if command == "verify" else ["--check"])
    assert run(argv) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    kinds = list(decomp.STAGES) if command == "verify" else [command]
    if fmt == "json":
        doc = json.loads(out)
        reports = doc["reports"] if command == "verify" else [{"kind": command, **doc["check"]}]
        assert [report["kind"] for report in reports] == kinds
        for report in reports:
            failed = [check for check in report["checks"] if not check["passed"]]
            assert report["passed"] is False
            assert failed == [
                {"name": "shape", "passed": False, "detail": REVERSED_SHAPE[report["kind"]]}
            ]
    else:
        for kind in kinds:
            assert f"check shape: FAIL ({REVERSED_SHAPE[kind]})" in out
            if command == "verify":
                assert f"{kind}: FAIL\n" in out
                assert f"  check shape: FAIL ({REVERSED_SHAPE[kind]})" in out
        assert out.count("FAIL") == (2 * len(kinds) if command == "verify" else 1)
