"""What one command-line call imports, and the lazy package namespace."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jordanform
from jordanform import (
    Basis,
    CheckReport,
    CheckResult,
    Decomposition,
    JordanChain,
    JordanStructure,
    Spectrum,
    SpectrumEntry,
    StageLadder,
    jordan_decomposition,
    stage_ladder,
)
from jordanform.cli import matrix_to_document

from conftest import DENSE3, gr

SRC = Path(jordanform.__file__).resolve().parent.parent

# Run in a new interpreter: records what ``import jordanform.cli`` adds to a
# bare interpreter's modules, then imports the rest of the package and
# lists every package module that binds a function the benchmark wraps.
FOOTPRINT = """
import sys
bare = set(sys.modules)
import jordanform.cli
added = set(sys.modules) - bare
import json
import jordanform.verify
binders = sorted(
    name for name, module in sys.modules.items()
    if name.startswith("jordanform.")
    and any(key in vars(module) for key in ("spectrum_with_ladders", "poly_roots_exact"))
)
print(json.dumps({"added": sorted(added), "binders": binders}))
"""


@pytest.fixture(scope="module")
def footprint():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout)


def test_cli_import_leaves_out_dataclasses_and_verify(footprint):
    added = set(footprint["added"])
    assert "jordanform.cli" in added
    assert "dataclasses" not in added
    assert "jordanform.verify" not in added


NUMBER_MODULES = {"fractions", "decimal", "numbers"}

# Run spectrum, jordan and verify in one new interpreter, in process through
# ``cli.run``, and print their exit codes and the number modules loaded.
NUMBERS = """
import contextlib, io, sys
from jordanform import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run([command, sys.argv[1]]) for command in ("spectrum", "jordan", "verify")]
print(codes, sorted(m for m in ("fractions", "decimal", "numbers") if m in sys.modules))
"""


def test_matrix_commands_leave_out_the_standard_number_modules(tmp_path):
    # Neither importing the CLI nor running it loads them.  The matrix has a
    # JSON integer entry, a rational entry, and the Krylov factor z^2 + 1 (e_2
    # and e_3 rotate into each other), so root finding searches a factor of
    # degree 2.
    path = tmp_path / "matrix.json"
    path.write_text('{"n": 3, "entries": [[2, "1/2", "0"], ["0", "0", "-1"], ["0", "1", "0"]]}')
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", NUMBERS, str(path)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "[0, 0, 0] []\n"


def test_only_scalars_imports_fractions():
    # GaussianRational is the package's one number type: only scalars.py
    # imports fractions, for the Fractions that cross the public API.
    importers = set()
    for path in sorted((SRC / "jordanform").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] in NUMBER_MODULES for name in names):
                importers.add(path.name)
    assert importers == {"scalars.py"}


def test_cli_import_loads_every_module_that_binds_a_wrapped_function(footprint):
    assert footprint["binders"]
    assert set(footprint["binders"]) <= set(footprint["added"])


# Run one command in a new interpreter, in process through ``cli.run``, and
# print its exit code and whether it loaded jordanform.verify and random.
COMMAND = """
import contextlib, io, sys
from jordanform import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(code, "jordanform.verify" in sys.modules, "random" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads_verify", [
    (["spectrum", "{path}"], False),
    (["jordan", "{path}"], False),
    (["schur", "{path}"], False),
    (["jordan", "{path}", "--check"], True),
    (["verify", "{path}"], True),
    (["gen", "--structure", "0:2,1"], True),
])
def test_only_checks_and_gen_load_verify(argv, loads_verify, tmp_path):
    # Only gen draws random numbers, so only gen loads random.  -S skips
    # site-packages, whose .pth files may import random at every start.
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_to_document(DENSE3)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", COMMAND, *[arg.format(path=path) for arg in argv]],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == f"0 {loads_verify} {argv[0] == 'gen'}\n"


# Run verify in process through ``cli.run`` and print its exit code and every
# loaded module that is neither the package, __main__ nor the standard library.
STANDARD_ONLY = """
import contextlib, io, sys
import jordanform.cli, jordanform.verify
with contextlib.redirect_stdout(io.StringIO()):
    code = jordanform.cli.run(["verify", sys.argv[1]])
print(code, sorted(
    name for name in sys.modules
    if name != "__main__" and name.partition(".")[0] not in {"jordanform", *sys.stdlib_module_names}
))
"""


def test_the_package_runs_on_the_standard_library_alone(tmp_path):
    # pyproject.toml declares no dependencies: under -S no site-packages
    # module can be found, and none may be loaded.
    path = tmp_path / "matrix.json"
    path.write_text('{"n": 3, "entries": [["1i", "1", "0"], ["0", "1i", "0"], ["1/2", "0", "-1"]]}')
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", STANDARD_ONLY, str(path)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "0 []\n"


def test_spectral_runs_without_loading_decomp():
    # The stage ladders live in spectral, so finding a spectrum needs no decomp.
    script = (
        "import sys\n"
        "from jordanform.matrices import ExactMatrix\n"
        "from jordanform.spectral import spectrum\n"
        "print(len(spectrum(ExactMatrix([[2, 1], [0, 2]])).entries))\n"
        "print('jordanform.decomp' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "1\nFalse\n"


def private_imports(owner):
    """Each import of an underscore name from the package module owner, by
    a module other than owner."""
    offences = []
    for path in sorted((SRC / "jordanform").glob("*.py")):
        if path.stem == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(owner):
                offences += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names if alias.name.startswith("_")
                ]
    return offences


def test_the_packed_row_format_stays_inside_matrices():
    # Only matrices.py knows packed rows: no other module imports its private
    # helpers, reads Echelon.packed, ExactMatrix._data or the packed rows of a
    # Basis (Basis._rows), or calls ExactMatrix._trusted, which takes packed
    # rows; scalar tables go through the public constructor.  Likewise the
    # stages are reached through decomp.STAGES, not by private name.
    offences = private_imports("matrices") + private_imports("decomp")
    for path in sorted((SRC / "jordanform").glob("*.py")):
        if path.name == "matrices.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in (
                "packed", "_data", "_rows", "_trusted"
            ):
                offences.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert offences == []


def test_the_gaussian_integer_pair_lists_stay_inside_polynomials():
    # Only polynomials.py sees polynomials over Z[i] as lists of (re, im) int
    # pairs: no other module imports its private helpers.
    assert private_imports("polynomials") == []


DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}


def integer_rule_spellings(tree):
    """Where a parsed module spells the integer rule itself: bool passed to
    isinstance, a str digit test (isdigit, isdecimal, isnumeric), or the
    pattern [0-9]."""
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1:]
            kinds = kinds[0].elts if kinds and isinstance(kinds[0], ast.Tuple) else kinds
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                offences.append(f"{node.lineno} passes bool to isinstance")
        elif isinstance(node, ast.Attribute) and node.attr in DIGIT_TESTS:
            offences.append(f"{node.lineno} uses {node.attr}")
        elif isinstance(node, ast.Constant) and "[0-9]" in str(node.value):
            offences.append(f"{node.lineno} spells [0-9]")
    return offences


def test_the_integer_rule_stays_inside_scalars():
    # What an integer argument is (scalars.is_int: an int, never a bool) and
    # what the digits of an integer in text are (scalars.DIGITS: ASCII only)
    # are decided in scalars.py alone; every other module uses those two.
    offences = []
    for path in sorted((SRC / "jordanform").glob("*.py")):
        if path.name != "scalars.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offences += [f"{path.name}:{where}" for where in integer_rule_spellings(tree)]
    assert offences == []


@pytest.mark.parametrize("source", [
    "isinstance(n, bool)",
    "isinstance(n, (int, bool))",
    "text.isdigit()",
    "str.isdecimal",
    "text.isnumeric()",
    're.fullmatch("-?[0-9]+", text)',
])
def test_the_integer_rule_check_sees_each_spelling(source):
    assert len(integer_rule_spellings(ast.parse(source))) == 1


def assertions(tree):
    """Where a module asserts or names AssertionError, by line."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "AssertionError"
        or isinstance(node, ast.Attribute) and node.attr == "AssertionError"
    ]


def test_the_package_neither_asserts_nor_raises_assertion_error():
    # python -O strips assert statements, and the CLI maps only the package's
    # typed errors to exit codes: a broken invariant is an
    # InternalInvariantViolation (exit 4).
    offences = [
        f"{path.name}:{line}"
        for path in sorted((SRC / "jordanform").glob("*.py"))
        for line in assertions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offences == []


@pytest.mark.parametrize("source", [
    "assert n > 0",
    'raise AssertionError("unreachable")',
    "try:\n    f()\nexcept AssertionError:\n    pass",
    "builtins.AssertionError",
])
def test_the_assertion_check_sees_each_spelling(source):
    assert len(assertions(ast.parse(source))) == 1


def test_no_package_line_is_longer_than_99_characters():
    offences = [
        f"{path.name}:{number} has {len(line)} characters"
        for path in sorted((SRC / "jordanform").glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert offences == []


def calls_itself(function, owners):
    """Whether ``function`` calls its own name: as a bare name when ``owners``
    is empty, or else as an attribute of one of ``owners`` (a method's first
    argument and its class)."""
    for node in ast.walk(function):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name) and not owners:
            name = func.id
        elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in owners:
            name = func.attr
        else:
            continue
        if name == function.name:
            return True
    return False


def test_no_function_in_the_package_calls_itself():
    # Inputs reach n = 1000 (verify.MAX_GENERATED_N), so a recursion whose
    # depth grew with n would meet Python's default limit of 1000 frames.
    offences = []
    for path in sorted((SRC / "jordanform").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [(node, ()) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            functions += [
                (node, {cls.name, *(arg.arg for arg in node.args.args[:1])})
                for node in cls.body if isinstance(node, ast.FunctionDef)
            ]
        offences += [
            f"{path.name}:{node.lineno} {node.name}"
            for node, owners in functions if calls_itself(node, owners)
        ]
    assert offences == []


def test_every_public_name_resolves():
    namespace = {}
    exec("from jordanform import *", namespace)
    listed = set(dir(jordanform))
    for name in jordanform.__all__:
        assert getattr(jordanform, name) is namespace[name]
        assert name in listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'jordanform' has no attribute 'no_such_name'"):
        jordanform.no_such_name
    assert not hasattr(jordanform, "gaussian_sqrt")


def test_result_types_refuse_attribute_assignment():
    decomposition = jordan_decomposition(DENSE3)
    ladder = stage_ladder(DENSE3, gr("3"))
    instances = [
        Basis(2, ()),
        ladder,
        JordanChain(gr("3"), ladder.top.vectors[:1]),
        decomposition,
        Spectrum((SpectrumEntry(gr("3"), 3, 1, 3),)),
        CheckReport((CheckResult("trace", True, ""),)),
        JordanStructure(((gr("0"), (2, 1)),)),
    ]
    assert {type(x) for x in instances} == {
        Basis, StageLadder, JordanChain, Decomposition, Spectrum, CheckReport, JordanStructure
    }
    for instance in instances:
        with pytest.raises(AttributeError):
            setattr(instance, type(instance)._fields[0], None)
        with pytest.raises(AttributeError):
            instance.extra = None
