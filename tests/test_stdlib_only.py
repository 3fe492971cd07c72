"""The runtime imports nothing outside the standard library, and the
CLI imports none of the standard modules that only slow its start, nor
the package modules that its command does not run.

numpy and scipy are test dependencies (the reference checks use them),
so an accidental runtime import would pass unnoticed in-process; a
fresh interpreter shows it.  Only the two reference modules import
them, so the rest of the tests run on an interpreter without them.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

# the star import loads analysis and ranking, which load on first access
PROBE = (
    "import infoeval.cli, sys; from infoeval import *; "
    "print(' '.join(sorted({'numpy', 'scipy'} & set(sys.modules))))"
)


def test_runtime_imports_neither_numpy_nor_scipy():
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""


def _imported_packages(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_only_the_reference_modules_import_numpy_or_scipy():
    importers = {
        path.name
        for path in Path(__file__).parent.glob("*.py")
        if {"numpy", "scipy"} & set(_imported_packages(path))
    }
    assert importers == {"test_acceptance.py", "test_reference.py"}


# dataclasses pulls in inspect, ast, dis and tokenize; none of them, nor
# typing, is needed to start the CLI, nor graphlib, which only MetaOrder uses
STARTUP_FREE = ("ast", "dataclasses", "dis", "graphlib", "inspect", "tokenize", "typing")


def _fresh(code):
    """What ``code`` prints to stderr after ``import infoeval.cli`` in a
    fresh interpreter that sees only the standard library and ``src``."""
    # -I ignores PYTHONDONTWRITEBYTECODE; -B keeps the checkout free of __pycache__
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c",
         f"import sys; sys.path.insert(0, {src!r}); import infoeval.cli\n{code}"],
        capture_output=True, text=True, check=True,
    )
    return result.stderr.strip()


def _loaded(names):
    return f"print(' '.join(sorted(set({names!r}) & set(sys.modules))), file=sys.stderr)"


def test_cli_import_leaves_out_the_costly_stdlib_modules():
    assert _fresh(_loaded(STARTUP_FREE)) == ""


# a command compiles and runs only the package modules it uses, and none
# of them needs the csv module
LAZY = ("csv", "infoeval.analysis", "infoeval.ranking")


@pytest.mark.parametrize("argv, loaded", [
    (None, ""),
    (["eval", "binary_models", "--measures", "all"], ""),
    (["rank", "binary_models", "--measures", "all"], "infoeval.ranking"),
    (["theorems", "binary_models"], "infoeval.analysis"),
    (["omega", "--n", "100", "--d", "1"], "infoeval.analysis"),
    (["sweep", "--n", "100", "--d", "1"], "infoeval.analysis"),
], ids=["import", "eval", "rank", "theorems", "omega", "sweep"])
def test_a_command_loads_only_the_modules_it_runs(argv, loaded):
    run = "" if argv is None else f"assert infoeval.cli.main({argv!r}) == 0\n"
    assert _fresh(run + _loaded(LAZY)) == loaded
