"""The runtime imports nothing outside the standard library, and the
CLI imports none of the standard modules that only slow its start.

numpy and scipy are test dependencies (the reference checks use them),
so an accidental runtime import would pass unnoticed in-process; a
fresh interpreter shows it.
"""
import subprocess
import sys
from pathlib import Path

PROBE = (
    "import infoeval, infoeval.cli, sys; "
    "print(' '.join(sorted({'numpy', 'scipy'} & set(sys.modules))))"
)


def test_runtime_imports_neither_numpy_nor_scipy():
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""


# dataclasses pulls in inspect, ast, dis and tokenize; none of them, nor
# typing, is needed to start the CLI, nor graphlib, which only MetaOrder uses
STARTUP_FREE = ("ast", "dataclasses", "dis", "graphlib", "inspect", "tokenize", "typing")


def test_cli_import_leaves_out_the_costly_stdlib_modules():
    # -I ignores PYTHONDONTWRITEBYTECODE; -B keeps the checkout free of __pycache__
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import infoeval.cli; "
        f"print(' '.join(sorted(set({STARTUP_FREE!r}) & set(sys.modules))))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", probe],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == ""
