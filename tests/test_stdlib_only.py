"""The runtime imports nothing outside the standard library.

numpy and scipy are test dependencies (the reference checks use them),
so an accidental runtime import would pass unnoticed in-process; a
fresh interpreter shows it.
"""
import subprocess
import sys

PROBE = (
    "import infoeval, infoeval.cli, sys; "
    "print(' '.join(sorted({'numpy', 'scipy'} & set(sys.modules))))"
)


def test_runtime_imports_neither_numpy_nor_scipy():
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""
