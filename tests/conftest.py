import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

# With INFOEVAL_TEST_COVERAGE=1 the run fails unless every statement of
# src/infoeval runs in some test.  Tracing starts before the package is
# imported, so module-level statements count too.  The body of an
# ``if __name__ == "__main__":`` guard runs only in a subprocess and is
# exempt.
_COVERAGE = os.environ.get("INFOEVAL_TEST_COVERAGE") == "1"
_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "infoeval"
# co_filename -> lines run so far; None for a file outside the package
_executed: dict = {}


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _executed:
        _executed[name] = set() if Path(name).resolve().parent == _PACKAGE else None
    lines = _executed[name]
    if lines is None:
        return None

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines

    return trace_lines


def _statements(path: Path) -> set:
    """Lines of ``path`` that begin a statement with bytecode."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    exempt = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for child in node.body
        for line in range(child.lineno, child.end_lineno + 1)
    }
    with_code = set()
    codes = [compile(tree, str(path), "exec")]
    while codes:
        code = codes.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return (starts & with_code) - exempt


def _missed() -> dict:
    ran: dict = {}
    for name, lines in _executed.items():
        if lines:
            ran.setdefault(Path(name).resolve(), set()).update(lines)
    missed = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        lines = sorted(_statements(path) - ran.get(path, set()))
        if lines:
            missed[path.name] = lines
    return missed


if _COVERAGE:
    _report: dict = {}

    def pytest_sessionfinish(session):
        sys.settrace(None)
        threading.settrace(None)
        _report.update(_missed())
        if _report and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(terminalreporter):
        terminalreporter.section("statement coverage of src/infoeval")
        for name, lines in _report.items():
            terminalreporter.write_line(f"{name}: no test runs line(s) {lines}")
        if not _report:
            terminalreporter.write_line("every statement ran")

    threading.settrace(_trace)
    sys.settrace(_trace)

from infoeval import fixtures  # noqa: E402  (imported under the tracer)


def _by_name(stem):
    return {m.model_name: m for m in fixtures.load(stem)}


@pytest.fixture(scope="session")
def binary_models():
    """Six 2-class models on a 90/10 split, M1-M6."""
    return _by_name("binary_models")


@pytest.fixture(scope="session")
def class_share_models():
    """Canonical departures at 94/6 (a) and 95/5 (b) splits."""
    return _by_name("class_share_study")


@pytest.fixture(scope="session")
def three_class_models():
    """Nine 3-class single-departure models on an 80/15/5 split."""
    return _by_name("three_class_models")


@pytest.fixture(scope="session")
def reject_tradeoff_models():
    """Two models with equal rates but different reject placement."""
    return _by_name("reject_tradeoff")
