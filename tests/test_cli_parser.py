"""The CLI builds its argument parser once per process.

Repeated in-process ``main`` calls must behave exactly like fresh
``python -m infoeval.cli`` processes: same stdout, stderr and exit
code, whatever ran before.
"""
import os
import subprocess
import sys
from pathlib import Path

from goldens import run

import infoeval.cli as cli

SRC = str(Path(cli.__file__).resolve().parents[1])

SEQUENCE = [
    ("eval", "binary_models", "--measures", "all"),
    ("rank", "three_class_models", "--measures", "information", "--round", "5"),
    ("omega", "--n", "100", "--d", "1"),
    ("eval", "binary_models", "--format", "yaml"),
    ("theorems", "class_share_study", "--format", "csv"),
    ("sweep", "--n", "100", "--d", "1"),
    ("eval", "reject_tradeoff", "--format", "markdown", "--measures", "NI2"),
]

HELP = [
    ("--help",),
    ("eval", "--help"),
    ("--version",),
    ("rank", "--round", "13"),
]


def fresh_process(argv, columns="80"):
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": columns}
    result = subprocess.run(
        [sys.executable, "-m", "infoeval.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    return result.returncode, result.stdout, result.stderr


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_successive_calls_match_fresh_processes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the usage error wraps to it
    for argv in SEQUENCE:
        assert run(*argv) == fresh_process(argv), argv


def test_help_version_and_usage_match_fresh_processes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in SEQUENCE[:2]:
        run(*argv)
    for argv in HELP:
        got = run(*argv)
        assert got == fresh_process(argv), argv
        assert got[0] == (1 if argv == HELP[-1] else 0)


def test_help_reads_the_terminal_width_each_time(monkeypatch):
    monkeypatch.setenv("COLUMNS", "132")
    wide = run("--help")
    monkeypatch.setenv("COLUMNS", "40")
    narrow = run("--help")
    assert narrow != wide
    assert narrow == fresh_process(["--help"], columns="40")


def test_monkeypatched_handler_dependency_after_warm_call(monkeypatch):
    assert run("eval", "binary_models")[0] == 0

    def explode(*args, **kwargs):
        raise cli.InvariantViolation("NI1 = 1.5 is outside [0, 1]")

    monkeypatch.setattr(cli, "evaluate_all", explode)
    code, out, err = run("eval", "binary_models")
    assert (code, out) == (2, "")
    assert err == "invariant violation: NI1 = 1.5 is outside [0, 1]\n"
