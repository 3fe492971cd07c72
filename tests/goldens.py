"""The CLI output goldens in ``golden/``, each with the argv that writes it.

``GOLDENS`` maps each output golden to its ``infoeval`` command line:

* ``eval --measures all``, ``rank --measures information`` and
  ``theorems`` on every bundled fixture, and ``omega`` and ``sweep`` at
  n = 100, d = 1, each as raw JSON (``.json``: ``--format json
  --precision raw``) and in the default fixed precision as markdown
  (``.md``), CSV (``.csv``) and JSON (``.fixed.json``);
* ``eval`` and ``rank`` with ``--measures all`` on
  ``degenerate_models.json`` as raw JSON.  These are matrices whose
  ratios meet a zero or infinite denominator (every sample rejected,
  one predicted column, a cross entropy near 0 or infinite, an empty
  predicted class, no error); the file is not a bundled fixture.

``run`` calls ``cli.main`` in-process and returns its exit code, stdout
and stderr; the tests make every captured in-process call through it.

``tests/test_golden.py`` runs the same table under pytest.  Check every
golden with the standard library alone, on any interpreter::

    PYTHONPATH=src python tests/goldens.py

It prints each mismatch and exits 1 if there is one.  Regenerate a
golden with its argv, for example::

    python -m infoeval.cli eval binary_models --measures all \\
        --format json --precision raw > tests/golden/eval_binary_models.json

and review the diff: any change to a value is a change of behaviour.
"""
import contextlib
import io
import sys
from pathlib import Path

from infoeval import fixtures
from infoeval.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEGENERATE = Path(__file__).parent / "degenerate_models.json"

_RAW = ("--format", "json", "--precision", "raw")
_FORMATS = {
    "json": _RAW,
    "md": ("--format", "markdown"),
    "csv": ("--format", "csv"),
    "fixed.json": ("--format", "json"),
}
_COMMANDS = {
    **{
        f"{command}_{fixture}": (command, fixture, *options)
        for command, options in (
            ("eval", ("--measures", "all")),
            ("rank", ("--measures", "information")),
            ("theorems", ()),
        )
        for fixture in fixtures.available()
    },
    **{f"{command}_n100_d1": (command, "--n", "100", "--d", "1") for command in ("omega", "sweep")},
}

# golden file name -> argv of the command that writes it
GOLDENS = {
    **{
        f"{stem}.{suffix}": (*argv, *options)
        for stem, argv in _COMMANDS.items()
        for suffix, options in _FORMATS.items()
    },
    **{
        f"{command}_degenerate_models.json": (command, str(DEGENERATE), "--measures", "all", *_RAW)
        for command in ("eval", "rank")
    },
}


def run(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``infoeval`` run.

    argparse ends ``--help``, ``--version`` and a usage error in
    SystemExit; its code is the status ``python -m infoeval.cli`` exits
    with.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def output(argv) -> str:
    """The stdout of one ``infoeval`` run, which must exit 0."""
    code, out, err = run(*argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.strip()}")
    return out


def mismatches() -> list[str]:
    """One line for each golden that its command no longer writes."""
    lines = []
    for name, argv in GOLDENS.items():
        try:
            matched = output(argv) == (GOLDEN / name).read_text(encoding="utf-8")
        except Exception as exc:  # a run that fails is a mismatch too
            lines.append(f"{name}: {exc}")
            continue
        if not matched:
            lines.append(f"{name}: output of `infoeval {' '.join(argv)}` differs")
    return lines


if __name__ == "__main__":
    failed = mismatches()
    for line in failed:
        print(f"mismatch: {line}")
    print(f"{len(GOLDENS) - len(failed)} of {len(GOLDENS)} goldens match")
    sys.exit(1 if failed else 0)
