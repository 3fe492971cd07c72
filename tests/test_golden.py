"""Byte-exact CLI output on the bundled fixtures, and agreement between
the single-measure, selection and CLI paths to the measure values.

The files under ``golden/`` hold the ``--format json --precision raw``
output of ``eval --measures all``, ``rank --measures information`` and
``theorems`` for every bundled fixture, and of ``omega`` and ``sweep``
at n = 100, d = 1.  Regenerate one with, e.g.::

    python -m infoeval.cli eval binary_models --measures all \\
        --format json --precision raw > tests/golden/eval_binary_models.json

and review the diff: any change to a value is a change of behaviour.

The same commands, plus ``omega`` and ``sweep`` at n = 100, d = 1, are
also pinned in the default fixed precision as markdown (``.md``), CSV
(``.csv``) and JSON (``.fixed.json``); for example
``eval_binary_models.csv`` is the output of::

    python -m infoeval.cli eval binary_models --measures all --format csv

``eval_degenerate_models.json`` and ``rank_degenerate_models.json``
pin ``eval`` and ``rank`` with ``--measures all`` on
``degenerate_models.json``, matrices whose ratios meet a zero or
infinite denominator (every sample rejected, one predicted column, a
cross entropy near 0 or infinite, an empty predicted class, no
error).  It is not a bundled fixture.  Regenerate with::

    python -m infoeval.cli eval tests/degenerate_models.json --measures all \\
        --format json --precision raw > tests/golden/eval_degenerate_models.json

and the same with ``rank``.

``help_omega.txt`` and ``help_sweep.txt`` hold ``omega --help`` and
``sweep --help`` at ``COLUMNS=80``; ``eval`` and ``rank`` help is left
out, because Python 3.13 formats option aliases differently.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoeval import CATALOG, AugmentedConfusionMatrix, evaluate, evaluate_all, fixtures
from infoeval.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEGENERATE = Path(__file__).parent / "degenerate_models.json"

COMMANDS = {
    "eval": ("--measures", "all"),
    "rank": ("--measures", "information"),
    "theorems": (),
}


@pytest.mark.parametrize("fixture", fixtures.available())
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_matches_golden(capsys, command, fixture):
    argv = [command, fixture, *COMMANDS[command], "--format", "json", "--precision", "raw"]
    assert main(argv) == 0
    expected = (GOLDEN / f"{command}_{fixture}.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["eval", "rank"])
def test_degenerate_output_matches_golden(capsys, command):
    argv = [command, str(DEGENERATE), "--measures", "all", "--format", "json", "--precision", "raw"]
    assert main(argv) == 0
    expected = (GOLDEN / f"{command}_degenerate_models.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["omega", "sweep"])
def test_raw_solver_output_matches_golden(capsys, command):
    argv = [command, "--n", "100", "--d", "1", "--format", "json", "--precision", "raw"]
    assert main(argv) == 0
    expected = (GOLDEN / f"{command}_n100_d1.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["omega", "sweep"])
def test_help_matches_golden(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / f"help_{command}.txt").read_text()


FIXED_FORMATS = {"md": "markdown", "csv": "csv", "fixed.json": "json"}
FIXED_CASES = [
    (f"{command}_{fixture}", (command, fixture, *options))
    for command, options in sorted(COMMANDS.items())
    for fixture in fixtures.available()
] + [
    (f"{command}_n100_d1", (command, "--n", "100", "--d", "1"))
    for command in ("omega", "sweep")
]


@pytest.mark.parametrize("suffix", sorted(FIXED_FORMATS))
@pytest.mark.parametrize("stem, argv", FIXED_CASES, ids=[s for s, _ in FIXED_CASES])
def test_fixed_precision_output_matches_golden(capsys, stem, argv, suffix):
    assert main([*argv, "--format", FIXED_FORMATS[suffix]]) == 0
    expected = (GOLDEN / f"{stem}.{suffix}").read_text()
    assert capsys.readouterr().out == expected


@st.composite
def mixed_scale_matrices(draw, m=None):
    """m <= 6 with counts from 0 up to 10**6 mixed within one matrix."""
    if m is None:
        m = draw(st.integers(2, 6))
    count = st.one_of(st.just(0), st.integers(1, 9), st.integers(10, 10**6))
    row = st.lists(count, min_size=m + 1, max_size=m + 1).filter(any)
    return AugmentedConfusionMatrix(tuple(tuple(draw(row)) for _ in range(m)))


def _values(items):
    return [item.value for item in items]


@settings(max_examples=60, deadline=None)
@given(mixed_scale_matrices(), st.data())
def test_one_path_to_the_values(matrix, data):
    information = CATALOG[:24]
    full = evaluate_all(matrix)
    assert _values(full) == [evaluate(m, matrix).value for m in information]
    subset = data.draw(st.lists(st.sampled_from(information), min_size=1, unique=True))
    by_measure = dict(zip(information, _values(full)))
    picked = sorted(subset, key=information.index)
    assert _values(evaluate_all(matrix, subset)) == [by_measure[m] for m in picked]


@st.composite
def competing_models(draw):
    m = draw(st.integers(2, 6))
    return draw(st.lists(mixed_scale_matrices(m), min_size=2, max_size=4))


def _run(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return json.loads(buffer.getvalue())


@settings(max_examples=20, deadline=None)
@given(competing_models())
def test_cli_rank_values_equal_eval_values(tmp_path_factory, models):
    path = tmp_path_factory.mktemp("models") / "models.json"
    path.write_text(json.dumps([[list(row) for row in x.counts] for x in models]))
    options = ["--measures", "information", "--format", "json", "--precision", "raw"]
    evaluated = {
        (entry["name"], measure): value
        for entry in _run(["eval", str(path), *options])
        for measure, value in entry["measures"].items()
    }
    ranked = {
        (entry["name"], ranking["measure"]): entry["value"]
        for ranking in _run(["rank", str(path), *options])["rankings"]
        for entry in ranking["models"]
    }
    assert ranked == evaluated
