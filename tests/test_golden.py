"""Byte-exact CLI output on the bundled fixtures, and agreement between
the single-measure, selection and CLI paths to the measure values.

``goldens.GOLDENS`` maps each output golden under ``golden/`` to the
command that writes it; its docstring says how to regenerate one.

``help_omega.txt`` and ``help_sweep.txt`` hold ``omega --help`` and
``sweep --help`` at ``COLUMNS=80``; ``eval`` and ``rank`` help is left
out, because Python 3.13 formats option aliases differently.
"""
import json

import pytest
from goldens import GOLDEN, GOLDENS, output, run
from hypothesis import given, settings
from hypothesis import strategies as st

from infoeval import CATALOG, AugmentedConfusionMatrix, evaluate, evaluate_all


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_golden(name):
    assert output(GOLDENS[name]) == (GOLDEN / name).read_text()


def test_each_golden_is_checked_once():
    on_disk = {path.name for path in GOLDEN.iterdir()} - {"help_omega.txt", "help_sweep.txt"}
    assert set(GOLDENS) == on_disk
    assert len(GOLDENS) == 58


@pytest.mark.parametrize("command", ["omega", "sweep"])
def test_help_matches_golden(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
    assert run(command, "--help") == (0, (GOLDEN / f"help_{command}.txt").read_text(), "")


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


@settings(max_examples=20, deadline=None)
@given(competing_models())
def test_cli_rank_values_equal_eval_values(tmp_path_factory, models):
    path = tmp_path_factory.mktemp("models") / "models.json"
    path.write_text(json.dumps([[list(row) for row in x.counts] for x in models]))
    options = ["--measures", "information", "--format", "json", "--precision", "raw"]
    evaluated = {
        (entry["name"], measure): value
        for entry in json.loads(output(["eval", str(path), *options]))
        for measure, value in entry["measures"].items()
    }
    ranked = {
        (entry["name"], ranking["measure"]): entry["value"]
        for ranking in json.loads(output(["rank", str(path), *options]))["rankings"]
        for entry in ranking["models"]
    }
    assert ranked == evaluated
