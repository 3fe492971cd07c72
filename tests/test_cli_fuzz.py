"""Fuzzing ``cli.main`` in-process: any input gets exit 0 or 1.

Inputs are arbitrary text, arbitrary JSON trees (nested lists and
objects, bools, NaN and infinities, huge integers, strings), mostly
well-formed count tables, and CSV lines, run through ``eval``, ``rank``
and ``theorems`` in every format and both precision modes.  ``omega``
and ``sweep`` get arbitrary text for ``--n``, ``--d`` and ``--step``,
and ``omega`` answers every valid n > 2d.  No call may raise, and a
message on stderr comes with exit 1 only; no input may exit 2.
"""
import json

import pytest
from goldens import run
from hypothesis import given, settings
from hypothesis import strategies as st

COMMANDS = ("eval", "rank", "theorems")
FORMATS = ("markdown", "csv", "json")
PRECISIONS = ("fixed", "raw")

small = st.integers(0, 9) | st.integers(0, 10**6)
huge = st.integers(2**20, 2**250) | st.sampled_from([2**254, 2**255])
counts = st.one_of(small, small, small, huge)  # repeated branches weigh more
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
json_trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.sampled_from(["name", "matrix", "x"]) | st.text(max_size=4),
                        children, max_size=3),
    ),
    max_leaves=20,
)


def tables(cell, rows, width):
    return st.lists(st.lists(cell, min_size=width, max_size=width),
                    min_size=rows, max_size=rows)


def batches(m, width):
    """Mostly well-formed input: one to four count tables, some named,
    now and then with a stray cell or a wrong number of rows."""
    good = tables(small, m, width)
    table = st.one_of(
        good, good, good,
        tables(counts, m, width),
        tables(counts | leaves, m, width),
        st.lists(st.lists(counts, min_size=width, max_size=width), max_size=m + 1),
    )
    named = st.builds(lambda name, value: {"name": name, "matrix": value},
                      st.text(max_size=4) | st.none(), table)
    return st.lists(table | named, min_size=1, max_size=4).map(
        lambda models: models[0] if len(models) == 1 else models
    )


matrices = st.one_of([batches(m, width) for m in (2, 3, 4) for width in (m, m + 1)])


csv_cells = st.one_of(counts.map(str), counts.map(str), leaves.map(str))
csv_text = st.one_of(
    st.lists(st.lists(csv_cells, min_size=1, max_size=5), max_size=5),
    st.integers(2, 4).flatmap(lambda m: tables(csv_cells, m, m + 1)),
).map(lambda rows: "\n".join(",".join(row) for row in rows))
options = st.tuples(st.sampled_from(FORMATS), st.sampled_from(PRECISIONS))

@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_all_commands(directory, text, suffix, fmt, precision):
    path = directory / f"input{suffix}"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    for command in COMMANDS:
        code, _, message = run(command, str(path), "--format", fmt, "--precision", precision)
        assert code in (0, 1), (command, code, message)
        assert (code == 0) == (message == ""), (command, message)


@settings(max_examples=100, deadline=None)
@given(st.text(), st.sampled_from([".json", ".csv"]), options)
def test_arbitrary_text(input_dir, text, suffix, opts):
    run_all_commands(input_dir, text, suffix, *opts)


@settings(max_examples=200, deadline=None)
@given(json_trees | matrices, options)
def test_json_trees(input_dir, tree, opts):
    run_all_commands(input_dir, json.dumps(tree), ".json", *opts)


@settings(max_examples=100, deadline=None)
@given(csv_text, options)
def test_csv_lines(input_dir, text, opts):
    run_all_commands(input_dir, text, ".csv", *opts)


counts_text = st.text() | st.integers(-5, 2**256).map(str)
# --step at least 1e-3 keeps a sweep to 500 grid points
step_text = st.text() | st.floats(1e-3, 1.0).map(repr)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["omega", "sweep"]), counts_text, counts_text, step_text, options)
def test_count_options_arbitrary_text(command, n, d, step, opts):
    argv = [command, "--n", n, "--d", d, "--format", opts[0], "--precision", opts[1]]
    code, _, message = run(*argv, *(["--step", step] if command == "sweep" else []))
    assert code in (0, 1), (argv, code, message)
    assert (code == 0) == (message == ""), (argv, message)


@st.composite
def valid_splits(draw):
    """n > 2d > 0 with n below 2**255, the bound on every count."""
    d = draw(st.integers(1, 1000) | st.integers(1, 2**254 - 1))
    return draw(st.integers(2 * d + 1, 2**255 - 1)), d


@settings(max_examples=100, deadline=None)
@given(valid_splits())
def test_omega_answers_every_valid_split(split):
    n, d = split
    code, out, err = run("omega", "--n", str(n), "--d", str(d),
                         "--format", "json", "--precision", "raw")
    assert (code, err) == (0, ""), split
    assert 0.5 < json.loads(out)["omega"] < 1.0, split
