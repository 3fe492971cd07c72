"""The CLI's JSON renderer against ``json.dumps(indent=2)``, byte for byte."""
import json
import math
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoeval import SINGULAR
from infoeval.cli import _render, _singular_as_s


def render(tree, precision="raw", digits=3):
    args = SimpleNamespace(format="json", precision=precision, round=digits)
    return _render(args, tree, (), ())


def reference(tree):
    return json.dumps(tree, indent=2, default=_singular_as_s) + "\n"


def rounded(value, digits):
    """``value`` with every float rounded to ``digits``, containers rebuilt."""
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {key: rounded(item, digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(item, digits) for item in value]
    return value


# every code point, lone surrogates included
text = st.text(st.characters(exclude_categories=()))
leaves = st.one_of(
    text,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**300).flatmap(
        lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.5]),
    st.booleans(),
    st.none(),
    st.just(SINGULAR),
)
# lists, tuples and dicts nest to any depth and may be empty at any depth
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(text, children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_matches_json_dumps_raw_and_at_every_rounding(tree):
    assert render(tree) == reference(tree)
    for digits in range(13):
        assert render(tree, "fixed", digits) == reference(rounded(tree, digits))


@pytest.mark.parametrize("tree", [
    {1: "a"},
    {None: 0},
    {1.5: 0},
    {True: 0},
    [{"a": {"b": [{2: 3}]}}],
], ids=["int", "None", "float", "bool", "nested"])
def test_non_str_key_raises(tree):
    with pytest.raises(TypeError, match="keys must be str"):
        render(tree)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"S", 1j, Decimal("0.5")],
                         ids=["object", "set", "bytes", "complex", "Decimal"])
def test_unknown_type_raises(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        render({"rankings": [value]})
