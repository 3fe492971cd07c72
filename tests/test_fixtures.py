"""Bundled fixture discovery and the environment override."""
import json

import pytest

from infoeval import fixtures


def test_available_lists_bundled_sets():
    names = fixtures.available()
    assert set(names) >= {
        "binary_models", "class_share_study", "three_class_models",
        "reject_tradeoff",
    }
    assert names == tuple(sorted(names))


def test_load_by_stem_and_by_file_name():
    by_stem = fixtures.load("binary_models")
    by_file = fixtures.load("binary_models.json")
    assert [m.model_name for m in by_stem] == ["M1", "M2", "M3", "M4", "M5", "M6"]
    assert by_stem == by_file


def test_load_by_path(tmp_path):
    path = tmp_path / "mine.json"
    path.write_text(json.dumps([{"name": "x", "matrix": [[1, 0], [0, 1]]}]))
    (loaded,) = fixtures.load(str(path))
    assert loaded.model_name == "x"


def test_unknown_fixture_lists_choices():
    with pytest.raises(ValueError, match="binary_models"):
        fixtures.load("no_such_fixture")


def test_environment_override(tmp_path, monkeypatch):
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps([[1, 0], [0, 1]]))
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    assert fixtures.fixtures_dir() == tmp_path
    assert fixtures.available() == ("custom",)
    (loaded,) = fixtures.load("custom")
    assert loaded.counts == ((1, 0, 0), (0, 1, 0))


def test_resolve_order(tmp_path, monkeypatch):
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    (tmp_path / "a.json").write_text("[[1, 0], [0, 1]]")
    (tmp_path / "b.csv").write_text("1,0\n0,1\n")
    assert fixtures.resolve("a") == tmp_path / "a.json"
    assert fixtures.resolve("a.json") == tmp_path / "a.json"
    assert fixtures.resolve("b.csv") == tmp_path / "b.csv"
    given = tmp_path / "a.json"
    assert fixtures.resolve(str(given)) == given
