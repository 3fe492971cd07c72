"""Bundled fixture discovery and the environment override."""
import json

import pytest
from goldens import output, run

from infoeval import MeasureId, evaluate, fixtures


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


def test_malformed_file_error_starts_with_its_path(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n0,x\n")
    with pytest.raises(ValueError) as info:
        fixtures.load(str(path))
    assert str(info.value) == f"{path}: line 2: non-numeric entry in '0,x'"


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
    assert fixtures.resolve("b") == tmp_path / "b.csv"
    (tmp_path / "a.csv").write_text("1,0\n0,1\n")
    assert fixtures.resolve("a") == tmp_path / "a.json"  # JSON before CSV
    assert fixtures.available() == ("a", "b")
    given = tmp_path / "a.json"
    assert fixtures.resolve(str(given)) == given


def test_load_picks_the_format_by_suffix(tmp_path):
    # CSV for a .csv suffix in any case, JSON for every other suffix
    upper = tmp_path / "M.CSV"
    upper.write_text("5,1\n2,7\n")
    other = tmp_path / "m.txt"
    other.write_text("[[5, 1], [2, 7]]")
    for path in (upper, other):
        (loaded,) = fixtures.load(str(path))
        assert loaded.counts == ((5, 1, 0), (2, 7, 0))
    other.write_text("5,1\n2,7\n")
    with pytest.raises(ValueError, match="malformed JSON"):
        fixtures.load(str(other))


def test_load_reads_csv_like_the_cli(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("pred1,pred2,reject\n90,3,2\n1,8,1\n")
    (loaded,) = fixtures.load(str(path))
    assert loaded.counts == ((90, 3, 2), (1, 8, 1))
    (printed,) = json.loads(
        output(["eval", str(path), "--measures", "NI2", "--format", "json", "--precision", "raw"])
    )
    assert printed["measures"]["NI2"] == evaluate(MeasureId.NI2, loaded).value


def test_csv_only_fixture_loads_by_stem(tmp_path, monkeypatch):
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    (tmp_path / "b.csv").write_text("90,3,2\n1,8,1\n")
    assert fixtures.available() == ("b",)
    (loaded,) = fixtures.load("b")
    assert loaded == fixtures.load("b.csv")[0]
    assert loaded.counts == ((90, 3, 2), (1, 8, 1))
    (printed,) = json.loads(output(["eval", "b", "--measures", "NI2", "--format", "json"]))
    assert printed["name"] == "M1"
    code, _, err = run("eval", "nothing")
    assert code == 1
    assert "available: b" in err
