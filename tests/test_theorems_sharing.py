"""``theorems`` ranks each canonical (c1, c2, d) split once per call and
shares that ranking among the split's models, with output unchanged."""
import collections
import json

import pytest
from goldens import output, run

from infoeval import CanonicalKind, CanonicalModel, analysis


@pytest.fixture
def calls(monkeypatch):
    """Count canonical rankings and cross-over solves."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("rank_canonical", "crossover_omega"):
        monkeypatch.setattr(analysis, name, counting(name, getattr(analysis, name)))
    return counts


@pytest.mark.parametrize(
    "fixture, splits",
    [("binary_models", 1), ("class_share_study", 2)],
)
def test_one_ranking_and_one_solve_per_split(calls, fixture, splits):
    assert run("theorems", fixture, "--format", "json")[0] == 0
    assert calls["rank_canonical"] == splits
    assert calls["crossover_omega"] == splits


def _theorems(path):
    return json.loads(output(["theorems", str(path), "--format", "json", "--precision", "raw"]))


def test_splits_with_equal_n_and_d_are_kept_apart(tmp_path):
    # (80, 20, 5) and (90, 10, 5) share n = 100 and d = 5, hence omega,
    # but not p1, and p1 falls on either side of omega
    quads = [
        [(f"{kind.name}-{c1}", CanonicalModel(kind, c1, c2, 5).matrix().counts)
         for kind in CanonicalKind]
        for c1, c2 in ((80, 20), (90, 10))
    ]
    models = [model for pair in zip(*quads) for model in pair]
    models.insert(3, ("other", ((50, 3, 2), (4, 40, 1))))
    together = tmp_path / "together.json"
    together.write_text(json.dumps([{"name": name, "matrix": rows} for name, rows in models]))

    records = _theorems(together)
    assert [record["name"] for record in records] == [name for name, _ in models]
    assert sum(record["canonical"] is None for record in records) == 1
    canonical = [record["canonical"] for record in records if record["canonical"]]
    assert len({block["omega"] for block in canonical}) == 1
    assert len({block["p1"] for block in canonical}) == 2
    assert len({tuple(block["observed_order"]) for block in canonical}) == 2
    for (name, rows), record in zip(models, records):
        alone = tmp_path / f"{name}.json"
        alone.write_text(json.dumps([{"name": name, "matrix": rows}]))
        (expected,) = _theorems(alone)
        assert record == expected, name
