"""The per-matrix evaluation record computes each shared quantity once,
and only when a selected measure reads it, builds no distributions, and
its marginals need no simplex check."""
import collections
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoeval import CATALOG, AugmentedConfusionMatrix, MeasureId, evaluate, evaluate_all
from infoeval import measures

_KERNELS = ("_information_terms", "cross_entropy", "performance_summary")

_MATRICES = [
    ((90, 0, 0), (2, 8, 0)),
    ((85, 3, 2), (1, 7, 2)),
    ((0, 0, 5), (0, 0, 5)),
    ((70, 5, 3, 2), (1, 12, 1, 1), (0, 1, 3, 1)),
]


@pytest.fixture
def calls(monkeypatch):
    """Count the kernel calls measures makes, and distributions() builds."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in _KERNELS:
        monkeypatch.setattr(measures, name, counting(name, getattr(measures, name)))
    monkeypatch.setattr(
        AugmentedConfusionMatrix,
        "distributions",
        counting("distributions", AugmentedConfusionMatrix.distributions),
    )
    return counts


@pytest.mark.parametrize("rows", _MATRICES)
def test_full_catalog_computes_each_quantity_once(calls, rows):
    matrix = AugmentedConfusionMatrix.from_rows(rows)
    values = evaluate_all(matrix, CATALOG, strict=False)
    assert len(values) == len(CATALOG)
    assert calls["cross_entropy"] == 2  # H(T;Y) and H(Y;T)
    assert calls["_information_terms"] <= 1  # H(T,Y), I and I_M in one pass
    assert calls["performance_summary"] <= 1
    assert calls["distributions"] == 0  # the record reads the counts


@pytest.mark.parametrize("rows", _MATRICES)
def test_single_ni2_reads_only_what_it_needs(calls, rows):
    evaluate(MeasureId.NI2, AugmentedConfusionMatrix.from_rows(rows))
    assert calls["_information_terms"] == 1  # I_M
    assert calls["cross_entropy"] == 0
    assert calls["performance_summary"] == 0
    assert calls["distributions"] == 0


@st.composite
def valid_matrices(draw):
    """Up to 50 classes, counts of up to 238 bits, so totals below 2**250."""
    m = draw(st.integers(2, 50))
    rnd = random.Random(draw(st.integers(0, 2**32)))  # fast draws of 2550 counts
    bits = draw(st.integers(1, 238))
    rows = [[rnd.getrandbits(rnd.randint(0, bits)) for _ in range(m + 1)] for _ in range(m)]
    for row in rows:
        row[rnd.randrange(m + 1)] += 1  # no empty class
    return AugmentedConfusionMatrix(rows)


@settings(max_examples=200, deadline=None)
@given(valid_matrices())
def test_marginals_are_simplices_without_a_check(matrix):
    # the bound _Record's docstring proves: one rounding per share
    d = matrix.distributions()
    for marginal in (d.row_marginal, d.col_marginal):
        assert min(marginal) >= 0.0
        assert abs(math.fsum(marginal) - 1.0) <= 2**-53
