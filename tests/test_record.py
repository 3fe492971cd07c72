"""The per-matrix evaluation record computes each shared quantity once,
and only when a selected measure reads it, builds no distributions, and
its marginals need no simplex check.  Each NI value it yields is its
formula's value snapped to [0, 1]."""
import collections
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoeval import (
    CATALOG,
    SINGULAR,
    AugmentedConfusionMatrix,
    MeasureId,
    evaluate,
    evaluate_all,
)
from infoeval import infocore, measures
from infoeval.measures import InvariantViolation, _Record, _snap_unit

_KERNELS = (
    (measures, "_information_terms"),
    (measures, "_cross_entropy"),
    (measures, "performance_summary"),
    # the directed divergences that a _Pair keeps
    (infocore, "_kl"),
    (infocore, "_chi_squared"),
)

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

    for module, name in _KERNELS:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
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
    assert calls["_cross_entropy"] == 2  # H(T;Y) and H(Y;T)
    assert calls["_information_terms"] <= 1  # H(T,Y), I and I_M in one pass
    assert calls["performance_summary"] <= 1
    assert calls["distributions"] == 0  # the record reads the counts
    assert calls["_chi_squared"] == 2  # chi2 and chi2_back
    assert calls["_kl"] == 4  # kl, kl_back, and Jensen-Shannon's two halves


@pytest.mark.parametrize("rows", _MATRICES)
def test_single_ni2_reads_only_what_it_needs(calls, rows):
    evaluate(MeasureId.NI2, AugmentedConfusionMatrix.from_rows(rows))
    assert calls["_information_terms"] == 1  # I_M
    assert calls["_cross_entropy"] == 0
    assert calls["performance_summary"] == 0
    assert calls["distributions"] == 0
    assert calls["_kl"] == calls["_chi_squared"] == 0


def test_a_field_is_kept_in_the_instance():
    record = _Record(AugmentedConfusionMatrix.from_rows(_MATRICES[0]))
    assert "h_t" not in vars(record)
    h_t = record.h_t
    assert vars(record)["h_t"] is h_t is record.h_t
    # looked up on the class, as help() does, a field is its descriptor
    assert isinstance(_Record.h_t, infocore._cached)


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


@st.composite
def small_matrices(draw):
    """Small counts, which reach exact zeros and ones often."""
    m = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 20), min_size=m + 1, max_size=m + 1),
                         min_size=m, max_size=m))
    for i, row in enumerate(rows):
        row[i] += 1  # no empty class
    return AugmentedConfusionMatrix(rows)


# raw NI1-NI9 of about -1.6e-33, and of 1.0000000000000002: both in the snap band.
# The first table is one count from independence (F(39) F(41) - F(40)^2 = 1
# for Fibonacci numbers); a table that is exactly independent gets I = 0.
_SNAP_BAND = (
    ((102334155, 63245986, 0), (165580141, 102334155, 0)),
    ((12, 0, 0), (0, 50, 0)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_matrices(), valid_matrices()))
@example(AugmentedConfusionMatrix(_SNAP_BAND[0]))
@example(AugmentedConfusionMatrix(_SNAP_BAND[1]))
def test_each_bounded_value_is_its_snapped_formula(matrix):
    expected = []
    try:
        for measure in measures._INFORMATION:
            raw = measure.formula(_Record(matrix))
            if raw is not SINGULAR:
                expected.append((measure, float.hex(_snap_unit(raw, measure))))
    except InvariantViolation:
        with pytest.raises(InvariantViolation):
            evaluate_all(matrix)
        return
    got = [(m, float.hex(v)) for m, v in evaluate_all(matrix) if v is not SINGULAR]
    assert got == expected


@pytest.mark.parametrize("rows, snapped", zip(_SNAP_BAND, (0.0, 1.0)))
def test_the_snap_band_examples_reach_the_band(rows, snapped):
    matrix = AugmentedConfusionMatrix(rows)
    raw = MeasureId.NI1.formula(_Record(matrix))
    assert raw != snapped and abs(raw - snapped) < 1e-15
    assert evaluate(MeasureId.NI1, matrix).value == snapped


# one class holds nearly every sample and each class goes to its own
# column, so H(T) and I are small and NI1-NI9 are exactly 1; float logs
# of shares near 1 put NI1 of the first at 1 + 1.1e-9, past the snap
# band, and of the other two 1.0e-12 and 1.7e-12 below 1
@pytest.mark.parametrize("rows", [
    ((2**27, 0, 0), (0, 1, 0)),
    ((0, 301193, 0), (1, 0, 0)),
    ((0, 182409, 0), (1, 0, 0)),
])
def test_dominant_class_perfect_classifier_reads_exactly_one(rows):
    record = _Record(AugmentedConfusionMatrix(rows))
    assert [MeasureId(f"NI{k}").formula(record) for k in range(1, 10)] == [1.0] * 9


def test_perfect_classifier_reads_one_at_every_total():
    # NI1-NI9 and NI21-NI24 of [[2**k, 0], [0, 1]] are exactly 1
    ids = [MeasureId(f"NI{k}") for k in (*range(1, 10), *range(21, 25))]
    for k in range(1, 255):
        record = _Record(AugmentedConfusionMatrix(((2**k, 0, 0), (0, 1, 0))))
        for measure in ids:
            assert math.isclose(measure.formula(record), 1.0, rel_tol=0, abs_tol=1e-12), (k, measure)
