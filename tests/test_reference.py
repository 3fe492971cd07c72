"""Kernels and measures against an independent numpy/scipy reference.

Matrices have m <= 6 classes and counts from 0 to 10^6 mixed in one
table, with the reject column either empty or not.  Every kernel value
must match the reference within 1e-12 (relative and absolute), and
SINGULAR or inf must appear exactly where the reference is infinite.
The entropies, cross entropies, I and I_M come from the exact
``decimal`` sums of ``tests/exact.py``, for a ratio such as NI1 of two
small quantities is only as accurate as they are: a float reference
put NI1 of the perfect classifier ((0, 301197, 0), (1, 0, 0)) 1.1e-12
above its exact value 1.  The divergences come from numpy and scipy.
Eight divergences are called through ``divergence`` in both directions:
KL and chi-squared, plus the six other kernels (squared Euclidean,
Cauchy-Schwarz, Bhattacharyya, Hellinger, variation, Jensen-Shannon).
The symmetric KL, symmetric chi-squared and resistor-average forms are
checked through the measures that combine the directed values (NI17,
NI19, NI20).

``TestEntropy`` and ``TestDivergenceValues`` check the public kernels on
fixed distributions: entropy, KL and Jensen-Shannon against scipy, the
Cauchy-Schwarz divergence against its numpy dot-product form, and the
symmetric KL and resistor-average forms against scipy's KL in both
directions.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon
from scipy.special import rel_entr
from scipy.stats import entropy

import exact
from infoeval import (
    SINGULAR,
    AugmentedConfusionMatrix,
    DivergenceKind,
    MeasureId,
    cross_entropy,
    divergence,
    evaluate_all,
    joint_entropy,
    modified_mutual_information,
    mutual_information,
    shannon_entropy,
)

_LN2 = math.log(2.0)
_TOL = 1e-12

_count = st.one_of(
    st.just(0),
    st.integers(1, 9),
    st.integers(10, 9_999),
    st.integers(10_000, 10**6),
)


@st.composite
def matrices(draw):
    m = draw(st.integers(2, 6))
    rejects = draw(st.booleans())
    rows = []
    for _ in range(m):
        row = draw(st.lists(_count, min_size=m, max_size=m).filter(any))
        rows.append((*row, draw(_count) if rejects else 0))
    return AugmentedConfusionMatrix(tuple(rows))


def _close(value, expected, infinite=SINGULAR):
    """value is within tolerance of a finite reference, and is the given
    marker (SINGULAR, or inf for cross entropies) exactly where it is inf."""
    if math.isinf(expected):
        return value == infinite
    return value is not SINGULAR and math.isclose(
        value, expected, rel_tol=_TOL, abs_tol=_TOL
    )


def _kl(p, q):
    return math.inf if np.any((p > 0) & (q == 0)) else rel_entr(p, q).sum() / _LN2


def _chi2(p, q):
    if np.any((p > 0) & (q == 0)):
        return math.inf
    keep = q > 0
    return float((((p - q) ** 2)[keep] / q[keep]).sum())


def _reference(matrix):
    counts = np.array(matrix.counts, dtype=np.int64)
    n = counts.sum()
    p_t = counts.sum(axis=1) / n
    p_y = counts.sum(axis=0) / n
    p = np.append(p_t, 0.0)  # p(t) on p(y)'s support
    return {
        **{key: float(value) for key, value in exact.information(matrix.counts).items()},
        "kl": _kl(p, p_y),
        "kl_back": _kl(p_y, p),
        "chi2": _chi2(p, p_y),
        "chi2_back": _chi2(p_y, p),
    }


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernels_match_reference(matrix):
    ref = _reference(matrix)
    d = matrix.distributions()
    p, q = d.row_marginal_padded, d.col_marginal
    assert _close(shannon_entropy(d.row_marginal), ref["h_t"])
    assert _close(shannon_entropy(q), ref["h_y"])
    assert _close(joint_entropy(d), ref["h_joint"])
    assert _close(mutual_information(d), ref["i"])
    assert _close(modified_mutual_information(d), ref["i_m"])
    assert _close(cross_entropy(p, q), ref["ce"], math.inf)
    assert _close(cross_entropy(q, p), ref["ce_back"], math.inf)
    kl, chi2 = DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.PEARSON_CHI_SQUARED
    assert _close(divergence(kl, p, q), ref["kl"])
    assert _close(divergence(kl, q, p), ref["kl_back"])
    assert _close(divergence(chi2, p, q), ref["chi2"])
    assert _close(divergence(chi2, q, p), ref["chi2_back"])


def _exp_neg(d):
    return math.inf if math.isinf(d) else math.exp(-d)


def _resistor(kl, kl_back):
    if math.isinf(kl) or math.isinf(kl_back) or kl + kl_back == 0.0:
        return math.inf
    return math.exp(-(kl * kl_back / (kl + kl_back)))


_MEASURES = {
    MeasureId.NI1: lambda r: r["i"] / r["h_t"],
    MeasureId.NI2: lambda r: r["i_m"] / r["h_t"],
    MeasureId.NI12: lambda r: _exp_neg(r["kl"]),
    MeasureId.NI14: lambda r: _exp_neg(r["chi2"]),
    MeasureId.NI17: lambda r: _exp_neg(r["kl"] + r["kl_back"]),
    MeasureId.NI19: lambda r: _exp_neg(r["chi2"] + r["chi2_back"]),
    MeasureId.NI20: lambda r: _resistor(r["kl"], r["kl_back"]),
    MeasureId.NI21: lambda r: 0.0 if math.isinf(r["ce"]) else r["h_t"] / r["ce"],
}


@settings(max_examples=150, deadline=None)
@given(matrices())
# one class holds nearly every sample, so H(T) and I are about 1e-4 bits
# or less; float logs of shares near 1 cost NI1 more than 1e-12 on each
@example(AugmentedConfusionMatrix(((0, 182409, 0), (1, 0, 0))))
@example(AugmentedConfusionMatrix(((0, 211087, 0), (1, 0, 0))))
@example(AugmentedConfusionMatrix(((0, 301197, 0), (1, 0, 0))))
@example(AugmentedConfusionMatrix(((0, 1, 0), (595847, 0, 0))))
@example(AugmentedConfusionMatrix(((0, 1, 0), (1, 310161, 0))))
# a float reference was 2.25e-12 off NI1 here
@example(AugmentedConfusionMatrix(((2, 0, 2), (1953, 994418, 938883))))
def test_measures_match_formulas_over_reference(matrix):
    # inf in _MEASURES stands for SINGULAR
    ref = _reference(matrix)
    for item in evaluate_all(matrix, list(_MEASURES)):
        assert _close(item.value, _MEASURES[item.measure](ref)), item.measure


# the six divergences not checked above, in numpy/scipy; the reference is
# inf, and the kernel must be SINGULAR, exactly where the dot product
# (Cauchy-Schwarz) or the overlap (Bhattacharyya) is zero
_OTHER_DIVERGENCES = {
    DivergenceKind.SQUARED_EUCLIDEAN: lambda p, q: ((p - q) ** 2).sum(),
    DivergenceKind.CAUCHY_SCHWARZ: lambda p, q: np.log2((p @ p) * (q @ q) / (p @ q) ** 2),
    DivergenceKind.BHATTACHARYYA: lambda p, q: -np.log2(np.sqrt(p * q).sum()),
    DivergenceKind.HELLINGER: lambda p, q: ((np.sqrt(p) - np.sqrt(q)) ** 2).sum(),
    DivergenceKind.VARIATION: lambda p, q: np.abs(p - q).sum(),
    # scipy's distance is sqrt((KL(p||m) + KL(q||m)) / 2); the kernel is
    # the unhalved sum
    DivergenceKind.JENSEN_SHANNON: lambda p, q: 2.0 * jensenshannon(p, q, base=2) ** 2,
}


def _check_other_divergences(p, q):
    p_ref, q_ref = np.array(p), np.array(q)
    for kind, reference in _OTHER_DIVERGENCES.items():
        for a, b, a_ref, b_ref in ((p, q, p_ref, q_ref), (q, p, q_ref, p_ref)):
            with np.errstate(divide="ignore"):
                expected = float(reference(a_ref, b_ref))
            value = divergence(kind, a, b)
            assert _close(value, expected), (kind, a, b, value)


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(AugmentedConfusionMatrix(((0, 0, 5), (0, 0, 5))))  # p(y) all reject
def test_other_divergences_match_reference(matrix):
    d = matrix.distributions()
    _check_other_divergences(d.row_marginal_padded, d.col_marginal)


def _simplex(counts):
    total = sum(counts)
    return tuple(count / total for count in counts)


@st.composite
def supports(draw):
    """Two distributions on one support with zeros anywhere, so the
    supports may overlap in part or not at all."""
    width = draw(st.integers(2, 7))
    vector = st.lists(_count, min_size=width, max_size=width).filter(any)
    return _simplex(draw(vector)), _simplex(draw(vector))


@settings(max_examples=150, deadline=None)
@given(supports())
@example(((1.0, 0.0), (0.0, 1.0)))
def test_other_divergences_singular_exactly_without_overlap(pair):
    _check_other_divergences(*pair)


class TestEntropy:
    def test_scipy_agreement(self):
        p = (0.8, 0.15, 0.05)
        assert shannon_entropy(p) == pytest.approx(
            entropy(p, base=2), rel=1e-12
        )


class TestDivergenceValues:
    def test_kl_against_scipy(self):
        p = (0.8, 0.15, 0.05)
        q = (0.6, 0.3, 0.1)
        assert divergence(DivergenceKind.KULLBACK_LEIBLER, p, q) == pytest.approx(
            entropy(p, q, base=2), rel=1e-12
        )

    def test_jensen_shannon_against_scipy(self):
        # scipy: sqrt((KL(p,m) + KL(q,m)) / 2); catalog uses the plain sum
        p = (0.8, 0.15, 0.05)
        q = (0.5, 0.25, 0.25)
        expected = 2.0 * jensenshannon(p, q, base=2) ** 2
        assert divergence(DivergenceKind.JENSEN_SHANNON, p, q) == pytest.approx(
            expected, rel=1e-9
        )

    def test_cauchy_schwarz_direct_form(self):
        p = np.array([0.7, 0.2, 0.1])
        q = np.array([0.4, 0.4, 0.2])
        expected = math.log2(
            float(p @ p) * float(q @ q) / float(p @ q) ** 2
        )
        assert divergence(DivergenceKind.CAUCHY_SCHWARZ, p, q) == pytest.approx(
            expected, rel=1e-12
        )

    def test_symmetric_kl_is_both_directions(self):
        p = (0.8, 0.15, 0.05)
        q = (0.6, 0.3, 0.1)
        both = entropy(p, q, base=2) + entropy(q, p, base=2)
        assert divergence(DivergenceKind.SYMMETRIC_KL, p, q) == pytest.approx(
            both, rel=1e-12
        )

    def test_resistor_average_from_kl_pair(self):
        p = (0.8, 0.15, 0.05)
        q = (0.6, 0.3, 0.1)
        f = entropy(p, q, base=2)
        b = entropy(q, p, base=2)
        assert divergence(
            DivergenceKind.RESISTOR_AVERAGE_KL, p, q
        ) == pytest.approx(f * b / (f + b), rel=1e-12)
