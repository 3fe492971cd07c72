"""Entropy/MI/divergence kernels against frozen high-precision values."""
import math
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoeval import (
    SINGULAR,
    AugmentedConfusionMatrix,
    DivergenceKind,
    cross_entropy,
    divergence,
    is_singular,
    joint_entropy,
    modified_mutual_information,
    mutual_information,
    shannon_entropy,
)
from infoeval.measures import _Record

# Frozen by a 50-digit-precision oracle; quoted to 17 significant digits.
H_90_10 = 0.46899559358928122
H_80_15_05 = 0.88418371977918892
M1_I = 0.38957025770517486
M1_H_Y = 0.43646981706410298
M1_H_JOINT = 0.51589515294820934
M3_I = 0.46899559358928122
M3_I_M = 0.4357763126404076
CE_95_05_VS_60_40 = 0.76621371920226398

# D10..D20 between (0.9, 0.1, 0.0) and (0.91, 0.09, 0.0)
M1_DIVERGENCES = (
    0.0002, 0.000210417663571, 0.000852919862386, 0.000209902085339,
    0.001221001221, 0.000290964910095, 0.02, 0.00167944637314,
    0.000419685721182, 0.00233211233211, 0.000419757897058,
)
# D10..D20 between (0.95, 0.05, 0.0) and (0.6, 0.4, 0.0)
M5_DIVERGENCES = (
    0.245, 0.434999506501, 0.479816762086, 0.157777721164,
    0.510416666667, 0.207190400471, 0.7, 1.28203775445,
    0.281038106455, 3.08936403509, 0.300240049638,
)

ALL_KINDS = tuple(DivergenceKind)
SYMMETRIC_KINDS = (
    DivergenceKind.SQUARED_EUCLIDEAN,
    DivergenceKind.CAUCHY_SCHWARZ,
    DivergenceKind.BHATTACHARYYA,
    DivergenceKind.HELLINGER,
    DivergenceKind.VARIATION,
    DivergenceKind.SYMMETRIC_KL,
    DivergenceKind.JENSEN_SHANNON,
    DivergenceKind.SYMMETRIC_CHI_SQUARED,
    DivergenceKind.RESISTOR_AVERAGE_KL,
)


def _dist(counts):
    return AugmentedConfusionMatrix(counts).distributions()


def positive_distributions(size=3, max_count=40):
    """Strategy: pairs of strictly positive distributions on `size` points."""
    count = st.integers(min_value=1, max_value=max_count)
    vec = st.lists(count, min_size=size, max_size=size)
    return st.tuples(vec, vec).map(
        lambda pair: (
            tuple(c / sum(pair[0]) for c in pair[0]),
            tuple(c / sum(pair[1]) for c in pair[1]),
        )
    )


class TestEntropy:
    def test_frozen_values(self):
        assert shannon_entropy((0.9, 0.1)) == pytest.approx(H_90_10, rel=1e-12)
        assert shannon_entropy((0.8, 0.15, 0.05)) == pytest.approx(
            H_80_15_05, rel=1e-12
        )

    def test_zero_mass_contributes_nothing(self):
        assert shannon_entropy((1.0, 0.0)) == 0.0
        assert shannon_entropy((0.5, 0.5, 0.0)) == 1.0

    def test_uniform_is_log2_m(self):
        assert shannon_entropy((0.25,) * 4) == pytest.approx(2.0, abs=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative entry"):
            shannon_entropy((1.2, -0.2))
        # named before a sum that would overflow
        with pytest.raises(ValueError, match="negative entry"):
            shannon_entropy((1e308, 1e308, -1e308))

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            shannon_entropy((0.5, 0.4))

    @pytest.mark.parametrize("call", [
        shannon_entropy,
        lambda p: cross_entropy(p, (0.5, 0.5)),
        lambda p: cross_entropy((0.5, 0.5), p),
        lambda p: divergence(DivergenceKind.KULLBACK_LEIBLER, p, (0.5, 0.5)),
    ])
    @pytest.mark.parametrize("p", [(math.nan, 1.0), (1.0, math.nan), (math.nan, -1.0)])
    def test_nan_entry_rejected(self, call, p):
        # a NaN compares False with everything; the sum test fails on False
        with pytest.raises(ValueError, match="sum to 1|negative entry"):
            call(p)

    @pytest.mark.parametrize("call, name", [
        (shannon_entropy, "p"),
        (lambda p: cross_entropy(p, (0.5, 0.5)), "p"),
        (lambda q: cross_entropy((0.5, 0.5), q), "q"),
        (lambda q: divergence(DivergenceKind.KULLBACK_LEIBLER, (0.5, 0.5), q), "q"),
    ])
    def test_sum_beyond_the_float_range_rejected(self, call, name):
        # math.fsum raises OverflowError on a partial sum past the float range
        with pytest.raises(ValueError) as info:
            call((1e308, 1e308))
        assert str(info.value) == f"{name} does not sum to 1 (got inf)"


class TestMutualInformation:
    def test_frozen_values(self):
        d = _dist(((90, 0, 0), (1, 9, 0)))
        assert mutual_information(d) == pytest.approx(M1_I, rel=1e-12)
        assert modified_mutual_information(d) == pytest.approx(M1_I, rel=1e-12)
        assert shannon_entropy(d.col_marginal) == pytest.approx(M1_H_Y, rel=1e-12)
        assert joint_entropy(d) == pytest.approx(M1_H_JOINT, rel=1e-12)

    def test_reject_column_splits_the_two_sums(self):
        d = _dist(((90, 0, 0), (0, 9, 1)))
        assert mutual_information(d) == pytest.approx(M3_I, rel=1e-12)
        assert modified_mutual_information(d) == pytest.approx(M3_I_M, rel=1e-12)
        assert modified_mutual_information(d) < mutual_information(d)

    def test_equal_without_rejects(self):
        d = _dist(((57, 38, 0), (3, 2, 0)))
        assert mutual_information(d) == modified_mutual_information(d)

    def test_proportional_rows_give_zero(self):
        # joint = product of marginals, so no dependence to measure
        d = _dist(((10, 20, 0), (1, 2, 0)))
        assert mutual_information(d) == pytest.approx(0.0, abs=1e-12)

    def test_identity_with_entropies(self):
        d = _dist(((80, 5, 5), (3, 6, 1)))
        h_t = shannon_entropy(d.row_marginal)
        h_y = shannon_entropy(d.col_marginal)
        assert mutual_information(d) == pytest.approx(
            h_t + h_y - joint_entropy(d), rel=1e-12
        )


# Reference sums for H(T,Y), I and I_M, one walk each: the one pass must
# match them bit for bit, so they pin its order of summation.  The cells
# are counts out of n with margins on the same scale: integer counts, or
# shares with n = 1.
def _log2(a, b, r):
    """log2(a / b) from its float quotient r; within 1/128 of 1 from a - b."""
    if 127 / 128 < r < 129 / 128:
        return math.log1p((a - b) / b) / math.log(2.0)
    return math.log2(r)


def _reference_mi_sum(rows, n, row_totals, col_totals, columns):
    total = 0.0
    for row, rt in zip(rows, row_totals):
        for j, c in enumerate(row[columns]):
            if c > 0:
                p, ct = c / n, col_totals[j]
                total += p * _log2(c * n, rt * ct, p / (rt / n * (ct / n)))
    return total


def _reference_entropy(cells, n):
    total = 0.0
    for c in cells:
        if c > 0:
            x = c / n
            total += x * _log2(c, n, x)
    return -total


def _walks(rows, n, row_totals, col_totals):
    return tuple(float.hex(v) for v in (
        _reference_entropy(chain.from_iterable(rows), n),
        _reference_mi_sum(rows, n, row_totals, col_totals, slice(None)),
        _reference_mi_sum(rows, n, row_totals, col_totals, slice(-1)),
    ))


@st.composite
def sparse_matrices(draw):
    """Up to 50 classes, totals below 2**250, and any share of zero cells."""
    m = draw(st.integers(2, 50))
    rnd = random.Random(draw(st.integers(0, 2**32)))  # fast draws of 2550 counts
    bits = draw(st.integers(1, 238))
    zeros = draw(st.sampled_from((0.0, 0.5, 0.77, 0.95, 1.0)))
    rows = [[0 if rnd.random() < zeros else rnd.getrandbits(rnd.randint(0, bits))
             for _ in range(m + 1)] for _ in range(m)]
    for row in rows:
        row[rnd.randrange(m + 1)] += 1  # no empty class
    return AugmentedConfusionMatrix(rows)


class TestOnePass:
    """H(T,Y), I and I_M from one pass, bit for bit the separate walks."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_bit_identical_to_the_separate_walks(self, matrix):
        d = matrix.distributions()
        kernels = (joint_entropy(d), mutual_information(d), modified_mutual_information(d))
        assert tuple(map(float.hex, kernels)) == _walks(
            d.joint, 1, d.row_marginal, d.col_marginal
        )
        record = _Record(matrix)
        assert tuple(map(float.hex, (record.h_joint, record.i, record.i_m))) == _walks(
            matrix.counts, matrix.total, matrix.row_totals, matrix.column_totals
        )


class TestCrossEntropy:
    def test_frozen_value(self):
        assert cross_entropy((0.95, 0.05, 0.0), (0.6, 0.4, 0.0)) == pytest.approx(
            CE_95_05_VS_60_40, rel=1e-12
        )

    def test_self_cross_entropy_is_entropy(self):
        p = (0.9, 0.1, 0.0)
        assert cross_entropy(p, p) == pytest.approx(shannon_entropy(p), rel=1e-12)

    def test_positive_mass_on_zero_gives_inf(self):
        assert cross_entropy((0.5, 0.5, 0.0), (1.0, 0.0, 0.0)) == math.inf

    def test_zero_mass_on_zero_is_fine(self):
        assert math.isfinite(cross_entropy((1.0, 0.0), (1.0, 0.0)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cross_entropy((1.0,), (0.5, 0.5))

    def test_decomposes_into_entropy_plus_kl(self):
        p = (0.9, 0.1, 0.0)
        q = (0.89, 0.09, 0.02)
        kl = divergence(DivergenceKind.KULLBACK_LEIBLER, p, q)
        assert cross_entropy(p, q) == pytest.approx(
            shannon_entropy(p) + kl, rel=1e-12
        )

    @given(positive_distributions())
    def test_gibbs_inequality(self, pair):
        p, q = pair
        assert cross_entropy(p, q) >= shannon_entropy(p) - 1e-12


class TestDivergenceValues:
    @pytest.mark.parametrize("kind, expected", list(zip(ALL_KINDS, M1_DIVERGENCES)))
    def test_frozen_small_gap(self, kind, expected):
        p = (0.9, 0.1, 0.0)
        q = (0.91, 0.09, 0.0)
        assert divergence(kind, p, q) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("kind, expected", list(zip(ALL_KINDS, M5_DIVERGENCES)))
    def test_frozen_large_gap(self, kind, expected):
        p = (0.95, 0.05, 0.0)
        q = (0.6, 0.4, 0.0)
        assert divergence(kind, p, q) == pytest.approx(expected, rel=1e-9)

    def test_jensen_shannon_is_finite_at_the_smallest_subnormal(self):
        # (a + b) / 2 rounds to 0 at a = 5e-324, b = 0; the midpoint
        # keeps a there, so the divergence stays finite
        value = divergence(DivergenceKind.JENSEN_SHANNON, (5e-324, 1.0), (0.0, 1.0))
        assert value is not SINGULAR and value == pytest.approx(0.0, abs=1e-300)

    def test_hellinger_equals_twice_one_minus_overlap(self):
        p = (0.7, 0.2, 0.1)
        q = (0.4, 0.4, 0.2)
        overlap = sum(math.sqrt(a * b) for a, b in zip(p, q))
        assert divergence(DivergenceKind.HELLINGER, p, q) == pytest.approx(
            2.0 * (1.0 - overlap), rel=1e-12
        )

    def test_bhattacharyya_from_overlap(self):
        p = (0.7, 0.2, 0.1)
        q = (0.4, 0.4, 0.2)
        overlap = sum(math.sqrt(a * b) for a, b in zip(p, q))
        assert divergence(DivergenceKind.BHATTACHARYYA, p, q) == pytest.approx(
            -math.log2(overlap), rel=1e-12
        )

    def test_pearson_chi_squared_exact_fraction(self):
        p = (Fraction(3, 4), Fraction(1, 4))
        q = (Fraction(1, 2), Fraction(1, 2))
        expected = sum((a - b) ** 2 / b for a, b in zip(p, q))
        assert divergence(
            DivergenceKind.PEARSON_CHI_SQUARED, (0.75, 0.25), (0.5, 0.5)
        ) == pytest.approx(float(expected), rel=1e-12)


class TestDivergenceSingularities:
    def test_kl_singular_on_missing_support(self):
        assert is_singular(
            divergence(DivergenceKind.KULLBACK_LEIBLER, (0.5, 0.5), (1.0, 0.0))
        )

    def test_kl_fine_when_zero_meets_zero(self):
        value = divergence(DivergenceKind.KULLBACK_LEIBLER, (1.0, 0.0), (1.0, 0.0))
        assert value == 0.0

    def test_chi_squared_singular_on_missing_support(self):
        assert is_singular(
            divergence(DivergenceKind.PEARSON_CHI_SQUARED, (0.5, 0.5), (1.0, 0.0))
        )

    def test_chi_squared_zero_over_zero_convention(self):
        value = divergence(
            DivergenceKind.PEARSON_CHI_SQUARED, (1.0, 0.0), (1.0, 0.0)
        )
        assert value == 0.0

    def test_cauchy_schwarz_singular_on_disjoint_support(self):
        assert is_singular(
            divergence(DivergenceKind.CAUCHY_SCHWARZ, (1.0, 0.0), (0.0, 1.0))
        )

    def test_symmetric_kinds_inherit_singularity(self):
        for kind in (
            DivergenceKind.SYMMETRIC_KL,
            DivergenceKind.SYMMETRIC_CHI_SQUARED,
            DivergenceKind.RESISTOR_AVERAGE_KL,
        ):
            assert is_singular(divergence(kind, (0.5, 0.5), (1.0, 0.0)))
            assert is_singular(divergence(kind, (1.0, 0.0), (0.5, 0.5)))

    def test_resistor_average_singular_at_equality(self):
        # KL = KL = 0 leaves 0/0, reported as Singular, not as the limit 0
        p = (0.9, 0.1)
        assert is_singular(divergence(DivergenceKind.RESISTOR_AVERAGE_KL, p, p))

    def test_variation_and_euclidean_never_singular(self):
        p, q = (1.0, 0.0), (0.0, 1.0)
        assert divergence(DivergenceKind.VARIATION, p, q) == 2.0
        assert divergence(DivergenceKind.SQUARED_EUCLIDEAN, p, q) == 2.0

    def test_singular_marker(self):
        assert repr(SINGULAR) == "S"
        assert is_singular(SINGULAR)
        assert not is_singular(0.0)


class TestDivergenceProperties:
    @settings(max_examples=60)
    @given(positive_distributions())
    def test_nonnegative(self, pair):
        p, q = pair
        for kind in ALL_KINDS:
            value = divergence(kind, p, q)
            if is_singular(value):
                # only the 0/0 resistor-average case may be singular here
                assert kind is DivergenceKind.RESISTOR_AVERAGE_KL
                assert p == q
            else:
                assert value >= -1e-12

    @settings(max_examples=60)
    @given(positive_distributions())
    def test_symmetric_kinds_commute(self, pair):
        p, q = pair
        for kind in SYMMETRIC_KINDS:
            forward = divergence(kind, p, q)
            backward = divergence(kind, q, p)
            if is_singular(forward):
                assert is_singular(backward)
            else:
                assert forward == pytest.approx(backward, rel=1e-9, abs=1e-12)

    @settings(max_examples=60)
    @given(positive_distributions(size=4))
    def test_zero_only_at_equality(self, pair):
        p, q = pair
        euclid = divergence(DivergenceKind.SQUARED_EUCLIDEAN, p, q)
        if p == q:
            assert euclid == 0.0
        else:
            assert euclid > 0.0

    def test_all_vanish_at_equality(self):
        p = (0.8, 0.15, 0.05)
        for kind in ALL_KINDS:
            value = divergence(kind, p, p)
            if kind is DivergenceKind.RESISTOR_AVERAGE_KL:
                assert is_singular(value)
            else:
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            divergence(DivergenceKind.VARIATION, (1.0,), (0.5, 0.5))

    def test_kind_is_a_member_or_its_index(self):
        p = (0.95, 0.05, 0.0)
        q = (0.6, 0.4, 0.0)
        by_member = divergence(DivergenceKind.KULLBACK_LEIBLER, p, q)
        assert by_member == pytest.approx(M5_DIVERGENCES[2], rel=1e-9)
        assert divergence(12, p, q) == by_member
        with pytest.raises(ValueError, match="99 is not a valid DivergenceKind"):
            divergence(99, p, q)
