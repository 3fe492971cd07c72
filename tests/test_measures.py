"""Measure catalog, group formulas, degenerate-input policies, and the
unit-interval invariant."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as ref
from infoeval import (
    CATALOG,
    SINGULAR,
    AugmentedConfusionMatrix,
    InvariantViolation,
    MeasureGroup,
    MeasureId,
    evaluate,
    evaluate_all,
    is_singular,
    measures_in_group,
    parse_selection,
    performance_summary,
)
from infoeval.measures import _SELECTION, _ratio, _snap_unit

# Frozen by the 50-digit oracle.
NI2_C_D = 0.58621747812938479
NI2_C_E = 0.39325674376647305
M3_I_M = 0.4357763126404076
H_90_10 = 0.46899559358928122


def _mx(rows):
    return AugmentedConfusionMatrix.from_rows(rows)


def _value(measure_token, matrix):
    return evaluate(MeasureId.from_token(measure_token), matrix).value


@st.composite
def matrices(draw, max_classes=4, max_count=8):
    m = draw(st.integers(2, max_classes))
    row = st.lists(
        st.integers(0, max_count), min_size=m + 1, max_size=m + 1
    ).filter(lambda r: sum(r) > 0)
    return AugmentedConfusionMatrix(tuple(tuple(draw(row)) for _ in range(m)))


class TestCatalog:
    def test_catalog_size_and_groups(self):
        assert len(CATALOG) == 31
        assert len(measures_in_group(MeasureGroup.MUTUAL_INFORMATION)) == 9
        assert len(measures_in_group(MeasureGroup.DIVERGENCE)) == 11
        assert len(measures_in_group(MeasureGroup.CROSS_ENTROPY)) == 4
        assert len(measures_in_group(MeasureGroup.PERFORMANCE)) == 7

    def test_ni_index(self):
        assert MeasureId.NI1.ni_index == 1
        assert MeasureId.NI24.ni_index == 24
        assert MeasureId.PRECISION.ni_index is None

    def test_from_token_case_insensitive(self):
        assert MeasureId.from_token("ni7") is MeasureId.NI7
        assert MeasureId.from_token("REJ") is MeasureId.REJECT_RATE
        assert MeasureId.from_token(" f1 ") is MeasureId.F1

    def test_from_token_unknown(self):
        with pytest.raises(ValueError, match="unknown measure"):
            MeasureId.from_token("NI25")


_NI = tuple(MeasureId(f"NI{k}") for k in range(1, 25))
_PERFORMANCE = tuple(MeasureId(token) for token in ("CR", "E", "Rej", "A", "Precision",
                                                   "Recall", "F1"))
# every selection keyword and its expansion, written out apart from the program
_KEYWORDS = {
    "all": _NI + _PERFORMANCE,
    "information": _NI,
    "ni": _NI,
    "mi": _NI[:9],
    "mutual-information": _NI[:9],
    "divergence": _NI[9:20],
    "cross-entropy": _NI[20:],
    "ce": _NI[20:],
    "performance": _PERFORMANCE,
    "perf": _PERFORMANCE,
}


class TestParseSelection:
    @pytest.mark.parametrize("case", [str.lower, str.upper], ids=["lower", "upper"])
    @pytest.mark.parametrize("token, expansion", [
        *_KEYWORDS.items(), *((m.value, (m,)) for m in CATALOG)
    ])
    def test_every_token_expands(self, token, expansion, case):
        assert parse_selection(case(token)) == expansion

    def test_no_keyword_is_a_measure_id(self):
        ids = {m.value.lower() for m in CATALOG}
        assert not ids & set(_KEYWORDS)
        assert set(_SELECTION) == ids | set(_KEYWORDS)

    def test_all(self):
        assert parse_selection("all") == CATALOG

    def test_information(self):
        selected = parse_selection("information")
        assert len(selected) == 24
        assert all(m.ni_index is not None for m in selected)
        assert parse_selection("ni") == selected

    def test_groups(self):
        assert len(parse_selection("mi")) == 9
        assert len(parse_selection("divergence")) == 11
        assert parse_selection("ce") == parse_selection("cross-entropy")
        assert len(parse_selection("perf")) == 7

    def test_explicit_list_keeps_first_position(self):
        assert parse_selection("NI2, NI1, ni2") == (MeasureId.NI2, MeasureId.NI1)

    def test_mixed_groups_and_ids(self):
        selected = parse_selection("mi,CR")
        assert selected[-1] is MeasureId.CORRECT_RATE
        assert len(selected) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty measure selection"):
            parse_selection(", ,")


class TestMiGroup:
    def test_frozen_ni2(self, reject_tradeoff_models):
        assert _value("NI2", reject_tradeoff_models["C_D"]) == pytest.approx(
            NI2_C_D, rel=1e-12
        )
        assert _value("NI2", reject_tradeoff_models["C_E"]) == pytest.approx(
            NI2_C_E, rel=1e-12
        )

    def test_ni2_is_modified_mi_over_source_entropy(self, binary_models):
        assert _value("NI2", binary_models["M3"]) == pytest.approx(
            M3_I_M / H_90_10, rel=1e-12
        )

    def test_spot_cells(self, binary_models):
        assert _value("NI1", binary_models["M1"]) == pytest.approx(0.831, abs=5e-4)
        assert _value("NI7", binary_models["M2"]) == pytest.approx(0.767, abs=5e-4)
        assert _value("NI9", binary_models["M4"]) == pytest.approx(1.000, abs=5e-4)

    def test_reject_splits_ni1_from_ni2(self, binary_models):
        # a pure reject keeps NI1 at its maximum but drains NI2
        m3 = binary_models["M3"]
        assert _value("NI1", m3) == pytest.approx(1.0, abs=1e-12)
        assert _value("NI2", m3) < 1.0

    def test_bijective_diagonal_maximizes_mi_group(self):
        for rows in ([[5, 0], [0, 3]], [[0, 5], [3, 0]],
                     [[0, 7, 0], [0, 0, 2], [4, 0, 0]]):
            matrix = _mx(rows)
            for measure in measures_in_group(MeasureGroup.MUTUAL_INFORMATION):
                assert evaluate(measure, matrix).value == pytest.approx(
                    1.0, abs=1e-12
                ), (rows, measure)

    def test_proportional_rows_zero_mi_group(self, binary_models):
        for matrix in (binary_models["M5"], _mx([[10, 20], [1, 2]]),
                       _mx([[4, 4], [6, 6]])):
            for measure in measures_in_group(MeasureGroup.MUTUAL_INFORMATION):
                assert evaluate(measure, matrix).value == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_all_predictions_in_one_column(self):
        # H(Y) = 0 forces I = 0; every ratio resolves to 0, not an error
        matrix = _mx([[5, 0], [5, 0]])
        for measure in measures_in_group(MeasureGroup.MUTUAL_INFORMATION):
            assert evaluate(measure, matrix).value == 0.0

    def test_zero_denominator_policy(self):
        # 0/0 resolves to 0; a positive I over H(Y) = 0 cannot come from a matrix
        assert _ratio(0.0, 0.0) == 0.0
        assert _ratio(1.0, 0.0) is SINGULAR


class TestDivergenceGroup:
    def test_spot_cells(self, binary_models):
        assert _value("NI12", binary_models["M3"]) == pytest.approx(0.9849, abs=5e-5)
        assert _value("NI19", binary_models["M5"]) == pytest.approx(0.0455, abs=5e-5)
        assert _value("NI16", binary_models["M1"]) == pytest.approx(0.9802, abs=5e-5)

    def test_singular_cells(self, binary_models):
        for name, token in (("M3", "NI17"), ("M3", "NI19"), ("M3", "NI20"),
                            ("M4", "NI17"), ("M4", "NI19"), ("M4", "NI20"),
                            ("M6", "NI20")):
            assert is_singular(_value(token, binary_models[name])), (name, token)

    def test_equal_marginals_maximize(self, binary_models):
        m6 = binary_models["M6"]
        for measure in measures_in_group(MeasureGroup.DIVERGENCE):
            value = evaluate(measure, m6).value
            if measure is MeasureId.NI20:
                assert is_singular(value)
            else:
                assert value == pytest.approx(1.0, abs=1e-12)

    def test_perturbation_strictly_decreases(self, binary_models):
        # same row totals as M6, marginals knocked out of agreement
        perturbed = _mx([[88, 2, 0], [1, 9, 0]])
        m6 = binary_models["M6"]
        for measure in measures_in_group(MeasureGroup.DIVERGENCE):
            if measure is MeasureId.NI20:
                continue
            assert evaluate(measure, perturbed).value < evaluate(measure, m6).value

    def test_one_column_predictions(self):
        matrix = _mx([[5, 0], [5, 0]])
        assert _value("NI10", matrix) == pytest.approx(math.exp(-0.5), rel=1e-12)
        for token in ("NI12", "NI14", "NI17", "NI19", "NI20"):
            assert is_singular(_value(token, matrix))


class TestCrossEntropyGroup:
    def test_spot_cells(self, binary_models):
        assert _value("NI21", binary_models["M3"]) == pytest.approx(0.969, abs=5e-4)
        assert _value("NI23", binary_models["M5"]) == pytest.approx(0.461, abs=5e-4)

    def test_rejects_zero_the_backward_ratios(self, binary_models):
        # any reject mass makes H(Y;T) infinite: NI22 and NI24 drop to 0
        for name in ("M3", "M4"):
            assert _value("NI22", binary_models[name]) == 0.0
            assert _value("NI24", binary_models[name]) == 0.0
            assert _value("NI21", binary_models[name]) > 0.0

    def test_equal_marginals_give_one(self, binary_models):
        for token in ("NI21", "NI22", "NI23", "NI24"):
            assert _value(token, binary_models["M6"]) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_one_column_predictions(self):
        matrix = _mx([[5, 0], [5, 0]])
        for token in ("NI21", "NI22", "NI23", "NI24"):
            assert _value(token, matrix) == 0.0


class TestPerformance:
    def test_printed_values(self, binary_models):
        for name, expected in ref.BINARY_PERFORMANCE.items():
            summary = performance_summary(binary_models[name])
            assert summary.correct_rate == pytest.approx(expected["CR"], abs=5e-4)
            assert summary.reject_rate == pytest.approx(expected["Rej"], abs=5e-4)
            assert summary.precision == pytest.approx(expected["Precision"], abs=5e-4)
            assert summary.recall == pytest.approx(expected["Recall"], abs=5e-4)
            assert summary.f1 == pytest.approx(expected["F1"], abs=5e-4)

    def test_rates_sum_to_one(self, reject_tradeoff_models):
        for summary in map(performance_summary, reject_tradeoff_models.values()):
            total = summary.correct_rate + summary.error_rate + summary.reject_rate
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_accuracy_excludes_rejects(self):
        summary = performance_summary(_mx([[8, 0, 2], [0, 6, 4]]))
        assert summary.correct_rate == pytest.approx(0.7)
        assert summary.reject_rate == pytest.approx(0.3)
        assert summary.accuracy == pytest.approx(1.0)

    def test_recall_excludes_rejected_reference_samples(self):
        summary = performance_summary(_mx([[8, 1, 1], [0, 10, 0]]))
        assert summary.recall == pytest.approx(8 / 9, rel=1e-12)

    def test_three_class_has_no_binary_measures(self, three_class_models):
        summary = performance_summary(three_class_models["M7"])
        assert summary.precision is None
        assert summary.recall is None
        assert summary.f1 is None
        assert summary.correct_rate == pytest.approx(0.99)

    def test_binary_only_measure_raises_on_three_classes(self, three_class_models):
        with pytest.raises(ValueError, match="2-class"):
            evaluate(MeasureId.PRECISION, three_class_models["M7"])

    def test_all_reject_matrix(self):
        summary = performance_summary(_mx([[0, 0, 5], [0, 0, 5]]))
        assert summary.reject_rate == 1.0
        assert summary.correct_rate == summary.error_rate == 0.0
        assert summary.accuracy == 0.0
        assert evaluate(MeasureId.ACCURACY, _mx([[0, 0, 5], [0, 0, 5]])).value == 0.0

    def test_error_free_family_is_exact(self):
        # every 2-class error-free matrix with a, b in 1..59, r in 0..59
        for a in range(1, 60):
            for b in range(1, 60):
                for r in range(60):
                    summary = performance_summary(
                        AugmentedConfusionMatrix(((a, 0, r), (0, b, 0)))
                    )
                    assert summary.error_rate == 0.0, (a, b, r)
                    assert summary.accuracy == 1.0, (a, b, r)

    def test_zero_denominator_conventions(self):
        # nothing predicted into class 1 and nothing of class 1 accepted
        summary = performance_summary(_mx([[0, 1, 4], [0, 5, 0]]))
        assert summary.precision == 0.0
        assert summary.recall == 0.0
        assert summary.f1 == 0.0


class TestEvaluateAll:
    def test_default_is_all_information_measures(self, binary_models):
        values = evaluate_all(binary_models["M1"])
        assert [v.measure.ni_index for v in values] == list(range(1, 25))

    def test_selection_is_sorted_and_deduped(self, binary_models):
        values = evaluate_all(
            binary_models["M1"],
            [MeasureId.NI9, MeasureId.NI1, MeasureId.NI9, MeasureId.CORRECT_RATE],
        )
        assert [v.measure for v in values] == [
            MeasureId.NI1, MeasureId.NI9, MeasureId.CORRECT_RATE,
        ]

    def test_agrees_with_single_evaluation(self, binary_models):
        matrix = binary_models["M4"]
        for item in evaluate_all(matrix):
            single = evaluate(item.measure, matrix)
            assert (item.value is SINGULAR) == (single.value is SINGULAR)
            if item.value is not SINGULAR:
                assert item.value == single.value

    def test_empty_selection_rejected(self, binary_models):
        with pytest.raises(ValueError, match="empty"):
            evaluate_all(binary_models["M1"], [])

    def test_is_singular_flag(self, binary_models):
        (value,) = evaluate_all(binary_models["M6"], [MeasureId.NI20])
        assert value.is_singular

    @pytest.mark.parametrize("item", ["NI1", 1, None], ids=["str", "int", "None"])
    def test_item_that_is_not_a_measure_id_is_named(self, binary_models, item):
        matrix = binary_models["M1"]
        with pytest.raises(ValueError, match=f"^{item!r} is not a MeasureId$"):
            evaluate_all(matrix, [MeasureId.NI2, item])
        with pytest.raises(ValueError, match=f"^{item!r} is not a MeasureId$"):
            evaluate(item, matrix)


class TestUnitIntervalInvariant:
    def test_noise_band_is_snapped(self):
        assert _snap_unit(1.0 + 5e-10, MeasureId.NI1) == 1.0
        assert _snap_unit(-5e-10, MeasureId.NI1) == 0.0
        assert _snap_unit(0.5, MeasureId.NI1) == 0.5

    def test_outside_band_raises(self):
        with pytest.raises(InvariantViolation, match="NI1"):
            _snap_unit(1.0 + 2e-9, MeasureId.NI1)
        with pytest.raises(InvariantViolation):
            _snap_unit(-2e-9, MeasureId.NI5)

    @settings(max_examples=120, deadline=None)
    @given(matrices())
    def test_every_measure_lands_in_unit_interval(self, matrix):
        for item in evaluate_all(matrix):
            if not item.is_singular:
                assert 0.0 <= item.value <= 1.0

    @settings(max_examples=120, deadline=None)
    @given(matrices())
    def test_scaling_counts_changes_nothing(self, matrix):
        scaled = AugmentedConfusionMatrix(
            tuple(tuple(3 * c for c in row) for row in matrix.counts)
        )
        for a, b in zip(evaluate_all(matrix), evaluate_all(scaled)):
            if a.is_singular or b.is_singular:
                assert a.is_singular and b.is_singular
            else:
                assert a.value == pytest.approx(b.value, rel=1e-9, abs=1e-12)
