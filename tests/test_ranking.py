"""Dense letter ranking and meta-order consistency checks."""
import pytest

from infoeval import (
    SINGULAR,
    MeasureId,
    MeasureValue,
    MetaOrder,
    binary_expected_order,
    check_meta_order,
    evaluate,
    rank,
    three_class_expected_order,
)
from infoeval.ranking import _letter


def _vals(raw, measure=MeasureId.NI1):
    return [MeasureValue(measure, v) for v in raw]


def _report(models, names, token, rounding=3):
    measure = MeasureId.from_token(token)
    values = [evaluate(measure, models[name]) for name in names]
    return rank(values, rounding=rounding, model_names=names)


class TestLetters:
    def test_sequence(self):
        assert [_letter(k) for k in range(4)] == ["A", "B", "C", "D"]
        assert _letter(25) == "Z"
        assert _letter(26) == "AA"
        assert _letter(27) == "AB"
        assert _letter(52) == "BA"

    def test_distinct_values_descending(self):
        report = rank(_vals([0.2, 0.9, 0.5]))
        assert report.letters == ("C", "A", "B")

    @pytest.mark.parametrize("measure", [MeasureId.ERROR_RATE, MeasureId.REJECT_RATE])
    def test_error_and_reject_rates_rank_lowest_first(self, measure):
        report = rank(_vals([0.2, 0.0, 0.41, 0.0], measure))
        assert report.letters == ("B", "A", "C", "A")

    def test_binary_models_error_and_reject_letters(self, binary_models):
        names = ("M1", "M2", "M3", "M4", "M5", "M6")
        # M5 misclassifies 41 %, and only M3 and M4 reject
        assert _report(binary_models, names, "E").letters == ("B", "B", "A", "A", "D", "C")
        assert _report(binary_models, names, "Rej").letters == ("A", "A", "B", "B", "A", "A")

    def test_ties_share_and_no_letter_is_skipped(self):
        report = rank(_vals([0.7, 0.9, 0.7, 0.3]))
        assert report.letters == ("B", "A", "B", "C")

    def test_rounding_merges_neighbors(self):
        close = _vals([0.9514, 0.9511, 0.4])
        assert rank(close, rounding=3).letters == ("A", "A", "B")
        assert rank(close, rounding=4).letters == ("A", "B", "C")

    def test_default_model_names(self):
        report = rank(_vals([0.1, 0.2]))
        assert report.model_names == ("M1", "M2")

    def test_lookup_helpers(self):
        report = rank(_vals([0.1234, 0.5]), model_names=("x", "y"))
        assert report.letter_of("y") == "A"
        assert report.rounded_value("x") == 0.123
        with pytest.raises(ValueError, match="unknown model name"):
            report.letter_of("z")


class TestSingularHandling:
    def test_singular_gets_no_letter(self):
        report = rank(_vals([0.5, SINGULAR, 0.7]))
        assert report.letters == ("B", None, "A")

    def test_appending_singular_changes_nothing(self, binary_models):
        names = ("M1", "M2", "M3", "M4", "M5")
        with_m6 = _report(binary_models, names + ("M6",), "NI20")
        without = _report(binary_models, names, "NI20")
        assert with_m6.letters[:5] == without.letters
        assert with_m6.letters[5] is None

    def test_all_singular_is_ungraded(self):
        report = rank(_vals([SINGULAR, SINGULAR]), model_names=("x", "y"))
        assert report.letters == (None, None)
        assert report.values == (SINGULAR, SINGULAR)
        assert report.rounded_value("y") is SINGULAR


class TestRankValidation:
    def test_needs_two_models(self):
        with pytest.raises(ValueError, match="at least 2 models"):
            rank(_vals([0.5]))

    def test_mixed_measures_rejected(self):
        values = [
            MeasureValue(MeasureId.NI1, 0.5),
            MeasureValue(MeasureId.NI2, 0.6),
        ]
        with pytest.raises(ValueError, match="mixed measures"):
            rank(values)

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="3 names for 2 values"):
            rank(_vals([0.1, 0.2]), model_names=("a", "b", "c"))


class TestRankProperties:
    def test_permutation_equivariance(self, binary_models):
        names = ("M1", "M2", "M3", "M4", "M5", "M6")
        shuffled = ("M4", "M6", "M1", "M5", "M3", "M2")
        base = _report(binary_models, names, "NI2")
        moved = _report(binary_models, shuffled, "NI2")
        for name in names:
            assert base.letter_of(name) == moved.letter_of(name)

    def test_letters_are_dense(self, three_class_models):
        names = tuple(three_class_models)
        report = _report(three_class_models, names, "NI7")
        used = sorted(set(letter for letter in report.letters if letter))
        assert used == [_letter(k) for k in range(len(used))]

    def test_three_class_ni2_letters(self, three_class_models):
        names = tuple(f"M{k}" for k in range(7, 16))
        report = _report(three_class_models, names, "NI2")
        assert report.letters == ("F", "E", "D", "F", "C", "B", "E", "C", "A")

    def test_class_share_letters(self, class_share_models):
        group_a = ("M1a", "M2a", "M3a", "M4a")
        group_b = ("M1b", "M2b", "M3b", "M4b")
        assert _report(class_share_models, group_a, "NI2").letters == (
            "D", "C", "B", "A",
        )
        assert _report(class_share_models, group_b, "NI2").letters == (
            "D", "B", "C", "A",
        )


class TestMetaOrder:
    def test_reflexive_rejected(self):
        with pytest.raises(ValueError, match="reflexive"):
            MetaOrder((("a", "a"),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            MetaOrder((("a", "b"), ("b", "c"), ("c", "a")))

    def test_long_chain_and_its_cycle(self):
        chain = [(f"m{k}", f"m{k + 1}") for k in range(5000)]
        assert MetaOrder(chain).constraints[-1] == ("m4999", "m5000")
        with pytest.raises(ValueError, match="^constraints contain a cycle$"):
            MetaOrder([*chain, ("m5000", "m0")])

    def test_dag_accepted(self):
        order = MetaOrder((("a", "b"), ("b", "c"), ("a", "c")))
        assert len(order.constraints) == 3

    def test_binary_expected_order_shape(self):
        order = binary_expected_order()
        assert ("M2", "M1") in order.constraints
        assert ("M4", "M3") in order.constraints
        assert ("M4", "M1") in order.constraints
        assert len(order.constraints) == 5
        # the share-dependent pair stays unconstrained
        assert ("M2", "M3") not in order.constraints
        assert ("M3", "M2") not in order.constraints

    def test_three_class_expected_order_shape(self):
        order = three_class_expected_order()
        assert len(order.constraints) == 20
        assert ("M15", "M7") in order.constraints
        assert ("M9", "M8") in order.constraints
        assert ("M9", "M11") not in order.constraints

    def test_three_class_needs_nine_names(self):
        with pytest.raises(ValueError, match="9 model names"):
            three_class_expected_order(("a", "b"))


class TestCheckMetaOrder:
    def test_ni2_satisfies_binary_order(self, binary_models):
        report = _report(binary_models, ("M1", "M2", "M3", "M4"), "NI2")
        assert check_meta_order(report, binary_expected_order()) == []

    def test_ni3_breaks_binary_order(self, binary_models):
        # rewarding pure rejects through H(Y) reverses both error pairs
        report = _report(binary_models, ("M1", "M2", "M3", "M4"), "NI3")
        assert check_meta_order(report, binary_expected_order()) == [
            ("M2", "M1"), ("M4", "M3"), ("M4", "M1"),
        ]

    def test_lower_error_rate_is_better(self):
        report = rank(_vals([0.1, 0.3], MeasureId.ERROR_RATE), model_names=("a", "b"))
        assert check_meta_order(report, MetaOrder((("a", "b"),))) == []
        assert check_meta_order(report, MetaOrder((("b", "a"),))) == [("b", "a")]

    def test_letters_past_z_keep_their_order(self):
        # 28 distinct values: the 26th best gets Z, the 27th AA
        names = tuple(f"m{k}" for k in range(28))
        report = rank(_vals([1.0 - k / 100 for k in range(28)]), model_names=names)
        assert report.letters[25:] == ("Z", "AA", "AB")
        assert check_meta_order(report, MetaOrder((("m25", "m26"),))) == []
        assert check_meta_order(report, MetaOrder((("m26", "m25"),))) == [("m26", "m25")]

    def test_ties_count_as_violations(self):
        report = rank(_vals([0.5, 0.5]), model_names=("a", "b"))
        assert check_meta_order(report, MetaOrder((("a", "b"),))) == [("a", "b")]

    def test_singular_counts_as_violation(self):
        report = rank(_vals([0.5, SINGULAR]), model_names=("a", "b"))
        assert check_meta_order(report, MetaOrder((("a", "b"),))) == [("a", "b")]
        assert check_meta_order(report, MetaOrder((("b", "a"),))) == [("b", "a")]

    def test_three_class_ni2_known_failures(self, three_class_models):
        # NI2 ranks a small-into-large error (M10) level with the
        # large-into-small errors it should beat, and exactly ties
        # M13 with M8; no rounding choice can satisfy all 20 pairs
        names = tuple(f"M{k}" for k in range(7, 16))
        report = _report(three_class_models, names, "NI2")
        violated = check_meta_order(report, three_class_expected_order())
        assert violated == [("M10", "M7"), ("M10", "M8"), ("M13", "M8")]

    def test_three_class_ni2_full_precision_ties(self, three_class_models):
        # the two clashes above are exact equalities, not rounding noise
        ni2 = {
            name: evaluate(MeasureId.NI2, model).value
            for name, model in three_class_models.items()
        }
        assert ni2["M10"] == pytest.approx(ni2["M7"], rel=1e-12)
        assert ni2["M13"] == pytest.approx(ni2["M8"], rel=1e-12)
        assert ni2["M10"] < ni2["M8"]
