"""Matrix construction, validation, parsing, and empirical distributions."""
import json

import pytest

from infoeval import (
    AugmentedConfusionMatrix,
    BinaryConfusion,
    MeasureId,
    evaluate,
    evaluate_all,
    parse_matrices,
    parse_selection,
    to_binary,
)


class TestConstruction:
    def test_basic_properties(self):
        m = AugmentedConfusionMatrix(((90, 0, 0), (1, 9, 0)))
        assert m.n_classes == 2
        assert m.total == 100
        assert m.row_totals == (90, 10)
        assert m.column_totals == (91, 9, 0)
        assert m.reject_total == 0

    def test_reject_column_counted(self):
        m = AugmentedConfusionMatrix(((89, 0, 1), (0, 9, 1)))
        assert m.reject_total == 2
        assert m.total == 100

    def test_counts_are_normalized_to_tuples(self):
        m = AugmentedConfusionMatrix([[1, 2, 3], [4, 5, 6]])
        assert m.counts == ((1, 2, 3), (4, 5, 6))

    def test_integral_floats_accepted(self):
        m = AugmentedConfusionMatrix(((90.0, 0.0, 0.0), (1.0, 9.0, 0.0)))
        assert m.counts[0][0] == 90
        assert isinstance(m.counts[0][0], int)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            AugmentedConfusionMatrix(((1, 2),))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged rows"):
            AugmentedConfusionMatrix(((1, 2, 3), (4, 5)))

    def test_missing_reject_column_rejected(self):
        # constructor wants the full m x (m+1) shape; from_rows pads
        with pytest.raises(ValueError, match="expected 3"):
            AugmentedConfusionMatrix(((1, 2), (3, 4)))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative entry"):
            AugmentedConfusionMatrix(((1, -2, 0), (3, 4, 0)))

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            AugmentedConfusionMatrix(((1.5, 0, 0), (0, 1, 0)))

    def test_bool_count_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            AugmentedConfusionMatrix(((True, 0, 0), (0, 1, 0)))

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="row total is zero"):
            AugmentedConfusionMatrix(((1, 0, 0), (0, 0, 0)))

    def test_from_rows_pads_reject_column(self):
        m = AugmentedConfusionMatrix.from_rows([[5, 1], [2, 7]])
        assert m.counts == ((5, 1, 0), (2, 7, 0))

    def test_from_rows_keeps_existing_reject_column(self):
        m = AugmentedConfusionMatrix.from_rows([[5, 1, 2], [2, 7, 0]])
        assert m.counts == ((5, 1, 2), (2, 7, 0))

    def test_with_name(self):
        m = AugmentedConfusionMatrix(((1, 0, 0), (0, 1, 0)))
        named = m.with_name("baseline")
        assert named.model_name == "baseline"
        assert named.counts == m.counts
        assert m.model_name is None


class TestDistributions:
    def test_joint_times_n_recovers_counts(self):
        m = AugmentedConfusionMatrix(((57, 38, 0), (3, 2, 0)))
        d = m.distributions()
        assert d.n == 100
        for i, row in enumerate(d.joint):
            for j, p in enumerate(row):
                assert p * d.n == pytest.approx(m.counts[i][j], abs=1e-9)
                assert round(p * d.n) == m.counts[i][j]

    def test_marginals(self):
        m = AugmentedConfusionMatrix(((89, 0, 1), (0, 9, 1)))
        d = m.distributions()
        assert d.row_marginal == (0.9, 0.1)
        assert d.col_marginal == (0.89, 0.09, 0.02)

    def test_padded_row_marginal(self):
        m = AugmentedConfusionMatrix(((9, 0, 0), (0, 1, 0)))
        d = m.distributions()
        assert d.row_marginal_padded == (0.9, 0.1, 0.0)
        assert len(d.row_marginal_padded) == len(d.col_marginal)

    def test_marginals_sum_to_one(self):
        m = AugmentedConfusionMatrix(((7, 2, 1), (3, 5, 4)))
        d = m.distributions()
        assert sum(d.row_marginal) == pytest.approx(1.0, abs=1e-15)
        assert sum(d.col_marginal) == pytest.approx(1.0, abs=1e-15)


class TestBinaryView:
    def test_cell_mapping(self):
        m = AugmentedConfusionMatrix(((80, 5, 5), (3, 6, 1)))
        b = to_binary(m)
        assert (b.tn, b.fp, b.rn, b.fn, b.tp, b.rp) == (80, 5, 5, 3, 6, 1)
        assert (b.c1, b.c2, b.n) == (90, 10, 100)

    def test_round_trip(self):
        b = BinaryConfusion(tn=80, fp=5, rn=5, fn=3, tp=6, rp=1)
        assert to_binary(b.to_matrix()) == b

    def test_three_class_rejected(self):
        m = AugmentedConfusionMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
        with pytest.raises(ValueError, match="exactly 2 classes"):
            to_binary(m)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            BinaryConfusion(tn=1, fp=0, rn=0, fn=0, tp=0, rp=0)


class TestJsonParsing:
    def test_bare_array(self):
        parsed = parse_matrices("[[90, 0, 0], [1, 9, 0]]")
        assert len(parsed) == 1
        assert parsed[0].counts == ((90, 0, 0), (1, 9, 0))
        assert parsed[0].model_name is None

    def test_bare_array_without_reject_column(self):
        (m,) = parse_matrices("[[5, 1], [2, 7]]")
        assert m.counts == ((5, 1, 0), (2, 7, 0))

    def test_object_with_name(self):
        (m,) = parse_matrices('{"name": "demo", "matrix": [[1, 0], [0, 1]]}')
        assert m.model_name == "demo"

    def test_batch(self):
        raw = json.dumps([
            {"name": "a", "matrix": [[1, 0], [0, 1]]},
            [[2, 1], [1, 2]],
        ])
        parsed = parse_matrices(raw)
        assert [m.model_name for m in parsed] == ["a", None]

    def test_malformed_json_reports_line(self):
        with pytest.raises(ValueError, match="malformed JSON at line 2"):
            parse_matrices('[[1, 0], [0, 1]\n]extra')

    def test_missing_matrix_key(self):
        with pytest.raises(ValueError, match='"matrix" key'):
            parse_matrices('{"name": "x"}')

    def test_non_string_name(self):
        with pytest.raises(ValueError, match='"name" must be a string'):
            parse_matrices('{"name": 3, "matrix": [[1, 0], [0, 1]]}')

    def test_empty_array(self):
        with pytest.raises(ValueError, match="non-empty"):
            parse_matrices("[]")

    @pytest.mark.parametrize("raw, where", [
        ('{"matrix": 5}', "matrix"),
        ('{"matrix": [[1, 0], 0]}', "matrix"),
        ("[[[1, 0], [0, 1]], [1, 0]]", "matrix 2"),
    ], ids=["object", "object-row", "batch-entry"])
    def test_not_a_2d_array(self, raw, where):
        with pytest.raises(ValueError, match=f"^{where}: expected a 2-D array of counts$"):
            parse_matrices(raw)

    def test_batch_error_names_position(self):
        raw = json.dumps([[[1, 0], [0, 1]], {"name": "bad"}])
        with pytest.raises(ValueError, match="matrix 2"):
            parse_matrices(raw)

    @pytest.mark.parametrize("bad, message", [
        ([[1, -1, 0], [0, 1, 0]], "row 1, column 2: negative entry -1"),
        ([[1, 0, 0], [0, 1]], "ragged rows: row 2 has 2 entries, expected 3"),
        ([[0, 0, 0], [0, 1, 0]], "row total is zero (class 1)"),
    ], ids=["negative", "ragged", "zero-row"])
    def test_batch_count_error_names_the_entry_once(self, bad, message):
        with pytest.raises(ValueError) as info:
            parse_matrices(json.dumps([{"name": "a", "matrix": [[1, 0], [0, 1]]},
                                       {"name": "b", "matrix": bad}]))
        assert str(info.value) == f"matrix 2: {message}"
        # alone, the same matrix is the whole input: the cell is named only
        with pytest.raises(ValueError) as info:
            parse_matrices(json.dumps(bad))
        assert str(info.value) == message

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown input format"):
            parse_matrices("[[1, 0], [0, 1]]", format="xml")


class TestCsvParsing:
    def test_plain_rows(self):
        (m,) = parse_matrices("90, 0, 0\n1, 9, 0\n", format="csv")
        assert m.counts == ((90, 0, 0), (1, 9, 0))

    def test_header_line_skipped(self):
        raw = "pred_1, pred_2, reject\n90, 0, 0\n1, 9, 0\n"
        (m,) = parse_matrices(raw, format="csv")
        assert m.counts == ((90, 0, 0), (1, 9, 0))

    def test_blank_lines_skipped(self):
        (m,) = parse_matrices("\n5, 1\n\n2, 7\n\n", format="csv")
        assert m.counts == ((5, 1, 0), (2, 7, 0))

    def test_non_numeric_body_rejected(self):
        with pytest.raises(ValueError, match="line 3: non-numeric"):
            parse_matrices("h1, h2\n1, 0\nx, 1\n", format="csv")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no numeric rows"):
            parse_matrices("only, a, header\n", format="csv")


class TestCsvHeaderRule:
    """A header is a first line with no numeric cell; decimals are counts."""

    def test_typo_in_first_row_names_the_line(self):
        with pytest.raises(ValueError, match="line 1: non-numeric"):
            parse_matrices("1,x,0\n5,1,0\n0,5,1", format="csv")

    def test_integral_decimal_is_a_count(self):
        (m,) = parse_matrices("5,0.0,0\n0,5,0", format="csv")
        assert m.counts == ((5, 0, 0), (0, 5, 0))
        assert all(type(c) is int for row in m.counts for c in row)

    def test_fractional_count_names_the_cell(self):
        with pytest.raises(ValueError, match="row 1, column 2: count must be an integer"):
            parse_matrices("5,0.5,0\n0,5,0", format="csv")


class TestInputLimits:
    """Inputs beyond what the float kernels can hold fail as bad input."""

    def test_deeply_nested_json(self):
        with pytest.raises(ValueError, match="input is nested too deeply"):
            parse_matrices("[" * 50000 + "]" * 50000)

    @pytest.mark.parametrize("big", [10**164, 10**330, 2**255 - 1],
                             ids=["1e164", "1e330", "2**255-1"])
    def test_total_must_be_below_2_to_the_255(self, big):
        with pytest.raises(ValueError, match=f"total count {big + 1} is too large"):
            AugmentedConfusionMatrix(((big, 0, 0), (0, 1, 0)))

    def test_largest_total_still_evaluates(self):
        # the squared overlap of the Cauchy-Schwarz divergence is 1/n**4
        matrix = AugmentedConfusionMatrix(((1, 0, 0), (0, 0, 2**255 - 2)))
        values = {item.measure.value: item.value
                  for item in evaluate_all(matrix, parse_selection("all"), strict=False)}
        assert values["NI11"] == 0.0

    def test_cross_entropy_that_rounds_to_zero(self):
        # H(Y) = 0 and H(Y;T) = -log2(1 - 1/n), which is 0.0 in floats
        matrix = AugmentedConfusionMatrix(((0, 1, 0), (0, 2**60, 0)))
        assert evaluate(MeasureId.NI22, matrix).value == 0.0
