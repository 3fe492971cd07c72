"""Departure costs, cross-over solving, sensitivities, and extremum
detectors against frozen oracle values and finite differences."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoeval import (
    AugmentedConfusionMatrix,
    BinaryConfusion,
    CanonicalKind,
    CanonicalModel,
    MeasureId,
    classify_canonical,
    evaluate,
    crossover_analysis,
    crossover_gap,
    crossover_omega,
    delta_I,
    detect_divergence_maximum,
    detect_mi_local_minimum,
    first_order_delta_estimate,
    misclassification_cost,
    modified_mutual_information,
    rank_canonical,
    rejection_cost,
    sensitivity,
    sweep_delta_curves,
)

KINDS = (
    CanonicalKind.SMALL_CLASS_ERROR,
    CanonicalKind.LARGE_CLASS_ERROR,
    CanonicalKind.SMALL_CLASS_REJECT,
    CanonicalKind.LARGE_CLASS_REJECT,
)

# Frozen by the 50-digit oracle: (c1, c2, d) -> costs in KINDS order.
FROZEN_COSTS = {
    (90, 10, 1): (-0.0794253358841, -0.0483446685614,
                  -0.0332192809489, -0.00152003093445),
    (94, 6, 1): (-0.0800493073374, -0.0414170945008,
                 -0.0405889368905, -0.000892673380971),
    (95, 5, 1): (-0.0802011727779, -0.0390013452989,
                 -0.0432192809489, -0.000740005814438),
    (80, 15, 3): (-0.195990923249, -0.123162143049,
                  -0.0840936319807, -0.00782928989822),
    (60, 35, 20): (-0.683181578492, -0.547487544769,
                   -0.303278440292, -0.139571581626),
}

# (n, d) -> cross-over share, root located to 50 digits then truncated
FROZEN_OMEGA = {
    (100, 1): 0.941763793020885,
    (200, 1): 0.958332135479515,
    (1000, 1): 0.981067128953259,
    (100, 2): 0.918991493559489,
    (100, 5): 0.875980958180199,
    (100, 10): 0.830736500813636,
    (50, 1): 0.918991493559489,
    (10000, 1): 0.993959607814069,
}

# (tn, fp, rn, fn, tp, rp) -> (d_tn, d_fp, d_fn, d_tp)
FROZEN_PARTIALS = {
    (80, 5, 5, 3, 6, 1): (0.000988917569855, -0.00985500430305,
                          -0.0146814883574, 0.0244745897697),
    (50, 10, 2, 5, 30, 3): (0.00552156355638, -0.0131034012061,
                            -0.0206350294231, 0.00980891177052),
}


def _im_relaxed(tn, fp, fn, tp, n, c1, c2):
    """I_M on the continuous relaxation with frozen totals n, c1, c2."""
    total = 0.0
    for count, class_total, column in (
        (tn, c1, tn + fn), (fp, c1, fp + tp),
        (fn, c2, fn + tn), (tp, c2, tp + fp),
    ):
        if count > 0.0:
            total += count * math.log2(count * n / (class_total * column))
    return total / n


def _perfect_im(c1, c2):
    n = c1 + c2
    return (c1 * math.log2(n / c1) + c2 * math.log2(n / c2)) / n


class TestCanonicalModel:
    def test_matrix_layouts(self):
        c1, c2, d = 90, 10, 1
        expect = {
            CanonicalKind.SMALL_CLASS_ERROR: ((90, 0, 0), (1, 9, 0)),
            CanonicalKind.LARGE_CLASS_ERROR: ((89, 1, 0), (0, 10, 0)),
            CanonicalKind.SMALL_CLASS_REJECT: ((90, 0, 0), (0, 9, 1)),
            CanonicalKind.LARGE_CLASS_REJECT: ((89, 0, 1), (0, 10, 0)),
        }
        for kind in KINDS:
            model = CanonicalModel(kind, c1, c2, d)
            assert model.matrix().counts == expect[kind]
            assert model.matrix().model_name == kind.value
            assert model.n == 100

    @pytest.mark.parametrize("c1, c2, d", [(10, 10, 1), (10, 5, 5), (10, 5, 0),
                                           (5, 10, 1), (10, 0, 0)])
    def test_ordering_constraint(self, c1, c2, d):
        with pytest.raises(ValueError, match="c1 > c2 > d > 0"):
            CanonicalModel(CanonicalKind.SMALL_CLASS_ERROR, c1, c2, d)


class TestCosts:
    @pytest.mark.parametrize("params, expected", FROZEN_COSTS.items())
    def test_frozen_values(self, params, expected):
        c1, c2, d = params
        costs = tuple(delta_I(CanonicalModel(kind, c1, c2, d)) for kind in KINDS)
        assert costs == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("params", FROZEN_COSTS)
    def test_closed_form_matches_direct_difference(self, params):
        c1, c2, d = params
        base = _perfect_im(c1, c2)
        for kind in KINDS:
            model = CanonicalModel(kind, c1, c2, d)
            direct = modified_mutual_information(model.matrix().distributions())
            assert delta_I(model) == pytest.approx(direct - base, abs=1e-12)

    def test_always_negative(self):
        for (c1, c2, d) in ((3, 2, 1), (200, 199, 198), (50, 2, 1)):
            for kind in KINDS:
                assert delta_I(CanonicalModel(kind, c1, c2, d)) < 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="positive"):
            misclassification_cost(0, 1, 100)
        with pytest.raises(ValueError, match="positive"):
            misclassification_cost(10, 0, 100)
        with pytest.raises(ValueError, match="positive"):
            rejection_cost(0, 1, 100)

    @settings(max_examples=80)
    @given(
        st.floats(min_value=0.5, max_value=500.0),
        st.floats(min_value=0.5, max_value=500.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_misclassification_cost_decreases_with_receiving_total(
        self, x, bump, d
    ):
        n = 1000.0
        assert misclassification_cost(x + bump, d, n) < misclassification_cost(
            x, d, n
        )

    @settings(max_examples=80)
    @given(
        st.floats(min_value=0.5, max_value=400.0),
        st.floats(min_value=0.5, max_value=400.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_rejection_cost_increases_with_class_total(self, x, bump, d):
        n = 1000.0
        assert rejection_cost(x + bump, d, n) > rejection_cost(x, d, n)
        assert rejection_cost(x, d, n) < 0.0


class TestSensitivity:
    @pytest.mark.parametrize("cells, expected", FROZEN_PARTIALS.items())
    def test_frozen_values(self, cells, expected):
        vec = sensitivity(BinaryConfusion(*cells))
        assert (vec.d_tn, vec.d_fp, vec.d_fn, vec.d_tp) == pytest.approx(
            expected, rel=1e-9
        )

    def test_reject_partials_follow_exactly(self):
        vec = sensitivity(BinaryConfusion(80, 5, 5, 3, 6, 1))
        assert vec.d_rn == -(vec.d_tn + vec.d_fp)
        assert vec.d_rp == -(vec.d_fn + vec.d_tp)

    @pytest.mark.parametrize("cells", FROZEN_PARTIALS)
    def test_matches_central_finite_differences(self, cells):
        b = BinaryConfusion(*cells)
        vec = sensitivity(b)
        n, c1, c2 = float(b.n), float(b.c1), float(b.c2)
        h = 1e-4
        base = dict(tn=float(b.tn), fp=float(b.fp), fn=float(b.fn), tp=float(b.tp))
        for cell, partial in (
            ("tn", vec.d_tn), ("fp", vec.d_fp), ("fn", vec.d_fn), ("tp", vec.d_tp)
        ):
            up = dict(base, **{cell: base[cell] + h})
            down = dict(base, **{cell: base[cell] - h})
            fd = (
                _im_relaxed(n=n, c1=c1, c2=c2, **up)
                - _im_relaxed(n=n, c1=c1, c2=c2, **down)
            ) / (2 * h)
            assert partial == pytest.approx(fd, abs=1e-8)

    def test_zero_count_drops_log_term(self):
        b = BinaryConfusion(tn=90, fp=0, rn=0, fn=0, tp=10, rp=0)
        vec = sensitivity(b)
        assert vec.d_fp == pytest.approx(math.log2(100 / 90) / 100, rel=1e-12)
        assert vec.d_fn == pytest.approx(math.log2(100 / 10) / 100, rel=1e-12)


class TestFirstOrderEstimate:
    def test_error_kinds_vanish_exactly(self):
        for c1, c2, d in ((90, 10, 1), (80, 15, 3), (60, 35, 20)):
            for kind in (CanonicalKind.SMALL_CLASS_ERROR,
                         CanonicalKind.LARGE_CLASS_ERROR):
                assert first_order_delta_estimate(
                    CanonicalModel(kind, c1, c2, d)
                ) == 0.0

    def test_reject_kinds_do_not_vanish(self):
        for c1, c2, d in ((90, 10, 1), (80, 15, 3)):
            n = c1 + c2
            small = first_order_delta_estimate(
                CanonicalModel(CanonicalKind.SMALL_CLASS_REJECT, c1, c2, d)
            )
            large = first_order_delta_estimate(
                CanonicalModel(CanonicalKind.LARGE_CLASS_REJECT, c1, c2, d)
            )
            assert small == pytest.approx(-3 * d * math.log2(n / c2) / n, rel=1e-12)
            assert large == pytest.approx(-3 * d * math.log2(n / c1) / n, rel=1e-12)
            assert small < large < 0.0

    def test_estimate_underestimates_true_error_cost(self):
        # the vanishing first-order term hides a genuinely negative cost
        model = CanonicalModel(CanonicalKind.SMALL_CLASS_ERROR, 90, 10, 1)
        assert first_order_delta_estimate(model) == 0.0
        assert delta_I(model) < -0.07


class TestCrossover:
    @pytest.mark.parametrize("params, expected", FROZEN_OMEGA.items())
    def test_frozen_roots(self, params, expected):
        assert crossover_omega(*params) == pytest.approx(expected, abs=1e-9)

    def test_single_bracket(self):
        result = crossover_analysis(100, 1)
        assert result.sign_changes == 1
        assert len(result.brackets) == 1
        lo, hi = result.brackets[0]
        assert lo < result.omega < hi

    def test_monotone_in_n_and_d(self):
        assert crossover_omega(200, 1) > crossover_omega(100, 1)
        assert crossover_omega(100, 2) < crossover_omega(100, 1)

    def test_scale_invariance(self):
        assert crossover_omega(50, 1) == pytest.approx(
            crossover_omega(100, 2), abs=1e-9
        )
        assert crossover_omega(100, 1) == pytest.approx(
            crossover_omega(300, 3), abs=1e-9
        )

    def test_gap_sign_flips_across_root(self):
        omega = crossover_omega(100, 1)
        assert crossover_gap(omega - 0.01, 100, 1) < 0.0
        assert crossover_gap(omega + 0.01, 100, 1) > 0.0
        assert abs(crossover_gap(omega, 100, 1)) < 1e-9

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="n > 2d"):
            crossover_analysis(10, 5)
        with pytest.raises(ValueError, match="p1 must be in"):
            crossover_gap(1.5, 100, 1)


class TestRankCanonical:
    def test_below_crossover(self):
        ranking = rank_canonical(94, 6, 1)
        assert ranking.p1 == pytest.approx(0.94)
        assert ranking.p1 < ranking.omega
        assert ranking.predicted == (
            CanonicalKind.LARGE_CLASS_REJECT,
            CanonicalKind.SMALL_CLASS_REJECT,
            CanonicalKind.LARGE_CLASS_ERROR,
            CanonicalKind.SMALL_CLASS_ERROR,
        )
        assert ranking.consistent

    def test_above_crossover(self):
        ranking = rank_canonical(95, 5, 1)
        assert ranking.p1 > ranking.omega
        assert ranking.predicted == (
            CanonicalKind.LARGE_CLASS_REJECT,
            CanonicalKind.LARGE_CLASS_ERROR,
            CanonicalKind.SMALL_CLASS_REJECT,
            CanonicalKind.SMALL_CLASS_ERROR,
        )
        assert ranking.consistent

    def test_ni2_values_match_class_share_fixture(self, class_share_models):
        ranking = rank_canonical(94, 6, 1)
        by_fixture = {
            CanonicalKind.SMALL_CLASS_ERROR: "M1a",
            CanonicalKind.LARGE_CLASS_ERROR: "M2a",
            CanonicalKind.SMALL_CLASS_REJECT: "M3a",
            CanonicalKind.LARGE_CLASS_REJECT: "M4a",
        }
        for kind, name in by_fixture.items():
            model = class_share_models[name]
            assert ranking.ni2[kind] == evaluate(MeasureId.NI2, model).value


class TestClassifyCanonical:
    def test_round_trip_all_kinds(self):
        for kind in KINDS:
            model = CanonicalModel(kind, 90, 10, 1)
            assert classify_canonical(model.matrix()) == model

    def test_perfect_matrix_is_not_canonical(self):
        matrix = AugmentedConfusionMatrix(((90, 0, 0), (0, 10, 0)))
        assert classify_canonical(matrix) is None

    def test_two_departures_rejected(self, binary_models):
        assert classify_canonical(binary_models["M6"]) is None

    def test_broken_ordering_rejected(self):
        # the shape fits a small-class reject but c2 = d
        matrix = AugmentedConfusionMatrix(((9, 0, 0), (0, 0, 2)))
        assert classify_canonical(matrix) is None
        # equal class totals
        matrix = AugmentedConfusionMatrix(((10, 0, 0), (1, 9, 0)))
        assert classify_canonical(matrix) is None

    def test_three_class_rejected(self, three_class_models):
        assert classify_canonical(three_class_models["M7"]) is None


def _scanned_mi_local_minimum(matrix):
    """The detector's former rescan of each block's rows and columns."""
    counts = matrix.counts
    m = matrix.n_classes
    blocks = []
    for i in range(m - 1):
        top_left, top_right = counts[i][i], counts[i][i + 1]
        bottom_left, bottom_right = counts[i + 1][i], counts[i + 1][i + 1]
        if min(top_left, top_right, bottom_left, bottom_right) <= 0:
            continue
        if top_left * bottom_right != top_right * bottom_left:
            continue
        rows_clear = all(
            counts[r][j] == 0
            for r in (i, i + 1)
            for j in range(m + 1)
            if j not in (i, i + 1)
        )
        cols_clear = all(
            counts[r][j] == 0
            for j in (i, i + 1)
            for r in range(m)
            if r not in (i, i + 1)
        )
        if rows_clear and cols_clear:
            blocks.append(i + 1)
    return tuple(blocks)


@st.composite
def sparse_matrices(draw):
    """m from 2 to 5, mostly zeros, often with a proportional block whose
    rows and columns are cleared outside it (before a few stray counts)."""
    m = draw(st.integers(2, 5))
    cell = st.sampled_from((0, 0, 0, 0, 1, 2, 3, 6))
    rows = [[draw(cell) for _ in range(m + 1)] for _ in range(m)]
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 2))
        block = (i, i + 1)
        outside = [(r, j) for r in range(m) for j in range(m + 1)
                   if (r in block) != (j in block)]
        for r, j in outside:
            rows[r][j] = 0
        for r, j in draw(st.lists(st.sampled_from(outside), max_size=2)):
            rows[r][j] = 1
        a, b, k = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 3))
        rows[i][i:i + 2] = [a, b]
        rows[i + 1][i:i + 2] = [k * a, k * b]
    for i, row in enumerate(rows):
        if not any(row):
            row[i] = 1
    return AugmentedConfusionMatrix(rows)


class TestDetectors:
    @settings(max_examples=300)
    @given(sparse_matrices())
    def test_mi_local_minimum_matches_the_scan(self, matrix):
        assert detect_mi_local_minimum(matrix) == _scanned_mi_local_minimum(matrix)

    def test_proportional_block_found(self, binary_models):
        assert detect_mi_local_minimum(binary_models["M5"]) == (1,)

    def test_non_proportional_errors_not_flagged(self, binary_models):
        assert detect_mi_local_minimum(binary_models["M6"]) == ()

    def test_diagonal_not_flagged(self):
        matrix = AugmentedConfusionMatrix(((5, 0, 0), (0, 3, 0)))
        assert detect_mi_local_minimum(matrix) == ()

    def test_interior_block_in_three_classes(self):
        matrix = AugmentedConfusionMatrix(
            ((5, 0, 0, 0), (0, 6, 4, 0), (0, 3, 2, 0))
        )
        assert detect_mi_local_minimum(matrix) == (2,)

    def test_reject_mass_disqualifies_block(self):
        matrix = AugmentedConfusionMatrix(
            ((5, 0, 0, 0), (0, 6, 4, 1), (0, 3, 2, 0))
        )
        assert detect_mi_local_minimum(matrix) == ()

    def test_mass_outside_block_disqualifies(self):
        matrix = AugmentedConfusionMatrix(
            ((5, 0, 1, 0), (0, 6, 4, 0), (0, 3, 2, 0))
        )
        assert detect_mi_local_minimum(matrix) == ()

    def test_divergence_maximum_on_equal_marginals(self, binary_models):
        assert detect_divergence_maximum(binary_models["M6"])
        assert not detect_divergence_maximum(binary_models["M1"])
        assert not detect_divergence_maximum(binary_models["M5"])

    def test_divergence_maximum_on_diagonal(self):
        matrix = AugmentedConfusionMatrix(((5, 0, 0), (0, 3, 0)))
        assert detect_divergence_maximum(matrix)

    def test_divergence_maximum_tolerates_balanced_errors(self):
        # marginal equality is what matters, not correctness
        matrix = AugmentedConfusionMatrix(
            ((3, 1, 0, 0), (1, 2, 1, 0), (0, 1, 1, 0))
        )
        assert detect_divergence_maximum(matrix)

    def test_reject_mass_breaks_divergence_maximum(self, binary_models):
        assert not detect_divergence_maximum(binary_models["M3"])


class TestSweep:
    def test_curve_values_and_ordering(self):
        points = sweep_delta_curves(100, 1, [0.6, 0.75, 0.9])
        assert [p.p1 for p in points] == [0.6, 0.75, 0.9]
        for p in points:
            assert p.small_class_error < p.large_class_error < 0.0
            assert p.small_class_reject < p.large_class_reject < 0.0
            assert p.small_class_error < p.small_class_reject

    def test_matches_frozen_costs_at_090(self):
        (point,) = sweep_delta_curves(100, 1, [0.9])
        expected = FROZEN_COSTS[(90, 10, 1)]
        assert (
            point.small_class_error, point.large_class_error,
            point.small_class_reject, point.large_class_reject,
        ) == pytest.approx(expected, rel=1e-9)

    def test_middle_curves_cross_at_omega(self):
        omega = crossover_omega(100, 1)
        below, above = sweep_delta_curves(100, 1, [omega - 0.02, omega + 0.02])
        assert below.large_class_error < below.small_class_reject
        assert above.large_class_error > above.small_class_reject

    def test_grid_bounds_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            sweep_delta_curves(100, 1, [0.5])
        with pytest.raises(ValueError, match="outside"):
            sweep_delta_curves(100, 1, [1.0])


class TestKindsAsCells:
    def test_values_and_moved_cells(self):
        cells = {kind.value: (kind.row, kind.col) for kind in CanonicalKind}
        assert cells == {
            "small-class-error": (1, 0),
            "large-class-error": (0, 1),
            "small-class-reject": (1, 2),
            "large-class-reject": (0, 2),
        }


class TestCrossoverAtFourD:
    """n = 4d puts the exact crossing p1 = 0.75 on a scan grid point."""

    @pytest.mark.parametrize("n, d", [(8, 2), (100, 25), (400, 100)])
    def test_one_bracket(self, n, d):
        result = crossover_analysis(n, d)
        assert result.sign_changes == 1
        assert result.omega == pytest.approx(0.75, abs=1e-9)

    def test_rank_canonical_consistent(self):
        assert rank_canonical(60, 40, 25).consistent
