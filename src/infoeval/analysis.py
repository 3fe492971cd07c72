"""Cost analysis of single-departure classifiers and extremum detectors.

For a 2-class problem with class totals C1 > C2, the four canonical
one-departure models move d samples out of a perfect classification:

* small-class error:  d small-class samples land in the large class,
* large-class error:  d large-class samples land in the small class,
* small-class reject: d small-class samples are rejected,
* large-class reject: d large-class samples are rejected.

Each has a closed-form modified-mutual-information cost (always
negative).  The two middle costs cross at a unique large-class share
omega; below it a small-class reject beats a large-class error, above
it the order flips.  This module computes the costs, solves for the
cross-over point, ranks the four models by NI2, differentiates the
modified mutual information cell by cell, and detects the matrix
patterns at which the information measures reach local extrema.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum

from .confusion import AugmentedConfusionMatrix, BinaryConfusion
from .measures import MeasureId, evaluate

__all__ = [
    "CanonicalKind",
    "CanonicalModel",
    "CanonicalRanking",
    "CrossoverResult",
    "SensitivityVector",
    "SweepPoint",
    "classify_canonical",
    "crossover_gap",
    "crossover_omega",
    "crossover_analysis",
    "delta_I",
    "detect_divergence_maximum",
    "detect_mi_local_minimum",
    "first_order_delta_estimate",
    "misclassification_cost",
    "rank_canonical",
    "rejection_cost",
    "sensitivity",
    "sweep_delta_curves",
]

_F_TOL = 1e-12
_P_TOL = 1e-10
_SCAN_POINTS = 1000  # grid intervals of the cross-over sign-change scan


class CanonicalKind(Enum):
    SMALL_CLASS_ERROR = "small-class-error"
    LARGE_CLASS_ERROR = "large-class-error"
    SMALL_CLASS_REJECT = "small-class-reject"
    LARGE_CLASS_REJECT = "large-class-reject"

    def __init__(self, token: str):
        # the cell that receives the d moved samples: row 0 is the large
        # class, row 1 the small one; an error lands in the other class's
        # column, a reject in column 2
        self.row = 1 if token.startswith("small") else 0
        self.col = 2 if token.endswith("reject") else 1 - self.row


class CanonicalModel(namedtuple("CanonicalModel", "kind c1 c2 d")):
    """One canonical departure, constrained to c1 > c2 > d > 0."""

    kind: CanonicalKind
    c1: int
    c2: int
    d: int
    __slots__ = ()

    def __new__(cls, kind, c1, c2, d):
        if not c1 > c2 > d > 0:
            raise ValueError(f"need c1 > c2 > d > 0, got c1={c1}, c2={c2}, d={d}")
        return super().__new__(cls, kind, c1, c2, d)

    @property
    def n(self) -> int:
        return self.c1 + self.c2

    def matrix(self) -> AugmentedConfusionMatrix:
        rows = [[self.c1, 0, 0], [0, self.c2, 0]]
        row, col = self.kind.row, self.kind.col
        rows[row][row] -= self.d
        rows[row][col] += self.d
        return AugmentedConfusionMatrix(
            tuple(map(tuple, rows)), model_name=self.kind.value
        )


def misclassification_cost(receiving_total: float, d: float, n: float) -> float:
    """Modified-MI change when d samples wrongly join a pure column.

    ``receiving_total`` is the correct count already in the receiving
    class.  Continuous in all arguments; negative on the whole domain.
    """
    if not (receiving_total > 0 and d > 0 and n > 0):
        raise ValueError("misclassification_cost needs positive arguments")
    x = receiving_total
    return (x * math.log2(x / (x + d)) + d * math.log2(d / (x + d))) / n


def rejection_cost(class_total: float, d: float, n: float) -> float:
    """Modified-MI change when d samples of one class are rejected.

    ``class_total`` is the rejected samples' own class total.
    """
    if not (class_total > 0 and d > 0 and n > 0):
        raise ValueError("rejection_cost needs positive arguments")
    return d / n * math.log2(class_total / n)


def _departure_cost(kind: CanonicalKind, totals, d, n) -> float:
    # an error joins the receiving class's column; a reject costs by
    # the rejected samples' own class total
    if kind.col == 2:
        return rejection_cost(totals[kind.row], d, n)
    return misclassification_cost(totals[kind.col], d, n)


def delta_I(model: CanonicalModel) -> float:
    """Closed-form I_M(model) - I_M(perfect classification); always < 0."""
    return _departure_cost(model.kind, (model.c1, model.c2), model.d, model.n)


class SensitivityVector(namedtuple("SensitivityVector", "d_tn d_fp d_rn d_fn d_tp d_rp")):
    """Partials of I_M with respect to the six cell counts (bits/count).

    Taken on the continuous relaxation with n, c1, c2 held fixed; the
    reject partials follow exactly from the count constraints:
    d_rn = -(d_tn + d_fp) and d_rp = -(d_fn + d_tp).
    """

    d_tn: float
    d_fp: float
    d_rn: float
    d_fn: float
    d_tp: float
    d_rp: float
    __slots__ = ()


def sensitivity(b: BinaryConfusion) -> SensitivityVector:
    """Differentiate I_M cell by cell at a binary confusion matrix.

    Zero counts use the 0*log2(0) = 0 convention: the count's own log
    term is dropped, leaving the class-share term.
    """
    n, c1, c2 = b.n, b.c1, b.c2

    def guarded(count: int, column_mate: int) -> float:
        # log2(count / column total), dropped entirely at count = 0
        return math.log2(count / (count + column_mate)) if count > 0 else 0.0

    d_tn = (math.log2(n / c1) + guarded(b.tn, b.fn)) / n
    d_fp = (math.log2(n / c1) + guarded(b.fp, b.tp)) / n
    d_fn = (math.log2(n / c2) + guarded(b.fn, b.tn)) / n
    d_tp = (math.log2(n / c2) + guarded(b.tp, b.fp)) / n
    return SensitivityVector(
        d_tn=d_tn,
        d_fp=d_fp,
        d_rn=-(d_tn + d_fp),
        d_fn=d_fn,
        d_tp=d_tp,
        d_rp=-(d_fn + d_tp),
    )


def first_order_delta_estimate(model: CanonicalModel) -> float:
    """First-order Taylor estimate of delta_I around the perfect matrix.

    Dots the sensitivity vector at the perfect classification with the
    model's cell changes.  For the two error kinds this is exactly 0
    (the moved mass engages two equal partials with opposite signs), a
    caution that first-order analysis is blind to these departures;
    compare with the genuinely negative delta_I.
    """
    base = sensitivity(BinaryConfusion(tn=model.c1, fp=0, rn=0, fn=0, tp=model.c2, rp=0))
    partials = ((base.d_tn, base.d_fp, base.d_rn), (base.d_fn, base.d_tp, base.d_rp))
    row, col = model.kind.row, model.kind.col
    return model.d * (partials[row][col] - partials[row][row])


def crossover_gap(p1: float, n: float, d: float) -> float:
    """large-class-error cost minus small-class-reject cost at share p1.

    Both costs depend on the small class total c2 = (1 - p1) n,
    treated as continuous.  Negative when the error is the worse
    departure, positive when the reject is.
    """
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"p1 must be in (0, 1), got {p1}")
    c2 = (1.0 - p1) * n
    return misclassification_cost(c2, d, n) - rejection_cost(c2, d, n)


class CrossoverResult(namedtuple("CrossoverResult", "n d omega brackets")):
    n: int
    d: int
    omega: float
    brackets: tuple[tuple[float, float], ...]
    __slots__ = ()

    @property
    def sign_changes(self) -> int:
        return len(self.brackets)


def crossover_analysis(n: int, d: int) -> CrossoverResult:
    """Locate where the large-class-error and small-class-reject costs cross.

    Scans p1 over (0.5, 1) for sign changes of :func:`crossover_gap`
    first, reporting every bracket found, then bisects (|gap| < 1e-12
    or bracket narrower than 1e-10).  A gap of exactly 0 on a grid point
    (p1 = 0.75 when n = 4d) counts as non-negative, so it closes one
    bracket instead of opening two.  Exactly one sign change is
    expected; none or several raise instead of guessing.
    """
    if not n > 2 * d > 0:
        raise ValueError(f"need n > 2d > 0, got n={n}, d={d}")
    eps = 1e-6
    lo, hi = 0.5 + eps, 1.0 - eps
    xs = [lo + (hi - lo) * k / _SCAN_POINTS for k in range(_SCAN_POINTS + 1)]
    fs = [crossover_gap(x, n, d) for x in xs]
    brackets = tuple(
        (xs[k], xs[k + 1])
        for k in range(_SCAN_POINTS)
        if (fs[k] < 0.0) != (fs[k + 1] < 0.0)
    )
    if not brackets:
        raise ValueError(
            f"no sign change of the cost gap on ({lo}, {hi}) for n={n}, d={d}"
        )
    if len(brackets) > 1:
        raise ValueError(
            f"expected a unique crossing, found {len(brackets)}: {brackets}"
        )
    a, b = brackets[0]
    fa = crossover_gap(a, n, d)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = crossover_gap(mid, n, d)
        if abs(fm) < _F_TOL or (b - a) < _P_TOL:
            a = b = mid
            break
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    return CrossoverResult(n=n, d=d, omega=0.5 * (a + b), brackets=brackets)


def crossover_omega(n: int, d: int) -> float:
    """The unique large-class share in (0.5, 1) where the costs cross."""
    return crossover_analysis(n, d).omega


_BELOW_OMEGA = (
    CanonicalKind.LARGE_CLASS_REJECT,
    CanonicalKind.SMALL_CLASS_REJECT,
    CanonicalKind.LARGE_CLASS_ERROR,
    CanonicalKind.SMALL_CLASS_ERROR,
)
_ABOVE_OMEGA = (
    CanonicalKind.LARGE_CLASS_REJECT,
    CanonicalKind.LARGE_CLASS_ERROR,
    CanonicalKind.SMALL_CLASS_REJECT,
    CanonicalKind.SMALL_CLASS_ERROR,
)


class CanonicalRanking(namedtuple("CanonicalRanking", "models ni2 observed predicted p1 omega")):
    models: tuple[CanonicalModel, ...]
    ni2: dict[CanonicalKind, float]
    observed: tuple[CanonicalKind, ...]
    predicted: tuple[CanonicalKind, ...]
    p1: float
    omega: float
    __slots__ = ()

    @property
    def consistent(self) -> bool:
        return self.observed == self.predicted


def rank_canonical(c1: int, c2: int, d: int) -> CanonicalRanking:
    """Order the four canonical departures by NI2, best first.

    The observed order (direct NI2 evaluation) is returned alongside
    the order the cross-over rule predicts from p1 = c1/n vs omega.
    """
    models = tuple(CanonicalModel(kind, c1, c2, d) for kind in CanonicalKind)
    ni2 = {
        model.kind: evaluate(MeasureId.NI2, model.matrix()).value
        for model in models
    }
    observed = tuple(sorted(ni2, key=lambda kind: ni2[kind], reverse=True))
    omega = crossover_omega(c1 + c2, d)
    p1 = c1 / (c1 + c2)
    predicted = _BELOW_OMEGA if p1 < omega else _ABOVE_OMEGA
    return CanonicalRanking(
        models=models,
        ni2=ni2,
        observed=observed,
        predicted=predicted,
        p1=p1,
        omega=omega,
    )


def classify_canonical(matrix: AugmentedConfusionMatrix) -> CanonicalModel | None:
    """Recognize a matrix as one of the four canonical departures.

    Returns None for anything else, including matrices of the right
    shape whose totals break c1 > c2 > d > 0.
    """
    if matrix.n_classes != 2:
        return None
    counts = matrix.counts
    moved = [kind for kind in CanonicalKind if counts[kind.row][kind.col]]
    if len(moved) != 1:
        return None
    (kind,) = moved
    d = counts[kind.row][kind.col]
    c1, c2 = matrix.row_totals
    return CanonicalModel(kind, c1, c2, d) if c1 > c2 > d else None


def detect_mi_local_minimum(matrix: AugmentedConfusionMatrix) -> tuple[int, ...]:
    """Adjacent 2x2 blocks at which the mutual information bottoms out.

    A block on classes (i, i+1) qualifies when its four entries are
    positive with proportional rows (checked by exact integer
    cross-multiplication) and both rows and both columns vanish
    outside the block, rejects included.  Returns the 1-based first
    class index of every qualifying block; empty means no local
    minimum pattern.
    """
    counts = matrix.counts
    rows, columns = matrix.row_totals, matrix.column_totals
    blocks = []
    for i in range(matrix.n_classes - 1):
        top_left, top_right = counts[i][i], counts[i][i + 1]
        bottom_left, bottom_right = counts[i + 1][i], counts[i + 1][i + 1]
        if min(top_left, top_right, bottom_left, bottom_right) <= 0:
            continue
        if top_left * bottom_right != top_right * bottom_left:
            continue
        # counts are non-negative: a line is clear outside the block iff
        # its total is its part inside; rows hold rejects, columns not
        if (rows[i], rows[i + 1], columns[i], columns[i + 1]) == (
            top_left + top_right, bottom_left + bottom_right,
            top_left + bottom_left, top_right + bottom_right,
        ):
            blocks.append(i + 1)
    return tuple(blocks)


def detect_divergence_maximum(matrix: AugmentedConfusionMatrix) -> bool:
    """True iff every class's predicted count equals its true count.

    Exact integer comparison; equality forces an empty reject column
    and makes the two marginals identical, which is precisely where
    all eleven divergences vanish and their normalized measures peak.
    """
    row_totals = matrix.row_totals
    column_totals = matrix.column_totals
    return all(
        column_totals[j] == row_totals[j] for j in range(matrix.n_classes)
    )


# floats: p1, then one cost per CanonicalKind in enum order
SweepPoint = namedtuple(
    "SweepPoint",
    "p1 small_class_error large_class_error small_class_reject large_class_reject",
)


def sweep_delta_curves(n: int, d: int, grid: Sequence[float]) -> tuple[SweepPoint, ...]:
    """The four cost curves over a grid of large-class shares.

    Class totals are continuous: c1 = p1 n, c2 = (1 - p1) n.  Grid
    points must lie strictly inside (0.5, 1).
    """
    points = []
    for p1 in grid:
        if not 0.5 < p1 < 1.0:
            raise ValueError(f"grid point {p1} outside (0.5, 1)")
        totals = (p1 * n, (1.0 - p1) * n)
        points.append(
            SweepPoint(p1, *(_departure_cost(kind, totals, d, n) for kind in CanonicalKind))
        )
    return tuple(points)
