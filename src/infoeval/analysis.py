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
Every bound on a split (n, d) and on a sweep step is checked here.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from itertools import count, takewhile

from .confusion import _MAX_TOTAL, AugmentedConfusionMatrix, BinaryConfusion
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

_LN2 = math.log(2.0)
_SCAN_POINTS = 1000  # grid intervals of crossover_analysis's sign-change scan
_SCAN_LO, _SCAN_HI = 0.5 + 1e-6, 1.0 - 1e-6
# the scan's shares, built once: _SCAN_POINTS + 1 evenly spaced from
# _SCAN_LO to _SCAN_HI, then the end p1 = 1, which can close a bracket
# but is never evaluated
_SCAN = (
    *(_SCAN_LO + (_SCAN_HI - _SCAN_LO) * k / _SCAN_POINTS for k in range(_SCAN_POINTS + 1)),
    1.0,
)


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
        return AugmentedConfusionMatrix(rows, model_name=self.kind.value)


def _out_of_range(function, args: tuple, exc: Exception) -> ValueError:
    # a huge int met a float, or a share underflowed to 0: caught where the
    # formula fails, so no float bound is checked ahead of it
    return ValueError(f"{function.__name__}{args!r} is outside the float range ({exc})")


# the two cost formulas, unchecked; each caller checks its own arguments
# and turns a float-range failure into a ValueError that names it
def _misclassification(x, d, n):
    # x log2(x/(x+d)) is taken as -x log1p(d/x)/ln 2 once x passes d, where
    # the quotient nears 1 and its rounding would swamp the cost; below d
    # the quotient is at most 1/2, and d/x could overflow
    own = -x * math.log1p(d / x) / _LN2 if x > d else x * math.log2(x / (x + d))
    return (own + d * math.log2(d / (x + d))) / n


def _rejection(c, d, n):
    return d / n * math.log2(c / n)


def _gap(x, d, n):
    # the large-class error's cost minus the small-class reject's, both
    # as functions of the small class's count x
    return _misclassification(x, d, n) - _rejection(x, d, n)


def _checked(cost, formula, total, d, n) -> float:
    # the guard and float-range wrapper of both public costs, named by ``cost``
    if not (0 < total < math.inf and 0 < d < math.inf and 0 < n < math.inf):
        raise ValueError(f"{cost.__name__} needs positive finite arguments")
    try:
        return formula(total, d, n)
    except (OverflowError, ValueError) as exc:
        raise _out_of_range(cost, (total, d, n), exc) from None


def misclassification_cost(receiving_total: float, d: float, n: float) -> float:
    """Modified-MI change when d samples wrongly join a pure column.

    ``receiving_total`` is the correct count already in the receiving
    class.  Continuous in all arguments; negative on the whole domain,
    where every argument is positive and finite.
    """
    return _checked(misclassification_cost, _misclassification, receiving_total, d, n)


def rejection_cost(class_total: float, d: float, n: float) -> float:
    """Modified-MI change when d samples of one class are rejected.

    ``class_total`` is the rejected samples' own class total.  Every
    argument must be positive and finite.
    """
    return _checked(rejection_cost, _rejection, class_total, d, n)


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
    departure, positive when the reject is.  ValueError unless
    0 < p1 < 1, n > 0 and d > 0, or when a cost leaves float range.
    """
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"crossover_gap: p1 must be in (0, 1), got {p1}")
    if not (n > 0 and d > 0):
        raise ValueError(f"crossover_gap: n and d must be positive, got n={n}, d={d}")
    # crossover_analysis's scan calls this 1001 times, so the arguments
    # are checked here once, not again by the public costs
    try:
        return _gap((1.0 - p1) * n, d, n)
    except (OverflowError, ValueError) as exc:
        raise _out_of_range(crossover_gap, (p1, n, d), exc) from None


class CrossoverResult(namedtuple("CrossoverResult", "n d omega brackets")):
    n: int
    d: int
    omega: float
    brackets: tuple[tuple[float, float], ...]
    __slots__ = ()

    @property
    def sign_changes(self) -> int:
        return len(self.brackets)


def _check_split(n: int, d: int) -> None:
    # the small class holds fewer than n/2 samples and must give up d;
    # n shares the matrix total's bound, so every cost stays in float range
    if not n > 2 * d > 0:
        raise ValueError(f"need n > 2d > 0, got n={n}, d={d}")
    if n >= _MAX_TOTAL:
        raise ValueError(f"need n below 2**255, got n={n}")


def _small_class_root(n: int, d: int) -> float:
    """The small class's count x* in (0, n/2) at which the gap is 0.

    With x = (1 - p1) n, n gap = x log2(x/(x+d)) + d log2(d/(x+d)) -
    d log2(x/n) falls from +inf at x = 0 to below 0 at n/2 (for n > 2d).
    Its derivative, -(log1p(d/x) + d/x)/ln 2, is negative and increasing,
    so the gap is convex with one root.  A Newton step from the root's
    left rises to it without passing it; one from its right lands on its
    left.  (lo, hi) holds the last point of each sign, and a step that
    would leave it bisects it instead, so each step but the last shrinks
    it.  The search stops at a step of at most 4 ulps of x.

    The start, sqrt(n d/e), is the root for n >> d, where the first term
    of n gap tends to -d/ln 2 and the rest to d log2(n d/x**2); its
    relative error is about a quarter of sqrt(e d/n).
    """
    lo, hi = 0.0, n / 2
    x = math.sqrt(n * d / math.e)
    while True:
        gap = _gap(x, d, n)
        if gap > 0.0:
            lo = x
        elif gap < 0.0:
            hi = x
        else:
            return x
        step = gap * n * _LN2 / (math.log1p(d / x) + d / x)
        tol = 4.0 * math.ulp(x)
        # a step below tol may round onto the bracket's end; it ends the search
        if abs(step) > tol and not lo < x + step < hi:
            step = 0.5 * (lo + hi) - x
        if abs(step) <= tol:
            return x + step
        x += step


def crossover_omega(n: int, d: int) -> float:
    """The unique large-class share in (0.5, 1) where the costs cross.

    omega = (n - x*)/n for the small-class count x* of the crossing,
    solved by safeguarded Newton steps in x.  Past n/d of about 2**106
    that quotient rounds to 1, so there the answer is the largest float
    below 1.  ValueError unless 2**255 > n > 2d > 0.
    """
    _check_split(n, d)
    omega = (n - _small_class_root(n, d)) / n
    return omega if omega < 1.0 else math.nextafter(1.0, 0.0)


def crossover_analysis(n: int, d: int) -> CrossoverResult:
    """The cross-over share, with the grid bracket that holds it.

    ``omega`` is :func:`crossover_omega`.  The bracket comes from a scan
    of :func:`crossover_gap` over 1001 shares in (0.5, 1).  The gap
    strictly increases with p1, so on the scan it is negative up to one
    grid point and not negative from there on.  The one bracket ends at
    that first point, which may be an exact zero (p1 = 0.75 when
    n = 4d), or at p1 = 1 where the whole scan is negative (n/d above
    about 3.679e11): the gap grows without bound as the small class
    empties.  ValueError unless 2**255 > n > 2d > 0.
    """
    omega = crossover_omega(n, d)
    fs = [crossover_gap(p1, n, d) for p1 in _SCAN[:-1]]
    # the first point whose gap is not negative, else the end p1 = 1;
    # the gap at the first point is negative for every n > 2d, so k > 0
    k = next((k for k, f in enumerate(fs) if not f < 0.0), len(fs))
    return CrossoverResult(n=n, d=d, omega=omega, brackets=((_SCAN[k - 1], _SCAN[k]),))


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
    the order the cross-over rule predicts.  The rule compares the
    closed-form costs of the large-class error and the small-class
    reject directly, not p1 = c1/n with the float omega.  Past n/d of
    about 1e13 the four NI2 values can tie in floats, so the observed
    order, and ``consistent``, can be wrong.
    """
    models = tuple(CanonicalModel(kind, c1, c2, d) for kind in CanonicalKind)
    ni2 = {
        model.kind: evaluate(MeasureId.NI2, model.matrix()).value
        for model in models
    }
    observed = tuple(sorted(ni2, key=lambda kind: ni2[kind], reverse=True))
    # models follow CanonicalKind: the large-class error, then the small-class reject
    large_error, small_reject = (delta_I(model) for model in models[1:3])
    middle = models[2:0:-1] if large_error < small_reject else models[1:3]
    # the large-class reject is always best and the small-class error worst
    predicted = (CanonicalKind.LARGE_CLASS_REJECT, *(model.kind for model in middle),
                 CanonicalKind.SMALL_CLASS_ERROR)
    p1, omega = c1 / (c1 + c2), crossover_omega(c1 + c2, d)
    return CanonicalRanking(models, ni2, observed, predicted, p1, omega)


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
    return matrix.column_totals[:-1] == matrix.row_totals


# floats: p1, then one cost per CanonicalKind in enum order
SweepPoint = namedtuple(
    "SweepPoint",
    "p1 small_class_error large_class_error small_class_reject large_class_reject",
)


def sweep_delta_curves(n: int, d: int, step: float) -> tuple[SweepPoint, ...]:
    """The four cost curves over the large-class shares p1 = 0.5 + k step.

    Class totals are continuous: c1 = p1 n, c2 = (1 - p1) n.  The grid
    runs k = 1, 2, ... while p1 < 1 and c2 holds the d departing samples,
    with 1e-12 of slack for a share such as 0.5 + 7 * 0.05 that rounds
    above 1 - d/n.  ValueError unless 2**255 > n > 2d > 0 and step >=
    5e-06 (at most 100000 points), or when no point is left.
    """
    _check_split(n, d)
    if not step >= 5e-06:
        raise ValueError(f"step must be at least 5e-06 (at most 100000 grid points), got {step}")
    top = 1.0 - d / n + 1e-12
    # 0.5 + k * step grows with k, so the grid ends at the first share past either bound
    shares = takewhile(lambda p1: p1 < 1.0 - 1e-12 and p1 <= top,
                       (0.5 + k * step for k in count(1)))
    points = tuple(
        SweepPoint(p1, *(_departure_cost(kind, (p1 * n, (1.0 - p1) * n), d, n)
                         for kind in CanonicalKind))
        for p1 in shares
    )
    if not points:
        raise ValueError(
            f"step {step} leaves no grid points inside (0.5, 1) "
            f"where the small class holds d = {d} samples"
        )
    return points
