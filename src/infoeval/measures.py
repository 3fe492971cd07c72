"""The 24 normalized information measures plus 7 performance measures.

Normalized information (NI) measures come in three groups:

* NI1-NI9: ratios of (modified) mutual information to entropies,
* NI10-NI20: exp(-D) for the eleven divergences between the
  true-class and predicted marginals,
* NI21-NI24: entropy / cross-entropy ratios.

Each formula lives on its :class:`MeasureId` member, next to its token,
and reads the quantities it needs from one per-matrix record.

Every finite NI value lies in [0, 1].  Values are snapped to the unit
interval only within a 1e-9 float-noise band; anything further out is
a bug in the formulas and raises :class:`InvariantViolation` instead
of being clipped.

Only NI10-NI20 surface :data:`~infoeval.infocore.SINGULAR`.  NI1-NI9,
NI21-NI24 and the performance rates are never Singular, and a zero
numerator gives them 0.0 whatever the denominator (:func:`_ratio`).

Performance measures are the conventional correct/error/reject rates,
accuracy among accepted samples, and (for two classes, with class 1 as
the reference class) precision, recall, and F1 over accepted samples.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from enum import Enum
from functools import lru_cache

from .confusion import AugmentedConfusionMatrix
from .infocore import (
    SINGULAR,
    DivergenceKind,
    ExtendedValue,
    _cached,
    _cross_entropy,
    _entropy,
    _information_terms,
    _Pair,
    cross_entropy,  # not called here; perfbench/tests looks it up in this module
)

__all__ = [
    "CATALOG",
    "InvariantViolation",
    "MeasureGroup",
    "MeasureId",
    "MeasureValue",
    "PerformanceSummary",
    "evaluate",
    "evaluate_all",
    "measures_in_group",
    "parse_selection",
    "performance_summary",
]

_UNIT_TOL = 1e-9


class InvariantViolation(RuntimeError):
    """A computed value broke a proven bound; indicates an internal bug."""


class MeasureGroup(Enum):
    MUTUAL_INFORMATION = "mi"
    DIVERGENCE = "divergence"
    CROSS_ENTROPY = "cross-entropy"
    PERFORMANCE = "performance"


def _exp_neg(kind: DivergenceKind) -> Callable[["_Record"], ExtendedValue]:
    """The formula exp(-D) of one divergence between p(t) and p(y)."""
    divergence = kind.formula

    def formula(r: "_Record") -> ExtendedValue:
        d = divergence(r)
        return SINGULAR if d is SINGULAR else math.exp(-d)

    return formula


class MeasureId(Enum):
    """Catalog identifiers; enum order is the catalog order.

    Each member is declared as its token and its formula, a function
    of the per-matrix record; the 2-class-only rates are None for a
    larger matrix.  ``ni_index`` is 1..24 for information measures,
    None for performance ones.
    """

    NI1 = "NI1", lambda r: r.i / r.h_t
    NI2 = "NI2", lambda r: r.i_m / r.h_t
    NI3 = "NI3", lambda r: _ratio(r.i, r.h_y)
    NI4 = "NI4", lambda r: 0.5 * (r.i / r.h_t + _ratio(r.i, r.h_y))
    NI5 = "NI5", lambda r: 2.0 * r.i / (r.h_t + r.h_y)
    NI6 = "NI6", lambda r: _ratio(r.i, math.sqrt(r.h_t * r.h_y))
    NI7 = "NI7", lambda r: r.i / r.h_joint
    NI8 = "NI8", lambda r: r.i / max(r.h_t, r.h_y)
    NI9 = "NI9", lambda r: _ratio(r.i, min(r.h_t, r.h_y))
    NI10 = "NI10", _exp_neg(DivergenceKind.SQUARED_EUCLIDEAN)
    NI11 = "NI11", _exp_neg(DivergenceKind.CAUCHY_SCHWARZ)
    NI12 = "NI12", _exp_neg(DivergenceKind.KULLBACK_LEIBLER)
    NI13 = "NI13", _exp_neg(DivergenceKind.BHATTACHARYYA)
    NI14 = "NI14", _exp_neg(DivergenceKind.PEARSON_CHI_SQUARED)
    NI15 = "NI15", _exp_neg(DivergenceKind.HELLINGER)
    NI16 = "NI16", _exp_neg(DivergenceKind.VARIATION)
    NI17 = "NI17", _exp_neg(DivergenceKind.SYMMETRIC_KL)
    NI18 = "NI18", _exp_neg(DivergenceKind.JENSEN_SHANNON)
    NI19 = "NI19", _exp_neg(DivergenceKind.SYMMETRIC_CHI_SQUARED)
    NI20 = "NI20", _exp_neg(DivergenceKind.RESISTOR_AVERAGE_KL)
    NI21 = "NI21", lambda r: _ratio(r.h_t, r.ce[0])
    NI22 = "NI22", lambda r: _ratio(r.h_y, r.ce[1])
    NI23 = "NI23", lambda r: 0.5 * (_ratio(r.h_t, r.ce[0]) + _ratio(r.h_y, r.ce[1]))
    NI24 = "NI24", lambda r: _ratio(r.h_t + r.h_y, r.ce[0] + r.ce[1])
    CORRECT_RATE = "CR", lambda r: r.perf.correct_rate
    ERROR_RATE = "E", lambda r: r.perf.error_rate
    REJECT_RATE = "Rej", lambda r: r.perf.reject_rate
    ACCURACY = "A", lambda r: r.perf.accuracy
    PRECISION = "Precision", lambda r: r.perf.precision
    RECALL = "Recall", lambda r: r.perf.recall
    F1 = "F1", lambda r: r.perf.f1

    # members are singletons that compare by identity; the C identity
    # hash skips Enum's Python-level hash of the member name
    __hash__ = object.__hash__

    def __new__(cls, token: str, formula: Callable[["_Record"], ExtendedValue | None]):
        member = object.__new__(cls)
        member._value_ = token
        member.formula = formula
        member.ni_index = k = int(token[2:]) if token.startswith("NI") else None
        if k is None:
            member.group = MeasureGroup.PERFORMANCE
        elif k <= 9:
            member.group = MeasureGroup.MUTUAL_INFORMATION
        elif k <= 20:
            member.group = MeasureGroup.DIVERGENCE
        else:
            member.group = MeasureGroup.CROSS_ENTROPY
        return member

    @classmethod
    def from_token(cls, token: str) -> "MeasureId":
        member = _TOKENS.get(token.strip().lower())
        if member is None:
            raise ValueError(f"unknown measure {token!r}")
        return member


CATALOG: tuple[MeasureId, ...] = tuple(MeasureId)
_INFORMATION = tuple(m for m in CATALOG if m.ni_index is not None)


def measures_in_group(group: MeasureGroup) -> tuple[MeasureId, ...]:
    return tuple(m for m in CATALOG if m.group is group)


# each measure id, lower-cased, and its measure
_TOKENS = {m.value.lower(): m for m in CATALOG}
# each selection token, lower-cased, and the measures it expands to:
# the measure ids, the group names, and the keywords; no keyword is
# also a measure id
_SELECTION = {token: (m,) for token, m in _TOKENS.items()}
_SELECTION.update({group.value: measures_in_group(group) for group in MeasureGroup})
_SELECTION.update({
    "all": CATALOG,
    "information": _INFORMATION,
    "ni": _INFORMATION,
    "mutual-information": _SELECTION["mi"],
    "ce": _SELECTION["cross-entropy"],
    "perf": _SELECTION["performance"],
})


def parse_selection(text: str) -> tuple[MeasureId, ...]:
    """Expand a selection string into catalog identifiers.

    Accepts a group name (mi, divergence, cross-entropy, performance),
    "information" for NI1-NI24, "all" for the full catalog, or a
    comma-separated list mixing ids and group names.  Duplicates keep
    their first position.
    """
    selected: list[MeasureId] = []
    for token in text.split(","):
        key = token.strip().lower()
        if not key:
            continue
        # from_token raises the unknown-measure error
        for measure in _SELECTION.get(key) or (MeasureId.from_token(token),):
            if measure not in selected:
                selected.append(measure)
    if not selected:
        raise ValueError(f"empty measure selection {text!r}")
    return tuple(selected)


class MeasureValue(namedtuple("MeasureValue", "measure value")):
    measure: MeasureId
    value: ExtendedValue | None  # None: a 2-class-only rate under strict=False
    __slots__ = ()

    @property
    def is_singular(self) -> bool:
        return self.value is SINGULAR


class PerformanceSummary(namedtuple(
    "PerformanceSummary",
    "correct_rate error_rate reject_rate accuracy precision recall f1",
    defaults=(None, None, None),
)):
    """Conventional rates; precision/recall/f1 are None unless m = 2."""

    correct_rate: float
    error_rate: float
    reject_rate: float
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    __slots__ = ()


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when the numerator is zero.

    This one rule, with no tolerance, covers every zero or infinite
    denominator that a validated matrix gives; no matrix gives a zero
    denominator under a nonzero numerator, so that is not guarded:

    * H(Y) = 0 needs one predicted column.  Each p(t, y) then equals its
      p(t) bit for bit and p(y) = n/n = 1.0, so I and I_M are exactly 0.0.
    * A rate's numerator is at most its denominator (correct <= accepted,
      c11 <= either binary total), and p + r = 0 forces 2pr = 0.
    * Cross entropies: an infinite one gives 0.0 by division, and one
      is 0 only when its entropy is 0.
    * Every share is at least 2**-255, so sqrt(H(T) H(Y)) and
      min(H(T), H(Y)) never underflow to 0; an entropy of -0.0 is falsy.
    """
    return numerator / denominator if numerator else 0.0


def performance_summary(matrix: AugmentedConfusionMatrix) -> PerformanceSummary:
    """Correct/error/reject rates, accuracy, and binary P/R/F1.

    Errors are counted in integers, so an error-free matrix has an
    error rate of exactly 0.0.  Accuracy is the correct rate among
    accepted (non-rejected) samples, and 0.0 when every sample is
    rejected; every rate divides through :func:`_ratio`.  For two
    classes, class 1 is the reference class; rejected class-1 samples
    are excluded from the recall denominator.
    """
    n = matrix.total
    m = matrix.n_classes
    correct = sum(matrix.counts[i][i] for i in range(m))
    rejected = matrix.reject_total
    accepted = n - rejected
    precision = recall = f1 = None
    if m == 2:
        (c11, _, c13), (c21, _, _) = matrix.counts
        predicted_first = c11 + c21
        accepted_first = matrix.row_totals[0] - c13
        precision = _ratio(c11, predicted_first)
        recall = _ratio(c11, accepted_first)
        f1 = _ratio(2.0 * precision * recall, precision + recall)
    return PerformanceSummary(
        correct_rate=_ratio(correct, n), error_rate=_ratio(accepted - correct, n),
        reject_rate=_ratio(rejected, n), accuracy=_ratio(correct, accepted),
        precision=precision, recall=recall, f1=f1,
    )


def _snap_unit(value: float, measure: MeasureId) -> float:
    if value < -_UNIT_TOL or value > 1.0 + _UNIT_TOL:
        raise InvariantViolation(
            f"{measure.value} = {value!r} is outside [0, 1]"
        )
    return min(1.0, max(0.0, value))


class _Record(_Pair):
    """One matrix's shared quantities, each computed on first read and kept.

    The marginals need no simplex check: each share c/n of a validated
    matrix is one correctly rounded quotient of non-negative integers, a
    normal float within a relative 2**-53 of c/n.  So no share is
    negative, and the exact sum of either marginal lies within 2**-53
    (about 1.1e-16) of 1, as does its math.fsum, far inside the kernels'
    simplex tolerance of 1e-12.  As a _Pair, p is p(t) padded with a
    zero at the reject position, so it shares the support of q = p(y),
    and the directed KL and chi-squared values are kept alongside the
    entropies.  An evaluation pays only for the quantities its formulas
    read and computes none of them twice.
    """

    def __init__(self, matrix: AugmentedConfusionMatrix):
        self.matrix = matrix
        n = matrix.total
        _Pair.__init__(self, (*(t / n for t in matrix.row_totals), 0.0),
                       tuple(t / n for t in matrix.column_totals))

    @_cached
    def _terms(self) -> tuple[float, float, float]:
        m = self.matrix
        return _information_terms(m.counts, m.total, m.row_totals, m.column_totals)

    # the entropies and cross entropies read the integer totals, so that
    # the log2 of a share near 1 comes from an exact difference
    h_t = _cached(lambda r: _entropy(r.matrix.row_totals, r.matrix.total))
    h_y = _cached(lambda r: _entropy(r.matrix.column_totals, r.matrix.total))
    h_joint = _cached(lambda r: r._terms[0])
    i = _cached(lambda r: r._terms[1])
    i_m = _cached(lambda r: r._terms[2])

    @_cached
    def ce(self) -> tuple[float, float]:
        """(H(T;Y), H(Y;T)) from the integer totals."""
        m = self.matrix
        t, y = (*m.row_totals, 0), m.column_totals
        return _cross_entropy(t, y, m.total), _cross_entropy(y, t, m.total)

    perf = _cached(lambda r: performance_summary(r.matrix))


@lru_cache(maxsize=32)
def _plan(selection: tuple) -> tuple[tuple[MeasureId, Callable, bool], ...]:
    """A selection's steps in catalog order, each measure once.

    A step is (measure, formula, bounded); a bounded value is an NI
    measure's, snapped to [0, 1].  Resolved once per distinct selection.
    """
    for item in selection:
        if not isinstance(item, MeasureId):
            raise ValueError(f"{item!r} is not a MeasureId")
    if not selection:
        raise ValueError("empty measure selection")
    chosen = set(selection)
    return tuple((m, m.formula, m.ni_index is not None) for m in CATALOG if m in chosen)


def _run(plan, matrix: AugmentedConfusionMatrix, strict: bool) -> list[MeasureValue]:
    """The plan's values on one matrix; each error it raises names the matrix."""
    record = _Record(matrix)
    values = []
    # tuple.__new__ builds a MeasureValue without namedtuple's Python-level __new__
    new = tuple.__new__
    try:
        for measure, formula, bounded in plan:
            value = formula(record)
            if value is None:
                if strict:
                    raise ValueError(
                        f"{measure.value} needs a 2-class matrix, got {matrix.n_classes} classes"
                    )
            elif bounded and value is not SINGULAR and not 0.0 < value < 1.0:
                # inside (0, 1) the snap would return the value itself
                value = _snap_unit(value, measure)
            values.append(new(MeasureValue, (measure, value)))
    except (InvariantViolation, ValueError) as exc:
        counts = [list(row) for row in matrix.counts]
        raise type(exc)(f"{exc} in model {matrix.model_name!r}, counts {counts}") from None
    return values


def evaluate(measure: MeasureId, matrix: AugmentedConfusionMatrix) -> MeasureValue:
    """Apply one catalog measure to a matrix."""
    return _run(_plan((measure,)), matrix, strict=True)[0]


def evaluate_all(
    matrix: AugmentedConfusionMatrix,
    selection: Iterable[MeasureId] | None = None,
    *,
    strict: bool = True,
) -> list[MeasureValue]:
    """Evaluate a selection (default: all 24 NI measures) in catalog order.

    Quantities the measures share are computed once per call.  The
    2-class-only Precision, Recall and F1 raise ValueError on a larger
    matrix, or get the value None when ``strict`` is false.  An item
    that is not a MeasureId raises ValueError.
    """
    plan = _plan(_INFORMATION if selection is None else tuple(selection))
    return _run(plan, matrix, strict)
