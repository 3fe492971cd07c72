"""The 24 normalized information measures plus 7 performance measures.

Normalized information (NI) measures come in three groups:

* NI1-NI9: ratios of (modified) mutual information to entropies,
* NI10-NI20: exp(-D) for the eleven divergences between the
  true-class and predicted marginals,
* NI21-NI24: entropy / cross-entropy ratios.

Every finite NI value lies in [0, 1].  Values are snapped to the unit
interval only within a 1e-9 float-noise band; anything further out is
a bug in the formulas and raises :class:`InvariantViolation` instead
of being clipped.

Singularities follow the group conventions: divergence-group measures
surface :data:`~infoeval.infocore.SINGULAR`, while cross-entropy-group
measures map an infinite denominator to 0.0.

Performance measures are the conventional correct/error/reject rates,
accuracy among accepted samples, and (for two classes, with class 1 as
the reference class) precision, recall, and F1 over accepted samples.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from enum import Enum
from functools import cached_property, lru_cache, partial

from .confusion import AugmentedConfusionMatrix
from .infocore import (
    SINGULAR,
    _DISPATCH,
    DivergenceKind,
    ExtendedValue,
    _check_simplex,
    _entropy,
    _Pair,
    cross_entropy,
    joint_entropy,
    modified_mutual_information,
    mutual_information,
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
_ZERO_TOL = 1e-12


class InvariantViolation(RuntimeError):
    """A computed value broke a proven bound; indicates an internal bug."""


class MeasureGroup(Enum):
    MUTUAL_INFORMATION = "mi"
    DIVERGENCE = "divergence"
    CROSS_ENTROPY = "cross-entropy"
    PERFORMANCE = "performance"


class MeasureId(Enum):
    """Catalog identifiers; enum order is the catalog order.

    ``ni_index`` is 1..24 for information measures, None for performance ones.
    """

    NI1 = "NI1"
    NI2 = "NI2"
    NI3 = "NI3"
    NI4 = "NI4"
    NI5 = "NI5"
    NI6 = "NI6"
    NI7 = "NI7"
    NI8 = "NI8"
    NI9 = "NI9"
    NI10 = "NI10"
    NI11 = "NI11"
    NI12 = "NI12"
    NI13 = "NI13"
    NI14 = "NI14"
    NI15 = "NI15"
    NI16 = "NI16"
    NI17 = "NI17"
    NI18 = "NI18"
    NI19 = "NI19"
    NI20 = "NI20"
    NI21 = "NI21"
    NI22 = "NI22"
    NI23 = "NI23"
    NI24 = "NI24"
    CORRECT_RATE = "CR"
    ERROR_RATE = "E"
    REJECT_RATE = "Rej"
    ACCURACY = "A"
    PRECISION = "Precision"
    RECALL = "Recall"
    F1 = "F1"

    # members are singletons that compare by identity; the C identity
    # hash skips Enum's Python-level hash of the member name
    __hash__ = object.__hash__

    def __init__(self, token: str):
        self.ni_index = k = int(token[2:]) if token.startswith("NI") else None
        if k is None:
            self.group = MeasureGroup.PERFORMANCE
        elif k <= 9:
            self.group = MeasureGroup.MUTUAL_INFORMATION
        elif k <= 20:
            self.group = MeasureGroup.DIVERGENCE
        else:
            self.group = MeasureGroup.CROSS_ENTROPY

    @classmethod
    def from_token(cls, token: str) -> "MeasureId":
        key = token.strip().lower()
        for member in cls:
            if member.value.lower() == key:
                return member
        raise ValueError(f"unknown measure {token!r}")


CATALOG: tuple[MeasureId, ...] = tuple(MeasureId)
_INFORMATION = tuple(m for m in CATALOG if m.ni_index is not None)
_POSITION = {m: k for k, m in enumerate(CATALOG)}


def measures_in_group(group: MeasureGroup) -> tuple[MeasureId, ...]:
    return tuple(m for m in CATALOG if m.group is group)


# each selection token, lower-cased, and the measures it expands to:
# the measure ids, the group names, and the keywords; no keyword is
# also a measure id
_SELECTION = {m.value.lower(): (m,) for m in CATALOG}
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


def performance_summary(matrix: AugmentedConfusionMatrix) -> PerformanceSummary:
    """Correct/error/reject rates, accuracy, and binary P/R/F1.

    Errors are counted in integers, so an error-free matrix has an
    error rate of exactly 0.0.  Accuracy is the correct rate among
    accepted (non-rejected) samples, and 0.0 when every sample is
    rejected (the 0/0 policy of the MI ratios).  For two classes,
    class 1 is the reference class; rejected class-1 samples are
    excluded from the recall denominator.
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
        precision = c11 / predicted_first if predicted_first else 0.0
        recall = c11 / accepted_first if accepted_first else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0.0
            else 0.0
        )
    return PerformanceSummary(
        correct_rate=correct / n,
        error_rate=(accepted - correct) / n,
        reject_rate=rejected / n,
        accuracy=correct / accepted if accepted else 0.0,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def _snap_unit(value: float, measure: MeasureId) -> float:
    if value < -_UNIT_TOL or value > 1.0 + _UNIT_TOL:
        raise InvariantViolation(
            f"{measure.value} = {value!r} is outside [0, 1]"
        )
    return min(1.0, max(0.0, value))


def _ratio(numerator: float, denominator: float) -> ExtendedValue:
    """num/den with the degenerate-denominator policy.

    A zero denominator only occurs when H(Y) = 0 (all predictions in
    one column); independence then forces the numerator I to 0 as
    well, and the 0/0 resolves to 0.  A positive numerator over a zero
    denominator cannot arise from a valid matrix and is surfaced as
    SINGULAR rather than silently absorbed.
    """
    if denominator > 0.0:
        return numerator / denominator
    if abs(numerator) <= _ZERO_TOL:
        return 0.0
    return SINGULAR


def _mean(a: float, b: ExtendedValue) -> ExtendedValue:
    return SINGULAR if b is SINGULAR else 0.5 * (a + b)


def _exp_neg(divergence, r: "_Record") -> ExtendedValue:
    """exp(-D) of one divergence between p(t) and p(y), or SINGULAR."""
    d = divergence(r)
    return SINGULAR if d is SINGULAR else math.exp(-d)


def _ce_ratio(h: float, ce: float) -> float:
    """An entropy over a cross entropy; 0.0 when the latter is infinite
    or the entropy is zero.  A cross entropy rounds to 0 only with a
    zero entropy: H(Y) = 0 against p(t) = (1/n, 1 - 1/n) at n >= 2**53.
    """
    return 0.0 if h == 0.0 or math.isinf(ce) else h / ce


class _Record(_Pair):
    """One matrix's shared quantities, each computed on first read and kept.

    The distributions are built and checked once.  As a _Pair, p is
    p(t) padded with a zero at the reject position, so it shares the
    support of q = p(y), and the directed KL and chi-squared values are
    kept alongside the entropies.  An evaluation pays only for the
    quantities its formulas read and computes none of them twice.
    """

    def __init__(self, matrix: AugmentedConfusionMatrix):
        self.matrix = matrix
        self.d = d = matrix.distributions()
        _check_simplex(d.row_marginal, "p(t)")
        _check_simplex(d.col_marginal, "p(y)")
        _Pair.__init__(self, d.row_marginal_padded, d.col_marginal)

    h_t = cached_property(lambda r: _entropy(r.d.row_marginal))
    h_y = cached_property(lambda r: _entropy(r.q))
    h_joint = cached_property(lambda r: joint_entropy(r.d))
    i = cached_property(lambda r: mutual_information(r.d))
    i_m = cached_property(lambda r: modified_mutual_information(r.d))
    # (H(T;Y), H(Y;T))
    ce = cached_property(lambda r: (cross_entropy(r.p, r.q), cross_entropy(r.q, r.p)))
    perf = cached_property(lambda r: performance_summary(r.matrix))


# One formula per catalog measure.  The 2-class-only rates are None
# for a larger matrix.
_FORMULAS: dict[MeasureId, Callable[[_Record], ExtendedValue | None]] = {
    MeasureId.NI1: lambda r: r.i / r.h_t,
    MeasureId.NI2: lambda r: r.i_m / r.h_t,
    MeasureId.NI3: lambda r: _ratio(r.i, r.h_y),
    MeasureId.NI4: lambda r: _mean(r.i / r.h_t, _ratio(r.i, r.h_y)),
    MeasureId.NI5: lambda r: 2.0 * r.i / (r.h_t + r.h_y),
    MeasureId.NI6: lambda r: _ratio(r.i, math.sqrt(r.h_t * r.h_y)),
    MeasureId.NI7: lambda r: r.i / r.h_joint,
    MeasureId.NI8: lambda r: r.i / max(r.h_t, r.h_y),
    MeasureId.NI9: lambda r: _ratio(r.i, min(r.h_t, r.h_y)),
    # NI10-NI20: the divergence kind whose value is the measure's index
    **{
        MeasureId(f"NI{kind.value}"): partial(_exp_neg, _DISPATCH[kind])
        for kind in DivergenceKind
    },
    MeasureId.NI21: lambda r: _ce_ratio(r.h_t, r.ce[0]),
    MeasureId.NI22: lambda r: _ce_ratio(r.h_y, r.ce[1]),
    MeasureId.NI23: lambda r: (
        0.5 * (_ce_ratio(r.h_t, r.ce[0]) + _ce_ratio(r.h_y, r.ce[1]))
    ),
    MeasureId.NI24: lambda r: (
        0.0 if math.inf in r.ce else (r.h_t + r.h_y) / (r.ce[0] + r.ce[1])
    ),
    MeasureId.CORRECT_RATE: lambda r: r.perf.correct_rate,
    MeasureId.ERROR_RATE: lambda r: r.perf.error_rate,
    MeasureId.REJECT_RATE: lambda r: r.perf.reject_rate,
    MeasureId.ACCURACY: lambda r: r.perf.accuracy,
    MeasureId.PRECISION: lambda r: r.perf.precision,
    MeasureId.RECALL: lambda r: r.perf.recall,
    MeasureId.F1: lambda r: r.perf.f1,
}


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
    return tuple(
        (m, _FORMULAS[m], m.ni_index is not None)
        for m in sorted(set(selection), key=_POSITION.__getitem__)
    )


def _run(plan, matrix: AugmentedConfusionMatrix, strict: bool) -> list[MeasureValue]:
    """The plan's values on one matrix; an invariant violation names the matrix."""
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
            elif bounded and value is not SINGULAR:
                value = _snap_unit(value, measure)
            values.append(new(MeasureValue, (measure, value)))
    except InvariantViolation as exc:
        counts = [list(row) for row in matrix.counts]
        raise InvariantViolation(
            f"{exc} in model {matrix.model_name!r}, counts {counts}"
        ) from None
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
