"""Letter ranking of competing models and consistency checks.

Models are ranked per measure by rounding the values to a fixed number
of decimals (3 by default, matching how the reference tables are
printed) and assigning letters A, B, C, ... to the distinct rounded
values in descending order.  Ties share a letter and the awarded
letters never skip one, so the letter multiset is readable as a dense
ranking.  Singular values receive no letter and do not disturb the
letters of the finite values.

A :class:`MetaOrder` captures prior knowledge of which model should
beat which ("an error in a small class costs more than a rejection of
a large one"), and :func:`check_meta_order` lists the pairs a measure
gets wrong.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .infocore import SINGULAR
from .measures import MeasureId, MeasureValue

__all__ = [
    "MetaOrder",
    "RankReport",
    "binary_expected_order",
    "check_meta_order",
    "rank",
    "three_class_expected_order",
]


def _letter(position: int) -> str:
    # 0 -> A, 25 -> Z, 26 -> AA, ...
    label = ""
    position += 1
    while position:
        position, rem = divmod(position - 1, 26)
        label = chr(ord("A") + rem) + label
    return label


class RankReport(namedtuple("RankReport", "model_names measure values letters rounding")):
    model_names: tuple[str, ...]
    measure: MeasureId | None
    values: tuple[object, ...]  # floats and SINGULAR markers
    letters: tuple[str | None, ...]
    rounding: int
    __slots__ = ()

    def rounded_value(self, name: str):
        value = self.values[self._index(name)]
        return value if value is SINGULAR else round(value, self.rounding)

    def letter_of(self, name: str) -> str | None:
        return self.letters[self._index(name)]

    def _index(self, name: str) -> int:
        try:
            return self.model_names.index(name)
        except ValueError:
            raise ValueError(f"unknown model name {name!r}") from None


def rank(
    values: Sequence[MeasureValue],
    rounding: int = 3,
    model_names: Sequence[str] | None = None,
) -> RankReport:
    """Letter-rank one measure's values across competing models.

    ``values`` must all carry the same measure.  Model names default
    to "M1", "M2", ... in input order.  When every value is Singular
    the measure grades no model and every letter is None.
    """
    if len(values) < 2:
        raise ValueError(f"ranking needs at least 2 models, got {len(values)}")
    measures = {v.measure for v in values}
    if len(measures) > 1:
        raise ValueError(f"mixed measures in one ranking: {sorted(m.value for m in measures)}")
    if model_names is None:
        model_names = tuple(f"M{k + 1}" for k in range(len(values)))
    else:
        model_names = tuple(model_names)
        if len(model_names) != len(values):
            raise ValueError(
                f"{len(model_names)} names for {len(values)} values"
            )
    raw = tuple(v.value for v in values)
    finite_rounded = sorted(
        {round(v, rounding) for v in raw if v is not SINGULAR}, reverse=True
    )
    letter_for = {value: _letter(k) for k, value in enumerate(finite_rounded)}
    letters = tuple(
        None if v is SINGULAR else letter_for[round(v, rounding)] for v in raw
    )
    return RankReport(
        model_names=model_names,
        measure=next(iter(measures)),
        values=raw,
        letters=letters,
        rounding=rounding,
    )


class MetaOrder(namedtuple("MetaOrder", "constraints")):
    """Pairwise (better, worse) expectations; irreflexive and acyclic."""

    constraints: tuple[tuple[str, str], ...]
    __slots__ = ()

    def __new__(cls, constraints):
        # imported here: the CLI never builds a MetaOrder
        from graphlib import CycleError, TopologicalSorter

        pairs = tuple((str(a), str(b)) for a, b in constraints)
        graph = TopologicalSorter()
        for better, worse in pairs:
            if better == worse:
                raise ValueError(f"constraint ({better!r}, {worse!r}) is reflexive")
            graph.add(worse, better)
        try:
            graph.prepare()
        except CycleError:
            raise ValueError("constraints contain a cycle") from None
        return super().__new__(cls, pairs)


def check_meta_order(report: RankReport, order: MetaOrder) -> list[tuple[str, str]]:
    """Constraints the report violates, in constraint order.

    A (better, worse) pair holds only when `better` has a strictly
    higher rounded value; ties, reversals, and Singular values on
    either side all count as violations.
    """
    violated = []
    for better, worse in order.constraints:
        left = report.rounded_value(better)
        right = report.rounded_value(worse)
        if left is SINGULAR or right is SINGULAR or not left > right:
            violated.append((better, worse))
    return violated


def binary_expected_order(
    names: Sequence[str] = ("M1", "M2", "M3", "M4"),
) -> MetaOrder:
    """Expected order for the four canonical 2-class departures.

    With err_small, err_large, rej_small, rej_large given in that
    order: errors cost more than rejects of the same class, mistakes
    on the small class cost more than on the large class, and the
    transitive pair follows.  err_large vs rej_small is deliberately
    not constrained; their order flips with the class shares.
    """
    err_small, err_large, rej_small, rej_large = names
    return MetaOrder((
        (err_large, err_small),
        (rej_large, rej_small),
        (rej_large, err_large),
        (rej_small, err_small),
        (rej_large, err_small),
    ))


def three_class_expected_order(names: Iterable[str] = tuple(f"M{k}" for k in range(7, 16))) -> MetaOrder:
    """Expected order for the nine canonical 3-class departures.

    In name order: two models that misclassify a smallest-class sample
    (worst tier), six that misclassify or reject middle/large-class
    samples (middle tier), and one that rejects a largest-class sample
    (best tier).  Encodes best > middle > worst, all cross-tier pairs.
    """
    names = tuple(names)
    if len(names) != 9:
        raise ValueError(f"expected 9 model names, got {len(names)}")
    worst = names[0:2]
    middle = names[2:8]
    best = names[8]
    pairs = [(best, other) for other in worst + middle]
    pairs += [(mid, low) for mid in middle for low in worst]
    return MetaOrder(tuple(pairs))
