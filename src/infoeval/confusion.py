"""Augmented confusion matrices and their empirical distributions.

A classification with a reject option is summarized by an m x (m+1)
table of counts: one row per true class, one column per predicted
class, and a final column counting the samples the classifier refused
to label.  Everything downstream (information measures, rankings,
cost analysis) consumes only this table; ``parse_matrices`` reads it
from JSON or CSV text.
"""
from __future__ import annotations

import json
from collections import namedtuple

__all__ = [
    "AugmentedConfusionMatrix",
    "BinaryConfusion",
    "EmpiricalDistribution",
    "parse_matrices",
    "to_binary",
]


# every share is at least 1/n, so a product of up to four shares (the
# squared overlap of the Cauchy-Schwarz divergence) stays above 2**-1022,
# the smallest normal float
_MAX_TOTAL = 2**255


def _as_count(value, where: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    # bool is an int subclass; keep it out of count data
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{where}: count must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{where}: negative entry {value}")
    return value


class AugmentedConfusionMatrix:
    """Validated m x (m+1) count table; the last column holds rejects.

    Invariants enforced at construction: at least two classes, every
    row exactly m+1 entries, non-negative integer counts, a strictly
    positive total for every true class, and a total n below 2**255,
    so that every share c/n and every product of up to four shares is
    a normal float.  The totals are computed once, at construction;
    ``==``, ``hash`` and ``repr`` read only ``counts`` and ``model_name``.
    """

    counts: tuple[tuple[int, ...], ...]
    model_name: str | None
    row_totals: tuple[int, ...]
    column_totals: tuple[int, ...]
    total: int  # n, the sample count
    reject_total: int
    __slots__ = ("counts", "model_name",
                 "row_totals", "column_totals", "total", "reject_total")

    def __init__(self, counts, model_name=None):
        rows = tuple(tuple(row) for row in counts)
        m = len(rows)
        if m < 2:
            raise ValueError(f"need at least 2 classes, got {m} row(s)")
        width = m + 1
        checked = []
        row_totals = []
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(
                    f"ragged rows: row {i + 1} has {len(row)} entries, expected {width}"
                )
            if not all(type(c) is int and c >= 0 for c in row):
                row = tuple(_as_count(c, f"row {i + 1}, column {j + 1}")
                            for j, c in enumerate(row))
            total = sum(row)
            if total == 0:
                raise ValueError(f"row total is zero (class {i + 1})")
            checked.append(row)
            row_totals.append(total)
        n = sum(row_totals)
        if n >= _MAX_TOTAL:
            raise ValueError(f"total count {n} is too large; it must be below 2**255")
        column_totals = tuple(map(sum, zip(*checked)))
        values = (tuple(checked), model_name, tuple(row_totals),
                  column_totals, n, column_totals[-1])  # in __slots__ order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self):
        return self.counts, self.model_name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return "{}(counts={!r}, model_name={!r})".format(
            type(self).__name__, *self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key()

    @classmethod
    def from_rows(cls, rows, *, model_name=None):
        """Build a matrix, zero-padding a missing reject column.

        Accepts m x m (no reject column) or m x (m+1) input.
        """
        rows = [list(row) for row in rows]
        m = len(rows)
        if m >= 2 and all(len(row) == m for row in rows):
            rows = [row + [0] for row in rows]
        return cls(rows, model_name=model_name)

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    def with_name(self, name: str) -> "AugmentedConfusionMatrix":
        return type(self)(self.counts, name)

    def distributions(self) -> "EmpiricalDistribution":
        """Relative frequencies p_ij = c_ij / n with both marginals."""
        n = self.total
        joint = tuple(tuple(c / n for c in row) for row in self.counts)
        row_marginal = tuple(t / n for t in self.row_totals)
        col_marginal = tuple(t / n for t in self.column_totals)
        return EmpiricalDistribution(joint, row_marginal, col_marginal, n)


class EmpiricalDistribution(
    namedtuple("EmpiricalDistribution", "joint row_marginal col_marginal n")
):
    """Joint and marginal relative frequencies of a count table.

    ``row_marginal`` is the true-class distribution p(t) (length m);
    ``col_marginal`` is the predicted distribution p(y) over the m
    classes plus the reject column (length m+1).  Marginals come from
    the integer row and column totals, not from summing the joint, so
    each is a single correctly rounded ratio.
    """

    joint: tuple[tuple[float, ...], ...]
    row_marginal: tuple[float, ...]
    col_marginal: tuple[float, ...]
    n: int
    __slots__ = ()

    @property
    def row_marginal_padded(self) -> tuple[float, ...]:
        """p(t) extended with an explicit zero at the reject position.

        Divergences and cross-entropies compare p(t) with p(y) on a
        shared support of m+1 points; the true-class distribution
        assigns no mass to "reject".
        """
        return (*self.row_marginal, 0.0)


class BinaryConfusion(namedtuple("BinaryConfusion", "tn fp rn fn tp rp")):
    """2-class layout: row 1 = negative class, row 2 = positive class.

    Cell map: c11=tn, c12=fp, c13=rn, c21=fn, c22=tp, c23=rp, so the
    class totals are c1 = tn+fp+rn and c2 = fn+tp+rp.  The total n is
    bounded as a matrix's is, below 2**255.
    """

    tn: int
    fp: int
    rn: int
    fn: int
    tp: int
    rp: int
    __slots__ = ()

    def __new__(cls, tn, fp, rn, fn, tp, rp):
        for name, value in zip(cls._fields, (tn, fp, rn, fn, tp, rp)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if tn + fp + rn == 0 or fn + tp + rp == 0:
            raise ValueError("each class needs at least one sample")
        n = tn + fp + rn + fn + tp + rp
        if n >= _MAX_TOTAL:
            raise ValueError(f"total count {n} is too large; it must be below 2**255")
        return super().__new__(cls, tn, fp, rn, fn, tp, rp)

    @property
    def c1(self) -> int:
        return self.tn + self.fp + self.rn

    @property
    def c2(self) -> int:
        return self.fn + self.tp + self.rp

    @property
    def n(self) -> int:
        return self.c1 + self.c2

    def to_matrix(self, model_name: str | None = None) -> AugmentedConfusionMatrix:
        return AugmentedConfusionMatrix(
            ((self.tn, self.fp, self.rn), (self.fn, self.tp, self.rp)),
            model_name=model_name,
        )


def to_binary(matrix: AugmentedConfusionMatrix) -> BinaryConfusion:
    """View a 2-class matrix through the tn/fp/rn/fn/tp/rp layout."""
    if matrix.n_classes != 2:
        raise ValueError(f"binary view needs exactly 2 classes, got {matrix.n_classes}")
    (tn, fp, rn), (fn, tp, rp) = matrix.counts
    return BinaryConfusion(tn=tn, fp=fp, rn=rn, fn=fn, tp=tp, rp=rp)


def _matrix_from_json_value(value, where: str, batch: bool = False) -> AugmentedConfusionMatrix:
    # shape errors start with where, and so do a batch entry's count errors
    name = None
    if isinstance(value, dict):
        if "matrix" not in value:
            raise ValueError(f"{where}: object is missing the \"matrix\" key")
        raw_name = value.get("name")
        if raw_name is not None and not isinstance(raw_name, str):
            raise ValueError(f"{where}: \"name\" must be a string")
        name = raw_name
        value = value["matrix"]
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ValueError(f"{where}: expected a 2-D array of counts")
    try:
        return AugmentedConfusionMatrix.from_rows(value, model_name=name)
    except ValueError as exc:
        raise (ValueError(f"{where}: {exc}") if batch else exc) from None


def parse_matrices(raw: str, format: str = "json") -> list[AugmentedConfusionMatrix]:
    """Parse one or more matrices from text.

    JSON accepts a bare 2-D array, an object
    ``{"name": str?, "matrix": [[...], ...]}``, or an array of either
    (a batch).  CSV holds a single matrix: one line per class, an
    optional header (a first line with no numeric cell), and an optional
    reject column.  A cell such as ``0.0`` is a count, as in JSON.
    """
    if format == "json":
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from None
        except RecursionError:
            raise ValueError("input is nested too deeply") from None
        if isinstance(data, dict):
            return [_matrix_from_json_value(data, "matrix")]
        if not isinstance(data, list) or not data:
            raise ValueError("expected a matrix, an object, or a non-empty array")
        if all(isinstance(row, list) for row in data) and not any(
            isinstance(cell, list) for row in data for cell in row
        ):
            return [_matrix_from_json_value(data, "matrix")]
        return [
            _matrix_from_json_value(entry, f"matrix {k + 1}", batch=True)
            for k, entry in enumerate(data)
        ]
    if format == "csv":
        return [_parse_csv(raw)]
    raise ValueError(f"unknown input format {format!r}")


def _csv_number(cell: str):
    # int first, so large counts stay exact; None for a non-numeric cell
    for number in (int, float):
        try:
            return number(cell)
        except ValueError:
            pass
    return None


def _parse_csv(raw: str) -> AugmentedConfusionMatrix:
    rows = []
    first = True
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = [_csv_number(cell.strip()) for cell in line.split(",")]
        if None not in cells:
            rows.append(cells)  # _as_count takes 0.0 as 0 and names a 0.5
        elif not (first and all(cell is None for cell in cells)):
            raise ValueError(f"line {lineno}: non-numeric entry in {line!r}")
        first = False
    if not rows:
        raise ValueError("no numeric rows found")
    return AugmentedConfusionMatrix.from_rows(rows)
