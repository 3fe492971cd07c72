"""Behaviour of the 11 public value types that callers may rely on.

Pinned here: the ``repr`` text, ``==`` and ``hash`` between two
instances of the same type, immutability (assignment raises
``AttributeError``), construction by keyword and by position with the
defaults, every validation message, ``with_name``, and that a
matrix's ``==``, ``hash`` and ``repr`` read only ``counts`` and
``model_name``, not its derived totals.  Comparison with other types is
deliberately not pinned, except that a matrix never equals its counts.
A named and an unnamed matrix survive pickle under every protocol, and
copy; ``SINGULAR`` survives both as itself.
"""
import copy
import pickle
import re

import pytest

from infoeval import (
    SINGULAR,
    AugmentedConfusionMatrix,
    BinaryConfusion,
    CanonicalKind,
    CanonicalModel,
    CanonicalRanking,
    CrossoverResult,
    EmpiricalDistribution,
    MeasureId,
    MeasureValue,
    MetaOrder,
    PerformanceSummary,
    RankReport,
    SensitivityVector,
)

SMALL_ERROR = CanonicalKind.SMALL_CLASS_ERROR
LARGE_REJECT = CanonicalKind.LARGE_CLASS_REJECT

# type, keyword arguments in field order, repr of the instance they build
CASES = [
    (
        AugmentedConfusionMatrix,
        {"counts": ((3, 1, 0), (0, 2, 1)), "model_name": "x"},
        "AugmentedConfusionMatrix(counts=((3, 1, 0), (0, 2, 1)), model_name='x')",
    ),
    (
        EmpiricalDistribution,
        {"joint": ((0.5, 0.0, 0.0), (0.0, 0.25, 0.25)), "row_marginal": (0.5, 0.5),
         "col_marginal": (0.5, 0.25, 0.25), "n": 4},
        "EmpiricalDistribution(joint=((0.5, 0.0, 0.0), (0.0, 0.25, 0.25)), "
        "row_marginal=(0.5, 0.5), col_marginal=(0.5, 0.25, 0.25), n=4)",
    ),
    (
        BinaryConfusion,
        {"tn": 1, "fp": 2, "rn": 3, "fn": 4, "tp": 5, "rp": 6},
        "BinaryConfusion(tn=1, fp=2, rn=3, fn=4, tp=5, rp=6)",
    ),
    (
        MeasureValue,
        {"measure": MeasureId.NI2, "value": 0.5},
        "MeasureValue(measure=<MeasureId.NI2: 'NI2'>, value=0.5)",
    ),
    (
        PerformanceSummary,
        {"correct_rate": 0.75, "error_rate": 0.125, "reject_rate": 0.125,
         "accuracy": 0.875, "precision": 1.0, "recall": 0.5, "f1": 0.75},
        "PerformanceSummary(correct_rate=0.75, error_rate=0.125, reject_rate=0.125, "
        "accuracy=0.875, precision=1.0, recall=0.5, f1=0.75)",
    ),
    (
        RankReport,
        {"model_names": ("M1", "M2"), "measure": MeasureId.NI2, "values": (0.25, 1.0),
         "letters": ("B", "A"), "rounding": 3},
        "RankReport(model_names=('M1', 'M2'), measure=<MeasureId.NI2: 'NI2'>, "
        "values=(0.25, 1.0), letters=('B', 'A'), rounding=3)",
    ),
    (
        MetaOrder,
        {"constraints": (("a", "b"), ("b", "c"))},
        "MetaOrder(constraints=(('a', 'b'), ('b', 'c')))",
    ),
    (
        CanonicalModel,
        {"kind": SMALL_ERROR, "c1": 9, "c2": 3, "d": 1},
        "CanonicalModel(kind=<CanonicalKind.SMALL_CLASS_ERROR: 'small-class-error'>, "
        "c1=9, c2=3, d=1)",
    ),
    (
        SensitivityVector,
        {"d_tn": 0.5, "d_fp": 0.25, "d_rn": -0.75, "d_fn": 1.0, "d_tp": 0.5, "d_rp": -1.5},
        "SensitivityVector(d_tn=0.5, d_fp=0.25, d_rn=-0.75, d_fn=1.0, d_tp=0.5, d_rp=-1.5)",
    ),
    (
        CrossoverResult,
        {"n": 100, "d": 1, "omega": 0.9375, "brackets": ((0.9, 0.95),)},
        "CrossoverResult(n=100, d=1, omega=0.9375, brackets=((0.9, 0.95),))",
    ),
    (
        CanonicalRanking,
        {"models": (CanonicalModel(SMALL_ERROR, 9, 3, 1),), "ni2": {SMALL_ERROR: 0.5},
         "observed": (SMALL_ERROR,), "predicted": (LARGE_REJECT,), "p1": 0.75,
         "omega": 0.875},
        "CanonicalRanking(models=(CanonicalModel(kind=<CanonicalKind.SMALL_CLASS_ERROR: "
        "'small-class-error'>, c1=9, c2=3, d=1),), ni2={<CanonicalKind.SMALL_CLASS_ERROR: "
        "'small-class-error'>: 0.5}, observed=(<CanonicalKind.SMALL_CLASS_ERROR: "
        "'small-class-error'>,), predicted=(<CanonicalKind.LARGE_CLASS_REJECT: "
        "'large-class-reject'>,), p1=0.75, omega=0.875)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]

# a second value for the first field of each case, accepted by validation
OTHER_FIRST = {
    AugmentedConfusionMatrix: ((3, 1, 0), (0, 2, 2)),
    EmpiricalDistribution: ((0.25, 0.25, 0.0), (0.0, 0.25, 0.25)),
    BinaryConfusion: 7,
    MeasureValue: MeasureId.NI1,
    PerformanceSummary: 0.5,
    RankReport: ("P", "Q"),
    MetaOrder: (("b", "a"),),
    CanonicalModel: LARGE_REJECT,
    SensitivityVector: 0.0,
    CrossoverResult: 200,
    CanonicalRanking: (),
}


def test_every_type_is_covered():
    assert set(OTHER_FIRST) == {cls for cls, _, _ in CASES}
    assert len(CASES) == 11


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_repr(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, text):
    by_keyword = cls(**kwargs)
    assert cls(*kwargs.values()) == by_keyword
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_equality_and_hash(cls, kwargs, text):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b
    assert a == b and not a != b
    other = cls(**{**kwargs, next(iter(kwargs)): OTHER_FIRST[cls]})
    assert a != other and not a == other
    if cls is CanonicalRanking:
        # the ni2 dict makes the ranking unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, kwargs, text):
    instance = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(instance, name, OTHER_FIRST[cls])
        assert getattr(instance, name) == kwargs[name]
    with pytest.raises(AttributeError):
        instance.extra = 1


def test_defaults():
    m = AugmentedConfusionMatrix(((1, 0, 0), (0, 1, 0)))
    assert m.model_name is None
    summary = PerformanceSummary(correct_rate=1.0, error_rate=0.0, reject_rate=0.0,
                                 accuracy=1.0)
    assert (summary.precision, summary.recall, summary.f1) == (None, None, None)
    assert summary == PerformanceSummary(1.0, 0.0, 0.0, 1.0, None, None, None)


def test_validation_normalizes_fields():
    m = AugmentedConfusionMatrix([[1.0, 0, 0], [0, 2, 0]])
    assert m.counts == ((1, 0, 0), (0, 2, 0))
    assert type(m.counts[0][0]) is int
    assert MetaOrder([[1, 2]]).constraints == (("1", "2"),)


def _matrix(counts):
    return lambda: AugmentedConfusionMatrix(counts)


VALIDATION = [
    (_matrix(((1, 0, 0),)), "need at least 2 classes, got 1 row(s)"),
    (_matrix(((1, 0, 0), (0, 1))), "ragged rows: row 2 has 2 entries, expected 3"),
    (_matrix(((1, 0.5, 0), (0, 1, 0))), "row 1, column 2: count must be an integer, got 0.5"),
    (_matrix(((1, 0, 0), (True, 1, 0))), "row 2, column 1: count must be an integer, got True"),
    (_matrix(((1, "2", 0), (0, 1, 0))), "row 1, column 2: count must be an integer, got '2'"),
    (_matrix(((1, float("inf"), 0), (0, 1, 0))), "row 1, column 2: count must be an integer, got inf"),
    (_matrix(((1, 0, float("nan")), (0, 1, 0))), "row 1, column 3: count must be an integer, got nan"),
    (_matrix(((-1.0, 1, 0), (0, 1, 0))), "row 1, column 1: negative entry -1"),
    (_matrix(((1, 0, 0), (0, -1, 2))), "row 2, column 2: negative entry -1"),
    (_matrix(((1, 0, 0), (0, 0, 0))), "row total is zero (class 2)"),
    (_matrix(((2**255, 0, 0), (0, 1, 0))),
     f"total count {2**255 + 1} is too large; it must be below 2**255"),
    (lambda: BinaryConfusion(1, 0, 0, 0, 1, -1), "rp must be a non-negative integer, got -1"),
    (lambda: BinaryConfusion(1, 0, 0, 0, 1.0, 0), "tp must be a non-negative integer, got 1.0"),
    (lambda: BinaryConfusion(True, 0, 0, 0, 1, 0), "tn must be a non-negative integer, got True"),
    (lambda: BinaryConfusion(0, 0, 0, 0, 1, 0), "each class needs at least one sample"),
    (lambda: BinaryConfusion(1, 0, 0, 0, 0, 0), "each class needs at least one sample"),
    (lambda: BinaryConfusion(2**254, 0, 0, 0, 2**254, 0),
     f"total count {2**255} is too large; it must be below 2**255"),
    (lambda: CanonicalModel(SMALL_ERROR, 3, 3, 1), "need c1 > c2 > d > 0, got c1=3, c2=3, d=1"),
    (lambda: CanonicalModel(SMALL_ERROR, 9, 3, 0), "need c1 > c2 > d > 0, got c1=9, c2=3, d=0"),
    (lambda: CanonicalModel(kind=SMALL_ERROR, c1=9, c2=3, d=3),
     "need c1 > c2 > d > 0, got c1=9, c2=3, d=3"),
    (lambda: MetaOrder((("a", "b"), ("c", "c"))), "constraint ('c', 'c') is reflexive"),
    (lambda: MetaOrder(((1, "1"),)), "constraint ('1', '1') is reflexive"),
    (lambda: MetaOrder(constraints=(("a", "b"), ("b", "c"), ("c", "a"))),
     "constraints contain a cycle"),
]


@pytest.mark.parametrize("build, message", VALIDATION, ids=[m for _, m in VALIDATION])
def test_validation_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_binary_confusion_checks_fields_in_order():
    with pytest.raises(ValueError, match="^fp must"):
        BinaryConfusion(1, -1, 0, 0, 1, -1)


def test_with_name():
    m = AugmentedConfusionMatrix(((3, 1, 0), (0, 2, 1)))
    named = m.with_name("x")
    assert named == AugmentedConfusionMatrix(m.counts, "x")
    assert type(named) is AugmentedConfusionMatrix
    assert m.model_name is None and named.model_name == "x"
    assert (named.row_totals, named.column_totals, named.total, named.reject_total) == (
        (4, 3), (3, 3, 1), 7, 1)
    assert named.with_name(None) == m


def test_matrix_totals_stay_out_of_eq_hash_and_repr():
    m = AugmentedConfusionMatrix(((3, 1, 0), (0, 2, 1)), model_name="x")
    assert hash(m) == hash((m.counts, "x"))
    for name in ("row_totals", "column_totals", "total", "reject_total"):
        assert f"{name}=" not in repr(m)
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
    assert m == AugmentedConfusionMatrix([[3, 1, 0], [0, 2, 1]], model_name="x")
    assert m != AugmentedConfusionMatrix(m.counts, model_name="y")
    # __eq__ returns NotImplemented for a non-matrix, and the tuple's does too
    assert m.__eq__(m.counts) is NotImplemented
    assert (m == m.counts) is False


def test_matrix_distributions_is_a_plain_method():
    # the benchmark's tracer wraps it in the class dict
    method = AugmentedConfusionMatrix.__dict__["distributions"]
    m = AugmentedConfusionMatrix(((3, 1, 0), (0, 2, 1)))
    assert method(m) == m.distributions()


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, kwargs, text):
    instance = cls(**kwargs)
    for clone in (pickle.loads(pickle.dumps(instance)), copy.copy(instance),
                  copy.deepcopy(instance)):
        assert type(clone) is cls and clone == instance


@pytest.mark.parametrize("name", ["x", None])
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_matrix_pickles_under_every_protocol(protocol, name):
    m = AugmentedConfusionMatrix(((3, 1, 0), (0, 2, 1)), name)
    for clone in (pickle.loads(pickle.dumps(m, protocol)), copy.copy(m), copy.deepcopy(m)):
        assert type(clone) is AugmentedConfusionMatrix and clone == m
        assert (clone.counts, clone.model_name) == (m.counts, name)
        assert (clone.row_totals, clone.column_totals, clone.total, clone.reject_total) == (
            (4, 3), (3, 3, 1), 7, 1)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_singular_pickles_to_itself(protocol):
    assert pickle.loads(pickle.dumps(SINGULAR, protocol)) is SINGULAR
    value = pickle.loads(pickle.dumps(MeasureValue(MeasureId.NI17, SINGULAR), protocol))
    assert value.value is SINGULAR and value.is_singular


def test_singular_copies_to_itself():
    assert copy.copy(SINGULAR) is SINGULAR
    assert copy.deepcopy(SINGULAR) is SINGULAR


@pytest.mark.parametrize("cls", [cls for cls, _, _ in CASES[1:]], ids=IDS[1:])
def test_annotations_name_the_tuple_fields(cls):
    # the ten tuple types document their fields as class annotations
    assert tuple(cls.__annotations__) == cls._fields
