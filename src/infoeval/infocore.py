"""Entropy, mutual information, cross-entropy, and divergence kernels.

All logarithms are base 2, so every quantity here is in bits.  Results
take one of three shapes:

* a finite float (the normal case),
* ``math.inf`` from :func:`cross_entropy` when a positive-probability
  event meets a zero in the log argument,
* the module constant :data:`SINGULAR` from :func:`divergence` when a
  strictly positive numerator meets a zero denominator (or a
  positive-weight log of zero) that no 0-convention removes.

``float`` together with :data:`SINGULAR` is the full result type; use
``value is SINGULAR`` or :func:`is_singular` to branch on it.

The conventions 0*log2(0) = 0, 0*log2(0/0) = 0 and 0^2/0 = 0 are
applied wherever a zero coefficient makes the offending term vanish.

H(T,Y), I and I_M share one pass over the joint table.  Every sum adds
its terms left to right in a plain loop.  The built-in ``sum``
compensates float rounding from Python 3.12 on, which would make the
last digits of a result depend on the interpreter version.

The log2 of a quotient within 1/128 of 1 is taken from the difference
of its numerator and denominator, by log1p.  Rounding the quotient
first would move the logarithm by up to about 2**-53 / ln 2, which is
large against a logarithm near 0: H(T), I and H(T;Y) of a table with
one dominant class lost about 1e-12 of their value that way.  With the
integer counts of a matrix the difference is exact.  Outside the band
each logarithm is of a float quotient, as rounded as its inputs.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from enum import Enum

from .confusion import EmpiricalDistribution

__all__ = [
    "SINGULAR",
    "DivergenceKind",
    "ExtendedValue",
    "cross_entropy",
    "divergence",
    "is_singular",
    "joint_entropy",
    "modified_mutual_information",
    "mutual_information",
    "shannon_entropy",
]

_SIMPLEX_TOL = 1e-12
_LN2 = math.log(2.0)
# a quotient inside these bounds takes its log2 from _log2_near
_NEAR_LOW, _NEAR_HIGH = 127 / 128, 129 / 128


class _Singular:
    """Marker for a singularity that no zero-convention removes."""

    __slots__ = ()

    def __reduce__(self) -> str:
        # pickle and copy resolve to the module constant by name
        return "SINGULAR"

    def __repr__(self) -> str:
        return "S"


SINGULAR = _Singular()

# Finite floats, math.inf, or SINGULAR.
ExtendedValue = float | _Singular


def is_singular(value) -> bool:
    return value is SINGULAR


def _check_simplex(p: Sequence[float], name: str) -> None:
    # a NaN entry makes min() order-dependent, but it makes the sum NaN,
    # which fails the sum test: every comparison with NaN is False
    if min(p, default=0.0) < 0.0:
        raise ValueError(f"{name} has a negative entry")
    try:
        total = math.fsum(p)
    except OverflowError:  # a partial sum beyond the float range
        total = math.inf
    if not abs(total - 1.0) <= _SIMPLEX_TOL:
        raise ValueError(f"{name} does not sum to 1 (got {total!r})")


def _check_pair(p: Sequence[float], q: Sequence[float]) -> None:
    """Check two distributions on one support: equal lengths, each a simplex."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    _check_simplex(p, "p")
    _check_simplex(q, "q")


def shannon_entropy(p: Sequence[float]) -> float:
    """H(p) = -sum p_i log2 p_i, with H contributions of 0 at p_i = 0."""
    _check_simplex(p, "p")
    return _entropy(p)


def _log2_near(a, b) -> float:
    """log2(a / b) for a / b near 1, from the difference a - b.

    The difference is exact for integers, and for floats within a
    factor 2 of each other (Sterbenz's lemma).
    """
    return math.log1p((a - b) / b) / _LN2


def _entropy(counts, n=1) -> float:
    """H of counts out of n: a matrix's integer totals, or shares and n = 1.

    Unchecked: for callers that have checked the shares once already.
    """
    total = 0.0
    for c in counts:
        if c > 0:
            x = c / n
            total += x * (_log2_near(c, n) if x > _NEAR_LOW else math.log2(x))
    return -total


def _sum(terms) -> float:
    total = 0.0
    for term in terms:
        total += term
    return total


def _information_terms(rows, n, row_totals, col_totals) -> tuple[float, float, float]:
    """(H(T,Y), I(T,Y), I_M(T,Y)) in one row-major pass over a joint table.

    ``rows`` are the cells of the table and ``row_totals`` and
    ``col_totals`` its margins, all as counts out of ``n``: the integer
    counts of a matrix and its total, or shares and n = 1, where x / 1
    is exact.  Each nonzero cell becomes its share p(t, y) once, as the
    pass reaches it; zeros add nothing.  A row's last cell, its reject
    cell, adds to H(T,Y) and I but not to I_M.
    """
    h = i = i_m = 0.0
    p_y = [b / n for b in col_totals]
    reject = len(p_y) - 1
    for row, a in zip(rows, row_totals):
        pt = a / n
        for j, c in enumerate(row):
            if c > 0:
                p = c / n
                h += p * (_log2_near(c, n) if p > _NEAR_LOW else math.log2(p))
                r = p / (pt * p_y[j])
                if _NEAR_LOW < r < _NEAR_HIGH:
                    # p / (pt py) = c n / (row total * column total)
                    term = p * _log2_near(c * n, a * col_totals[j])
                else:
                    term = p * math.log2(r)
                i += term
                if j != reject:
                    i_m += term
    return -h, i, i_m


def mutual_information(d: EmpiricalDistribution) -> float:
    """Empirical I(T,Y) over all m+1 output columns, reject included."""
    return _information_terms(d.joint, 1, d.row_marginal, d.col_marginal)[1]


def modified_mutual_information(d: EmpiricalDistribution) -> float:
    """I_M(T,Y): the mutual-information sum over the m class columns only.

    Rejected samples still shape the marginals but contribute no terms
    of their own, which is what lets rejects and misclassifications
    carry different costs.  Equals mutual_information exactly when the
    reject column is empty.
    """
    return _information_terms(d.joint, 1, d.row_marginal, d.col_marginal)[2]


def joint_entropy(d: EmpiricalDistribution) -> float:
    """H(T,Y) of the joint table."""
    return _information_terms(d.joint, 1, d.row_marginal, d.col_marginal)[0]


def cross_entropy(p: Sequence[float], q: Sequence[float]) -> float:
    """-sum p(z) log2 q(z); math.inf when some p(z) > 0 meets q(z) = 0."""
    _check_pair(p, q)
    return _cross_entropy(p, q)


def _cross_entropy(p, q, n=1) -> float:
    """Unchecked H(p;q) of counts out of n, or of shares and n = 1."""
    total = 0.0
    for a, b in zip(p, q):
        if a > 0:
            if b == 0:
                return math.inf
            y = b / n
            total -= a / n * (_log2_near(b, n) if y > _NEAR_LOW else math.log2(y))
    return total


def _kl(p, q) -> ExtendedValue:
    total = 0.0
    for a, b in zip(p, q):
        if a > 0.0:
            if b == 0.0:
                return SINGULAR
            total += a * math.log2(a / b)
    return total


def _chi_squared(p, q) -> ExtendedValue:
    total = 0.0
    for a, b in zip(p, q):
        if b == 0.0:
            if a == 0.0:
                continue  # 0^2/0 convention
            return SINGULAR
        total += (a - b) ** 2 / b
    return total


def _squared_euclidean(p, q):
    return _sum((a - b) ** 2 for a, b in zip(p, q))


def _cauchy_schwarz(p, q) -> ExtendedValue:
    dot = _sum(a * b for a, b in zip(p, q))
    if dot == 0.0:
        return SINGULAR
    pp = _sum(a * a for a in p)
    qq = _sum(b * b for b in q)
    return math.log2(pp * qq / dot**2)


def _bhattacharyya(p, q) -> ExtendedValue:
    overlap = _sum(math.sqrt(a * b) for a, b in zip(p, q))
    if overlap == 0.0:
        return SINGULAR
    return -math.log2(overlap)


def _hellinger(p, q):
    return _sum((math.sqrt(a) - math.sqrt(b)) ** 2 for a, b in zip(p, q))


def _variation(p, q):
    return _sum(abs(a - b) for a, b in zip(p, q))


def _symmetric(forward, backward) -> ExtendedValue:
    """D(p, q) + D(q, p) from the two directed values."""
    if forward is SINGULAR or backward is SINGULAR:
        return SINGULAR
    return forward + backward


def _resistor_average(forward, backward) -> ExtendedValue:
    # Harmonic-style combination KL(p,q)*KL(q,p)/(KL(p,q)+KL(q,p)).
    # At KL = KL = 0 the ratio is 0/0 and is surfaced as SINGULAR,
    # even though the limit along p = q is 0.
    if forward is SINGULAR or backward is SINGULAR:
        return SINGULAR
    denom = forward + backward
    if denom == 0.0:
        return SINGULAR
    return forward * backward / denom


def _jensen_shannon(p, q) -> float:
    # never SINGULAR: mid = 0 needs a = b = 0; a positive a + b halves
    # to 0 only at the smallest subnormal, which is kept as it is
    mid = tuple((a + b) / 2.0 or a + b for a, b in zip(p, q))
    return _kl(p, mid) + _kl(q, mid)


class _cached:
    """functools.cached_property without the lock it takes before Python 3.12.

    The value is kept in the instance's __dict__, where it shadows this
    non-data descriptor, so later reads are plain attribute lookups.
    """

    def __init__(self, func):
        self.func = func

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # looked up on the class, as help() does
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Pair:
    """Two distributions on one support, already checked.

    Each directed KL and chi-squared value is computed on first use and
    kept, so the divergences built from the same value share it.  The
    per-matrix record of :mod:`infoeval.measures` is a _Pair of p(t)
    and p(y).
    """

    def __init__(self, p, q):
        self.p = p
        self.q = q

    @_cached
    def kl(self) -> ExtendedValue:
        return _kl(self.p, self.q)

    @_cached
    def kl_back(self) -> ExtendedValue:
        return _kl(self.q, self.p)

    @_cached
    def chi2(self) -> ExtendedValue:
        return _chi_squared(self.p, self.q)

    @_cached
    def chi2_back(self) -> ExtendedValue:
        return _chi_squared(self.q, self.p)


class DivergenceKind(Enum):
    """The eleven divergences between p(t) and p(y), in catalog order.

    Each member is declared as its value, the catalog index (10..20) of
    the normalized measure exp(-D) that it induces, and its formula, a
    function of a checked :class:`_Pair` that returns D in bits or
    SINGULAR.  The divergences built from a directed KL or chi-squared
    value read the one the pair keeps.
    """

    SQUARED_EUCLIDEAN = 10, lambda pq: _squared_euclidean(pq.p, pq.q)
    CAUCHY_SCHWARZ = 11, lambda pq: _cauchy_schwarz(pq.p, pq.q)
    KULLBACK_LEIBLER = 12, lambda pq: pq.kl
    BHATTACHARYYA = 13, lambda pq: _bhattacharyya(pq.p, pq.q)
    PEARSON_CHI_SQUARED = 14, lambda pq: pq.chi2
    HELLINGER = 15, lambda pq: _hellinger(pq.p, pq.q)
    VARIATION = 16, lambda pq: _variation(pq.p, pq.q)
    SYMMETRIC_KL = 17, lambda pq: _symmetric(pq.kl, pq.kl_back)
    JENSEN_SHANNON = 18, lambda pq: _jensen_shannon(pq.p, pq.q)
    SYMMETRIC_CHI_SQUARED = 19, lambda pq: _symmetric(pq.chi2, pq.chi2_back)
    RESISTOR_AVERAGE_KL = 20, lambda pq: _resistor_average(pq.kl, pq.kl_back)

    def __new__(cls, index: int, formula: Callable[[_Pair], ExtendedValue]):
        member = object.__new__(cls)
        member._value_ = index
        member.formula = formula
        return member


def divergence(kind: DivergenceKind | int, p: Sequence[float], q: Sequence[float]) -> ExtendedValue:
    """D_kind(p, q) in bits, or SINGULAR.

    ``kind`` is a member or its catalog index (10..20); anything else
    raises ValueError.  p and q must share a support of equal length;
    for confusion-matrix use, p is the true-class marginal padded with
    a zero at the reject position and q is the predicted marginal.
    """
    formula = DivergenceKind(kind).formula
    _check_pair(p, q)
    return formula(_Pair(tuple(p), tuple(q)))
