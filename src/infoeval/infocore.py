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

Every sum adds its terms left to right in a plain loop.  The built-in
``sum`` compensates float rounding from Python 3.12 on, which would
make the last digits of a result depend on the interpreter version.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from functools import cached_property
from itertools import chain

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


class _Singular:
    """Marker for a singularity that no zero-convention removes."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "S"


SINGULAR = _Singular()

# Finite floats, math.inf, or SINGULAR.
ExtendedValue = float | _Singular


def is_singular(value) -> bool:
    return value is SINGULAR


def _check_simplex(p: Sequence[float], name: str) -> None:
    if any(x < 0.0 for x in p):
        raise ValueError(f"{name} has a negative entry")
    if abs(math.fsum(p) - 1.0) > _SIMPLEX_TOL:
        raise ValueError(f"{name} does not sum to 1 (got {math.fsum(p)!r})")


class DivergenceKind(Enum):
    """The eleven divergences between p(t) and p(y), in catalog order.

    Values are the catalog indices of the normalized measures they
    induce (10..20).
    """

    SQUARED_EUCLIDEAN = 10
    CAUCHY_SCHWARZ = 11
    KULLBACK_LEIBLER = 12
    BHATTACHARYYA = 13
    PEARSON_CHI_SQUARED = 14
    HELLINGER = 15
    VARIATION = 16
    SYMMETRIC_KL = 17
    JENSEN_SHANNON = 18
    SYMMETRIC_CHI_SQUARED = 19
    RESISTOR_AVERAGE_KL = 20


def shannon_entropy(p: Sequence[float]) -> float:
    """H(p) = -sum p_i log2 p_i, with H contributions of 0 at p_i = 0."""
    _check_simplex(p, "p")
    return _entropy(p)


def _entropy(p) -> float:
    # unchecked: for callers that have checked p once already
    total = 0.0
    for x in p:
        if x > 0.0:
            total += x * math.log2(x)
    return -total


def _sum(terms) -> float:
    total = 0.0
    for term in terms:
        total += term
    return total


def _mi_sum(d: EmpiricalDistribution, columns: slice) -> float:
    total = 0.0
    for i, row in enumerate(d.joint):
        pt = d.row_marginal[i]
        for j, pij in enumerate(row[columns]):
            if pij > 0.0:
                total += pij * math.log2(pij / (pt * d.col_marginal[j]))
    return total


def mutual_information(d: EmpiricalDistribution) -> float:
    """Empirical I(T,Y) over all m+1 output columns, reject included."""
    return _mi_sum(d, slice(None))


def modified_mutual_information(d: EmpiricalDistribution) -> float:
    """I_M(T,Y): the mutual-information sum over the m class columns only.

    Rejected samples still shape the marginals but contribute no terms
    of their own, which is what lets rejects and misclassifications
    carry different costs.  Equals mutual_information exactly when the
    reject column is empty.
    """
    return _mi_sum(d, slice(-1))


def joint_entropy(d: EmpiricalDistribution) -> float:
    """H(T,Y) of the joint table."""
    return _entropy(chain.from_iterable(d.joint))


def cross_entropy(p: Sequence[float], q: Sequence[float]) -> float:
    """-sum p(z) log2 q(z); math.inf when some p(z) > 0 meets q(z) = 0."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    _check_simplex(p, "p")
    _check_simplex(q, "q")
    total = 0.0
    for a, b in zip(p, q):
        if a > 0.0:
            if b == 0.0:
                return math.inf
            total -= a * math.log2(b)
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


def _jensen_shannon(p, q) -> ExtendedValue:
    mid = tuple((a + b) / 2.0 for a, b in zip(p, q))
    # never SINGULAR: mid = 0 needs a = b = 0
    return _symmetric(_kl(p, mid), _kl(q, mid))


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

    @cached_property
    def kl(self) -> ExtendedValue:
        return _kl(self.p, self.q)

    @cached_property
    def kl_back(self) -> ExtendedValue:
        return _kl(self.q, self.p)

    @cached_property
    def chi2(self) -> ExtendedValue:
        return _chi_squared(self.p, self.q)

    @cached_property
    def chi2_back(self) -> ExtendedValue:
        return _chi_squared(self.q, self.p)


_DISPATCH = {
    DivergenceKind.SQUARED_EUCLIDEAN: lambda pq: _squared_euclidean(pq.p, pq.q),
    DivergenceKind.CAUCHY_SCHWARZ: lambda pq: _cauchy_schwarz(pq.p, pq.q),
    DivergenceKind.KULLBACK_LEIBLER: lambda pq: pq.kl,
    DivergenceKind.BHATTACHARYYA: lambda pq: _bhattacharyya(pq.p, pq.q),
    DivergenceKind.PEARSON_CHI_SQUARED: lambda pq: pq.chi2,
    DivergenceKind.HELLINGER: lambda pq: _hellinger(pq.p, pq.q),
    DivergenceKind.VARIATION: lambda pq: _variation(pq.p, pq.q),
    DivergenceKind.SYMMETRIC_KL: lambda pq: _symmetric(pq.kl, pq.kl_back),
    DivergenceKind.JENSEN_SHANNON: lambda pq: _jensen_shannon(pq.p, pq.q),
    DivergenceKind.SYMMETRIC_CHI_SQUARED: lambda pq: _symmetric(pq.chi2, pq.chi2_back),
    DivergenceKind.RESISTOR_AVERAGE_KL: lambda pq: _resistor_average(pq.kl, pq.kl_back),
}


def divergence(kind: DivergenceKind, p: Sequence[float], q: Sequence[float]) -> ExtendedValue:
    """D_kind(p, q) in bits, or SINGULAR.

    p and q must share a support of equal length; for confusion-matrix
    use, p is the true-class marginal padded with a zero at the reject
    position and q is the predicted marginal.
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    _check_simplex(p, "p")
    _check_simplex(q, "q")
    return _DISPATCH[kind](_Pair(tuple(p), tuple(q)))
