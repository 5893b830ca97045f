"""One-dimensional bucket estimators for frequency sums.

A histogram bucket spans ``b`` consecutive attribute values, of which ``t``
occur (non-null frequency) with total frequency ``s``.  Plain linear
interpolation -- the continuous value assumption -- is exactly the case-2
mean, and :func:`cva_estimate` returns it together with the case-2 variance.

Histogram construction usually guarantees more: the lowest value of a bucket
(or both extremes) is known to occur.  :func:`biased_estimate` folds that
knowledge in by handing the constrained sum estimator the matching bound
tuple: the located extremes raise the non-null lower bounds of the bucket
and, when the queried sub-range covers an extreme, of the query too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .constraints import BoundTuple
from .core import _check_realizable
from .errors import InfeasibleError
from .estimators import BlockAggregates, Estimate, Pmf, sum_case2, sum_case3


class BucketBias(Enum):
    NONE = "none"
    LOW = "low"  # lowest value of the bucket is known non-null
    HIGH = "high"  # highest value is known non-null
    BOTH = "both"  # both extremes are known non-null


@dataclass(frozen=True)
class Bucket:
    """Width ``b`` in attribute values, ``t`` non-null frequencies, sum ``s``."""

    b: int
    t: int
    s: int
    bias: BucketBias = BucketBias.NONE

    def __post_init__(self) -> None:
        if self.b < 1:
            raise InfeasibleError(f"bucket width {self.b} must be >= 1")
        _check_realizable(self.b, self.t, self.s, "frequencies")
        if self.bias in (BucketBias.LOW, BucketBias.HIGH) and self.t < 1:
            raise InfeasibleError("a biased bucket has at least one non-null extreme")
        if self.bias is BucketBias.BOTH and self.t < 2:
            raise InfeasibleError("a two-sided biased bucket has at least two non-nulls")


@dataclass(frozen=True)
class BucketQuery:
    """A contiguous sub-range of a bucket, described by size and extreme contact."""

    b_in: int
    touches_low: bool = False
    touches_high: bool = False


def _check_query(bucket: Bucket, q: BucketQuery) -> None:
    if not 1 <= q.b_in <= bucket.b:
        raise InfeasibleError(f"query size {q.b_in} outside [1..{bucket.b}]")
    if (q.touches_low and q.touches_high) != (q.b_in == bucket.b):
        raise InfeasibleError(
            "a contiguous sub-range touches both extremes exactly when it covers the bucket"
        )


def _exact_full_bucket(bucket: Bucket, want_pmf: bool) -> Estimate:
    pmf = Pmf.point(bucket.s) if want_pmf else None
    return Estimate(Fraction(bucket.s), Fraction(0), Fraction(0), pmf)


def cva_estimate(bucket: Bucket, q: BucketQuery, want_pmf: bool = False) -> Estimate:
    """Continuous-value-assumption estimate: linear interpolation with its variance.

    Any bias information is deliberately ignored.  A query covering the whole
    bucket is answered exactly.
    """
    _check_query(bucket, q)
    if q.b_in == bucket.b:
        return _exact_full_bucket(bucket, want_pmf)
    agg = BlockAggregates(bucket.b, bucket.t, bucket.s, q.b_in)
    return sum_case2(agg, want_pmf)


def biased_estimate(bucket: Bucket, q: BucketQuery, want_pmf: bool = False) -> Estimate:
    """Sum estimate exploiting the bucket's known non-null extremes.

    A high-biased bucket mirrors to the low-biased case by swapping which
    extreme the query touches; the four resulting configurations map onto the
    constrained estimator via ``t_hi_blk = b``, ``t_hi_in = b_in`` and

        one extreme known:  t_lo_blk = 1, t_lo_in = 1 if the query covers it
        both extremes known: t_lo_blk = 2, t_lo_in = 1 if the query covers one
    """
    _check_query(bucket, q)
    if bucket.bias is BucketBias.NONE:
        raise InfeasibleError("bucket carries no bias information; use cva_estimate")
    if q.b_in == bucket.b:
        return _exact_full_bucket(bucket, want_pmf)
    touches_low, touches_high = q.touches_low, q.touches_high
    if bucket.bias is BucketBias.HIGH:
        touches_low, touches_high = touches_high, touches_low
    if bucket.bias is BucketBias.BOTH:
        t_lo_blk = 2
        t_lo_in = 1 if (touches_low or touches_high) else 0
    else:
        t_lo_blk = 1
        t_lo_in = 1 if touches_low else 0
    bt = BoundTuple(
        t_lo_in=t_lo_in,
        t_hi_in=q.b_in,
        t_lo_blk=t_lo_blk,
        t_hi_blk=bucket.b,
        b_in=q.b_in,
        b_blk=bucket.b,
    )
    return sum_case3(bt, bucket.t, bucket.s, want_pmf)
