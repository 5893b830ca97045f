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

from .constraints import BoundTuple
from .core import _check_realizable
from .errors import InfeasibleError
from .estimators import _LAWS, Estimate, _compose, sum_case3


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


def _bucket_estimate(bucket: Bucket, q: BucketQuery, bias: BucketBias, want_pmf: bool) -> Estimate:
    """The sum estimate of ``q`` knowing the extremes that ``bias`` names.

    A query covering the bucket is answered exactly.  Otherwise, with ``low``
    and ``high`` saying which extremes are known, the bucket maps onto the
    constrained estimator via ``t_hi_blk = b``, ``t_hi_in = b_in`` and

        t_lo_blk = low + high
        t_lo_in = (low and touches_low) + (high and touches_high)

    A partial query touches at most one extreme, so ``t_lo_in <= 1``; with
    no known extreme these are the trivial bounds, whose law is case 2.
    """
    if q.b_in == bucket.b:
        return _compose(_LAWS["sum", 2], [], bucket.s, want_pmf, None)
    low = bias in (BucketBias.LOW, BucketBias.BOTH)
    high = bias in (BucketBias.HIGH, BucketBias.BOTH)
    bt = BoundTuple(
        t_lo_in=(low and q.touches_low) + (high and q.touches_high),
        t_hi_in=q.b_in,
        t_lo_blk=low + high,
        t_hi_blk=bucket.b,
        b_in=q.b_in,
        b_blk=bucket.b,
    )
    return sum_case3(bt, bucket.t, bucket.s, want_pmf)


def cva_estimate(bucket: Bucket, q: BucketQuery, want_pmf: bool = False) -> Estimate:
    """Continuous-value-assumption estimate: linear interpolation with its variance.

    Any bias information is deliberately ignored.  A query covering the whole
    bucket is answered exactly.
    """
    _check_query(bucket, q)
    return _bucket_estimate(bucket, q, BucketBias.NONE, want_pmf)


def biased_estimate(bucket: Bucket, q: BucketQuery, want_pmf: bool = False) -> Estimate:
    """Sum estimate exploiting the bucket's known non-null extremes.

    The located extremes raise the non-null lower bounds of the bucket and,
    when the query covers one, of the query (see ``_bucket_estimate``).
    """
    _check_query(bucket, q)
    if bucket.bias is BucketBias.NONE:
        raise InfeasibleError("bucket carries no bias information; use cva_estimate")
    return _bucket_estimate(bucket, q, bucket.bias, want_pmf)
