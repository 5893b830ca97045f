"""Range-query answering over a summary: exact blocks plus per-block estimates.

A query range splits into the box of blocks it totally contains and the
shell of blocks it only partially overlaps.  The totally contained blocks
add a known constant, the exact shift, read in 2^r lookups from the
summary's prefix sums over the block grid, so their number does not matter.
Only the shell carries uncertainty: the loop runs over its blocks alone,
each answered by its law's integer moment kernel (the one the public
single-block estimators wrap).  Numerators add per denominator, and each
moment becomes one exact fraction per query.  Means add by linearity;
variances add because blocks are treated as statistically independent; the
worst-case error bound is composed additively, which is exact whenever the
per-block extremes are simultaneously achievable and conservative otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .constraints import BoundTuple, ConstraintSet, bound_tuple, validate
from .core import Range
from .errors import ConstraintError
from .estimators import (
    BlockAggregates,
    Estimate,
    Pmf,
    _count_kernel,
    _shifted_coordinates,
    _sum_case1_kernel,
    _sum_kernel,
    count_case1,
    count_case2,
    count_case3,
    sum_case1,
    sum_case2,
    sum_case3,
)
# ``decompose`` is not called here, but stays bound: bench/tracing.py patches
# this module's bindings by name, and work moved off the path reads as 0.
from .summary import BlockSummary, CompressedDatacube, decompose  # noqa: F401


class QueryKind(Enum):
    COUNT = "count"
    SUM = "sum"


@dataclass(frozen=True)
class QuerySpec:
    """What to estimate: a range, count or sum, and the estimation case."""

    range: Range
    kind: QueryKind
    case: int = 2
    want_pmf: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", QueryKind(self.kind))
        if self.case not in (1, 2, 3):
            raise ValueError(f"estimation case must be 1, 2 or 3, got {self.case}")


def estimate(
    summary: CompressedDatacube,
    constraints: ConstraintSet | None,
    spec: QuerySpec,
) -> Estimate:
    """Estimate a count/sum query against the summary.

    The pmf is attached only when at most one block is partially covered, in
    which case the totally-contained blocks contribute a constant shift of
    its support.
    """
    if spec.case == 3:
        if constraints is None:
            raise ConstraintError("case 3 needs a constraint set (use case 2 without one)")
        report = validate(constraints, summary)
        if not report.ok:
            raise ConstraintError(f"constraints contradict the summary: {report.message}")

    split = summary._split(spec.range)
    is_count = spec.kind is QueryKind.COUNT
    exact_shift = (summary._counts if is_count else summary._sums).total(split.lo, split.hi)

    if not split.shell:
        pmf = Pmf.point(exact_shift) if spec.want_pmf else None
        return Estimate(Fraction(exact_shift), Fraction(0), Fraction(0), pmf)

    # numerators of each moment, keyed by their denominator
    mean: dict[int, int] = {1: exact_shift}
    variance: dict[int, int] = {}
    max_error: dict[int, int] = {}
    pmf = None
    want_block_pmf = spec.want_pmf and len(split.shell) == 1
    case, q_lo, q_hi = spec.case, spec.range.lo, spec.range.hi
    for _, blk in split.shell:
        t, s, r = blk.count, blk.sum, blk.range
        b_in = 1
        for ql, qh, bl, bh in zip(q_lo, q_hi, r.lo, r.hi):
            b_in *= (qh if qh < bh else bh) - (ql if ql > bl else bl) + 1
        bt = None
        if case == 3:
            bt = bound_tuple(constraints, r, spec.range.intersect(r))
            if is_count:
                moments = _count_kernel(*_shifted_coordinates(bt, t))
            else:
                moments = _sum_kernel(*_shifted_coordinates(bt, t, s), t, s)
        # Cases 1-2 take the draw under trivial bounds, (n, m, l, shift) =
        # (size, t, b_in, 0), unchecked: a BlockSummary is realizable and a
        # shell block holds 1 <= b_in < size cells of the query.
        elif is_count:
            moments = _count_kernel(blk.size, t, b_in, 0)
        elif case == 1:
            moments = _sum_case1_kernel(blk.size, s, b_in)
        else:
            moments = _sum_kernel(blk.size, t, b_in, 0, t, s)
        mean_num, mean_den, var_num, var_den, err_num, err_den = moments
        mean[mean_den] = mean.get(mean_den, 0) + mean_num
        variance[var_den] = variance.get(var_den, 0) + var_num
        max_error[err_den] = max_error.get(err_den, 0) + err_num
        if want_block_pmf:
            pmf = _block_pmf(spec, blk, b_in, bt)
            if exact_shift:
                pmf = pmf.shifted(exact_shift)
    return Estimate(_ratio(mean), _ratio(variance), _ratio(max_error), pmf)


def _ratio(parts: dict[int, int]) -> Fraction:
    """The sum of ``numerator/denominator`` over ``parts``, over their least common multiple."""
    common = lcm(*parts)
    return Fraction(sum(num * (common // den) for den, num in parts.items()), common)


def _block_pmf(spec: QuerySpec, blk: BlockSummary, b_in: int, bt: BoundTuple | None) -> Pmf:
    """The exact pmf of one partial block, from its public estimator."""
    is_count = spec.kind is QueryKind.COUNT
    if spec.case == 3:
        part = count_case3(bt, blk.count, True) if is_count else sum_case3(bt, blk.count, blk.sum, True)
    else:
        agg = BlockAggregates(blk.size, blk.count, blk.sum, b_in)
        if spec.case == 1:
            part = count_case1(agg, True) if is_count else sum_case1(agg, True)
        else:
            part = count_case2(agg, True) if is_count else sum_case2(agg, True)
    return part.pmf
