"""Range-query answering over a summary: exact blocks plus per-block estimates.

A query range splits into the box of blocks it totally contains and the
shell of blocks it only partially overlaps.  The totally contained blocks
add a known constant, the exact shift, read in 2^r lookups from the
summary's prefix sums over the block grid, so their number does not matter.
Only the shell carries uncertainty: the query's law is picked once from the
estimators' law table, the one place where the case chooses it, and the
loop runs over the shell blocks alone, calling that law's integer moment
kernel once each.  Numerators add per denominator, and each moment becomes
one exact fraction per query.  Means add by linearity.  Variances add
exactly: the aggregates and the macro-blocks both act block by block, so the
compatible population is a product over blocks, in which the blocks are
independent.  The worst-case error bound is the sum of the per-block bounds:
it dominates every member, but is attained only when every block's worse side
(above or below its mean) is the same side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .constraints import ConstraintSet, bound_tuple, validate
from .core import Range
from .errors import ConstraintError
from .estimators import DEFAULT_PMF_BUDGET, _LAWS, Estimate, Pmf, _law_weights, _shifted_coordinates
from .summary import CompressedDatacube

# Not called here, but kept bound: bench/tracing.py patches these names on
# this module, and a traced layer whose work moved off the path reads as 0.
from .estimators import count_case1, count_case2, count_case3, sum_case1, sum_case2, sum_case3  # noqa: F401
from .summary import decompose  # noqa: F401


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
    case, query = spec.case, spec.range
    law = _LAWS[spec.kind.value, case]
    kernel = law.kernel
    for blk in split.shell:
        t, s, r = blk.count, blk.sum, blk.range
        if case == 3:
            draw = _shifted_coordinates(bound_tuple(constraints, r, query.intersect(r)), t, s)
        else:
            # Cases 1-2 take the draw under trivial bounds, (n, m, l, shift) =
            # (size, t, b_in, 0), unchecked: a BlockSummary is realizable and a
            # shell block holds 1 <= b_in < size cells of the query.
            draw = blk.size, t, r.overlap_size(query), 0
        mean_num, mean_den, var_num, var_den, err_num, err_den = kernel(*draw, t, s)
        mean[mean_den] = mean.get(mean_den, 0) + mean_num
        variance[var_den] = variance.get(var_den, 0) + var_num
        max_error[err_den] = max_error.get(err_den, 0) + err_num
        if want_block_pmf:
            weights = _law_weights(law, draw, t, s, blk.size, DEFAULT_PMF_BUDGET)
            pmf = Pmf.from_weights(*weights).shifted(exact_shift)
    return Estimate(_ratio(mean), _ratio(variance), _ratio(max_error), pmf)


def _ratio(parts: dict[int, int]) -> Fraction:
    """The sum of ``numerator/denominator`` over ``parts``, over their least common multiple."""
    common = lcm(*parts)
    return Fraction(sum(num * (common // den) for den, num in parts.items()), common)
