"""Range-query answering over a summary: exact blocks plus per-block estimates.

A query range splits into the box of blocks it totally contains and the
shell of blocks it only partially overlaps.  The totally contained blocks
add a known constant, the exact shift, read in 2^r lookups from the
summary's prefix sums over the block grid, so their number does not matter.
Only the shell carries uncertainty: the query's law is picked once from the
estimators' law table, the one place where the case chooses it, and the
shell is one draw of that law per block.  Cases 1-2 without a pmf read the
shell by regions: every block of a region holds the same share p of its
cells inside the query, so the region's mean and variance are p and
p(1-p) times one prefix-table lookup each (see ``_Region`` and the law's
``spread``), and its max error is the law's one ``error`` rule over the
region's slices of the summary's flat block columns: a lookup for case-1
sums, one integer loop for the others.  Case 3 and pmf
queries read the shell block by block, one kernel call per draw.  The
estimators' ``_compose`` turns the shift and the shell into the Estimate;
the public estimators, this planner and the histogram all compose through
that one function.  Means add by linearity.  Variances add exactly: the
aggregates and the macro-blocks both act block by block, so the compatible
population is a product over blocks, in which the blocks are independent.
The worst-case error bound is the sum of the per-block bounds (see
``Estimate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .constraints import ConstraintSet, bound_tuple, validate
from .core import Range
from .errors import ConstraintError
from .estimators import DEFAULT_PMF_BUDGET, _LAWS, Estimate, _compose, _region_moments, _shifted_coordinates
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

    The answer is the exact shift plus one draw per shell block, composed by
    the estimators' ``_compose``, which also attaches the pmf when at most
    one block is partially covered.  Cases 1-2 without a pmf sum the draws
    of each shell region at once; case 3 and pmfs take them block by block.
    """
    law = _LAWS[spec.kind.value, spec.case]
    values = summary._sums if law.of_sum else summary._counts
    if spec.case < 3 and not spec.want_pmf:
        lo, hi, regions = summary._regions(spec.range)
        spread, spread_den = summary._prefix_ratios(law.spread)
        columns = summary._columns
        parts = [
            _region_moments(
                law, clip, width, values.total(r_lo, r_hi), spread.total(r_lo, r_hi), spread_den, columns, slices
            )
            for r_lo, r_hi, clip, width, slices, _ in regions
        ]
        return _compose(law, [], values.total(lo, hi), False, DEFAULT_PMF_BUDGET, parts)

    if spec.case == 3:
        if constraints is None:
            raise ConstraintError("case 3 needs a constraint set (use case 2 without one)")
        report = validate(constraints, summary)
        if not report.ok:
            raise ConstraintError(f"constraints contradict the summary: {report.message}")

    split = summary._split(spec.range)
    case, query = spec.case, spec.range
    draws = []
    for blk in split.shell:
        t, s, r = blk.count, blk.sum, blk.range
        if case == 3:
            bt = bound_tuple(constraints, r, query.intersect(r))
            draw, b = _shifted_coordinates(bt, t, s), bt.b_blk
        else:
            # Cases 1-2 take the draw under trivial bounds, (n, m, l, shift) =
            # (b, t, b_in, 0), unchecked: a BlockSummary is realizable and a
            # shell block holds 1 <= b_in < b cells of the query.
            b = blk.size
            draw = b, t, r.overlap_size(query), 0
        draws.append((draw, t, s, b))
    return _compose(law, draws, values.total(split.lo, split.hi), spec.want_pmf, DEFAULT_PMF_BUDGET)
