"""Range-query answering over a summary: exact blocks plus per-block estimates.

A query range splits into the box of blocks it totally contains and the
shell of blocks it only partially overlaps, both listed by the summary's one
shell enumeration (``_regions``): the inner box, and the shell as regions
whose blocks all hold the same share p of their cells inside the query.  The
totally contained blocks add a known constant, the exact shift, read in 2^r
lookups from the summary's prefix sums over the block grid, so their number
does not matter.  Only the shell carries uncertainty: the query's law is
picked once from the estimators' law table, the one place where the case
chooses it, and the shell is one draw of that law per block.  Cases 1-2
without a pmf take the shell a region at a time (``_box_moments``): a
region's mean and variance are p and p(1-p) times its totals of the law's x
and of its ``spread``, summed over the region's slices of the summary's flat
block columns, and its max error is the law's one ``error`` rule over the
same slices: a multiple of the region's total for case-1 sums, one integer
loop for the others.  Case 3 and pmf queries read the same regions block by
block, one kernel call per draw, each block holding p times its cells inside
the query.  A case-3 query first lists every block's located null and
non-null cells (``_located_columns``) and checks the whole summary against
that list, as ``validate`` does; then each shell block's draw comes straight
from its row of the list and one more pass over the macro-blocks
(``_located``) that counts its part inside the query, with no bound tuple
built: after the check every block's count lies within its bounds, and
these are the draws that ``bound_tuple`` would give.  ``_box_moments``
divides its own sums into the Estimate, since each of its moments has one
denominator; the shell drawn block by block goes to the estimators'
``_compose``, which builds every answer made of block draws and holds the
pmf rule.  Means add by linearity.  Variances add exactly: the aggregates
and the macro-blocks both act block by block, so the compatible population
is a product over blocks, in which the blocks are independent.  The
worst-case error bound is the sum of the per-block bounds (see
``Estimate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .constraints import ConstraintSet, _check_located, _located, _located_columns
from .core import Range
from .errors import ConstraintError
from .estimators import DEFAULT_PMF_BUDGET, _LAWS, Estimate, _Law, _compose
from .summary import CompressedDatacube

# Not called here, but kept bound: bench/tracing.py patches these names on
# this module, and a traced layer whose work moved off the path reads as 0.
from .constraints import bound_tuple, validate  # noqa: F401
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

    The answer is the exact shift plus one draw per shell block.  Cases 1-2
    without a pmf take the draws of each shell region at once and return the
    Estimate.  Case 3 and pmfs take them block by block and compose them with the estimators'
    ``_compose``, which also attaches the pmf when at most one block is
    partially covered; case 3 checks the whole summary against the
    constraints first, reading each block's located cells once for the check
    and the draws alike.
    """
    law = _LAWS[spec.kind.value, spec.case]
    if spec.case < 3 and not spec.want_pmf:
        return _box_moments(summary, law, spec.range)
    values = summary._sums if law.of_sum else summary._counts

    if spec.case == 3:
        if constraints is None:
            raise ConstraintError("case 3 needs a constraint set (use case 2 without one)")
        located = _located_columns(constraints, summary)
        report = _check_located(summary, located)
        if not report.ok:
            raise ConstraintError(f"constraints contradict the summary: {report.message}")

    lo, hi, whole, regions = summary._regions(spec.range)
    case, query, offsets = spec.case, spec.range, range(len(summary.counts))
    (sizes, counts, sums, *_), (los, his) = summary._columns, summary.factor._corners
    draws = []
    for share, slices in regions:
        for line in slices:
            for at in offsets[line]:
                t, s, b = counts[at], sums[at], sizes[at]
                b_in = b * share // whole  # the block's part inside the query
                if case == 3:
                    # The draw from the block's and the query's located cells, (n, m, l, shift) =
                    # (b - null_blk - nn_blk, t - nn_blk, b_in - null_in - nn_in, nn_in),
                    # unchecked: the check above has put nn_blk <= t <= b - null_blk on every block.
                    null_blk, nn_blk = located[at]
                    lo_in, hi_in = [*map(max, los[at], query.lo)], [*map(min, his[at], query.hi)]
                    null_in, nn_in = _located(constraints, lo_in, hi_in)
                    draw = b - null_blk - nn_blk, t - nn_blk, b_in - null_in - nn_in, nn_in
                else:
                    # Cases 1-2 take the draw under trivial bounds, (n, m, l, shift) =
                    # (b, t, b_in, 0), unchecked: a summary's blocks are realizable and
                    # a shell block holds 1 <= b_in < b cells of the query.
                    draw = b, t, b_in, 0
                draws.append((draw, t, s, b))
    return _compose(law, draws, values.total(lo, hi), spec.want_pmf, DEFAULT_PMF_BUDGET)


def _box_moments(summary: CompressedDatacube, law: _Law, query: Range) -> Estimate:
    """The query's Estimate under ``law`` in cases 1-2, with no pmf, region by region.

    The inner box of the summary's ``_regions`` gives the exact shift, one
    prefix-table total.  Every other region's blocks hold the share c/W of
    their cells inside the query, so its mean and variance are c/W and
    c*(W - c)/W^2 times its totals of the law's x and g (see ``_Law``), summed
    over its slices of the summary's block columns, and its max error is the
    law's ``error`` rule at share c/W over the same slices.  So every moment
    has one denominator: W, W^2 times that of the law's column of g, and W.
    """
    lo, hi, whole, regions = summary._regions(query)
    values, table = (summary.sums, summary._sums) if law.of_sum else (summary.counts, summary._counts)
    spread, spread_den = summary._ratio_column(law.spread)
    columns, error = summary._columns, law.error
    mean, variance, max_error = table.total(lo, hi) * whole, 0, 0
    for share, slices in regions:
        v = g = 0
        for line in slices:  # plain loops: generator sums cost more on a few slices
            v += sum(values[line])
            g += sum(spread[line])
        mean += share * v
        variance += share * (whole - share) * g
        max_error += error(share, whole, v, columns, slices)
    return Estimate(Fraction(mean, whole), Fraction(variance, whole * whole * spread_den), Fraction(max_error, whole))
