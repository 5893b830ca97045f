"""Range-query answering over a summary: exact blocks plus per-block estimates.

A query range splits into the box of blocks it totally contains and the
shell of blocks it only partially overlaps.  The totally contained blocks
add a known constant, the exact shift, read in 2^r lookups from the
summary's prefix sums over the block grid, so their number does not matter.
Only the shell carries uncertainty: the query's law is picked once from the
estimators' law table, the one place where the case chooses it, and the
shell is one draw of that law per block.  Cases 1-2 without a pmf read the
whole query box in one walk (``_box_moments``): each axis splits once into
at most three segments, and each choice of one segment per axis is a region
whose blocks all hold the same share p of their cells inside the query.  The
region of the inner runs is the inner box, and so gives the exact shift;
every other region's mean and variance are p and p(1-p) times one box total
each, read straight-line from the prefix tables of the law's x and of its
``spread``, and its max error is the law's one ``error`` rule over the
region's slices of the summary's flat block columns: a box total for case-1
sums, one integer loop for the others.  Case 3 and pmf queries read the
shell block by block, one kernel call per draw.  A case-3 query first lists
every block's located null and non-null cells (``_located_columns``) and
checks the whole summary against that list, as ``validate`` does; then each
shell block's draw comes straight from its row of the list and one more pass
over the macro-blocks (``_located``) that counts its part inside the query,
with no bound tuple built: after the check every block's count lies within
its bounds, and these are the draws that ``bound_tuple`` would give.  The
walk divides its own sums into the Estimate, since each of its moments has
one denominator; the shell drawn block by block goes to the estimators'
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
from itertools import product
from math import prod

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
    without a pmf take the shift and the draws of each shell region at once,
    in one walk over the query box that returns the Estimate.  Case 3 and
    pmfs take them block by block and compose them with the estimators'
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

    split = summary._split(spec.range)
    case, query = spec.case, spec.range
    (sizes, counts, sums, *_), (los, his) = summary._columns, summary.factor._corners
    draws = []
    for at in split.shell:
        t, s, b = counts[at], sums[at], sizes[at]
        # the block's part inside the query: a shell block overlaps it
        lo, hi = [*map(max, los[at], query.lo)], [*map(min, his[at], query.hi)]
        b_in = prod(h - l + 1 for l, h in zip(lo, hi))
        if case == 3:
            # The draw from the block's and the query's located cells, (n, m, l, shift) =
            # (b - null_blk - nn_blk, t - nn_blk, b_in - null_in - nn_in, nn_in),
            # unchecked: the check above has put nn_blk <= t <= b - null_blk on every block.
            null_blk, nn_blk = located[at]
            null_in, nn_in = _located(constraints, lo, hi)
            draw = b - null_blk - nn_blk, t - nn_blk, b_in - null_in - nn_in, nn_in
        else:
            # Cases 1-2 take the draw under trivial bounds, (n, m, l, shift) =
            # (b, t, b_in, 0), unchecked: a summary's blocks are realizable and
            # a shell block holds 1 <= b_in < b cells of the query.
            draw = b, t, b_in, 0
        draws.append((draw, t, s, b))
    return _compose(law, draws, values.total(split.lo, split.hi), spec.want_pmf, DEFAULT_PMF_BUDGET)


def _box_moments(summary: CompressedDatacube, law: _Law, query: Range) -> Estimate:
    """The query's Estimate under ``law`` in cases 1-2, with no pmf, from one walk over
    the blocks it overlaps.

    Each axis splits into at most three segments: its low end block, its run of
    blocks inside the query and its high end block, where an end block is one the
    query only clips.  A segment holds its two offsets into the prefix tables (as
    ``_PrefixSums.total`` forms them), its share of the axis' common width W_q (the
    product of its end blocks' widths: W_q for the run, clip*W_q/width for an end),
    and its offset, number and stride of blocks in the row-major block order.  A region
    takes one segment on every axis, and each of its blocks holds the share
    p = c/W of its cells inside the query, where c is the product of its segments'
    shares and W that of the W_q.  The run on every axis is the inner box, with
    p = 1: its mean is its exact total, with no variance and no error.  Every other
    region is one box of the shell, whose mean and variance are p and p*(1 - p)
    times its totals of the law's x and g (see ``_Law``): straight-line reads of the
    value table and of the law's ``spread`` table over the last two axes, summed
    over the signed corners of any leading axes.  A 1-D query walks a unit axis
    before its one, whose low end is the zero row after the summary's 1-D tables.
    A region's max error is the law's ``error`` rule at share c/W over its blocks,
    as strided slices of the flat block columns.  So every moment has one
    denominator: W, W^2 times the ``spread`` tables' one, and W.
    """
    table = summary._sums if law.of_sum else summary._counts
    spread, spread_den = summary._prefix_ratios(law.spread)
    values, spread = table.table, spread.table
    columns, error, factor, stride, whole = summary._columns, law.error, summary.factor, len(summary.counts), 1
    axes = []
    for (first, last, start, stop), lo_q, hi_q, bounds, n, step in zip(
        summary._cuts(query), query.lo, query.hi, factor.boundaries, factor.shape, table.strides
    ):
        stride //= n  # of this axis in the row-major block order
        ends, common = [], 1
        for k in (first, last) if first < last else (first,):
            if not start <= k < stop:
                low, high = bounds[k - 1] + 1, bounds[k]
                ends.append((k, (hi_q if hi_q < high else high) - (lo_q if lo_q > low else low) + 1, high - low + 1))
                common *= high - low + 1
        segments = []
        if stop > start:
            segments.append(((stop - 1) * step, (start - 1) * step, common, (start - 1) * stride, stop - start, stride))
        for k, clip, width in ends:
            segments.append((k * step, (k - 1) * step, clip * (common // width), (k - 1) * stride, 1, stride))
        axes.append(segments)
        whole *= common
    if len(axes) == 1:
        axes.insert(0, [(0, len(values) // 2, 1, 0, 1, len(summary.counts))])
    *leads, rows, cols = axes
    mean = variance = max_error = 0
    for lead in product(*leads):  # one empty lead in 1-2 D
        # the lead's signed corner offsets, share and first blocks
        corners, lead_share, starts = [(0, 1)], 1, [0]
        for high, low, share, offset, count, stride in lead:
            corners = [(x + high, sign) for x, sign in corners] + [(x + low, -sign) for x, sign in corners]
            lead_share *= share
            starts = [x + offset + i * stride for x in starts for i in range(count)]
        for h0, l0, share0, o0, n0, row_stride in rows:
            # the lead corners' row offsets; a negative corner swaps high and low
            pairs = []
            for x, sign in corners:
                pairs.append((x + h0, x + l0)[::sign])
            row_share = lead_share * share0
            for h1, l1, share1, o1, n1, _ in cols:
                share = row_share * share1
                v = g = 0
                for a, b in pairs:
                    v += values[a + h1] - values[a + l1] - values[b + h1] + values[b + l1]
                    g += spread[a + h1] - spread[a + l1] - spread[b + h1] + spread[b + l1]
                mean += share * v
                if share == whole:  # the inner box
                    continue
                # per lead block, n0 lines along the last axis, or one down the rows
                lines, length, step = (n0, n1, 1) if n1 > 1 or n0 == 1 else (1, (n0 - 1) * row_stride + 1, row_stride)
                slices = []
                for x in starts:
                    for y in range(x + o0 + o1, x + o0 + o1 + lines * row_stride, row_stride):
                        slices.append(slice(y, y + length, step))
                variance += share * (whole - share) * g
                max_error += error(share, whole, v, columns, slices)
    return Estimate(Fraction(mean, whole), Fraction(variance, whole * whole * spread_den), Fraction(max_error, whole))
