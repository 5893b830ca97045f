from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, islice, product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubeprob import (
    BlockAggregates,
    CompressionFactor,
    ConstraintError,
    ConstraintSet,
    Datacube,
    Estimate,
    MacroBlock,
    MacroKind,
    Pmf,
    PmfBudgetError,
    PopulationError,
    PopulationSpec,
    QueryKind,
    QuerySpec,
    Range,
    StatKind,
    build_summary,
    count_case1,
    count_case2,
    count_case3,
    decompose,
    detect_macroblocks,
    enumerate_population,
    estimate,
    population_stats,
    sum_case1,
    sum_case2,
    sum_case3,
    two_block_population_stats,
    validate,
)
from cubeprob import bound_tuple as make_bound_tuple
from cubeprob.estimators import _LAWS
from cubeprob.oracle import _product_counts
from cubeprob.planner import _box_moments
from conftest import region_error_reference, summarized_ranges

F = Fraction


@pytest.fixture()
def two_block_line():
    cube = Datacube((4,), (2, 0, 1, 1))
    summary = build_summary(cube, CompressionFactor(((0, 2, 4),)))
    return cube, summary


def test_total_block_query_is_exact(two_block_line):
    _, summary = two_block_line
    est = estimate(summary, None, QuerySpec(Range((1,), (2,)), QueryKind.SUM, 2))
    assert (est.mean, est.variance, est.max_error) == (2, 0, 0)
    est = estimate(summary, None, QuerySpec(Range((1,), (4,)), QueryKind.COUNT, 1))
    assert (est.mean, est.variance) == (3, 0)


def test_full_cube_sum_equals_stored_total(two_block_line):
    _, summary = two_block_line
    est = estimate(summary, None, QuerySpec(Range((1,), (4,)), QueryKind.SUM, 2))
    assert est.mean == summary.total_sum() == 4
    assert est.variance == 0


def test_two_partial_blocks_compose(two_block_line):
    _, summary = two_block_line
    est = estimate(summary, None, QuerySpec(Range((2,), (3,)), QueryKind.SUM, 2))
    part1 = sum_case2(BlockAggregates(2, 1, 2, 1))
    part2 = sum_case2(BlockAggregates(2, 2, 2, 1))
    assert est.mean == part1.mean + part2.mean == 2
    assert est.variance == part1.variance + part2.variance == 1
    assert est.max_error == part1.max_error + part2.max_error
    assert est.pmf is None  # two partial blocks: moments only


def test_reference_query_composes_blocks(reference_summary):
    spec = QuerySpec(Range((4, 3), (8, 6)), QueryKind.COUNT, 1)
    est = estimate(reference_summary, None, spec)
    total_block = reference_summary.block((2, 2))
    partial_means = []
    for index, clip in (
        ((2, 1), Range((4, 3), (7, 4))),
        ((3, 1), Range((8, 3), (8, 4))),
        ((3, 2), Range((8, 5), (8, 6))),
    ):
        blk = reference_summary.block(index)
        partial_means.append(
            count_case1(BlockAggregates(blk.size, blk.count, blk.sum, clip.size)).mean
        )
    assert est.mean == total_block.count + sum(partial_means)
    assert est.variance > 0


def test_single_partial_block_pmf_is_shifted(two_block_line):
    _, summary = two_block_line
    est = estimate(summary, None, QuerySpec(Range((1,), (3,)), QueryKind.SUM, 2, want_pmf=True))
    # block [1..2] fully covered (sum 2), block [3..4] contributes one cell
    part = sum_case2(BlockAggregates(2, 2, 2, 1), want_pmf=True)
    assert est.pmf == part.pmf.shifted(2)
    assert est.mean == 2 + part.mean


def test_tb_only_pmf_is_point_mass(two_block_line):
    _, summary = two_block_line
    est = estimate(summary, None, QuerySpec(Range((3,), (4,)), QueryKind.SUM, 2, want_pmf=True))
    assert est.pmf is not None and est.pmf.support == ((2, F(1)),)


def _wide_block(first):
    """A 1-D cube whose first block of 10,001 cells, one over the default pmf
    budget, holds ``first`` in its first cell and nulls elsewhere."""
    cells = [0] * 10_002
    cells[0], cells[-1] = first, 3
    return build_summary(Datacube((10_002,), tuple(cells)), CompressionFactor(((0, 10_001, 10_002),)))


@pytest.fixture(scope="module")
def wide_empty_block():
    return _wide_block(0)


@pytest.fixture(scope="module")
def wide_nonempty_block():
    return _wide_block(1)


def _wide_query(kind, case):
    return ConstraintSet() if case == 3 else None, QuerySpec(Range((1,), (5,)), kind, case, want_pmf=True)


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("kind", list(QueryKind))
def test_single_block_pmf_respects_the_budget(wide_empty_block, kind, case):
    # knowing t = 0 pins every law: the point mass is served at any block size
    assert estimate(wide_empty_block, *_wide_query(kind, case)).pmf == Pmf.point(0)


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("kind", list(QueryKind))
def test_single_block_pmf_over_the_budget_is_refused(wide_nonempty_block, kind, case):
    with pytest.raises(PmfBudgetError):
        estimate(wide_nonempty_block, *_wide_query(kind, case))


def test_case3_uses_bound_tuples(two_block_line):
    _, summary = two_block_line
    cs = ConstraintSet((MacroBlock(Range((2,), (2,)), MacroKind.ALL_NULL),))
    spec = QuerySpec(Range((2,), (3,)), QueryKind.SUM, 3)
    est = estimate(summary, cs, spec)
    bt1 = make_bound_tuple(cs, Range((1,), (2,)), Range((2,), (2,)))
    bt2 = make_bound_tuple(cs, Range((3,), (4,)), Range((3,), (3,)))
    expected_mean = sum_case3(bt1, 1, 2).mean + sum_case3(bt2, 2, 2).mean
    assert est.mean == expected_mean == 0 + 1
    # cell 2 is known null, so block 1 contributes nothing and no spread
    assert est.variance == sum_case3(bt2, 2, 2).variance


def test_case3_with_empty_constraints_matches_case2(two_block_line):
    _, summary = two_block_line
    for kind in (QueryKind.SUM, QueryKind.COUNT):
        spec2 = QuerySpec(Range((2,), (3,)), kind, 2)
        spec3 = QuerySpec(Range((2,), (3,)), kind, 3)
        assert estimate(summary, ConstraintSet(()), spec3) == estimate(summary, None, spec2)


def test_case3_requires_constraints(two_block_line):
    _, summary = two_block_line
    with pytest.raises(ConstraintError):
        estimate(summary, None, QuerySpec(Range((2,), (3,)), QueryKind.SUM, 3))


def test_inconsistent_constraints_are_rejected(two_block_line):
    _, summary = two_block_line
    cs = ConstraintSet((MacroBlock(Range((1,), (2,)), MacroKind.ALL_NULL),))
    with pytest.raises(ConstraintError, match="contradict"):
        estimate(summary, cs, QuerySpec(Range((2,), (3,)), QueryKind.SUM, 3))


def test_a_case3_refusal_reads_the_validation_message():
    cube = Datacube((4, 4), tuple([1] * 8 + [0] * 8))
    summary = build_summary(cube, CompressionFactor(((0, 2, 4), (0, 4))))
    cs = ConstraintSet((
        MacroBlock(Range((3, 1), (4, 4)), MacroKind.ALL_NULL),
        MacroBlock(Range((1, 1), (1, 3)), MacroKind.ALL_NULL),
    ))
    report = validate(cs, summary)
    assert not report.ok
    with pytest.raises(ConstraintError) as refused:
        estimate(summary, cs, QuerySpec(Range((3, 1), (4, 2)), QueryKind.COUNT, 3))
    assert str(refused.value) == "constraints contradict the summary: " + report.message


@pytest.mark.parametrize("query", [Range((1,), (2,)), Range((2,), (9,))], ids=["beside", "inner box"])
def test_a_contradiction_outside_the_shell_is_refused(query):
    # blocks 1:3, 4:6 and 7:9; the macro-block says 5:6 is null, but the middle
    # block holds two non-nulls in three cells.  Neither query has the middle
    # block in its shell: the first leaves it out, the second holds it whole.
    cube = Datacube((9,), (1, 0, 2, 0, 3, 4, 1, 1, 0))
    summary = build_summary(cube, CompressionFactor(((0, 3, 6, 9),)))
    assert [summary.blocks[at].index for at in summary._split(query).shell] == [(1,)]
    cs = ConstraintSet((MacroBlock(Range((5,), (6,)), MacroKind.ALL_NULL),))
    for kind, want_pmf in product(QueryKind, [False, True]):
        with pytest.raises(ConstraintError, match="contradict"):
            estimate(summary, cs, QuerySpec(query, kind, 3, want_pmf))


def test_constraints_of_another_arity_are_rejected():
    # the 1-D macro-block used to be read as rows 1..2 of the 2-D cube,
    # giving count 2 with max_error 0 where the exact count is 0
    cells = [0] * 16
    cells[14] = cells[15] = 1  # (4,3) and (4,4)
    summary = build_summary(Datacube((4, 4), tuple(cells)), CompressionFactor(((0, 4), (0, 4))))
    cs = ConstraintSet((MacroBlock(Range((1,), (2,)), MacroKind.ALL_NONNULL),))
    spec = QuerySpec(Range((1, 1), (2, 4)), QueryKind.COUNT, 3)
    with pytest.raises(ConstraintError, match="arity 1.*arity 2"):
        estimate(summary, cs, spec)


def test_query_spec_validation():
    with pytest.raises(ValueError):
        QuerySpec(Range((1,), (2,)), QueryKind.SUM, 4)


def _reference_estimate(summary, constraints, spec):
    """The composition over the full ``decompose`` enumeration, block by block."""
    deco = decompose(summary, spec.range)
    is_count = spec.kind is QueryKind.COUNT
    shift = sum(
        summary.block(k).count if is_count else summary.block(k).sum for k in deco.total
    )
    if not deco.partial:
        return Estimate(F(shift), F(0), F(0), Pmf.point(shift) if spec.want_pmf else None)
    want = spec.want_pmf and len(deco.partial) == 1
    mean, variance, max_error, pmf = F(shift), F(0), F(0), None
    for index, clip in deco.partial:
        blk = summary.block(index)
        if spec.case == 3:
            bt = make_bound_tuple(constraints, blk.range, clip)
            part = count_case3(bt, blk.count, want) if is_count else sum_case3(bt, blk.count, blk.sum, want)
        else:
            agg = BlockAggregates(blk.size, blk.count, blk.sum, clip.size)
            law = {(1, True): count_case1, (2, True): count_case2, (1, False): sum_case1, (2, False): sum_case2}
            part = law[spec.case, is_count](agg, want)
        mean += part.mean
        variance += part.variance
        max_error += part.max_error
        if want and part.pmf is not None:
            pmf = part.pmf.shifted(shift)
    return Estimate(mean, variance, max_error, pmf)


def _detected_subset(cube, data):
    """A random subset of the boxes detected at ``min_cells`` 1, which locate every cell.

    Any subset of a consistent set is consistent, and dropping boxes leaves
    shell blocks that hold located non-nulls inside the query and free
    non-nulls too, which detection at a larger ``min_cells`` seldom leaves.
    """
    # a seeded uniform generator: hypothesis's own booleans favour keeping none
    rng = data.draw(st.randoms(use_true_random=True), label="kept")
    return ConstraintSet(tuple(box for box in detect_macroblocks(cube, 1).blocks if rng.random() < 0.5))


@settings(deadline=None, max_examples=150)
@given(summarized_ranges(), st.data())
def test_shell_composition_matches_the_per_block_reference(case, data):
    cube, summary, query = case
    spec = QuerySpec(
        query,
        data.draw(st.sampled_from(QueryKind), label="kind"),
        data.draw(st.integers(1, 3), label="case"),
        data.draw(st.booleans(), label="want_pmf"),
    )
    constraints = _detected_subset(cube, data) if spec.case == 3 else None
    assert estimate(summary, constraints, spec) == _reference_estimate(summary, constraints, spec)


@st.composite
def region_queries(draw):
    """A 1-4-D cube under uneven cuts, and a query: up to 16 cells per axis in 1-D, 12
    in 2-D, 6 in 3-D and 4 in 4-D, where the walk has two lead axes.

    Each block is empty (t = 0), full (t = n) or mixed.  On each axis the
    query runs from a cell of one block to a cell of the same block or a later
    one, each cell uniform in its block: on its grid line or some cells inside.
    """
    ndim = draw(st.integers(1, 4), label="ndim")
    # the cuts and the query by a seeded uniform generator: hypothesis's own draws
    # favour equal values, which put both ends of an axis in one block or on grid lines
    rng = draw(st.randoms(use_true_random=True), label="layout")
    width, count = ((4, 4), (4, 3), (3, 2), (2, 2))[ndim - 1]  # most cells, blocks per axis
    axes = tuple(
        tuple(accumulate((rng.randint(1, width) for _ in range(rng.randint(1, count))), initial=0))
        for _ in range(ndim)
    )
    dims = tuple(axis[-1] for axis in axes)
    factor = CompressionFactor(axes)
    lo, hi = [], []
    for axis in axes:
        # two blocks, and in each an end on its grid line or some cells inside
        first, last = sorted(rng.randint(1, len(axis) - 1) for _ in range(2))
        lo.append(rng.randint(axis[first - 1] + 1, axis[first]))
        hi.append(rng.randint(max(lo[-1], axis[last - 1] + 1), axis[last]))
    fills = {
        index: draw(st.sampled_from(["empty", "full", "mixed"]), label="fill")
        for index in factor.block_indices()
    }
    cells = []
    for cell in product(*(range(1, n + 1) for n in dims)):
        index = tuple(bisect_left(axis, c) for c, axis in zip(cell, axes))
        low = {"empty": 0, "full": 1, "mixed": 0}[fills[index]]
        high = {"empty": 0, "full": 4, "mixed": 4}[fills[index]]
        cells.append(draw(st.integers(low, high), label="cell"))
    cube = Datacube(dims, tuple(cells))
    return build_summary(cube, factor), Range(tuple(lo), tuple(hi))


def walked_regions(summary, query, kind="count", estimation_case=1):
    """The shell regions of the planner's walk under a law: (clip, width, values, slices)
    for each call of the law's ``error`` rule, whose answers are the real rule's."""
    law = _LAWS[kind, estimation_case]
    calls = []

    def spy(clip, width, values, columns, slices):
        calls.append((clip, width, values, list(slices)))
        return law.error(clip, width, values, columns, calls[-1][3])

    _box_moments(summary, law._replace(error=spy), query)
    return calls


@settings(deadline=None, max_examples=200)
@given(region_queries(), st.sampled_from(QueryKind), st.sampled_from([1, 2]))
def test_shell_regions_match_the_per_block_reference(case, kind, estimation_case):
    summary, query = case
    spec = QuerySpec(query, kind, estimation_case)
    assert estimate(summary, None, spec) == _reference_estimate(summary, None, spec)
    # the walk's regions tile the shell, each holds its one share of every block,
    # and each reads the total of its blocks' counts (sums) from the value table
    regions = walked_regions(summary, query, kind.value, estimation_case)
    split = summary._split(query)
    covered = [
        (blk, clip, width) for clip, width, _, slices in regions for line in slices for blk in summary.blocks[line]
    ]
    assert sorted(blk.index for blk, _, _ in covered) == sorted(summary.blocks[at].index for at in split.shell)
    assert all(query.intersect(blk.range).size * width == blk.size * clip for blk, clip, width in covered)
    for _, _, values, slices in regions:
        blocks = [blk for line in slices for blk in summary.blocks[line]]
        assert values == sum(blk.count if kind is QueryKind.COUNT else blk.sum for blk in blocks)


@settings(deadline=None, max_examples=200)
@given(region_queries())
def test_region_error_rules_equal_the_per_block_ends(case):
    # each law's one error rule, read from the flat block columns by the
    # walk's slices at the walk's share, against the scalar ends of every block in it
    summary, query = case
    for (kind, estimation_case), (clip, width, _, slices) in product(
        [("count", 1), ("sum", 1), ("sum", 2)], walked_regions(summary, query)
    ):
        law = _LAWS[kind, estimation_case]
        blocks = [(blk.size, blk.count, blk.sum) for line in slices for blk in summary.blocks[line]]
        values = sum(s if law.of_sum else t for _, t, s in blocks)
        got = law.error(clip, width, values, summary._columns, slices)
        assert got == region_error_reference(kind, estimation_case, clip, width, blocks)


@pytest.fixture(scope="module")
def uneven_summary(sparse_cube):
    """The sparse cube under a factor whose blocks all differ in size, and its constraints."""
    factor = CompressionFactor(((0, 7, 30, 31, 72, 120, 163, 200), (0, 5, 13, 14, 40, 60)))
    return build_summary(sparse_cube, factor), detect_macroblocks(sparse_cube, 20)


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("kind", list(QueryKind))
@pytest.mark.parametrize("query", [Range((4, 3), (150, 52)), Range((25, 10), (80, 45))])
def test_non_uniform_factor_matches_the_per_block_reference(uneven_summary, query, kind, case):
    summary, constraints = uneven_summary
    spec = QuerySpec(query, kind, case)
    cs = constraints if case == 3 else None
    partial = [summary.block(index) for index, _ in decompose(summary, query).partial]
    assert len({blk.size for blk in partial}) > 5
    assert estimate(summary, cs, spec) == _reference_estimate(summary, cs, spec)


def _block_populations(summary, constraints, spec):
    """One oracle population per block the query overlaps, straight from the paper's definition.

    Positions number the block's cells in ``Range.cells`` order; the query and
    the macro-blocks are clipped to the block.  Case 1 knows t alone (count)
    or s alone (sum), cases 2-3 both, and case 3 the macro-blocks too.
    """
    populations = []
    for blk in summary.blocks:
        clip = spec.range.intersect(blk.range)
        if clip is None:
            continue
        position = {cell: i for i, cell in enumerate(blk.range.cells(), start=1)}
        forced = {MacroKind.ALL_NULL: set(), MacroKind.ALL_NONNULL: set()}
        for macro in constraints.blocks if constraints else ():
            part = macro.range.intersect(blk.range)
            if part is not None:
                forced[macro.kind].update(position[cell] for cell in part.cells())
        is_count = spec.kind is QueryKind.COUNT
        populations.append(PopulationSpec(
            b=blk.size,
            fix_t=blk.count if spec.case > 1 or is_count else None,
            fix_s=blk.sum if spec.case > 1 or not is_count else None,
            forced_nonnull=frozenset(forced[MacroKind.ALL_NONNULL]),
            forced_null=frozenset(forced[MacroKind.ALL_NULL]),
            query_positions=frozenset(position[cell] for cell in clip.cells()),
        ))
    return populations


def _members_up_to(population, limit):
    """The population's size, or ``limit + 1`` once it is known to be larger."""
    try:
        return sum(1 for _ in islice(enumerate_population(population), limit + 1))
    except PopulationError:  # its size bound passes the oracle's cap
        return limit + 1


@settings(deadline=None, max_examples=400)
@given(
    # 3-D cubes of at most 3 cells a side, most of which keep to 12 cells
    st.one_of(
        summarized_ranges(max_ndim=2, max_len=6, max_value=2),
        summarized_ranges(max_ndim=3, max_len=3, max_value=2, min_ndim=3),
    ),
    st.data(),
)
def test_estimate_equals_the_product_population_of_its_blocks(case, data):
    cube, summary, query = case
    assume(cube.size <= 12)
    spec = QuerySpec(
        query,
        data.draw(st.sampled_from(QueryKind), label="kind"),
        data.draw(st.integers(1, 3), label="case"),
        data.draw(st.booleans(), label="want_pmf"),
    )
    constraints = _detected_subset(cube, data) if spec.case == 3 else None
    populations = _block_populations(summary, constraints, spec)
    assume(prod(_members_up_to(p, 5000) for p in populations) <= 5000)
    stat = StatKind(spec.kind.value)
    est = estimate(summary, constraints, spec)
    assert (est.mean, est.variance) == two_block_population_stats(populations, stat)
    # the product's extremes are the sums of the blocks' extremes
    pmfs = [population_stats(p, stat)[0] for p in populations]
    top, bottom = sum(p.max_value() for p in pmfs), sum(p.min_value() for p in pmfs)
    assert est.max_error >= max(top - est.mean, est.mean - bottom)
    if spec.want_pmf and len(decompose(summary, query).partial) <= 1:
        assert est.pmf == Pmf.from_weights(_product_counts(populations, stat))
    else:
        assert est.pmf is None
