from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    QueryKind,
    QuerySpec,
    Range,
    build_summary,
    count_case1,
    count_case2,
    count_case3,
    decompose,
    detect_macroblocks,
    estimate,
    sum_case1,
    sum_case2,
    sum_case3,
)
from cubeprob import bound_tuple as make_bound_tuple
from conftest import summarized_ranges

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


@pytest.fixture(scope="module")
def wide_empty_block():
    """A 1-D cube whose first block holds 10,001 null cells, one over the default pmf budget."""
    cells = [0] * 10_002
    cells[-1] = 3
    return build_summary(Datacube((10_002,), tuple(cells)), CompressionFactor(((0, 10_001, 10_002),)))


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("kind", list(QueryKind))
def test_single_block_pmf_respects_the_budget(wide_empty_block, kind, case):
    spec = QuerySpec(Range((1,), (5,)), kind, case, want_pmf=True)
    constraints = ConstraintSet() if case == 3 else None
    if kind is QueryKind.SUM and case > 1:
        # knowing t = 0 pins the sum: the point mass is served at any block size
        assert estimate(wide_empty_block, constraints, spec).pmf == Pmf.point(0)
    else:
        with pytest.raises(PmfBudgetError):
            estimate(wide_empty_block, constraints, spec)


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
    constraints = None
    if spec.case == 3:
        constraints = detect_macroblocks(cube, data.draw(st.integers(1, 6), label="min_cells"))
    assert estimate(summary, constraints, spec) == _reference_estimate(summary, constraints, spec)


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
