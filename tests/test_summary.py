import json
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeprob import (
    CompressionFactor,
    Datacube,
    FactorError,
    InfeasibleError,
    OutOfBoundsError,
    QueryKind,
    QuerySpec,
    Range,
    build_summary,
    count_exact,
    decompose,
    estimate,
    sum_exact,
    validate,
)
from cubeprob.summary import BlockSummary, CompressedDatacube, load_summary, save_summary, summary_from_dict, summary_to_dict
from conftest import REFERENCE_BOUNDARIES, make_sparse_cube, summarized_ranges


def test_reference_block_aggregates(reference_summary):
    assert (reference_summary.block((1, 1)).count, reference_summary.block((1, 1)).sum) == (8, 26)
    assert (reference_summary.block((1, 2)).count, reference_summary.block((1, 2)).sum) == (5, 29)
    assert reference_summary.block((2, 1)).range == Range((4, 1), (7, 4))


def test_all_zero_cube_summarizes_to_zero_blocks():
    cube = Datacube((4, 4), (0,) * 16)
    summary = build_summary(cube, CompressionFactor.equal_width((4, 4), (2, 2)))
    assert all(b.count == 0 and b.sum == 0 for b in summary.blocks)


def test_block_totals_match_cube(reference_cube, reference_summary):
    full = reference_cube.full_range()
    assert reference_summary.total_count() == count_exact(reference_cube, full)
    assert reference_summary.total_sum() == sum_exact(reference_cube, full)


def test_factor_validation():
    with pytest.raises(FactorError):
        CompressionFactor(((1, 3),))  # must start at 0
    with pytest.raises(FactorError):
        CompressionFactor(((0, 3, 3),))  # strictly increasing
    with pytest.raises(FactorError):
        build_summary(Datacube((4,), (1, 1, 1, 1)), CompressionFactor(((0, 3),)))


def test_equal_width_remainder_to_last_block():
    factor = CompressionFactor.equal_width((10,), (3,))
    assert factor.boundaries == ((0, 3, 6, 10),)
    assert factor.block_range((3,)) == Range((7,), (10,))


def test_from_block_shape():
    factor = CompressionFactor.from_block_shape((10, 6), (3, 4))
    assert factor.boundaries == ((0, 3, 6, 10), (0, 6))


@pytest.mark.parametrize(
    "index, match",
    [
        ((1,), "arity 1 does not match grid arity 2"),
        ((2, 1, 7), "arity 3 does not match grid arity 2"),
        ((4, 1), "outside"),
        ((1, 0), "outside"),
    ],
    ids=["arity-1", "arity-3", "past-grid", "zero"],
)
def test_block_index_outside_the_grid_is_refused(reference_summary, index, match):
    # zipping the index with the grid's shape used to read (1,) as block
    # (1, 1) and (2, 1, 7) as block (2, 1), and block_range((1,)) as 1:3
    with pytest.raises(OutOfBoundsError, match=match):
        reference_summary.block(index)
    with pytest.raises(OutOfBoundsError, match=match):
        reference_summary.factor.block_range(index)


@pytest.mark.parametrize(
    "query, match",
    [(Range((1,), (2,)), "arity 1"), (Range((1, 1), (11, 2)), "outside")],
    ids=["arity", "past-dims"],
)
def test_range_outside_the_cube_is_refused(reference_cube, reference_summary, query, match):
    with pytest.raises(OutOfBoundsError, match=match):
        count_exact(reference_cube, query)
    with pytest.raises(OutOfBoundsError, match=match):
        reference_summary._split(query)


def test_decompose_reference_query(reference_summary):
    deco = decompose(reference_summary, Range((4, 3), (8, 6)))
    assert deco.total == ((2, 2),)
    assert dict(deco.partial) == {
        (2, 1): Range((4, 3), (7, 4)),
        (3, 1): Range((8, 3), (8, 4)),
        (3, 2): Range((8, 5), (8, 6)),
    }


def test_decompose_full_block_is_total(reference_summary):
    block_range = reference_summary.block((1, 1)).range
    deco = decompose(reference_summary, block_range)
    assert deco.total == ((1, 1),)
    assert deco.partial == ()


def test_decompose_inner_query_is_partial(reference_summary):
    query = Range((1, 2), (2, 3))
    deco = decompose(reference_summary, query)
    assert deco.total == ()
    assert deco.partial == (((1, 1), query),)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_decompose_tiles_the_query(data):
    n1 = data.draw(st.integers(2, 6), label="n1")
    n2 = data.draw(st.integers(2, 6), label="n2")
    cube = Datacube((n1, n2), tuple(data.draw(st.lists(st.integers(0, 3), min_size=n1 * n2, max_size=n1 * n2))))
    cuts1 = sorted(data.draw(st.sets(st.integers(1, n1 - 1), max_size=2))) + [n1]
    cuts2 = sorted(data.draw(st.sets(st.integers(1, n2 - 1), max_size=2))) + [n2]
    factor = CompressionFactor((tuple([0] + cuts1), tuple([0] + cuts2)))
    summary = build_summary(cube, factor)
    lo = (data.draw(st.integers(1, n1)), data.draw(st.integers(1, n2)))
    hi = (data.draw(st.integers(lo[0], n1)), data.draw(st.integers(lo[1], n2)))
    query = Range(lo, hi)
    deco = decompose(summary, query)

    covered: dict[tuple, int] = {}
    for index in deco.total:
        region = summary.block(index).range
        assert query.contains(region)
        for cell in region.cells():
            covered[cell] = covered.get(cell, 0) + 1
    for index, clip in deco.partial:
        block_range = summary.block(index).range
        assert block_range.intersect(query) == clip
        assert not query.contains(block_range)
        for cell in clip.cells():
            covered[cell] = covered.get(cell, 0) + 1
    assert set(covered) == set(query.cells())
    assert all(times == 1 for times in covered.values())
    assert set(deco.total) & {k for k, _ in deco.partial} == set()


def _per_block_decompose(summary, query):
    """Every block of the grid, row-major, sorted into total and clipped partial."""
    total, partial = [], []
    for index in summary.factor.block_indices():
        block_range = summary.factor.block_range(index)
        clip = query.intersect(block_range)
        if clip is None:
            continue
        if query.contains(block_range):
            total.append(index)
        else:
            partial.append((index, clip))
    return tuple(total), tuple(partial)


@settings(deadline=None, max_examples=200)
@given(summarized_ranges(max_ndim=4, max_len=5))
def test_decompose_matches_a_per_block_enumeration(case):
    _, summary, query = case
    deco = decompose(summary, query)
    assert (deco.total, deco.partial) == _per_block_decompose(summary, query)


@settings(max_examples=200, deadline=None)
@given(summarized_ranges(max_ndim=4, max_len=4, max_value=9))
def test_gathered_block_totals_equal_a_per_block_sum(case):
    # build_summary takes every block's totals from the cube's prefix tables
    # at once, and skips the checks; the reference sums each block's cells
    # and builds every object through its checked constructor
    cube, summary, _ = case
    factor = summary.factor
    blocks = []
    for index in factor.block_indices():
        cell_range = factor.block_range(index)
        values = [cube[coords] for coords in cell_range.cells()]
        blocks.append(BlockSummary(index, cell_range, sum(map(bool, values)), sum(values)))
    reference = CompressedDatacube(factor, tuple(blocks))
    assert summary == reference and hash(summary) == hash(reference)
    assert repr(summary) == repr(reference)
    assert [b.size for b in summary.blocks] == [b.size for b in reference.blocks]


def test_answered_summary_still_equals_hashes_and_saves_like_a_fresh_copy(reference_summary):
    answered = summary_from_dict(summary_to_dict(reference_summary))
    for kind in QueryKind:
        estimate(answered, None, QuerySpec(Range((2, 2), (9, 5)), kind, 2))
    # every block's cached size, not only the shell's the query read
    assert [blk.size for blk in answered.blocks] == [blk.range.size for blk in answered.blocks]
    assert all("size" in vars(blk) for blk in answered.blocks)
    fresh = summary_from_dict(summary_to_dict(reference_summary))
    assert not any("size" in vars(blk) for blk in fresh.blocks)
    assert answered.blocks == fresh.blocks
    assert list(map(hash, answered.blocks)) == list(map(hash, fresh.blocks))
    assert answered == fresh and hash(answered) == hash(fresh)
    assert summary_to_dict(answered) == summary_to_dict(fresh)


def test_build_summary_deterministic(reference_cube):
    factor = CompressionFactor(((0, 3, 7, 10), (0, 4, 6)))
    assert build_summary(reference_cube, factor) == build_summary(reference_cube, factor)


def test_summary_json_round_trip(tmp_path, reference_summary):
    path = tmp_path / "summary.json"
    save_summary(reference_summary, str(path))
    assert load_summary(str(path)) == reference_summary


def test_summary_dict_round_trip(reference_summary):
    assert summary_from_dict(summary_to_dict(reference_summary)) == reference_summary


@pytest.mark.parametrize(
    "axis", [(0, 2.5, 4), ("0", "2", "4"), (0, 1.0, 4)], ids=["float", "str", "whole-float"]
)
def test_factor_refuses_non_integral_boundaries(axis):
    with pytest.raises(FactorError, match="boundaries must be integers"):
        CompressionFactor((axis, (0, 2)))


@pytest.mark.parametrize("field", ["count", "sum"])
def test_summary_refuses_non_integral_aggregates(tmp_path, reference_summary, field):
    payload = summary_to_dict(reference_summary)
    payload["blocks"][0][field] += 0.9
    with pytest.raises(FactorError, match="must be integers"):
        summary_from_dict(payload)
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FactorError):
        load_summary(str(path))


@pytest.mark.parametrize(
    "extra, message",
    [({"index": [9], "count": 5, "sum": 1}, r"block \(9,\) outside the \(2,\) grid"),
     ({"index": [2], "count": 1, "sum": 5}, r"repeats block \(2,\)")],
    ids=["extra", "repeated"],
)
def test_summary_file_lists_each_block_once(tmp_path, extra, message):
    factor = CompressionFactor(((0, 2, 4),))
    blocks = tuple(BlockSummary((k,), factor.block_range((k,)), 1, 5) for k in (1, 2))
    payload = summary_to_dict(CompressedDatacube(factor, blocks))
    payload["blocks"].append(extra)
    with pytest.raises(FactorError, match=message):
        summary_from_dict(payload)
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FactorError, match=message):
        load_summary(str(path))


def test_summary_file_missing_a_block_is_refused(tmp_path):
    factor = CompressionFactor(((0, 2, 4),))
    blocks = tuple(BlockSummary((k,), factor.block_range((k,)), 1, 5) for k in (1, 2))
    payload = summary_to_dict(CompressedDatacube(factor, blocks))
    del payload["blocks"][1]
    with pytest.raises(FactorError, match=r"summary file is missing block \(2,\)"):
        summary_from_dict(payload)
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FactorError, match=r"summary file is missing block \(2,\)"):
        load_summary(str(path))


@pytest.mark.parametrize(
    "count, total, message",
    [(3, 2, "count 3 exceeds sum 2"), (0, 4, "sum 4 positive with no non-null cells"), (13, 20, "count 13 outside")],
    ids=["count-over-sum", "sum-without-count", "count-over-size"],
)
def test_unrealizable_block_aggregates_are_infeasible(tmp_path, reference_summary, count, total, message):
    r = Range((1, 1), (2, 3))
    with pytest.raises(InfeasibleError, match=rf"block \(1, 1\): {message}"):
        BlockSummary((1, 1), r, count, total)
    payload = summary_to_dict(reference_summary)
    payload["blocks"][0].update(count=count, sum=total)
    with pytest.raises(InfeasibleError, match=message):
        summary_from_dict(payload)
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InfeasibleError, match=message):
        load_summary(str(path))


def test_a_loaded_unrealizable_block_is_named(tmp_path, reference_summary):
    payload = summary_to_dict(reference_summary)
    payload["blocks"][0].update(count=3, sum=2)
    with pytest.raises(InfeasibleError, match=r"^block \(1, 1\): count 3 exceeds sum 2$"):
        summary_from_dict(payload)
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InfeasibleError, match=r"^block \(1, 1\): count 3 exceeds sum 2$"):
        load_summary(str(path))


@pytest.mark.parametrize("lo, hi", [((2,), (2,)), ((1,), (3,))], ids=["lo", "hi"])
def test_block_range_inconsistent_with_the_factor_is_refused(lo, hi):
    factor = CompressionFactor(((0, 2, 4),))
    first = BlockSummary((1,), Range(lo, hi), 0, 0)
    second = BlockSummary((2,), factor.block_range((2,)), 1, 5)
    with pytest.raises(FactorError, match=r"block \(1,\) carries a range inconsistent"):
        CompressedDatacube(factor, (first, second))
    ok = CompressedDatacube(factor, (BlockSummary((1,), factor.block_range((1,)), 0, 0), second))
    assert ok.block((2,)).range == Range((3,), (4,))


def test_blocks_out_of_row_major_order_are_refused():
    factor = CompressionFactor(((0, 2, 4),))
    first, second = (BlockSummary((k,), factor.block_range((k,)), 1, 5) for k in (1, 2))
    with pytest.raises(FactorError, match="block grid does not tile the factor in row-major order"):
        CompressedDatacube(factor, (second, first))


def test_the_constructor_takes_its_blocks_once_from_any_iterable():
    # an iterator used to be stored exhausted: the range check saw no block
    factor = CompressionFactor(((0, 2, 4),))
    bad = (BlockSummary((1,), Range((1,), (3,)), 0, 0), BlockSummary((2,), factor.block_range((2,)), 1, 5))
    with pytest.raises(FactorError, match=r"block \(1,\) carries a range inconsistent"):
        CompressedDatacube(factor, iter(bad))
    blocks = [BlockSummary((k,), factor.block_range((k,)), 1, 5) for k in (1, 2)]
    from_iterator, from_list = CompressedDatacube(factor, iter(blocks)), CompressedDatacube(factor, blocks)
    assert from_iterator.total_count() == from_list.total_count() == 2
    assert from_iterator.blocks == from_list.blocks == tuple(blocks)
    assert from_iterator == from_list and hash(from_iterator) == hash(from_list)


@pytest.mark.parametrize("field", ["count", "sum"])
@pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
def test_a_block_refuses_what_a_summary_file_refuses(reference_summary, field, value):
    aggregates = {"count": 1, "sum": 1, field: value}
    message = r"^block \(1, 1\) count and sum must be integers"
    with pytest.raises(FactorError, match=message):
        BlockSummary((1, 1), Range((1, 1), (2, 3)), aggregates["count"], aggregates["sum"])
    payload = summary_to_dict(reference_summary)
    payload["blocks"][0].update(aggregates)
    with pytest.raises(FactorError, match=message):
        summary_from_dict(payload)


def test_a_block_keeps_its_index_as_a_tuple():
    factor = CompressionFactor(((0, 2, 4),))
    blocks = [BlockSummary([k], factor.block_range((k,)), 1, 5) for k in (1, 2)]
    assert blocks[0].index == (1,)
    assert CompressedDatacube(factor, blocks).blocks == tuple(blocks)


def test_no_library_path_makes_the_block_objects(tmp_path, reference_cube, reference_constraints):
    # a summary is its factor and two columns; ``blocks`` is built only when read
    factor = CompressionFactor(REFERENCE_BOUNDARIES)
    summary = build_summary(reference_cube, factor)
    assert "blocks" not in vars(summary)
    loaded = summary_from_dict(summary_to_dict(summary))
    assert "blocks" not in vars(loaded)
    for query in (Range((2, 2), (9, 5)), Range((1, 1), (2, 3))):
        for kind, case, want_pmf in product(QueryKind, (1, 2, 3), (False, True)):
            cs = reference_constraints if case == 3 else None
            estimate(summary, cs, QuerySpec(query, kind, case, want_pmf))
            assert "blocks" not in vars(summary)
        decompose(summary, query)
        assert "blocks" not in vars(summary)
    assert validate(reference_constraints, summary).ok
    summary_to_dict(summary)
    save_summary(summary, str(tmp_path / "summary.json"))
    assert "blocks" not in vars(summary)
    assert "blocks" not in vars(load_summary(str(tmp_path / "summary.json")))


def _held_per_block(make, blocks):
    """Bytes per block still allocated after ``make()``, while its result is held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert made is not None
    return held / blocks


def test_a_summary_holds_few_bytes_per_block(tmp_path):
    # two int columns, where a BlockSummary and its Range per block held over 800 B
    cube = make_sparse_cube(200, 60)
    cube._counts, cube._sums  # the cube's prefix tables are not the summary's
    factor = CompressionFactor.from_block_shape(cube.dims, (2, 1))
    assert factor.block_count >= 6000
    path = str(tmp_path / "summary.json")
    save_summary(build_summary(cube, factor), path)
    assert _held_per_block(lambda: build_summary(cube, factor), factor.block_count) <= 92
    assert _held_per_block(lambda: load_summary(path), factor.block_count) <= 92
