import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeprob import (
    CompressionFactor,
    Datacube,
    FactorError,
    QueryKind,
    QuerySpec,
    Range,
    build_summary,
    count_exact,
    decompose,
    estimate,
    sum_exact,
)
from cubeprob.summary import load_summary, save_summary, summary_from_dict, summary_to_dict
from conftest import summarized_ranges


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


def test_answered_summary_still_equals_hashes_and_saves_like_a_fresh_copy(reference_summary):
    answered = summary_from_dict(summary_to_dict(reference_summary))
    for kind in QueryKind:
        estimate(answered, None, QuerySpec(Range((2, 2), (9, 5)), kind, 2))
    fresh = summary_from_dict(summary_to_dict(reference_summary))
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
