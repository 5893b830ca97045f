import io
import json
import re
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeprob import (
    CompressionFactor,
    Datacube,
    DuplicateKeyError,
    OutOfBoundsError,
    Range,
    RelationFormatError,
    build_summary,
    count_exact,
    from_relation,
    sum_exact,
)
from cubeprob.core import load_cube, read_relation_csv, save_cube


def test_from_relation_empty_is_all_null():
    cube = from_relation([], (2, 2))
    assert cube.cells == (0, 0, 0, 0)
    assert count_exact(cube, cube.full_range()) == 0


def test_from_relation_single_tuple():
    cube = from_relation([((1, 1), 5)], (2, 2))
    assert cube[(1, 1)] == 5
    assert sum(cube.cells) == 5


def test_from_relation_duplicate_key():
    with pytest.raises(DuplicateKeyError):
        from_relation([((1, 1), 3), ((1, 1), 4)], (2, 2))


def test_from_relation_duplicate_even_with_zero_value():
    with pytest.raises(DuplicateKeyError):
        from_relation([((2, 1), 0), ((2, 1), 4)], (2, 2))


def test_from_relation_out_of_bounds():
    with pytest.raises(OutOfBoundsError):
        from_relation([((3, 1), 2)], (2, 2))
    with pytest.raises(OutOfBoundsError):
        from_relation([((0, 1), 2)], (2, 2))


def test_explicit_zero_equals_absent():
    with_zero = from_relation([((1, 2), 0), ((2, 2), 3)], (2, 2))
    without = from_relation([((2, 2), 3)], (2, 2))
    assert with_zero == without


def test_count_and_sum_on_reference_block(reference_cube):
    r = Range((1, 1), (3, 4))
    assert count_exact(reference_cube, r) == 8
    assert sum_exact(reference_cube, r) == 26


def test_count_and_sum_one_dimensional():
    cube = Datacube((3,), (2, 0, 1))
    r = Range((1,), (3,))
    assert count_exact(cube, r) == 2
    assert sum_exact(cube, r) == 3


def test_all_zero_cube_any_range():
    cube = Datacube((4, 3), (0,) * 12)
    assert count_exact(cube, Range((2, 1), (4, 2))) == 0
    assert sum_exact(cube, Range((2, 1), (4, 2))) == 0


def test_range_validation():
    with pytest.raises(ValueError):
        Range((0, 1), (2, 2))
    with pytest.raises(ValueError):
        Range((2, 2), (1, 2))
    with pytest.raises(ValueError):
        Range((1,), (1, 2))


def test_out_of_bounds_range_query():
    cube = Datacube((2, 2), (1, 2, 3, 4))
    with pytest.raises(OutOfBoundsError):
        count_exact(cube, Range((1, 1), (3, 2)))


small_cubes = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just((n, 3)),
        st.lists(st.integers(0, 5), min_size=n * 3, max_size=n * 3),
    )
)


@settings(deadline=None, max_examples=60)
@given(small_cubes, st.data())
def test_additivity_over_split_ranges(cube_data, data):
    dims, cells = cube_data
    cube = Datacube(dims, tuple(cells))
    lo1 = data.draw(st.integers(1, dims[0]), label="lo")
    hi = data.draw(st.integers(lo1, dims[0]), label="hi")
    cut = data.draw(st.integers(lo1, hi), label="cut")
    whole = Range((lo1, 1), (hi, dims[1]))
    left = Range((lo1, 1), (cut, dims[1]))
    if cut == hi:
        assert count_exact(cube, whole) == count_exact(cube, left)
        return
    right = Range((cut + 1, 1), (hi, dims[1]))
    assert count_exact(cube, whole) == count_exact(cube, left) + count_exact(cube, right)
    assert sum_exact(cube, whole) == sum_exact(cube, left) + sum_exact(cube, right)


@st.composite
def cubes_with_range(draw):
    """A 1-D to 4-D cube and a range in it whose last axis is one cell, full or any."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    cells = draw(st.lists(st.integers(0, 4), min_size=prod(dims), max_size=prod(dims)))
    lo, hi = [], []
    for n in dims:
        a = draw(st.integers(1, n))
        lo.append(a)
        hi.append(draw(st.integers(a, n)))
    last = draw(st.sampled_from(["one", "full", "any"]))
    if last == "one":
        hi[-1] = lo[-1]
    elif last == "full":
        lo[-1], hi[-1] = 1, dims[-1]
    return Datacube(dims, tuple(cells)), Range(tuple(lo), tuple(hi))


def _slow_count_sum(cube, r):
    values = [cube[c] for c in r.cells()]
    return sum(1 for v in values if v > 0), sum(values)


@settings(deadline=None, max_examples=150)
@given(cubes_with_range(), st.data())
def test_row_runs_match_the_per_cell_walk(cube_and_range, data):
    cube, r = cube_and_range
    covered = [i for run in cube.runs(r) for i in range(len(cube.cells))[run]]
    assert covered == [cube.offset(c) for c in r.cells()]
    assert (count_exact(cube, r), sum_exact(cube, r)) == _slow_count_sum(cube, r)
    axes = []
    for n in cube.dims:
        cuts = data.draw(st.sets(st.integers(1, n - 1)), label="cuts") if n > 1 else set()
        axes.append((0, *sorted(cuts), n))
    summary = build_summary(cube, CompressionFactor(tuple(axes)))
    for blk in summary.blocks:
        assert (blk.count, blk.sum) == _slow_count_sum(cube, blk.range)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 9)), max_size=6))
def test_relation_round_trip_totals(raw):
    seen = set()
    tuples = []
    for a, b, v in raw:
        if (a, b) in seen:
            continue
        seen.add((a, b))
        tuples.append(((a, b), v))
    cube = from_relation(tuples, (3, 3))
    full = cube.full_range()
    assert sum_exact(cube, full) == sum(v for _, v in tuples)
    assert count_exact(cube, full) == sum(1 for _, v in tuples if v > 0)
    assert count_exact(cube, full) <= full.size
    assert sum_exact(cube, full) >= count_exact(cube, full)
    assert (sum_exact(cube, full) == 0) == (count_exact(cube, full) == 0)


def test_csv_with_header_and_blank_lines():
    text = "d1,d2,value\n1,1,5\n\n2,2,3\n"
    cube = read_relation_csv(io.StringIO(text), (2, 2))
    assert cube[(1, 1)] == 5
    assert cube[(2, 2)] == 3


def test_csv_empty_gives_all_null():
    cube = read_relation_csv(io.StringIO(""), (2, 2))
    assert cube.cells == (0, 0, 0, 0)


def test_csv_errors_name_lines():
    with pytest.raises(OutOfBoundsError, match="line 2"):
        read_relation_csv(io.StringIO("1,1,5\n0,1,2\n"), (2, 2))
    with pytest.raises(RelationFormatError, match="line 2"):
        read_relation_csv(io.StringIO("1,1,5\n1,x,2\n"), (2, 2))
    with pytest.raises(DuplicateKeyError, match="line 3"):
        read_relation_csv(io.StringIO("1,1,5\n1,2,1\n1,1,2\n"), (2, 2))


def test_from_relation_refuses_non_integral_input():
    with pytest.raises(RelationFormatError):
        from_relation([((1.9, 1), 2.7)], (2, 2))
    with pytest.raises(RelationFormatError):
        from_relation([((1, 1), 2.5)], (2, 2))
    with pytest.raises(ValueError):
        from_relation([], (2.0, 2))


def test_cube_and_range_refuse_non_integral_input():
    with pytest.raises(ValueError):
        Datacube((2, 2), (0.5, 1, 2, 3))
    with pytest.raises(ValueError):
        Datacube((2.5, 2), (0, 1, 2, 3))
    with pytest.raises(ValueError):
        Range((1.5,), (2,))
    with pytest.raises(ValueError):
        Range((1,), (2.0,))


def test_load_cube_refuses_non_integral_values(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"dims": [2, 2], "cells": [0.5, 1, 2, 3]}))
    with pytest.raises(RelationFormatError):
        load_cube(str(path))


def _reference_densify(dims, rows):
    """Check rows one at a time: (cube, None) or (None, (error type, bad row, first row))."""
    given = {}
    for i, (coords, value) in enumerate(rows):
        if not all(1 <= c <= n for c, n in zip(coords, dims)):
            return None, (OutOfBoundsError, i, None)
        if value < 0:
            return None, (RelationFormatError, i, None)
        if coords in given:
            return None, (DuplicateKeyError, i, given[coords])
        given[coords] = i
    values = {coords: rows[i][1] for coords, i in given.items()}
    cells = [values.get(c, 0) for c in product(*(range(1, n + 1) for n in dims))]
    return Datacube(dims, tuple(cells)), None


@st.composite
def relations(draw):
    """A 1-D to 3-D relation whose rows may repeat, leave the cube or be negative."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    coords = st.tuples(*(st.integers(1, n) for n in dims))
    rows = draw(st.lists(st.tuples(coords, st.integers(0, 9)), max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        bad = draw(st.sampled_from(["below", "above", "negative", "duplicate"]))
        at = draw(st.integers(0, len(rows)))
        c = list(draw(coords))
        axis = draw(st.integers(0, len(dims) - 1))
        value = draw(st.integers(0, 9))
        if bad == "below":
            c[axis] = draw(st.integers(-2, 0))
        elif bad == "above":
            c[axis] = dims[axis] + draw(st.integers(1, 3))
        elif bad == "negative":
            value = draw(st.integers(-5, -1))
        elif rows:
            c = list(rows[draw(st.integers(0, len(rows) - 1))][0])
        rows.insert(at, (tuple(c), value))
    blank_before = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return dims, rows, blank_before


@settings(deadline=None, max_examples=300)
@given(relations())
def test_ingest_paths_match_a_per_row_reference(relation):
    dims, rows, blank_before = relation
    lines = [",".join([f"d{q}" for q in range(1, len(dims) + 1)] + ["value"])]
    line_of = []
    for (coords, value), blank in zip(rows, blank_before):
        if blank:
            lines.append("")
        lines.append(",".join(map(str, (*coords, value))))
        line_of.append(len(lines))
    text = "\n".join(lines) + "\n"
    expected, error = _reference_densify(dims, rows)
    if error is None:
        assert from_relation(rows, dims) == expected
        assert read_relation_csv(io.StringIO(text), dims) == expected
        return
    kind, bad, first = error
    with pytest.raises(kind):
        from_relation(rows, dims)
    with pytest.raises(kind) as raised:
        read_relation_csv(io.StringIO(text), dims)
    message = str(raised.value)
    assert message.startswith(f"line {line_of[bad]}: ")
    if first is not None:
        assert re.search(rf"\bline {line_of[first]}\b", message.removeprefix(f"line {line_of[bad]}: "))


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([1, 4]).flatmap(
        lambda r: st.lists(st.integers(1, 12 if r == 1 else 3), min_size=r, max_size=r)
    ),
    st.data(),
)
def test_prefix_tables_answer_every_range_like_the_per_cell_walk(dims, data):
    cells = data.draw(st.lists(st.integers(0, 9), min_size=prod(dims), max_size=prod(dims)))
    cube = Datacube(tuple(dims), tuple(cells))
    axes = [
        [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)] for n in dims
    ]
    for corners in product(*axes):
        r = Range(tuple(lo for lo, _ in corners), tuple(hi for _, hi in corners))
        assert (count_exact(cube, r), sum_exact(cube, r)) == _slow_count_sum(cube, r)


def test_sums_past_64_bits_fall_back_to_unbounded_integers():
    big = 2**62 + 1
    cube = Datacube((2, 3), (big, 0, big, 1, big, big))
    for r in (cube.full_range(), Range((1, 1), (1, 3)), Range((2, 2), (2, 3)), Range((1, 2), (2, 2))):
        assert (count_exact(cube, r), sum_exact(cube, r)) == _slow_count_sum(cube, r)
    assert sum_exact(cube, cube.full_range()) == 4 * big + 1 > 2**63
    assert isinstance(cube._sums.table, list)  # the 64-bit table would overflow


def test_answered_cube_still_equals_hashes_and_saves_like_a_fresh_copy(tmp_path, reference_cube):
    answered = Datacube(reference_cube.dims, reference_cube.cells)
    fresh = Datacube(reference_cube.dims, reference_cube.cells)
    r = Range((2, 2), (9, 5))
    assert (count_exact(answered, r), sum_exact(answered, r)) == _slow_count_sum(fresh, r)
    assert answered == fresh and hash(answered) == hash(fresh)
    save_cube(answered, str(tmp_path / "answered.json"))
    save_cube(fresh, str(tmp_path / "fresh.json"))
    assert (tmp_path / "answered.json").read_text() == (tmp_path / "fresh.json").read_text()
    assert load_cube(str(tmp_path / "answered.json")) == fresh


def test_cube_json_round_trip(tmp_path, reference_cube):
    path = tmp_path / "cube.json"
    save_cube(reference_cube, str(path))
    assert load_cube(str(path)) == reference_cube
