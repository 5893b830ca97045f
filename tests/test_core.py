import csv
import io
import json
import re
from array import array
from itertools import count, product
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
from cubeprob import core
from cubeprob.core import load_cube, load_relation_csv, read_relation_csv, save_cube
from cubeprob.errors import CubeError


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


@st.composite
def box_pairs(draw):
    """Two boxes of one arity (1-4): unrelated, the second nested in the first,
    or the second touching the first's upper face on one axis (sharing one
    slice of cells, or adjacent to it and disjoint)."""
    ndim = draw(st.integers(1, 4))
    spans = [sorted(draw(st.lists(st.integers(1, 5), min_size=2, max_size=2))) for _ in range(ndim)]
    a = Range(*zip(*spans))
    mode = draw(st.sampled_from(["free", "nested", "touching"]))
    lo, hi = [], []
    for axis, (a_lo, a_hi) in enumerate(spans):
        if mode == "nested":
            l = draw(st.integers(a_lo, a_hi))
            h = draw(st.integers(l, a_hi))
        elif mode == "touching" and axis == 0:
            l = a_hi + draw(st.integers(0, 1))
            h = l + draw(st.integers(0, 2))
        else:
            l, h = sorted(draw(st.lists(st.integers(1, 5), min_size=2, max_size=2)))
        lo.append(l)
        hi.append(h)
    return a, Range(tuple(lo), tuple(hi))


@settings(deadline=None, max_examples=300)
@given(box_pairs())
def test_overlap_size_counts_the_shared_cells(pair):
    a, b = pair
    common = a.intersect(b)
    shared = sum(all(l <= c <= h for c, l, h in zip(cell, b.lo, b.hi)) for cell in a.cells())
    assert a.overlap_size(b) == b.overlap_size(a) == (common.size if common else 0) == shared


@pytest.mark.parametrize("method", ["contains", "intersect"])
def test_range_of_another_arity_is_refused(method):
    # zipping the corners used to answer True and Range((2,), (3,)) here
    square, segment = Range((1, 1), (4, 4)), Range((2,), (3,))
    with pytest.raises(ValueError, match="arity mismatch: 2 vs 1"):
        getattr(square, method)(segment)
    with pytest.raises(ValueError, match="arity mismatch: 1 vs 2"):
        getattr(segment, method)(square)


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
    factor = CompressionFactor(tuple(axes))
    for blk in build_summary(cube, factor).blocks:
        assert blk.range == factor.block_range(blk.index)
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
    # a list of lines is read once through, like a stream
    assert read_relation_csv(text.splitlines(keepends=True), (2, 2)) == cube


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


@pytest.mark.parametrize(
    "text, line",
    [
        ("1,1,5.5\n2,2,3\n", 1),
        ("1,x,5\n2,2,3\n", 1),
        ("\ufeff1,1,5\n2,2,3\n", 1),
        ("1.5,2.5,3.5\n", 1),
        ("\n,,\n1,1,5.5\n", 3),
        ("d1,d2,value\nd1,d2,value\n1,1,5\n", 2),
        ("1,1,5\nd1,d2,value\n", 2),
    ],
)
def test_csv_refuses_non_integer_rows_other_than_a_leading_header(text, line):
    with pytest.raises(RelationFormatError, match=f"^line {line}: non-integer field in "):
        read_relation_csv(io.StringIO(text), (2, 2))


@pytest.mark.parametrize(
    "field", ["1_0", "\u0663", "\u00a02"], ids=["underscore", "arabic-indic-digit", "no-break-space"]
)
def test_csv_refuses_fields_that_only_int_reads_as_integers(field):
    text = f"x_1,y\u2082,value\n1,1,5\n2,{field},3\n"
    with pytest.raises(RelationFormatError, match="^line 3: non-integer field in "):
        read_relation_csv(io.StringIO(text), (2, 20))
    assert read_relation_csv(io.StringIO(text.replace(field, "2")), (2, 20)).cells[20 + 1] == 3


@pytest.mark.parametrize("coords", [(1,), (1, 1, 1)])
def test_rows_of_another_arity_are_refused(coords):
    text = "1,1,5\n" + ",".join(map(str, (*coords, 2))) + "\n"
    expected = f"line 2: expected 2 coordinates plus a value, got {len(coords) + 1} fields"
    with pytest.raises(RelationFormatError) as raised:
        read_relation_csv(io.StringIO(text), (2, 2))
    assert str(raised.value) == expected
    with pytest.raises(OutOfBoundsError) as raised:
        from_relation([((1, 1), 5), (coords, 2)], (2, 2))
    assert str(raised.value) == f"coordinate arity {len(coords)} does not match cube arity 2"


def test_csv_header_is_the_first_non_blank_row():
    cube = read_relation_csv(io.StringIO("\n ,\nd1,d2,value\n1,1,5\n"), (2, 2))
    assert cube.cells == (5, 0, 0, 0)


@pytest.mark.parametrize("header", ["", "d1,d2,value\n"])
def test_load_relation_csv_drops_a_byte_order_mark(tmp_path, header):
    text = header + "1,1,5\n2,2,3\n"
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    plain = load_relation_csv(str(tmp_path / "plain.csv"), (2, 2))
    assert plain.cells == (5, 0, 0, 3)
    assert load_relation_csv(str(tmp_path / "bom.csv"), (2, 2)) == plain


@pytest.mark.parametrize("data, line", [
    (b"d1,d2,value\n1,1,3\n1,2,caf\xe9\n", 3),
    (b"1,1,3\r1,2,3\r\n\xe9", 3),  # a lone \r ends a line, as csv.reader counts them
    (b"\n" * 20_000 + b"1,1,\xe9", 20_001),  # past the first chunk that the file is decoded in
], ids=["third-line", "carriage-returns", "far"])
def test_a_csv_that_is_not_utf8_names_its_file_and_line(tmp_path, data, line):
    path = tmp_path / "relation.csv"
    path.write_bytes(data)
    with pytest.raises(RelationFormatError) as raised:
        load_relation_csv(str(path), (2, 2))
    assert str(raised.value).startswith(f"{path}: line {line}: not UTF-8 text: byte 0xe9 (")


def test_a_duplicate_names_a_first_line_past_65535():
    text = "\n" * 69_999 + "1,1\n1,2\n"
    with pytest.raises(DuplicateKeyError) as raised:
        read_relation_csv(io.StringIO(text), (2,))
    assert str(raised.value) == "line 70001: duplicate coordinates (1,), first given on line 70000"


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
    return dims, rows


@settings(deadline=None, max_examples=300)
@given(relations(), st.data())
def test_ingest_paths_match_a_per_row_reference(relation, data):
    dims, rows = relation
    # per row: a blank row to put before it (or None), and how each field is
    # written: plain, quoted, space-padded, or padded inside the quotes
    blank = st.sampled_from([None, None, "", ",,", "  "])
    field_formats = st.sampled_from(["{}", '"{}"', " {} ", '" {}"'])
    formats = st.lists(field_formats, min_size=len(dims) + 1, max_size=len(dims) + 1)
    layout = data.draw(st.lists(st.tuples(blank, formats), min_size=len(rows), max_size=len(rows)))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    header = ",".join([f"d{q}" for q in range(1, len(dims) + 1)] + ["value"])
    lines = [header] if data.draw(st.booleans()) else []
    line_of = []
    for (coords, value), (blank, formats) in zip(rows, layout):
        if blank is not None:
            lines.append(blank)
        lines.append(",".join(f.format(x) for f, x in zip(formats, (*coords, value))))
        line_of.append(len(lines))
    text = newline.join(lines) + newline
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


def _csv_records(stream):
    """``csv.reader``'s records; one it cannot read is a data error naming its line."""
    reader = csv.reader(stream)
    for line in count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise RelationFormatError(f"line {line}: unreadable CSV record: {exc}") from None
        yield row


def _per_record_rows(stream):
    """Rows as ``csv.reader`` yields them, one record at a time, with the header rule."""
    header_allowed = True
    for line, row in enumerate(_csv_records(stream), start=1):
        try:
            fields = list(map(int, row))
        except ValueError:
            if not "".join(row).strip():
                continue
            if header_allowed and not any(map(core._NUMBER.match, row)):
                header_allowed = False
                continue
            raise RelationFormatError(f"line {line}: non-integer field in {row}") from None
        if fields:
            text = "".join(row)
            if "_" in text or not text.isascii():
                raise RelationFormatError(f"line {line}: non-integer field in {row}")
            header_allowed = False
            yield line, 1, fields


def _outcome(read):
    """The cube ``read()`` returns, or the type and message of what it raises."""
    try:
        return read()
    except (CubeError, csv.Error) as exc:
        return type(exc), str(exc)


@st.composite
def csv_relations(draw):
    """CSV text of a 1-D to 3-D relation with mostly plain rows and some faults."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    coords = st.tuples(*(st.integers(1, n) for n in dims))
    keys = draw(st.lists(coords, unique=True, min_size=min(prod(dims), 6), max_size=16))
    rows = [[*map(str, key), str(draw(st.integers(0, 9)))] for key in keys]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from([
            "below", "above", "sign", "duplicate", "fewer", "more",
            "1.5", "1_0", "٣", "\r", "header",
        ]))
        row = [*map(str, draw(coords)), str(draw(st.integers(0, 9)))]
        field = draw(st.integers(0, len(row) - 1))
        if fault == "below":
            row[field % len(dims)] = str(draw(st.integers(-2, 0)))
        elif fault == "above":
            row[field % len(dims)] = str(dims[field % len(dims)] + draw(st.integers(1, 3)))
        elif fault == "sign":
            row[-1] = str(draw(st.integers(-5, -1)))
        elif fault == "duplicate" and rows:
            row[:-1] = draw(st.sampled_from(rows))[:-1]
        elif fault == "fewer":
            del row[field]
        elif fault == "more":
            row.insert(field, "1")
        elif fault == "header":  # refused past the first non-blank row
            row = [f"d{q}" for q in range(1, len(row))] + ["value"]
        elif fault == "\r":  # a line break inside the row
            row[field] = fault + row[field]
        elif fault in ("1.5", "1_0", "٣"):
            row[field] = fault
        rows.insert(draw(st.integers(0, len(rows))), row)
    plain = st.sampled_from(["{}", "{}", " {} "])
    quoted = st.sampled_from(["{}", '"{}"', " {} ", '" {}"'])
    header = ",".join(f"d{q}" for q in range(1, len(dims) + 1)) + ",value"
    lines = [header] if draw(st.booleans()) else []
    for row in rows:
        if draw(st.integers(0, 11)) == 0:
            lines.append(draw(st.sampled_from(["", ",,", "  "])))
        formats = plain if draw(st.integers(0, 9)) else quoted
        lines.append(",".join(draw(formats).format(field) for field in row))
    ends = draw(st.sampled_from([("\n",), ("\r\n",), ("\r",), ("\n", "\r\n", "\r")]))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line break
    return dims, text


@settings(deadline=None, max_examples=400)
@given(csv_relations(), st.sampled_from([2, 3]), st.sampled_from(["", "", "", None, "\n"]))
# too few and too many commas in one chunk, two commas each in all
@example(((2, 2), "1,1,5\n1,2\n2,1,2,3\n2,2,7\n"), 3, "")
# a break that only csv.reader takes inside a line: an error, not the value 1
@example(((2, 2), "1,1,5\n\r1,2,3\n2,2,4\n"), 2, "\n")
# a blank line before the header, and a header alone
@example(((2, 2), "\nd1,d2,value\n1,1,5\n2,2,4\n"), 2, "")
@example(((2, 2), "d1,d2,value\n"), 3, "")
# a header is refused after a first row that only csv.reader reads
@example(((2, 2), '"1",1,5\nd1,d2,value\n'), 2, "")
# a quoted record that runs past its chunk, then a repeated key
@example(((2, 2), '1,1,5\n2,1,1\n1,2,"3\n"\n2,2,4\n1,1,6\n'), 2, "")
# past a first row, which is read alone, fields that the JSON decoder of a
# plain chunk reads as int() does: -0, and padding by spaces and tabs
@example(((2, 2), "1,2,3\n1,1,-0\n2,2,4\n"), 2, "")
@example(((2, 2), "1,2,3\n 1 ,\t1, 5\n2\t, 2 ,4\t\n"), 2, "")
# fields that it refuses, or would misread: each goes to csv.reader
@example(((2, 2), "1,2,3\n1,1,007\n2,2,4\n"), 2, "")
@example(((2, 2), "1,2,3\n1,1,+5\n2,2,4\n"), 2, "")
@example(((2, 2), "1,2,3\n1,1,1e3\n2,2,4\n"), 2, "")
@example(((2, 2), "1,2,3\n1,1,1.0\n2,2,4\n"), 2, "")
@example(((2, 2), "1,2,3\n1,1,true\n2,2,4\n"), 2, "")
@example(((2, 2), "1,2,3\n1,1,NaN\n2,2,4\n"), 2, "")
@example(((2, 2), "1,2,3\n1,1," + "7" * 5000 + "\n2,2,4\n"), 2, "")
# CRLF line ends, a lone CR inside a line, no line end on the last line
@example(((2, 2), "1,2,3\n1,1,5\r\n2,2,4\r\n"), 2, "")
@example(((2, 2), "1,2,3\n1,1,5\r\n2,2,4\r\n"), 2, "\n")
@example(((2, 2), "1,2,3\n1,1,5\r2,2,4\n2,1,1\n"), 3, "\n")
@example(((2, 2), "1,2,3\n1,1,5\n2,2,4"), 2, "")
# one extra comma beside one missing: the field count fits, the rows do not
@example(((2, 2), "1,2,3\n1,1,5,2\n2,4\n"), 2, "")
def test_chunked_ingest_matches_a_per_record_reader(relation, chunk, newline):
    dims, text = relation
    records = _per_record_rows(io.StringIO(text, newline=newline))
    expected = _outcome(lambda: core._densify(records, dims))
    with mock.patch.object(core, "_CHUNK", chunk):
        got = _outcome(lambda: read_relation_csv(io.StringIO(text, newline=newline), dims))
    assert got == expected


@pytest.mark.parametrize("stream", [
    ["1,2,3\n", "1,1,5\n2,", "1,1\n"],  # a line break inside a string
    ["1,2,3\n", "1,1,5", "\n2,2,4\n"],  # a string that starts with a line break
    ["1,2,3\n", "1,1,5", "2,2,4\n"],  # a string with no line break: one record
], ids=["break-inside", "break-first", "no-break"])
def test_strings_that_are_not_lines_are_read_as_csv_reader_reads_them(stream):
    # csv.reader takes each string as one line, whatever line breaks it holds
    expected = _outcome(lambda: core._densify(_per_record_rows(iter(stream)), (2, 2)))
    with mock.patch.object(core, "_CHUNK", 3):
        assert _outcome(lambda: read_relation_csv(stream, (2, 2))) == expected


def test_a_fallback_stays_inside_its_chunk():
    rows = [f"{i // 4 + 1},{i % 4 + 1},{i}" for i in range(13)]
    text = "\n".join(["d1,d2,value", rows[0], "", *rows[1:]]) + "\n"  # line 3 is blank
    records = []
    csv_reader = csv.reader

    class CountingReader:
        """``csv.reader`` that keeps every record it yields."""

        def __init__(self, lines):
            self.reader = csv_reader(lines)

        def __iter__(self):
            return self

        def __next__(self):
            records.append(next(self.reader))
            return records[-1]

        @property
        def line_num(self):
            return self.reader.line_num

    with mock.patch.object(core, "_CHUNK", 3), mock.patch.object(core.csv, "reader", CountingReader):
        cube = read_relation_csv(io.StringIO(text), (4, 4))
    assert cube == read_relation_csv(io.StringIO(text.replace("\n\n", "\n")), (4, 4))
    # the header alone, then the chunk of lines 2-4; no record runs past its end
    assert records == [["d1", "d2", "value"], ["1", "1", "0"], [], ["1", "2", "1"]]


@pytest.mark.parametrize("dims", [(6,), (3, 4), (2, 3, 2)], ids=["1-D", "2-D", "3-D"])
def test_plain_chunks_are_stored_without_the_per_row_loop(dims):
    keys = list(product(*(range(1, n + 1) for n in dims)))[::-1]
    rows = [",".join(map(str, (*key, i % 5))) for i, key in enumerate(keys)]
    header = ",".join([f"d{q}" for q in range(1, len(dims) + 1)] + ["value"])
    expected = from_relation([(key, i % 5) for i, key in enumerate(keys)], dims)
    calls = []
    note = core._Lines.note

    def counting_note(lines, line, offsets):
        calls.append((line, len(offsets)))
        note(lines, line, offsets)

    # the header alone, then chunks of three plain lines each, each noted whole
    plain = [(line, 3) for line in range(2, len(rows) + 2, 3)]
    with mock.patch.object(core, "_CHUNK", 3), mock.patch.object(core._Lines, "note", counting_note):
        assert read_relation_csv(io.StringIO("\n".join([header, *rows]) + "\n"), dims) == expected
        assert calls == plain
        calls.clear()
        # a quoted field sends its chunk, and only that, through the per-row loop
        first, rest = rows[4].split(",", 1)
        rows[4] = f'"{first}",{rest}'
        assert read_relation_csv(io.StringIO("\n".join([header, *rows]) + "\n"), dims) == expected
    assert calls == [(2, 3), (5, 1), (6, 1), (7, 1), *plain[2:]]


_PLAIN_ROWS = ["1,1,5", "1,2,0", "1,3,7", "2,1,1", "2,2,4", "2,3,2"]


@pytest.mark.parametrize("dims, rows, kind, message", [
    ((3, 4), [*_PLAIN_ROWS, "0,2,5", "3,1,1"], OutOfBoundsError,
     "line 8: coordinate (0, 2) outside [1..(3, 4)]"),
    ((3, 4), [*_PLAIN_ROWS, "2,-1,5", "3,1,1"], OutOfBoundsError,
     "line 8: coordinate (2, -1) outside [1..(3, 4)]"),
    ((3, 4), [*_PLAIN_ROWS, "3,5,5", "3,1,1"], OutOfBoundsError,
     "line 8: coordinate (3, 5) outside [1..(3, 4)]"),
    ((3, 4), [*_PLAIN_ROWS, "3,2,-4", "3,1,1"], RelationFormatError,
     "line 8: measure value must be a natural, got -4"),
    ((3, 4), [*_PLAIN_ROWS, "3,1,1", "3,1,2"], DuplicateKeyError,
     "line 9: duplicate coordinates (3, 1), first given on line 8"),
    ((3, 4), [*_PLAIN_ROWS, "3,1,1", "1,3,2"], DuplicateKeyError,
     "line 9: duplicate coordinates (1, 3), first given on line 4"),
    ((5,), ["1,1", "2,1", "3,1", "4,1", "-1,5"], OutOfBoundsError,
     "line 6: coordinate (-1,) outside [1..(5,)]"),
    ((2, 3, 4), ["1,1,1,1", "1,1,2,1", "1,1,3,1", "1,2,1,1", "-1,1,1,5"], OutOfBoundsError,
     "line 6: coordinate (-1, 1, 1) outside [1..(2, 3, 4)]"),
    ((2, 3, 4), ["1,1,1,1", "1,1,2,1", "1,1,3,1", "2,1,1,1", "2,1,-1,5"], OutOfBoundsError,
     "line 6: coordinate (2, 1, -1) outside [1..(2, 3, 4)]"),
], ids=[
    "zero", "minus-one", "past-the-end", "negative-value", "repeat-in-a-chunk",
    "repeat-across-chunks", "minus-one-1-D", "minus-one-first-axis-3-D", "minus-one-last-axis-3-D",
])
def test_a_plain_chunk_refuses_a_row_in_the_per_row_words(dims, rows, kind, message):
    # after the header, read alone, chunks of three plain lines: the bad row is in one
    header = ",".join([f"d{q}" for q in range(1, len(dims) + 1)] + ["value"])
    with mock.patch.object(core, "_CHUNK", 3), pytest.raises(kind) as raised:
        read_relation_csv(io.StringIO("\n".join([header, *rows]) + "\n"), dims)
    assert str(raised.value) == message


@pytest.mark.parametrize("stream", [
    ["d1,d2,value\n", "1,1,5\n,2,1", "1\n"],
    ["1,1,5\n", "1,2,3\n,2,1", "1\n", "2,2,4\n"],
], ids=["after-a-header", "after-a-row"])
def test_strings_that_split_a_record_mid_line_reach_csv_reader(stream):
    # joined by commas, the strings are plain rows; csv.reader sees a line break inside one
    with mock.patch.object(core, "_CHUNK", 3), pytest.raises(RelationFormatError) as raised:
        read_relation_csv(stream, (3, 4))
    assert str(raised.value) == (
        "line 2: unreadable CSV record: new-line character seen in unquoted field"
        " - do you need to open the file in universal-newline mode?"
    )


def test_a_stream_split_at_lone_carriage_returns_is_read_as_csv_reader_reads_it():
    # read with newline="\r", the \r\n is split across two lines: "1,1,5\r", "\n2,2,4"
    data = b"1,2,3\r1,1,5\r\n2,2,4"

    def stream():
        return io.TextIOWrapper(io.BytesIO(data), newline="\r")

    assert list(stream()) == ["1,2,3\r", "1,1,5\r", "\n2,2,4"]
    expected = _outcome(lambda: core._densify(_per_record_rows(stream()), (2, 2)))
    with mock.patch.object(core, "_CHUNK", 3):
        assert _outcome(lambda: read_relation_csv(stream(), (2, 2))) == expected


@pytest.mark.parametrize("first", ["d1,d2,value", "1,1,5", ",,", ""], ids=["header", "row", "commas", "blank"])
def test_leading_blank_lines_are_read_by_one_reader(first):
    blanks = 50
    text = "\n" * blanks + f"{first}\n2,2,3\n"
    readers = []
    csv_reader = csv.reader

    def counting_reader(lines):
        readers.append(lines)
        return csv_reader(lines)

    with mock.patch.object(core, "_CHUNK", 3), mock.patch.object(core.csv, "reader", counting_reader):
        cube = read_relation_csv(io.StringIO(text), (2, 2))
        with pytest.raises(DuplicateKeyError) as raised:
            read_relation_csv(io.StringIO(text + "2,2,4\n"), (2, 2))
    assert cube == read_relation_csv(io.StringIO(text.lstrip("\n")), (2, 2))
    assert len(readers) == 2  # one per read
    # line numbers still count every blank line
    assert str(raised.value) == f"line {blanks + 3}: duplicate coordinates (2, 2), first given on line {blanks + 2}"


@pytest.mark.parametrize("field", ["7" * 140_000, '"' + "7" * 140_000 + '"'], ids=["plain", "quoted"])
def test_an_unreadable_csv_record_is_a_data_error_naming_its_line(field):
    text = f"d1,d2,value\n1,1,5\n2,2,{field}\n"
    with pytest.raises(RelationFormatError) as raised:
        read_relation_csv(io.StringIO(text), (2, 2))
    assert str(raised.value) == "line 3: unreadable CSV record: field larger than field limit (131072)"


def _reference_table(values, dims):
    """The element-wise prefix table of ``values``, in the narrowest container that holds their total."""
    total = sum(values)
    code = next((c for c in "BHIQ" if total < 1 << 8 * array(c).itemsize), None)
    return core._prefix_sums(values, dims, array(code) if code else [])


def _assert_tables_match_the_reference(cube):
    flags = bytes(map(bool, cube.cells))
    assert cube._flags == flags
    for table, values in ((cube._counts.table, flags), (cube._sums.table, cube.cells)):
        reference = _reference_table(values, cube.dims)
        assert type(table) is type(reference)
        assert getattr(table, "typecode", None) == getattr(reference, "typecode", None)
        assert table == reference
    # the flags do not depend on which of them is built first
    packed_first = Datacube(cube.dims, cube.cells)
    packed_first._sums
    assert packed_first._flags == flags


def _every_range(dims):
    axes = [[(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)] for n in dims]
    for corners in product(*axes):
        yield Range(tuple(lo for lo, _ in corners), tuple(hi for _, hi in corners))


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([1, 2, 3, 4]).flatmap(
        lambda r: st.lists(st.integers(1, {1: 12, 2: 6, 3: 4, 4: 3}[r]), min_size=r, max_size=r)
    ),
    # the value scale picks the table: B and H up to I, Q and the list past 2^64 - 1
    st.sampled_from([9, 300, 70_000, 2**31, 2**62, 2**66]),
    st.data(),
)
def test_prefix_tables_answer_every_range_like_the_per_cell_walk(dims, scale, data):
    cells = data.draw(st.lists(st.integers(0, scale), min_size=prod(dims), max_size=prod(dims)))
    cube = Datacube(tuple(dims), tuple(cells))
    for r in _every_range(dims):
        assert (count_exact(cube, r), sum_exact(cube, r)) == _slow_count_sum(cube, r)
    _assert_tables_match_the_reference(cube)


@pytest.mark.parametrize("dims", [(5,), (5, 1), (3, 1, 1), (4, 3)])
@pytest.mark.parametrize(
    "total, code",
    [
        (2**8 - 1, "B"), (2**8, "H"), (2**16 - 1, "H"), (2**16, "I"),
        (2**32 - 1, "I"), (2**32, "Q"), (2**64 - 1, "Q"), (2**64, None),
    ],
)
def test_a_grand_total_at_a_slot_limit_is_held_without_a_carry(dims, total, code):
    # the total spread over every cell: the scan's adds reach the slot's limit
    share, rest = divmod(total, prod(dims))
    cube = Datacube(dims, (share + rest,) + (share,) * (prod(dims) - 1))
    assert getattr(cube._sums.table, "typecode", None) == code
    _assert_tables_match_the_reference(cube)
    for r in _every_range(dims):
        assert (count_exact(cube, r), sum_exact(cube, r)) == _slow_count_sum(cube, r)


@pytest.mark.parametrize("byte", range(9))
def test_a_value_whose_one_nonzero_byte_is_any_byte_of_its_slot_is_non_null(byte):
    _assert_tables_match_the_reference(Datacube((2, 2), (0, 1 << 8 * byte, 0, 255 << 8 * byte)))


@pytest.mark.parametrize("least", [0, 2**64], ids=["array", "list"])
@pytest.mark.parametrize("dims", [(5,), (4, 3), (3, 2, 4), (5, 1), (3, 1, 1)])
def test_a_box_empty_on_one_axis_totals_zero(dims, least):
    table = core._PrefixSums([least + i for i in range(prod(dims))], dims)
    assert isinstance(table.table, list) == (least > 0)
    for q, n in enumerate(dims):
        for lo_q in range(1, n + 2):  # hi == lo - 1 from the first to the last cell
            lo = tuple(lo_q if j == q else 1 for j in range(len(dims)))
            hi = tuple(lo_q - 1 if j == q else m for j, m in enumerate(dims))
            assert table.total(lo, hi) == 0


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
