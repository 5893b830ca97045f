from itertools import combinations_with_replacement, product
from math import prod
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeprob import (
    BoundTuple,
    CompressionFactor,
    ConstraintError,
    ConstraintSet,
    Datacube,
    MacroBlock,
    MacroKind,
    Range,
    bound_tuple,
    build_summary,
    detect_macroblocks,
    lb_eq0,
    lb_gt0,
    validate,
)
from cubeprob.constraints import (
    _best_from,
    _kind_rows,
    _largest_box,
    _located,
    _located_columns,
    _longest_run,
    _row_area,
    _row_areas,
    _row_box,
    constraints_from_dict,
    constraints_to_dict,
    load_constraints,
    save_constraints,
)


def _null(lo, hi):
    return MacroBlock(Range(lo, hi), MacroKind.ALL_NULL)


def _nonnull(lo, hi):
    return MacroBlock(Range(lo, hi), MacroKind.ALL_NONNULL)


def test_lb_empty_set():
    cs = ConstraintSet(())
    r = Range((1, 1), (5, 5))
    assert lb_eq0(cs, r) == 0
    assert lb_gt0(cs, r) == 0


def test_lb_counts_overlap_volume():
    cs = ConstraintSet((_null((4, 1), (6, 1)),))
    assert lb_eq0(cs, Range((4, 1), (6, 3))) == 3
    assert lb_eq0(cs, Range((5, 1), (6, 3))) == 2
    assert lb_eq0(cs, Range((7, 1), (9, 3))) == 0  # disjoint


def test_lb_gt0_sums_disjoint_macros():
    cs = ConstraintSet((_nonnull((1, 1), (1, 2)), _nonnull((3, 1), (3, 2))))
    assert lb_gt0(cs, Range((1, 1), (3, 2))) == 4
    assert lb_gt0(cs, Range((1, 1), (1, 1))) == 1


def test_overlapping_macros_rejected():
    with pytest.raises(ConstraintError):
        ConstraintSet((_null((1, 1), (2, 2)), _nonnull((2, 2), (3, 3))))


def test_mixed_arity_macros_rejected_naming_both_arities():
    with pytest.raises(ConstraintError, match="arity 1 and arity 2"):
        ConstraintSet((_null((1,), (2,)), _nonnull((3, 3), (4, 4))))


@pytest.mark.parametrize(
    "locate",
    [lb_eq0, lb_gt0, lambda cs, r: bound_tuple(cs, r, r)],
    ids=["lb_eq0", "lb_gt0", "bound_tuple"],
)
@pytest.mark.parametrize("make", [_null, _nonnull], ids=["null", "nonnull"])
def test_range_of_another_arity_rejected(locate, make):
    # zipping the corners used to read the 1-D block 1:2 as rows 1..2 of
    # the 2-D range, so lb_eq0 of the null block answered 2
    cs = ConstraintSet((make((1,), (2,)),))
    with pytest.raises(ConstraintError, match="arity 1.*arity 2"):
        locate(cs, Range((1, 1), (4, 4)))


def test_bound_tuple_refuses_a_query_of_another_arity_than_its_block():
    # Range.contains zips the corners, so the 1-D query 2:3 used to pass as
    # inside the 2-D block and get BoundTuple(0, 2, 0, 16, 2, 16)
    with pytest.raises(ConstraintError, match="arity 2.*arity 1"):
        bound_tuple(ConstraintSet(()), Range((1, 1), (4, 4)), Range((2,), (3,)))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_lb_monotone_on_nested_ranges(data):
    macros = []
    taken: list[Range] = []
    for _ in range(data.draw(st.integers(0, 3))):
        lo = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
        hi = (data.draw(st.integers(lo[0], 6)), data.draw(st.integers(lo[1], 6)))
        r = Range(lo, hi)
        if any(r.intersect(other) for other in taken):
            continue
        taken.append(r)
        kind = data.draw(st.sampled_from([MacroKind.ALL_NULL, MacroKind.ALL_NONNULL]))
        macros.append(MacroBlock(r, kind))
    cs = ConstraintSet(tuple(macros))
    lo = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
    hi = (data.draw(st.integers(lo[0], 6)), data.draw(st.integers(lo[1], 6)))
    outer = Range(lo, hi)
    ilo = (data.draw(st.integers(lo[0], hi[0])), data.draw(st.integers(lo[1], hi[1])))
    ihi = (data.draw(st.integers(ilo[0], hi[0])), data.draw(st.integers(ilo[1], hi[1])))
    inner = Range(ilo, ihi)
    assert lb_eq0(cs, inner) <= lb_eq0(cs, outer)
    assert lb_gt0(cs, inner) <= lb_gt0(cs, outer)
    assert lb_eq0(cs, outer) + lb_gt0(cs, outer) <= outer.size


def test_bound_tuple_reference_example(reference_constraints):
    block = Range((4, 1), (7, 4))
    query = Range((4, 1), (6, 3))
    bt = bound_tuple(reference_constraints, block, query)
    assert (bt.t_lo_in, bt.t_hi_in) == (1, 6)
    assert bt.b_in == 9 and bt.b_blk == 16
    # complement region carries no constrained cells here
    assert (bt.t_lo_blk, bt.t_hi_blk) == (1, 13)


def test_bound_tuple_empty_set_is_trivial():
    bt = bound_tuple(ConstraintSet(()), Range((1, 1), (4, 4)), Range((2, 2), (3, 3)))
    assert bt == BoundTuple.trivial(4, 16)


def test_bound_tuple_requires_containment():
    with pytest.raises(ConstraintError):
        bound_tuple(ConstraintSet(()), Range((1, 1), (2, 2)), Range((2, 2), (3, 3)))


def test_bound_tuple_splits_macro_across_query_and_complement():
    cs = ConstraintSet((_null((1, 1), (2, 4)),))
    bt = bound_tuple(cs, Range((1, 1), (4, 4)), Range((1, 1), (2, 2)))
    assert bt.t_hi_in == 4 - 4  # 4 of the 8 null cells fall inside the query
    assert bt.t_hi_blk == 16 - 8


def _scanned_located(cs, r, within=None):
    """The reference for ``_located``: each macro-block's ``Range.overlap_size`` with
    ``r`` and with ``r``'s intersection with ``within``, added up per kind."""
    clip = r.intersect(within) if within is not None else None
    located = [0, 0, 0, 0]
    for m in cs.blocks:
        kind = int(m.kind is MacroKind.ALL_NONNULL)
        located[kind] += m.range.overlap_size(r)
        if clip is not None:
            located[2 + kind] += m.range.overlap_size(clip)
    return tuple(located)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_located_equals_the_per_macro_block_scan(data):
    # detected macro-blocks of a random 1-3-D cube, against ranges of every
    # shape: anywhere, on a face of the cube, one cell, or a macro-block itself
    rng = data.draw(st.randoms(use_true_random=True), label="layout")
    ndim = rng.randint(1, 3)
    dims = tuple(rng.randint(1, 7 if ndim < 3 else 4) for _ in range(ndim))
    cells = tuple(data.draw(st.sampled_from([0, 0, 1, 2]), label="cell") for _ in range(prod(dims)))
    cs = detect_macroblocks(Datacube(dims, cells), data.draw(st.integers(1, 6), label="min_cells"))

    def some_range():
        shape = rng.choice(["any", "face", "cell", "macro-block"])
        if shape == "macro-block" and cs.blocks:
            return rng.choice(cs.blocks).range
        ends = [sorted(rng.randint(1, n) for _ in range(2)) for n in dims]
        if shape == "face":
            q = rng.randrange(len(dims))
            ends[q] = [rng.choice([1, dims[q]])] * 2
        elif shape == "cell":
            ends = [[a, a] for a, _ in ends]
        return Range(tuple(a for a, _ in ends), tuple(b for _, b in ends))

    for _ in range(10):
        r, within = some_range(), some_range()
        assert _located(cs, r.lo, r.hi) == _scanned_located(cs, r)[:2]
        # the clipped box, empty (some lo > hi) when the two ranges miss
        lo, hi = tuple(map(max, r.lo, within.lo)), tuple(map(min, r.hi, within.hi))
        assert _located(cs, lo, hi) == _scanned_located(cs, r, within)[2:]


def _placed_boxes(rng, factor):
    """Disjoint macro-blocks placed by hand over ``factor``'s cube: each axis of a box
    runs to a face of the cube, or straddles a block boundary, or lies anywhere."""
    boxes = []
    for _ in range(rng.randint(0, 16)):
        lo, hi = [], []
        for axis in factor.boundaries:
            n = axis[-1]
            where = rng.choice(["face", "boundary", "any"])
            a, b = sorted(rng.randint(1, n) for _ in range(2))
            if where == "face":
                a, b = (1, b) if rng.random() < 0.5 else (a, n)
            elif where == "boundary" and len(axis) > 2:
                cut = rng.choice(axis[1:-1])  # the last cell of a block
                a, b = rng.randint(1, cut), rng.randint(cut + 1, n)
            lo.append(a)
            hi.append(b)
        box = MacroBlock(Range(tuple(lo), tuple(hi)), rng.choice(list(MacroKind)))
        if not any(box.range.overlap_size(m.range) for m in boxes):
            boxes.append(box)
    return ConstraintSet(tuple(boxes))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_located_columns_equal_the_per_block_scan(data):
    # every block's located counts, against the per-macro-block scan, under an
    # uneven factor of a random 1-3-D cube, for detected and hand-placed sets
    rng = data.draw(st.randoms(use_true_random=True), label="layout")
    ndim = rng.randint(1, 3)
    dims = tuple(rng.randint(1, 8 if ndim < 3 else 5) for _ in range(ndim))
    factor = CompressionFactor(tuple((0, *(k for k in range(1, n) if rng.random() < 0.4), n) for n in dims))
    cube = Datacube(dims, tuple(rng.choice([0, 0, 1, 2]) for _ in range(prod(dims))))
    summary = build_summary(cube, factor)
    if data.draw(st.booleans(), label="detected"):
        cs = detect_macroblocks(cube, data.draw(st.integers(1, 6), label="min_cells"))
    else:
        cs = _placed_boxes(rng, factor)
    assert _located_columns(cs, summary) == [_scanned_located(cs, blk.range)[:2] for blk in summary.blocks]


def test_validate_empty_constraints(reference_summary):
    assert validate(ConstraintSet(()), reference_summary).ok


def test_validate_detects_violation():
    cube = Datacube((4, 4), tuple([1] * 8 + [0] * 8))
    summary = build_summary(cube, CompressionFactor(((0, 4), (0, 4))))
    # claim all but 5 cells of the block are null: cap of 5 < stored count 8
    cs = ConstraintSet((_null((1, 1), (2, 4)), _null((3, 1), (3, 3)),))
    report = validate(cs, summary)
    assert not report.ok
    assert report.block_index == (1, 1)
    assert report.count == 8 and report.count_hi == 5
    assert "outside" in report.message


def test_validate_reference_with_true_macros(reference_cube, reference_summary, reference_constraints):
    assert validate(reference_constraints, reference_summary).ok
    detected = detect_macroblocks(reference_cube, min_cells=3)
    assert validate(detected, reference_summary).ok


def test_detect_all_zero_cube():
    cube = Datacube((5, 5), (0,) * 25)
    cs = detect_macroblocks(cube, min_cells=20)
    assert len(cs) == 1
    assert cs.blocks[0].kind is MacroKind.ALL_NULL
    assert cs.blocks[0].range == Range((1, 1), (5, 5))


def test_detect_checkerboard_finds_nothing():
    cells = tuple((i + j) % 2 for i in range(8) for j in range(8))
    cube = Datacube((8, 8), cells)
    assert len(detect_macroblocks(cube, min_cells=20)) == 0


def test_detect_zero_band():
    rows = []
    for i in range(1, 9):
        for j in range(1, 9):
            rows.append(0 if 3 <= i <= 6 and 2 <= j <= 7 else (i + j) % 2)
    cube = Datacube((8, 8), tuple(rows))
    cs = detect_macroblocks(cube, min_cells=20)
    bands = [m for m in cs.blocks if m.kind is MacroKind.ALL_NULL and m.range.size >= 20]
    assert any(m.range == Range((3, 2), (6, 7)) for m in bands)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_detect_output_consistent_with_cube(data):
    ndim = data.draw(st.integers(1, 3))
    dims = tuple(data.draw(st.integers(3, 7 if ndim < 3 else 4)) for _ in range(ndim))
    cells = tuple(
        data.draw(st.sampled_from([0, 0, 1, 2])) for _ in range(prod(dims))
    )
    cube = Datacube(dims, cells)
    cs = detect_macroblocks(cube, min_cells=data.draw(st.integers(2, 6)))
    # declared regions match the cube exactly
    for m in cs.blocks:
        for cell in m.range.cells():
            if m.kind is MacroKind.ALL_NULL:
                assert cube[cell] == 0
            else:
                assert cube[cell] > 0
    factor = CompressionFactor.equal_width(dims, (2,) * ndim)
    assert validate(cs, build_summary(cube, factor)).ok


def test_detect_3d_null_slab():
    # a 5x4x4 checkerboard whose middle plane along the first axis is null
    cells = tuple(
        0 if i == 3 else (i + j + k) % 2
        for i, j, k in product(range(1, 6), range(1, 5), range(1, 5))
    )
    cs = detect_macroblocks(Datacube((5, 4, 4), cells), min_cells=10)
    assert cs.blocks == (_null((3, 1, 1), (3, 4, 4)),)


def _heights(dims, mask):
    """Column heights of each row of a 1-D or 2-D mask: the available cells ending there."""
    rows, cols = (1, *dims)[-2:]
    prev = [0] * cols
    for i in range(rows):
        base = i * cols
        prev = [h + 1 if mask[base + j] else 0 for j, h in enumerate(prev)]
        yield prev


def _row_best(heights, i, ndim):
    """The reference for the row kernel: the largest rectangle whose bottom row is row
    ``i`` (0-based), by a monotonic-stack scan of its column heights.

    Returns (area, lo, hi) with 1-based corners of an ``ndim``-D mask (1 or 2),
    or None when every height is 0.  Ties go to the rectangle popped first.
    """
    best = 0
    cols = len(heights)
    stack = []  # column indices with increasing heights
    j = 0
    while j <= cols:
        height = heights[j] if j < cols else 0
        if not stack or heights[stack[-1]] <= height:
            stack.append(j)
            j += 1
            continue
        h = heights[stack.pop()]
        left = stack[-1] + 1 if stack else 0
        if h * (j - left) > best:
            best, corners = h * (j - left), (i - h + 2, left + 1, i + 1, j)
    if not best:
        return None
    top, left, bottom, right = corners
    return best, (top, left)[2 - ndim :], (bottom, right)[2 - ndim :]


def _rows(dims, mask):
    """A boolean row-major mask as the library's row ints (bit j: cell j + 1 of the row)."""
    cols = dims[-1]
    return [
        sum(1 << j for j, v in enumerate(mask[k : k + cols]) if v) for k in range(0, len(mask), cols)
    ]


def test_kind_rows_hold_each_kind_of_cell():
    cube = Datacube((2, 3), (0, 4, 0, 1, 1, 0))
    assert _kind_rows(cube) == [[0b101, 0b100], [0b010, 0b011]]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_longest_run_matches_a_shift_per_bit(data):
    # runs of up to a few thousand bits, where doubling takes many halves back
    rng = data.draw(st.randoms(use_true_random=True), label="bits")
    x = 0
    while not x:
        for _ in range(rng.randint(1, 6)):
            start, length = rng.randrange(3000), rng.randint(1, rng.choice([3, 70, 2000]))
            x |= ((1 << length) - 1) << start
    run, y = 0, x
    while y:
        run, starts, y = run + 1, y, y & (y >> 1)
    assert _longest_run(x) == (run, starts)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_row_kernel_matches_the_stack_scan(data):
    # each row's area and box from ANDs of row ints, against the stack scan over
    # its column heights: all-zero rows, a line, one column, tall thin columns
    # and rows longer than 64 bits
    rng = data.draw(st.randoms(use_true_random=True), label="layout")
    shape = data.draw(st.sampled_from(["any", "line", "one column", "tall thin", "wide"]), label="shape")
    dims = {
        "any": lambda: (rng.randint(1, 8), rng.randint(1, 12)),
        "line": lambda: (rng.randint(1, 300),),
        "one column": lambda: (rng.randint(1, 30), 1),
        "tall thin": lambda: (rng.randint(20, 60), rng.randint(2, 4)),
        "wide": lambda: (rng.randint(1, 6), rng.randint(65, 200)),
    }[shape]()
    density = rng.choice([0.3, 0.7, 0.95, 1.0])
    zero_rows = {rng.randrange(prod(dims[:-1])) for _ in range(rng.randint(0, 2))}
    mask = [
        rng.random() < density and off // dims[-1] not in zero_rows for off in range(prod(dims))
    ]
    rows = _rows(dims, mask)
    areas = []
    for i, heights in enumerate(_heights(dims, mask)):
        expected = _row_best(heights, i, len(dims))
        area = expected[0] if expected else 0
        areas.append(area)
        assert _row_area(rows, i) == area
        if expected:
            assert _row_box(rows, i, area, len(dims)) == expected
    # the one pass down the rows that sizes every row at the start of detection
    assert _row_areas(rows) == areas


def _offset(dims, coords):
    off = 0
    for c, n in zip(coords, dims):
        off = off * n + c
    return off


def _brute_largest(dims, mask):
    """Size of the largest all-True box, by checking every box (0-based)."""
    best = 0
    intervals = [list(combinations_with_replacement(range(n), 2)) for n in dims]
    for box in product(*intervals):
        cells = product(*(range(lo, hi + 1) for lo, hi in box))
        if all(mask[_offset(dims, c)] for c in cells):
            best = max(best, prod(hi - lo + 1 for lo, hi in box))
    return best


def _draw_mask(data, max_side):
    dims = tuple(
        data.draw(st.integers(1, max_side)) for _ in range(data.draw(st.integers(1, 3)))
    )
    palette = data.draw(st.sampled_from([(True,), (True, False), (True, True, True, False)]))
    return dims, [data.draw(st.sampled_from(palette)) for _ in range(prod(dims))]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_largest_box_matches_brute_force(data):
    dims, mask = _draw_mask(data, 5)
    best = _largest_box(dims, _rows(dims, mask))
    expected = _brute_largest(dims, mask)
    if expected == 0:
        assert best is None
        return
    size, lo, hi = best
    assert size == expected == Range(lo, hi).size
    assert all(mask[_offset(dims, [c - 1 for c in cell])] for cell in Range(lo, hi).cells())


def _unpruned_best_from(dims, mask, lo):
    """``_best_from`` without pruning or row ints: every interval searches its AND of slabs."""
    n, sub = dims[0], dims[1:]
    stride = prod(sub)
    best = None
    common = [True] * stride
    for hi in range(lo, n):
        common = [a and b for a, b in zip(common, mask[hi * stride : (hi + 1) * stride])]
        if not any(common):
            return best, hi
        size, inner_lo, inner_hi = _unpruned_largest_box(sub, common)
        size *= hi - lo + 1
        if best is None or size > best[0]:
            best = (size, (lo + 1, *inner_lo), (hi + 1, *inner_hi))
    return best, n - 1


def _unpruned_largest_box(dims, mask):
    """The reference for ``_largest_box`` over a boolean mask: in 1-D and 2-D the stack
    scan of every row, above that every interval start."""
    if len(dims) <= 2:
        boxes = (_row_best(h, i, len(dims)) for i, h in enumerate(_heights(dims, mask)))
    else:
        boxes = (_unpruned_best_from(dims, mask, lo)[0] for lo in range(dims[0]))
    return max(filter(None, boxes), key=itemgetter(0), default=None)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_pruned_search_finds_the_same_box_as_the_full_one(data):
    ndim = data.draw(st.integers(3, 4))
    dims = tuple(data.draw(st.integers(1, 5 if ndim == 3 else 4)) for _ in range(ndim))
    palette = data.draw(st.sampled_from([(True,), (True, False), (True, True, True, False)]))
    mask = [data.draw(st.sampled_from(palette)) for _ in range(prod(dims))]
    # box for box, not only size: ties must still go to the same box
    rows = _rows(dims, mask)
    assert _largest_box(dims, rows) == _unpruned_largest_box(dims, mask)
    for lo in range(dims[0]):
        assert _best_from(dims, rows, lo) == _unpruned_best_from(dims, mask, lo)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_detect_rounds_claim_a_largest_uniform_box(data):
    dims, mask = _draw_mask(data, 4)
    cube = Datacube(dims, tuple(int(v) for v in mask))
    min_cells = data.draw(st.integers(1, 6))
    cs = detect_macroblocks(cube, min_cells=min_cells)
    claimed = [False] * cube.size

    def largest_unclaimed():
        return max(
            _brute_largest(dims, [not c and (v > 0) == nonnull for v, c in zip(cube.cells, claimed)])
            for nonnull in (False, True)
        )

    for m in cs.blocks:
        assert m.range.size == largest_unclaimed() >= min_cells
        for cell in m.range.cells():
            off = cube.offset(cell)
            assert not claimed[off]
            assert (cube.cells[off] > 0) == (m.kind is MacroKind.ALL_NONNULL)
            claimed[off] = True
    assert largest_unclaimed() < min_cells


def _rescan_detect(cube, min_cells):
    """Greedy detection that searches both whole masks with the reference
    ``_unpruned_largest_box`` every round."""
    masks = {
        MacroKind.ALL_NULL: [v == 0 for v in cube.cells],
        MacroKind.ALL_NONNULL: [v > 0 for v in cube.cells],
    }
    found = []
    while True:
        candidates = []
        for kind, mask in masks.items():
            box = _unpruned_largest_box(cube.dims, mask)
            if box is not None and box[0] >= min_cells:
                candidates.append((*box, kind))
        if not candidates:
            return tuple(found)
        _, lo, hi, kind = min(candidates, key=lambda c: (-c[0], c[1], c[3].value))
        found.append(MacroBlock(Range(lo, hi), kind))
        for cell in found[-1].range.cells():
            masks[kind][cube.offset(cell)] = False


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_detect_matches_full_rescan(data):
    ndim = data.draw(st.integers(1, 3))
    side = {1: 24, 2: 12, 3: 6}[ndim]
    dims = tuple(data.draw(st.integers(1, side)) for _ in range(ndim))
    if ndim == 2 and data.draw(st.booleans()):
        dims = (data.draw(st.integers(1, 4)), data.draw(st.integers(65, 80)))  # rows past 64 bits
    palette = data.draw(st.sampled_from([(0, 1), (0, 0, 0, 1), (0, 1, 1, 1)]))
    cells = [data.draw(st.sampled_from(palette)) for _ in range(prod(dims))]
    coords = list(product(*(range(n) for n in dims)))
    # structure that claims far from a box must reach: whole null lines
    # along the last axis, null slabs across the first, and a dense band
    null_cols = data.draw(st.sets(st.integers(0, dims[-1] - 1), max_size=3))
    null_slabs = data.draw(st.sets(st.integers(0, dims[0] - 1), max_size=2))
    band = sorted(data.draw(st.lists(st.integers(0, dims[0] - 1), min_size=2, max_size=2)))
    for off, c in enumerate(coords):
        if band[0] <= c[0] <= band[1]:
            cells[off] = 1 + c[-1] % 3
        if c[-1] in null_cols or c[0] in null_slabs:
            cells[off] = 0
    cube = Datacube(dims, tuple(cells))
    min_cells = data.draw(st.integers(1, 12))
    assert detect_macroblocks(cube, min_cells).blocks == _rescan_detect(cube, min_cells)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_detected_boxes_pass_the_checked_constructor(data):
    # detection builds its set without the pairwise disjointness check
    rng = data.draw(st.randoms(use_true_random=True), label="layout")
    ndim = rng.randint(1, 3)
    dims = tuple(rng.randint(1, {1: 150, 2: 70, 3: 6}[ndim]) for _ in range(ndim))
    cells = tuple(rng.choice([0, 0, 1, 2]) for _ in range(prod(dims)))
    cs = detect_macroblocks(Datacube(dims, cells), rng.randint(1, 6))
    assert ConstraintSet(cs.blocks) == cs


def test_constraints_json_round_trip(tmp_path, reference_constraints):
    path = tmp_path / "constraints.json"
    save_constraints(reference_constraints, str(path))
    assert load_constraints(str(path)) == reference_constraints
    assert constraints_from_dict(constraints_to_dict(reference_constraints)) == reference_constraints
