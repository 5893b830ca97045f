"""Null/non-null integrity constraints over datacube regions.

Constraints are stored as disjoint axis-aligned macro-blocks declared either
entirely null or entirely non-null.  For any region D they induce two
monotone lower bounds:

* ``lb_eq0(D)``  -- at least this many cells of D are null,
* ``lb_gt0(D)``  -- at least this many cells of D are non-null,

each computed as the total overlap of D with the macro-blocks of the matching
kind.  From these, any (block, query) pair yields a four-part bound tuple
(lower/upper bound on non-nulls inside the query, and in the whole block)
that the constrained estimators consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heapify, heapreplace
from math import prod
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .core import Coords, Datacube, Range, _load_json, _trusted
from .errors import ConstraintError
from .summary import CompressedDatacube


class MacroKind(str, Enum):
    ALL_NULL = "all_null"
    ALL_NONNULL = "all_nonnull"


@dataclass(frozen=True)
class MacroBlock:
    range: Range
    kind: MacroKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", MacroKind(self.kind))


@dataclass(frozen=True)
class ConstraintSet:
    """Disjoint macro-blocks; the empty set means no information."""

    blocks: tuple[MacroBlock, ...] = ()

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                if a.range.ndim != b.range.ndim:
                    raise ConstraintError(
                        f"macro-blocks of arity {a.range.ndim} and arity {b.range.ndim} mix: {a.range} and {b.range}"
                    )
                if a.range.overlap_size(b.range):
                    raise ConstraintError(
                        f"macro-blocks overlap: {a.range} ({a.kind.value}) and {b.range} ({b.kind.value})"
                    )

    def __len__(self) -> int:
        return len(self.blocks)

    # Built on first use and cached on the instance; not a field, so equality,
    # hashing and JSON ignore it.
    @cached_property
    def _boxes(self) -> list[tuple[Coords, Coords, int]]:
        """Each macro-block as (lo, hi, kind): kind 0 for null, 1 for non-null."""
        return [(m.range.lo, m.range.hi, int(m.kind is MacroKind.ALL_NONNULL)) for m in self.blocks]


def _located(cs: ConstraintSet, lo: Coords, hi: Coords) -> tuple[int, int]:
    """(null, non-null) cells of the box ``lo..hi`` that the macro-blocks locate.

    One pass over the macro-blocks as flat boxes (``ConstraintSet._boxes``): a
    box's overlap is the product of its clipped extents, given up at the first
    disjoint axis, so a box with some ``lo > hi`` locates nothing.  Corners of
    another arity than the macro-blocks raise ``ConstraintError`` before the
    pass: zipping them would count a meaningless overlap.
    """
    boxes = cs._boxes
    if boxes and len(boxes[0][0]) != len(lo):
        m = cs.blocks[0].range
        raise ConstraintError(f"macro-block {m} has arity {m.ndim}, the range {Range(lo, hi)} has arity {len(lo)}")
    located = [0, 0]
    for m_lo, m_hi, kind in boxes:
        size = 1
        for a, b, c, d in zip(m_lo, m_hi, lo, hi):
            extent = (b if b < d else d) - (a if a > c else c) + 1
            if extent <= 0:
                break
            size *= extent
        else:
            located[kind] += size
    return tuple(located)


def lb_eq0(cs: ConstraintSet, r: Range) -> int:
    """Lower bound on the number of null cells in ``r``."""
    return _located(cs, r.lo, r.hi)[0]


def lb_gt0(cs: ConstraintSet, r: Range) -> int:
    """Lower bound on the number of non-null cells in ``r``."""
    return _located(cs, r.lo, r.hi)[1]


@dataclass(frozen=True)
class BoundTuple:
    """Constraint-derived bounds on non-null counts for a query inside a block.

    ``t_lo_in <= count(query) <= t_hi_in`` and
    ``t_lo_blk <= count(block) <= t_hi_blk`` hold in every datacube that
    satisfies the constraints; ``b_in`` and ``b_blk`` are the region sizes.
    """

    t_lo_in: int
    t_hi_in: int
    t_lo_blk: int
    t_hi_blk: int
    b_in: int
    b_blk: int

    def __post_init__(self) -> None:
        if not 0 <= self.t_lo_in <= self.t_hi_in <= self.b_in:
            raise ConstraintError(f"inconsistent in-range bounds {self}")
        if not self.t_lo_blk <= self.t_hi_blk <= self.b_blk:
            raise ConstraintError(f"inconsistent block bounds {self}")
        if self.t_lo_in > self.t_lo_blk:
            raise ConstraintError(f"in-range lower bound exceeds block lower bound {self}")
        complement = self.b_blk - self.b_in
        if not 0 <= self.t_hi_blk - self.t_hi_in <= complement:
            raise ConstraintError(f"complement upper bound outside [0..{complement}]: {self}")
        if self.t_lo_blk - self.t_lo_in > self.t_hi_blk - self.t_hi_in:
            raise ConstraintError(f"complement bounds cross: {self}")

    @property
    def t_lo_out(self) -> int:
        """Lower bound on non-nulls in the complement region (block minus query)."""
        return self.t_lo_blk - self.t_lo_in

    @property
    def t_hi_out(self) -> int:
        """Upper bound on non-nulls in the complement region."""
        return self.t_hi_blk - self.t_hi_in

    @classmethod
    def trivial(cls, b_in: int, b_blk: int) -> "BoundTuple":
        """No constraint information at all: counts range over [0..size]."""
        return cls(0, b_in, 0, b_blk, b_in, b_blk)


def bound_tuple(cs: ConstraintSet, block: Range, query: Range) -> BoundTuple:
    """Bound tuple for ``query`` inside ``block`` under the constraint set.

    :func:`_located` counts the located cells of the block and of the query:
    at least the located non-nulls and at most the cells not located null are
    non-null, in the query and in the whole block alike.
    """
    if block.ndim != query.ndim:
        raise ConstraintError(
            f"block {block} has arity {block.ndim}, the query {query} has arity {query.ndim}"
        )
    if not block.contains(query):
        raise ConstraintError(f"query {query} not inside block {block}")
    b_in = query.size
    b_blk = block.size
    null_blk, nn_blk = _located(cs, block.lo, block.hi)
    null_in, nn_in = _located(cs, query.lo, query.hi)
    return BoundTuple(
        t_lo_in=nn_in,
        t_hi_in=b_in - null_in,
        t_lo_blk=nn_blk,
        t_hi_blk=b_blk - null_blk,
        b_in=b_in,
        b_blk=b_blk,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a summary against a constraint set."""

    ok: bool
    block_index: Coords | None = None
    count: int | None = None
    count_lo: int | None = None
    count_hi: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def message(self) -> str:
        if self.ok:
            return "ok"
        return (
            f"block {self.block_index}: stored count {self.count} outside "
            f"constraint bounds [{self.count_lo}..{self.count_hi}]"
        )


def _located_columns(cs: ConstraintSet, summary: CompressedDatacube) -> list[tuple[int, int]]:
    """Each block's located (null, non-null) cells, by :func:`_located`, in row-major order."""
    return [_located(cs, lo, hi) for lo, hi in summary.factor.block_corners()]


def _check_located(summary: CompressedDatacube, located: list[tuple[int, int]]) -> ValidationReport:
    """The report on ``summary`` given its :func:`_located_columns`: every block's count
    must lie between its located non-nulls and its cells not located null."""
    for index, b, t, (null, lo) in zip(summary.factor.block_indices(), *summary._columns[:2], located):
        hi = b - null
        if not lo <= t <= hi:
            return ValidationReport(False, index, t, lo, hi)
    return ValidationReport(True)


def validate(cs: ConstraintSet, summary: CompressedDatacube) -> ValidationReport:
    """Check every block's stored count against the constraint bounds.

    Each block's count must lie between its located non-nulls and its cells
    not located null, as :func:`_located_columns` counts them.  Returns a
    report naming the first violating block instead of raising.  A
    macro-block whose arity differs from the summary's raises
    ``ConstraintError``: its overlaps with the blocks would be meaningless.
    """
    return _check_located(summary, _located_columns(cs, summary))


# ---------------------------------------------------------------------------
# Macro-block detection.
# ---------------------------------------------------------------------------


# A mask over ``dims`` is a list of row ints: one per row along the last axis,
# in row-major order of the other axes (a 1-D mask is one row), with bit j set
# when cell j + 1 of the row is available.  An AND of rows, a cell count or a
# run length is then a few big-int operations, not a step per cell.

# the digit that a cell gives each kind's mask, by the cell's non-null flag
_KIND_DIGITS = (bytes.maketrans(b"\0\1", b"10"), bytes.maketrans(b"\0\1", b"01"))


def _kind_rows(cube: Datacube) -> list[list[int]]:
    """The null and the non-null mask of ``cube``, as row ints."""
    cols = cube.dims[-1]
    masks = []
    for digits in _KIND_DIGITS:
        text = cube._flags.translate(digits)
        # int() reads the most significant digit first, so each row is reversed
        masks.append([int(text[k : k + cols][::-1], 2) for k in range(0, len(text), cols)])
    return masks


def _longest_run(x: int) -> tuple[int, int]:
    """Length of the longest runs of set bits in ``x`` > 0, and their starts as set bits.

    ``y & (y >> k)`` keeps the starts of runs of at least 2k bits from those
    of at least k.  Doubling k while some start is left, then adding the
    halves back while one stays, takes O(log run) big-int operations rather
    than one shift per bit (bit-parallel run detection).
    """
    powers = [x]  # powers[m]: the starts of runs of at least 2**m bits
    k = 1
    while longer := powers[-1] & (powers[-1] >> k):
        powers.append(longer)
        k <<= 1
    run, starts = k, powers.pop()
    for m in reversed(range(len(powers))):
        longer = starts & (powers[m] >> run)
        if longer:
            run, starts = run + (1 << m), longer
    return run, starts


def _ands(rows: list[int], i: int) -> Iterator[tuple[int, int]]:
    """Each distinct non-empty AND of rows i-h+1..i with the largest h it holds for, h rising.

    A rectangle of height h with bottom row ``i`` is a run of bits of that
    AND, which only loses bits as h grows.  An unchanged AND is not
    yielded, so a tall uniform column costs one AND per row and no run count.
    """
    acc = rows[i]
    h = 1
    while acc:
        above = acc & rows[i - h] if h <= i else 0
        if above != acc:
            yield h, acc
            acc = above
        h += 1


def _area(ands: Iterable[tuple[int, int]], height: int) -> int:
    """The largest h times the longest run of the AND over the (h, AND) pairs ``ands``,
    as :func:`_ands` yields them (0 when there are none).

    A run is measured only where h times the AND's cell count beats the best
    so far, and the scan stops once no AND left could beat it even at
    ``height``, the tallest a rectangle may be.
    """
    best = 0
    for h, acc in ands:
        count = acc.bit_count()
        if height * count <= best:
            break
        if h * count > best:
            area = h * _longest_run(acc)[0]
            if area > best:
                best = area
    return best


def _row_area(rows: list[int], i: int) -> int:
    """Area of the largest rectangle whose bottom row is row ``i``, 0 when there is none."""
    return _area(_ands(rows, i), i + 1)


def _row_areas(rows: list[int]) -> list[int]:
    """Every row's :func:`_row_area`, in one pass down the rows.

    Row i's ANDs are row i itself and row i ANDed with each AND of row
    i - 1, one taller; so a row costs one AND per distinct AND of the row
    above, not one per row that a tall column spans.
    """
    areas = []
    ands: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        above, ands = ands, []
        acc, h = row, 1
        for top, common in above:
            if not acc:
                break
            narrower = row & common
            if narrower != acc:
                ands.append((h, acc))
                acc = narrower
            h = top + 1
        if acc:
            ands.append((h, acc))
        areas.append(_area(ands, i + 1))
    return areas


def _row_box(rows: list[int], i: int, area: int, ndim: int) -> tuple[int, Coords, Coords]:
    """The rectangle of ``area``, the largest, whose bottom row is row ``i``.

    Of several, the one ending on the least column and, of those, the
    tallest: the first that a monotonic-stack scan of the row's column
    heights pops.  Returns (area, lo, hi) with 1-based corners of an
    ``ndim``-D mask (1 or 2).
    """
    corners = None
    for h, acc in _ands(rows, i):
        count = acc.bit_count()
        if (i + 1) * count < area:
            break
        if h * count < area:
            continue
        run, starts = _longest_run(acc)
        # the lowest start ends first; a taller tie on the same end replaces it
        left = (starts & -starts).bit_length()
        if h * run == area and (corners is None or left + run - 1 <= corners[3]):
            corners = (i - h + 2, left, i + 1, left + run - 1)
    top, left, bottom, right = corners
    return area, (top, left)[2 - ndim :], (bottom, right)[2 - ndim :]


def _best_from(
    dims: Sequence[int], rows: list[int], lo: int
) -> tuple[tuple[int, Coords, Coords] | None, int]:
    """Largest all-set box of an r-D mask (r >= 3) whose first axis starts at ``lo``.

    The AND of the slabs lo..hi, built up one slab at a time as row ints,
    holds the cells available across the whole interval, and its largest
    box in the remaining axes times the interval length is the best box
    spanning exactly that interval.  Returns that box (ties go to the
    smallest ``hi``) or None, and the last slab read: the one whose AND came
    out empty, or the last slab of the mask.
    """
    n, sub = dims[0], dims[1:]
    stride = prod(sub[:-1])  # rows per slab
    best = None
    common = [-1] * stride
    searched = (0, None)  # the cell count of the last AND searched, and its box
    for hi in range(lo, n):
        common = [a & b for a, b in zip(common, rows[hi * stride : (hi + 1) * stride])]
        left = sum(map(int.bit_count, common))
        if not left:
            return best, hi
        length = hi - lo + 1
        # no box of the AND beats ``best`` unless all its cells could
        if best is not None and left * length <= best[0]:
            continue
        # the AND only loses cells, so an unchanged count is an unchanged AND
        if searched[0] != left:
            searched = (left, _largest_box(sub, common))
        size, inner_lo, inner_hi = searched[1]
        size *= length
        if best is None or size > best[0]:
            best = (size, (lo + 1, *inner_lo), (hi + 1, *inner_hi))
    return best, n - 1


def _largest_box(
    dims: Sequence[int], rows: list[int]
) -> tuple[int, Coords, Coords] | None:
    """Largest axis-aligned all-set box of a mask over ``dims``, given as row ints.

    Returns (size, lo, hi) with 1-based corners, or None when the mask is
    empty.  In one and two dimensions the size is the largest of the rows'
    exact areas (:func:`_row_areas`), and only the first row holding it is
    boxed (:func:`_row_box`).  Higher arities try every start of the first
    axis (:func:`_best_from`).  Ties go to the box found first, scanning the
    bottom row or the interval start and then its end in increasing order.
    """
    if len(dims) > 2:
        boxes = (_best_from(dims, rows, lo)[0] for lo in range(dims[0]))
        # max keeps the first of equal sizes
        return max(filter(None, boxes), key=itemgetter(0), default=None)
    areas = _row_areas(rows)
    best = max(areas)
    return _row_box(rows, areas.index(best), best, len(dims)) if best else None


class _BestPerIndex:
    """One kind's best box per first-axis index, searched again only when needed.

    The kind's mask is held as row ints, and a claim clears its box's bits.
    A claim only removes cells, so the best box of an index whose cells it
    changed can only shrink: its cached size stays an upper bound, and the
    index is marked stale instead of searched again at once.  Indices start
    with exact sizes or stale under an upper bound.  A fresh index's size is
    exact, and its box is built only when a round asks for it.
    """

    def __init__(self, cube: Datacube, rows: list[int], size: list[int], stale: bool) -> None:
        self.cube, self.rows, self.size = cube, rows, size
        self.stale = [stale] * len(size)
        self.box: list[tuple[int, Coords, Coords] | None] = [None] * len(size)
        # one (-size, index) per index: the heap's first is the first largest
        self.heap = [(-s, k) for k, s in enumerate(size)]
        heapify(self.heap)

    def _search(self, k: int) -> int:
        """Index ``k``'s best size in the current mask, 0 when it has no box."""
        raise NotImplementedError

    def _box(self, k: int) -> tuple[int, Coords, Coords]:
        """Fresh index ``k``'s best box, of its size."""
        raise NotImplementedError

    def top(self, least: int) -> int | None:
        """The index whose box the full search finds first among the largest, or
        None when that size is below ``least``.

        The first index holding the largest size is the answer once it is
        fresh: every index before it, fresh or stale, is bounded below it.
        """
        heap = self.heap
        while -heap[0][0] >= least:
            k = heap[0][1]
            if not self.stale[k]:
                return k
            self.stale[k] = False
            self.box[k] = None
            self.size[k] = size = self._search(k)
            heapreplace(heap, (-size, k))
        return None

    def best(self, k: int) -> tuple[int, Coords, Coords]:
        """The box of fresh index ``k`` (with a size above 0), built on first ask."""
        if self.box[k] is None:
            self.box[k] = self._box(k)
        return self.box[k]


class _RowCache(_BestPerIndex):
    """Best rectangle per bottom row of a 1-D or 2-D mask (1-D is one row).

    A row's size is its exact area from ANDs of row ints: every row's in one
    pass down the mask to start (:func:`_row_areas`), a stale row's by its
    own walk up (:func:`_row_area`).  Only a row that wins a round is boxed
    (:func:`_row_box`).  A claim changes the rows it covers and the rows
    below it, down to the first where none of its columns is still
    available all the way up.
    """

    def __init__(self, cube: Datacube, rows: list[int]) -> None:
        super().__init__(cube, rows, _row_areas(rows), False)

    def _search(self, i: int) -> int:
        return _row_area(self.rows, i)

    def _box(self, i: int) -> tuple[int, Coords, Coords]:
        return _row_box(self.rows, i, self.size[i], self.cube.ndim)

    def claim(self, r: Range) -> None:
        (a, c), (b, d) = (1, *r.lo)[-2:], (1, *r.hi)[-2:]
        a, b = a - 1, b - 1  # 0-based rows a..b
        bits = (1 << d) - (1 << (c - 1))
        rows = self.rows
        for i in range(a, b + 1):
            rows[i] &= ~bits
        i = b + 1
        while i < len(rows) and (bits := bits & rows[i]):
            i += 1
        self.stale[a:i] = [True] * (i - a)


class _SlabCache(_BestPerIndex):
    """Best box per first-axis start of an r-D mask (r >= 3), from :func:`_best_from`.

    Each start remembers the last slab its AND read (its reach), so a claim
    over first-axis slabs a..b changes exactly the starts ``lo <= b`` with
    reach ``>= a``.  A stale start's reach can only have shrunk.
    """

    def __init__(self, cube: Datacube, rows: list[int]) -> None:
        super().__init__(cube, rows, [cube.size] * cube.dims[0], True)
        self.reach = [cube.dims[0] - 1] * cube.dims[0]

    def _search(self, lo: int) -> int:
        box, self.reach[lo] = _best_from(self.cube.dims, self.rows, lo)
        self.box[lo] = box
        return box[0] if box else 0

    def claim(self, r: Range) -> None:
        keep = ~((1 << r.hi[-1]) - (1 << (r.lo[-1] - 1)))
        cols = self.cube.dims[-1]
        for run in self.cube.runs(r):
            self.rows[run.start // cols] &= keep
        a, b = r.lo[0] - 1, r.hi[0] - 1
        for lo in range(b + 1):
            if self.reach[lo] >= a:
                self.stale[lo] = True


def detect_macroblocks(cube: Datacube, min_cells: int = 20) -> ConstraintSet:
    """Extract disjoint uniform macro-blocks of at least ``min_cells`` cells.

    Greedy largest-first: each round finds the largest axis-aligned box of
    unclaimed cells that is uniformly null or uniformly non-null, claims it,
    and repeats until no box reaches ``min_cells``.  Every arity uses the
    same exact search as :func:`_largest_box`, over each kind's mask as row
    ints, kept per kind as the best size of each first-axis index (each
    bottom row in 1-D and 2-D, each interval start above).  A claim marks
    stale only the indices whose cells it changed, and a stale index is
    searched again only when its old size, an upper bound, is the largest
    left.  In 1-D and 2-D a row's size comes from ANDs of rows, and only the
    row that wins a round is boxed.  Within a kind a tie goes to the box the
    full search finds first; between kinds, to the smaller lower corner.
    The boxes are disjoint by construction, so the result skips the
    pairwise check; it is deterministic and always consistent with the cube.
    """
    if min_cells < 1:
        raise ConstraintError(f"min_cells must be >= 1, got {min_cells}")
    cache = _RowCache if cube.ndim <= 2 else _SlabCache
    kinds = (MacroKind.ALL_NULL, MacroKind.ALL_NONNULL)
    caches = [(kind, cache(cube, rows)) for kind, rows in zip(kinds, _kind_rows(cube))]
    found: list[MacroBlock] = []
    for _ in range(cube.size):  # every round claims at least one cell
        tops = [
            (kept.size[k], k, kind, kept)
            for kind, kept in caches
            if (k := kept.top(min_cells)) is not None
        ]
        if not tops:
            break
        largest = max(t[0] for t in tops)
        # only a largest box is built; kinds cannot tie on the lower corner,
        # whose cell has only one kind
        _, lo, hi, kind, kept = min(
            ((*kept.best(k), kind, kept) for size, k, kind, kept in tops if size == largest),
            key=itemgetter(1),
        )
        found.append(MacroBlock(Range(lo, hi), kind))
        # the box is uniform, so only its own kind's cache holds its cells
        kept.claim(found[-1].range)
    return _trusted(ConstraintSet, blocks=tuple(found))


# ---------------------------------------------------------------------------
# JSON persistence.
# ---------------------------------------------------------------------------


def constraints_to_dict(cs: ConstraintSet) -> dict:
    return {
        "macro_blocks": [
            {"lo": list(m.range.lo), "hi": list(m.range.hi), "kind": m.kind.value}
            for m in cs.blocks
        ]
    }


def constraints_from_dict(payload: dict) -> ConstraintSet:
    blocks = tuple(
        MacroBlock(Range(tuple(raw["lo"]), tuple(raw["hi"])), MacroKind(raw["kind"]))
        for raw in payload["macro_blocks"]
    )
    return ConstraintSet(blocks)


def save_constraints(cs: ConstraintSet, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(constraints_to_dict(cs), handle)


def load_constraints(path: str) -> ConstraintSet:
    return _load_json(path, constraints_from_dict, ConstraintError, "constraints")
