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
from math import prod
from operator import itemgetter
from typing import Iterator, Sequence

from .core import Coords, Datacube, Range, _load_json
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


def _located(cs: ConstraintSet, r: Range, within: Range | None = None) -> tuple[int, int, int, int]:
    """(null, non-null) cells of ``r`` that the macro-blocks locate, then the same two
    counts for the cells of ``r`` inside ``within`` (0 and 0 without it).

    One pass over the macro-blocks as flat boxes (``ConstraintSet._boxes``): a
    box's overlap with ``r`` is the product of its clipped extents, given up at
    the first disjoint axis, and only a box that meets ``r`` is clipped to
    ``r``'s intersection with ``within`` too.  A range of another arity than the
    macro-blocks raises ``ConstraintError`` before the pass: zipping the corners
    would count a meaningless overlap.
    """
    boxes = cs._boxes
    if boxes and len(boxes[0][0]) != r.ndim:
        m = cs.blocks[0].range
        raise ConstraintError(f"macro-block {m} has arity {m.ndim}, the range {r} has arity {r.ndim}")
    r_lo, r_hi = r.lo, r.hi
    clip = None
    if within is not None:
        # an empty intersection has some lo > hi, where every box's extent is <= 0
        clip = (
            [a if a > b else b for a, b in zip(r_lo, within.lo)],
            [a if a < b else b for a, b in zip(r_hi, within.hi)],
        )
    located = [0, 0, 0, 0]  # null and non-null in r, then inside within
    for lo, hi, kind in boxes:
        size = 1
        for a, b, c, d in zip(lo, hi, r_lo, r_hi):
            extent = (b if b < d else d) - (a if a > c else c) + 1
            if extent <= 0:
                break
            size *= extent
        else:
            located[kind] += size
            if clip is not None:
                size = 1
                for a, b, c, d in zip(lo, hi, *clip):
                    extent = (b if b < d else d) - (a if a > c else c) + 1
                    if extent <= 0:
                        break
                    size *= extent
                else:
                    located[kind + 2] += size
    return tuple(located)


def lb_eq0(cs: ConstraintSet, r: Range) -> int:
    """Lower bound on the number of null cells in ``r``."""
    return _located(cs, r)[0]


def lb_gt0(cs: ConstraintSet, r: Range) -> int:
    """Lower bound on the number of non-null cells in ``r``."""
    return _located(cs, r)[1]


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

    One pass of :func:`_located` counts the located cells of the block and of
    the query: at least the located non-nulls and at most the cells not
    located null are non-null, in the query and in the whole block alike.
    """
    if block.ndim != query.ndim:
        raise ConstraintError(
            f"block {block} has arity {block.ndim}, the query {query} has arity {query.ndim}"
        )
    if not block.contains(query):
        raise ConstraintError(f"query {query} not inside block {block}")
    b_in = query.size
    b_blk = block.size
    null_blk, nn_blk, null_in, nn_in = _located(cs, block, query)
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


def validate(cs: ConstraintSet, summary: CompressedDatacube) -> ValidationReport:
    """Check every block's stored count against the constraint bounds.

    Each block takes one pass of :func:`_located` over the macro-blocks: its
    count must lie between its located non-nulls and its cells not located
    null.  Returns a report naming the first violating block instead of
    raising.  A macro-block whose arity differs from the summary's raises
    ``ConstraintError``: its overlaps with the blocks would be meaningless.
    """
    for blk in summary.blocks:
        null, lo, _, _ = _located(cs, blk.range)
        hi = blk.size - null
        if not lo <= blk.count <= hi:
            return ValidationReport(False, blk.index, blk.count, lo, hi)
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# Macro-block detection.
# ---------------------------------------------------------------------------


def _heights(dims: Sequence[int], mask: list[bool]) -> Iterator[list[int]]:
    """Column heights of each row of a 1-D or 2-D mask: the available cells ending there."""
    rows, cols = (1, *dims)[-2:]
    prev = [0] * cols
    for i in range(rows):
        base = i * cols
        prev = [h + 1 if mask[base + j] else 0 for j, h in enumerate(prev)]
        yield prev


def _row_best(heights: list[int], i: int, ndim: int) -> tuple[int, Coords, Coords] | None:
    """Largest rectangle whose bottom row is row ``i`` (0-based), given its column heights.

    Monotonic stack over the histogram, O(len(heights)).  Returns (area, lo,
    hi) with 1-based corners of an ``ndim``-D mask (1 or 2), or None when
    every height is 0.  Ties resolve to the rectangle popped first.
    """
    best = 0
    cols = len(heights)
    stack: list[int] = []  # column indices with increasing heights
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


def _best_from(
    dims: Sequence[int], mask: list[bool], lo: int
) -> tuple[tuple[int, Coords, Coords] | None, int]:
    """Largest all-True box of an r-D mask (r >= 2) whose first axis starts at ``lo``.

    The AND of the slabs lo..hi, built up one slab at a time, holds the
    cells available across the whole interval, and its largest box in the
    remaining axes times the interval length is the best box spanning
    exactly that interval.  Returns that box (ties go to the smallest
    ``hi``) or None, and the last slab read: the one whose AND came out
    empty, or the last slab of the mask.
    """
    n, sub = dims[0], dims[1:]
    stride = prod(sub)
    best = None
    common = [True] * stride
    searched = (0, None)  # the cell count of the last AND searched, and its box
    for hi in range(lo, n):
        slab = mask[hi * stride : (hi + 1) * stride]
        common = [a and b for a, b in zip(common, slab)]
        left = sum(common)
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
    dims: Sequence[int], mask: list[bool]
) -> tuple[int, Coords, Coords] | None:
    """Largest axis-aligned all-True box in a row-major mask over ``dims``.

    Returns (size, lo, hi) with 1-based corners, or None when the mask is
    empty.  Two dimensions are the largest-rectangle search over each
    bottom row; one dimension is a single row of it.  Higher arities try
    every start of the first axis (:func:`_best_from`).  Ties go to the box
    found first, scanning the bottom row or the interval start and then its
    end in increasing order.
    """
    if len(dims) > 2:
        boxes = (_best_from(dims, mask, lo)[0] for lo in range(dims[0]))
    else:
        boxes = (_row_best(h, i, len(dims)) for i, h in enumerate(_heights(dims, mask)))
    # max keeps the first of equal sizes
    return max(filter(None, boxes), key=itemgetter(0), default=None)


class _BestPerIndex:
    """One kind's best box per first-axis index, searched again only when needed.

    A claim only removes cells, so the best box of an index whose cells it
    changed can only shrink: its cached size stays an upper bound, and the
    index is marked stale instead of searched again at once.  Every index
    starts stale, bounded by the cube's size.
    """

    def __init__(self, n: int, bound: int) -> None:
        self.size = [bound] * n
        self.box: list[tuple[int, Coords, Coords] | None] = [None] * n
        self.stale = [True] * n

    def _search(self, k: int) -> tuple[int, Coords, Coords] | None:
        """Index ``k``'s best box in the current mask, or None."""
        raise NotImplementedError

    def top(self, least: int) -> tuple[int, Coords, Coords] | None:
        """The box the full search finds first among the largest, or None below ``least``.

        The first index holding the largest size is the answer once it is
        fresh: every index before it, fresh or stale, is bounded below it.
        """
        size = self.size
        while True:
            best = max(size)
            if best < least:
                return None
            k = size.index(best)
            if not self.stale[k]:
                return self.box[k]
            self.stale[k] = False
            self.box[k] = box = self._search(k)
            size[k] = box[0] if box else 0


class _RowCache(_BestPerIndex):
    """Best rectangle per bottom row of a 1-D or 2-D mask (1-D is one row).

    Column heights stand in for the mask (height > 0 means available).  A
    claim changes only the heights in its own columns, from its top row
    down to where each column's run of available cells ends.
    """

    def __init__(self, cube: Datacube, mask: list[bool]) -> None:
        self.heights = list(_heights(cube.dims, mask))
        self.ndim = cube.ndim
        super().__init__(len(self.heights), cube.size)

    def _search(self, i: int) -> tuple[int, Coords, Coords] | None:
        return _row_best(self.heights[i], i, self.ndim)

    def claim(self, r: Range) -> None:
        (a, c), (b, d) = (1, *r.lo)[-2:], (1, *r.hi)[-2:]
        a, b, c = a - 1, b - 1, c - 1  # 0-based rows a..b, columns c..d-1
        zeros = [0] * (d - c)
        for i in range(a, b + 1):
            self.heights[i][c:d] = zeros
        # below the box each column's height now counts from row b + 1,
        # down to the first unavailable cell, where it resets as before
        active = range(c, d)
        i = b + 1
        while i < len(self.heights):
            row = self.heights[i]
            active = [j for j in active if row[j]]
            if not active:
                break
            for j in active:
                row[j] = i - b
            i += 1
        self.stale[a:i] = [True] * (i - a)


class _SlabCache(_BestPerIndex):
    """Best box per first-axis start of an r-D mask (r >= 3).

    Each start remembers the last slab its AND read (its reach), so a claim
    over first-axis slabs a..b changes exactly the starts ``lo <= b`` with
    reach ``>= a``.  A stale start's reach can only have shrunk.
    """

    def __init__(self, cube: Datacube, mask: list[bool]) -> None:
        super().__init__(cube.dims[0], cube.size)
        self.cube, self.mask = cube, mask
        self.reach = [cube.dims[0] - 1] * cube.dims[0]

    def _search(self, lo: int) -> tuple[int, Coords, Coords] | None:
        box, self.reach[lo] = _best_from(self.cube.dims, self.mask, lo)
        return box

    def claim(self, r: Range) -> None:
        for run in self.cube.runs(r):
            self.mask[run] = [False] * (run.stop - run.start)
        a, b = r.lo[0] - 1, r.hi[0] - 1
        for lo in range(b + 1):
            if self.reach[lo] >= a:
                self.stale[lo] = True


def detect_macroblocks(cube: Datacube, min_cells: int = 20) -> ConstraintSet:
    """Extract disjoint uniform macro-blocks of at least ``min_cells`` cells.

    Greedy largest-first: each round finds the largest axis-aligned box of
    unclaimed cells that is uniformly null or uniformly non-null, claims it,
    and repeats until no box reaches ``min_cells``.  Every arity uses the
    same exact search as :func:`_largest_box`, kept per kind as the best box
    of each first-axis index (each bottom row in 1-D and 2-D, each interval
    start above).  A claim marks stale only the indices whose cells it
    changed, and a stale index is searched again only when its old size, an
    upper bound, is the largest left.  Within a kind a tie goes to the box
    the full search finds first; between kinds, to the smaller lower corner.
    The result is deterministic and always consistent with the cube.
    """
    if min_cells < 1:
        raise ConstraintError(f"min_cells must be >= 1, got {min_cells}")
    cache = _RowCache if cube.ndim <= 2 else _SlabCache
    caches = {
        MacroKind.ALL_NULL: cache(cube, [v == 0 for v in cube.cells]),
        MacroKind.ALL_NONNULL: cache(cube, [v > 0 for v in cube.cells]),
    }
    found: list[MacroBlock] = []
    for _ in range(cube.size):  # every round claims at least one cell
        candidates = []
        for kind, kept in caches.items():
            box = kept.top(min_cells)
            if box is not None:
                candidates.append((*box, kind))
        if not candidates:
            break
        # kinds cannot tie on the lower corner: its cell has only one kind
        _, lo, hi, kind = min(candidates, key=lambda c: (-c[0], c[1], c[3].value))
        found.append(MacroBlock(Range(lo, hi), kind))
        # the box is uniform, so only its own kind's cache holds its cells
        caches[kind].claim(found[-1].range)
    return ConstraintSet(tuple(found))


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
