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
from math import prod
from typing import Sequence

from .core import Coords, Datacube, Range
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
                if a.range.intersect(b.range) is not None:
                    raise ConstraintError(
                        f"macro-blocks overlap: {a.range} ({a.kind.value}) and {b.range} ({b.kind.value})"
                    )

    def __len__(self) -> int:
        return len(self.blocks)


def _located(cs: ConstraintSet, r: Range) -> tuple[int, int]:
    """(null, non-null) cells of ``r`` that the macro-blocks locate.

    A range of another arity than the macro-blocks raises
    ``ConstraintError``: ``Range.intersect`` would zip the corners and
    count a meaningless overlap.
    """
    if cs.blocks and cs.blocks[0].range.ndim != r.ndim:
        m = cs.blocks[0].range
        raise ConstraintError(f"macro-block {m} has arity {m.ndim}, the range {r} has arity {r.ndim}")
    null = nonnull = 0
    for m in cs.blocks:
        if m.kind is MacroKind.ALL_NULL:
            null += m.range.overlap_size(r)
        else:
            nonnull += m.range.overlap_size(r)
    return null, nonnull


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

    The block-level bounds add the complement region's bounds to the in-range
    ones, where the complement (block minus query) overlap of each macro-block
    is its overlap with the block minus its overlap with the query.
    """
    if not block.contains(query):
        raise ConstraintError(f"query {query} not inside block {block}")
    b_in = query.size
    b_blk = block.size
    null_in, nn_in = _located(cs, query)
    null_blk, nn_blk = _located(cs, block)
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

    Returns a report naming the first violating block instead of raising.
    A macro-block whose arity differs from the summary's raises
    ``ConstraintError``: its overlaps with the blocks would be meaningless.
    """
    for blk in summary.blocks:
        null, lo = _located(cs, blk.range)
        hi = blk.size - null
        if not lo <= blk.count <= hi:
            return ValidationReport(False, blk.index, blk.count, lo, hi)
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# Macro-block detection.
# ---------------------------------------------------------------------------


def _largest_uniform_rectangle(
    rows: int, cols: int, available: list[bool]
) -> tuple[int, tuple[int, int], tuple[int, int]] | None:
    """Largest axis-aligned all-available rectangle in a rows x cols mask.

    Histogram-of-heights with a monotonic stack, O(rows*cols).  Returns
    (area, lo, hi) with 1-based corners, or None when nothing is available.
    Ties resolve to the rectangle found first in row-major scan order.
    """
    best: tuple[int, tuple[int, int], tuple[int, int]] | None = None
    heights = [0] * cols
    for i in range(rows):
        base = i * cols
        for j in range(cols):
            heights[j] = heights[j] + 1 if available[base + j] else 0
        stack: list[int] = []  # column indices with increasing heights
        j = 0
        while j <= cols:
            height = heights[j] if j < cols else 0
            if not stack or heights[stack[-1]] <= height:
                stack.append(j)
                j += 1
                continue
            top = stack.pop()
            h = heights[top]
            left = stack[-1] + 1 if stack else 0
            area = h * (j - left)
            if h and (best is None or area > best[0]):
                best = (area, (i - h + 2, left + 1), (i + 1, j))
    return best


def _largest_box(
    dims: Sequence[int], mask: list[bool]
) -> tuple[int, Coords, Coords] | None:
    """Largest axis-aligned all-True box in a row-major mask over ``dims``.

    Returns (size, lo, hi) with 1-based corners, or None when the mask is
    empty.  Two dimensions are the largest-rectangle search; one dimension
    is a single row of it.  Higher arities try every interval of the first
    axis: the AND of its slabs, built up one slab at a time, holds the
    cells available across the whole interval, and its largest box in the
    remaining axes times the interval length is the best box spanning
    exactly that interval.  Ties go to the box found first, scanning the
    interval start and then its end in increasing order.
    """
    if len(dims) == 2:
        return _largest_uniform_rectangle(dims[0], dims[1], mask)
    if len(dims) == 1:
        best = _largest_uniform_rectangle(1, dims[0], mask)
        return None if best is None else (best[0], best[1][1:], best[2][1:])
    n, sub = dims[0], dims[1:]
    stride = prod(sub)
    best = None
    for lo in range(n):
        common = [True] * stride
        for hi in range(lo, n):
            slab = mask[hi * stride : (hi + 1) * stride]
            common = [a and b for a, b in zip(common, slab)]
            if not any(common):
                break
            size, inner_lo, inner_hi = _largest_box(sub, common)
            size *= hi - lo + 1
            if best is None or size > best[0]:
                best = (size, (lo + 1, *inner_lo), (hi + 1, *inner_hi))
    return best


def detect_macroblocks(cube: Datacube, min_cells: int = 20) -> ConstraintSet:
    """Extract disjoint uniform macro-blocks of at least ``min_cells`` cells.

    Greedy largest-first: each round finds the largest axis-aligned box of
    unclaimed cells that is uniformly null or uniformly non-null, claims it,
    and repeats until no box reaches ``min_cells``.  Every arity uses the
    same exact search (:func:`_largest_box`), once per kind and round; a tie
    in size goes to the box with the smaller lower corner.  The result is
    deterministic and always consistent with the cube.
    """
    if min_cells < 1:
        raise ConstraintError(f"min_cells must be >= 1, got {min_cells}")
    dims = cube.dims
    masks = {
        MacroKind.ALL_NULL: [v == 0 for v in cube.cells],
        MacroKind.ALL_NONNULL: [v > 0 for v in cube.cells],
    }
    found: list[MacroBlock] = []
    while True:
        candidates = []
        for kind, mask in masks.items():
            box = _largest_box(dims, mask)
            if box is not None and box[0] >= min_cells:
                candidates.append((*box, kind))
        if not candidates:
            break
        # kinds cannot tie on the lower corner: its cell has only one kind
        _, lo, hi, kind = min(candidates, key=lambda c: (-c[0], c[1], c[3].value))
        found.append(MacroBlock(Range(lo, hi), kind))
        # the box is uniform, so only its own kind's mask holds its cells
        mask = masks[kind]
        for run in cube.runs(found[-1].range):
            mask[run] = [False] * (run.stop - run.start)
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
        for raw in payload.get("macro_blocks", [])
    )
    return ConstraintSet(blocks)


def save_constraints(cs: ConstraintSet, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(constraints_to_dict(cs), handle)


def load_constraints(path: str) -> ConstraintSet:
    with open(path) as handle:
        payload = json.load(handle)
    try:
        return constraints_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstraintError(f"malformed constraints file {path}: {exc}")
