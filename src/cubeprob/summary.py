"""Block-compressed datacubes.

A compression factor slices every dimension with strictly increasing
boundaries; each block of the induced grid stores two aggregates,
(count of non-null cells, sum of cell values), and a summary keeps them as
two int columns in row-major block order.  Query planning later splits
an arbitrary range into the box of blocks totally contained in it, whose
aggregates come from prefix sums over the block grid, and the shell of
blocks it only partially overlaps.  ``CompressedDatacube._regions`` is the
one enumeration of that split: the inner box, and the shell as regions
whose blocks all hold the same share of their cells inside the query, each
region as slices of the row-major block columns.  Every path of the
planner reads it, and so does ``decompose``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from itertools import product as _iproduct
from math import lcm, prod
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, Sequence

from .core import Coords, Datacube, Range, _check_coords, _check_range, _check_realizable, _integers
from .core import _PrefixSums, _load_json, _offset, _trusted
from .errors import FactorError, InfeasibleError


def _naturals(values: Sequence[int], what: str) -> tuple[int, ...]:
    """``values`` as naturals under the ingest rule (no floats, no strings)."""
    try:
        return _integers(values, what, 0)
    except ValueError as exc:
        raise FactorError(str(exc)) from None


@dataclass(frozen=True)
class CompressionFactor:
    """Per-dimension boundary arrays f_q with 0 = f_q[0] < ... < f_q[m_q] = n_q."""

    boundaries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        bounds = tuple(_naturals(axis, "boundaries") for axis in self.boundaries)
        object.__setattr__(self, "boundaries", bounds)
        if not bounds:
            raise FactorError("factor needs at least one dimension")
        for axis in bounds:
            if len(axis) < 2 or axis[0] != 0:
                raise FactorError(f"boundary array must start at 0, got {axis}")
            if any(a >= b for a, b in zip(axis, axis[1:])):
                raise FactorError(f"boundaries must strictly increase, got {axis}")

    @property
    def ndim(self) -> int:
        return len(self.boundaries)

    # Cached on the instance, not fields: every query reads them.
    @cached_property
    def dims(self) -> Coords:
        """Cube dimensions the factor partitions (last boundary per axis)."""
        return tuple(axis[-1] for axis in self.boundaries)

    @cached_property
    def shape(self) -> Coords:
        """Number of blocks per dimension."""
        return tuple(len(axis) - 1 for axis in self.boundaries)

    @property
    def block_count(self) -> int:
        return prod(self.shape)

    def block_range(self, index: Sequence[int]) -> Range:
        """Cell range of block ``index`` (1-based block coordinates)."""
        _check_coords(index, self.shape, "block ", "grid")
        lo = tuple(axis[k - 1] + 1 for k, axis in zip(index, self.boundaries))
        return Range(lo, tuple(axis[k] for k, axis in zip(index, self.boundaries)))

    def block_indices(self) -> Iterator[Coords]:
        """All block indices in row-major order."""
        return _iproduct(*(range(1, m + 1) for m in self.shape))

    def block_corners(self) -> Iterator[tuple[Coords, Coords]]:
        """The ``(lo, hi)`` cell corners of every block, in ``block_indices`` order."""
        return zip(*self._corners)

    # Cached on the instance, not a field: case-3 and pmf queries read it by
    # block offset; building and loading a summary do not.
    @cached_property
    def _corners(self) -> tuple[list[Coords], list[Coords]]:
        """Every block's low cell corner, and every block's high one, in ``block_indices`` order."""
        # block k of an axis spans axis[k-1]+1..axis[k], so the corners are the
        # row-major products of the per-axis starts and ends
        los = _iproduct(*([c + 1 for c in axis[:-1]] for axis in self.boundaries))
        return list(los), list(_iproduct(*(axis[1:] for axis in self.boundaries)))

    def _sizes(self) -> Iterator[int]:
        """Every block's cell count, in ``block_indices`` order: the product of its widths."""
        return map(prod, _iproduct(*(map(sub, axis[1:], axis) for axis in self.boundaries)))

    @classmethod
    def equal_width(cls, dims: Sequence[int], blocks: Sequence[int]) -> "CompressionFactor":
        """Split each dimension into ``blocks[q]`` parts of equal width.

        Remainder cells go to the last block of the dimension.
        """
        if len(tuple(blocks)) != len(tuple(dims)):
            raise FactorError("blocks arity does not match dims arity")
        axes = []
        for n, m in zip(dims, blocks):
            if not 1 <= m <= n:
                raise FactorError(f"cannot split a dimension of length {n} into {m} blocks")
            width = n // m
            axis = [width * i for i in range(m)] + [n]
            axes.append(tuple(axis))
        return cls(tuple(axes))

    @classmethod
    def from_block_shape(cls, dims: Sequence[int], shape: Sequence[int]) -> "CompressionFactor":
        """Build boundaries from a target block cell-shape (remainder to the last block)."""
        if len(tuple(shape)) != len(tuple(dims)):
            raise FactorError("block shape arity does not match dims arity")
        axes = []
        for n, w in zip(dims, shape):
            if not 1 <= w <= n:
                raise FactorError(f"block extent {w} does not fit a dimension of length {n}")
            cuts = [c for c in range(0, n, w) if n - c >= w]
            axes.append(tuple(cuts + [n]))
        return cls(tuple(axes))


def _check_block(index: Coords, b: int, t: int, s: int) -> tuple[int, int]:
    """Block ``index``'s count t and sum s as ints, refused unless they are
    naturals that some cube gives a block of b cells."""
    t, s = _naturals((t, s), f"block {index} count and sum")
    try:
        _check_realizable(b, t, s)
    except InfeasibleError as exc:
        raise InfeasibleError(f"block {index}: {exc}") from None
    return t, s


@dataclass(frozen=True)
class BlockSummary:
    """Aggregates of a single block: t non-null cells summing to s."""

    index: Coords
    range: Range
    count: int
    sum: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", _naturals(self.index, "block index"))
        count, total = _check_block(self.index, self.range.size, self.count, self.sum)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "sum", total)

    # Cached on the instance, not a field: equality, hashing and JSON ignore it.
    @cached_property
    def size(self) -> int:
        """Total number of cells in the block."""
        return self.range.size


@dataclass(frozen=True, init=False)
class CompressedDatacube:
    """A factor plus each block's count and sum, as two columns in row-major block order.

    ``CompressedDatacube(factor, blocks)`` takes the ``BlockSummary`` of every
    block of the factor, in row-major order; ``blocks`` and ``block`` give
    them back.
    """

    factor: CompressionFactor
    counts: tuple[int, ...]
    sums: tuple[int, ...]

    def __init__(self, factor: CompressionFactor, blocks: Iterable[BlockSummary]) -> None:
        blocks = tuple(blocks)
        if [b.index for b in blocks] != list(factor.block_indices()):
            raise FactorError("block grid does not tile the factor in row-major order")
        for blk, (lo, hi) in zip(blocks, factor.block_corners()):
            if blk.range.lo != lo or blk.range.hi != hi:
                raise FactorError(f"block {blk.index} carries a range inconsistent with the factor")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "counts", tuple(b.count for b in blocks))
        object.__setattr__(self, "sums", tuple(b.sum for b in blocks))

    @property
    def dims(self) -> Coords:
        return self.factor.dims

    # Built on first read and cached on the instance; not a field, so equality,
    # hashing and JSON ignore it, and no library path reads it.
    @cached_property
    def blocks(self) -> tuple[BlockSummary, ...]:
        """Every block's checked ``BlockSummary``, in row-major order."""
        corners = map(Range, *self.factor._corners)
        return tuple(map(BlockSummary, self.factor.block_indices(), corners, self.counts, self.sums))

    def block(self, index: Sequence[int]) -> BlockSummary:
        at = _offset(index, self.factor.shape)
        # block_range refuses an index outside the grid before the columns are read
        return BlockSummary(index, self.factor.block_range(index), self.counts[at], self.sums[at])

    # Prefix sums over the block grid, built on first use and cached on the
    # instance; they are not fields, so equality, hashing and JSON ignore them.
    @cached_property
    def _counts(self) -> _PrefixSums:
        return _PrefixSums(self.counts, self.factor.shape)

    @cached_property
    def _sums(self) -> _PrefixSums:
        return _PrefixSums(self.sums, self.factor.shape)

    @cached_property
    def _columns(self) -> tuple[Sequence[int], ...]:
        """The sizes, counts and sums of the blocks, in row-major order, then each block's
        count mirrored to mu = min(t, b - t) and its b - mu (the count law's error rule)."""
        sizes = list(self.factor._sizes())
        low = [t if t + t <= b else b - t for b, t in zip(sizes, self.counts)]
        return sizes, self.counts, self.sums, low, [b - mu for b, mu in zip(sizes, low)]

    @cached_property
    def _ratio_columns(self) -> dict:
        return {}

    def _ratio_column(self, ratio: Callable[[int, int, int], tuple[int, int]]) -> tuple[list[int], int]:
        """Every block's ``ratio(size, count, sum)`` in row-major order, as integer
        numerators over their least common denominator, and that denominator.

        Built on first use for each ``ratio`` and cached on the instance, as
        ``_counts`` and ``_sums`` are.
        """
        found = self._ratio_columns.get(ratio)
        if found is None:
            parts = list(map(ratio, *self._columns[:3]))
            common = lcm(*(den for _, den in parts))
            found = self._ratio_columns[ratio] = [num * (common // den) for num, den in parts], common
        return found

    def _regions(self, query: Range) -> tuple[Coords, Coords, int, list[tuple[int, list[slice]]]]:
        """``query`` over the block grid: its inner box ``lo..hi``, one common width W,
        and each region of its shell as (c, slices).

        Each axis splits into at most three segments: its low end block, its run
        of blocks inside the query and its high end block, where an end block is
        one the query only clips.  The axis' width W_q is the product of its end
        blocks' widths, and a segment's share of it is W_q for the run and
        clip*W_q/width for an end.  A region takes one segment on every axis, and
        each of its blocks holds the share c/W of its cells inside the query,
        where c is the product of its segments' shares and W that of the W_q, so
        a block of b cells holds exactly b*c/W of them.  The region of the runs is
        the inner box (an axis with no run has ``hi == lo - 1``), with c = W, and
        is not listed; the others tile the shell.  A region's slices of the
        row-major block order run along the last axis, one per block of the
        others; a region one block wide on the last axis but not on the one
        before takes one strided slice down that axis per block of any leading
        axes.
        """
        _check_range(query, self.factor.dims)
        lo, hi, axes, whole, stride = [], [], [], 1, len(self.counts)
        for lo_q, hi_q, bounds, n in zip(query.lo, query.hi, self.factor.boundaries, self.factor.shape):
            stride //= n  # of this axis in the row-major block order
            # block k spans bounds[k-1]+1..bounds[k]: the first overlapped one ends
            # at or after lo_q, the last one starts at or before hi_q, and each
            # end block is inside the query when it starts (ends) on it
            first, last = bisect_left(bounds, lo_q), bisect_left(bounds, hi_q)
            start, stop = first + (bounds[first - 1] + 1 != lo_q), last + (bounds[last] == hi_q)
            lo.append(start)
            hi.append(max(start, stop) - 1)
            ends, common = [], 1
            for k in (first, last) if first < last else (first,):
                if not start <= k < stop:
                    low, high = bounds[k - 1] + 1, bounds[k]
                    ends.append((k, (hi_q if hi_q < high else high) - (lo_q if lo_q > low else low) + 1, high - low + 1))
                    common *= high - low + 1
            # each segment's share, first offset, number of blocks and stride
            segments = [(common, (start - 1) * stride, stop - start, stride)] if stop > start else []
            for k, clip, width in ends:
                segments.append((clip * (common // width), (k - 1) * stride, 1, stride))
            axes.append(segments)
            whole *= common
        *leads, rows, cols = [[(1, 0, 1, 1)]] * (2 - len(axes)) + axes  # a unit axis before a 1-D grid's
        regions = []
        for lead in _iproduct(*leads):  # one empty lead in 1-2 D
            # the lead's share and the offset of each of its blocks
            lead_share, starts = 1, [0]
            for share, offset, count, step in lead:
                lead_share *= share
                starts = [x + offset + i * step for x in starts for i in range(count)]
            for share0, o0, n0, row_stride in rows:
                row_share = lead_share * share0
                for share1, o1, n1, _ in cols:
                    share = row_share * share1
                    if share == whole:  # the inner box
                        continue
                    # per lead block, n0 lines along the last axis, or one down the rows
                    lines, length, step = (n0, n1, 1) if n1 > 1 or n0 == 1 else (1, (n0 - 1) * row_stride + 1, row_stride)
                    slices = []
                    for x in starts:
                        for y in range(x + o0 + o1, x + o0 + o1 + lines * row_stride, row_stride):
                            slices.append(slice(y, y + length, step))
                    regions.append((share, slices))
        return tuple(lo), tuple(hi), whole, regions

    def total_count(self) -> int:
        return sum(self.counts)

    def total_sum(self) -> int:
        return sum(self.sums)


@dataclass(frozen=True)
class RangeDecomposition:
    """Blocks totally contained in a query and clipped partial overlaps."""

    total: tuple[Coords, ...]
    partial: tuple[tuple[Coords, Range], ...]


def _block_totals(sums: _PrefixSums, boundaries: tuple[tuple[int, ...], ...]) -> list[int]:
    """Every block's total, row-major, from a cube's prefix table ``sums``.

    The block grid's own prefix table is the cube's table sampled at the
    products of the boundaries, so one gather takes it.  Differencing it along
    each axis in turn, by one C-level ``map`` over the whole grid less the
    steps that cross from one slab of the axis into the next, leaves each
    block's total.
    """
    axes = [[cut * stride for cut in axis] for axis, stride in zip(boundaries, sums.strides)]
    totals = list(itemgetter(*map(sum, _iproduct(*axes)))(sums.table))
    outer = 1  # slabs: one per block of the axes already differenced
    for axis in boundaries:
        slab = len(totals) // outer
        inner = slab // len(axis)  # one step along this axis
        steps = list(map(sub, totals[inner:], totals))
        # each slab's last step would cross into the next slab
        totals = list(chain.from_iterable(steps[o : o + slab - inner] for o in range(0, len(totals), slab)))
        outer *= len(axis) - 1
    return totals


def _from_totals(factor: CompressionFactor, counts: Sequence[int], sums: Sequence[int]) -> CompressedDatacube:
    """The summary whose blocks of ``factor``, in row-major order, hold ``counts`` and ``sums``.

    ``build_summary`` and ``summary_from_dict`` both make their summary here.
    The totals must be checked already, naturals realizable in their blocks,
    so the summary is made without its checks.
    """
    return _trusted(CompressedDatacube, factor=factor, counts=tuple(counts), sums=tuple(sums))


def build_summary(cube: Datacube, factor: CompressionFactor) -> CompressedDatacube:
    """Aggregate every block of the factor over the cube.

    Every block's count and sum come at once from the cube's prefix tables
    (see ``_block_totals``), which exact queries on the cube read as well.  A
    cube's block totals are realizable by construction.
    """
    if factor.dims != cube.dims:
        raise FactorError(f"factor partitions {factor.dims}, cube has dims {cube.dims}")
    boundaries = factor.boundaries
    return _from_totals(factor, _block_totals(cube._counts, boundaries), _block_totals(cube._sums, boundaries))


def decompose(summary: CompressedDatacube, query: Range) -> RangeDecomposition:
    """Split a query into totally-contained blocks and clipped partial blocks.

    Both lists are in row-major order.  The clipped regions together with
    the total blocks tile the query exactly.
    """
    lo, hi, _, regions = summary._regions(query)
    offsets, (los, his) = range(len(summary.counts)), summary.factor._corners
    shell = sorted(at for _, slices in regions for line in slices for at in offsets[line])
    total = _iproduct(*(range(l, h + 1) for l, h in zip(lo, hi)))
    # a block's low corner lies one past boundary k - 1 of each axis, so bisection finds its index k
    index = [tuple(map(bisect_left, summary.factor.boundaries, los[at])) for at in shell]
    partial = tuple(zip(index, (query.intersect(Range(los[at], his[at])) for at in shell)))
    return RangeDecomposition(tuple(total), partial)


# ---------------------------------------------------------------------------
# JSON persistence (lossless round trip).
# ---------------------------------------------------------------------------


def summary_to_dict(summary: CompressedDatacube) -> dict:
    return {
        "boundaries": [list(axis) for axis in summary.factor.boundaries],
        "blocks": [
            {"index": list(index), "count": t, "sum": s}
            for index, t, s in zip(summary.factor.block_indices(), summary.counts, summary.sums)
        ],
    }


def summary_from_dict(payload: dict) -> CompressedDatacube:
    """The summary ``payload`` describes, checked once and then made as a built one is.

    Every block of the factor is listed once and only those, and each holds a
    count and sum of naturals realizable in its block, checked in row-major
    order.
    """
    factor = CompressionFactor(payload["boundaries"])
    by_index: dict[Coords, dict] = {}
    for raw in payload["blocks"]:
        index = _naturals(raw["index"], "block index")
        if index in by_index:
            raise FactorError(f"summary file repeats block {index}")
        by_index[index] = raw
    totals = []
    for index, size in zip(factor.block_indices(), factor._sizes()):
        raw = by_index.pop(index, None)
        if raw is None:
            raise FactorError(f"summary file is missing block {index}")
        totals.append(_check_block(index, size, raw["count"], raw["sum"]))
    if by_index:
        raise FactorError(f"summary file has block {next(iter(by_index))} outside the {factor.shape} grid")
    return _from_totals(factor, *zip(*totals))


def save_summary(summary: CompressedDatacube, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(summary_to_dict(summary), handle)


def load_summary(path: str) -> CompressedDatacube:
    return _load_json(path, summary_from_dict, FactorError, "summary")
