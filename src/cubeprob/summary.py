"""Block-compressed datacubes.

A compression factor slices every dimension with strictly increasing
boundaries; each block of the induced grid stores two aggregates,
(count of non-null cells, sum of cell values), and a summary keeps them as
two int columns in row-major block order.  Query planning later splits
an arbitrary range into the box of blocks totally contained in it, whose
aggregates come from prefix sums over the block grid, and the shell of
blocks it only partially overlaps.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from itertools import product as _iproduct
from math import lcm, prod
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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


class _Split(NamedTuple):
    """A query over the block grid, block by block: case 3 and pmfs read it so.

    ``lo..hi`` is the box of block indices totally inside the query (an axis
    with ``hi == lo - 1`` leaves it empty); ``shell`` holds the row-major
    offset of every other overlapped block, in row-major order, by which the
    summary's columns and the factor's corners are read.  Each row of the
    overlapped box along the last axis is one run of offsets; a row whose
    leading indices all lie inside the inner box leaves out its inner run.
    Cases 1-2 read the same shell in one walk instead (see the planner).
    """

    lo: Coords
    hi: Coords
    shell: tuple[int, ...]


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
        return self._grid_sums(self.counts)

    @cached_property
    def _sums(self) -> _PrefixSums:
        return self._grid_sums(self.sums)

    def _grid_sums(self, values: Sequence[int]) -> _PrefixSums:
        """Prefix sums of ``values`` over the block grid.

        A 1-D table is followed by as many zeros as it has entries, which the
        planner's shell walk reads as the low end of a unit axis before it.
        """
        sums = _PrefixSums(values, self.factor.shape)
        if self.factor.ndim == 1:
            sums.table.extend(repeat(0, len(sums.table)))
        return sums

    @cached_property
    def _columns(self) -> tuple[Sequence[int], ...]:
        """The sizes, counts and sums of the blocks, in row-major order, then each block's
        count mirrored to mu = min(t, b - t) and its b - mu (the count law's error rule)."""
        sizes = list(self.factor._sizes())
        low = [t if t + t <= b else b - t for b, t in zip(sizes, self.counts)]
        return sizes, self.counts, self.sums, low, [b - mu for b, mu in zip(sizes, low)]

    @cached_property
    def _ratio_tables(self) -> dict:
        return {}

    def _prefix_ratios(self, ratio: Callable[[int, int, int], tuple[int, int]]) -> tuple[_PrefixSums, int]:
        """Prefix sums of ``ratio(size, count, sum)`` over the block grid, and their denominator.

        Each block's ratio is kept as an integer numerator over the least
        common denominator of them all.  Built on first use for each
        ``ratio`` and cached on the instance, as ``_counts`` and ``_sums`` are.
        """
        found = self._ratio_tables.get(ratio)
        if found is None:
            parts = list(map(ratio, *self._columns[:3]))
            common = lcm(*(den for _, den in parts))
            table = self._grid_sums([num * (common // den) for num, den in parts])
            found = self._ratio_tables[ratio] = table, common
        return found

    def _cuts(self, query: Range) -> list[tuple[int, int, int, int]]:
        """Per axis of ``query``: its first and last overlapped block, and the
        start and stop of the blocks inside it (stop <= start: none)."""
        _check_range(query, self.factor.dims)
        cuts = []
        for lo_q, hi_q, axis in zip(query.lo, query.hi, self.factor.boundaries):
            # block k spans axis[k-1]+1..axis[k]: the first overlapped one ends
            # at or after lo_q, the last one starts at or before hi_q, and
            # each end block is inside the query when it starts (ends) on it
            first, last = bisect_left(axis, lo_q), bisect_left(axis, hi_q)
            cuts.append((first, last, first + (axis[first - 1] + 1 != lo_q), last + (axis[last] == hi_q)))
        return cuts

    def _split(self, query: Range) -> _Split:
        """The inner box and the partial shell of ``query`` (see ``_Split``)."""
        runs, inner = [], []
        for first, last, start, stop in self._cuts(query):
            runs.append(range(first, last + 1))
            inner.append(range(start, max(start, stop)))
        shape, shell = self.factor.shape, []
        *heads, row = runs
        cut_lo, cut_hi = inner[-1].start - row.start, inner[-1].stop - row.start
        for lead in _iproduct(*heads):
            base = _offset((*lead, row.start), shape)
            end = base + len(row)
            if all(k in axis for k, axis in zip(lead, inner)):
                shell += [*range(base, base + cut_lo), *range(base + cut_hi, end)]
            else:
                shell += range(base, end)
        return _Split(tuple(k.start for k in inner), tuple(k.stop - 1 for k in inner), tuple(shell))

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
    split, (los, his) = summary._split(query), summary.factor._corners
    total = _iproduct(*(range(l, h + 1) for l, h in zip(split.lo, split.hi)))
    # a block's low corner lies one past boundary k - 1 of each axis, so bisection finds its index k
    index = [tuple(map(bisect_left, summary.factor.boundaries, los[at])) for at in split.shell]
    partial = tuple(zip(index, (query.intersect(Range(los[at], his[at])) for at in split.shell)))
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
