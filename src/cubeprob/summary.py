"""Block-compressed datacubes.

A compression factor slices every dimension with strictly increasing
boundaries; each block of the induced grid stores two aggregates,
(count of non-null cells, sum of cell values).  Query planning later splits
an arbitrary range into the box of blocks totally contained in it, whose
aggregates come from prefix sums over the block grid, and the shell of
blocks it only partially overlaps.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iproduct
from math import prod
from typing import Iterator, NamedTuple, Sequence

from .core import Coords, Datacube, Range, _check_realizable, _integers, _load_json, _offset
from .core import _PrefixSums, count_exact, sum_exact
from .errors import FactorError, InfeasibleError, OutOfBoundsError


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

    @property
    def dims(self) -> Coords:
        """Cube dimensions the factor partitions (last boundary per axis)."""
        return tuple(axis[-1] for axis in self.boundaries)

    @property
    def shape(self) -> Coords:
        """Number of blocks per dimension."""
        return tuple(len(axis) - 1 for axis in self.boundaries)

    @property
    def block_count(self) -> int:
        return prod(self.shape)

    def block_range(self, index: Sequence[int]) -> Range:
        """Cell range of block ``index`` (1-based block coordinates)."""
        lo = []
        hi = []
        for k, axis in zip(index, self.boundaries):
            if not 1 <= k <= len(axis) - 1:
                raise OutOfBoundsError(f"block index {tuple(index)} outside grid {self.shape}")
            lo.append(axis[k - 1] + 1)
            hi.append(axis[k])
        return Range(tuple(lo), tuple(hi))

    def block_indices(self) -> Iterator[Coords]:
        """All block indices in row-major order."""
        return _iproduct(*(range(1, m + 1) for m in self.shape))

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


@dataclass(frozen=True)
class BlockSummary:
    """Aggregates of a single block: t non-null cells summing to s."""

    index: Coords
    range: Range
    count: int
    sum: int

    def __post_init__(self) -> None:
        try:
            _check_realizable(self.range.size, self.count, self.sum)
        except InfeasibleError as exc:
            raise InfeasibleError(f"block {self.index}: {exc}") from None

    @property
    def size(self) -> int:
        """Total number of cells in the block."""
        return self.range.size


class _Split(NamedTuple):
    """A query over the block grid.

    ``lo..hi`` is the box of block indices totally inside the query (an axis
    with ``hi == lo - 1`` leaves it empty); ``shell`` holds every other
    overlapped block as ``(index, summary)``, in row-major order.
    """

    lo: Coords
    hi: Coords
    shell: tuple[tuple[Coords, BlockSummary], ...]


def _shell(runs: Sequence[range], inner: Sequence[range]) -> Iterator[Coords]:
    """Indices of ``product(*runs)`` outside ``product(*inner)``, row-major."""
    if not runs:
        return
    for k in runs[0]:
        tails = _shell(runs[1:], inner[1:]) if k in inner[0] else _iproduct(*runs[1:])
        for tail in tails:
            yield (k, *tail)


@dataclass(frozen=True)
class CompressedDatacube:
    """A factor plus the dense grid of block summaries (row-major)."""

    factor: CompressionFactor
    blocks: tuple[BlockSummary, ...]

    def __post_init__(self) -> None:
        factor = self.factor
        if [b.index for b in self.blocks] != list(factor.block_indices()):
            raise FactorError("block grid does not tile the factor in row-major order")
        # block k of an axis spans axis[k-1]+1..axis[k]: the corners of every
        # block, row-major, are the products of the per-axis starts and ends
        los = _iproduct(*([c + 1 for c in axis[:-1]] for axis in factor.boundaries))
        his = _iproduct(*(axis[1:] for axis in factor.boundaries))
        for blk, lo, hi in zip(self.blocks, los, his):
            if blk.range.lo != lo or blk.range.hi != hi:
                raise FactorError(f"block {blk.index} carries a range inconsistent with the factor")

    @property
    def dims(self) -> Coords:
        return self.factor.dims

    def block(self, index: Sequence[int]) -> BlockSummary:
        off = 0
        for k, m in zip(index, self.factor.shape):
            if not 1 <= k <= m:
                raise OutOfBoundsError(f"block index {tuple(index)} outside grid {self.factor.shape}")
            off = off * m + (k - 1)
        return self.blocks[off]

    # Prefix sums over the block grid, built on first use and cached on the
    # instance; they are not fields, so equality, hashing and JSON ignore them.
    @cached_property
    def _counts(self) -> _PrefixSums:
        return _PrefixSums([b.count for b in self.blocks], self.factor.shape)

    @cached_property
    def _sums(self) -> _PrefixSums:
        return _PrefixSums([b.sum for b in self.blocks], self.factor.shape)

    def _split(self, query: Range) -> _Split:
        """The inner box and the partial shell of ``query`` (see ``_Split``)."""
        factor = self.factor
        if query.ndim != factor.ndim:
            raise OutOfBoundsError(f"query arity {query.ndim} does not match cube arity {factor.ndim}")
        for hi_q, n in zip(query.hi, factor.dims):
            if hi_q > n:
                raise OutOfBoundsError(f"query {query} outside cube dims {factor.dims}")
        runs, inner = [], []
        for lo_q, hi_q, axis in zip(query.lo, query.hi, factor.boundaries):
            # block k spans axis[k-1]+1..axis[k]: the first overlapped one ends
            # at or after lo_q, the last one starts at or before hi_q, and
            # each end block is inside the query when it starts (ends) on it
            first, last = bisect_left(axis, lo_q), bisect_left(axis, hi_q)
            start = first + (axis[first - 1] + 1 != lo_q)
            stop = last + (axis[last] == hi_q)
            runs.append(range(first, last + 1))
            inner.append(range(start, max(start, stop)))
        shape, blocks = factor.shape, self.blocks
        shell = tuple((index, blocks[_offset(index, shape)]) for index in _shell(runs, inner))
        return _Split(
            tuple(k.start for k in inner), tuple(k.stop - 1 for k in inner), shell
        )

    def total_count(self) -> int:
        return sum(b.count for b in self.blocks)

    def total_sum(self) -> int:
        return sum(b.sum for b in self.blocks)


@dataclass(frozen=True)
class RangeDecomposition:
    """Blocks totally contained in a query and clipped partial overlaps."""

    total: tuple[Coords, ...]
    partial: tuple[tuple[Coords, Range], ...]


def build_summary(cube: Datacube, factor: CompressionFactor) -> CompressedDatacube:
    """Aggregate every block of the factor over the cube."""
    if factor.dims != cube.dims:
        raise FactorError(f"factor partitions {factor.dims}, cube has dims {cube.dims}")
    blocks = []
    for index in factor.block_indices():
        r = factor.block_range(index)
        blocks.append(BlockSummary(index, r, count_exact(cube, r), sum_exact(cube, r)))
    return CompressedDatacube(factor, tuple(blocks))


def decompose(summary: CompressedDatacube, query: Range) -> RangeDecomposition:
    """Split a query into totally-contained blocks and clipped partial blocks.

    Both lists are in row-major order.  The clipped regions together with
    the total blocks tile the query exactly.
    """
    split = summary._split(query)
    total = _iproduct(*(range(l, h + 1) for l, h in zip(split.lo, split.hi)))
    partial = tuple((index, query.intersect(blk.range)) for index, blk in split.shell)
    return RangeDecomposition(tuple(total), partial)


# ---------------------------------------------------------------------------
# JSON persistence (lossless round trip).
# ---------------------------------------------------------------------------


def summary_to_dict(summary: CompressedDatacube) -> dict:
    return {
        "boundaries": [list(axis) for axis in summary.factor.boundaries],
        "blocks": [
            {"index": list(b.index), "count": b.count, "sum": b.sum}
            for b in summary.blocks
        ],
    }


def summary_from_dict(payload: dict) -> CompressedDatacube:
    factor = CompressionFactor(payload["boundaries"])
    by_index = {tuple(b["index"]): b for b in payload["blocks"]}
    blocks = []
    for index in factor.block_indices():
        if index not in by_index:
            raise FactorError(f"summary file is missing block {index}")
        raw = by_index[index]
        count, total = _naturals((raw["count"], raw["sum"]), f"block {index} count and sum")
        blocks.append(BlockSummary(index, factor.block_range(index), count, total))
    return CompressedDatacube(factor, tuple(blocks))


def save_summary(summary: CompressedDatacube, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(summary_to_dict(summary), handle)


def load_summary(path: str) -> CompressedDatacube:
    return _load_json(path, summary_from_dict, FactorError, "summary")
