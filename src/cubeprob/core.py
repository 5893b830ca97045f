"""Dense multidimensional datacubes and exact count/sum range queries.

A datacube is an r-dimensional array of naturals addressed by 1-based
coordinates; the value 0 marks a null element.  A relation whose dimension
attributes form a key densifies into exactly one cube, and the exact queries
here are the ground truth every estimator in this package approximates.

The classical setting assumes every dimension is longer than 2; this
implementation relaxes that to n_q >= 1 since nothing downstream relies on
the stricter bound.
"""

from __future__ import annotations

import csv
import json
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from itertools import product as _iproduct
from math import prod
from operator import add, index
from typing import IO, Callable, Iterable, Iterator, MutableSequence, Sequence, TypeVar

from .errors import (
    CubeError,
    DuplicateKeyError,
    InfeasibleError,
    OutOfBoundsError,
    RelationFormatError,
)

Coords = tuple[int, ...]


def _integers(values: Iterable[int], what: str, least: int) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each >= ``least``; floats are refused."""
    try:
        ints = tuple(map(index, values))
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None
    if ints and min(ints) < least:
        raise ValueError(f"{what} must be >= {least}, got {min(ints)}")
    return ints


def _as_coords(values: Iterable[int], what: str = "coordinates") -> Coords:
    coords = _integers(values, what, 1)
    if not coords:
        raise ValueError(f"{what} need at least one dimension")
    return coords


def _offset(coords: Sequence[int], dims: Sequence[int]) -> int:
    off = 0
    for c, n in zip(coords, dims):
        off = off * n + (c - 1)
    return off


def _check_realizable(b: int, t: int, s: int, cells: str = "cells") -> None:
    """Refuse a count ``t`` and sum ``s`` that no block of ``b`` naturals can carry."""
    if not 0 <= t <= b:
        raise InfeasibleError(f"count {t} outside [0..{b}]")
    if t > s:
        raise InfeasibleError(f"count {t} exceeds sum {s}")
    if t == 0 and s > 0:
        raise InfeasibleError(f"sum {s} positive with no non-null {cells}")


def _check_coords(coords: Sequence[int], dims: Coords, where: str = "") -> None:
    if len(coords) != len(dims):
        raise OutOfBoundsError(
            f"{where}coordinate arity {len(coords)} does not match cube arity {len(dims)}"
        )
    for c, n in zip(coords, dims):
        if not 1 <= c <= n:
            raise OutOfBoundsError(f"{where}coordinate {tuple(coords)} outside [1..{dims}]")


class _PrefixSums:
    """Inclusive prefix sums of a row-major r-D array of naturals.

    The table spans the (n_1+1) x ... x (n_r+1) grid whose index 0 on an axis
    is the empty prefix, so the total of any box is an inclusion-exclusion
    over its 2^r corners (Ho, Agrawal, Megiddo and Srikant, "Range queries in
    OLAP data cubes", SIGMOD 1997).  The largest entry is the grand total:
    entries are stored in the narrowest unsigned array that holds it, 1 to
    8 B each, and past 2^64 - 1 the table is a list of unbounded ints.
    """

    __slots__ = ("dims", "table")

    def __init__(self, values: Sequence[int], dims: Coords) -> None:
        self.dims = dims
        grand_total = sum(values)
        table: MutableSequence[int]
        for code in "BHIQ":
            if grand_total < 1 << 8 * array(code).itemsize:
                table = array(code)
                break
        else:
            table = []
        self.table = _prefix_sums(values, dims, table)

    def total(self, lo: Sequence[int], hi: Sequence[int]) -> int:
        """Sum of the values in the box ``lo..hi`` (1-based, inclusive, inside ``dims``).

        An axis with ``hi == lo - 1`` makes the box empty and the total 0.
        """
        terms = [(0, 1)]
        for l, h, n in zip(lo, hi, self.dims):
            terms = [
                (off * (n + 1) + corner, sign * side)
                for off, sign in terms
                for corner, side in ((h, 1), (l - 1, -1))
            ]
        table = self.table
        return sum(sign * table[off] for off, sign in terms)


def _prefix_sums(
    values: Sequence[int], dims: Coords, table: MutableSequence[int]
) -> MutableSequence[int]:
    """Append the padded prefix table of ``values`` to ``table`` and return it.

    Slab i of the first axis is the (r-1)-D prefix table of the sum of the
    values' slabs 1..i, so every step is a C-level ``map`` or ``accumulate``.
    """
    if len(dims) == 1:
        table.extend(accumulate(values, initial=0))
        return table
    inner = prod(dims[1:])
    table.extend(repeat(0, prod(n + 1 for n in dims[1:])))
    running = [0] * inner
    for start in range(0, len(values), inner):
        running = list(map(add, running, values[start : start + inner]))
        _prefix_sums(running, dims[1:], table)
    return table


@dataclass(frozen=True)
class Range:
    """Axis-aligned range [lo..hi], inclusive at both ends, 1-based."""

    lo: Coords
    hi: Coords

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _as_coords(self.lo))
        object.__setattr__(self, "hi", _as_coords(self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError(f"corner arity mismatch: {self.lo} vs {self.hi}")
        for lo_q, hi_q in zip(self.lo, self.hi):
            if hi_q < lo_q:
                raise ValueError(f"empty range {self.lo}..{self.hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def size(self) -> int:
        """Number of cells in the range."""
        return prod(h - l + 1 for l, h in zip(self.lo, self.hi))

    def contains(self, other: "Range") -> bool:
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersect(self, other: "Range") -> "Range | None":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Range(lo, hi)

    def overlap_size(self, other: "Range") -> int:
        """Cell count of the intersection (0 when disjoint)."""
        common = self.intersect(other)
        return common.size if common is not None else 0

    def cells(self) -> Iterator[Coords]:
        """All coordinates in the range, row-major (last dimension fastest)."""
        axes = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        return _iproduct(*axes)

    def __str__(self) -> str:
        return ",".join(f"{l}:{h}" for l, h in zip(self.lo, self.hi))


@dataclass(frozen=True)
class Datacube:
    """Dense row-major array of naturals; 0 means null."""

    dims: Coords
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _as_coords(self.dims, "dimension lengths"))
        object.__setattr__(self, "cells", _integers(self.cells, "cube values", 0))
        expected = prod(self.dims)
        if len(self.cells) != expected:
            raise ValueError(
                f"cell array has {len(self.cells)} entries, dims {self.dims} need {expected}"
            )

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return len(self.cells)

    def full_range(self) -> Range:
        return Range((1,) * self.ndim, self.dims)

    def offset(self, coords: Sequence[int]) -> int:
        """Row-major offset of a 1-based coordinate tuple."""
        return _offset(coords, self.dims)

    def runs(self, r: Range) -> Iterator[slice]:
        """Slices of ``cells``, one per row of ``r`` along the last axis.

        The slices are disjoint, come in row-major order and together hold
        exactly the cells of ``r``.  Macro-block detection clears its masks
        along these.
        """
        self.check_range(r)
        first, width = r.lo[-1], r.hi[-1] - r.lo[-1] + 1
        rows = _iproduct(*(range(l, h + 1) for l, h in zip(r.lo[:-1], r.hi[:-1])))
        starts = (self.offset((*row, first)) for row in rows)
        return (slice(start, start + width) for start in starts)

    # The prefix tables are built on first use and cached on the instance;
    # they are not fields, so equality, hashing and JSON ignore them.
    @cached_property
    def _counts(self) -> _PrefixSums:
        return _PrefixSums(bytes(map(bool, self.cells)), self.dims)

    @cached_property
    def _sums(self) -> _PrefixSums:
        return _PrefixSums(self.cells, self.dims)

    def __getitem__(self, coords: Sequence[int]) -> int:
        self.check_coords(coords)
        return self.cells[self.offset(coords)]

    def check_coords(self, coords: Sequence[int]) -> None:
        _check_coords(coords, self.dims)

    def check_range(self, r: Range) -> None:
        if r.ndim != self.ndim:
            raise OutOfBoundsError(
                f"range arity {r.ndim} does not match cube arity {self.ndim}"
            )
        for hi_q, n in zip(r.hi, self.dims):
            if hi_q > n:
                raise OutOfBoundsError(f"range {r} outside cube dims {self.dims}")


def _densify(rows: Iterable[tuple[str, Sequence[int], int]], dims: Sequence[int]) -> Datacube:
    """Write ``(where, coords, value)`` relation rows into a cube, checking each once.

    ``where`` prefixes a row's errors: ``""``, or ``"line N: "`` for CSV.  Each row
    needs integer coordinates inside the cube, a natural value, and coordinates no
    earlier row gave (dimensions are a key, even when a value is 0).
    """
    dims = _as_coords(dims, "dimension lengths")
    cells = [0] * prod(dims)
    given: dict[int, str] = {}  # row-major offset -> where it was first given
    for where, coords, value in rows:
        try:
            coords, value = tuple(map(index, coords)), index(value)
        except TypeError as exc:
            raise RelationFormatError(f"{where}non-integer coordinate or value: {exc}") from None
        _check_coords(coords, dims, where)
        if value < 0:
            raise RelationFormatError(f"{where}measure value must be a natural, got {value}")
        off = _offset(coords, dims)
        if off in given:
            first = f", first given on {given[off][:-2]}" if given[off] else ""
            raise DuplicateKeyError(f"{where}duplicate coordinates {coords}{first}")
        given[off] = where
        cells[off] = value
    return Datacube(dims, tuple(cells))


def from_relation(
    tuples: Iterable[tuple[Sequence[int], int]], dims: Sequence[int]
) -> Datacube:
    """Densify ``(coords, value)`` entries into a cube; value 0 and absence both mean null."""
    return _densify((("", coords, value) for coords, value in tuples), dims)


def count_exact(cube: Datacube, r: Range) -> int:
    """Number of non-null cells in the range, in 2^r prefix-table lookups."""
    cube.check_range(r)
    return cube._counts.total(r.lo, r.hi)


def sum_exact(cube: Datacube, r: Range) -> int:
    """Sum of the cell values in the range, in 2^r prefix-table lookups."""
    cube.check_range(r)
    return cube._sums.total(r.lo, r.hi)


# ---------------------------------------------------------------------------
# External interfaces: CSV relations and the JSON cube artifact.
# ---------------------------------------------------------------------------


def _csv_rows(stream: IO[str], r: int) -> Iterator[tuple[str, list[int], int]]:
    """The ``(where, coords, value)`` rows of a CSV relation, read lazily."""
    for lineno, row in enumerate(csv.reader(stream), start=1):
        if not "".join(row).strip():
            continue
        try:
            numbers = list(map(int, row))  # int() ignores surrounding spaces
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise RelationFormatError(f"line {lineno}: non-integer field in {row}")
        if len(numbers) != r + 1:
            raise RelationFormatError(
                f"line {lineno}: expected {r} coordinates plus a value, got {len(numbers)} fields"
            )
        yield f"line {lineno}: ", numbers[:r], numbers[r]


def read_relation_csv(stream: IO[str], dims: Sequence[int]) -> Datacube:
    """Parse rows of ``d1,...,dr,value`` into a cube.

    A single header row is tolerated (detected by non-integer tokens).
    Errors name the offending 1-based line number.
    """
    return _densify(_csv_rows(stream, len(dims)), dims)


def load_relation_csv(path: str, dims: Sequence[int]) -> Datacube:
    """``read_relation_csv`` over a file path."""
    with open(path, newline="") as handle:
        return read_relation_csv(handle, dims)


def save_cube(cube: Datacube, path: str) -> None:
    with open(path, "w") as handle:
        json.dump({"dims": list(cube.dims), "cells": list(cube.cells)}, handle)


_T = TypeVar("_T")


def _load_json(path: str, parse: Callable[..., _T], error: type[CubeError], what: str) -> _T:
    """``parse`` of the JSON in ``path``; a payload of the wrong shape raises ``error``."""
    with open(path) as handle:
        payload = json.load(handle)
    try:
        return parse(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"malformed {what} file {path}: {exc}")


def load_cube(path: str) -> Datacube:
    return _load_json(
        path, lambda raw: Datacube(raw["dims"], raw["cells"]), RelationFormatError, "cube"
    )
