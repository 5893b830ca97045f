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
from dataclasses import dataclass
from itertools import product as _iproduct
from math import prod
from typing import IO, Iterable, Iterator, Sequence

from .errors import (
    DuplicateKeyError,
    OutOfBoundsError,
    RelationFormatError,
)

Coords = tuple[int, ...]


def _as_coords(value: Sequence[int]) -> Coords:
    coords = tuple(int(v) for v in value)
    if not coords:
        raise ValueError("coordinates need at least one dimension")
    return coords


def _offset(coords: Sequence[int], dims: Sequence[int]) -> int:
    off = 0
    for c, n in zip(coords, dims):
        off = off * n + (c - 1)
    return off


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
            if lo_q < 1:
                raise ValueError(f"coordinates are 1-based, got lo={self.lo}")
            if hi_q < lo_q:
                raise ValueError(f"empty range {self.lo}..{self.hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def size(self) -> int:
        """Number of cells in the range."""
        return prod(h - l + 1 for l, h in zip(self.lo, self.hi))

    def contains_cell(self, coords: Sequence[int]) -> bool:
        return all(l <= c <= h for l, c, h in zip(self.lo, coords, self.hi))

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
        object.__setattr__(self, "dims", _as_coords(self.dims))
        object.__setattr__(self, "cells", tuple(int(v) for v in self.cells))
        if any(n < 1 for n in self.dims):
            raise ValueError(f"dimension lengths must be >= 1, got {self.dims}")
        expected = prod(self.dims)
        if len(self.cells) != expected:
            raise ValueError(
                f"cell array has {len(self.cells)} entries, dims {self.dims} need {expected}"
            )
        if any(v < 0 for v in self.cells):
            raise ValueError("cube values must be naturals (>= 0)")

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
        exactly the cells of ``r``.  This is the one place that maps a range
        onto the row-major layout; range aggregates and masks walk these.
        """
        self.check_range(r)
        first, width = r.lo[-1], r.hi[-1] - r.lo[-1] + 1
        rows = _iproduct(*(range(l, h + 1) for l, h in zip(r.lo[:-1], r.hi[:-1])))
        starts = (self.offset((*row, first)) for row in rows)
        return (slice(start, start + width) for start in starts)

    def __getitem__(self, coords: Sequence[int]) -> int:
        self.check_coords(coords)
        return self.cells[self.offset(coords)]

    def check_coords(self, coords: Sequence[int]) -> None:
        if len(coords) != self.ndim:
            raise OutOfBoundsError(
                f"coordinate arity {len(coords)} does not match cube arity {self.ndim}"
            )
        for c, n in zip(coords, self.dims):
            if not 1 <= c <= n:
                raise OutOfBoundsError(f"coordinate {tuple(coords)} outside [1..{self.dims}]")

    def check_range(self, r: Range) -> None:
        if r.ndim != self.ndim:
            raise OutOfBoundsError(
                f"range arity {r.ndim} does not match cube arity {self.ndim}"
            )
        for hi_q, n in zip(r.hi, self.dims):
            if hi_q > n:
                raise OutOfBoundsError(f"range {r} outside cube dims {self.dims}")


def from_relation(
    tuples: Iterable[tuple[Sequence[int], int]], dims: Sequence[int]
) -> Datacube:
    """Densify a multidimensional relation into a cube.

    Each entry is (coords, value).  Dimensions are a key: repeating the same
    coordinates is an error even if one of the values is 0.  An explicit
    value 0 and an absent tuple both produce a null cell.
    """
    dims = _as_coords(dims)
    if any(n < 1 for n in dims):
        raise ValueError(f"dimension lengths must be >= 1, got {dims}")
    cells = [0] * prod(dims)
    seen: set[int] = set()
    for coords, value in tuples:
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(dims):
            raise OutOfBoundsError(
                f"coordinate arity {len(coords)} does not match dims {dims}"
            )
        if any(not 1 <= c <= n for c, n in zip(coords, dims)):
            raise OutOfBoundsError(f"coordinate {coords} outside [1..{dims}]")
        value = int(value)
        if value < 0:
            raise RelationFormatError(f"measure value must be a natural, got {value}")
        off = _offset(coords, dims)
        if off in seen:
            raise DuplicateKeyError(f"duplicate coordinates {coords}")
        seen.add(off)
        cells[off] = value
    return Datacube(dims, tuple(cells))


def count_exact(cube: Datacube, r: Range) -> int:
    """Number of non-null cells in the range."""
    cells = cube.cells
    return sum(run.stop - run.start - cells[run].count(0) for run in cube.runs(r))


def sum_exact(cube: Datacube, r: Range) -> int:
    """Sum of the cell values in the range."""
    cells = cube.cells
    return sum(sum(cells[run]) for run in cube.runs(r))


# ---------------------------------------------------------------------------
# External interfaces: CSV relations and the JSON cube artifact.
# ---------------------------------------------------------------------------


def read_relation_csv(stream: IO[str], dims: Sequence[int]) -> Datacube:
    """Parse rows of ``d1,...,dr,value`` into a cube.

    A single header row is tolerated (detected by non-integer tokens).
    Errors name the offending 1-based line number.
    """
    dims = _as_coords(dims)
    r = len(dims)
    entries: list[tuple[Coords, int]] = []
    seen: dict[Coords, int] = {}
    reader = csv.reader(stream)
    for lineno, row in enumerate(reader, start=1):
        if not row or all(not field.strip() for field in row):
            continue
        fields = [field.strip() for field in row]
        try:
            numbers = [int(f) for f in fields]
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise RelationFormatError(f"line {lineno}: non-integer field in {fields}")
        if len(numbers) != r + 1:
            raise RelationFormatError(
                f"line {lineno}: expected {r} coordinates plus a value, got {len(numbers)} fields"
            )
        coords, value = tuple(numbers[:r]), numbers[r]
        if any(not 1 <= c <= n for c, n in zip(coords, dims)):
            raise OutOfBoundsError(f"line {lineno}: coordinate {coords} outside [1..{dims}]")
        if value < 0:
            raise RelationFormatError(f"line {lineno}: measure value must be >= 0, got {value}")
        if coords in seen:
            raise DuplicateKeyError(
                f"line {lineno}: coordinates {coords} already given on line {seen[coords]}"
            )
        seen[coords] = lineno
        entries.append((coords, value))
    return from_relation(entries, dims)


def load_relation_csv(path: str, dims: Sequence[int]) -> Datacube:
    """``read_relation_csv`` over a file path."""
    with open(path, newline="") as handle:
        return read_relation_csv(handle, dims)


def save_cube(cube: Datacube, path: str) -> None:
    with open(path, "w") as handle:
        json.dump({"dims": list(cube.dims), "cells": list(cube.cells)}, handle)


def load_cube(path: str) -> Datacube:
    with open(path) as handle:
        payload = json.load(handle)
    try:
        return Datacube(tuple(payload["dims"]), tuple(payload["cells"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise RelationFormatError(f"malformed cube file {path}: {exc}")
