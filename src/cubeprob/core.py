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
import io
import json
import re
import sys
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count, islice, repeat
from itertools import product as _iproduct
from math import prod
from operator import add, index, itemgetter, mul, rshift
from typing import Callable, Iterable, Iterator, MutableSequence, Sequence, TypeVar

from .errors import (
    CubeError,
    DuplicateKeyError,
    InfeasibleError,
    OutOfBoundsError,
    RelationFormatError,
)

Coords = tuple[int, ...]

_T = TypeVar("_T")


def _integers(values: Iterable[int], what: str, least: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each >= ``least`` if given; floats and bools are refused."""
    try:
        values = tuple(values)
        # index() takes a bool, such as JSON's true and false, as 1 or 0
        if bool in map(type, values):
            raise TypeError("'bool' object is not an integer")
        ints = tuple(map(index, values))
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None
    if least is not None and ints and min(ints) < least:
        raise ValueError(f"{what} must be >= {least}, got {min(ints)}")
    return ints


def _as_coords(values: Iterable[int], what: str = "coordinates") -> Coords:
    coords = _integers(values, what, 1)
    if not coords:
        raise ValueError(f"{what} need at least one dimension")
    return coords


def _trusted(cls: type[_T], **fields: object) -> _T:
    """One instance of ``cls`` with ``fields`` set as given: ``__init__`` and
    ``__post_init__`` do not run, so this is for fields known to be checked already."""
    made = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(made, name, value)
    return made


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


def _check_coords(coords: Sequence[int], dims: Coords, where: str = "", space: str = "cube") -> None:
    if len(coords) != len(dims):
        raise OutOfBoundsError(
            f"{where}coordinate arity {len(coords)} does not match {space} arity {len(dims)}"
        )
    for c, n in zip(coords, dims):
        if not 1 <= c <= n:
            raise OutOfBoundsError(f"{where}coordinate {tuple(coords)} outside [1..{dims}]")


def _check_range(r: Range, dims: Coords) -> None:
    if r.ndim != len(dims):
        raise OutOfBoundsError(f"range arity {r.ndim} does not match cube arity {len(dims)}")
    for hi_q, n in zip(r.hi, dims):
        if hi_q > n:
            raise OutOfBoundsError(f"range {r} outside cube dims {dims}")


class _PrefixSums:
    """Inclusive prefix sums of a row-major r-D array of naturals.

    The table spans the (n_1+1) x ... x (n_r+1) grid whose index 0 on an axis
    is the empty prefix, so the total of any box is an inclusion-exclusion
    over its 2^r corners (Ho, Agrawal, Megiddo and Srikant, "Range queries in
    OLAP data cubes", SIGMOD 1997).  The largest entry is the grand total:
    entries are stored in the narrowest unsigned array that holds it, 1 to
    8 B each, and past 2^64 - 1 the table is a list of unbounded ints.

    An array table is built from the values packed once into slots of that
    width (``_slots``), by ``_packed_prefix_sums``: one doubling scan per row
    along the last axis.
    """

    __slots__ = ("table", "strides", "signs")

    def __init__(self, values: Sequence[int], dims: Coords) -> None:
        packed = _slots(values)
        self.table = _prefix_sums(values, dims, []) if packed is None else _packed_prefix_sums(*packed, dims)
        # a corner's offset is the sum of its coordinates times these strides;
        # corners come in ``product`` order, high end first on every axis, and
        # a corner's sign is negative when it takes an odd number of low ends
        self.strides = tuple(accumulate(reversed([n + 1 for n in dims[1:]]), mul, initial=1))[::-1]
        self.signs = tuple(-1 if bin(i).count("1") % 2 else 1 for i in range(1 << len(dims)))

    def total(self, lo: Sequence[int], hi: Sequence[int]) -> int:
        """Sum of the values in the box ``lo..hi`` (1-based, inclusive, inside the table's dims).

        An axis with ``hi == lo - 1`` makes the box empty and the total 0.
        """
        table = self.table
        if len(self.strides) == 2:  # 2-D exact answers and the per-block path's shift: straight-line
            (l0, l1), (h0, h1) = lo, hi
            stride = self.strides[0]
            top, bottom = h0 * stride, (l0 - 1) * stride
            return table[top + h1] - table[top + l1 - 1] - table[bottom + h1] + table[bottom + l1 - 1]
        ends = [(h * stride, (l - 1) * stride) for l, h, stride in zip(lo, hi, self.strides)]
        return sum(map(mul, self.signs, map(table.__getitem__, map(sum, _iproduct(*ends)))))


def _narrowest(largest: int) -> str | None:
    """The narrowest array code of ``BHIQ`` whose item holds ``largest``; None past 2^64 - 1."""
    return next((c for c in "BHIQ" if largest < 1 << 8 * array(c).itemsize), None)


def _slots(values: Sequence[int]) -> tuple[str, bytes] | None:
    """The array code of ``values``' prefix table and the values packed in its slots.

    The code is the narrowest of ``BHIQ`` whose item holds ``sum(values)``,
    and each value fills one big-endian slot of that many bytes; past
    2^64 - 1 there is no code and the result is None.  ``bytes`` values,
    such as the non-null flags, are widened by a strided copy into each
    slot's last byte, because ``array(code, some_bytes)`` would read them
    as raw machine words.
    """
    code = _narrowest(sum(values))
    if code is None:
        return None
    width = array(code).itemsize
    if isinstance(values, bytes):
        widened = bytearray(len(values) * width)
        widened[width - 1 :: width] = values
        return code, bytes(widened)
    packed = array(code, values)
    if sys.byteorder == "little":
        packed.byteswap()
    return code, packed.tobytes()


_ONE = bytes(map(bool, range(256)))  # translates a nonzero byte to 1


def _nonzero(code: str, slots: bytes) -> bytes:
    """One byte per slot of ``_slots``' packing: 1 for a nonzero slot, 0 for a zero one.

    A slot is nonzero exactly when the OR of its bytes is, so the OR of the
    byte lanes, taken as big ints, and one ``translate`` give every flag.
    """
    width = array(code).itemsize
    lanes = 0
    for k in range(width):
        lanes |= int.from_bytes(slots[k::width], "big")
    return lanes.to_bytes(len(slots) // width, "big").translate(_ONE)


def _packed_prefix_sums(code: str, slots: bytes, dims: Coords) -> array:
    """The padded prefix table of the values packed in ``slots``, as ``array(code)``.

    Each row along the last axis is read as one big-endian int, so its
    first slot is the most significant, and prefixed in place by a doubling
    scan: after step k, each slot holds the sum of the 2^(k+1) values up to
    it (Hillis and Steele, "Data parallel algorithms", CACM 1986).  Every
    partial sum is at most the grand total, which is below 2^(8w) for w-byte
    slots, so no slot carries into the next, and the right shifts drop what
    they push past the row's last slot.  The leading axes are then summed
    over the row ints by ``_prefix_sums``, as slot-wise adds, which cannot
    carry either, and each row is written one slot longer than it was read:
    the padding zero leads it.
    """
    width = array(code).itemsize
    bits, n = 8 * width, dims[-1]
    row = n * width
    rows = [int.from_bytes(slots[i : i + row], "big") for i in range(0, len(slots), row)]
    for k in range((n - 1).bit_length()):
        rows = list(map(add, rows, map(rshift, rows, repeat(bits << k))))
    if len(dims) > 1:
        rows = _prefix_sums(rows, dims[:-1], [])
    table = array(code)
    # row by row, so no joined copy of the table is held beside it
    deque(map(table.frombytes, map(int.to_bytes, rows, repeat(row + width), repeat("big"))), 0)
    if sys.byteorder == "little":
        table.byteswap()
    return table


def _prefix_sums(
    values: Sequence[int], dims: Coords, table: MutableSequence[int]
) -> MutableSequence[int]:
    """Append the padded prefix table of ``values`` to ``table`` and return it.

    Slab i of the first axis is the (r-1)-D prefix table of the sum of the
    values' slabs 1..i, so every step is a C-level ``map`` or ``accumulate``.
    It builds the list tables past 2^64 - 1, sums the row ints of
    ``_packed_prefix_sums`` over the leading axes, and is the tests'
    reference for every table.
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

    def _check_arity(self, other: "Range") -> None:
        if len(self.lo) != len(other.lo):
            raise ValueError(f"range arity mismatch: {len(self.lo)} vs {len(other.lo)}")

    def contains(self, other: "Range") -> bool:
        self._check_arity(other)
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersect(self, other: "Range") -> "Range | None":
        self._check_arity(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Range(lo, hi)

    def overlap_size(self, other: "Range") -> int:
        """Cell count of the intersection (0 when disjoint): the clipped extents
        multiply as plain ints, no ``Range`` is built, and callers check arity."""
        size = 1
        for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            extent = (sh if sh < oh else oh) - (sl if sl > ol else ol) + 1
            if extent <= 0:
                return 0
            size *= extent
        return size

    def cells(self) -> Iterator[Coords]:
        """All coordinates in the range, row-major (last dimension fastest)."""
        axes = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        return _iproduct(*axes)

    def __str__(self) -> str:
        return _span(self.lo, self.hi)


def _span(lo: Sequence[int], hi: Sequence[int]) -> str:
    """The corners ``lo`` and ``hi`` as ``Range`` prints them: ``lo:hi`` per axis."""
    return ",".join(f"{l}:{h}" for l, h in zip(lo, hi))


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
        exactly the cells of ``r``.  Macro-block detection in 3-D and up
        clears the rows of its masks along these.
        """
        self.check_range(r)
        first, width = r.lo[-1], r.hi[-1] - r.lo[-1] + 1
        rows = _iproduct(*(range(l, h + 1) for l, h in zip(r.lo[:-1], r.hi[:-1])))
        starts = (self.offset((*row, first)) for row in rows)
        return (slice(start, start + width) for start in starts)

    # The non-null flags and the prefix tables are built on first use and
    # cached on the instance; they are not fields, so equality, hashing and
    # JSON ignore them.
    @cached_property
    def _flags(self) -> bytes:
        """One byte per cell, row-major: 1 for a non-null cell, 0 for a null one.

        They are read off the cells packed as for the sums' table
        (``_nonzero``).  Past 2^64 - 1, where the cells have no packing, each
        cell is tested alone.
        """
        slots = _slots(self.cells)
        return bytes(map(bool, self.cells)) if slots is None else _nonzero(*slots)

    @cached_property
    def _counts(self) -> _PrefixSums:
        return _PrefixSums(self._flags, self.dims)

    @cached_property
    def _sums(self) -> _PrefixSums:
        return _PrefixSums(self.cells, self.dims)

    def __getitem__(self, coords: Sequence[int]) -> int:
        self.check_coords(coords)
        return self.cells[self.offset(coords)]

    def check_coords(self, coords: Sequence[int]) -> None:
        _check_coords(coords, self.dims)

    def check_range(self, r: Range) -> None:
        _check_range(r, self.dims)


class _Lines:
    """The CSV line of every row ``_densify`` stored, kept only to word a refusal.

    Rows are noted by row-major offset, in the order they were stored, in
    the narrowest array whose item holds an offset, and lines by run: the
    first line and the first position of each run of rows from consecutive
    lines.  A plain chunk is at most one run, so a row costs 1 to 8 B and a run 16 B.
    """

    __slots__ = ("offsets", "lines", "starts", "next")

    def __init__(self, size: int) -> None:
        self.offsets = array(_narrowest(size - 1))
        self.lines, self.starts = array("q"), array("q")
        self.next = 0  # the line that would go on the last run; no CSV row has line 0

    def note(self, line: int, offsets: list[int]) -> None:
        """Note that the rows of a chunk, on lines ``line``, ``line + 1``, ..., gave ``offsets``."""
        if line != self.next:
            self.lines.append(line)
            self.starts.append(len(self.offsets))
        self.next = line + len(offsets)
        self.offsets.fromlist(offsets)

    def first(self, off: int) -> int:
        """The line of the noted row that gave ``off``, or 0 when none did."""
        try:
            at = self.offsets.index(off)
        except ValueError:
            return 0
        run = bisect_right(self.starts, at) - 1
        return self.lines[run] + at - self.starts[run]


def _chunk_offsets(cols: list[list[int]], places: list[list[int | None]]) -> list[int] | None:
    """The row-major offsets of a chunk's rows from its coordinate columns, or None
    when a coordinate is outside the cube.

    ``places[q][c]`` is the part of an offset that coordinate ``c`` on axis
    q gives, so each axis is one C-level gather: a coordinate past its axis
    ends the gather with ``IndexError``.  A coordinate below 1 is refused
    before any gather, where a negative one would index from the end.
    """
    if min(map(min, cols)) < 1:
        return None
    try:
        parts = [itemgetter(*col)(place) for col, place in zip(cols, places)]
    except IndexError:
        return None
    offs = parts[0]
    for part in parts[1:]:
        offs = map(add, offs, part)
    return list(offs)


def _densify(chunks: Iterable[tuple[int, int, list[int]]], dims: Sequence[int]) -> Datacube:
    """Write ``(line, k, fields)`` chunks of int rows into a cube, checking each row once.

    A chunk holds ``k`` rows from line ``line`` on: with ``k == 1`` its
    ``fields`` are one row ``[c1, ..., cr, value]`` of any length, and with
    ``k > 1`` they are ``k`` such rows of exactly r + 1 fields, back to back.
    ``line`` is the row's CSV line, or 0 for ``from_relation``.  A row needs
    coordinates inside the cube, a natural value, and coordinates no earlier row
    gave (dimensions are a key, even when a value is 0).
    """
    dims = _as_coords(dims, "dimension lengths")
    width = len(dims) + 1
    cells = [0] * prod(dims)
    given = bytearray(len(cells))  # 1 B per cell: 1 once a row gave it
    lines = _Lines(len(cells))
    strides = tuple(accumulate(reversed(dims[1:]), mul, initial=1))[::-1]
    # a coordinate c on axis q adds (c - 1) * strides[q] to its row's offset;
    # no coordinate 0 reaches a gather
    places = [[None, *range(0, n * stride, stride)] for n, stride in zip(dims, strides)]
    for line, k, fields in chunks:
        if k > 1:
            # the chunk at once, column by column: sign, bounds, then keys
            cols = [fields[q::width] for q in range(width)]
            offs = _chunk_offsets(cols[:-1], places) if min(cols[-1]) >= 0 else None
            if offs is not None and len(set(offs)) == k and not any(itemgetter(*offs)(given)):
                lines.note(line, offs)
                # a plain loop stores faster than a map over __setitem__
                for off, value in zip(offs, cols[-1]):
                    cells[off] = value
                    given[off] = 1
                continue
            # a row is refused: the loop below finds it and says why
            rows: Iterable[tuple[int, list[int]]] = zip(
                count(line), (fields[i : i + width] for i in range(0, len(fields), width))
            )
        else:
            rows = ((line, fields),)
        for line, row in rows:
            off = 0
            for c, n in zip(row, dims):
                if not 0 < c <= n:
                    break
                off = off * n + c - 1
            else:
                if len(row) == width and row[-1] >= 0 and not given[off]:
                    given[off] = 1
                    cells[off] = row[-1]
                    if line:
                        lines.note(line, [off])
                    continue
            # refused: check the row again, in order, to say why
            where = f"line {line}: " if line else ""
            if line and len(row) != width:
                raise RelationFormatError(
                    f"{where}expected {width - 1} coordinates plus a value, got {len(row)} fields"
                )
            coords = tuple(row[:-1])
            _check_coords(coords, dims, where)
            if row[-1] < 0:
                raise RelationFormatError(f"{where}measure value must be a natural, got {row[-1]}")
            first = lines.first(off)
            given_on = f", first given on line {first}" if first else ""
            raise DuplicateKeyError(f"{where}duplicate coordinates {coords}{given_on}")
    return _trusted(Datacube, dims=dims, cells=tuple(cells))


def from_relation(
    tuples: Iterable[tuple[Sequence[int], int]], dims: Sequence[int]
) -> Datacube:
    """Densify ``(coords, value)`` entries into a cube; value 0 and absence both mean null."""

    def rows() -> Iterator[tuple[int, int, list[int]]]:
        for coords, value in tuples:
            try:
                fields = [*map(index, coords), index(value)]
            except TypeError as exc:
                raise RelationFormatError(f"non-integer coordinate or value: {exc}") from None
            yield 0, 1, fields

    return _densify(rows(), dims)


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


_NUMBER = re.compile(r"\s*[+-]?\.?\d")  # how every int() field, and 1.5 or .5, starts

_FIELD = b"0123456789- \t"  # the characters a plain field may hold

_CHUNK = 4096  # raw lines read, parsed and checked at once after the first row or header


def _plain_fields(lines: list[str], commas: int, lined: bool) -> list[int] | None:
    """The int fields of raw lines that are each one record of plain fields, else None.

    A line qualifies when ``csv.reader`` would cut it at its commas alone and
    ``int()`` would read every field: it holds exactly ``commas`` commas, a
    ``\\n`` or ``\\r\\n`` only at its end, and otherwise only ASCII digits,
    ``-``, spaces and tabs.  The lines, joined by commas, are then one JSON
    array for the stdlib's C decoder.  The decoder refuses what ``int()``
    reads differently or not at all (a lone ``-``, ``1 2``, an empty field)
    and what ``int()`` reads but JSON does not (a leading zero such as
    ``007``), so those chunks go to ``csv.reader``, and every field it
    returns is the int ``int()`` gives.  ``lined`` says that each item but
    the stream's last ends with a line end, as a text stream's items do.
    """
    text = ",".join(lines)  # JSON reads each line end as a space
    if not text.isascii():
        return None
    # what is left once the fields' own characters go: the commas and line ends
    shape = text.encode().replace(b"\r\n", b"\n").translate(None, _FIELD)
    if not text.endswith("\n"):  # the last line has no line end
        shape += b"\n"
    if shape + b"," != (b"," * commas + b"\n,") * len(lines):  # one more comma than joins them
        return None
    # The shape holds one line end per item and no lone \r, which would end an
    # item read with newline="" or "\r" (the joining comma keeps it from a \n
    # that starts the next).  So when every item ends with a line end, as a
    # text stream's items do but its last, each item holds one, at its end: it
    # is one line.  Another source, such as a list, may hold a string with a
    # line end inside and none at its end, which csv.reader reads as one record.
    if not lined and "".join(lines).splitlines(True) != lines:
        return None
    try:
        return json.loads(f"[{text}]")
    except ValueError:  # also a field past int()'s digit limit
        return None


def _csv_rows(stream: Iterable[str], commas: int) -> Iterator[tuple[int, int, list[int]]]:
    """The ``(line, k, fields)`` chunks of int rows of a CSV relation, read lazily.

    Up to ``_CHUNK`` raw lines at a time are decoded at once, by the C JSON
    decoder, when every one is a record of ``commas + 1`` plain fields (see
    ``_plain_fields``).  Any other chunk, say one with a quote, a blank line,
    a ``+`` sign, a leading zero or other whitespace, is read by
    ``csv.reader`` one record at a time, up to the record that holds its last
    line, and the next chunk is tried whole again.  Until the first row a
    chunk is one line, so a header is read alone, and a reader that meets
    blank records there reads on up to the first record that is not blank.
    ``line`` counts records, as ``csv.reader`` would from the start of the
    stream.
    """
    source = iter(stream)  # one position that every reader below shares, even over a list of lines
    # iterating a text stream yields its lines, each with its line end
    lined = type(stream) in (io.StringIO, io.TextIOWrapper)
    header = True  # a header may still come: no row and no header read yet
    line = 0
    while lines := list(islice(source, 1 if header else _CHUNK)):
        flat = _plain_fields(lines, commas, lined)
        if flat is not None:
            yield line + 1, len(lines), flat
            line += len(lines)
            header = False
            continue
        reader = csv.reader(chain(lines, source))
        end = len(lines)  # the reader stops at the first record that starts past this line
        while reader.line_num < end:
            line += 1
            try:
                row = next(reader, None)
            except csv.Error as exc:
                raise RelationFormatError(f"line {line}: unreadable CSV record: {exc}") from None
            if row is None:  # the stream ended among leading blank records
                return
            try:
                fields = list(map(int, row))  # int() ignores surrounding spaces
            except ValueError:
                if "".join(row).strip():
                    if not header or any(map(_NUMBER.match, row)):
                        raise RelationFormatError(f"line {line}: non-integer field in {row}") from None
                    header = False
                    continue
                fields = []  # a blank record
            if fields:
                text = "".join(row)
                if "_" in text or not text.isascii():  # int() also takes 1_0 and non-ASCII digits
                    raise RelationFormatError(f"line {line}: non-integer field in {row}")
                yield line, 1, fields
                header = False
            elif header:  # a blank record before the first row or header: read on
                end = reader.line_num + 1


def read_relation_csv(stream: Iterable[str], dims: Sequence[int]) -> Datacube:
    """Parse rows of ``d1,...,dr,value`` into a cube.

    Blank rows are skipped, and so is a header: the first non-blank row, when
    none of its fields starts like a number (so ``1,x,5`` and ``1.5,2.5,3`` are
    refused, not skipped).  Errors name the offending 1-based line, also for a
    record ``csv.reader`` cannot read.  Rows are read and checked a chunk of
    lines at a time, so memory is one chunk plus the cube's own cells, 1 B
    per cell for the key check and 1 to 8 B per row for its line (``_Lines``).
    """
    return _densify(_csv_rows(stream, len(dims)), dims)


def load_relation_csv(path: str, dims: Sequence[int]) -> Datacube:
    """``read_relation_csv`` over a UTF-8 file path; a leading byte-order mark is dropped."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        return read_relation_csv(handle, dims)


def save_cube(cube: Datacube, path: str) -> None:
    with open(path, "w") as handle:
        json.dump({"dims": list(cube.dims), "cells": list(cube.cells)}, handle)


def _load_json(path: str, parse: Callable[..., _T], error: type[CubeError], what: str) -> _T:
    """``parse`` of the JSON in ``path``; a payload of the wrong shape raises ``error``."""
    with open(path) as handle:
        payload = json.load(handle)
    try:
        return parse(payload)
    except KeyError as exc:
        raise error(f"malformed {what} file {path}: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise error(f"malformed {what} file {path}: {exc}")


def load_cube(path: str) -> Datacube:
    return _load_json(
        path, lambda raw: Datacube(raw["dims"], raw["cells"]), RelationFormatError, "cube"
    )
