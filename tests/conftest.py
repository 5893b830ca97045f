"""Shared fixtures: a small reference cube and a synthetic sparse cube."""

from __future__ import annotations

from math import prod

import pytest
from hypothesis import strategies as st

from cubeprob import (
    CompressionFactor,
    ConstraintSet,
    Datacube,
    MacroBlock,
    MacroKind,
    Range,
    build_summary,
)
from cubeprob.estimators import _count_ends, _error, _sum_ends

# A 10x6 cube partitioned by boundaries [0,3,7,10] x [0,4,6].  Designed so the
# top-left block holds 8 non-nulls summing 26, the top-right block 5 summing
# 29, and the middle-left block 7 non-nulls with a fully-null first column in
# rows 4..6 plus a known non-null at (5,2) for the bounds example.
REFERENCE_ROWS = [
    [4, 3, 0, 2, 7, 8],
    [0, 5, 1, 0, 6, 0],
    [6, 0, 2, 3, 5, 3],
    [0, 2, 0, 4, 1, 0],
    [0, 3, 5, 0, 0, 2],
    [0, 0, 1, 0, 3, 0],
    [2, 0, 0, 5, 0, 4],
    [5, 0, 1, 0, 0, 1],
    [0, 2, 0, 3, 2, 0],
    [4, 0, 6, 0, 0, 0],
]

REFERENCE_BOUNDARIES = ((0, 3, 7, 10), (0, 4, 6))


@pytest.fixture(scope="session")
def reference_cube() -> Datacube:
    cells = tuple(v for row in REFERENCE_ROWS for v in row)
    return Datacube((10, 6), cells)


@pytest.fixture(scope="session")
def reference_summary(reference_cube):
    return build_summary(reference_cube, CompressionFactor(REFERENCE_BOUNDARIES))


@pytest.fixture(scope="session")
def reference_constraints() -> ConstraintSet:
    """A null column segment and a located non-null inside the middle-left block."""
    return ConstraintSet(
        (
            MacroBlock(Range((4, 1), (6, 1)), MacroKind.ALL_NULL),
            MacroBlock(Range((5, 2), (5, 2)), MacroKind.ALL_NONNULL),
        )
    )


def _lcg(seed: int) -> int:
    return (1103515245 * seed + 12345) % (1 << 31)


def make_sparse_cube(rows: int = 200, cols: int = 60) -> Datacube:
    """Deterministic sparse cube with structured and scattered nulls.

    Structure (mirroring a sales-per-day layout):
    * one column in every run of 7 is entirely null,
    * the last 20 rows are entirely null,
    * the first 20 rows are dense on the remaining columns,
    * elsewhere roughly 40% of cells are null via a fixed LCG pattern.
    """
    cells = []
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if (j - 1) % 7 == 6 or i > rows - 20:
                cells.append(0)
            elif i <= 20:
                cells.append(1 + (i * 13 + j * 7) % 9)
            else:
                h = _lcg(i * cols + j)
                if h % 10 < 4:
                    cells.append(0)
                else:
                    cells.append(1 + h % 9)
    return Datacube((rows, cols), tuple(cells))


@pytest.fixture(scope="session")
def sparse_cube() -> Datacube:
    return make_sparse_cube()


@st.composite
def summarized_ranges(draw, max_ndim: int = 3, max_len: int = 4, max_value: int = 3, min_ndim: int = 1):
    """A random cube of min_ndim..max_ndim axes, its summary under a random factor, and a range.

    Each axis has 1..max_len cells.  Half of the axes of four or more cells
    are laid out so that the range starts inside one block and ends inside a
    later one: its ends are two cells off the axis' ends, some cut lies
    between them, and no cut lies just before the first or just after the
    last.  On every other axis each cut is taken with probability 1/2, and
    the range runs from a cell of one block to a cell of the same block or a
    later one, each cell uniform in its block.
    """
    # the layout by a seeded uniform generator: hypothesis's own draws favour
    # small and equal values, which put both ends of an axis in one block or on
    # grid lines (2 of 500 examples clipped two end blocks of some axis)
    rng = draw(st.randoms(use_true_random=True), label="layout")
    dims = tuple(rng.randint(1, max_len) for _ in range(rng.randint(min_ndim, max_ndim)))
    cells = draw(st.lists(st.integers(0, max_value), min_size=prod(dims), max_size=prod(dims)), label="cells")
    cube = Datacube(dims, tuple(cells))
    axes, lo, hi = [], [], []
    for n in dims:
        if n >= 4 and rng.random() < 0.5:
            a = rng.randint(2, n - 2)
            b = rng.randint(a + 1, n - 1)
            cuts = {k for k in range(1, n) if k not in (a - 1, b) and rng.random() < 0.5}
            axis = (0, *sorted(cuts | {rng.randint(a, b - 1)}), n)
        else:
            axis = (0, *(k for k in range(1, n) if rng.random() < 0.5), n)
            first, last = sorted(rng.randint(1, len(axis) - 1) for _ in range(2))
            a = rng.randint(axis[first - 1] + 1, axis[first])
            b = rng.randint(max(a, axis[last - 1] + 1), axis[last])
        axes.append(axis)
        lo.append(a)
        hi.append(b)
    return cube, build_summary(cube, CompressionFactor(tuple(axes))), Range(tuple(lo), tuple(hi))


def region_error_reference(kind: str, case: int, clip: int, width: int, blocks) -> int:
    """The per-block sum of ``_error(clip*x, width, *ends)`` over (b, t, s) ``blocks``, each
    drawn as (b, t, b*clip/width, 0): the scalar ends that each law's region rule replaces.

    x is t for counts and s for sums; a case-1 sum runs from 0 to s.
    """
    ends = {"count": _count_ends, "sum": _sum_ends if case > 1 else lambda n, m, l, shift, t, s: (0, s)}[kind]
    return sum(
        _error(clip * (t if kind == "count" else s), width, *ends(b, t, b * clip // width, 0, t, s))
        for b, t, s in blocks
    )
