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
def summarized_ranges(draw, max_ndim: int = 3, max_len: int = 4, max_value: int = 3):
    """A random cube of 1..max_ndim axes, its summary under a random factor, and a range."""
    dims = tuple(draw(st.lists(st.integers(1, max_len), min_size=1, max_size=max_ndim), label="dims"))
    cells = draw(st.lists(st.integers(0, max_value), min_size=prod(dims), max_size=prod(dims)), label="cells")
    cube = Datacube(dims, tuple(cells))
    axes = []
    for n in dims:
        cuts = draw(st.sets(st.integers(1, n - 1)), label="cuts") if n > 1 else set()
        axes.append((0, *sorted(cuts), n))
    lo, hi = [], []
    for n in dims:
        a = draw(st.integers(1, n), label="lo")
        lo.append(a)
        hi.append(draw(st.integers(a, n), label="hi"))
    return cube, build_summary(cube, CompressionFactor(tuple(axes))), Range(tuple(lo), tuple(hi))
