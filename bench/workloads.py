"""Seeded inputs for the benchmark workloads.

A workload turns a seed into the only things the program receives: the text
of a relation (CSV rows ``d1,...,dr,value``) and a list of query specs.  The
same seed always gives the same inputs.  Seeds move the scattered cells and
the query placement, not the structure, so figures from different seeds are
comparable.

Each workload loads a different layer (see README.md for the map):

* ``constrained-sweep`` -- case-3 queries, where ``estimate`` re-validates
  the constraint set on every call: the ``constraints`` layer dominates.
* ``wide-range`` -- unconstrained queries over large rectangles: the exact
  scan (``core``), ``decompose`` and the planner's composition dominate.
* ``pmf-3d`` -- queries inside a single block with ``want_pmf``: exact pmf
  construction in ``estimators`` dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from cubeprob import QueryKind, QuerySpec, Range

COUNT, SUM = QueryKind.COUNT, QueryKind.SUM


def lcg(x: int) -> int:
    """One step of the linear congruential generator ``tests/conftest.py`` uses."""
    return (1103515245 * x + 12345) % (1 << 31)


def sparse_cube_cells(rows: int, cols: int, seed: int) -> list[int]:
    """Row-major cells of the ``make_sparse_cube`` layout.

    One column in every run of 7 and the last 20 rows are null, the first 20
    rows are dense, and elsewhere about 40% of cells are null by the LCG.
    The seed shifts the LCG input, so seed 0 gives ``make_sparse_cube``
    cell for cell.
    """
    shift = seed * rows * cols
    cells = []
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if (j - 1) % 7 == 6 or i > rows - 20:
                cells.append(0)
            elif i <= 20:
                cells.append(1 + (i * 13 + j * 7) % 9)
            else:
                h = lcg(i * cols + j + shift)
                cells.append(0 if h % 10 < 4 else 1 + h % 9)
    return cells


def slab_cube_cells(n: int, edge: int, seed: int) -> list[int]:
    """Row-major cells of an n x n x n cube with structured null slabs.

    The last plane along the third axis and every sixth plane along the
    first axis are null, and the first quarter of the first axis is dense.
    In each block of ``edge``-cube cells the remaining cells are shuffled by
    the LCG from the seed; the first 40% of them are null and the rest take
    values 1..9 in turn.  Every seed thus gives each block the same count
    and sum, placed differently.
    """
    cells = [0] * n ** 3
    scattered: dict[tuple[int, ...], list[int]] = {}
    for off, (i, j, k) in enumerate(product(range(1, n + 1), repeat=3)):
        if k == n or i % 6 == 0:
            continue
        if i <= n // 4:
            cells[off] = 1 + (i * 5 + j * 3 + k) % 9
        else:
            block = ((i - 1) // edge, (j - 1) // edge, (k - 1) // edge)
            scattered.setdefault(block, []).append(off)
    state = seed
    for block in sorted(scattered):
        offs = scattered[block]
        for a in range(len(offs) - 1, 0, -1):
            state = lcg(state)
            b = (state >> 16) % (a + 1)
            offs[a], offs[b] = offs[b], offs[a]
        for rank, off in enumerate(offs[len(offs) * 2 // 5:]):
            cells[off] = 1 + rank % 9
    return cells


def relation_text(dims: tuple[int, ...], cells: list[int]) -> str:
    """CSV relation with a header row and one row per non-null cell."""
    header = ",".join(f"d{q}" for q in range(1, len(dims) + 1)) + ",value"
    rows = [header]
    for coords, value in zip(product(*(range(1, n + 1) for n in dims)), cells):
        if value:
            rows.append(",".join(map(str, coords)) + f",{value}")
    return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class Query:
    """One query spec and the index of the block shape whose summary answers it."""

    shape: int
    spec: QuerySpec


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload feeds the program."""

    workload: str
    seed: int
    dims: tuple[int, ...]
    text: str
    block_shapes: tuple[tuple[int, ...], ...]
    min_cells: int | None  # detect macro-blocks at set-up when set
    queries: tuple[Query, ...]

    def record(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "dims": list(self.dims),
            "block_shapes": [list(s) for s in self.block_shapes],
            "min_cells": self.min_cells,
            "queries": len(self.queries),
            "relation_rows": self.text.count("\n") - 1,
        }


def constrained_sweep(seed: int, small: bool = False) -> Inputs:
    """Case-3 count and sum queries swept over the criterion-9 sparse cube."""
    if small:
        rows, cols, shape, stride, shapes = 48, 21, (10, 5), (7, 4), ((8, 8), (12, 7))
    else:
        rows, cols, shape, stride = 200, 60, (20, 10), (13, 7)
        shapes = ((12, 12), (16, 16), (25, 15))
    starts = [range(1, n - w + 2, st) for n, w, st in zip((rows, cols), shape, stride)]
    ranges = [
        Range(lo, tuple(l + w - 1 for l, w in zip(lo, shape))) for lo in product(*starts)
    ]
    queries = [
        Query(k, QuerySpec(r, kind, 3))
        for k in range(len(shapes))
        for kind in (COUNT, SUM)
        for r in ranges
    ]
    random.Random(seed).shuffle(queries)
    dims = (rows, cols)
    return Inputs(
        "constrained-sweep", seed, dims, relation_text(dims, sparse_cube_cells(rows, cols, seed)),
        shapes, 20, tuple(queries),
    )


WIDE_KINDS = ((1, COUNT), (1, SUM), (2, COUNT), (2, SUM))


def wide_range(seed: int, small: bool = False) -> Inputs:
    """Case-1/2 queries on rectangles covering 20-90% of each axis, no constraints.

    Extents are stratified: rectangle i spans stratum i of the rows and
    stratum 7i mod count of the columns, jittered within the stratum.  Every
    seed thus asks about the same spread of areas, and the seed moves the
    rectangles, the jitter and the order.
    """
    rows, cols, count = (60, 40, 8) if small else (320, 240, 240)
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        h, w = (
            max(1, round((0.2 + 0.7 * (stratum + rng.random()) / count) * n))
            for stratum, n in ((i, rows), (7 * i % count, cols))
        )
        lo = (rng.randint(1, rows - h + 1), rng.randint(1, cols - w + 1))
        case, kind = WIDE_KINDS[i % len(WIDE_KINDS)]
        queries.append(Query(0, QuerySpec(Range(lo, (lo[0] + h - 1, lo[1] + w - 1)), kind, case)))
    rng.shuffle(queries)
    dims = (rows, cols)
    return Inputs(
        "wide-range", seed, dims, relation_text(dims, sparse_cube_cells(rows, cols, seed)),
        ((10, 10),), None, tuple(queries),
    )


# Sum pmfs in cases 2 and 3 cost tens of times more than the others; weighting
# them 3x keeps the median of the mix inside the expensive mode, away from the
# gap between the cheap and the expensive queries.
PMF_KINDS = ((1, COUNT), (2, COUNT), (3, COUNT), (1, SUM)) + ((2, SUM), (3, SUM)) * 3


def pmf_3d(seed: int, small: bool = False) -> Inputs:
    """``want_pmf`` queries, each inside one block that it does not fully cover.

    Every other box shape smaller than a block, once per entry of ``PMF_KINDS``.
    Which block a box falls in is fixed by its shape and kind, so the cost
    mix is the same for every seed; the seed picks the offset in the block.
    """
    n, edge = (8, 4) if small else (12, 4)
    shapes = [s for s in product(range(1, edge + 1), repeat=3) if s != (edge,) * 3]
    shapes = shapes[:: 9 if small else 2]
    blocks = list(product(range(n // edge), repeat=3))
    rng = random.Random(seed)
    queries = []
    for slot, (case, kind) in enumerate(PMF_KINDS):
        for index, shape in enumerate(shapes):
            block = blocks[(index + 7 * slot) % len(blocks)]
            lo = tuple(b * edge + rng.randint(1, edge - w + 1) for b, w in zip(block, shape))
            hi = tuple(l + w - 1 for l, w in zip(lo, shape))
            queries.append(Query(0, QuerySpec(Range(lo, hi), kind, case, want_pmf=True)))
    rng.shuffle(queries)
    dims = (n, n, n)
    return Inputs(
        "pmf-3d", seed, dims, relation_text(dims, slab_cube_cells(n, edge, seed)),
        ((edge, edge, edge),), 20, tuple(queries),
    )


WORKLOADS = {
    "constrained-sweep": constrained_sweep,
    "wide-range": wide_range,
    "pmf-3d": pmf_3d,
}
