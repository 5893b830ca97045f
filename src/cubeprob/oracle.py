"""Brute-force enumeration of the datacube populations behind every estimator.

A block is a flat vector of ``b`` natural-valued cells (position never
matters to the statistics, only how many query cells are covered).  A
population fixes some combination of the non-null count ``t``, the sum
``s``, and forced null / non-null positions, and the statistic of interest
is the count or sum over a designated set of query positions.  A query over
several blocks ranges over the product of their populations.

Enumeration is exhaustive and duplicate-free, and the empirical
distribution is computed by direct accumulation -- independently of the
closed forms it serves to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import _integers
from .errors import PopulationError
from .estimators import Pmf

MAX_POPULATION = 10_000_000


class StatKind(Enum):
    COUNT = "count"
    SUM = "sum"


@dataclass(frozen=True)
class PopulationSpec:
    """One block's population: size, fixed aggregates, forced positions, query."""

    b: int
    fix_t: int | None = None
    fix_s: int | None = None
    forced_nonnull: frozenset[int] = frozenset()
    forced_null: frozenset[int] = frozenset()
    query_positions: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        # JSON's true, false and 1.0 are refused here, not read as 1, 0 and 1
        try:
            for name in ("b", "fix_t", "fix_s"):
                if getattr(self, name) is not None:
                    object.__setattr__(self, name, *_integers((getattr(self, name),), name))
            for name in ("forced_nonnull", "forced_null", "query_positions"):
                object.__setattr__(self, name, frozenset(_integers(getattr(self, name), name)))
        except ValueError as exc:
            raise PopulationError(str(exc)) from None
        if self.b < 1:
            raise PopulationError(f"block size {self.b} must be >= 1")
        if self.fix_t is None and self.fix_s is None:
            raise PopulationError("at least one of fix_t / fix_s must be given")
        cells = range(1, self.b + 1)
        for name, positions in (
            ("forced_nonnull", self.forced_nonnull),
            ("forced_null", self.forced_null),
            ("query_positions", self.query_positions),
        ):
            if any(p not in cells for p in positions):
                raise PopulationError(f"{name} {sorted(positions)} outside [1..{self.b}]")
        if self.forced_nonnull & self.forced_null:
            raise PopulationError("a position cannot be forced both null and non-null")


def _size_bound(spec: PopulationSpec) -> int:
    """Cheap upper bound on the population size (guard only)."""
    free = spec.b - len(spec.forced_nonnull) - len(spec.forced_null)
    if spec.fix_t is not None and spec.fix_s is not None:
        placements = comb(max(free, 0), max(spec.fix_t - len(spec.forced_nonnull), 0))
        splits = comb(max(spec.fix_s - 1, 0), max(spec.fix_s - spec.fix_t, 0))
        return placements * max(splits, 1)
    if spec.fix_s is not None:
        cells, s = spec.b - len(spec.forced_null), max(spec.fix_s, 0)
        return comb(cells + s - 1, s) if cells else 1
    return comb(max(free, 0), max(spec.fix_t - len(spec.forced_nonnull), 0))


def enumerate_population(spec: PopulationSpec) -> Iterator[tuple[int, ...]]:
    """Yield every compatible block vector exactly once.

    A member is a support -- its set of non-null positions, which holds every
    forced non-null position and no forced null one -- filled with values.
    ``fix_t`` fixes the support size; without it every size from 0 to
    min(b, s) is tried.  With ``fix_s`` the support is filled with every
    positive composition of s; without it values are unbounded, so the
    support is filled with ones, the 0/1 placement indicator that determines
    every count statistic.  Members come by support size, then by support
    (its sorted positions, lexicographically), then by values (lexicographically).
    """
    if _size_bound(spec) > MAX_POPULATION:
        raise PopulationError(
            f"population bound {_size_bound(spec)} exceeds cap {MAX_POPULATION}"
        )
    b, s, forced = spec.b, spec.fix_s, spec.forced_nonnull
    free = [p for p in range(1, b + 1) if p not in forced and p not in spec.forced_null]
    sizes = range(min(b, s) + 1) if spec.fix_t is None else (spec.fix_t,)
    for size in sizes:
        if size < len(forced):  # a negative fix_t too: an empty population
            continue
        for extra in combinations(free, size - len(forced)):
            support = sorted((*forced, *extra))
            for values in _fillings(size, s):
                vec = [0] * b
                for p, v in zip(support, values):
                    vec[p - 1] = v
                yield tuple(vec)


def _fillings(size: int, total: int | None) -> Iterator[tuple[int, ...]]:
    """The values of a support: all ones without a sum, else every positive
    composition of ``total`` into ``size`` parts, lexicographically (by cut points)."""
    if total is None:
        yield (1,) * size
    elif size == 0:
        if total == 0:
            yield ()
    elif total >= size:
        for cuts in combinations(range(1, total), size - 1):
            yield tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, total)))


def _stat_value(vec: Sequence[int], query: Iterable[int], stat: StatKind) -> int:
    if stat is StatKind.COUNT:
        return sum(1 for p in query if vec[p - 1] > 0)
    return sum(vec[p - 1] for p in query)


def _product_counts(specs: Sequence[PopulationSpec], stat: StatKind) -> dict[int, int]:
    """Members of the product of the block populations, per summed statistic value.

    Each block contributes the statistic over its own query positions; the
    product is enumerated outright, with no independence shortcut.
    """
    stat = StatKind(stat)
    if not specs:
        raise PopulationError("the product oracle needs at least one block")
    per_block = []
    size = 1
    for spec in specs:
        if stat is StatKind.SUM and spec.fix_s is None:
            raise PopulationError(
                "sum statistics are undefined on the count-only population (values unbounded)"
            )
        query = sorted(spec.query_positions)
        values = [_stat_value(vec, query, stat) for vec in enumerate_population(spec)]
        if not values:
            raise PopulationError(f"empty population for {spec}")
        per_block.append(values)
        size *= len(values)
    if size > MAX_POPULATION:
        raise PopulationError(f"product population {size} exceeds cap {MAX_POPULATION}")
    counts: dict[int, int] = {}
    for combo in product(*per_block):
        value = sum(combo)
        counts[value] = counts.get(value, 0) + 1
    return counts


def population_stats(
    spec: PopulationSpec, stat: StatKind
) -> tuple[Pmf, Fraction, Fraction]:
    """Exact empirical (pmf, mean, variance) of the statistic over the population."""
    pmf = Pmf.from_weights(_product_counts([spec], stat))
    return pmf, pmf.mean(), pmf.variance()


def two_block_population_stats(
    specs: Sequence[PopulationSpec], stat: StatKind
) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the summed statistic over a product population.

    The population is the Cartesian product of the per-block populations of
    one or more blocks, each contributing the statistic over its own query
    positions.  It is enumerated outright (no independence shortcut), so the
    result can audit the planner's additive composition; a product larger
    than ``MAX_POPULATION`` is refused before it is enumerated.
    """
    pmf = Pmf.from_weights(_product_counts(specs, stat))
    return pmf.mean(), pmf.variance()
