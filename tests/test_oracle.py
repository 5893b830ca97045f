from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeprob import (
    PopulationError,
    PopulationSpec,
    StatKind,
    enumerate_population,
    n_config_count,
    population_stats,
    q_config_count,
    two_block_population_stats,
)

F = Fraction


def test_enumerate_two_cell_sum_population():
    spec = PopulationSpec(b=2, fix_t=1, fix_s=2)
    assert list(enumerate_population(spec)) == [(2, 0), (0, 2)]


def test_enumerate_forced_nonnull_matches_config_count():
    spec = PopulationSpec(b=3, fix_t=2, fix_s=3, forced_nonnull=frozenset({1}))
    vectors = list(enumerate_population(spec))
    assert len(vectors) == n_config_count(3, 2, 3, 1) == 4
    assert all(v[0] >= 1 for v in vectors)


def test_enumerate_empty_block():
    spec = PopulationSpec(b=2, fix_t=0, fix_s=0)
    assert list(enumerate_population(spec)) == [(0, 0)]


def test_enumerate_no_duplicates_and_lexicographic():
    spec = PopulationSpec(b=3, fix_t=2, fix_s=4)
    vectors = list(enumerate_population(spec))
    assert len(set(vectors)) == len(vectors) == q_config_count(3, 2, 4)


def test_enumerate_is_deterministic():
    spec = PopulationSpec(b=4, fix_t=2, fix_s=5, forced_null=frozenset({2}))
    assert list(enumerate_population(spec)) == list(enumerate_population(spec))


def test_enumerate_size_matches_config_count_with_forced_cells():
    for b in range(1, 5):
        for t in range(0, b + 1):
            for s in range(t, 6):
                for nn in range(0, min(2, t) + 1):
                    for nz in range(0, min(2, b - nn) + 1):
                        spec = PopulationSpec(
                            b=b,
                            fix_t=t,
                            fix_s=s,
                            forced_nonnull=frozenset(range(1, nn + 1)),
                            forced_null=frozenset(range(nn + 1, nn + nz + 1)),
                        )
                        expected = n_config_count(b - nz, t, s, nn) if t >= nn else 0
                        assert sum(1 for _ in enumerate_population(spec)) == expected


def test_count_only_population_uses_placements():
    spec = PopulationSpec(b=4, fix_t=2, query_positions=frozenset({1, 2}))
    vectors = list(enumerate_population(spec))
    assert len(vectors) == 6
    assert all(sum(v) == 2 and set(v) <= {0, 1} for v in vectors)
    pmf, mean, variance = population_stats(spec, StatKind.COUNT)
    assert dict(pmf.support) == {0: F(1, 6), 1: F(2, 3), 2: F(1, 6)}
    assert mean == 1 and variance == F(1, 3)


def test_sum_stat_rejected_on_count_only_population():
    spec = PopulationSpec(b=4, fix_t=2, query_positions=frozenset({1}))
    with pytest.raises(PopulationError):
        population_stats(spec, StatKind.SUM)


def test_sum_only_population_stats():
    spec = PopulationSpec(b=2, fix_s=2, query_positions=frozenset({1}))
    pmf, mean, variance = population_stats(spec, StatKind.SUM)
    assert dict(pmf.support) == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}
    assert mean == 1 and variance == F(2, 3)


def test_forced_population_sum_stats():
    spec = PopulationSpec(
        b=3, fix_t=2, fix_s=3, forced_nonnull=frozenset({1}), query_positions=frozenset({1})
    )
    pmf, mean, variance = population_stats(spec, StatKind.SUM)
    assert dict(pmf.support) == {1: F(1, 2), 2: F(1, 2)}
    assert mean == F(3, 2) and variance == F(1, 4)


def test_population_cap():
    with pytest.raises(PopulationError):
        list(enumerate_population(PopulationSpec(b=60, fix_t=30, fix_s=90)))


def test_infeasible_population_is_reported():
    spec = PopulationSpec(b=2, fix_t=3, fix_s=3, query_positions=frozenset({1}))
    with pytest.raises(PopulationError):
        population_stats(spec, StatKind.COUNT)


def test_two_block_product_population():
    block = PopulationSpec(b=2, fix_t=1, fix_s=2, query_positions=frozenset({1}))
    mean, variance = two_block_population_stats([block, block], StatKind.SUM)
    assert mean == 2
    # each block contributes a uniform {0, 2} cell: variance 1 apiece
    assert variance == 2


def test_two_block_with_fully_covered_block():
    covered = PopulationSpec(b=2, fix_t=1, fix_s=5, query_positions=frozenset({1, 2}))
    partial = PopulationSpec(b=2, fix_t=1, fix_s=2, query_positions=frozenset({2}))
    mean, variance = two_block_population_stats([covered, partial], StatKind.SUM)
    assert mean == 5 + 1
    assert variance == 1


def test_two_block_empty_query():
    block = PopulationSpec(b=2, fix_t=1, fix_s=2)
    mean, variance = two_block_population_stats([block], StatKind.SUM)
    assert mean == 0 and variance == 0


def test_spec_validation():
    with pytest.raises(PopulationError):
        PopulationSpec(b=2)  # no aggregate fixed
    with pytest.raises(PopulationError):
        PopulationSpec(b=2, fix_t=1, forced_nonnull=frozenset({3}))
    with pytest.raises(PopulationError):
        PopulationSpec(b=2, fix_t=1, forced_nonnull=frozenset({1}), forced_null=frozenset({1}))


@st.composite
def population_specs(draw):
    b = draw(st.integers(1, 5), label="b")
    t = draw(st.none() | st.integers(-1, b + 1), label="fix_t")
    s = draw(st.integers(0, 6) if t is None else st.none() | st.integers(0, 6), label="fix_s")
    cells = st.sets(st.integers(1, b), max_size=2)
    forced_nonnull = draw(cells, label="forced_nonnull")
    forced_null = draw(cells.map(lambda c: c - forced_nonnull), label="forced_null")
    return PopulationSpec(
        b=b, fix_t=t, fix_s=s, forced_nonnull=forced_nonnull, forced_null=forced_null
    )


@settings(deadline=None, max_examples=300)
@given(population_specs())
def test_enumeration_is_the_filtered_value_grid(spec):
    """With s set, every natural vector of sum s that fits; count-only, every 0/1 placement."""
    vectors = list(enumerate_population(spec))
    assert len(set(vectors)) == len(vectors)
    grid = product(range(spec.fix_s + 1) if spec.fix_s is not None else (0, 1), repeat=spec.b)
    expected = {
        v for v in grid
        if (spec.fix_s is None or sum(v) == spec.fix_s)
        and (spec.fix_t is None or sum(1 for x in v if x) == spec.fix_t)
        and all(v[p - 1] > 0 for p in spec.forced_nonnull)
        and not any(v[p - 1] for p in spec.forced_null)
    }
    assert set(vectors) == expected


def test_sum_only_population_comes_by_support_size():
    spec = PopulationSpec(b=2, fix_s=2)
    assert list(enumerate_population(spec)) == [(2, 0), (0, 2), (1, 1)]


def test_negative_count_is_an_empty_population():
    spec = PopulationSpec(b=3, fix_t=-1, query_positions=frozenset({1}))
    assert list(enumerate_population(spec)) == []
    with pytest.raises(PopulationError, match="empty population"):
        population_stats(spec, StatKind.COUNT)


@pytest.mark.parametrize("fields", [
    {"b": True, "fix_t": 1},
    {"b": 2.0, "fix_t": 1},
    {"b": 3, "fix_t": False},
    {"b": 3, "fix_s": 1.0},
    {"b": 3, "fix_t": 1, "forced_nonnull": [True]},
    {"b": 3, "fix_t": 1, "forced_null": [1.0]},
    {"b": 3, "fix_t": 1, "query_positions": [True]},
])
def test_a_spec_refuses_bools_and_floats_for_integers(fields):
    with pytest.raises(PopulationError, match="must be integers"):
        PopulationSpec(**fields)


def test_product_of_three_blocks():
    block = PopulationSpec(b=2, fix_t=1, fix_s=2, query_positions=frozenset({1}))
    mean, variance = two_block_population_stats([block] * 3, StatKind.SUM)
    # three independent uniform {0, 2} cells
    assert mean == 3 and variance == 3


def test_product_oracle_refuses_no_blocks_and_oversized_products():
    with pytest.raises(PopulationError):
        two_block_population_stats([], StatKind.COUNT)
    block = PopulationSpec(b=8, fix_t=4)  # 70 placements; 70^4 passes the cap
    with pytest.raises(PopulationError, match="exceeds cap"):
        two_block_population_stats([block] * 4, StatKind.COUNT)
