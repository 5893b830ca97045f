"""Self-tests of the benchmark: run with ``python -m pytest -q bench``."""

from __future__ import annotations

import importlib.util
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

import cubeprob.planner as planner
from cubeprob.constraints import bound_tuple, validate
from cubeprob.core import read_relation_csv

import harness
import tracing
from workloads import WORKLOADS, constrained_sweep, relation_text, sparse_cube_cells

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, traced):
    inputs = WORKLOADS[name](0, small=True)
    record, metrics = harness.run(inputs, 0.0, traced)
    units = tracing.PER_LAYER_UNITS if traced else harness.END_TO_END_UNITS
    assert metrics.keys() == units.keys()
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    assert record["failed"] == 0
    assert record["attempted"] >= len(inputs.queries)
    if not traced:
        assert all(metrics[m] > 0 for m in units)


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_traced_run_restores_planner_bindings():
    harness.run(constrained_sweep(0, small=True), 0.0, True)
    assert planner.validate is validate
    assert planner.bound_tuple is bound_tuple


def test_checker_fails_a_mean_shifted_past_max_error():
    inputs = constrained_sweep(0, small=True)
    state = harness.setup(inputs, harness.API)

    def corrupted(summary, cs, spec):
        est = harness.API["estimate"](summary, cs, spec)
        return replace(est, mean=est.mean + 2 * est.max_error + 1)

    honest = harness.query_runner(state, harness.API)
    broken = harness.query_runner(state, {**harness.API, "estimate": corrupted})
    loop = harness.closed_loop(inputs.queries, (honest, broken), 0.0)
    assert [len(d) for d in loop.durations] == [len(inputs.queries)] * 2
    assert loop.failed == len(inputs.queries)


def test_checker_fails_a_pmf_that_disagrees_with_the_moments():
    inputs = WORKLOADS["pmf-3d"](0, small=True)
    state = harness.setup(inputs, harness.API)
    query = inputs.queries[0]
    est, exact, ok = harness.query_runner(state, harness.API)(query)
    assert ok
    assert not harness.check(query, replace(est, variance=est.variance + 1), exact)


def test_seed_zero_cube_is_make_sparse_cube():
    spec = importlib.util.spec_from_file_location("_cubeprob_test_fixtures", ROOT / "tests" / "conftest.py")
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    expected = fixtures.make_sparse_cube()
    assert tuple(sparse_cube_cells(200, 60, 0)) == expected.cells
    inputs = constrained_sweep(0)
    assert read_relation_csv(io.StringIO(inputs.text), inputs.dims) == expected
    assert sparse_cube_cells(200, 60, 1) != list(expected.cells)


def test_inputs_depend_on_the_seed_alone():
    for name, build in WORKLOADS.items():
        assert build(3, small=True) == build(3, small=True), name
        assert build(3, small=True).queries != build(4, small=True).queries, name


def test_relation_text_lists_non_null_cells():
    assert relation_text((2, 2), [0, 5, 3, 0]) == "d1,d2,value\n1,2,5\n2,1,3\n"


def test_per_query_median_takes_every_sample_of_a_query():
    # two queries: two complete passes and a partial third
    assert harness.per_query_median([9.0, 1.0, 3.0, 2.0, 5.0], 2) == [5.0, 1.5]


def test_local_scale_divides_the_floor_by_the_nearby_reference_mean():
    refs = [1.0, 1.0, 3.0, 3.0, 3.0]
    assert harness.local_scale(refs, 1.0, window=0) == [1.0, 1.0, 1 / 3, 1 / 3, 1 / 3]
    assert harness.local_scale(refs, 1.0, window=1) == [1.0, 3 / 5, 3 / 7, 1 / 3, 1 / 3]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert harness.tail_percentile(672) == 98.0
    assert harness.tail_percentile(240) == 95.0
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
