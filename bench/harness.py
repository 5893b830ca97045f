"""Set-up, the closed query loop, the correctness check and the metrics.

One client sends the workload's queries one after another from this
process; the next query starts only when the previous one has returned.
A query is the per-query work of ``cubeprob query --exact``: ``estimate``,
the exact answer from ``count_exact``/``sum_exact``, and the check below.
"""

from __future__ import annotations

import gc
import hashlib
import io
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from cubeprob import (
    CompressionFactor,
    ConstraintSet,
    Estimate,
    MacroKind,
    QueryKind,
    build_summary,
    count_exact,
    detect_macroblocks,
    estimate,
    sum_exact,
)
from cubeprob.core import Datacube, read_relation_csv

from tracing import Tracer, layer_metrics
from workloads import Inputs, Query

SETUP_REPEATS = 5
MIN_PASSES = 3
# References on each side of a query that give the host's speed during it,
# and references run before each set-up and after the last.
REFERENCE_WINDOW = 50
REFERENCE_BURST = 200

# The unit of each end-to-end metric an untraced run reports.
END_TO_END_UNITS = {
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
    "coverage_3sigma": "ratio",
}

# Tail percentiles tried from the highest down; the first with at least ten
# of the workload's distinct queries beyond it is reported.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

API = {
    "read_relation_csv": read_relation_csv,
    "build_summary": build_summary,
    "detect_macroblocks": detect_macroblocks,
    "estimate": estimate,
    "count_exact": count_exact,
    "sum_exact": sum_exact,
}


@dataclass
class State:
    """What set-up hands to the queries."""

    cube: Datacube
    summaries: list
    constraints: ConstraintSet | None


def setup(inputs: Inputs, api: dict[str, Callable]) -> State:
    """Relation text to summaries (and macro-blocks) ready for queries."""
    cube = api["read_relation_csv"](io.StringIO(inputs.text), inputs.dims)
    summaries = [
        api["build_summary"](cube, CompressionFactor.from_block_shape(inputs.dims, shape))
        for shape in inputs.block_shapes
    ]
    cs = None
    if inputs.min_cells is not None:
        cs = api["detect_macroblocks"](cube, inputs.min_cells)
    return State(cube, summaries, cs)


def reference() -> Fraction:
    """A fixed piece of pure-Python rational arithmetic that probes the host's speed.

    An untraced run times it after every query and around every set-up.
    It runs none of cubeprob's code, so a change to the program leaves its
    time alone; only the host's state moves it.
    """
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i)
    return total


def timed_references(count: int) -> list[float]:
    times = []
    for _ in range(count):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return times


def local_scale(refs: list[float], floor: float, window: int = REFERENCE_WINDOW) -> list[float]:
    """Per sample, ``floor`` over the mean reference time of the samples around it.

    ``refs[j]`` is the reference timed right after sample ``j``; the mean
    is over the ``window`` samples on each side and sample ``j`` itself.
    """
    prefix = [0.0]
    for r in refs:
        prefix.append(prefix[-1] + r)
    n = len(refs)
    scales = []
    for j in range(n):
        lo, hi = max(0, j - window), min(n, j + window + 1)
        scales.append(floor * (hi - lo) / (prefix[hi] - prefix[lo]))
    return scales


def check(query: Query, est: Estimate, exact: int) -> bool:
    """The exact answer lies within mean +- max_error; a pmf agrees with the moments.

    The pmf's mean and variance are recomputed here from its support, and the
    exact answer must be one of its support values.
    """
    exact = Fraction(exact)
    if abs(exact - est.mean) > est.max_error:
        return False
    if not query.spec.want_pmf:
        return True
    if est.pmf is None:
        return False
    support = est.pmf.support
    mean = sum((p * v for v, p in support), Fraction(0))
    variance = sum((p * (v - mean) ** 2 for v, p in support), Fraction(0))
    return mean == est.mean and variance == est.variance and any(v == exact for v, _ in support)


def within_3sigma(est: Estimate, exact: int) -> bool:
    """``run_experiment``'s coverage test at k = 3; zero error always counts."""
    err = abs(Fraction(exact) - est.mean)
    return err == 0 or err * err < 9 * est.variance


def query_runner(state: State, api: dict[str, Callable]) -> Callable[[Query], tuple[Estimate, int, bool]]:
    estimate_fn = api["estimate"]
    exact_fns = {QueryKind.COUNT: api["count_exact"], QueryKind.SUM: api["sum_exact"]}
    cube, summaries, cs = state.cube, state.summaries, state.constraints

    def run_one(query: Query) -> tuple[Estimate, int, bool]:
        spec = query.spec
        est = estimate_fn(summaries[query.shape], cs if spec.case == 3 else None, spec)
        exact = exact_fns[spec.kind](cube, spec.range)
        return est, exact, check(query, est, exact)

    return run_one


@dataclass
class Loop:
    """Outcome of one closed loop: per runner, the time of every query it ran."""

    durations: list[list[float]]
    references: list[float] = field(default_factory=list)
    failed: int = 0
    covered: int = 0
    digest: str = ""


def closed_loop(
    queries: tuple[Query, ...],
    runners: tuple[Callable, ...],
    budget_s: float,
    passes: int = 1,
    probe: bool = False,
) -> Loop:
    """Send the queries in order, cycling, until ``budget_s`` has passed and ``passes`` are complete.

    With two runners every query goes through both, alternating which goes
    first, so both see the same state of the machine.  With ``probe`` the
    reference is timed after every query.  Coverage and the answer digest
    are taken over the first pass, which every run completes, so they
    depend on the inputs alone.
    """
    out = Loop([[] for _ in runners])
    digest = hashlib.sha256()
    n = len(queries)
    i = 0
    start = perf_counter()
    while i < passes * n or perf_counter() - start < budget_s:
        query = queries[i % n]
        order = range(len(runners)) if i % 2 == 0 else reversed(range(len(runners)))
        for r in order:
            t0 = perf_counter()
            try:
                est, exact, ok = runners[r](query)
            except Exception:  # a query that raises fails; the client goes on
                if out.failed < 3:
                    traceback.print_exc(file=sys.stderr)
                est, ok = None, False
            out.durations[r].append(perf_counter() - t0)
            out.failed += not ok
            if r == 0 and i < n:
                if est is None:
                    digest.update(b"error\n")
                else:
                    digest.update(f"{est.mean} {est.variance} {est.max_error}\n".encode())
                    out.covered += within_3sigma(est, exact)
        if probe:
            t0 = perf_counter()
            reference()
            out.references.append(perf_counter() - t0)
        i += 1
    out.digest = digest.hexdigest()
    return out


def per_query_median(times: list[float], n: int) -> list[float]:
    """Each of the n queries' median time; sample j is query j mod n."""
    return [statistics.median(times[q::n]) for q in range(n)]


def tail_percentile(distinct: int) -> float:
    return next((p for p in TAIL_LADDER if distinct * (100 - p) / 100 >= 10), 50.0)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def located_null_frac(cube: Datacube, cs: ConstraintSet | None) -> float:
    """Share of the cube's null cells that lie in an all-null macro-block."""
    if cs is None:
        return 0.0
    nulls = sum(1 for v in cube.cells if v == 0)
    if not nulls:
        return 0.0
    located = sum(m.range.size for m in cs.blocks if m.kind is MacroKind.ALL_NULL)
    return located / nulls


def repeated_setup(
    inputs: Inputs, api: dict[str, Callable], tracer: Tracer | None, probe: bool = False
) -> tuple[State, list[float], list[list[float]]]:
    """Set up ``SETUP_REPEATS`` times.

    Returns the last state, every set-up time and, with ``probe``, the
    reference times of the bursts run before each set-up and after the
    last (set-up ``r`` lies between bursts ``r`` and ``r + 1``).
    """
    times, bursts = [], []
    for r in range(SETUP_REPEATS):
        if tracer:
            tracer.query_id = -(r + 1)
        gc.collect()
        if probe:
            bursts.append(timed_references(REFERENCE_BURST))
        t0 = perf_counter()
        state = setup(inputs, api)
        times.append(perf_counter() - t0)
    if probe:
        bursts.append(timed_references(REFERENCE_BURST))
    gc.collect()
    return state, times, bursts


def run(inputs: Inputs, seconds: float, traced: bool, spans_path: Path | None = None) -> tuple[dict, dict[str, float]]:
    """Run one workload for ``seconds``; returns (record, metrics).

    Untraced, nothing is installed, the reference is timed around every
    set-up and after every query, and the metrics are the end-to-end ones,
    scaled to the host's uncontended speed.  Traced, set-up goes through
    traced calls, and each query is sent once untraced and once with every
    layer call recorded as a span; the paired times give the tracing
    overhead, the spans the per-layer metrics.
    """
    n = len(inputs.queries)
    tracer = Tracer(API) if traced else None
    state, setup_times, bursts = repeated_setup(inputs, tracer.api if tracer else API, tracer, not traced)
    plain = query_runner(state, API)
    if tracer:
        traced_one = tracer.wrap_query(query_runner(state, tracer.api))

        def traced_run(query: Query):
            with tracer.planner_patched():
                return traced_one(query)

        loop = closed_loop(inputs.queries, (plain, traced_run), seconds)
    else:
        loop = closed_loop(inputs.queries, (plain,), seconds, MIN_PASSES, probe=True)

    cs = state.constraints
    durations = loop.durations[0]
    record = {
        "inputs": inputs.record(),
        "macroblocks": len(cs) if cs is not None else 0,
        "located_null_frac": located_null_frac(state.cube, cs),
        "answers_sha256": loop.digest,
        "passes": len(durations) // n,
        "tail_percentile": tail_percentile(n),
        "attempted": sum(len(d) for d in loop.durations),
        "failed": loop.failed,
    }
    if tracer:
        if spans_path is not None:
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path)
        overhead = sum(loop.durations[1]) / sum(durations) - 1
        return record, layer_metrics(
            tracer, len(loop.durations[1]), overhead, record["macroblocks"], record["located_null_frac"]
        )

    # Times at the host's uncontended speed: each sample scaled by the fastest
    # reference of the run over the mean reference around it.
    refs = loop.references
    floor = min(min(refs), *(min(b) for b in bursts))
    scaled = [t * k for t, k in zip(durations, local_scale(refs, floor))]
    setup_scaled = [
        t * floor / statistics.mean(before + after)
        for t, before, after in zip(setup_times, bursts, bursts[1:])
    ]
    query_ms = [t * 1000 for t in per_query_median(scaled, n)]
    record["host"] = {
        "reference_floor_ms": floor * 1000,
        "slowdown": statistics.mean(refs) / floor,
        "unscaled_query_p50_ms": statistics.median(per_query_median(durations, n)) * 1000,
        "unscaled_queries_per_s": len(durations) / sum(durations),
        "unscaled_setup_s": statistics.median(setup_times),
    }
    return record, {
        "query_p50_ms": statistics.median(query_ms),
        "query_tail_ms": percentile(query_ms, record["tail_percentile"]),
        "queries_per_s": len(scaled) / sum(scaled),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_frac": (record["attempted"] - loop.failed) / record["attempted"],
        "coverage_3sigma": loop.covered / n,
    }
