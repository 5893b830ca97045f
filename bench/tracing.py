"""Spans around the calls into each cubeprob layer, and the per-layer metrics.

Only a traced run uses this module.  It wraps the functions the benchmark
calls (ingest, summaries, detection, ``estimate``, the exact answers) and
the functions ``cubeprob.planner`` binds at import (``validate``,
``bound_tuple``, ``decompose`` and the six estimators).  Each call records a
span ``[name, start, end, parent, query_id, detail]`` in memory; nothing is
computed inside a span beyond what the wrapped function does, and details
that cost time to derive (macro-block overlaps, cell counts) are worked out
from stored references after the run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import cubeprob.planner as planner
from cubeprob.constraints import ConstraintSet
from cubeprob.core import Range

LAYERS = ("core", "summary", "constraints", "estimators", "planner")
QUERY = "bench.query"
ESTIMATORS = ("count_case1", "count_case2", "count_case3", "sum_case1", "sum_case2", "sum_case3")

# Per-layer metrics the traced run reports, with units; every one is reported
# even when its layer made no call, so removed work reads as 0.
PER_LAYER_UNITS = {
    "constraints.validate.ms_per_query": "ms",
    "constraints.validate.calls_per_query": "count",
    "constraints.validate.useful_ratio": "ratio",
    "constraints.bound_tuple.ms_per_call": "ms",
    "constraints.bound_tuple.hit_ratio": "ratio",
    "constraints.detect.s": "s",
    "constraints.detect.macroblocks": "count",
    "constraints.detect.located_null_frac": "ratio",
    "core.read_relation_csv.s": "s",
    "summary.build_summary.s": "s",
    "core.exact.ms_per_call": "ms",
    "core.exact.cells_per_call": "count",
    "summary.decompose.ms_per_call": "ms",
    "summary.decompose.blocks_per_query": "count",
    "summary.decompose.partial_per_query": "count",
    "planner.estimate.self_ms_per_call": "ms",
    "estimators.moments.ms_per_call": "ms",
    "estimators.pmf.ms_per_call": "ms",
    "estimators.pmf.support_per_call": "count",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}

SPAN_FIELDS = ["name", "start", "end", "parent", "query_id", "detail"]


PLANNER_BINDINGS = ("validate", "bound_tuple", "decompose", *ESTIMATORS)


class Tracer:
    """In-memory span recorder around the benchmark's calls and the planner's bindings.

    ``api`` holds traced copies of the benchmark's calls.  The planner's own
    calls are traced only inside ``planner_patched()``.  ``query_id`` is
    stamped on every span: the query's ordinal for spans of a query,
    ``-(r + 1)`` for spans of set-up repetition ``r``.
    """

    def __init__(self, api: dict[str, Callable]) -> None:
        self.spans: list[list] = []
        self.query_id = -1
        self._stack: list[int] = []
        self._next_query = 0
        self._plain = {name: getattr(planner, name) for name in PLANNER_BINDINGS}
        self._traced = {
            "validate": self.wrap("constraints.validate", self._plain["validate"], _note_validate),
            "bound_tuple": self.wrap("constraints.bound_tuple", self._plain["bound_tuple"], _note_args),
            "decompose": self.wrap("summary.decompose", self._plain["decompose"], _note_decompose),
            **{
                name: self.wrap("estimators.moments", self._plain[name], _note_estimator)
                for name in ESTIMATORS
            },
        }
        self.api = {
            "read_relation_csv": self.wrap("core.read_relation_csv", api["read_relation_csv"]),
            "build_summary": self.wrap("summary.build_summary", api["build_summary"]),
            "detect_macroblocks": self.wrap("constraints.detect", api["detect_macroblocks"]),
            "estimate": self.wrap("planner.estimate", api["estimate"]),
            "count_exact": self.wrap("core.exact", api["count_exact"], _note_args),
            "sum_exact": self.wrap("core.exact", api["sum_exact"], _note_args),
        }

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``note(span, args, result)`` fills the detail."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                note(span, args, result)
            return result

        return traced

    def wrap_query(self, fn: Callable) -> Callable:
        """``fn`` as the root span of one query, with a fresh query id."""
        inner = self.wrap(QUERY, fn)

        def traced(*args):
            self.query_id = self._next_query
            self._next_query += 1
            return inner(*args)

        return traced

    @contextmanager
    def planner_patched(self) -> Iterator[None]:
        """The planner calls the traced bindings until exit, then its own again."""
        for name, fn in self._traced.items():
            setattr(planner, name, fn)
        try:
            yield
        finally:
            for name, fn in self._plain.items():
                setattr(planner, name, fn)

    def write(self, path: Path) -> None:
        """Write the spans as JSON; details that hold object references become null."""
        rows = [s[:5] + [s[5] if _json_safe(s[5]) else None] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": rows}))


def _json_safe(detail) -> bool:
    if isinstance(detail, tuple):
        return all(isinstance(x, int) for x in detail)
    return isinstance(detail, int)


def _note_validate(span: list, args: tuple, result) -> None:
    span[5] = (id(args[0]), id(args[1]))


def _note_args(span: list, args: tuple, result) -> None:
    span[5] = args


def _note_decompose(span: list, args: tuple, result) -> None:
    span[5] = (len(result.total), len(result.partial))


def _note_estimator(span: list, args: tuple, result) -> None:
    if result.pmf is not None:
        span[0] = "estimators.pmf"
        span[5] = len(result.pmf.support)


def _macro_hits(cs: ConstraintSet, block: Range) -> int:
    return sum(1 for m in cs.blocks if m.range.intersect(block) is not None)


def layer_metrics(
    tracer: Tracer, queries: int, overhead_frac: float, macroblocks: int, located_null_frac: float
) -> dict[str, float]:
    """Per-layer metrics from the recorded spans of ``queries`` traced queries."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    time_of: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_of_layer: dict[str, float] = defaultdict(float)
    setup_time: dict[tuple[str, int], float] = defaultdict(float)
    query_time = planner_self = 0.0
    validated: set[tuple[int, int]] = set()
    hits = scanned = cells = blocks = partial = support = 0
    hit_cache: dict[tuple[int, Range], int] = {}
    for index, (name, start, end, _, query_id, detail) in enumerate(spans):
        duration = end - start
        if query_id < 0:
            setup_time[(name, query_id)] += duration
            continue
        time_of[name] += duration
        calls[name] += 1
        self_time = duration - child_time[index]
        self_of_layer[name.split(".", 1)[0]] += self_time
        if name == QUERY:
            query_time += duration
        elif name == "planner.estimate":
            planner_self += self_time
        elif name == "constraints.validate":
            validated.add(detail)
        elif name == "constraints.bound_tuple":
            cs, block = detail[0], detail[1]
            key = (id(cs), block)
            if key not in hit_cache:
                hit_cache[key] = _macro_hits(cs, block)
            hits += hit_cache[key]
            scanned += len(cs)
        elif name == "core.exact":
            cells += detail[1].size
        elif name == "summary.decompose":
            blocks += detail[0] + detail[1]
            partial += detail[1]
        elif name == "estimators.pmf":
            support += detail

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    def setup_median(name: str) -> float:
        reps = sorted({q for _, q in setup_time})
        return statistics.median(setup_time.get((name, q), 0.0) for q in reps) if reps else 0.0

    ms = 1000.0
    return {
        "constraints.validate.ms_per_query": per(time_of["constraints.validate"] * ms, queries),
        "constraints.validate.calls_per_query": per(calls["constraints.validate"], queries),
        "constraints.validate.useful_ratio": per(len(validated), calls["constraints.validate"]),
        "constraints.bound_tuple.ms_per_call": per(time_of["constraints.bound_tuple"] * ms, calls["constraints.bound_tuple"]),
        "constraints.bound_tuple.hit_ratio": per(hits, scanned),
        "constraints.detect.s": setup_median("constraints.detect"),
        "constraints.detect.macroblocks": macroblocks,
        "constraints.detect.located_null_frac": located_null_frac,
        "core.read_relation_csv.s": setup_median("core.read_relation_csv"),
        "summary.build_summary.s": setup_median("summary.build_summary"),
        "core.exact.ms_per_call": per(time_of["core.exact"] * ms, calls["core.exact"]),
        "core.exact.cells_per_call": per(cells, calls["core.exact"]),
        "summary.decompose.ms_per_call": per(time_of["summary.decompose"] * ms, calls["summary.decompose"]),
        "summary.decompose.blocks_per_query": per(blocks, queries),
        "summary.decompose.partial_per_query": per(partial, queries),
        "planner.estimate.self_ms_per_call": per(planner_self * ms, calls["planner.estimate"]),
        "estimators.moments.ms_per_call": per(time_of["estimators.moments"] * ms, calls["estimators.moments"]),
        "estimators.pmf.ms_per_call": per(time_of["estimators.pmf"] * ms, calls["estimators.pmf"]),
        "estimators.pmf.support_per_call": per(support, calls["estimators.pmf"]),
        **{f"{layer}.self_share": per(self_of_layer[layer], query_time) for layer in LAYERS},
        "trace.overhead_frac": overhead_frac,
    }
