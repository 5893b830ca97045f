"""Command-line surface: ingest cubes, summarize, query, experiment, oracle.

Exit codes: 0 success, 1 usage error, 2 data/consistency error.  All numeric
output is deterministic; floats are printed with 6 significant digits and
exact fractions are added with ``--exact-arith``.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import dataclass
from decimal import Context
from fractions import Fraction
from itertools import product
from math import isqrt, sqrt
from typing import Sequence

from .constraints import (
    ConstraintSet,
    detect_macroblocks,
    load_constraints,
    save_constraints,
)
from .core import (
    Datacube,
    Range,
    _load_json,
    _span,
    count_exact,
    load_cube,
    load_relation_csv,
    save_cube,
    sum_exact,
)
from .errors import CubeError, FactorError, PopulationError
from .estimators import Estimate
from .oracle import PopulationSpec, StatKind, population_stats
from .planner import QueryKind, QuerySpec, estimate
from .summary import (
    CompressionFactor,
    build_summary,
    decompose,
    load_summary,
    save_summary,
)

SIGMA_LEVELS = (3, 4, 5)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with status 1 (2 is for data errors).

    A word that starts with ``-`` and a digit, such as ``-1,5`` or
    ``-1:2,1:2``, is a value, not an option, so that bad values reach the
    data checks (exit 2) instead of failing as a missing argument.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse only counts plain negative numbers as values
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value, root: bool = False) -> str:
    """``value``, or its square root, as ``%.6g`` prints a float.

    Past the float range the exact value (never negative here) is rounded once
    instead: its integer part then has over 150 digits, so a nonzero remainder only
    breaks ties, and ``.5`` stands for it.
    """
    try:
        x = float(value)
        return f"{sqrt(x) if root else x:.6g}"
    except OverflowError:
        whole, rest = divmod(value.numerator, value.denominator)
        if root:
            whole, rest = isqrt(whole), rest or isqrt(whole) ** 2 != whole
        return f"{Context(prec=6).create_decimal(f'{whole}.5' if rest else whole).normalize():g}"


def _frac(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _parse_ints(text: str, what: str, sep: str = ",") -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.lower().split(sep))
    except ValueError:
        raise CubeError(f"cannot parse {what} from {text!r} (expected integers split by {sep!r})")


def _parse_range(text: str) -> Range:
    lo, hi = [], []
    try:
        for part in text.split(","):
            a, b = part.split(":")
            lo.append(int(a))
            hi.append(int(b))
        return Range(tuple(lo), tuple(hi))
    except ValueError as exc:
        raise CubeError(f"bad range {text!r} (expected e.g. '4:8,3:6'): {exc}")


# ---------------------------------------------------------------------------
# Experiment harness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRow:
    """Coverage of one (block shape, case, kind) sweep.

    ``within[k]`` counts queries whose actual absolute error is below
    k standard deviations; an error of exactly 0 always counts as covered,
    which keeps deterministic (sigma = 0) queries from being penalized.
    """

    block_shape: tuple[int, ...]
    case: int
    kind: str
    query_shape: tuple[int, ...]
    queries: int
    within: dict[int, int]

    def fraction(self, k: int) -> Fraction:
        return Fraction(self.within[k], self.queries)


def _sweep_queries(
    dims: Sequence[int], shape: Sequence[int], stride: Sequence[int]
) -> list[Range]:
    starts = [range(1, n - w + 2, st) for n, w, st in zip(dims, shape, stride)]
    return [
        Range(lo, tuple(l + w - 1 for l, w in zip(lo, shape))) for lo in product(*starts)
    ]


def run_experiment(
    cube: Datacube,
    block_shapes: Sequence[Sequence[int]],
    query_shape: Sequence[int],
    cases: Sequence[int],
    constraints: ConstraintSet | None = None,
    stride: Sequence[int] | None = None,
) -> list[ExperimentRow]:
    """Evaluate every aligned query of ``query_shape`` and tabulate k-sigma coverage.

    For each block shape the cube is summarized, each query is estimated per
    case and compared against the exact answer, and the fraction of queries
    with |error| < k*sigma is recorded for k in 3, 4, 5 (comparisons are done
    in exact arithmetic as error^2 < k^2 * variance).
    """
    if len(query_shape) != cube.ndim or any(w > n for w, n in zip(query_shape, cube.dims)):
        raise CubeError(f"query shape {tuple(query_shape)} does not fit cube dims {cube.dims}")
    stride = tuple(stride) if stride is not None else tuple(query_shape)
    if len(stride) != cube.ndim or min(*query_shape, *stride) < 1:
        raise CubeError(
            f"query shape {tuple(query_shape)} and stride {stride} need {cube.ndim} entries >= 1"
        )
    if not set(cases) <= {1, 2, 3}:
        raise CubeError(f"estimation cases must be 1, 2 or 3, got {tuple(cases)}")
    queries = _sweep_queries(cube.dims, query_shape, stride)
    exact_by_kind = {
        QueryKind.COUNT: [count_exact(cube, q) for q in queries],
        QueryKind.SUM: [sum_exact(cube, q) for q in queries],
    }
    rows = []
    for shape in block_shapes:
        factor = CompressionFactor.from_block_shape(cube.dims, shape)
        summary = build_summary(cube, factor)
        for case in cases:
            cs = constraints if case == 3 else None
            for kind in (QueryKind.COUNT, QueryKind.SUM):
                within = {k: 0 for k in SIGMA_LEVELS}
                for query, exact in zip(queries, exact_by_kind[kind]):
                    est = estimate(summary, cs, QuerySpec(query, kind, case))
                    err = abs(Fraction(exact) - est.mean)
                    for k in SIGMA_LEVELS:
                        if err == 0 or err * err < k * k * est.variance:
                            within[k] += 1
                rows.append(
                    ExperimentRow(
                        tuple(shape), case, kind.value, tuple(query_shape), len(queries), within
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_ingest(args) -> int:
    dims = _parse_ints(args.dims, "dims")
    if min(dims) < 1:
        raise CubeError(f"dims must be >= 1, got {args.dims!r}")
    cube = load_relation_csv(args.csv, dims)
    save_cube(cube, args.out)
    print(f"cube {cube.dims}: {len(cube.cells)} cells -> {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    cube = load_cube(args.cube)
    if args.boundaries:
        factor = _load_json(args.boundaries, CompressionFactor, FactorError, "boundaries")
        if factor.dims != cube.dims:
            raise CubeError(f"boundaries end at {factor.dims}, cube dims are {cube.dims}")
    else:
        factor = CompressionFactor.equal_width(cube.dims, _parse_ints(args.blocks, "blocks"))
    summary = build_summary(cube, factor)
    save_summary(summary, args.out)
    # from the factor and the columns: no checked block object per block
    blocks = zip(factor.block_indices(), factor.block_corners(), summary.counts, summary.sums)
    for index, (lo, hi), count, total in blocks:
        print(f"block {index} range {_span(lo, hi)}: count={count} sum={total}")
    print(f"summary ({factor.shape} blocks) -> {args.out}")
    return 0


def _estimate_payload(args, est: Estimate, exact: int | None) -> dict:
    payload: dict[str, object] = {
        "kind": args.kind,
        "case": args.case,
        "range": args.range,
        "mean": _fmt(est.mean),
        "variance": _fmt(est.variance),
        "stddev": _fmt(est.variance, root=True),
        "max_error": _fmt(est.max_error),
    }
    if args.exact_arith:
        payload["mean_exact"] = _frac(est.mean)
        payload["variance_exact"] = _frac(est.variance)
        payload["max_error_exact"] = _frac(est.max_error)
    if exact is not None:
        payload["exact"] = exact
        payload["actual_error"] = _fmt(abs(Fraction(exact) - est.mean))
    if est.pmf is not None:
        payload["pmf"] = {str(v): _frac(p) for v, p in est.pmf.support}
    return payload


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        row = dict(payload)
        if "pmf" in row:  # one cell: the value:probability pairs in support order
            row["pmf"] = " ".join(f"{v}:{p}" for v, p in row["pmf"].items())
        writer = csv.writer(sys.stdout)
        writer.writerow(row)
        writer.writerow(row.values())
    else:
        for key, value in payload.items():
            if key == "pmf":
                print("pmf:")
                for v, p in value.items():
                    print(f"  {v}: {p}")
            else:
                print(f"{key}: {value}")


def _cmd_query(args) -> int:
    summary = load_summary(args.summary)
    if args.detect_constraints is not None and not args.exact:
        print("cubeprob: error: --detect-constraints needs --exact CUBE to scan", file=sys.stderr)
        return 1
    cube = load_cube(args.exact) if args.exact else None
    if cube is not None and cube.dims != summary.dims:
        raise CubeError(f"--exact cube dims are {cube.dims}, summary dims are {summary.dims}")
    if args.detect_constraints is not None:
        cs = detect_macroblocks(cube, args.detect_constraints)
    else:
        cs = load_constraints(args.constraints) if args.constraints else None
    if args.case == 3 and cs is None:
        raise CubeError("case 3 needs --constraints or --detect-constraints")
    spec = QuerySpec(
        _parse_range(args.range),
        QueryKind(args.kind),
        args.case,
        want_pmf=args.pmf,
    )
    est = estimate(summary, cs, spec)
    exact = None
    if cube is not None:
        fn = count_exact if spec.kind is QueryKind.COUNT else sum_exact
        exact = fn(cube, spec.range)
    payload = _estimate_payload(args, est, exact)
    if spec.want_pmf and est.pmf is None:
        partial = len(decompose(summary, spec.range).partial)
        payload["pmf_omitted"] = f"{partial} blocks are partially covered; a pmf needs at most one"
    _emit(payload, args.format)
    return 0


def _cmd_experiment(args) -> int:
    cube = load_cube(args.cube)
    block_shapes = [_parse_ints(tok, "block shape", "x") for tok in args.block_sizes.split(",")]
    query_shape = _parse_ints(args.query_shape, "query shape", "x")
    cases = _parse_ints(args.cases, "cases")
    if args.constraints == "auto":
        cs = detect_macroblocks(cube, args.min_cells)
    elif args.constraints == "none":
        cs = ConstraintSet(())
    else:
        cs = load_constraints(args.constraints)
    stride = _parse_ints(args.stride, "stride", "x") if args.stride else None
    rows = run_experiment(cube, block_shapes, query_shape, cases, cs, stride)
    header = ["block", "case", "kind", "query", "queries"] + [f"lt{k}sigma" for k in SIGMA_LEVELS]
    out_rows = [
        [
            "x".join(str(w) for w in row.block_shape),
            row.case,
            row.kind,
            "x".join(str(w) for w in row.query_shape),
            row.queries,
            *(_fmt(row.fraction(k)) for k in SIGMA_LEVELS),
        ]
        for row in rows
    ]
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(out_rows)
    widths = [max(len(str(r[i])) for r in [header] + out_rows) for i in range(len(header))]
    for r in [header] + out_rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    return 0


_POPULATION_KEYS = ("b", "fix_t", "fix_s", "forced_nonnull", "forced_null", "query_positions", "stat")


def _population(payload) -> tuple[PopulationSpec, StatKind]:
    raw = dict(payload)
    unknown = sorted(raw.keys() - set(_POPULATION_KEYS))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; a spec takes {', '.join(_POPULATION_KEYS)}")
    spec = PopulationSpec(
        b=raw["b"],
        fix_t=raw.get("fix_t"),
        fix_s=raw.get("fix_s"),
        forced_nonnull=frozenset(raw.get("forced_nonnull", [])),
        forced_null=frozenset(raw.get("forced_null", [])),
        query_positions=frozenset(raw.get("query_positions", [])),
    )
    return spec, StatKind(raw.get("stat", "count"))


def _cmd_oracle(args) -> int:
    spec, stat = _load_json(args.spec, _population, PopulationError, "population spec")
    pmf, mean, variance = population_stats(spec, stat)
    print(f"stat: {stat.value}")
    print(f"mean: {_frac(mean)}")
    print(f"variance: {_frac(variance)}")
    print("pmf:")
    for v, p in pmf.support:
        print(f"  {v}: {_frac(p)}")
    return 0


def _cmd_detect(args) -> int:
    cube = load_cube(args.cube)
    cs = detect_macroblocks(cube, args.min_cells)
    save_constraints(cs, args.out)
    for m in cs.blocks:
        print(f"{m.kind.value} {m.range} ({m.range.size} cells)")
    print(f"{len(cs)} macro-blocks -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubeprob", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="densify a CSV relation into a cube file")
    p.add_argument("csv")
    p.add_argument("--dims", required=True, help="cube dimensions, e.g. 10,6")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("summarize", help="build a block summary from a cube")
    p.add_argument("cube")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--blocks", help="equal-width block counts per dimension, e.g. 3,2")
    group.add_argument("--boundaries", help="JSON file with per-dimension boundary arrays")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("query", help="estimate a count/sum range query from a summary")
    p.add_argument("summary")
    p.add_argument("--range", required=True, help="per-dimension lo:hi, e.g. 4:8,3:6")
    p.add_argument("--kind", choices=["count", "sum"], required=True)
    p.add_argument("--case", type=int, choices=[1, 2, 3], default=2)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--constraints", help="JSON macro-block constraints file")
    group.add_argument(
        "--detect-constraints", type=int, metavar="MIN_CELLS",
        help="detect macro-blocks from the --exact cube instead of loading a file",
    )
    p.add_argument("--pmf", action="store_true", help="print the distribution (single partial block)")
    p.add_argument("--exact", metavar="CUBE", help="also answer exactly from this cube file")
    p.add_argument("--exact-arith", action="store_true", help="print exact fractions")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("experiment", help="sweep aligned queries and tabulate k-sigma coverage")
    p.add_argument("cube")
    p.add_argument("--block-sizes", required=True, help="comma list of block shapes, e.g. 10x10,20x20")
    p.add_argument("--query-shape", required=True, help="query shape, e.g. 20x10")
    p.add_argument("--cases", default="1,2,3")
    p.add_argument("--constraints", default="none", help="auto | none | FILE")
    p.add_argument("--min-cells", type=int, default=20, help="macro-block detection threshold")
    p.add_argument("--stride", help="sweep stride, defaults to the query shape")
    p.add_argument("--out", help="also write the table as CSV")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("oracle", help="enumerate a block population and print its statistics")
    p.add_argument("--spec", required=True, help="JSON population spec")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("detect", help="extract macro-block constraints from a cube")
    p.add_argument("cube")
    p.add_argument("--min-cells", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_detect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except OSError as exc:  # a missing file, a directory where a file belongs, ...
        print(f"cubeprob: error: {exc}", file=sys.stderr)
        return 1
    except CubeError as exc:
        print(f"cubeprob: error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"cubeprob: error: malformed JSON input: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        print(f"cubeprob: error: input is not UTF-8 text: byte 0x{byte:02x} ({exc.reason})", file=sys.stderr)
        return 2


def entrypoint() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
