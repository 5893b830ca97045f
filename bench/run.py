#!/usr/bin/env python3
"""cubeprob benchmark: one closed-loop client per workload.

Run from the repository root:

    python3 bench/run.py --workload constrained-sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` records spans
around every call into a layer, writes them to ``bench/out/`` and reports
the per-layer metrics.  ``--workload all`` runs each workload in its own
process, one after another.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, the inputs and a
table of the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("constrained-sweep", "wide-range", "pmf-3d")


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "nproc": nproc,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "traced" if args.trace else "untraced",
    }


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")


def run_one_workload(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import harness
    import tracing
    from workloads import WORKLOADS

    inputs = WORKLOADS[args.workload](args.seed)
    spans_path = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    record, metrics = harness.run(inputs, args.seconds, bool(args.trace), spans_path)
    units = tracing.PER_LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    record["env"] = environment(args)
    print(json.dumps(record, sort_keys=True))
    print_table(
        f"{args.workload} seed={args.seed} {record['env']['mode']}: "
        f"{record['attempted']} queries sent, {record['failed']} failed; "
        f"{record['inputs']['queries']} distinct queries x {record['passes']} complete passes, "
        f"tail = p{record['tail_percentile']:g}",
        metrics,
        units,
    )
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (SRC / "cubeprob" / "__init__.py").is_file():
        print(f"bench: no cubeprob package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
