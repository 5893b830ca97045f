import csv
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import cubeprob
from cubeprob import QueryKind, QuerySpec, Range, estimate
from cubeprob.summary import load_summary
from cubeprob.cli import _fmt, main
from cubeprob.core import load_cube

from conftest import REFERENCE_ROWS


def write_reference_csv(path, header=True):
    lines = ["d1,d2,value"] if header else []
    for i, row in enumerate(REFERENCE_ROWS, start=1):
        for j, v in enumerate(row, start=1):
            if v:
                lines.append(f"{i},{j},{v}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def reference_files(tmp_path):
    csv_path = tmp_path / "relation.csv"
    write_reference_csv(csv_path)
    cube_path = tmp_path / "cube.json"
    assert main(["ingest", str(csv_path), "--dims", "10,6", "--out", str(cube_path)]) == 0
    boundaries = tmp_path / "boundaries.json"
    boundaries.write_text("[[0,3,7,10],[0,4,6]]")
    summary_path = tmp_path / "summary.json"
    assert main([
        "summarize", str(cube_path), "--boundaries", str(boundaries), "--out", str(summary_path)
    ]) == 0
    constraints_path = tmp_path / "constraints.json"
    constraints_path.write_text(json.dumps({
        "macro_blocks": [
            {"lo": [4, 1], "hi": [6, 1], "kind": "all_null"},
            {"lo": [5, 2], "hi": [5, 2], "kind": "all_nonnull"},
        ]
    }))
    return cube_path, summary_path, constraints_path


def test_ingest_and_summarize_report_block_aggregates(reference_files, capsys):
    capsys.readouterr()
    cube_path, summary_path, _ = reference_files
    cube = load_cube(str(cube_path))
    assert cube.dims == (10, 6)
    assert main([
        "summarize", str(cube_path), "--boundaries",
        str(summary_path.parent / "boundaries.json"), "--out", str(summary_path)
    ]) == 0
    out = capsys.readouterr().out
    assert "block (1, 1) range 1:3,1:4: count=8 sum=26" in out
    assert "block (1, 2) range 1:3,5:6: count=5 sum=29" in out


def test_ingest_empty_csv_gives_all_null(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("")
    out = tmp_path / "cube.json"
    assert main(["ingest", str(csv_path), "--dims", "2,2", "--out", str(out)]) == 0
    assert load_cube(str(out)).cells == (0, 0, 0, 0)


def test_ingest_bad_coordinate_names_line(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("1,1,5\n0,2,1\n")
    rc = main(["ingest", str(csv_path), "--dims", "2,2", "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("dims", ["0,5", "-1,5"], ids=["zero", "negative"])
@pytest.mark.parametrize("text", ["", "1,1,3\n"], ids=["empty", "one-row"])
def test_ingest_non_positive_dims_exits_2(tmp_path, capsys, text, dims):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(text)
    # "--dims=" keeps argparse from reading "-1,5" as an option
    rc = main(["ingest", str(csv_path), f"--dims={dims}", "--out", str(tmp_path / "c.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cubeprob: error: ") and err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()


def test_ingest_of_an_unreadable_record_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("1,1,5\n1,2," + "7" * 140_000 + "\n")
    rc = main(["ingest", str(csv_path), "--dims", "2,2", "--out", str(tmp_path / "c.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cubeprob: error: line 2: ") and err.count("\n") == 1
    assert "777" not in err
    assert not (tmp_path / "c.json").exists()


def test_ingest_dash_value_is_data_not_option(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("1,1,3\n")
    rc = main(["ingest", str(csv_path), "--dims", "-1,5", "--out", str(tmp_path / "c.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cubeprob: error: ") and err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()


def test_summarize_one_block(reference_files, tmp_path, capsys):
    cube_path, _, _ = reference_files
    out = tmp_path / "one.json"
    assert main(["summarize", str(cube_path), "--blocks", "1,1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "count=32 sum=111" in text  # whole-cube aggregates


@pytest.mark.parametrize("dims, blocks", [((7,), "3"), ((10, 6), "3,2"), ((4, 3, 5), "2,2,3")], ids=["1-D", "2-D", "3-D"])
def test_summarize_prints_every_block_without_building_block_objects(tmp_path, capsys, monkeypatch, dims, blocks):
    from cubeprob.core import Datacube, save_cube
    from cubeprob.summary import CompressedDatacube

    cells = [(7 * i) % 5 for i in range(1, prod(dims) + 1)]
    save_cube(Datacube(dims, tuple(cells)), str(tmp_path / "cube.json"))
    out = tmp_path / "summary.json"

    def no_blocks(self):
        raise AssertionError("summarize built the block objects")

    with monkeypatch.context() as patch:
        patch.setattr(CompressedDatacube, "blocks", property(no_blocks))
        assert main(["summarize", str(tmp_path / "cube.json"), "--blocks", blocks, "--out", str(out)]) == 0
    summary = load_summary(str(out))
    expected = [f"block {blk.index} range {blk.range}: count={blk.count} sum={blk.sum}" for blk in summary.blocks]
    expected.append(f"summary ({summary.factor.shape} blocks) -> {out}")
    assert capsys.readouterr().out.splitlines() == expected


def test_summarize_rejects_short_boundaries(reference_files, tmp_path, capsys):
    cube_path, _, _ = reference_files
    bad = tmp_path / "bad_bounds.json"
    bad.write_text("[[0,3,9],[0,4,6]]")
    rc = main(["summarize", str(cube_path), "--boundaries", str(bad), "--out", str(tmp_path / "s.json")])
    assert rc == 2
    assert "boundaries end at" in capsys.readouterr().err


def test_query_total_block_is_exact(reference_files, capsys):
    cube_path, summary_path, _ = reference_files
    rc = main([
        "query", str(summary_path), "--range", "1:3,1:4", "--kind", "sum",
        "--case", "2", "--exact", str(cube_path), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"] == "26"
    assert payload["variance"] == "0"
    assert payload["exact"] == 26
    assert payload["actual_error"] == "0"


def test_query_constrained_count_support(reference_files, capsys):
    _, summary_path, constraints_path = reference_files
    rc = main([
        "query", str(summary_path), "--range", "4:6,1:3", "--kind", "count",
        "--case", "3", "--constraints", str(constraints_path), "--pmf",
        "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    support = sorted(int(v) for v in payload["pmf"])
    assert support[0] == 1 and support[-1] == 6


def test_query_detect_constraints_from_cube(reference_files, capsys):
    cube_path, summary_path, _ = reference_files
    rc = main([
        "query", str(summary_path), "--range", "4:6,1:3", "--kind", "count",
        "--case", "3", "--detect-constraints", "3", "--exact", str(cube_path),
        "--format", "json", "--pmf",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == 4
    # the detected macro-blocks narrow the support below the trivial [0, 7]
    support = sorted(int(v) for v in payload["pmf"])
    assert support[0] >= 1 and support[-1] <= 6


def test_query_detect_constraints_loads_cube_once(reference_files, monkeypatch, capsys):
    import cubeprob.cli as cli

    cube_path, summary_path, _ = reference_files
    loads = []

    def counting_load_cube(path):
        loads.append(path)
        return load_cube(path)

    monkeypatch.setattr(cli, "load_cube", counting_load_cube)
    rc = main([
        "query", str(summary_path), "--range", "4:6,1:3", "--kind", "count",
        "--case", "3", "--detect-constraints", "3", "--exact", str(cube_path),
    ])
    assert rc == 0
    assert loads == [str(cube_path)]
    assert "exact: 4" in capsys.readouterr().out


def test_query_detect_constraints_needs_cube(reference_files, capsys):
    _, summary_path, _ = reference_files
    rc = main([
        "query", str(summary_path), "--range", "4:6,1:3", "--kind", "count",
        "--case", "3", "--detect-constraints", "3",
    ])
    assert rc == 1
    assert "--exact" in capsys.readouterr().err


def test_query_case3_needs_constraints(reference_files, capsys):
    _, summary_path, _ = reference_files
    capsys.readouterr()
    assert main(["query", str(summary_path), "--range", "4:6,1:3", "--kind", "count", "--case", "3"]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "case 3 needs --constraints or --detect-constraints" in err


def test_query_constraints_and_detect_constraints_exclusive(reference_files, capsys):
    cube_path, summary_path, constraints_path = reference_files
    rc = main([
        "query", str(summary_path), "--range", "4:6,1:3", "--kind", "count",
        "--case", "3", "--constraints", str(constraints_path),
        "--detect-constraints", "3", "--exact", str(cube_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--constraints" in err and "--detect-constraints" in err


def test_query_constraints_of_another_arity_exit_2(reference_files, tmp_path, capsys):
    _, summary_path, _ = reference_files
    one_d = tmp_path / "one_d_constraints.json"
    one_d.write_text('{"macro_blocks": [{"lo": [4], "hi": [6], "kind": "all_null"}]}')
    rc = main([
        "query", str(summary_path), "--range", "4:6,1:3", "--kind", "count",
        "--case", "3", "--constraints", str(one_d),
    ])
    assert rc == 2
    assert "arity" in capsys.readouterr().err


def test_query_case3_empty_constraints_matches_case2(reference_files, tmp_path, capsys):
    _, summary_path, _ = reference_files
    empty = tmp_path / "empty_constraints.json"
    empty.write_text('{"macro_blocks": []}')
    outputs = []
    for args in (
        ["--case", "2"],
        ["--case", "3", "--constraints", str(empty)],
    ):
        rc = main([
            "query", str(summary_path), "--range", "4:6,1:3", "--kind", "sum",
            "--format", "json", "--exact-arith", *args,
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("case")
        outputs.append(payload)
    assert outputs[0] == outputs[1]


def test_query_exact_arith_prints_fractions(reference_files, capsys):
    _, summary_path, _ = reference_files
    rc = main([
        "query", str(summary_path), "--range", "4:6,1:3", "--kind", "count",
        "--case", "1", "--exact-arith",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean_exact: 63/16" in out


def test_experiment_all_ones_cube(tmp_path, capsys):
    from cubeprob.core import save_cube
    from cubeprob import Datacube

    cube = Datacube((12, 8), (1,) * 96)
    cube_path = tmp_path / "ones.json"
    save_cube(cube, str(cube_path))
    rc = main([
        "experiment", str(cube_path), "--block-sizes", "5x5", "--query-shape", "4x4",
        "--cases", "1,2", "--out", str(tmp_path / "report.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for line in out.splitlines()[1:]:
        assert line.split()[-3:] == ["1", "1", "1"]
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == "block,case,kind,query,queries,lt3sigma,lt4sigma,lt5sigma"


def test_experiment_single_query_matches_planner(tmp_path, capsys):
    from fractions import Fraction
    from cubeprob import (
        CompressionFactor, Datacube, QueryKind, QuerySpec, Range,
        build_summary, count_exact, estimate,
    )
    from cubeprob.core import save_cube

    cube = Datacube((4, 4), tuple((i * 5 + 3 * i // (j + 1)) % 4 for i in range(4) for j in range(4)))
    cube_path = tmp_path / "cube.json"
    save_cube(cube, str(cube_path))
    rc = main([
        "experiment", str(cube_path), "--block-sizes", "2x2", "--query-shape", "3x3",
        "--cases", "1", "--stride", "9x9",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    count_row = [tok for tok in lines[1].split()]
    assert count_row[4] == "1"  # a single query in the sweep
    summary = build_summary(cube, CompressionFactor.from_block_shape((4, 4), (2, 2)))
    query = Range((1, 1), (3, 3))
    est = estimate(summary, None, QuerySpec(query, QueryKind.COUNT, 1))
    err = abs(Fraction(count_exact(cube, query)) - est.mean)
    for k, cell in zip((3, 4, 5), count_row[4:]):
        expected = 1 if (err == 0 or err * err < k * k * est.variance) else 0
        assert cell == str(expected)


def test_experiment_fractions_monotone_in_k(reference_files, capsys):
    cube_path, _, _ = reference_files
    rc = main([
        "experiment", str(cube_path), "--block-sizes", "3x4,4x3", "--query-shape", "3x3",
        "--cases", "1,2,3", "--constraints", "auto", "--min-cells", "3", "--stride", "2x2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for line in out.splitlines()[1:]:
        f3, f4, f5 = (float(tok) for tok in line.split()[-3:])
        assert 0.0 <= f3 <= f4 <= f5 <= 1.0


def test_experiment_is_reproducible(reference_files, capsys):
    cube_path, _, _ = reference_files
    args = [
        "experiment", str(cube_path), "--block-sizes", "3x3", "--query-shape", "4x4",
        "--cases", "1,2", "--stride", "3x1",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_experiment_reads_the_constraints_file_detect_writes(reference_files, tmp_path, capsys):
    cube_path, _, _ = reference_files
    detected = tmp_path / "detected.json"
    assert main(["detect", str(cube_path), "--min-cells", "3", "--out", str(detected)]) == 0
    args = [
        "experiment", str(cube_path), "--block-sizes", "3x4,4x3", "--query-shape", "3x3",
        "--cases", "1,2,3", "--stride", "2x2",
    ]
    capsys.readouterr()
    assert main([*args, "--constraints", "auto", "--min-cells", "3"]) == 0
    auto = capsys.readouterr().out
    assert main([*args, "--constraints", str(detected)]) == 0
    assert capsys.readouterr().out == auto


def test_oracle_command(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "b": 3, "fix_t": 2, "fix_s": 3,
        "forced_nonnull": [1], "query_positions": [1], "stat": "sum",
    }))
    assert main(["oracle", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "mean: 3/2" in out
    assert "variance: 1/4" in out
    assert "1: 1/2" in out and "2: 1/2" in out


def test_detect_command(tmp_path, capsys):
    from cubeprob import Datacube
    from cubeprob.core import save_cube

    cube = Datacube((5, 5), (0,) * 25)
    cube_path = tmp_path / "zero.json"
    save_cube(cube, str(cube_path))
    out_path = tmp_path / "cs.json"
    assert main(["detect", str(cube_path), "--min-cells", "20", "--out", str(out_path)]) == 0
    assert "all_null 1:5,1:5 (25 cells)" in capsys.readouterr().out


def test_detect_refuses_min_cells_0(reference_files, tmp_path, capsys):
    cube_path, _, _ = reference_files
    capsys.readouterr()
    assert main(["detect", str(cube_path), "--min-cells", "0", "--out", str(tmp_path / "cs.json")]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "min_cells must be >= 1" in err


def test_usage_errors_exit_1(capsys, tmp_path):
    assert main(["query"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1
    assert main(["ingest", str(tmp_path / "missing.csv"), "--dims", "2,2", "--out", str(tmp_path / "o.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--range", "2:1,1:2"],
    ["--range", "0:1,1:2"],
    ["--range", "-1:2,1:2"],
], ids=["empty-range", "zero-coordinate", "negative-coordinate"])
def test_query_bad_range_exits_2(reference_files, capsys, argv):
    _, summary_path, _ = reference_files
    capsys.readouterr()
    assert main(["query", str(summary_path), "--kind", "count", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cubeprob: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--cases", "4"],
    ["--cases", "x"],
    ["--query-shape", "0x1"],
    ["--stride", "0x1"],
    ["--query-shape", "3x3x3"],
], ids=["case-4", "case-x", "zero-query-shape", "zero-stride", "query-shape-arity"])
def test_experiment_bad_sweep_exits_2(reference_files, capsys, argv):
    cube_path, _, _ = reference_files
    capsys.readouterr()
    base = {"--block-sizes": "3x3", "--query-shape": "3x3", "--cases": "1,2", "--stride": "3x3"}
    base.update(zip(argv[::2], argv[1::2]))
    rc = main(["experiment", str(cube_path), *(tok for pair in base.items() for tok in pair)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cubeprob: error: ") and err.count("\n") == 1


def test_module_runs_commands(reference_files, tmp_path):
    # python -m cubeprob.cli must run the command, not just import the module
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cubeprob.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cubeprob.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    csv_path = tmp_path / "r.csv"
    csv_path.write_text("1,2,5\n")
    out = tmp_path / "c.json"
    done = run("ingest", str(csv_path), "--dims", "2,2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert load_cube(str(out)).cells == (0, 5, 0, 0)
    _, summary_path, _ = reference_files
    done = run("query", str(summary_path), "--kind", "count", "--range", "2:1,1:2")
    assert done.returncode == 2
    assert done.stderr.startswith("cubeprob: error: ")


def _one_error_line(err):
    return err.startswith("cubeprob: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "7",
    '{"a": 1}',
    '[[0,"x",4],[0,2]]',
    "[[0,3.5,7,10],[0,4,6]]",
    '[["0","3","7","10"],[0,4,6]]',
], ids=["number", "object", "string-entry", "float-entry", "string-entries"])
def test_summarize_malformed_boundaries_exit_2(reference_files, tmp_path, capsys, text):
    cube_path, _, _ = reference_files
    bad = tmp_path / "bad_bounds.json"
    bad.write_text(text)
    capsys.readouterr()
    out = tmp_path / "s.json"
    assert main(["summarize", str(cube_path), "--boundaries", str(bad), "--out", str(out)]) == 2
    assert _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("spec", [
    {"fix_t": 1, "query_positions": [1]},
    {"b": 3, "fix_t": 1, "query_positions": [1], "stat": "mean"},
    {"b": 3, "fix_t": -1, "query_positions": [1]},  # an empty population
    {"b": 3, "fix_s": -1},  # an empty population too
    {"b": 4, "fix_t": 2, "query_position": [1, 2]},  # a typo, not zero positions
    {"b": 1.5, "fix_t": 1},
], ids=["missing-b", "unknown-stat", "negative-fix-t", "negative-fix-s", "unknown-key", "float-b"])
def test_oracle_malformed_spec_exits_2(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["oracle", "--spec", str(path)]) == 2
    assert _one_error_line(capsys.readouterr().err)


_CUBE_3X3 = json.dumps({"dims": [3, 3], "cells": [1] * 9})


@pytest.mark.parametrize("text, args", [
    (_CUBE_3X3, ["--exact", "FILE"]),
    (_CUBE_3X3, ["--case", "3", "--detect-constraints", "3", "--exact", "FILE"]),
    ("[]", ["--case", "3", "--constraints", "FILE"]),
    ('"x"', ["--case", "3", "--constraints", "FILE"]),
    ("{}", ["--case", "3", "--constraints", "FILE"]),
    (None, ["--case", "3", "--constraints", "FILE"]),  # the summary file itself
], ids=["exact-3x3", "detect-on-3x3", "constraints-list", "constraints-string", "constraints-empty", "constraints-summary"])
def test_query_refuses_an_input_file_that_does_not_fit(reference_files, tmp_path, capsys, text, args):
    _, summary_path, _ = reference_files
    bad = tmp_path / "bad.json"
    bad.write_text(summary_path.read_text() if text is None else text)
    argv = [str(bad) if a == "FILE" else a for a in args]
    capsys.readouterr()
    assert main(["query", str(summary_path), "--range", "4:6,1:3", "--kind", "count", *argv]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err)
    if "--exact" in args:
        assert "(3, 3)" in err and "(10, 6)" in err
    else:
        assert "malformed constraints file" in err


@pytest.mark.parametrize(
    "file", ["cube", "summary-count", "summary-index", "constraints", "boundaries", "oracle-spec"]
)
def test_a_json_boolean_for_an_integer_exits_2(reference_files, tmp_path, capsys, file):
    # JSON true and false are not read as 1 and 0
    cube_path, summary_path, constraints_path = reference_files
    bad = tmp_path / "bad.json"
    query = ["query", str(summary_path), "--range", "4:6,1:3", "--kind", "count"]
    if file == "cube":
        bad.write_text(json.dumps({"dims": [2, 2], "cells": [1, True, 0, 0]}))
        argv = ["summarize", str(bad), "--blocks", "1,1", "--out", str(tmp_path / "s.json")]
    elif file.startswith("summary"):
        block = {"index": [1], "count": 1, "sum": 1}
        block.update({"count": True} if file == "summary-count" else {"index": [True]})
        bad.write_text(json.dumps({"boundaries": [[0, 1]], "blocks": [block]}))
        argv = ["query", str(bad), "--range", "1:1", "--kind", "count"]
    elif file == "constraints":
        bad.write_text(json.dumps({"macro_blocks": [{"lo": [True, 1], "hi": [1, 1], "kind": "all_null"}]}))
        argv = [*query, "--case", "3", "--constraints", str(bad)]
    elif file == "oracle-spec":
        bad.write_text(json.dumps({"b": True, "fix_t": True, "query_positions": [True]}))
        argv = ["oracle", "--spec", str(bad)]
    else:
        bad.write_text(json.dumps([[0, 3, 7, 10], [False, 4, 6]]))
        argv = ["summarize", str(cube_path), "--boundaries", str(bad), "--out", str(tmp_path / "s.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "must be integers" in err


def test_query_refuses_non_integral_summary_count(reference_files, tmp_path, capsys):
    _, summary_path, _ = reference_files
    payload = json.loads(summary_path.read_text())
    payload["blocks"][0]["count"] += 0.9
    bad = tmp_path / "bad_summary.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["query", str(bad), "--range", "1:3,1:4", "--kind", "count"]) == 2
    assert _one_error_line(capsys.readouterr().err)


def test_query_on_a_summary_that_is_not_json_exits_2(reference_files, tmp_path, capsys):
    _, summary_path, _ = reference_files
    bad = tmp_path / "bad_summary.json"
    bad.write_text(summary_path.read_text()[:-1])
    capsys.readouterr()
    assert main(["query", str(bad), "--range", "1:3,1:4", "--kind", "count"]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "malformed JSON input" in err


@pytest.mark.parametrize("count, total", [(3, 2), (0, 4)], ids=["count-over-sum", "sum-without-count"])
def test_query_refuses_unrealizable_summary_block(reference_files, tmp_path, capsys, count, total):
    _, summary_path, _ = reference_files
    payload = json.loads(summary_path.read_text())
    payload["blocks"][0].update(count=count, sum=total)
    bad = tmp_path / "bad_summary.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["query", str(bad), "--range", "1:3,1:4", "--kind", "count"]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "block (1, 1)" in err


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_query_pmf_over_two_partial_blocks_says_why_it_is_omitted(reference_files, capsys, fmt):
    _, summary_path, _ = reference_files
    capsys.readouterr()
    rc = main([
        "query", str(summary_path), "--range", "2:5,1:2", "--kind", "sum", "--pmf", "--format", fmt,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    reason = "2 blocks are partially covered; a pmf needs at most one"
    if fmt == "json":
        payload = json.loads(out)
        assert payload["pmf_omitted"] == reason and "pmf" not in payload
    else:
        assert "pmf_omitted" in out and reason in out and "pmf:" not in out


def test_query_csv_pmf_cell_holds_the_support(reference_files, capsys):
    _, summary_path, _ = reference_files
    capsys.readouterr()
    rc = main([
        "query", str(summary_path), "--range", "2:3,1:2", "--kind", "sum", "--pmf", "--format", "csv",
    ])
    assert rc == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    cell = dict(zip(header, row))["pmf"]
    pairs = [pair.split(":") for pair in cell.split(" ")]
    est = estimate(load_summary(str(summary_path)), None, QuerySpec(Range((2, 1), (3, 2)), QueryKind.SUM, 2, True))
    assert len(est.pmf.support) > 1
    assert [(int(v), Fraction(p)) for v, p in pairs] == list(est.pmf.support)


def test_query_pmf_of_one_partial_block_has_no_omission(reference_files, capsys):
    _, summary_path, _ = reference_files
    capsys.readouterr()
    rc = main(["query", str(summary_path), "--range", "2:3,1:2", "--kind", "sum", "--pmf"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pmf:" in out and "pmf_omitted" not in out


@pytest.mark.parametrize("name, data, command", [
    ("relation.csv", b"d1,d2,value\n1,1,3\n1,2,caf\xe9\n", ["ingest", "{}", "--dims", "2,2", "--out", "{out}"]),
    ("summary.json", b'\xff\xfe{"factor": []}', ["query", "{}", "--range", "1:1,1:1", "--kind", "count"]),
], ids=["csv", "json"])
def test_an_input_that_is_not_utf8_exits_2(tmp_path, capsys, name, data, command):
    path = tmp_path / name
    path.write_bytes(data)
    argv = [arg.format(path, out=tmp_path / "out.json") for arg in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "not UTF-8" in err and "malformed JSON input" not in err


@pytest.mark.parametrize("command", [
    ["ingest", "{dir}", "--dims", "10,6", "--out", "{tmp}/cube2.json"],
    ["ingest", "{csv}", "--dims", "10,6", "--out", "{dir}"],
    ["summarize", "{cube}", "--blocks", "2,2", "--out", "{dir}"],
    ["query", "{dir}", "--range", "1:3,1:4", "--kind", "count"],
    ["query", "{summary}", "--range", "1:3,1:4", "--kind", "count", "--constraints", "{dir}"],
], ids=["ingest-input", "ingest-out", "summarize-out", "query-summary", "query-constraints"])
def test_a_directory_where_a_file_belongs_exits_1(reference_files, tmp_path, capsys, command):
    cube_path, summary_path, _ = reference_files
    (tmp_path / "a-dir").mkdir()
    paths = dict(dir=tmp_path / "a-dir", tmp=tmp_path, csv=tmp_path / "relation.csv", cube=cube_path,
                 summary=summary_path)
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in command]) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) and "a-dir" in err


def _close(text, exact):
    """Whether ``text`` is ``exact`` to 6 significant digits, as %.6g prints it."""
    mantissa, _, _ = text.partition("e")
    assert "e+" in text and not mantissa.endswith(("0", "."))
    return abs(Fraction(Decimal(text)) - exact) <= abs(exact) / 10**5 / 2


@pytest.mark.parametrize("digits", [200, 400])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_answers_past_the_float_range_print(tmp_path, capsys, digits, fmt):
    value = int("7" * digits)
    relation = tmp_path / "huge.csv"
    relation.write_text(f"1,1,{value}\n2,2,3\n")
    cube, summary = tmp_path / "huge-cube.json", tmp_path / "huge-summary.json"
    assert main(["ingest", str(relation), "--dims", "2,2", "--out", str(cube)]) == 0
    assert main(["summarize", str(cube), "--blocks", "1,1", "--out", str(summary)]) == 0
    capsys.readouterr()
    rc = main(["query", str(summary), "--range", "1:1,1:2", "--kind", "sum", "--exact-arith",
               "--exact", str(cube), "--format", fmt])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out) if fmt == "json" else dict(line.split(": ", 1) for line in out.splitlines())
    est = estimate(load_summary(str(summary)), None, QuerySpec(Range((1, 1), (1, 2)), QueryKind.SUM))
    assert est.variance > 2**1024  # past the float range at 200 digits already
    assert [payload[f"{name}_exact"] for name in ("mean", "variance", "max_error")] == [
        f"{x.numerator}/{x.denominator}" for x in (est.mean, est.variance, est.max_error)
    ]
    assert int(payload["exact"]) == value
    for name in ("mean", "variance", "max_error"):
        assert _close(payload[name], getattr(est, name))
    assert _close(payload["actual_error"], abs(value - est.mean))
    stddev = Fraction(Decimal(payload["stddev"]))
    assert abs(stddev * stddev - est.variance) <= est.variance / 10**5


@pytest.mark.parametrize("value, root, text", [
    (Fraction(1234565 * 10**400), False, "1.23456e+406"),  # a tie goes to even, as for a float
    (Fraction(1234565 * 10**400 + 1), False, "1.23457e+406"),
    (Fraction(3 * 1234565 * 10**400 + 1, 3), False, "1.23457e+406"),  # a remainder breaks the tie
    (Fraction(10**400), True, "1e+200"),
    (Fraction(10**400 + 1), True, "1e+200"),
    (Fraction(4 * 10**320), True, "2e+160"),
    (Fraction(2), True, "1.41421"),  # inside the float range: %.6g of the float
], ids=["tie", "above-tie", "fraction-above-tie", "root", "root-inexact", "root-2", "float-root"])
def test_fmt_rounds_the_exact_value_past_the_float_range(value, root, text):
    assert _fmt(value, root) == text
