import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubeprob
from cubeprob.cli import main
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
