"""Tests for the command-line interface: argument validation, table
output in both formats, exit codes and determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdwg
from pdwg.analysis import check_study
from pdwg.cli import RunConfig, main, parse_args
from pdwg.fe_space import SpaceConfig
from pdwg.prox import prox_phi_k1
from pdwg.solver import SolverConfig

COLUMNS = "n,h,e_L,rate_L,e_W1,rate_W1,e_W2,rate_W2,iters,r1,r2,r3,wall_time"


def read_table(path):
    lines = path.read_text().splitlines()
    echo = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    return echo, header, rows


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--p", "3"],
        ["solve", "--problem", "disc", "--n", "5"],
        ["solve", "--n", "4,x"],
        ["solve", "--n", "0"],
        ["solve", "--alpha", "-1"],
        ["solve", "--k", "1"],
        ["solve", "--k", "3", "--l", "0"],
        ["solve", "--prox", "exact", "--k", "2"],
        ["solve", "--max-iters", "0"],
        ["solve", "--tol", "1e-6"],
        ["solve", "--l", "-1"],
        ["solve", "--beta", "2"],
        ["solve", "--residual-tol", "nan"],
        ["solve", "--alpha", "inf"],
        ["solve", "--alpha", "5e-324"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "pdwg:" in capsys.readouterr().err


def test_usage_messages_are_the_study_rule(capsys):
    n_default = RunConfig(command="solve").n_list
    cases = [
        (["solve", "--p", "3"], ("const", 3, n_default)),
        (["solve", "--n", "4,0"], ("const", 2, (4, 0))),
        (["solve", "--problem", "disc", "--n", "2,5"], ("disc", 2, (2, 5))),
    ]
    for argv, args in cases:
        with pytest.raises(ValueError) as rule:
            check_study(*args)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"pdwg: {rule.value}\n"


def test_unknown_flag_and_missing_command_exit_2(capsys):
    assert main(["solve", "--bogus"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_parse_args_takes_defaults_from_configs():
    cfg = parse_args(["solve"])
    assert cfg == RunConfig(command="solve")
    assert cfg.solver == SolverConfig()
    assert cfg.space == SpaceConfig(k=2)
    cfg = parse_args(["solve", "--alpha", "16", "--k", "3", "--l", "1"])
    assert cfg.solver == SolverConfig(alpha=16.0)
    assert cfg.space == SpaceConfig(k=3, l=1)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize serves only the test oracle; the CLI must not pay for it
    code = "import sys, pdwg.analysis, pdwg.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(pdwg.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"


def test_import_leaves_scipy_special_unloaded():
    # the Gauss rules come from numpy; scipy.special costs a cold start
    code = "import sys, pdwg.analysis, pdwg.cli; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(pdwg.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"


def test_python_m_pdwg_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(pdwg.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "pdwg", "solve", "--problem", "const", "--p", "2", "--n", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert COLUMNS in proc.stdout.splitlines()


def test_solve_writes_csv(tmp_path):
    out = tmp_path / "study.csv"
    code = main(
        ["solve", "--problem", "const", "--p", "2", "--n", "4,8", "--out", str(out)]
    )
    assert code == 0
    echo, header, rows = read_table(out)
    assert len(echo) == 3
    assert echo[0].startswith("# pdwg ")
    assert "problem=const p=2" in echo[1]
    assert echo[2] == "# alpha=1 residual_tol=1e-08 max_iters=200000 prox=wl1"
    assert ",".join(header) == COLUMNS
    assert len(rows) == 2
    assert [r["n"] for r in rows] == ["4", "8"]
    # first row has blank rates, second row is the log2 ratio
    assert rows[0]["rate_L"] == ""
    expected = np.log2(float(rows[0]["e_L"]) / float(rows[1]["e_L"]))
    assert float(rows[1]["rate_L"]) == pytest.approx(expected, rel=1e-4)
    # uniform mesh on [0,1]^2 has h = sqrt(2)/n
    assert float(rows[0]["h"]) == pytest.approx(np.sqrt(2) / 4, rel=1e-5)


def test_csv_round_trips_to_floats(tmp_path):
    out = tmp_path / "study.csv"
    assert main(["solve", "--p", "2", "--n", "4", "--out", str(out)]) == 0
    _, header, rows = read_table(out)
    for row in rows:
        for col in header:
            if row[col] == "":
                continue
            value = float(row[col])
            if col not in ("n", "iters"):
                assert f"{value:.5e}" == row[col]


def test_output_deterministic_up_to_wall_time(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["solve", "--p", "2", "--n", "4,8", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        outs.append([",".join(ln.split(",")[:-1]) for ln in lines])
    assert outs[0] == outs[1]


def test_md_format(tmp_path):
    out = tmp_path / "study.md"
    code = main(["solve", "--p", "2", "--n", "4", "--format", "md", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    table = [ln for ln in lines if ln.startswith("|")]
    assert table[0] == "| " + " | ".join(COLUMNS.split(",")) + " |"
    assert set(table[1]) == {"|", "-"}
    assert len(table) == 3
    # blank rate cells render as a dash placeholder
    assert "| -- |" in table[2]


def test_nonconvergence_exits_3_with_table(tmp_path):
    out = tmp_path / "partial.csv"
    code = main(
        ["solve", "--p", "1", "--n", "2", "--max-iters", "5", "--out", str(out)]
    )
    assert code == 3
    _, header, rows = read_table(out)
    assert len(rows) == 1
    assert int(rows[0]["iters"]) <= 5
    assert float(rows[0]["r2"]) > 0.0


def test_p1_var_converges_on_both_levels(tmp_path):
    # the plain iteration stopped at max_iters on n=4 (199,148 steps,
    # r2 = 3.4e-6); the face polish certifies it in a few thousand
    out = tmp_path / "var.csv"
    code = main(
        ["solve", "--problem", "var", "--p", "1", "--alpha", "16", "--n", "2,4",
         "--out", str(out)]
    )
    assert code == 0  # 3 if any level did not converge
    _, _, rows = read_table(out)
    assert [row["n"] for row in rows] == ["2", "4"]
    for row in rows:
        assert max(float(row[r]) for r in ("r1", "r2", "r3")) <= 1e-8
        assert int(row["iters"]) < 20000


def test_unwritable_out_exits_4(tmp_path, capsys):
    out = tmp_path / "missing" / "study.csv"
    code = main(["solve", "--p", "2", "--n", "4", "--out", str(out)])
    assert code == 4
    assert "cannot write" in capsys.readouterr().err


def test_solve_prints_to_stdout(capsys):
    assert main(["solve", "--p", "2", "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# pdwg ")
    assert lines[3] == COLUMNS
    assert len(lines) == 5


def test_prox_table_matches_library(capsys):
    assert main(["prox-table"]) == 0
    first = capsys.readouterr().out
    body = [ln for ln in first.splitlines() if not ln.startswith("#")]
    rows = body[1:]
    assert len(rows) == 24
    for ln in rows:
        alpha, v0, v1, p0, p1 = (float(x) for x in ln.split(","))
        want = prox_phi_k1(np.array([v0, v1]), alpha)
        assert np.allclose([p0, p1], want, atol=2e-5)
    assert main(["prox-table"]) == 0
    assert capsys.readouterr().out == first
