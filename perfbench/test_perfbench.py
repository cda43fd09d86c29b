"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ZM = run.load_program(ROOT)

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_metric_names_and_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(layer)
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_gates(workload, tmp_path):
    out = workloads.run(workload, 3, 0, False, tmp_path / "work", ZM, smoke=True)
    res = out["result"]
    assert res["correct"], out["report"]["problems"]
    assert res["attempted"] > 0 and res["failed"] == 0
    assert set(res["metrics"]) == set(workloads.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ["tables", "series"])
def test_traced_smoke_run_accounts_for_wall_time(workload, tmp_path):
    out = workloads.run(workload, 3, 0, True, tmp_path / "work", ZM, smoke=True)
    m = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert out["result"]["correct"], out["report"]["problems"]
    assert set(m) == set(workloads.PER_LAYER)
    accounting = out["report"]["accounting"]
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(accounting["self_sum_s"])
    assert accounting["spans"] > 0 and accounting["max_abs_gap_s"] < 1e-3
    assert (tmp_path / f"trace-{workload}-seed3.json").is_file()


def test_corrupted_tau_fails_the_tables_gate(tmp_path, monkeypatch):
    mf = ZM["modularforms"]
    real = mf.tau_table

    def corrupt(N):
        tau = list(real(N).tau)
        tau[11] += 1  # tau(12) = tau(4) tau(3) no longer holds; Deligne still does
        return mf.TauTable(N, tau)

    monkeypatch.setattr(mf, "tau_table", corrupt)
    out = workloads.run("tables", 3, 0, False, tmp_path / "work", ZM, smoke=True)
    assert out["report"]["ops_failed_ratio"] > 0
    assert not out["result"]["correct"]
    assert any("tau(12)" in p for p in out["report"]["problems"])


def test_spot_check_failures_count_as_failed_operations(tmp_path, monkeypatch):
    ev = ZM["evaluate"]
    real = ev.zeta_em_grid
    monkeypatch.setattr(ev, "zeta_em_grid", lambda sigma, ts: real(sigma, ts) * (1 + 1e-8))
    tally = workloads.Tally()
    spec = workloads.make_spec("zeta", 3, smoke=True)
    workloads.Experiment(spec, ZM, tmp_path).spot_check(tally)
    grids = len({sigma for _, _, sigma in spec.cells})  # one operation per sigma's grid
    assert tally.attempted == grids and tally.failed == grids


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span(0, "cli.main", None, "r", "main", 0.0, 10.0)
    kids = [spans.Span(1, "evaluate.a", 0, "r", "t1", 1.0, 4.0),
            spans.Span(2, "evaluate.b", 0, "r", "t2", 3.0, 6.0)]
    selfs, concurrent = spans.self_times([parent, *kids])
    assert selfs == {0: 5.0, 1: 3.0, 2: 3.0}
    assert concurrent == 1.0


def test_passes_count_grid_steps_and_skip_one_point_blocks():
    S = spans.Span
    grid = [S(0, "moments.integrate_moment_grid", None, "r", "main", 0.0, 9.0)]
    for i, (h, points) in enumerate([(0.01, 79_900), (0.0, 1), (0.005, 159_800), (0.0, 1)]):
        grid.append(S(i + 1, "evaluate.zeta_em_grid", 0, "r", "main", 2.0 * i, 2.0 * i + 1.0,
                      attrs={"points": points, "h": h, "terms": 1599, "em_cut_computed": 1600}))
    m, _ = spans.layer_metrics(grid)
    assert m["moments.passes"] == 2.0 and m["moments.passes_max"] == 2.0
    assert m["moments.integrand_points"] == 239_702.0


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "zeta",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
