import json

import numpy as np
import pytest

import zetamoments as zm
from zetamoments import cache
from zetamoments.cli import (
    ResultLedger,
    RunConfig,
    build_table,
    cmd_selfcheck,
    main,
    parse_manifest,
)


# ---------------------------------------------------------------------------
# binary cache format
# ---------------------------------------------------------------------------

def test_cache_roundtrip_int64(tmp_path):
    vals = zm.sieve_dk(2, 1000).values
    p = tmp_path / "t.zml"
    cache.save_table(p, "d_k", {"k": 2, "N": 1000}, vals)
    label, params, out = cache.load_table(p)
    assert label == "d_k" and params["k"] == 2
    assert np.array_equal(out, vals)
    assert p.read_bytes()[:4] == b"ZML1"


def test_cache_roundtrip_float(tmp_path):
    vals = np.linspace(-1, 1, 257)
    p = tmp_path / "f.zml"
    cache.save_table(p, "a_tilde", {"N": 257}, vals)
    _, _, out = cache.load_table(p)
    assert np.array_equal(out, vals)


def test_cache_roundtrip_bigint(tmp_path):
    vals = [1, -24, 252, -(10**40), 3**100]
    p = tmp_path / "b.zml"
    cache.save_table(p, "tau", {"N": 5}, vals)
    _, _, out = cache.load_table(p)
    assert out == vals


def test_cache_detects_corruption(tmp_path):
    p = tmp_path / "c.zml"
    cache.save_table(p, "d_k", {"k": 2, "N": 10}, zm.sieve_dk(2, 10).values)
    raw = bytearray(p.read_bytes())
    raw[-3] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(cache.CacheError):
        cache.load_table(p)


def test_cache_rejects_foreign_file(tmp_path):
    p = tmp_path / "x.zml"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(cache.CacheError):
        cache.load_table(p)


def test_csv_export(tmp_path):
    p = tmp_path / "out.csv"
    cache.export_csv(p, [1, -24, 252])
    lines = p.read_text().splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "1,1" and lines[2] == "2,-24"


# ---------------------------------------------------------------------------
# build-tables
# ---------------------------------------------------------------------------

def test_build_tables_idempotent(tmp_path, capsys):
    cfg = RunConfig(tmp_path)
    build_table(cfg, "d_2", 10**4)
    files = list(tmp_path.glob("*.zml"))
    assert len(files) == 1
    digest = files[0].read_bytes()
    build_table(cfg, "d_2", 10**4)  # cache hit
    assert files[0].read_bytes() == digest
    assert "cache hit" in capsys.readouterr().out


def test_build_tables_tau_spot_value(tmp_path):
    cfg = RunConfig(tmp_path)
    build_table(cfg, "tau", 1000)
    out = tmp_path / "export.csv"
    assert main(["--cache-dir", str(tmp_path), "export", "--label", "tau",
                 "--N", "1000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "2,-24"


def test_build_tables_dependency_chain(tmp_path):
    cfg = RunConfig(tmp_path)
    build_table(cfg, "rankin_c", 2000)
    # builds tau and a_tilde on the way
    assert (tmp_path / cache.cache_key("tau", {}, 2000)).exists()
    assert (tmp_path / cache.cache_key("a_tilde", {}, 2000)).exists()


def test_build_tables_unknown_label(tmp_path):
    assert main(["--cache-dir", str(tmp_path), "build-tables", "mobius=100"]) == 2


def test_checksum_mismatch_forces_rebuild(tmp_path, capsys):
    cfg = RunConfig(tmp_path)
    build_table(cfg, "d_2", 1000)
    path = next(tmp_path.glob("*.zml"))
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    vals = build_table(cfg, "d_2", 1000)
    assert "rebuilding" in capsys.readouterr().out
    assert np.array_equal(vals, zm.sieve_dk(2, 1000).values)
    _, _, reloaded = cache.load_table(path)  # healthy again
    assert np.array_equal(reloaded, vals)


# ---------------------------------------------------------------------------
# manifest and experiment command
# ---------------------------------------------------------------------------

def test_parse_manifest(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text(
        "# comment\nfamily = zeta\nk = 1\nsigma = 0.75 0.9\nT_grid = 50 100\n"
        "\nfamily = Z2\nsigma = 0.8\nN = 4000\n"
    )
    cells = parse_manifest(m)
    assert len(cells) == 3
    assert cells[0]["sigma"] == 0.75 and cells[1]["sigma"] == 0.9
    assert cells[2]["family"] == "Z2" and cells[2]["N"] == 4000


def test_empty_manifest_succeeds(tmp_path):
    m = tmp_path / "empty.txt"
    m.write_text("# nothing here\n")
    rc = main(["--cache-dir", str(tmp_path / "c"), "experiment", str(m),
               "--out-dir", str(tmp_path / "r")])
    assert rc == 0
    assert not (tmp_path / "r" / "ledger.csv").exists()


def test_experiment_sigma_out_of_range(tmp_path):
    m = tmp_path / "bad.txt"
    m.write_text("family = zeta\nk = 1\nsigma = 0.4\nT_grid = 50\n")
    assert main(["experiment", str(m), "--out-dir", str(tmp_path / "r")]) == 2


def test_experiment_missing_table_names_build_command(tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("family = F2\nsigma = 0.8\nT_grid = 50\nN = 8000\n")
    rc = main(["--cache-dir", str(tmp_path / "c"), "experiment", str(m),
               "--out-dir", str(tmp_path / "r")])
    assert rc == 2
    assert "build-tables a_tilde=8000" in capsys.readouterr().err


def test_experiment_end_to_end(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nk = 1\nsigma = 0.75\nT_grid = 50 100 200\n")
    out = tmp_path / "res"
    rc = main(["--cache-dir", str(tmp_path / "c"), "experiment", str(m),
               "--out-dir", str(out)])
    assert rc == 0
    rows = (out / "ledger.csv").read_text().splitlines()
    assert rows[0] == "family,k,sigma,T,integral,main,residual,quad_err"
    assert len(rows) == 4
    assert all(r.split(",")[6] not in ("", "nan") for r in rows[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"][0]["pass"] is True
    assert "slope" in summary["cells"][0]


def test_experiment_summary_carries_quadrature_diagnostics(tmp_path):
    cache_dir = str(tmp_path / "c")
    assert main(["--cache-dir", cache_dir, "build-tables", "a_tilde=8000"]) == 0
    m = tmp_path / "m.txt"
    m.write_text("family = F2\nsigma = 0.8\nT_grid = 25 50\nN = 8000\n\n"
                 "family = zeta\nk = 1\nsigma = 0.75\nT_grid = 25 50\n")
    out = tmp_path / "res"
    main(["--cache-dir", cache_dir, "experiment", str(m), "--out-dir", str(out)])
    f2, zeta = json.loads((out / "summary.json").read_text())["cells"]
    for cell in (f2, zeta):
        assert cell["level"] >= 1
        h2 = zm.moments.moment_step(50.0) / 2.0 ** cell["level"]
        assert cell["points"] == int(round((50.0 - 1.0) / h2)) + 1
    assert f2["spread"] > 0
    assert zeta["spread"] == 0
    header = (out / "ledger.csv").read_text().splitlines()[0]
    assert header == "family,k,sigma,T,integral,main,residual,quad_err"


def test_experiment_rerun_appends_identical_rows(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nk = 1\nsigma = 0.75\nT_grid = 50 100\n")
    out = tmp_path / "res"
    for workers in ("1", "3"):
        assert main(["--cache-dir", str(tmp_path / "c"), "--workers", workers,
                     "experiment", str(m), "--out-dir", str(out)]) == 0
    rows = (out / "ledger.csv").read_text().splitlines()
    assert rows[1:3] == rows[3:5]


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def test_selfcheck_passes_fresh(tmp_path, capsys):
    assert cmd_selfcheck(RunConfig(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_selfcheck_catches_corrupt_tau_cache(tmp_path, capsys):
    cfg = RunConfig(tmp_path)
    # valid checksum over corrupted values: checksum passes, Hecke must fail
    bad = list(zm.tau_table(10**4).tau)
    bad[23] += 7
    path = tmp_path / cache.cache_key("tau", {}, 10**4)
    cache.save_table(path, "tau", {"N": 10**4}, bad)
    assert cmd_selfcheck(cfg) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and str(path) in out


def test_runconfig_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(tmp_path, workers=0)
    with pytest.raises(ValueError):
        RunConfig(tmp_path, rel_tol=1e-7)
