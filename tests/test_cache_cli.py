import hashlib
import importlib
import json
import pkgutil
import struct
import types

import numpy as np
import pytest

import zetamoments as zm
from zetamoments import cache
from zetamoments.cli import (
    ResultLedger,
    RunConfig,
    build_table,
    cmd_selfcheck,
    load_coeff_table,
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


def test_build_tables_tau_bytes_pinned(tmp_path):
    # tau is exact integers, so its cache payload is the same on every platform
    build_table(RunConfig(tmp_path), "tau", 2000)
    path = tmp_path / cache.cache_key("tau", {}, 2000)
    assert cache.table_header(path)["sha256"] == (
        "dd37370837ae6711f9c35f5ef44d96a2a7a906dcba5e16fa7f93476584a2edeb")


@pytest.mark.parametrize("k, N, sha256", [
    (3, 10**5, "3947898e2372c7b609f8745fc32e383e1c627b3e2c77b9b3fe084ea3029bd134"),
    (2, 10**4, "77d9a472af678398d14aaada9a724a9ab9a167d232da2c21f5d3c2d04ca69c88"),
])
def test_build_tables_dk_bytes_pinned(tmp_path, k, N, sha256):
    # d_k is exact little-endian int64, so its cache payload is the same everywhere
    build_table(RunConfig(tmp_path), f"d_{k}", N)
    path = tmp_path / cache.cache_key(f"d_{k}", {"k": k}, N)
    assert cache.table_header(path)["sha256"] == sha256


def test_build_tables_dependency_chain(tmp_path):
    cfg = RunConfig(tmp_path)
    build_table(cfg, "rankin_c", 2000)
    # builds tau and a_tilde on the way
    assert (tmp_path / cache.cache_key("tau", {}, 2000)).exists()
    assert (tmp_path / cache.cache_key("a_tilde", {}, 2000)).exists()


def test_load_coeff_table_rejects_tau_before_building(tmp_path):
    with pytest.raises(ValueError, match="big-integer"):
        load_coeff_table(RunConfig(tmp_path), "tau", 1000)
    assert not (tmp_path / cache.cache_key("tau", {}, 1000)).exists()


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


@pytest.mark.parametrize("cut", [10, 30])
def test_truncated_cache_header_forces_rebuild(tmp_path, capsys, cut):
    # 10 bytes stop inside the u64 counts, 30 inside the JSON header
    argv = ["--cache-dir", str(tmp_path), "build-tables", "d_2=1000"]
    assert main(argv) == 0
    path = tmp_path / cache.cache_key("d_2", {"k": 2}, 1000)
    good = path.read_bytes()
    path.write_bytes(good[:cut])
    with pytest.raises(cache.CacheError, match="truncated header"):
        cache.load_table(path)
    capsys.readouterr()
    assert main(argv) == 0
    assert f"[cache corrupt, rebuilding] {path}" in capsys.readouterr().out
    assert path.read_bytes() == good


@pytest.mark.parametrize("old, new, message", [
    (b'{"dtype"', b'#"dtype"', "unreadable header"),         # not JSON
    (b'"sha256"', b'"sha2x6"', "unreadable header"),         # a missing field
    (b'"int64"', b'"int65"', "unreadable header"),           # an unknown dtype
    (b"\x0a" + b"\0" * 7, b"\x0b" + b"\0" * 7, "payload bytes"),  # the value count
])
def test_corrupt_cache_header_is_a_cache_error(tmp_path, old, new, message):
    # the header is outside the payload's checksum, so it is checked on its own
    path = tmp_path / "h.zml"
    cache.save_table(path, "d_k", {"k": 2, "N": 10}, zm.sieve_dk(2, 10).values)
    raw = path.read_bytes()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(cache.CacheError, match=message):
        cache.verify_table(path)


@pytest.mark.parametrize("count", [3, 7])
def test_bigint_value_count_must_fill_the_payload(tmp_path, capsys, count):
    # a tau file's value count is outside its checksum: decoding must use the
    # whole payload for exactly that many values, else the file is rebuilt
    cfg = RunConfig(tmp_path)
    tau = build_table(cfg, "tau", 5)
    path = tmp_path / cache.cache_key("tau", {}, 5)
    good = path.read_bytes()
    path.write_bytes(good[:4] + struct.pack("<Q", count) + good[12:])
    cache.verify_table(path)  # decodes nothing, so the count passes here
    with pytest.raises(cache.CacheError, match="payload bytes"):
        cache.load_table(path)
    capsys.readouterr()
    assert build_table(cfg, "tau", 5) == tau
    assert f"[cache corrupt, rebuilding] {path}" in capsys.readouterr().out
    assert path.read_bytes() == good


def test_build_tables_reads_back_nothing_and_decodes_no_hit(tmp_path, monkeypatch, capsys):
    decoded, verified = [], []
    decode, verify = cache._decode_payload, cache._verified
    monkeypatch.setattr(cache, "_decode_payload",
                        lambda buf, n, dtype: decoded.append(dtype) or decode(buf, n, dtype))
    monkeypatch.setattr(cache, "_verified", lambda path: verified.append(path.name) or verify(path))
    argv = ["--cache-dir", str(tmp_path), "build-tables", "d_3=3000", "tau=2000",
            "a_tilde=2000", "a_tilde_sq_conv=2000", "rankin_c=2000"]
    assert main(argv) == 0  # cold: the derived tables get tau and a_tilde in memory
    assert decoded == [] and verified == []
    files = {p.name: p.read_bytes() for p in tmp_path.glob("*.zml")}
    assert len(files) == 5
    assert main(argv) == 0  # warm: every file verified, none decoded
    assert decoded == [] and sorted(verified) == sorted(files)
    # a flipped payload byte is caught on the verify-only path and rebuilt
    path = tmp_path / cache.cache_key("tau", {}, 2000)
    raw = bytearray(files[path.name])
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(argv) == 0
    assert f"[cache corrupt, rebuilding] {path}" in capsys.readouterr().out
    assert decoded == []
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.zml")} == files


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
        # every key, so a dropped or renamed diagnostic shows
        assert set(cell) == {
            "family", "k", "sigma", "slope", "intercept", "r2", "theory_exponent", "slack",
            "pass", "constant", "constant_tail", "near_half", "spread", "level", "points",
            "h", "em_cut", "stage_s", "table_sha256",
        }
        assert cell["level"] >= 1
        h2 = cell["h"] / 2.0 ** cell["level"]
        assert cell["points"] == int(round((50.0 - 1.0) / h2)) + 1
    assert f2["h"] == zm.moments.moment_step("F2", 1, 50.0) and f2["em_cut"] is None
    assert zeta["h"] == zm.moments.moment_step("zeta", 1, 50.0) and zeta["em_cut"] == 100
    assert f2["spread"] > 0
    assert zeta["spread"] == 0
    # the checksum of the table each cell read; zeta reads none
    _, _, values = cache.load_table(tmp_path / "c" / "a_tilde_N8000.zml")
    assert f2["table_sha256"] == hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
    assert zeta["table_sha256"] is None
    header = (out / "ledger.csv").read_text().splitlines()[0]
    assert header == "family,k,sigma,T,integral,main,residual,quad_err"


def test_experiment_summary_carries_stage_times(tmp_path):
    cache_dir = str(tmp_path / "c")
    assert main(["--cache-dir", cache_dir, "build-tables", "a_tilde=8000"]) == 0
    m = tmp_path / "m.txt"
    m.write_text("family = F2\nsigma = 0.8\nT_grid = 25 50\nN = 8000\n\n"
                 "family = zeta\nk = 1\nsigma = 0.75\nT_grid = 25 50\n")
    ledgers = []
    for run in range(2):
        out = tmp_path / f"res{run}"
        main(["--cache-dir", cache_dir, "experiment", str(m), "--out-dir", str(out)])
        for cell in json.loads((out / "summary.json").read_text())["cells"]:
            stages = cell["stage_s"]
            assert set(stages) == {"table_load", "main_term", "integrand", "simpson_fit"}
            assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())
            assert stages["integrand"] > 0.0
        ledgers.append((out / "ledger.csv").read_text())
    # the timings stay out of the ledger: same header, 8 fields, same rows
    lines = ledgers[0].splitlines()
    assert lines[0] == "family,k,sigma,T,integral,main,residual,quad_err"
    assert len(lines) == 5 and all(len(r.split(",")) == 8 for r in lines)
    assert ledgers[0] == ledgers[1]


def test_manifest_unknown_key_raises(tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nk = 1\nsigma = 0.75\nT-grid = 50 100\n")
    with pytest.raises(ValueError, match="T-grid"):
        parse_manifest(m)
    assert main(["experiment", str(m), "--out-dir", str(tmp_path / "r")]) == 2
    assert "error: unknown manifest key" in capsys.readouterr().err


def test_manifest_k_defaults_to_the_family(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\n\nfamily = F2\n\nfamily = F4\n\nfamily = Z2\n"
                 "\nfamily = F4\nk = 2\n")
    assert [c["k"] for c in parse_manifest(m)] == [1, 1, 2, 1, 2]


def test_manifest_k_contradicting_the_family_exits_2(tmp_path, capsys):
    # nothing runs: the check precedes the first cell
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nk = 1\nsigma = 0.75\nT_grid = 50 100\n\n"
                 "family = F2\nk = 3\nsigma = 0.8\nT_grid = 50 100\n")
    out = tmp_path / "r"
    assert main(["--cache-dir", str(tmp_path / "c"), "experiment", str(m),
                 "--out-dir", str(out)]) == 2
    assert "error: family F2 has k=1, not k=3" in capsys.readouterr().err
    assert not (out / "ledger.csv").exists()


def test_experiment_f4_cell_without_k_writes_k2_rows(tmp_path):
    cache_dir = str(tmp_path / "c")
    assert main(["--cache-dir", cache_dir, "build-tables", "a_tilde_sq_conv=8000"]) == 0
    m = tmp_path / "m.txt"
    m.write_text("family = F4\nsigma = 0.8\nT_grid = 25 50\nN = 8000\n")
    out = tmp_path / "r"
    assert main(["--cache-dir", cache_dir, "experiment", str(m), "--out-dir", str(out)]) in (0, 1)
    rows = (out / "ledger.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(r.split(",")[:2] == ["F4", "2"] for r in rows)
    assert json.loads((out / "summary.json").read_text())["cells"][0]["k"] == 2


@pytest.mark.parametrize("argv, manifest, message", [
    ([], "T_grid = 50\n", "fewer than 2 usable points"),
    (["--budget", "100"], "T_grid = 50 100\n", "budget 100"),
    ([], "T_grid = 50 100\nN = 5\n", "family zeta reads no table; it takes no N"),
    ([], "T_grid = 50 100\nrel_tol = 0.5\n", "rel_tol must lie in [1e-5, 1e-2]"),
    # a bad later cell: the checks of every cell precede the first cell
    ([], "T_grid = 50 100\n\nfamily = zeta\nsigma = 0.4\n", "sigma=0.4 outside (1/2, 1)"),
    ([], "T_grid = 50 100\n\nfamily = zeta\nT_grid = 50 6000\n", "T > 5000"),
    ([], "T_grid = 50 100\n\nfamily = zeta\nrel_tol = 1e-7\n", "rel_tol must lie in"),
    ([], "T_grid = 50 100\n\nfamily = F2\nsigma = 0.8\nN = 8000\n",
     "build-tables a_tilde=8000"),
])
def test_experiment_run_errors_exit_2(tmp_path, capsys, argv, manifest, message):
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nk = 1\nsigma = 0.75\n" + manifest)
    out = tmp_path / "r"
    assert main(["--cache-dir", str(tmp_path / "c"), *argv, "experiment", str(m),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (out / "ledger.csv").exists() and not (out / "summary.json").exists()


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


def test_selfcheck_catches_a_wrong_phase_sum(tmp_path, capsys, monkeypatch):
    nufft = zm.evaluate._nufft

    def off_by_a_part_in_1e10(ts, h, ln, W):
        return nufft(ts, h, ln, W) * (1.0 + 1e-10)

    monkeypatch.setattr(zm.evaluate, "_nufft", off_by_a_part_in_1e10)
    assert cmd_selfcheck(RunConfig(tmp_path)) == 1
    assert "[FAIL] NUFFT phase sum" in capsys.readouterr().out


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


# ---------------------------------------------------------------------------
# the public surface
# ---------------------------------------------------------------------------

def test_public_names_resolve_and_the_package_reexports_only_them():
    listed = {}
    for info in pkgutil.iter_modules(zm.__path__):
        mod = importlib.import_module(f"zetamoments.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists {name!r}"
            listed.setdefault(name, []).append(getattr(mod, name))
    for name, obj in vars(zm).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        assert any(obj is x for x in listed.get(name, ())), f"zetamoments.{name} is in no __all__"
