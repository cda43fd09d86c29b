import ast
import hashlib
import importlib
import json
import pkgutil
import struct
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import zetamoments as zm
from zetamoments import cache
from zetamoments.cli import (
    ResultLedger,
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
    assert out.dtype == np.int64 and np.array_equal(out, vals)
    assert p.read_bytes()[:4] == b"ZML2"


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


def _payload_per_value(values) -> bytes:
    """The ZML1 bigint payload (u32 length, sign byte, magnitude), encoded one
    value at a time: its sha256 is a check on tau's values."""
    chunks = []
    for v in values:
        mag = abs(v)
        raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "little")
        chunks.append(struct.pack("<IB", len(raw), 1 if v < 0 else 0))
        chunks.append(raw)
    return b"".join(chunks)


def _narrowest(values, widths=range(1, 100)) -> int:
    """The first of `widths` whose two's-complement range holds every value."""
    return next(w for w in widths if all(-(1 << 8 * w - 1) <= v < 1 << 8 * w - 1 for v in values))


def _records(values, width: int) -> bytes:
    """The payload encoded one value at a time, `width` bytes a value."""
    return b"".join(int(v).to_bytes(width, "little", signed=True) for v in values)


def _file_payload(path) -> bytes:
    raw = path.read_bytes()
    return raw[20 + struct.unpack_from("<Q", raw, 12)[0]:]


@pytest.mark.parametrize("values", [
    [], [0], [1], [-1], [255], [-255], [256], [-256], [2**64], [-(2**200)],
    [0, -1, 255, -256, 2**64, -(2**200), 3**100, 7, 0],  # mixed widths
    [127], [128], [-128], [-129],
])
def test_bigint_payload_matches_per_value_encoder(values):
    width, payload = cache._payload(values, "bigint")
    assert width == _narrowest(values)
    assert bytes(payload) == _records(values, width)
    assert cache._decode_payload(bytes(payload), len(values), "bigint", width) == values


def test_bigint_payload_of_tau_matches_per_value_encoder():
    tau = zm.tau_table(15000).tau
    width, payload = cache._payload(tau, "bigint")
    assert width == _narrowest(tau) == 10
    assert bytes(payload) == _records(tau, width)
    assert cache._decode_payload(bytes(payload), len(tau), "bigint", width) == tau


@pytest.mark.parametrize("value, width", [
    (-129, 2), (-128, 1), (127, 1), (128, 2), (-2**15, 2), (2**15 - 1, 2),
    (-2**15 - 1, 4), (2**15, 4), (-2**31, 4), (2**31 - 1, 4), (-2**31 - 1, 8), (2**31, 8),
    (-2**63, 8), (2**63 - 1, 8),
])
def test_int_payload_takes_the_narrowest_width(value, width):
    values = np.array([0, value, 1], dtype=np.int64)
    got, payload = cache._payload(values, "int64")
    assert got == width == _narrowest(values.tolist(), (1, 2, 4, 8))
    assert bytes(payload) == _records(values, width)
    out = cache._decode_payload(bytes(payload), 3, "int64", width)
    assert out.dtype == np.int64 and np.array_equal(out, values)


def test_empty_int_table_roundtrips(tmp_path):
    p = tmp_path / "e.zml"
    cache.save_table(p, "d_k", {"k": 2, "N": 0}, np.zeros(0, dtype=np.int64))
    assert cache.verify_table(p)["width"] == 1
    out = cache.load_table(p)[2]
    assert out.dtype == np.int64 and out.size == 0


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
    build_table(tmp_path, "d_2", 10**4)
    files = list(tmp_path.glob("*.zml"))
    assert len(files) == 1
    digest = files[0].read_bytes()
    build_table(tmp_path, "d_2", 10**4)  # cache hit
    assert files[0].read_bytes() == digest
    assert "cache hit" in capsys.readouterr().out


def test_build_tables_tau_spot_value(tmp_path):
    build_table(tmp_path, "tau", 1000)
    out = tmp_path / "export.csv"
    assert main(["--cache-dir", str(tmp_path), "export", "--label", "tau",
                 "--N", "1000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "2,-24"


def _check_tau_pins(tmp_path, N: int, values_sha256: str, width: int, sha256: str) -> None:
    # tau is exact integers, so its cache payload is the same on every
    # platform; the values are pinned through their ZML1 encoding, the bytes
    # by the payload's own sha256
    build_table(tmp_path, "tau", N)
    path = tmp_path / cache.cache_key("tau", {}, N)
    tau = cache.load_table(path)[2]
    assert hashlib.sha256(_payload_per_value(tau)).hexdigest() == values_sha256
    header = cache.table_header(path)
    assert (header["width"], header["sha256"]) == (width, sha256)
    assert len(_file_payload(path)) == width * N


def test_build_tables_tau_bytes_pinned(tmp_path):
    _check_tau_pins(tmp_path, 2000,
                    "dd37370837ae6711f9c35f5ef44d96a2a7a906dcba5e16fa7f93476584a2edeb", 8,
                    "1a11a9142b88a5b022af8ab064ab401d646ff861e51976418621881ecff0a515")


def test_build_tables_tau_bytes_pinned_at_15000(tmp_path):
    # two int64 runs recombine each value of the last squaring
    _check_tau_pins(tmp_path, 15000,
                    "90381dbca21c5fbc91c9e8078096ec8a62a953682971cdafef723099b5f38a2b", 10,
                    "abf486fe92b68009635ab2a6f4fe0cc82b773fec44560c8cae26f6879aba6417")


# 10^6 and 2 * 151200 + 1 cover whole copies of sieve_dk's wheel period and a
# partial one
@pytest.mark.parametrize("k, N, sha256", [
    (3, 10**5, "3947898e2372c7b609f8745fc32e383e1c627b3e2c77b9b3fe084ea3029bd134"),
    (2, 10**4, "77d9a472af678398d14aaada9a724a9ab9a167d232da2c21f5d3c2d04ca69c88"),
    (3, 10**6, "725ebc213277ce20f1706dbfd487c69dbee4c15682f0c305b88017fa197bccd5"),
    (2, 302401, "ddbaa04bf64d754582ed7ea066cd82afce349d4771dee4e9395b665195d39153"),
])
def test_build_tables_dk_bytes_pinned(tmp_path, k, N, sha256):
    # d_k is exact integers, so its cache payload is the same everywhere;
    # `sha256` pins the values as little-endian int64 (their ZML1 payload),
    # _DK_PAYLOAD the width and the bytes that are stored
    build_table(tmp_path, f"d_{k}", N)
    path = tmp_path / cache.cache_key(f"d_{k}", {"k": k}, N)
    values = cache.load_table(path)[2]
    assert hashlib.sha256(values.astype("<i8").tobytes()).hexdigest() == sha256
    width, payload_sha256 = _DK_PAYLOAD[k, N]
    header = cache.table_header(path)
    assert (header["width"], header["sha256"]) == (width, payload_sha256)
    # d_3 to 10^6 takes 2 bytes a value, not int64's 8
    assert len(_file_payload(path)) == width * N


_DK_PAYLOAD = {
    (3, 10**5): (2, "4e2942c502714644c543820c4573f8342a040131d0e32a69cbeb802489a76fb9"),
    (2, 10**4): (1, "54690d69bf8a0173d31a18a056f7f87912df8ff451540c98c682d263c6208fe2"),
    (3, 10**6): (2, "b731689cc8636c712af20ee4704cc90adb74f8e07d6bab3ed283fb2f0ebf901b"),
    (2, 302401): (2, "63f892920737243a45b360017666debfcb90607a7d6c9754a4a4bd1ad777d3b6"),
}


def test_build_tables_dependency_chain(tmp_path):
    build_table(tmp_path, "rankin_c", 2000)
    # builds tau and a_tilde on the way
    assert (tmp_path / cache.cache_key("tau", {}, 2000)).exists()
    assert (tmp_path / cache.cache_key("a_tilde", {}, 2000)).exists()


def test_load_coeff_table_rejects_tau_before_building(tmp_path):
    with pytest.raises(ValueError, match="big-integer"):
        load_coeff_table(tmp_path, "tau", 1000)
    assert not (tmp_path / cache.cache_key("tau", {}, 1000)).exists()


def test_build_tables_unknown_label(tmp_path):
    assert main(["--cache-dir", str(tmp_path), "build-tables", "mobius=100"]) == 2


def test_checksum_mismatch_forces_rebuild(tmp_path, capsys):
    build_table(tmp_path, "d_2", 1000)
    path = next(tmp_path.glob("*.zml"))
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    vals = build_table(tmp_path, "d_2", 1000)
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
    (b'"width": 1', b'"widt_": 1', "unreadable header"),     # no width
    (b'"width": 1', b'"width": 0', "unreadable header"),     # not positive
    (b'"width": 1', b'"width": 3', "unreadable header"),     # no int64 width
    (b'"width": 1', b'"width": 2', "payload bytes"),         # the wrong width
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
    # a tau file's value count is outside its checksum: the payload must hold
    # exactly width * count bytes on both paths, else the file is rebuilt
    tau = build_table(tmp_path, "tau", 5)
    path = tmp_path / cache.cache_key("tau", {}, 5)
    good = path.read_bytes()
    path.write_bytes(good[:4] + struct.pack("<Q", count) + good[12:])
    with pytest.raises(cache.CacheError, match="payload bytes"):
        cache.verify_table(path)
    with pytest.raises(cache.CacheError, match="payload bytes"):
        cache.load_table(path)
    capsys.readouterr()
    assert build_table(tmp_path, "tau", 5) == tau
    assert f"[cache corrupt, rebuilding] {path}" in capsys.readouterr().out
    assert path.read_bytes() == good


def test_zml1_file_is_rebuilt_and_not_exported(tmp_path, capsys):
    # a file of the older layout (8-byte int64 records, no width) fails on
    # its magic: build-tables rebuilds it, export exits 2
    argv = ["--cache-dir", str(tmp_path), "build-tables", "d_2=1000"]
    assert main(argv) == 0
    path = tmp_path / cache.cache_key("d_2", {"k": 2}, 1000)
    good = path.read_bytes()
    values = zm.sieve_dk(2, 1000).values.astype("<i8").tobytes()
    header = json.dumps({"dtype": "int64", "label": "d_2", "params": {"k": 2, "N": 1000},
                         "sha256": hashlib.sha256(values).hexdigest()}, sort_keys=True).encode()
    path.write_bytes(b"ZML1" + struct.pack("<QQ", 1000, len(header)) + header + values)
    with pytest.raises(cache.CacheError, match="bad magic"):
        cache.verify_table(path)
    assert main(["--cache-dir", str(tmp_path), "export", "--label", "d_2", "--N", "1000",
                 "--out", str(tmp_path / "d2.csv")]) == 2
    assert "bad magic" in capsys.readouterr().err
    assert main(argv) == 0
    assert f"[cache corrupt, rebuilding] {path}" in capsys.readouterr().out
    assert path.read_bytes() == good


def test_export_to_a_directory_exits_2(tmp_path, capsys):
    # an OSError other than FileNotFoundError is an input error too: exit 2,
    # not the exit 1 of a failed verdict, and no traceback
    assert main(["--cache-dir", str(tmp_path), "build-tables", "d_2=100"]) == 0
    assert main(["--cache-dir", str(tmp_path), "export", "--label", "d_2", "--N", "100",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_build_tables_reads_back_nothing_and_decodes_no_hit(tmp_path, monkeypatch, capsys):
    decoded, verified = [], []
    decode, verify = cache._decode_payload, cache._verified
    monkeypatch.setattr(cache, "_decode_payload", lambda buf, n, dtype, width:
                        decoded.append(dtype) or decode(buf, n, dtype, width))
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
            "h", "em_cut", "blocks", "stage_s", "table_sha256",
        }
        assert cell["level"] >= 1
        h2 = cell["h"] / 2.0 ** cell["level"]
        assert cell["points"] == int(round((50.0 - 1.0) / h2)) + 1
    assert f2["h"] == zm.moments.moment_step("F2", 1, 50.0) and f2["em_cut"] is None
    assert zeta["h"] == zm.moments.moment_step("zeta", 1, 50.0) and zeta["em_cut"] == 50
    # the final level's blocks: F2's two runs of one Y (Y = 100 below t = 50,
    # then N/74), zeta's one chunk at its top cut
    assert [(b["t_first"], b["t_last"], b["Y"], b["em_cut"]) for b in f2["blocks"]] == [
        (1.0, f2["blocks"][0]["t_last"], 100.0, None), (50.0, 50.0, 8000 / 74.0, None)]
    (zb,) = zeta["blocks"]
    assert zb == {"t_first": 1.0, "t_last": 50.0, "points": zeta["points"], "em_cut": 50,
                  "Y": None, "estimate": zb["estimate"]}
    # every zeta block carries its _zeta_em estimate; a series block has none
    assert 0 < zb["estimate"] < 1e-9
    assert all(b["estimate"] is None for b in f2["blocks"])
    assert sum(b["points"] for b in f2["blocks"]) == f2["points"]
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


def test_manifest_repeated_key_exits_2(tmp_path, capsys):
    # the last value would win: this block would run sigma = 0.9 alone
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nsigma = 0.75\nT_grid = 50 100\nsigma = 0.9\n")
    with pytest.raises(ValueError, match="manifest key 'sigma' repeated in one cell"):
        parse_manifest(m)
    out = tmp_path / "r"
    assert main(["experiment", str(m), "--out-dir", str(out)]) == 2
    assert "error: manifest key 'sigma' repeated" in capsys.readouterr().err
    assert not (out / "ledger.csv").exists()


def test_manifest_repeated_T_exits_2_before_any_evaluation(tmp_path, capsys, monkeypatch):
    def evaluated(*a):
        raise AssertionError("a grid was evaluated")

    monkeypatch.setattr(zm.moments, "_zeta_em_grids", evaluated)
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nsigma = 0.75\nT_grid = 100 200 200 400\n")
    out = tmp_path / "r"
    assert main(["--cache-dir", str(tmp_path / "c"), "experiment", str(m),
                 "--out-dir", str(out)]) == 2
    assert ("error: T_grid [100.0, 200.0, 200.0, 400.0] puts two T on one grid point at step 0.25"
            in capsys.readouterr().err)
    assert not (out / "ledger.csv").exists()


def test_manifest_zeta_k_0_exits_2_before_any_evaluation(tmp_path, capsys, monkeypatch):
    def evaluated(*a):
        raise AssertionError("a grid was evaluated")

    monkeypatch.setattr(zm.moments, "_zeta_em_grids", evaluated)
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nk = 0\nsigma = 0.75\nT_grid = 10 20\n")
    out = tmp_path / "r"
    assert main(["--cache-dir", str(tmp_path / "c"), "experiment", str(m),
                 "--out-dir", str(out)]) == 2
    assert "error: family zeta takes an integer k in 1..6, not k=0" in capsys.readouterr().err
    assert not (out / "ledger.csv").exists()


@pytest.mark.parametrize("manifest, message", [
    ("k = 1\nT_grid = nan 100 200 400\n",
     "T_grid [nan, 100.0, 200.0, 400.0] has a T outside the desk range [1, 5000]"),
    ("k = 1\nT_grid = 0.5 100\n", "T_grid [0.5, 100.0] has a T outside the desk range"),
    ("k = 1\nT_grid = -3 100\n", "T_grid [-3.0, 100.0] has a T outside the desk range"),
    ("k = 7\nT_grid = 10 20\n", "family zeta takes an integer k in 1..6, not k=7"),
    ("k = 1\nT_grid = 10 20\nslack = nan\n", "slack must be finite, not nan"),
])
def test_a_bad_T_k_or_slack_exits_2_before_any_evaluation(tmp_path, capsys, monkeypatch,
                                                          manifest, message):
    # a NaN T was dropped (exit 0, 3 rows), a T below 1 gave integral 0, and a
    # NaN slack failed the slope check (exit 1)
    def evaluated(*a):
        raise AssertionError("a grid was evaluated")

    monkeypatch.setattr(zm.moments, "_zeta_em_grids", evaluated)
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nsigma = 0.75\n" + manifest)
    out = tmp_path / "r"
    assert main(["--cache-dir", str(tmp_path / "c"), "experiment", str(m),
                 "--out-dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "ledger.csv").exists()


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
    # an empty sigma line used to drop its block: exit 0, no row, no summary entry
    ([], "T_grid = 50 100\n\nfamily = zeta\nsigma =\n", "manifest key 'sigma' has no value"),
    ([], "T_grid = 50 100\nN = 5\n", "family zeta reads no table; it takes no N"),
    ([], "T_grid = 50 100\nrel_tol = 0.5\n", "unknown manifest key(s) ['rel_tol']"),
    # a bad later cell: the checks of every cell precede the first cell
    ([], "T_grid = 50 100\n\nfamily = zeta\nsigma = 0.4\n", "sigma=0.4 outside (1/2, 1)"),
    ([], "T_grid = 50 100\n\nfamily = zeta\nT_grid = 50 6000\n",
     "T_grid [50.0, 6000.0] has a T outside the desk range [1, 5000]"),
    ([], "T_grid = 50 100\n\nfamily = zeta\nrel_tol = 1e-7\n",
     "unknown manifest key(s) ['rel_tol']"),
    ([], "T_grid = 50 100\n\nfamily = F2\nsigma = 0.8\nN = 8000\n",
     "build-tables a_tilde=8000"),
    # a later cell with a zeta k above 6: no cell runs, no row is written
    ([], "T_grid = 10 20\n\nfamily = zeta\nk = 7\nsigma = 0.75\nT_grid = 100 200\n",
     "family zeta takes an integer k in 1..6, not k=7"),
    # an N below 1 used to pass the parse and ask for `build-tables a_tilde=0`
    ([], "T_grid = 50 100\n\nfamily = F2\nsigma = 0.8\nN = 0\n",
     "manifest key 'N' must be at least 1, not 0"),
    ([], "T_grid = 50 100\n\nfamily = F2\nsigma = 0.8\nN = -5\n",
     "manifest key 'N' must be at least 1, not -5"),
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


def test_shared_passes_write_the_ledger_of_one_command_per_cell(tmp_path):
    # cells that share a grid share its passes: a zeta sigma pair at one k;
    # F2, F4 and Z2 at different sigma on one N; and a group where the
    # sigma = 0.8 cell needs a second halving level and the 0.6 and 0.75
    # cells do not.  One command writes the rows and diagnostics that one
    # command per cell writes, byte for byte
    cache_dir = str(tmp_path / "c")
    assert main(["--cache-dir", cache_dir, "build-tables", "a_tilde=8000",
                 "a_tilde_sq_conv=8000", "rankin_c=8000"]) == 0
    cells = ["family = zeta\nk = 1\nsigma = 0.75 0.9\nT_grid = 50 100 200\n",
             "family = F2\nsigma = 0.7\nT_grid = 20 40\nN = 8000\n",
             "family = F4\nsigma = 0.8\nT_grid = 20 40\nN = 8000\n",
             "family = Z2\nsigma = 0.9\nT_grid = 20 40\nN = 8000\n",
             "family = zeta\nk = 1\nsigma = 0.6 0.75\nT_grid = 6 12\n",
             "family = zeta\nk = 1\nsigma = 0.8\nT_grid = 6 12\n"]

    def run(manifests, out):
        for i, text in enumerate(manifests):
            m = tmp_path / f"m{i}.txt"
            m.write_text(text)
            assert main(["--cache-dir", cache_dir, "experiment", str(m),
                         "--out-dir", str(out)]) in (0, 1)
        return (out / "ledger.csv").read_bytes()

    def diagnostics(out):
        cells = json.loads((out / "summary.json").read_text())["cells"]
        return [{key: v for key, v in c.items() if key != "stage_s"} for c in cells]

    solo = run(cells, tmp_path / "solo")
    solo_diag = []
    for i, text in enumerate(cells):  # the summary of each one-cell command
        run([text], tmp_path / f"solo{i}")
        solo_diag += diagnostics(tmp_path / f"solo{i}")
    out = tmp_path / "shared"
    assert run(["\n".join(cells)], out) == solo
    assert diagnostics(out) == solo_diag
    assert [c["level"] for c in solo_diag] == [1, 1, 1, 1, 1, 1, 1, 2]
    assert len(solo.splitlines()) == 1 + 2 * 3 + 3 * 2 + 3 * 2


def test_cells_that_read_one_table_load_it_once(tmp_path, monkeypatch):
    # F2 at three sigma reads a_tilde from the cache once, and writes the
    # ledger of three one-cell commands
    cache_dir = str(tmp_path / "c")
    assert main(["--cache-dir", cache_dir, "build-tables", "a_tilde=8000"]) == 0
    load = cache.load_table
    loads = []

    def spy(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(cache, "load_table", spy)

    def run(sigmas, out):
        m = tmp_path / "m.txt"
        m.write_text(f"family = F2\nsigma = {sigmas}\nT_grid = 20 40\nN = 8000\n")
        assert main(["--cache-dir", cache_dir, "experiment", str(m),
                     "--out-dir", str(out)]) in (0, 1)
        return (out / "ledger.csv").read_bytes()

    shared = run("0.7 0.8 0.9", tmp_path / "shared")
    assert len(loads) == 1
    cells = json.loads((tmp_path / "shared" / "summary.json").read_text())["cells"]
    assert len({c["stage_s"]["table_load"] for c in cells}) == 1
    for sigma in ("0.7", "0.8", "0.9"):
        run(sigma, tmp_path / "solo")
    assert shared == (tmp_path / "solo" / "ledger.csv").read_bytes()


def test_experiment_out_dir_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch):
    # the output directory cannot be made: exit 2, not the exit 1 of a failed
    # verdict, before any pass runs, and the file is left as it was
    passes = []
    run_groups = zm.moments._run_groups

    def spy(groups):
        passes.append(groups)
        run_groups(groups)

    monkeypatch.setattr(zm.moments, "_run_groups", spy)
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nk = 1\nsigma = 0.75\nT_grid = 50 100\n")
    out = tmp_path / "r"
    out.write_text("a file, not a directory\n")
    assert main(["--cache-dir", str(tmp_path / "c"), "experiment", str(m),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out.read_text() == "a file, not a directory\n"
    assert passes == []


def test_experiment_rerun_appends_identical_rows(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nk = 1\nsigma = 0.75\nT_grid = 50 100\n")
    out = tmp_path / "res"
    for _ in range(2):
        assert main(["--cache-dir", str(tmp_path / "c"), "experiment", str(m),
                     "--out-dir", str(out)]) == 0
    rows = (out / "ledger.csv").read_text().splitlines()
    assert rows[1:3] == rows[3:5]


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def test_selfcheck_passes_fresh(tmp_path, capsys):
    assert cmd_selfcheck(tmp_path) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_selfcheck_catches_a_wrong_phase_sum(tmp_path, capsys, monkeypatch):
    nufft = zm.evaluate._nufft

    def off_by_a_part_in_1e10(ts, h, ln, W, widths=None, plan=None):
        return nufft(ts, h, ln, W, widths, plan) * (1.0 + 1e-10)

    monkeypatch.setattr(zm.evaluate, "_nufft", off_by_a_part_in_1e10)
    assert cmd_selfcheck(tmp_path) == 1
    assert "[FAIL] NUFFT phase sum" in capsys.readouterr().out


def test_selfcheck_catches_a_wrong_tail_at_height(tmp_path, capsys, monkeypatch):
    # a tail off by 1e-6 in every value of its blocks at height, where only
    # the two-block check at t ~ 1e4 looks (the other checks stay at
    # |t| <= 200), fails exactly that check, on both of its blocks
    tail = zm.evaluate._zeta_em_tail
    blocks = []

    def off_by_1e_6(sigma, ts, M, c, out, *args):
        est = tail(sigma, ts, M, c, out, *args)
        if ts[0] > 1000.0:
            out += 1e-6
            blocks.append(len(ts))
        return est

    monkeypatch.setattr(zm.evaluate, "_zeta_em_tail", off_by_1e_6)
    assert cmd_selfcheck(tmp_path) == 1
    out = capsys.readouterr().out
    assert "[FAIL] zeta at t ~ 1e4" in out and out.count("[FAIL]") == 1
    assert len(blocks) == 2


def test_selfcheck_catches_a_column_that_depends_on_its_neighbours(tmp_path, capsys,
                                                                   monkeypatch):
    nufft = zm.evaluate._nufft

    def last_column_off_when_shared(ts, h, ln, W, widths=None, plan=None):
        out = nufft(ts, h, ln, W, widths, plan)
        if widths is not None and len(widths) > 1:
            out[:, -1] *= 1.0 + 1e-12
        return out

    monkeypatch.setattr(zm.evaluate, "_nufft", last_column_off_when_shared)
    assert cmd_selfcheck(tmp_path) == 1
    out = capsys.readouterr().out
    assert "[FAIL] zeta k=1, sigma 0.75 and 0.9 to T=200: one shared pass" in out
    assert out.count("[FAIL]") == 1


def test_selfcheck_catches_corrupt_tau_cache(tmp_path, capsys):
    # valid checksum over corrupted values: checksum passes, Hecke must fail
    bad = list(zm.tau_table(10**4).tau)
    bad[23] += 7
    path = tmp_path / cache.cache_key("tau", {}, 10**4)
    cache.save_table(path, "tau", {"N": 10**4}, bad)
    assert cmd_selfcheck(tmp_path) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and str(path) in out


def test_workers_below_one_exits_2(tmp_path, capsys):
    # --workers is accepted and ignored, but still held to >= 1
    m = tmp_path / "m.txt"
    m.write_text("family = zeta\nsigma = 0.75\nT_grid = 50 100\n")
    out = tmp_path / "r"
    assert main(["--cache-dir", str(tmp_path / "c"), "--workers", "0", "experiment", str(m),
                 "--out-dir", str(out)]) == 2
    assert "error: --workers must be >= 1" in capsys.readouterr().err
    assert not (out / "ledger.csv").exists()


def test_a_multi_block_series_command_starts_no_thread(tmp_path, monkeypatch):
    # F2 on a_tilde = 12000 to T = 80 is a pass of two runs of one Y; with
    # --workers 2 it still runs in the calling thread
    cache_dir = str(tmp_path / "c")
    assert main(["--cache-dir", cache_dir, "build-tables", "a_tilde=12000"]) == 0

    def start(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", start)
    m = tmp_path / "m.txt"
    m.write_text("family = F2\nsigma = 0.8\nT_grid = 40 80\nN = 12000\n")
    out = tmp_path / "r"
    assert main(["--cache-dir", cache_dir, "--workers", "2", "experiment", str(m),
                 "--out-dir", str(out)]) in (0, 1)
    cell = json.loads((out / "summary.json").read_text())["cells"][0]
    assert len(cell["blocks"]) == 2


def test_the_package_imports_no_concurrency_module():
    # every command runs in the calling thread; a thread or process pool
    # would be a second path to the same values
    banned = {"threading", "concurrent", "multiprocessing"}
    for path in Path(zm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits = [n for n in names if n.split(".")[0] in banned]
            assert not hits, f"{path.name} imports {hits}"


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
