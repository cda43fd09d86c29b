"""Command-line driver: table cache management, experiments, self checks.

Subcommands
-----------
build-tables LABEL=N [LABEL=N ...]   build and cache coefficient tables
experiment MANIFEST                  run moment experiments from a manifest
selfcheck                            fast invariant suite (exit 0 iff green)
export --label L --N N --out F       dump a cached table as CSV

The experiment manifest is a key-value text file; blocks separated by blank
lines, one experiment cell per block:

    family = zeta
    k = 1
    sigma = 0.75
    T_grid = 250 500 1000 2000

sigma may list several values (one cell each).  Records append to
ledger.csv (header: family,k,sigma,T,integral,main,residual,quad_err) and a
JSON summary per run records slope / theory_exponent / pass.  Identical
manifests re-run against the same cache append identical value rows,
independent of --workers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import arith, cache, modularforms, moments

_TABLE_LABELS = ("d_1", "d_2", "d_3", "d_4", "d_5", "d_6",
                 "tau", "a_tilde", "a_tilde_sq_conv", "rankin_c")


@dataclass
class RunConfig:
    cache_dir: Path
    workers: int = 1
    rel_tol: float = 1e-4
    slack: float = 0.25
    budget: int = 5_000_000

    def __post_init__(self):
        self.cache_dir = Path(self.cache_dir)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 1e-5 <= self.rel_tol <= 1e-2:
            raise ValueError("rel_tol must lie in [1e-5, 1e-2]")


@dataclass
class ResultLedger:
    csv_path: Path
    summary_path: Path
    run_id: str

    CSV_HEADER = "family,k,sigma,T,integral,main,residual,quad_err"

    def append_records(self, records) -> None:
        new = not self.csv_path.exists()
        self.csv_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.csv_path, "a") as f:
            if new:
                f.write(self.CSV_HEADER + "\n")
            for r in records:
                f.write(
                    f"{r.family},{r.k},{r.sigma!r},{r.T!r},{r.integral!r},"
                    f"{r.main!r},{r.residual!r},{r.quad_err!r}\n"
                )

    def write_summary(self, cells: list) -> None:
        payload = {"run_id": self.run_id, "cells": cells}
        self.summary_path.parent.mkdir(parents=True, exist_ok=True)
        self.summary_path.write_text(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Table building / loading
# ---------------------------------------------------------------------------

def _cache_path(cfg: RunConfig, label: str, N: int) -> Path:
    params = {"k": int(label.split("_")[1])} if label.startswith("d_") else {}
    return cfg.cache_dir / cache.cache_key(label, params, N)


def build_table(cfg: RunConfig, label: str, N: int, verbose: bool = True):
    """Build (or fetch from cache) one table; returns the values."""
    if label not in _TABLE_LABELS:
        raise ValueError(f"unknown table label {label!r}; expected one of {_TABLE_LABELS}")
    path = _cache_path(cfg, label, N)
    if path.exists():
        try:
            _, _, values = cache.load_table(path)  # checksum-verified hit
            if verbose:
                print(f"[cache hit] {path}")
            return values
        except cache.CacheError:
            # integrity mismatch forces a rebuild
            if verbose:
                print(f"[cache corrupt, rebuilding] {path}")
            path.unlink()
    if label.startswith("d_"):
        values = arith.sieve_dk(int(label.split("_")[1]), N).values
    elif label == "tau":
        values = modularforms.tau_table(N).tau
    elif label == "a_tilde":
        tau = modularforms.TauTable(N, list(build_table(cfg, "tau", N, verbose)))
        values = modularforms.normalize(tau).values
    elif label == "a_tilde_sq_conv":
        at = load_coeff_table(cfg, "a_tilde", N)
        values = modularforms.self_convolve(at).values
    elif label == "rankin_c":
        at = load_coeff_table(cfg, "a_tilde", N)
        values = modularforms.rankin_c(at).c
    else:  # pragma: no cover
        raise AssertionError(label)
    params = {"k": int(label.split("_")[1])} if label.startswith("d_") else {}
    cache.save_table(path, label, dict(params, N=N), values)
    if verbose:
        print(f"[built] {path}")
    return values


def load_coeff_table(cfg: RunConfig, label: str, N: int) -> arith.CoeffTable:
    values = build_table(cfg, label, N, verbose=False)
    params = {"k": int(label.split("_")[1])} if label.startswith("d_") else {}
    if label == "tau":
        raise ValueError("tau is big-integer valued; use a_tilde for CoeffTable work")
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    return arith.CoeffTable(label, N, arr, params)


# ---------------------------------------------------------------------------
# Manifest parsing and the experiment command
# ---------------------------------------------------------------------------

def parse_manifest(path) -> list[dict]:
    """Blank-line separated key=value blocks -> list of cell dicts."""
    cells = []
    block: dict = {}
    lines = Path(path).read_text().splitlines() + [""]
    for ln in lines:
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            if block:
                cells.append(block)
                block = {}
            continue
        if "=" not in ln:
            raise ValueError(f"manifest line not key=value: {ln!r}")
        key, val = (p.strip() for p in ln.split("=", 1))
        block[key] = val
    out = []
    for blk in cells:
        if "family" not in blk:
            raise ValueError(f"manifest cell missing 'family': {blk}")
        family = blk["family"]
        k = int(blk.get("k", "1"))
        sigmas = [float(s) for s in blk.get("sigma", "0.75").split()]
        T_grid = [float(t) for t in blk.get("T_grid", "250 500 1000 2000").split()]
        for sg in sigmas:
            cell = {"family": family, "k": k, "sigma": sg, "T_grid": T_grid}
            if "rel_tol" in blk:
                cell["rel_tol"] = float(blk["rel_tol"])
            if "slack" in blk:
                cell["slack"] = float(blk["slack"])
            if "N" in blk:
                cell["N"] = int(blk["N"])
            out.append(cell)
    return out


_FAMILY_TABLE = {"F2": "a_tilde", "F4": "a_tilde_sq_conv", "Z2": "rankin_c"}
_FAMILY_DEFAULT_N = {"F2": 160000, "F4": 160000, "Z2": 100000}
_FAMILY_K = {"F2": 1, "F4": 2, "Z2": 1}  # k is free for zeta only


def run_cells(cfg: RunConfig, cells: list[dict], ledger: ResultLedger) -> bool:
    all_pass = True
    summaries = []
    for cell in cells:
        family, k, sigma = cell["family"], cell["k"], cell["sigma"]
        k = _FAMILY_K.get(family, k)
        if not 0.5 < sigma < 1.0:
            raise ValueError(f"sigma={sigma} outside (1/2, 1)")
        coeffs = None
        pole_residue = None
        if family in _FAMILY_TABLE:
            label = _FAMILY_TABLE[family]
            N = cell.get("N", _FAMILY_DEFAULT_N[family])
            path = _cache_path(cfg, label, N)
            if not path.exists():
                raise FileNotFoundError(
                    f"required table missing: run `zetamoments build-tables {label}={N}` first"
                )
            coeffs = load_coeff_table(cfg, label, N)
            if family == "Z2":
                rd = modularforms.RankinData(N, coeffs.values)
                pole_residue = modularforms.rankin_A(rd, N)
        res = moments.exponent_experiment(
            family, k, sigma, cell["T_grid"],
            coeffs=coeffs, pole_residue=pole_residue,
            rel_tol=cell.get("rel_tol", cfg.rel_tol),
            slack=cell.get("slack", cfg.slack),
            workers=cfg.workers, budget=cfg.budget,
        )
        ledger.append_records(res.records)
        summaries.append({
            "family": family, "k": k, "sigma": sigma,
            "slope": res.fit.slope, "intercept": res.fit.intercept,
            "r2": res.fit.r2, "theory_exponent": res.fit.theory_exponent,
            "slack": res.fit.slack, "pass": bool(res.fit.pass_),
            "constant": res.constant.value, "constant_tail": res.constant.tail_bound,
            "near_half": res.near_half,
            "spread": max(r.spread for r in res.records),
            "level": max(r.level for r in res.records),
            "points": max(r.points for r in res.records),
        })
        status = "PASS" if res.fit.pass_ else "FAIL"
        print(f"[{status}] {family} k={k} sigma={sigma}: slope {res.fit.slope:.3f} "
              f"vs {res.fit.theory_exponent:.3f}+{res.fit.slack}")
        all_pass &= bool(res.fit.pass_)
    ledger.write_summary(summaries)
    return all_pass


# ---------------------------------------------------------------------------
# Selfcheck
# ---------------------------------------------------------------------------

def cmd_selfcheck(cfg: RunConfig) -> int:
    from .evaluate import chi_factor, zeta_em

    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    # functional equation on a coarse grid
    worst = 0.0
    for sg in (0.1, 0.3, 0.5, 0.7, 0.9):
        for t in (1.0, 5.0, 20.0, 50.0, 100.0):
            s = complex(sg, t)
            lhs = zeta_em(s).value
            rhs = chi_factor(s).value * zeta_em(1 - s).value
            worst = max(worst, abs(lhs - rhs))
    check("functional equation |zeta - chi zeta(1-s)| < 1e-8", worst < 1e-8, f"worst {worst:.2e}")

    # Hecke relations on tau up to 1e4 (cache-aware so corruption is caught)
    N = 10**4
    path = _cache_path(cfg, "tau", N)
    tau = list(build_table(cfg, "tau", N, verbose=False))
    ok = tau[0] == 1 and tau[1] == -24
    for p in (2, 3, 5, 7, 11, 13):
        pk = p * p
        while pk <= N:
            if tau[pk - 1] != tau[p - 1] * tau[pk // p - 1] - p**11 * tau[pk // (p * p) - 1]:
                ok = False
            pk *= p
    import random

    rng = random.Random(7)
    for _ in range(500):
        m = rng.randrange(2, 100)
        n = rng.randrange(2, N // m)
        if np.gcd(m, n) == 1 and tau[m * n - 1] != tau[m - 1] * tau[n - 1]:
            ok = False
    check("tau Hecke relations to 1e4", ok, f"cache file {path}" if not ok else "")

    # dual-method main terms, k <= 3
    for k in (1, 2, 3):
        mt = moments.main_term_zeta(k, 0.75, prime_cut=10**5)
        dk = arith.sieve_dk(k, 10**6)
        direct = moments.main_term_zeta_direct(k, 0.75, dk)
        gap = abs(mt.value - direct.value)
        tol = mt.tail_bound + direct.tail_bound
        check(f"main term k={k} euler vs direct", gap <= tol,
              f"gap {gap:.3g} vs combined tails {tol:.3g}")

    # synthetic power-law fits
    X = np.geomspace(10, 1e4, 20)
    fit = moments.fit_power_law(list(zip(X, 3.0 * X**0.5)))
    check("synthetic fit slope 0.5", abs(fit.slope - 0.5) < 1e-12, f"{fit.slope}")
    fit = moments.fit_power_law(list(zip(X, 2.0 * X**2)))
    check("synthetic fit slope 2.0", abs(fit.slope - 2.0) < 1e-12, f"{fit.slope}")

    print(f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="zetamoments", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--cache-dir", default="zml_cache")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--rel-tol", type=float, default=1e-4)
    ap.add_argument("--slack", type=float, default=0.25)
    ap.add_argument("--budget", type=int, default=5_000_000)
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build-tables", help="build and cache coefficient tables")
    b.add_argument("tables", nargs="+", metavar="LABEL=N")

    e = sub.add_parser("experiment", help="run a manifest of moment experiments")
    e.add_argument("manifest")
    e.add_argument("--out-dir", default="results")

    sub.add_parser("selfcheck", help="fast invariant suite")

    x = sub.add_parser("export", help="export a cached table as CSV")
    x.add_argument("--label", required=True)
    x.add_argument("--N", type=int, required=True)
    x.add_argument("--out", required=True)

    args = ap.parse_args(argv)
    try:
        cfg = RunConfig(Path(args.cache_dir), args.workers, args.rel_tol,
                        args.slack, args.budget)
        if args.cmd == "build-tables":
            for spec_item in args.tables:
                if "=" not in spec_item:
                    raise ValueError(f"expected LABEL=N, got {spec_item!r}")
                label, n = spec_item.split("=", 1)
                build_table(cfg, label.strip(), int(n))
            return 0
        if args.cmd == "experiment":
            cells = parse_manifest(args.manifest)
            out = Path(args.out_dir)
            run_id = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            ledger = ResultLedger(out / "ledger.csv", out / "summary.json", run_id)
            ok = run_cells(cfg, cells, ledger)
            return 0 if ok else 1
        if args.cmd == "selfcheck":
            return cmd_selfcheck(cfg)
        if args.cmd == "export":
            path = _cache_path(cfg, args.label, args.N)
            if not path.exists():
                raise FileNotFoundError(
                    f"no cached table at {path}; run `zetamoments build-tables "
                    f"{args.label}={args.N}` first"
                )
            _, _, values = cache.load_table(path)
            cache.export_csv(args.out, values)
            print(f"wrote {args.out}")
            return 0
    except (ValueError, FileNotFoundError, arith.CapacityError,
            arith.PrecisionError, cache.CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
