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

sigma may list several values (one cell each).  Other keys: slack (the
slope's allowance over the theory exponent, default 0.25) and N.  Tables, k
and default N come from moments.FAMILIES; an omitted k is the family's (1 for
zeta).  An unknown key or family, a key with no value or given twice in one
block, a contradicting k, a zeta k outside 1..6, a sigma outside (1/2, 1), a
T not finite or outside [1, 5000], two T on one grid point, an N below 1, a
slack not finite and a missing table are errors before any cell runs.
Each moments.MomentRecord appends as one ledger.csv row, its fields the columns
(family,k,sigma,T,integral,main,residual,quad_err); a JSON summary per run
records slope / theory_exponent / pass, the cell's moments.QuadraturePass
(start step `h`, halving `level`, integrand `points`, Euler-Maclaurin cut
`em_cut` = max(2t/3, 50) at the grid's last t, null for series, Y-doubling
`spread`, and the final level's `blocks`, each with its first and last t,
points, em_cut or Y, and zeta's `estimate`),
its wall seconds per stage (`stage_s`: table_load, main_term, integrand with a
pole's residue, simpson_fit) and the sha256 of the cached table it read
(`table_sha256`, null for zeta), none of which reach ledger.csv.  A command
loads each table once, for every cell that reads it, and splits its
`stage_s.table_load` evenly among them.
The cells of a manifest run as one call: cells that share a grid share its
integrand passes (see moments), and the rows are appended in manifest order
once every cell has run, into an --out-dir made before the first cell runs.
A shared pass's integrand time is split evenly among the cells it
evaluated, so `stage_s.integrand` is each cell's share.
Identical manifests re-run against the same cache append identical value
rows, independent of the BLAS thread count and of which cells share a
manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import arith, cache, modularforms, moments

_TABLE_LABELS = ("d_1", "d_2", "d_3", "d_4", "d_5", "d_6",
                 "tau", "a_tilde", "a_tilde_sq_conv", "rankin_c")


@dataclass
class ResultLedger:
    csv_path: Path
    summary_path: Path
    run_id: str

    CSV_HEADER = ",".join(f.name for f in fields(moments.MomentRecord))

    def append_records(self, records) -> None:
        new = not self.csv_path.exists()
        with open(self.csv_path, "a") as f:
            if new:
                f.write(self.CSV_HEADER + "\n")
            for r in records:
                f.write(",".join(map(str, astuple(r))) + "\n")

    def write_summary(self, cells: list) -> None:
        payload = {"run_id": self.run_id, "cells": cells}
        self.summary_path.write_text(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Table building / loading
# ---------------------------------------------------------------------------

def _params(label: str) -> dict:
    """Generator parameters of a table label: k for d_k, none otherwise."""
    return {"k": int(label.split("_")[1])} if label.startswith("d_") else {}


def _cache_path(cache_dir: Path, label: str, N: int) -> Path:
    return cache_dir / cache.cache_key(label, _params(label), N)


def build_table(cache_dir: Path, label: str, N: int, verbose: bool = True):
    """Build (or fetch from cache) one table; returns the values."""
    return _build_table(cache_dir, label, N, verbose, built={}, need_values=True)


# the table each derived table is computed from
_SOURCE = {"a_tilde": "tau", "a_tilde_sq_conv": "a_tilde", "rankin_c": "a_tilde"}


def _build_table(cache_dir: Path, label: str, N: int, verbose: bool, built: dict,
                 need_values: bool):
    """build_table within one command.  A source table this command built is
    kept in `built` ((label, N) -> values) and handed to the tables derived
    from it, not read back from disk.  A cache hit is checksum-verified, and
    decoded only when need_values; otherwise None is returned."""
    if label not in _TABLE_LABELS:
        raise ValueError(f"unknown table label {label!r}; expected one of {_TABLE_LABELS}")
    if (label, N) in built:
        return built[label, N]
    path = _cache_path(cache_dir, label, N)
    if path.exists():
        try:
            if need_values:
                values = cache.load_table(path)[2]
            else:
                cache.verify_table(path)
                values = None
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
    else:
        src = _build_table(cache_dir, _SOURCE[label], N, verbose, built, need_values=True)
        if label == "a_tilde":
            values = modularforms.normalize(modularforms.TauTable(N, src)).values
        else:
            at = arith.CoeffTable("a_tilde", N, src)
            convolve = (modularforms.self_convolve if label == "a_tilde_sq_conv"
                        else modularforms.rankin_c)
            values = convolve(at).values
    cache.save_table(path, label, dict(_params(label), N=N), values)
    if label in _SOURCE.values():
        built[label, N] = values
    if verbose:
        print(f"[built] {path}")
    return values


def load_coeff_table(cache_dir: Path, label: str, N: int) -> arith.CoeffTable:
    if label == "tau":
        raise ValueError("tau is big-integer valued; use a_tilde for CoeffTable work")
    return arith.CoeffTable(label, N, build_table(cache_dir, label, N, verbose=False),
                            _params(label))


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
        if not val:
            raise ValueError(f"manifest key {key!r} has no value")
        if key in block:
            raise ValueError(f"manifest key {key!r} repeated in one cell")
        block[key] = val
    out = []
    for blk in cells:
        if "family" not in blk:
            raise ValueError(f"manifest cell missing 'family': {blk}")
        unknown = set(blk) - {"family", "k", "sigma", "T_grid", "slack", "N"}
        if unknown:
            raise ValueError(f"unknown manifest key(s) {sorted(unknown)}")
        family = blk["family"]
        fam = moments.family_of(family, int(blk["k"]) if "k" in blk else None)
        if "N" in blk and fam.table is None:
            raise ValueError(f"family {family} reads no table; it takes no N")
        extra = {key: kind(blk[key]) for key, kind in (("slack", float), ("N", int)) if key in blk}
        if extra.get("N", 1) < 1:
            raise ValueError(f"manifest key 'N' must be at least 1, not {extra['N']}")
        k = int(blk.get("k", fam.k or 1))
        sigmas = [float(s) for s in blk.get("sigma", "0.75").split()]
        T_grid = [float(t) for t in blk.get("T_grid", "250 500 1000 2000").split()]
        out += [{"family": family, "k": k, "sigma": sg, "T_grid": T_grid, **extra}
                for sg in sigmas]
    return out


def run_cells(cache_dir: Path, cells: list[dict], ledger: ResultLedger) -> bool:
    # every cell's ranges (the checks integrate_moment_grid runs) and cached
    # table are checked before the first cell runs, so a bad cell leaves no rows
    tables = []
    for cell in cells:
        moments._check_ranges(cell["sigma"], cell["T_grid"])
        fam = moments.FAMILIES[cell["family"]]
        N = cell.get("N", fam.default_N)
        if fam.table is not None and not _cache_path(cache_dir, fam.table, N).exists():
            raise FileNotFoundError(
                f"required table missing: run `zetamoments build-tables {fam.table}={N}` first"
            )
        tables.append((fam.table, N))
    loaded = {}  # (label, N) -> its CoeffTable, sha256 and each cell's share of the load
    for label, N in dict.fromkeys(t for t in tables if t[0] is not None):
        t0 = time.perf_counter()
        coeffs = load_coeff_table(cache_dir, label, N)
        table_sha256 = cache.table_header(_cache_path(cache_dir, label, N))["sha256"]
        loaded[label, N] = (coeffs, table_sha256,
                            (time.perf_counter() - t0) / tables.count((label, N)))
    specs, loads = [], []
    for cell, table in zip(cells, tables):
        coeffs, table_sha256, table_load_s = loaded.get(table, (None, None, 0.0))
        loads.append((table_load_s, table_sha256))
        specs.append(dict(family=cell["family"], k=cell["k"], sigma=cell["sigma"],
                          T_grid=cell["T_grid"], coeffs=coeffs,
                          **({"slack": cell["slack"]} if "slack" in cell else {})))
    # an output directory that cannot be made fails here, before any cell's work
    for path in (ledger.csv_path, ledger.summary_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    # one call for every cell: cells that share a grid share its passes
    results = moments._experiments(specs)
    all_pass = True
    summaries = []
    for res, (table_load_s, table_sha256) in zip(results, loads):
        family, k, sigma = res.family, res.k, res.sigma
        ledger.append_records(res.records)
        summaries.append({
            "family": family, "k": k, "sigma": sigma,
            "slope": res.fit.slope, "intercept": res.fit.intercept,
            "r2": res.fit.r2, "theory_exponent": res.fit.theory_exponent,
            "slack": res.fit.slack, "pass": bool(res.fit.pass_),
            "constant": res.constant.value, "constant_tail": res.constant.tail_bound,
            "near_half": res.near_half,
            **{f: getattr(res.quadrature, f) for f in ("spread", "level", "points", "h", "em_cut")},
            "blocks": [b._asdict() for b in res.quadrature.blocks],
            "stage_s": dict(res.stage_s, table_load=table_load_s),
            "table_sha256": table_sha256,
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

def cmd_selfcheck(cache_dir: Path) -> int:
    import mpmath

    from .evaluate import (_EM_BLOCK, _em_cut, _grid_step, _nu_plan, _phase_dot, _zeta_em,
                           chi_factor, zeta_em)

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

    # the phase sum on uniform blocks (the NUFFT path) against a direct sum,
    # as a fraction of the kernel's rounding bound, each with its NUFFT's
    # (A2, D), the cells and rows of its short FFTs: a series-sized block
    # (6000 points, 12 000 terms, two columns), a zeta-shaped one (t in
    # [1, 50), 98 terms n^-0.75, one column), a grid whose phases wrap
    # (h ln N = 29 > 2 pi, so D = 1: one FFT of the whole grid) and a long
    # zeta-shaped one (25 569 points, 1599 terms n^-0.9, L = 65 000, D = 26)
    rng = np.random.default_rng(7)
    for name, ts, W in (
        ("series", 100.0 + 0.01 * np.arange(6000),
         rng.standard_normal((12000, 2)) * (np.arange(1.0, 12001.0) ** -0.75)[:, None]),
        ("zeta", 1.0 + 0.01 * np.arange(4900), (np.arange(1.0, 99.0) ** -0.75)[:, None]),
        ("wrapping", 7.0 + 3.1 * np.arange(500),
         rng.standard_normal((12000, 2)) * (np.arange(1.0, 12001.0) ** -0.75)[:, None]),
        ("long zeta", 1.0 + np.arange(25569) / 32.0, (np.arange(1.0, 1600.0) ** -0.9)[:, None]),
    ):
        ln = np.log(np.arange(1.0, len(W) + 1.0))
        h = _grid_step(ts)
        out, bound = _phase_dot(ts, h, ln, W)
        worst = max(float((np.abs(out[i] - np.exp(-1j * ts[i] * ln) @ W) / bound).max())
                    for i in np.r_[0:len(ts):97, len(ts) - 1])
        L, A2, D = _nu_plan(len(ts), h, ln)[:3]
        check(f"NUFFT phase sum vs direct sum within its rounding bound ({name} block)",
              worst < 1, f"L = {L}, (A2, D) = ({A2}, {D}), worst {worst:.3f} of the bound")

    # zeta on a short uniform grid at |t| < 5, where the deconvolution's
    # rounding dominates the estimate, against mpmath at 30 digits
    ts = -4.75 + 0.5 * np.arange(20)
    vals, (est,) = _zeta_em((2.0,), ts, _em_cut(float(np.abs(ts).max())))
    with mpmath.workdps(30):
        worst = max(abs(v - complex(mpmath.zeta(mpmath.mpc(2.0, t))))
                    for v, t in zip(vals[:, 0], ts))
    worst /= est
    check("zeta on a short uniform grid (sigma = 2, |t| < 5) vs mpmath within its estimate",
          worst < 1, f"worst {worst:.3f} of est + rnd")

    # zeta at height on a grid of two tail blocks, each of which sums only the
    # Bernoulli terms its own remainder bound needs: the blocks' first and
    # last points against mpmath at 30 digits
    ts = 1e4 + np.arange(_EM_BLOCK + _EM_BLOCK // 4) / 64.0
    vals, (est,) = _zeta_em((0.75,), ts, _em_cut(float(ts[-1])))
    with mpmath.workdps(30):
        worst = max(abs(vals[j, 0] - complex(mpmath.zeta(mpmath.mpc(0.75, ts[j]))))
                    for j in (0, _EM_BLOCK - 1, _EM_BLOCK, len(ts) - 1))
    worst /= est
    check("zeta at t ~ 1e4 (sigma = 0.75, two tail blocks) vs mpmath within its estimate",
          worst < 1, f"worst {worst:.3f} of the estimate")

    # the quadrature estimate against the same cell from a 4x finer start, on
    # a cell whose start step the band limit sets (h = 1/6), not the 1/4 cap
    cell = dict(family="zeta", k=3, sigma=0.9, T_grid=[800.0])
    rule = moments.integrate_moment_grid(**cell)[0]
    finer = moments._integrate_cells([cell], refine=4)[0][0]
    ratio = abs(rule.integral - finer.integral) / rule.quad_err
    check("zeta k=3 moment to T=800 within its quad_err of a 4x finer start", ratio < 1,
          f"|dI| = {ratio:.3f} quad_err")

    # a shared pass against its cells' solo passes: the column bits must not
    # depend on the other columns of a call, which rests on the local BLAS
    cells = [dict(family="zeta", k=1, sigma=sg, T_grid=[200.0]) for sg in (0.75, 0.9)]
    shared = moments._integrate_cells(cells)
    solo = [moments._integrate_cells([c])[0] for c in cells]
    same = all((a.integral, a.quad_err) == (b.integral, b.quad_err)
               for x, y in zip(shared, solo) for a, b in zip(x, y))
    check("zeta k=1, sigma 0.75 and 0.9 to T=200: one shared pass equals two solo passes "
          "bit for bit", same)

    # Hecke relations on tau up to 1e4 (cache-aware so corruption is caught)
    N = 10**4
    path = _cache_path(cache_dir, "tau", N)
    tau = list(build_table(cache_dir, "tau", N, verbose=False))
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
    ap.add_argument("--workers", type=int, default=1,
                    help="accepted and ignored (an int >= 1): every command runs in "
                         "the calling thread")
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
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        cache_dir = Path(args.cache_dir)
        if args.cmd == "build-tables":
            built: dict = {}
            for spec_item in args.tables:
                if "=" not in spec_item:
                    raise ValueError(f"expected LABEL=N, got {spec_item!r}")
                label, n = spec_item.split("=", 1)
                _build_table(cache_dir, label.strip(), int(n), True, built, need_values=False)
            return 0
        if args.cmd == "experiment":
            cells = parse_manifest(args.manifest)
            out = Path(args.out_dir)
            run_id = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            ledger = ResultLedger(out / "ledger.csv", out / "summary.json", run_id)
            ok = run_cells(cache_dir, cells, ledger)
            return 0 if ok else 1
        if args.cmd == "selfcheck":
            return cmd_selfcheck(cache_dir)
        if args.cmd == "export":
            path = _cache_path(cache_dir, args.label, args.N)
            if not path.exists():
                raise FileNotFoundError(
                    f"no cached table at {path}; run `zetamoments build-tables "
                    f"{args.label}={args.N}` first"
                )
            _, _, values = cache.load_table(path)
            cache.export_csv(args.out, values)
            print(f"wrote {args.out}")
            return 0
    except (ValueError, OSError, arith.CapacityError, arith.PrecisionError,
            cache.CacheError, moments.BudgetError, moments.DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
