"""The benchmark's workloads: inputs drawn from a seed, set-up, the measured
CLI command (`zetamoments.cli.main`, called in this process) and the gates
on its outputs.

Seed 0 gives the canonical inputs listed in README.md.  Any other seed
draws each cell's sigma within +-0.01 of the canonical value and each
table length within +-2% of it, so timings stay comparable across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gates
from spans import Tracer, layer_metrics

SETUP_REPEATS = 9
REL_TOL = 1e-4  # the CLI's default --rel-tol, which the commands keep

# Workload and metric names, with their units, as BENCHMARK.json declares them.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Spec:
    """Everything the program is given: LABEL=N arguments or a manifest."""

    workload: str
    seed: int
    smoke: bool
    tables: list = field(default_factory=list)  # LABEL=N arguments
    cells: list = field(default_factory=list)   # (family, k, sigma)
    T_grid: list = field(default_factory=list)
    N: int | None = None
    workers: int = 1

    def manifest(self) -> str:
        blocks = []
        for family, k, sigma in self.cells:
            lines = [f"family = {family}", f"k = {k}", f"sigma = {sigma!r}",
                     "T_grid = " + " ".join(f"{T:g}" for T in self.T_grid)]
            if self.N is not None:
                lines.append(f"N = {self.N}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    @property
    def canonical(self) -> bool:
        return self.seed == 0 and not self.smoke


def make_spec(workload: str, seed: int, smoke: bool = False) -> Spec:
    rng = random.Random(f"{workload}/{seed}")

    def length(n: int) -> int:
        return n if seed == 0 else round(n * rng.uniform(0.98, 1.02))

    def sigma(s: float) -> float:
        return s if seed == 0 else round(s + rng.uniform(-0.01, 0.01), 4)

    spec = Spec(workload, seed, smoke)
    if workload == "tables":
        nd, nt = (100_000, 1500) if smoke else (length(1_000_000), length(15_000))
        spec.tables = [f"d_3={nd}"] + [f"{label}={nt}" for label in
                                        ("tau", "a_tilde", "a_tilde_sq_conv", "rankin_c")]
    elif workload == "zeta":
        spec.cells = [("zeta", k, sigma(s)) for k, s in ((1, 0.75), (1, 0.9), (2, 0.75), (3, 0.9))]
        spec.T_grid = [25.0, 50.0, 100.0, 200.0] if smoke else [100.0, 200.0, 400.0, 800.0]
    elif workload == "series":
        spec.N = 3000 if smoke else length(12_000)
        spec.cells = [(f, 2 if f == "F4" else 1, sigma(0.8)) for f in ("F2", "F4", "Z2")]
        spec.T_grid = [10.0, 20.0, 40.0, 80.0] if smoke else [20.0, 40.0, 80.0, 160.0]
        spec.tables = [f"{label}={spec.N}" for label in
                       ("tau", "a_tilde", "a_tilde_sq_conv", "rankin_c")]
        spec.workers = min(2, len(os.sched_getaffinity(0)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, op: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems[:3])


# Speed probes.  On the shared host the same code drifts up to 1.8x in speed
# over tens of seconds while steal time stays nil (turbo frequency and shared
# caches follow the other tenants' load), and different kinds of work drift
# differently.  So each kind of work has a probe of about 10-20 ms that does
# a miniature of it with Python and numpy alone, timed either side of every
# set-up and iteration; times are rescaled to the speed at which the probe
# takes its reference seconds (a fixed value near its time on the 2-core
# Xeon KVM machine where the benchmark was defined).
def _probe_tables() -> float:
    """Interpreted loops and a big-integer product, like the tau build."""
    x = 3**120_000
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += (i * i) & 7
    x *= x + 1
    return time.perf_counter() - t0


def _probe_phase_sum(terms: int, columns: int, rows: int) -> float:
    """Row-by-row phase rotation and product, like the phase-sum kernel."""
    ln = np.log(np.arange(1.0, terms + 1.0))
    w = np.repeat(np.exp(-0.8 * ln)[:, None], columns, axis=1)
    cur, rot = np.exp(-3j * ln), np.exp(-0.01j * ln)
    t0 = time.perf_counter()
    for _ in range(rows):
        cur @ w
        cur *= rot
    return time.perf_counter() - t0


PROBES = {  # kind of work -> (probe, reference seconds)
    "tables": (_probe_tables, 0.020),
    "zeta": (lambda: _probe_phase_sum(1600, 1, 2000), 0.012),
    "series": (lambda: _probe_phase_sum(12_000, 2, 150), 0.009),
}
# the kind of work of each workload's set-up; the measured command's kind is
# the workload itself (series set-up builds tables)
SETUP_WORK = {"tables": "tables", "zeta": "zeta", "series": "tables"}


class Speed:
    """Rescales seconds to the reference speed of one probe, from the probe
    times on either side of the timed work."""

    def __init__(self, kind: str):
        self.probe, self.ref_s = PROBES[kind]
        self.times = [self.probe()]

    def tick(self) -> None:
        self.times.append(self.probe())

    def rescale(self, seconds: float) -> float:
        self.tick()
        return seconds * self.ref_s / ((self.times[-2] + self.times[-1]) / 2.0)


def call_cli(cli, argv: list) -> tuple[int | None, float, str]:
    """Run the CLI in-process; returns (exit status or None on a crash,
    seconds, captured output).  Only the call itself is timed."""
    buf = io.StringIO()
    status = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=buf)
        else:
            elapsed = time.perf_counter() - t0
    return status, elapsed, buf.getvalue()


def _table_path(cache_mod, cache_dir: Path, arg: str) -> tuple[str, Path]:
    label, n = arg.split("=")
    params = {"k": int(label.split("_")[1])} if label.startswith("d_") else {}
    return label, cache_dir / cache_mod.cache_key(label, params, int(n))


class Tables:
    """build-tables into an empty cache, then the same command again, which
    finds every table in the cache."""

    def __init__(self, spec: Spec, zm: dict, work: Path):
        self.spec, self.zm, self.work = spec, zm, work
        self.cache_dir = work / "cache"
        self.certified: dict = {}  # label -> sha256 of the certified cache file
        self.reload_s = math.nan
        self.rewritten: list = []  # labels the warm command wrote again

    def _argv(self) -> list:
        return ["--cache-dir", str(self.cache_dir), "build-tables", *self.spec.tables]

    def setup(self, d: Path) -> None:
        """Warm-up at a quarter of the size, so lazy first-call work is done."""
        small = [f"{a.split('=')[0]}={int(a.split('=')[1]) // 4}" for a in self.spec.tables]
        status, _, out = call_cli(self.zm["cli"], ["--cache-dir", str(d / "warmup"),
                                                   "build-tables", *small])
        if status != 0:
            raise RuntimeError(f"set-up build-tables failed ({status}):\n{out}")

    def command(self) -> tuple[int | None, float, str]:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.reload_s, self.rewritten = math.nan, []
        status, cold, out = call_cli(self.zm["cli"], self._argv())
        if status != 0:
            return status, cold, out
        stamps = {lb: _stamp(p) for lb, p in self._paths().items()}
        status, self.reload_s, out2 = call_cli(self.zm["cli"], self._argv())
        self.rewritten = [lb for lb, p in self._paths().items() if _stamp(p) != stamps[lb]]
        return status, cold + self.reload_s, out + out2

    def check(self, status, out: str, tally: Tally) -> dict:
        """The first good build passes the full gates; later builds must
        reproduce its bytes, and the warm command must rewrite nothing."""
        paths = self._paths()
        if status != 0:
            problems_of = {lb: [f"exit status {status}: {out[-300:]}"] for lb in paths}
        elif not self.certified:
            problems_of = self.certify(paths)
            for label, path in paths.items():
                if not problems_of[label]:
                    self.certified[label] = _sha256(path)
        else:
            problems_of = {lb: self._recheck(lb, path) for lb, path in paths.items()}
        for label in self.rewritten:
            problems_of[label].append("cache file rewritten by the warm command")
        for label, problems in problems_of.items():
            tally.record(f"build {label}", problems)
        return {"cli.reload_s": self.reload_s}

    def _paths(self) -> dict:
        return dict(_table_path(self.zm["cache"], self.cache_dir, a) for a in self.spec.tables)

    def _recheck(self, label: str, path: Path) -> list:
        if label not in self.certified:
            return ["table never passed its gates"]
        if _sha256(path) != self.certified[label]:
            return ["table differs from the certified first build"]
        return []

    def certify(self, paths: dict) -> dict:
        load = self.zm["cache"].load_table
        values = {label: load(path)[2] for label, path in paths.items()}
        ref = gates.load_reference() if self.spec.canonical else {}
        out = gates.check_derived(values["tau"], values["a_tilde"], values["a_tilde_sq_conv"],
                                  values["rankin_c"], random.Random(self.spec.seed))
        out["tau"] = gates.check_tau(values["tau"], ref.get("tau_text_sha256"))
        out["d_3"] = gates.check_d3(values["d_3"])
        return out


def _stamp(path: Path) -> tuple:
    st = path.stat()
    return st.st_ino, st.st_mtime_ns, st.st_size


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Experiment:
    """An experiment manifest through the CLI; series tables come from set-up."""

    def __init__(self, spec: Spec, zm: dict, work: Path):
        self.spec, self.zm, self.work = spec, zm, work
        self.cache_dir = work / "cache"
        self.manifest = work / "manifest.txt"
        self.reference = (gates.load_reference()["ledgers"][spec.workload]
                          if spec.canonical else None)

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True, exist_ok=True)
        if self.spec.tables:
            status, _, out = call_cli(self.zm["cli"], ["--cache-dir", str(d / "cache"),
                                                       "build-tables", *self.spec.tables])
            if status != 0:
                raise RuntimeError(f"set-up build-tables failed ({status}):\n{out}")
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            shutil.move(str(d / "cache"), self.cache_dir)
        else:  # warm-up: the first cell on a grid a quarter as high
            family, k, sigma = self.spec.cells[0]
            small = d / "warmup.txt"
            small.write_text(f"family = {family}\nk = {k}\nsigma = {sigma!r}\nT_grid = "
                             + " ".join(f"{T / 4:g}" for T in self.spec.T_grid) + "\n")
            status, _, out = call_cli(self.zm["cli"], ["--cache-dir", str(d / "cache"),
                                                       "experiment", str(small),
                                                       "--out-dir", str(d / "out")])
            if status not in (0, 1):
                raise RuntimeError(f"set-up warm-up failed ({status}):\n{out}")
        self.manifest.write_text(self.spec.manifest())

    def command(self) -> tuple[int | None, float, str]:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        return call_cli(self.zm["cli"], ["--cache-dir", str(self.cache_dir),
                                         "--workers", str(self.spec.workers),
                                         "experiment", str(self.manifest),
                                         "--out-dir", str(out)])

    def check(self, status, out: str, tally: Tally) -> dict:
        """Exit status 1 is a slope verdict, not a failure; 2 or a crash is."""
        cells = self.spec.cells
        facts = {"moments.cells": float(len(cells)), "moments.cells_pass": 0.0,
                 "moments.quad_rel_err_max": 0.0}
        if status not in (0, 1):
            for c in cells:
                tally.record(f"cell {c}", [f"exit status {status}: {out[-300:]}"])
            return facts
        rows, summary = gates.read_ledger(self.work / "out")
        passed = {(c["family"], c["k"], c["sigma"]): c["pass"] for c in summary}
        for j, (family, k, sigma) in enumerate(cells):
            mine = [r for r in rows if (r["family"], int(r["k"]), float(r["sigma"]))
                    == (family, k, sigma)]
            ref = self.reference[j] if self.reference is not None else None
            problems = gates.check_cell(mine, len(self.spec.T_grid), REL_TOL, ref)
            if (family, k, sigma) not in passed:
                problems.append("cell missing from summary.json")
            tally.record(f"cell {family} k={k} sigma={sigma}", problems)
            facts["moments.cells_pass"] += float(bool(passed.get((family, k, sigma))))
            for r in mine:
                facts["moments.quad_rel_err_max"] = max(
                    facts["moments.quad_rel_err_max"],
                    float(r["quad_err"]) / abs(float(r["integral"])))
        if (status == 0) != (facts["moments.cells_pass"] == len(cells)):
            tally.record("exit status", [f"status {status} disagrees with summary.json"])
        return facts

    def spot_check(self, tally: Tally) -> None:
        """Kernel values at seed-drawn heights against an independent
        evaluation, one operation per checked grid; a 200-point uniform grid
        exercises the same path as the moment grids."""
        rng = random.Random(f"spot/{self.spec.workload}/{self.spec.seed}")
        ev = self.zm["evaluate"]
        Tmax = self.spec.T_grid[-1]
        pick = [0, 50, 100, 150, 199]
        if self.spec.workload == "zeta":
            import mpmath

            mpmath.mp.dps = 30
            for sigma in sorted({c[2] for c in self.spec.cells}):
                ts = rng.uniform(1.0, Tmax - 2.0) + 0.01 * np.arange(200)
                z = ev.zeta_em_grid(sigma, ts)
                problems = []
                for j in pick:
                    ref = complex(mpmath.zeta(mpmath.mpc(sigma, ts[j])))
                    problems += _spot(abs(z[j] - ref), 1e-10 * max(1.0, abs(ref)),
                                      f"zeta_em_grid({sigma}+{ts[j]:.4f}i)")
                tally.record(f"spot check zeta_em_grid sigma={sigma}", problems)
            return
        label, path = _table_path(self.zm["cache"], self.cache_dir, f"a_tilde={self.spec.N}")
        a = np.asarray(self.zm["cache"].load_table(path)[2], dtype=np.float64)
        sigma = self.spec.cells[0][2]
        Y = len(a) / 74.0
        ts = rng.uniform(1.0, Tmax - 2.0) + 0.01 * np.arange(200)
        vals, _ = ev.smoothed_grid(a, sigma, ts, Y)
        n = np.arange(1, len(a) + 1, dtype=np.float64)
        w = a * n**-sigma
        # direct sum over the whole table: terms past 74 Y weigh < e^-37
        problems = []
        for j in pick:
            ph = np.exp(-1j * ts[j] * np.log(n))
            ref = 2.0 * np.sum(w * np.exp(-n / (2.0 * Y)) * ph) - np.sum(w * np.exp(-n / Y) * ph)
            problems += _spot(abs(vals[j] - ref), 1e-10 * float(np.sum(np.abs(w))),
                              f"smoothed_grid(F2, {sigma}+{ts[j]:.4f}i)")
        tally.record(f"spot check smoothed_grid sigma={sigma}", problems)


def _spot(err: float, tol: float, what: str) -> list:
    return [] if err <= tol else [f"{what}: error {err:.3g} > {tol:.3g}"]


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        zm: dict, smoke: bool = False) -> dict:
    """Set up, measure for `seconds`, check; returns the result and a report."""
    spec = make_spec(workload, seed, smoke)
    kind = Tables if workload == "tables" else Experiment
    wl = kind(spec, zm, work)
    work.mkdir(parents=True, exist_ok=True)

    setup_speed = Speed(SETUP_WORK[workload])
    setup_s, setup_ref = [], []
    for r in range(SETUP_REPEATS):
        d = work / f"setup{r}"
        t0 = time.perf_counter()
        wl.setup(d)
        setup_s.append(time.perf_counter() - t0)
        setup_ref.append(setup_speed.rescale(setup_s[-1]))
        shutil.rmtree(d, ignore_errors=True)

    speed = Speed(workload)
    tracer = Tracer(zm) if trace else None
    tally = Tally()
    plain, plain_ref, traced, rows = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    # in a traced run, plain and traced iterations alternate so that their
    # difference is the tracing overhead
    while i < (2 if trace else 1) or time.perf_counter() < deadline:
        traced_now = trace and i % 2 == 1
        first = len(tracer.spans) if traced_now else 0
        with tracer.patched(f"iter{i}") if traced_now else contextlib.nullcontext():
            status, elapsed, out = wl.command()
        if i == 0:
            # the program's peak: read before any gate has run, since the
            # gates' own arrays would otherwise set it; inputs are fixed, so
            # later iterations reach the same peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        facts = wl.check(status, out, tally)
        if traced_now:
            speed.tick()
            traced.append(elapsed)
            row, acc = layer_metrics(tracer.spans[first:])
            row.update(facts)
            # self times partition the timed calls, apart from time that
            # concurrent children count twice
            acc["gap_s"] = acc["self_sum_s"] - acc["concurrent_s"] - elapsed
            rows.append((row, acc))
        else:
            plain.append(elapsed)
            plain_ref.append(speed.rescale(elapsed))
        i += 1
    if isinstance(wl, Experiment):
        wl.spot_check(tally)

    report = {"workload": workload, "seed": seed,
              "inputs": {"tables": spec.tables, "manifest": spec.manifest() if spec.cells else ""},
              "workers": spec.workers, "iterations": len(plain) + len(traced),
              "setup_samples": len(setup_s), "wall_samples": len(plain),
              "setup_s_unscaled": statistics.median(setup_s),
              "wall_s_unscaled": statistics.median(plain),
              "setup_probe_s": statistics.median(setup_speed.times),
              "probe_s": statistics.median(speed.times),
              "ops": tally.attempted, "ops_failed": tally.failed,
              "ops_failed_ratio": tally.failed / max(tally.attempted, 1),
              "last_iteration": facts,
              "problems": tally.problems[:20]}
    if trace:
        m = {name: statistics.median(r.get(name, 0.0) for r, _ in rows) for name in PER_LAYER}
        m["trace.wall_s"] = statistics.median(traced)
        m["trace.untraced_wall_s"] = statistics.median(plain)
        m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
        accounting = {key: statistics.median(a[key] for _, a in rows)
                      for key in ("root_s", "self_sum_s", "concurrent_s", "spans")}
        gap = max(abs(a["gap_s"]) for _, a in rows)
        accounting.update(max_abs_gap_s=gap, within_overhead=gap <= abs(m["trace.overhead_s"]))
        report["accounting"] = accounting
        report["table_checksums"] = dict(sorted((s.attrs["table"], s.attrs["checksum"])
                                                for s in tracer.spans
                                                if s.name == "cache.save_table"))
        tracer.write(work.parent / f"trace-{workload}-seed{seed}.json", report)
        metrics = {name: {"value": m[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setup_ref), "wall_s": statistics.median(plain_ref),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return {"result": result, "report": report}
