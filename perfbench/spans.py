"""Span tracing of the program's layers, done entirely from outside the program.

`Tracer.patched()` wraps every public function of the six zetamoments
modules and, for the duration of the `with` block, replaces each module
attribute that refers to the original (in any zetamoments module, so the
names callers look up, such as `moments.zeta_em_grid`, are covered).  No
file of the program changes.  Spans (name, start, end, parent, run id,
thread) are kept in memory; `write()` dumps them when the run ends.

Worker threads start with an empty span stack; their spans take as parent
the innermost span open on the main thread, which is the call that is
waiting for them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("arith", "modularforms", "cache", "evaluate", "moments", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    thread: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Counters recorded at a layer boundary: (original function, args, kwargs,
# result) -> attributes of the span.  Values the program computes but does
# not return (Euler-Maclaurin cut, smoothed-sum length) are recomputed from
# the documented public rules and named "computed".
def _table_length(fn, a, kw, res):
    return {"n": _arg(fn, a, kw, "N")}


def _save_table(fn, a, kw, res):
    path = _arg(fn, a, kw, "path")
    return {"bytes": os.path.getsize(path), "table": os.path.basename(path), "checksum": res}


def _load_table(fn, a, kw, res):
    return {"bytes": os.path.getsize(_arg(fn, a, kw, "path"))}


def _grid(ts):
    n = len(ts)
    return {"points": n, "h": float(ts[1] - ts[0]) if n > 1 else 0.0}


def _zeta_em_grid(fn, a, kw, res):
    ts = _arg(fn, a, kw, "ts")
    em_cut = int(max(2.0 * float(max(abs(ts.max()), abs(ts.min()))), 50.0)) if len(ts) else 0
    return dict(_grid(ts), terms=max(em_cut - 1, 0), em_cut_computed=em_cut)


def _smoothed_grid(fn, a, kw, res):
    ts = _arg(fn, a, kw, "ts")
    terms = min(len(_arg(fn, a, kw, "values")), math.ceil(74.0 * _arg(fn, a, kw, "Y")))
    return dict(_grid(ts), terms=terms, spread=float(res[1]))


HOOKS = {
    "arith.sieve_dk": _table_length,
    "modularforms.tau_table": _table_length,
    "cache.save_table": _save_table,
    "cache.load_table": _load_table,
    "evaluate.zeta_em_grid": _zeta_em_grid,
    "evaluate.smoothed_grid": _smoothed_grid,
}


def public_functions(modules: dict) -> dict:
    """'layer.name' -> function, for every public function defined in a layer."""
    out = {}
    for layer in LAYERS:
        mod = modules[layer]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Records spans for calls into the program's public functions."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name (and "package") -> module object
        self.spans: list[Span] = []
        self.run = ""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, qualname: str, fn):
        hook = HOOKS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span = Span(len(self.spans), qualname, parent.id if parent else None,
                            self.run, threading.current_thread().name, 0.0)
                self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs = hook(fn, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, run: str):
        """Route every public-function lookup through a tracing wrapper."""
        self.run = run
        originals = {id(fn): (name, fn) for name, fn in public_functions(self.modules).items()}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        replaced = []
        for mod in set(self.modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and obj is originals[id(obj)][1]:
                    replaced.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        try:
            yield
        finally:
            for mod, attr, obj in replaced:
                setattr(mod, attr, obj)

    def write(self, path, header: dict) -> None:
        rows = [vars(s) for s in self.spans]
        with open(path, "w") as f:
            json.dump({"env": header, "spans": rows}, f, default=str)


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> tuple[dict, float]:
    """Per-span self time (span minus the union of its children), and the
    time children of one span ran concurrently (counted more than once)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out, concurrent = {}, 0.0
    for s in spans:
        iv = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        iv = [(lo, hi) for lo, hi in iv if hi > lo]
        covered = _union(iv)
        out[s.id] = (s.end - s.start) - covered
        concurrent += sum(hi - lo for lo, hi in iv) - covered
    return out, concurrent


def layer_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer numbers of one traced iteration (the per_layer metrics of
    BENCHMARK.json), and the benchmark's own accounting of its spans."""
    selfs, concurrent = self_times(spans)
    m: dict = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        m[s.name.split(".")[0] + ".self_s"] += selfs[s.id]

    def calls(name):
        return [s for s in spans if s.name == name]

    def total(name, key=None):
        return float(sum((s.end - s.start) if key is None else s.attrs.get(key, 0)
                         for s in calls(name)))

    for name in ("modularforms.tau_table", "modularforms.normalize",
                 "modularforms.self_convolve", "modularforms.rankin_c",
                 "modularforms.rankin_A", "arith.sieve_dk", "arith.prime_sieve",
                 "cache.save_table", "cache.load_table", "evaluate.zeta_em",
                 "evaluate.zeta_em_grid", "evaluate.smoothed_grid",
                 "moments.main_term_zeta", "moments.main_term_series"):
        m[name + ".s"] = total(name)
    m["modularforms.tau_table.n"] = total("modularforms.tau_table", "n")
    m["arith.sieve_dk.n"] = total("arith.sieve_dk", "n")
    for name in ("cache.save_table", "cache.load_table"):
        m[name + ".bytes"] = total(name, "bytes")
        m[name + ".calls"] = float(len(calls(name)))
    m["evaluate.zeta_em.calls"] = float(len(calls("evaluate.zeta_em")))
    for name in ("evaluate.zeta_em_grid", "evaluate.smoothed_grid"):
        work = sum(s.attrs["points"] * s.attrs["terms"] for s in calls(name))
        m[name + ".points"] = total(name, "points")
        m[name + ".terms"] = float(max((s.attrs["terms"] for s in calls(name)), default=0))
        m[name + ".rate"] = work / m[name + ".s"] if m[name + ".s"] > 0 else 0.0
    m["evaluate.zeta_em_grid.em_cut_computed"] = float(max(
        (s.attrs["em_cut_computed"] for s in calls("evaluate.zeta_em_grid")), default=0))
    m["evaluate.smoothed_grid.spread_max"] = max(
        (s.attrs["spread"] for s in calls("evaluate.smoothed_grid")), default=0.0)

    # refinement passes: each pass of integrate_moment_grid evaluates the
    # integrand on a grid of its own step, so passes = distinct child steps.
    # A one-point block (a grid ending on a dyadic edge) has no step.
    passes, points, igrid_self = [], 0.0, 0.0
    by_parent: dict = {}
    for s in spans:
        if s.name in ("evaluate.zeta_em_grid", "evaluate.smoothed_grid"):
            by_parent.setdefault(s.parent, []).append(s)
    for s in calls("moments.integrate_moment_grid"):
        kids = by_parent.get(s.id, [])
        passes.append(len({round(k.attrs["h"], 12) for k in kids if k.attrs["points"] > 1}))
        points += sum(k.attrs["points"] for k in kids)
        igrid_self += selfs[s.id]
    m["moments.integrate_moment_grid.self_s"] = igrid_self
    m["moments.passes"] = float(sum(passes))
    m["moments.passes_max"] = float(max(passes, default=0))
    m["moments.integrand_points"] = points

    accounting = {"root_s": sum(s.end - s.start for s in spans if s.parent is None),
                  "self_sum_s": sum(selfs.values()), "concurrent_s": concurrent,
                  "spans": len(spans)}
    return m, accounting
