"""Correctness gates on the program's outputs.

Each gate returns a list of problems (empty when the output passes).  They
read only what the CLI wrote (cache files, ledger.csv, summary.json) or
what a public function returned, and run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from math import isqrt
from pathlib import Path

import numpy as np

TAU_SMALL = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def load_reference() -> dict:
    """Default-seed outputs recorded at the seed commit (see README.md)."""
    return json.loads((Path(__file__).parent / "reference.json").read_text())


def smallest_prime_factor(N: int) -> np.ndarray:
    """spf[n] for 0 <= n <= N (spf[0] = 0, spf[1] = 1)."""
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in range(2, isqrt(N) + 1):
        if spf[p] == 0:
            seg = spf[p * p:: p]
            seg[seg == 0] = p
    idx = np.arange(N + 1, dtype=np.int64)
    spf[spf == 0] = idx[spf == 0]
    return spf


def _split_prime_power(N: int):
    """For every n <= N: n = p^a * m with p = spf(n), gcd(p, m) = 1.
    Returns (p^a, a, m) as arrays indexed by n (entries 0 and 1 unused)."""
    spf = smallest_prime_factor(N)
    m = np.arange(N + 1, dtype=np.int64)
    m[0] = 1
    p = np.maximum(spf, 2)
    a = np.zeros(N + 1, dtype=np.int64)
    while True:
        div = (m % p == 0) & (m > 1)
        if not div.any():
            break
        m[div] //= p[div]
        a[div] += 1
    return np.arange(N + 1, dtype=np.int64) // m, a, m


def tau_text_sha256(tau) -> str:
    """sha256 of tau(1..N) as decimal text, one value a line."""
    return hashlib.sha256("".join(f"{int(t)}\n" for t in tau).encode()).hexdigest()


def check_tau(tau: list, expect_sha: str | None = None) -> list[str]:
    """Known values, Hecke prime-power recursion for p <= sqrt N, the
    multiplicativity of every n, and the exact Deligne bound."""
    N = len(tau)
    problems = []
    if [int(t) for t in tau[:10]] != TAU_SMALL[: min(10, N)]:
        problems.append("tau(1..10) differs from the known values")
    pa, a, m = _split_prime_power(N)
    for p in range(2, isqrt(N) + 1):
        if a[p] != 1 or m[p] != 1:  # not a prime
            continue
        q = p * p
        while q <= N:
            if tau[q - 1] != tau[p - 1] * tau[q // p - 1] - p**11 * tau[q // (p * p) - 1]:
                problems.append(f"Hecke recursion fails at {p}^k = {q}")
            q *= p
    for n in np.nonzero(m > 1)[0]:
        n, q, r = int(n), int(pa[n]), int(m[n])
        if tau[n - 1] != tau[q - 1] * tau[r - 1]:
            problems.append(f"tau({n}) != tau({q}) tau({r})")
    d = np.zeros(N + 1, dtype=np.int64)
    for k in range(1, N + 1):
        d[k::k] += 1
    for n in range(1, N + 1):
        t = int(tau[n - 1])
        if t * t > int(d[n]) ** 2 * n**11:
            problems.append(f"Deligne bound fails at n={n}")
    if expect_sha is not None and tau_text_sha256(tau) != expect_sha:
        problems.append("sha256 of tau as decimal text differs from the reference")
    return problems[:20]


def check_d3(d3: np.ndarray) -> list[str]:
    """d_3(p^a) = C(a+2, 2) on every prime power, and multiplicativity on
    every n = p^a m: together these determine the whole table."""
    N = len(d3)
    v = np.concatenate([[0], np.asarray(d3, dtype=np.int64)])
    pa, a, m = _split_prime_power(N)
    n = np.arange(2, N + 1)
    pp = n[m[2:] == 1]
    bad = pp[v[pp] != (a[pp] + 1) * (a[pp] + 2) // 2]
    co = n[m[2:] > 1]
    bad = np.concatenate([bad, co[v[co] != v[pa[co]] * v[m[co]]]])
    problems = [] if v[1] == 1 else ["d_3(1) != 1"]
    return problems + [f"d_3 wrong at n={int(x)}" for x in bad[:20]]


def check_derived(tau: list, at: np.ndarray, conv: np.ndarray, rc: np.ndarray,
                  rng: random.Random) -> dict:
    """a~ against tau(n) n^-5.5; sampled a~*a~ and c_n against their divisor sums."""
    N = len(tau)
    n = np.arange(1, N + 1, dtype=np.float64)
    ref = np.array([float(t) for t in tau]) * n**-5.5
    out = {"a_tilde": [], "a_tilde_sq_conv": [], "rankin_c": []}
    if len(at) != N or not np.allclose(at, ref, rtol=1e-12, atol=0.0):
        out["a_tilde"].append("a~(n) != tau(n) n^-5.5")
    for k in rng.sample(range(1, N + 1), min(200, N)):
        ds = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
        ds = sorted(set(ds + [k // d for d in ds]))
        terms = [at[d - 1] * at[k // d - 1] for d in ds]
        if abs(conv[k - 1] - sum(terms)) > 1e-12 * sum(map(abs, terms)) + 1e-300:
            out["a_tilde_sq_conv"].append(f"(a~*a~)({k}) differs from its divisor sum")
        terms = [at[k // (d * d) - 1] ** 2 for d in range(1, isqrt(k) + 1) if k % (d * d) == 0]
        if abs(rc[k - 1] - sum(terms)) > 1e-12 * sum(terms):
            out["rankin_c"].append(f"c_{k} differs from its divisor sum")
    return out


def read_ledger(out_dir: Path) -> tuple[list[dict], list[dict]]:
    with open(out_dir / "ledger.csv") as f:
        rows = list(csv.DictReader(f))
    cells = json.loads((out_dir / "summary.json").read_text())["cells"]
    return rows, cells


def check_cell(rows: list[dict], n_T: int, rel_tol: float,
               reference: list | None) -> list[str]:
    """Ledger rows of one cell: count, finiteness, the quadrature gate
    quad_err <= rel_tol |I|, residual = integral - main and, on the default
    seed, the rows recorded at the seed commit."""
    problems = []
    if len(rows) != n_T:
        return [f"{len(rows)} ledger rows, expected {n_T}"]
    for r in rows:
        I, main, res, qe = (float(r[k]) for k in ("integral", "main", "residual", "quad_err"))
        if not all(map(math.isfinite, (I, main, res, qe))):
            problems.append(f"non-finite value at T={r['T']}")
        elif qe > rel_tol * abs(I):
            problems.append(f"quad_err {qe:.3g} > rel_tol |I| at T={r['T']}")
        elif abs(res - (I - main)) > 1e-9 * max(abs(I), abs(main)):
            problems.append(f"residual != integral - main at T={r['T']}")
    if reference is not None:
        for r, ref in zip(rows, reference):
            I, qe = float(r["integral"]), float(r["quad_err"])
            # the 1e-10 |I| floor admits evaluation rounding where the two
            # Simpson levels happen to agree to a few ulps
            tol = max(qe, float(ref["quad_err"])) + 1e-10 * abs(I)
            if float(r["T"]) != float(ref["T"]) or abs(I - float(ref["integral"])) > tol:
                problems.append(f"T={r['T']}: integral {I!r} vs reference {ref['integral']}")
            elif abs(float(r["main"]) - float(ref["main"])) > 1e-9 * abs(float(ref["main"])):
                problems.append(f"T={r['T']}: main {r['main']} vs reference {ref['main']}")
    return problems
