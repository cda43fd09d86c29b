"""Acceptance suite: one test per criterion, one printed verdict line each.

Asymptotic error-term claims are checked as slope envelopes with the
configured slack; exact arithmetic and identities are checked exactly or at
stated tolerances.  Criterion 6 compares the 4th and 6th zeta moments with
their full predicted main term C*T + S_k, where S_k is the one-swap
(off-diagonal) term of the CFKRS recipe: at desk height T = 2000 it is still
35-40% of C*T.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import zetamoments as zm
from zetamoments.cli import build_table
from zetamoments.moments import (
    exponent_experiment,
    fit_power_law,
    main_term_series,
    main_term_zeta,
    main_term_zeta_direct,
    residual,
    secondary_term,
    theory_exponent,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")


@pytest.fixture(scope="module")
def atilde_2e5():
    return zm.normalize(zm.tau_table(200000))


@pytest.fixture(scope="module")
def rankin_2e5(atilde_2e5):
    return zm.rankin_c(atilde_2e5)


# ---------------------------------------------------------------------------
# 1. exact arithmetic
# ---------------------------------------------------------------------------

def test_criterion_1_exact_arithmetic():
    t0 = time.time()
    rng = np.random.default_rng(1)
    N = 10**6
    for k in (1, 2, 3, 4):
        table = zm.sieve_dk(k, N)
        v = table.values
        checked = 0
        while checked < 10**4:
            m = rng.integers(2, 1000, size=4 * 10**4)
            n = rng.integers(2, N // 1000, size=4 * 10**4)
            sel = (np.gcd(m, n) == 1) & (m * n <= N)
            m, n = m[sel], n[sel]
            assert np.array_equal(v[m * n - 1], v[m - 1] * v[n - 1])
            checked += len(m)

    tau = zm.tau_table(10**5)
    tv = tau.tau
    # every Hecke prime-power recursion below N
    for p in map(int, zm.arith.prime_sieve(316)):
        pj = p * p
        while pj <= 10**5:
            assert tv[pj - 1] == tv[p - 1] * tv[pj // p - 1] - p**11 * tv[pj // p**2 - 1]
            pj *= p
    # coprime multiplicativity on 1e4 random pairs (exact big-int compare)
    pairs = 0
    while pairs < 10**4:
        m = int(rng.integers(2, 316))
        n = int(rng.integers(2, 10**5 // m))
        if math.gcd(m, n) == 1:
            assert tv[m * n - 1] == tv[m - 1] * tv[n - 1]
            pairs += 1
    # Deligne bound, exact integer form tau(n)^2 <= d(n)^2 n^11
    d = zm.sieve_dk(2, 10**5).values
    for n in range(1, 10**5 + 1):
        assert tv[n - 1] ** 2 <= int(d[n - 1]) ** 2 * n**11
    elapsed = time.time() - t0
    report(1, True, f"d_k multiplicativity (4 x 1e4 pairs), tau Hecke + Deligne "
                    f"exact to 1e5; {elapsed:.0f}s (< 300s)")
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 2. main-term identities
# ---------------------------------------------------------------------------

def test_criterion_2_main_term_identities():
    ok = True
    details = []
    for sigma in (0.6, 0.75, 0.9):
        # Ramanujan's identity against 30-digit zeta values, within the
        # constant's own tail_bound
        c = main_term_zeta(2, sigma)
        with mpmath.workdps(30):
            ref = float(mpmath.zeta(2 * mpmath.mpf(sigma)) ** 4 / mpmath.zeta(4 * mpmath.mpf(sigma)))
        rel = abs(c.value - ref) / ref
        ok &= rel <= c.tail_bound / ref and rel < 1e-12
        details.append(f"k=2 s={sigma}: id gap {rel:.1e} vs 30-digit mpmath "
                       f"(tail_bound {c.tail_bound / ref:.1e})")
        z2 = zm.zeta_em(complex(2 * sigma, 0), 1e-10).value.real
        z4 = zm.zeta_em(complex(4 * sigma, 0), 1e-10).value.real
        # the printed fourth-moment constant zeta^2(2s)/zeta(4s) differs from
        # the coefficient-square series by the factor zeta(2s)^2 -- document it
        printed = z2**2 / z4
        details.append(
            f"  [(1.2) discrepancy: sum d^2 n^-2s = {c.value:.6f} vs printed "
            f"form {printed:.6f}; ratio {c.value / printed:.6f} = zeta(2s)^2 "
            f"= {z2**2:.6f}]"
        )
    for k in (1, 2, 3, 4):
        table = zm.sieve_dk(k, 10**7)
        for sigma in (0.6, 0.75, 0.9):
            a = main_term_zeta(k, sigma)
            b = main_term_zeta_direct(k, sigma, table)
            gap = abs(a.value - b.value)
            tol = a.tail_bound + b.tail_bound
            ok &= gap <= tol
            details.append(f"k={k} s={sigma}: euler {a.value:.6g} vs direct "
                           f"{b.value:.6g}, gap {gap:.2g} <= tails {tol:.2g}")
        del table
    report(2, ok, "main-term identities and dual-method agreement:\n  " + "\n  ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 3. functional equation
# ---------------------------------------------------------------------------

def test_criterion_3_functional_equation():
    worst = 0.0
    for sg in np.linspace(0.1, 0.9, 10):
        for t in np.geomspace(1.0, 100.0, 10):
            s = complex(sg, t)
            gap = abs(zm.zeta_em(s).value - zm.chi_factor(s).value * zm.zeta_em(1 - s).value)
            worst = max(worst, gap)
    chi_dev = max(abs(abs(zm.chi_factor(0.5 + t * 1j).value) - 1.0) for t in (5.0, 20.0, 100.0))
    zero = abs(zm.zeta_em(0.5 + 14.134725j).value)
    ok = worst < 1e-8 and chi_dev < 1e-9 and zero < 1e-4
    report(3, ok, f"functional equation worst {worst:.2e} (<1e-8); "
                  f"|chi|-1 at t=5,20,100 worst {chi_dev:.2e} (<1e-9); "
                  f"|zeta(1/2+14.134725i)| = {zero:.2e} (<1e-4)")
    assert ok


# ---------------------------------------------------------------------------
# 4. divisor error terms
# ---------------------------------------------------------------------------

def test_criterion_4_divisor_error_terms():
    t0 = time.time()
    d2 = zm.sieve_dk(2, 10**6)
    poly = zm.main_poly(2)
    curve = zm.delta_mean_square(2, np.geomspace(1e4, 1e6, 41), d2, poly)
    fit = fit_power_law(curve.cumulative_ms)
    X, V = curve.cumulative_ms[-1]
    pred = main_term_zeta(2, 0.75).value / (6 * math.pi**2)
    ratio = V / (pred * X**1.5)
    elapsed = time.time() - t0
    ok = abs(fit.slope - 1.5) <= 0.05 and abs(ratio - 1.0) <= 0.10 and elapsed < 600
    report(4, ok, f"Delta_2 mean-square slope {fit.slope:.4f} (1.5 +- 0.05); "
                  f"constant ratio {ratio:.4f} (1 +- 0.10); {elapsed:.0f}s (< 600s)")
    assert ok


# ---------------------------------------------------------------------------
# 5. k=1 moment
# ---------------------------------------------------------------------------

def test_criterion_5_k1_moment():
    t0 = time.time()
    res = exponent_experiment("zeta", 1, 0.75, [250, 500, 1000, 2000],
                              slack=0.25)
    # criterion bound: fitted slope <= 2(1-sigma)/3 + 0.25, the sharp (k=1)
    # exponent, tighter than the table envelope used by the generic runner
    fit = fit_power_law([(r.T, r.residual) for r in res.records], strict=False)
    slope_ok = fit.slope <= 2 * (1 - 0.75) / 3 + 0.25
    bound_ok = all(
        abs(r.residual) <= 5 * r.T ** (1 / 6) * math.log(r.T) ** (2 / 9)
        for r in res.records
    )
    elapsed = time.time() - t0
    detail = "; ".join(
        f"T={r.T:.0f}: R={r.residual:+.2f} (cap {5 * r.T ** (1 / 6) * math.log(r.T) ** (2 / 9):.1f})"
        for r in res.records
    )
    ok = slope_ok and bound_ok and elapsed < 1200
    report(5, ok, f"k=1 slope {fit.slope:.3f} <= {1 / 6 + 0.25:.3f}; {detail}; "
                  f"{elapsed:.0f}s (< 1200s)")
    assert ok


# ---------------------------------------------------------------------------
# 6. higher-moment sanity against the full predicted main term
# ---------------------------------------------------------------------------

def test_criterion_6_higher_moments():
    failures = []
    details = []
    for k, sigma in ((2, 0.75), (3, 0.9)):
        res = exponent_experiment("zeta", k, sigma, [250, 500, 1000, 2000],
                                  slack=0.3)
        C = res.constant.value
        theo = res.fit.theory_exponent
        S = secondary_term(sigma, [r.T for r in res.records], k)
        r2000, s2000 = res.records[-1], S[-1]
        dev = r2000.integral / (C * r2000.T + s2000) - 1.0
        if abs(dev) > 0.02:
            failures.append(f"(k={k},s={sigma}) I/(C T + S_k) dev {dev:+.2%} beyond 2%")
        # the exponent of R = I - C T once the recipe's log polynomial
        # Q_k = S_k / T^(2-2s) is divided out
        swap_exp = 2.0 - 2.0 * sigma
        fit = fit_power_law([(r.T, r.residual / (s / r.T**swap_exp))
                             for r, s in zip(res.records, S)], strict=False)
        if fit.slope > theo + 0.3:
            failures.append(f"(k={k},s={sigma}) exponent {fit.slope:.3f} > {theo:.3f}+0.3")
        if swap_exp > theo:
            failures.append(f"(k={k},s={sigma}) swapped-term exponent {swap_exp:.3f} "
                            f"> theory {theo:.3f}")
        details.append(f"k={k} s={sigma}: I(2000) = {r2000.integral:.6g} vs C T + S_k = "
                       f"{C * r2000.T:.6g} {s2000:+.6g} ({dev:+.2%}, cap 2%); raw slope "
                       f"{res.fit.slope:.3f}; exponent of R/Q_k {fit.slope:.3f} <= "
                       f"{theo:.3f}+0.3 (2-2s = {swap_exp:.3f})")
    ok = not failures
    report(6, ok, "higher moments vs C T + S_k:\n  " + "\n  ".join(details))
    assert ok, "; ".join(failures)


# ---------------------------------------------------------------------------
# 7. Rankin-Selberg
# ---------------------------------------------------------------------------

def test_criterion_7_rankin_selberg(rankin_2e5):
    t0 = time.time()
    c = rankin_2e5
    nonneg = float(c.values[: 10**5].min()) >= 0.0
    A, spread = zm.rankin_A(c, c.N)
    spread_ok = spread < 0.02
    ms = zm.delta_phi_mean_square(c, A, np.geomspace(1e3, 1e5, 41))
    ms_fit = fit_power_law(ms)
    res = exponent_experiment("Z2", 1, 0.8, [125, 250, 500, 1000],
                              coeffs=c, slack=0.3)
    r_top = res.records[-1]
    dev = (r_top.integral / r_top.T - res.constant.value) / res.constant.value
    ok = (nonneg and spread_ok and ms_fit.slope <= 2.2
          and abs(dev) <= 0.05 and res.fit.pass_)
    report(7, ok, f"c_n >= 0: {nonneg}; A = {A:.6f} spread "
                  f"{spread:.2%} (<2%); Delta(x,phi) ms slope {ms_fit.slope:.3f} "
                  f"(<=2.2); Z I(1000)/1000 = {r_top.integral / 1000:.4f} vs "
                  f"C = {res.constant.value:.4f} ({dev:+.1%}, cap 5%); slope "
                  f"{res.fit.slope:.3f} <= {res.fit.theory_exponent:.1f}+0.3; "
                  f"{time.time() - t0:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 8. cusp-form moments
# ---------------------------------------------------------------------------

def test_criterion_8_cusp_form_moments(atilde_2e5):
    t0 = time.time()
    res2 = exponent_experiment("F2", 1, 0.8, [125, 250, 500, 1000],
                               coeffs=atilde_2e5, slack=0.3)
    r_top = res2.records[-1]
    dev = (r_top.integral / r_top.T - res2.constant.value) / res2.constant.value
    conv = zm.self_convolve(atilde_2e5)
    res4 = exponent_experiment("F4", 2, 0.8, [125, 250, 500, 1000],
                               coeffs=conv, slack=0.3)
    ok = abs(dev) <= 0.05 and res2.fit.pass_ and res4.fit.pass_
    report(8, ok, f"F2 I(1000)/1000 = {r_top.integral / 1000:.4f} vs C = "
                  f"{res2.constant.value:.4f} ({dev:+.1%}, cap 5%); F2 slope "
                  f"{res2.fit.slope:.3f} <= {res2.fit.theory_exponent:.3f}+0.3; "
                  f"F4 slope {res4.fit.slope:.3f} <= {res4.fit.theory_exponent:.3f}+0.3; "
                  f"{time.time() - t0:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    # one manifest exercising every integrand family at reduced height, run
    # by two fresh processes, one with 1 BLAS thread and one with 2
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "family = zeta\nk = 1\nsigma = 0.75\nT_grid = 100 200\n\n"
        "family = F2\nsigma = 0.8\nT_grid = 50 100\nN = 16000\n\n"
        "family = F4\nk = 2\nsigma = 0.8\nT_grid = 50 100\nN = 16000\n\n"
        "family = Z2\nsigma = 0.8\nT_grid = 50 100\nN = 16000\n"
    )
    cache_dir = tmp_path / "cache"
    for label in ("a_tilde", "a_tilde_sq_conv", "rankin_c"):
        build_table(cache_dir, label, 16000, verbose=False)
    src = str(Path(zm.__file__).resolve().parent.parent)
    ledgers = {}
    for threads in ("1", "2"):
        out = tmp_path / f"res{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "zetamoments.cli", "--cache-dir", str(cache_dir),
                        "experiment", str(manifest), "--out-dir", str(out)],
                       env=env, capture_output=True, check=True)
        ledgers[threads] = (out / "ledger.csv").read_bytes()
    rows = len(ledgers["1"].splitlines()) - 1
    ok = ledgers["1"] == ledgers["2"] and rows == 8
    report(9, ok, f"1 vs 2 BLAS threads, two processes: {rows} ledger rows byte-identical: {ok}")
    assert ok
