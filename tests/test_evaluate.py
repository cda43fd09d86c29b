import math
import tracemalloc

import numpy as np
import pytest

import zetamoments as zm
from zetamoments.arith import PrecisionError
from zetamoments.evaluate import (
    _EPS,
    PoleError,
    _em_cut,
    _phase_dot,
    chi_factor,
    gamma_fn,
    loggamma,
    smoothed_dirichlet,
    smoothed_grid,
    zeta_em,
    zeta_em_grid,
)
from zetamoments.moments import moment_step


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def test_zeta_at_2():
    r = zeta_em(2 + 0j)
    assert r.value.real == pytest.approx(math.pi**2 / 6, rel=1e-14)
    assert abs(r.value.imag) < 1e-15


def test_zeta_at_1_5_direct_sum_oracle():
    # oracle: partial sum + integral tail bracket
    # sum_{n>N} n^{-1.5} lies between int_{N+1} and int_N of x^{-1.5} dx
    N = 10**6
    n = np.arange(1, N + 1)
    partial = float(np.sum(n**-1.5))
    lo = partial + 2 / math.sqrt(N + 1)
    hi = partial + 2 / math.sqrt(N)
    v = zeta_em(1.5 + 0j).value.real
    assert lo - 1e-12 <= v <= hi + 1e-12
    assert v == pytest.approx(2.6123753487, abs=1e-9)


def test_zeta_first_nontrivial_zero():
    assert abs(zeta_em(0.5 + 14.134725j).value) < 1e-4


def test_zeta_pole_raises():
    with pytest.raises(PoleError):
        zeta_em(1 + 0j)


def test_zeta_desk_range_guard():
    with pytest.raises(PrecisionError):
        zeta_em(0.75 + 2e5j)
    with pytest.raises(PrecisionError):
        zeta_em(0.75 + 10j, target_abs_err=1e-13)


def test_zeta_conjugate_symmetry():
    for s in (0.7 + 13.3j, 0.51 + 99.2j, 0.9 + 4.4j):
        a = zeta_em(s).value
        b = zeta_em(s.conjugate()).value
        assert a.conjugate() == pytest.approx(b, rel=1e-13)


def test_zeta_error_estimate_honest(rng):
    # doubled-cut re-run as the higher-precision reference
    for _ in range(25):
        sigma = float(rng.uniform(0.1, 0.95))
        t = float(rng.uniform(1, 500))
        r = zeta_em(complex(sigma, t))
        ref = zeta_em(complex(sigma, t), M=2 * max(int(2 * t), 50))
        assert abs(r.value - ref.value) <= r.abs_error_estimate


def test_zeta_grid_matches_pointwise():
    ts = np.arange(1.0, 3.0, 0.01)
    grid = zeta_em_grid(0.75, ts)
    for i in (0, 57, 199):
        ref = zeta_em(complex(0.75, ts[i]), M=int(max(2 * ts[-1], 50))).value
        assert grid[i] == pytest.approx(ref, rel=1e-12)


def test_zeta_grid_matches_pointwise_at_height():
    ts = 790.0 + 0.01 * np.arange(1001)
    grid = zeta_em_grid(0.75, ts)
    M = _em_cut(ts[-1])
    for i in (0, 333, 1000):
        ref = zeta_em(complex(0.75, ts[i]), M=M)
        assert abs(grid[i] - ref.value) <= ref.abs_error_estimate


# ---------------------------------------------------------------------------
# the phase-sum kernel
# ---------------------------------------------------------------------------

def _moment_block(Tmax, lo, hi):
    # one dyadic block of the moment integrand's half-step grid
    h2 = moment_step(Tmax) / 2.0
    ts = 1.0 + h2 * np.arange(int(round((Tmax - 1.0) / h2)) + 1)
    return ts[(ts >= lo) & (ts < hi)]


@pytest.mark.parametrize("ts, nterms, ncol", [
    (_moment_block(160.0, 100.0, 200.0), 12000, 2),  # series top block
    (_moment_block(800.0, 400.0, 800.0), 1599, 1),  # zeta top block
    (np.sort(np.random.default_rng(5).uniform(1.0, 800.0, 300)), 1599, 1),  # non-uniform
    (np.array([]), 50, 2),
    (np.array([3.5]), 50, 2),
    (3.5 + 0.1 * np.arange(2), 50, 2),
    (3.5 + 0.1 * np.arange(3), 50, 2),
    (3.5 + 0.1 * np.arange(4), 50, 2),
    (10.0 + 0.01 * np.arange(4907), 1599, 1),  # 70 blocks of 71 overrun 4907 points
])
def test_phase_dot_matches_direct_sum(ts, nterms, ncol, rng):
    n = np.arange(1, nterms + 1, dtype=np.float64)
    ln = np.log(n)
    W = rng.standard_normal((nterms, ncol)) * n[:, None] ** -0.75
    out = _phase_dot(ts, ln, W)
    assert out.shape == (len(ts), ncol)
    if not len(ts):
        return
    # zeta_em's rounding model, per column
    aW = np.abs(W)
    tol = _EPS * ((np.abs(ts).max() + 1.0) * (aW * ln[:, None]).sum(axis=0) + aW.sum(axis=0))
    rows = np.unique(np.r_[np.arange(0, len(ts), 7), len(ts) - 1])
    for i in rows:
        ref = np.exp(-1j * ts[i] * ln) @ W
        assert np.all(np.abs(out[i] - ref) <= tol), i



# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def test_gamma_factorial():
    assert gamma_fn(5 + 0j).value.real == pytest.approx(24.0, rel=1e-12)


def test_gamma_half():
    assert gamma_fn(0.5 + 0j).value.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_gamma_reflection_region():
    # Gamma(-1.5) = 4 sqrt(pi) / 3
    assert gamma_fn(-1.5 + 0j).value.real == pytest.approx(4 * math.sqrt(math.pi) / 3, rel=1e-11)


def test_gamma_stirling_magnitude():
    # |Gamma(x+iy)| ~ sqrt(2 pi) |z|^(x-1/2) e^(-pi y / 2 - x + ...) oracle
    z = 0.75 + 50j
    r = abs(z)
    theta = math.atan2(z.imag, z.real)
    stirling = (
        math.sqrt(2 * math.pi)
        * r ** (z.real - 0.5)
        * math.exp(-z.imag * theta - z.real)
    )
    assert abs(gamma_fn(z).value) == pytest.approx(stirling, rel=0.01)


def test_gamma_poles():
    for s in (0j, -1 + 0j, -7 + 0j):
        with pytest.raises(PoleError):
            gamma_fn(s)


def test_loggamma_consistency():
    # exp(loggamma) == gamma on both sides of the reflection split
    for z in (3.3 + 2j, 0.2 + 5j, -2.5 + 0.3j):
        assert complex(np.exp(loggamma(z))) == pytest.approx(gamma_fn(z).value, rel=1e-11)


# ---------------------------------------------------------------------------
# chi and the functional equation
# ---------------------------------------------------------------------------

def test_chi_unimodular_on_critical_line():
    for t in (5.0, 20.0, 100.0):
        assert abs(abs(chi_factor(0.5 + t * 1j).value) - 1.0) < 1e-9


def test_chi_at_half():
    assert chi_factor(0.5 + 0j).value == pytest.approx(1.0, abs=1e-12)


def test_functional_equation_spot():
    s = 0.3 + 10j
    lhs = zeta_em(s).value
    rhs = chi_factor(s).value * zeta_em(1 - s).value
    assert abs(lhs - rhs) < 1e-8


def test_functional_equation_grid():
    sigmas = np.linspace(0.1, 0.9, 10)
    tvals = np.geomspace(1, 100, 10)
    worst = 0.0
    for sg in sigmas:
        for t in tvals:
            s = complex(sg, t)
            budget = zeta_em(s).abs_error_estimate + zeta_em(1 - s).abs_error_estimate
            gap = abs(zeta_em(s).value - chi_factor(s).value * zeta_em(1 - s).value)
            assert gap < 10 * max(budget, 1e-12)
            worst = max(worst, gap)
    assert worst < 1e-8


def test_chi_large_t_branch():
    # the log-space branch must agree with the direct formula where both work
    s = 0.6 + 150j
    direct = 2**s * math.pi ** (s - 1) * np.sin(np.pi * s / 2) * gamma_fn(1 - s).value
    assert chi_factor(s).value == pytest.approx(complex(direct), rel=1e-9)
    # and it must stay finite far beyond the direct formula's overflow point
    v = chi_factor(0.6 + 2000j).value
    assert np.isfinite(v.real) and np.isfinite(v.imag)


# ---------------------------------------------------------------------------
# smoothed Dirichlet evaluation
# ---------------------------------------------------------------------------

def test_smoothed_reproduces_zeta_in_strip(ones_2e5):
    s = 0.75 + 20j
    ref = zeta_em(s).value
    for Y in (500.0, 1000.0, 2000.0):
        r = smoothed_dirichlet(ones_2e5, s, Y, pole=(1, 1.0))
        assert abs(r.value - ref) <= r.abs_error_estimate
        assert r.method == "smoothed_series"


def test_smoothed_tight_agreement_at_large_Y(ones_2e5):
    s = 0.75 + 10j
    r = smoothed_dirichlet(ones_2e5, s, 2000.0, pole=(1, 1.0))
    assert abs(r.value - zeta_em(s).value) < 1e-6


def test_smoothed_pole_collision_raises(ones_2e5):
    with pytest.raises(PoleError):
        smoothed_dirichlet(ones_2e5, 2 + 0j, 1000.0, pole=(1, 1.0))


def test_smoothed_convergent_region_no_pole(ones_2e5):
    # sigma > 1: plain convergence; Richardson value approaches zeta(2)
    r = smoothed_dirichlet(ones_2e5, 2 + 0j, 1000.0)
    assert abs(r.value - math.pi**2 / 6) < 2 * r.abs_error_estimate


def test_smoothed_cusp_form_stability(atilde_16e4):
    s = 0.75 + 30j
    r1 = smoothed_dirichlet(atilde_16e4, s, 1000.0)
    r2 = smoothed_dirichlet(atilde_16e4, s, 2000.0)
    assert abs(r1.value - r2.value) / abs(r2.value) < 1e-4


def test_smoothed_rankin_stability(rankin_16e4):
    table = zm.CoeffTable("rankin_c", rankin_16e4.N, rankin_16e4.c)
    s = 0.9 + 10j
    A = rankin_16e4.A_estimate
    r1 = smoothed_dirichlet(table, s, 300.0, pole=(1, A))
    r2 = smoothed_dirichlet(table, s, 600.0, pole=(1, A))
    assert abs(r1.value - r2.value) / abs(r2.value) < 1e-3


def test_smoothed_table_too_short():
    ones = zm.ones_table(1000)
    with pytest.raises(PrecisionError):
        smoothed_dirichlet(ones, 0.75 + 5j, 500.0)


def test_smoothed_grid_matches_pointwise(atilde_16e4):
    ts = np.arange(5.0, 6.0, 0.01)
    Y = 100.0
    grid, spread = smoothed_grid(atilde_16e4.values, 0.8, ts, Y)
    n = np.arange(1, atilde_16e4.N + 1, dtype=np.float64)
    w = atilde_16e4.values * n ** -0.8
    for i in (0, 50, 99):
        ph = np.exp(-1j * ts[i] * np.log(n))
        ref = 2.0 * np.sum(w * np.exp(-n / (2.0 * Y)) * ph) - np.sum(w * np.exp(-n / Y) * ph)
        assert grid[i] == pytest.approx(ref, rel=1e-10)
    assert spread > 0


def test_smoothed_grid_memory_stays_tiled(rng):
    # the series top block: 6000 points x 12 000 terms x 2 columns; an
    # untiled exponential matrix would need over a gigabyte
    values = rng.standard_normal(12000)
    ts = _moment_block(160.0, 100.0, 200.0)
    tracemalloc.start()
    try:
        smoothed_grid(values, 0.8, ts, 12000 / 74.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_eval_csv_dump(tmp_path):
    from zetamoments.evaluate import dump_eval_csv

    p = tmp_path / "diag.csv"
    rows = [(s, zeta_em(s)) for s in (2 + 0j, 0.75 + 5j)]
    dump_eval_csv(p, rows)
    lines = p.read_text().splitlines()
    assert lines[0] == "sigma,t,value_re,value_im,abs_error_estimate,method"
    assert len(lines) == 3 and lines[1].endswith("euler_maclaurin")
