import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest

import zetamoments as zm
from zetamoments.arith import PrecisionError
from zetamoments.evaluate import (
    _EPS,
    _NU_AMP,
    _NU_GAUSS,
    _NU_HALF,
    _NU_MOM,
    _NU_TERMS,
    PoleError,
    _cheb_bound,
    _em_cut,
    _fft_len,
    _grid_step,
    _nu_cheb,
    _nufft,
    _phase_dot,
    _zeta_em,
    chi_factor,
    gamma_fn,
    loggamma,
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


def test_zeta_grid_shares_the_scalar_domain():
    # the pole and the desk range raise on a grid as they do at a point
    with pytest.raises(PoleError):
        zeta_em_grid(1.0, [0.0])
    with pytest.raises(PoleError):
        zeta_em_grid(1.0, [3.0, 0.0, -3.0])
    for ts in ([2e5, 2e5 + 0.5], [-1e5 - 1.0, 0.0]):
        with pytest.raises(PrecisionError):
            zeta_em_grid(0.75, ts)
    # off the pole at sigma = 1, and at the range's edge, values come back
    assert np.all(np.isfinite(zeta_em_grid(1.0, [-0.5, 0.5])))
    assert zeta_em_grid(0.75, [1e5])[0] == zeta_em(0.75 + 1e5j, 1e-6).value


def test_zeta_target_held_against_the_full_estimate():
    # near the pole the value's own rounding (|zeta| ~ 1e6) exceeds 1e-10
    with pytest.raises(PrecisionError):
        zeta_em(1 + 1e-6, 1e-10)


def test_zeta_conjugate_symmetry():
    for s in (0.7 + 13.3j, 0.51 + 99.2j, 0.9 + 4.4j):
        a = zeta_em(s).value
        b = zeta_em(s.conjugate()).value
        assert a.conjugate() == pytest.approx(b, rel=1e-13)


def _mp_zeta(s: complex) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


def test_zeta_error_estimate_honest(rng):
    # two references: a doubled-cut re-run and mpmath at 30 digits
    for _ in range(25):
        sigma = float(rng.uniform(0.1, 0.95))
        t = float(rng.uniform(1, 500))
        r = zeta_em(complex(sigma, t))
        ref = _zeta_em(sigma, np.array([t]), 2 * max(int(2 * t), 50))[0][0]
        assert abs(r.value - ref) <= r.abs_error_estimate
        assert abs(r.value - _mp_zeta(complex(sigma, t))) <= r.abs_error_estimate


def test_zeta_error_estimate_honest_against_mpmath():
    # 312 points: near the pole, real s in [1.02, 4], the strip, sigma > 1
    # and sigma < 1/2
    rng = np.random.default_rng(11)
    pts = [1.000001 + 0j, 1.0001 + 0j]
    pts += [complex(x, 0.0) for x in np.linspace(1.02, 4.0, 60)]
    pts += [complex(rng.uniform(0.1, 0.95), rng.uniform(1, 500)) for _ in range(150)]
    pts += [complex(rng.uniform(1.01, 3.0), rng.uniform(0, 100)) for _ in range(60)]
    pts += [complex(rng.uniform(-0.5, 0.5), rng.uniform(1, 100)) for _ in range(40)]
    for s in pts:
        r = zeta_em(s, 1e-8)  # the estimate at s = 1 + 1e-6 is 2.7e-9
        assert abs(r.value - _mp_zeta(s)) <= r.abs_error_estimate, s


def test_zeta_grid_estimate_honest_against_mpmath():
    # _zeta_em's own estimate on short uniform grids (the NUFFT path) at
    # small |t|, where the deconvolution's rounding term dominates the bound
    rng = np.random.default_rng(17)
    for _ in range(100):
        sigma = float(rng.uniform(-0.5, 2.5))
        t0 = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3.0, math.log10(5.0)))
        ts = t0 + 10 ** rng.uniform(-3.0, -1.0) * np.arange(rng.integers(2, 30))
        vals, est = _zeta_em(sigma, ts, _em_cut(np.abs(ts).max()))
        for t, v in zip(ts, vals):
            assert abs(v - _mp_zeta(complex(sigma, t))) <= est, (sigma, t)


def test_zeta_scalar_is_a_one_point_grid():
    for s in (2 + 0j, 0.75 + 14.5j, 0.3 - 250.25j):
        assert zeta_em(s).value == zeta_em_grid(s.real, [s.imag])[0]


def test_zeta_grid_matches_pointwise():
    ts = np.arange(1.0, 3.0, 0.01)
    grid = zeta_em_grid(0.75, ts)
    M = int(max(2 * ts[-1], 50))
    for i in (0, 57, 199):
        s = complex(0.75, ts[i])
        assert abs(grid[i] - _mp_zeta(s)) <= _zeta_em(0.75, np.array([ts[i]]), M)[1]


def test_zeta_grid_matches_pointwise_at_height():
    ts = 790.0 + 0.01 * np.arange(1001)
    grid = zeta_em_grid(0.75, ts)
    M = _em_cut(ts[-1])
    for i in (0, 333, 1000):
        s = complex(0.75, ts[i])
        assert abs(grid[i] - _mp_zeta(s)) <= _zeta_em(0.75, np.array([ts[i]]), M)[1]


# ---------------------------------------------------------------------------
# the phase-sum kernel
# ---------------------------------------------------------------------------

def _moment_block(family, k, Tmax, lo, hi):
    # one dyadic block of the half-step grid the family's moment pass evaluates
    h2 = moment_step(family, k, Tmax) / 2.0
    ts = 1.0 + h2 * np.arange(int(round((Tmax - 1.0) / h2)) + 1)
    return ts[(ts >= lo) & (ts < hi)]


def _rounding_model(ts, ln, W):
    # zeta_em's rounding model, per column
    aW = np.abs(W)
    return _EPS * ((np.abs(ts).max() + 1.0) * (aW * ln[:, None]).sum(axis=0) + aW.sum(axis=0))


@pytest.mark.parametrize("ts, nterms, ncol", [
    (_moment_block("F2", 1, 160.0, 100.0, 200.0), 12000, 2),  # series top block
    (_moment_block("zeta", 1, 800.0, 400.0, 800.0), 1599, 1),  # zeta top block
    (np.sort(np.random.default_rng(5).uniform(1.0, 800.0, 300)), 1599, 1),  # non-uniform
    (np.array([]), 50, 2),
    (np.array([3.5]), 50, 2),
    (3.5 + 0.1 * np.arange(2), 50, 2),
    (3.5 + 0.1 * np.arange(3), 50, 2),
    (3.5 + 0.1 * np.arange(4), 50, 2),
    (10.0 + 0.01 * np.arange(4907), 1599, 1),
])
def test_phase_dot_matches_direct_sum(ts, nterms, ncol, rng):
    n = np.arange(1, nterms + 1, dtype=np.float64)
    ln = np.log(n)
    W = rng.standard_normal((nterms, ncol)) * n[:, None] ** -0.75
    out = _phase_dot(ts, ln, W)[0]
    assert out.shape == (len(ts), ncol)
    if not len(ts):
        return
    tol = _rounding_model(ts, ln, W)
    rows = np.unique(np.r_[np.arange(0, len(ts), 7), len(ts) - 1])
    for i in rows:
        ref = np.exp(-1j * ts[i] * ln) @ W
        assert np.all(np.abs(out[i] - ref) <= tol), i


@pytest.mark.parametrize("ts, nterms", [
    (_moment_block("F2", 1, 160.0, 0.0, 50.0), 7400),  # the three series blocks
    (_moment_block("F2", 1, 160.0, 50.0, 100.0), 12000),
    (_moment_block("F2", 1, 160.0, 100.0, 200.0), 12000),
    (_moment_block("F2", 1, 1000.0, 800.0, 1600.0), 200000),  # criterion 8 top block
    (7.0 + 3.1 * np.arange(500), 12000),  # phases wrap: h ln N = 29 > 2 pi
    (7.0 + 3.1 * np.arange(501), 12000),
    (7.0 + 3.1 * np.arange(2), 12000),
    (7.0 + 3.1 * np.arange(3), 12000),
    (100.0 + 0.01 * np.arange(2), 12000),
    (100.0 + 0.01 * np.arange(3), 12000),
    (3.5 + 0.1 * np.arange(2), 50),
    (3.5 + 0.1 * np.arange(3), 50),
    (3.5 + 0.1 * np.arange(4), 50),
    (3.5 + 0.1 * np.arange(100), 50),
    (-40.0 + 0.01 * np.arange(6001), 12000),  # negative t0
    (-40.0 + 0.01 * np.arange(6000), 12000),
    # zeta-shaped, "zeta" meaning zeta_em_grid's own terms and weights: one
    # column n^-0.75, n < M = _em_cut(max t); the five blocks of the T = 800
    # moment grid, then short grids at |t| < 5
    *[(_moment_block("zeta", 1, 800.0, lo, hi), "zeta")
      for lo, hi in ((0, 50), (50, 100), (100, 200), (200, 400), (400, 800))],
    (0.3 + 0.5 * np.arange(2), "zeta"),
    (-4.9 + 0.013 * np.arange(3), "zeta"),
    (-2.0 + 0.0045 * np.arange(1000), "zeta"),
])
def test_nufft_matches_direct_sum(ts, nterms, rng):
    if nterms == "zeta":
        n = np.arange(1, _em_cut(np.abs(ts).max()), dtype=np.float64)
        W = (n ** -0.75)[:, None]
    else:
        n = np.arange(1, nterms + 1, dtype=np.float64)
        W = rng.standard_normal((nterms, 2)) * n[:, None] ** -0.75
    ln = np.log(n)
    h = _grid_step(ts)
    assert h is not None
    out = _nufft(ts, h, ln, W)
    assert out.shape == (len(ts), W.shape[1])
    tol = _rounding_model(ts, ln, W)
    # the first and last rows are the modes the deconvolution amplifies most
    rows = np.unique(np.r_[np.arange(0, len(ts), max(7, len(ts) // 256)), len(ts) - 1])
    for i in rows:
        ref = np.exp(-1j * ts[i] * ln) @ W
        assert np.all(np.abs(out[i] - ref) <= tol), i


def test_nufft_is_deterministic(rng):
    n = np.arange(1, 12001, dtype=np.float64)
    ln = np.log(n)
    W = rng.standard_normal((len(n), 2)) * n[:, None] ** -0.8
    blocks = [_moment_block("F2", 1, 160.0, lo, hi)
              for lo, hi in ((0, 50), (50, 100), (100, 200))]

    def run(ts):
        return _nufft(ts, _grid_step(ts), ln, W)

    first = [run(ts) for ts in blocks]
    again = [run(ts) for ts in blocks]
    with ThreadPoolExecutor(max_workers=2) as ex:
        threaded = list(ex.map(run, blocks))
    for a, b, c in zip(first, again, threaded):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_nufft_does_not_depend_on_blas_threads():
    # the series top block, bit for bit, with one and with two BLAS threads
    code = (
        "import hashlib, numpy as np\n"
        "from zetamoments.evaluate import _grid_step, _nufft\n"
        "n = np.arange(1, 12001, dtype=np.float64)\n"
        "W = np.random.default_rng(3).standard_normal((len(n), 2)) * n[:, None] ** -0.8\n"
        "ts = 100.0 + 0.01 * np.arange(6001)\n"
        "print(hashlib.sha256(_nufft(ts, _grid_step(ts), np.log(n), W).tobytes()).hexdigest())\n"
    )
    src = str(Path(zm.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        digests.add(run.stdout)
    assert len(digests) == 1


def test_cheb_expansion_matches_the_gaussian():
    # the moments' expansion sum_j C[o, j] T_j(2f - 1) of exp(-a (o - f)^2),
    # summed exactly from its double coefficients, against 40-digit values on
    # a dense f grid in [0, 1): within _cheb_bound plus one unit of the
    # coefficients' rounding, for every offset, with a at both ends of its
    # range over P = 2 .. 10^6 points (P/L is 0.4 at P = 2 and 1/3 at P = 5)
    H, J = _NU_HALF, _NU_TERMS
    bound = _cheb_bound(J)
    # J is the fewest terms whose truncation, deconvolved, is under the
    # Gaussian's own error
    gain = _NU_AMP / math.sqrt(H)
    assert bound.sum() * gain <= _NU_GAUSS < _cheb_bound(J - 1).sum() * gain
    fs = [mpmath.mpf(k) / 256 for k in range(256)]
    with mpmath.workdps(40):
        for P in (2, 5):
            L = _fft_len(math.ceil(2.5 * P))
            C = _nu_cheb(P, L)
            assert C.shape == (2 * H, J)
            a = mpmath.pi * (L - mpmath.mpf(P) / 2) / (L * H)
            assert np.abs(C).sum() * math.sqrt(float(a) / math.pi) <= _NU_MOM
            for i, o in enumerate(range(1 - H, H + 1)):
                tol = bound[i] + 2.0**-52 * np.abs(C[i]).sum()
                coef = [mpmath.mpf(float(c)) for c in C[i]]
                for f in fs:
                    x = 2 * f - 1
                    t0, t1, val = mpmath.mpf(1), x, coef[0] + coef[1] * x
                    for c in coef[2:]:
                        t0, t1 = t1, 2 * x * t1 - t0
                        val += c * t1
                    assert abs(val - mpmath.exp(-a * (o - f) ** 2)) <= tol, (P, o, f)


def test_phase_dot_with_thousands_of_terms_in_one_cell(rng):
    # 500 points at h = 0.01 over 12 000 terms: L = 1250 cells, two per unit
    # of ln n, so the top cell holds 3501 terms; against a long-double
    # direct sum, within _phase_dot's own bound
    n = np.arange(1, 12001, dtype=np.float64)
    ln = np.log(n)
    ts = 100.0 + 0.01 * np.arange(500)
    L = _fft_len(math.ceil(2.5 * len(ts)))
    assert np.bincount(np.floor(ln * 0.01 * L / (2 * math.pi)).astype(int)).max() == 3501
    W = rng.standard_normal((len(n), 2)) * n[:, None] ** -0.75
    out, bound = _phase_dot(ts, ln, W)
    lnl = np.log(n.astype(np.longdouble))
    Wl = W.T.astype(np.longdouble)
    for i in np.r_[0:len(ts):7, len(ts) - 1]:
        ph = np.longdouble(ts[i]) * lnl
        re, im = (Wl * np.cos(ph)).sum(axis=1), -(Wl * np.sin(ph)).sum(axis=1)
        err = np.hypot(out[i].real - re, out[i].imag - im)
        assert np.all(err <= bound), i


def test_fft_len_is_5_smooth():
    for n in (1, 2, 7, 97, 12002, 18003, 120003):
        L = _fft_len(n)
        assert L >= n
        m = L
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        assert m == 1
        assert all(_fft_len(k) == L for k in range(n, L + 1))
    assert _fft_len(12002) == 12150


def test_phase_sum_kernel_by_grid(rng, monkeypatch):
    # smoothed_grid and zeta_em_grid both go through _phase_dot, which takes
    # the NUFFT on a uniform grid of two or more points and the direct sum on
    # any other grid
    nufft = zm.evaluate._nufft
    calls = []

    def spy(ts, h, ln, W):
        calls.append(len(ts))
        return nufft(ts, h, ln, W)

    monkeypatch.setattr(zm.evaluate, "_nufft", spy)
    values = rng.standard_normal(3000)
    sigma, Y = 0.8, 3000 / 74.0
    n = np.arange(1, 3001, dtype=np.float64)
    npw = values * n**-sigma
    W = np.stack([npw * np.exp(-n / Y), npw * np.exp(-n / (2.0 * Y))], axis=1)
    ln = np.log(n)
    grids = [
        (np.array([37.5]), False),
        (np.sort(rng.uniform(1.0, 80.0, 300)), False),
        (np.array([5.0, 5.5, 7.0]), False),
        (5.0 + 0.01 * np.arange(2), True),
        (5.0 + 0.01 * np.arange(777), True),
    ]
    for ts, uniform in grids:
        calls.clear()
        got, spread = smoothed_grid(values, sigma, ts, Y)
        zeta_em_grid(0.75, ts)
        assert calls == ([len(ts)] * 2 if uniform else [])
        if uniform:  # the NUFFT's own output, bit for bit
            acc = nufft(ts, _grid_step(ts), ln, W)
            assert np.array_equal(got, 2.0 * acc[:, 1] - acc[:, 0])
            assert spread == float(np.abs(acc[:, 1] - acc[:, 0]).max())
        else:  # the direct sum, within the rounding of its row tiles
            acc = np.exp(-1j * np.outer(ts, ln)) @ W
            tol = _rounding_model(ts, ln, W)
            assert np.all(np.abs(got - (2.0 * acc[:, 1] - acc[:, 0])) <= 2 * tol[1] + tol[0])


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

def _smoothed(table, s, Y, residue=None):
    """smoothed_grid at the one point s: (value, Y-doubling spread)."""
    vals, spread = smoothed_grid(table.values, s.real, np.array([s.imag]), Y, residue)
    return vals[0], spread


def test_smoothed_reproduces_zeta_in_strip(ones_2e5):
    s = 0.75 + 20j
    ref = zeta_em(s).value
    for Y in (500.0, 1000.0, 2000.0):
        value, spread = _smoothed(ones_2e5, s, Y, residue=1.0)
        assert abs(value - ref) <= spread


def test_smoothed_tight_agreement_at_large_Y(ones_2e5):
    s = 0.75 + 10j
    value, _ = _smoothed(ones_2e5, s, 2000.0, residue=1.0)
    assert abs(value - zeta_em(s).value) < 1e-6


def test_smoothed_convergent_region_no_pole(ones_2e5):
    # sigma > 1: plain convergence; Richardson value approaches zeta(2)
    value, spread = _smoothed(ones_2e5, 2 + 0j, 1000.0)
    assert abs(value - math.pi**2 / 6) < 2 * spread


def test_smoothed_cusp_form_stability(atilde_16e4):
    s = 0.75 + 30j
    v1, _ = _smoothed(atilde_16e4, s, 1000.0)
    v2, _ = _smoothed(atilde_16e4, s, 2000.0)
    assert abs(v1 - v2) / abs(v2) < 1e-4


def test_smoothed_rankin_stability(rankin_16e4):
    s = 0.9 + 10j
    A, _ = zm.rankin_A(rankin_16e4, rankin_16e4.N)
    v1, _ = _smoothed(rankin_16e4, s, 300.0, residue=A)
    v2, _ = _smoothed(rankin_16e4, s, 600.0, residue=A)
    assert abs(v1 - v2) / abs(v2) < 1e-3


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
    ts = _moment_block("F2", 1, 160.0, 100.0, 200.0)
    tracemalloc.start()
    try:
        smoothed_grid(values, 0.8, ts, 12000 / 74.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
