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
    _EM_BLOCK,
    _EM_RATIO,
    _EM_TERMS,
    _EPS,
    _NU_AMP,
    _NU_GAUSS,
    _NU_HALF,
    _NU_MOM,
    _NU_TERMS,
    _NU_TW,
    PoleError,
    _cell_moments,
    _cheb_bound,
    _em_cut,
    _em_terms,
    _fft_len,
    _grid_step,
    _nu_cheb,
    _nu_plan,
    _nufft,
    _phase_dot,
    _pole_bound,
    _pole_points,
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


@pytest.mark.parametrize("s", [complex(math.nan, 0.0), complex(math.inf, 1.0),
                               complex(-math.inf, 1.0), complex(0.75, math.nan)])
def test_zeta_rejects_a_point_that_is_not_finite(s):
    # a NaN or infinite sigma used to return NaN with a NaN estimate
    with pytest.raises(PrecisionError, match="not finite"):
        zeta_em(s)


def test_zeta_rejects_a_nan_target():
    # a NaN target used to skip the target check
    with pytest.raises(PrecisionError, match="at least 1e-12, not nan"):
        zeta_em(0.75 + 10j, math.nan)


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
        ref = _zeta_em((sigma,), np.array([t]), 2 * max(int(2 * t), 50))[0][0, 0]
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
        vals, (est,) = _zeta_em((sigma,), ts, _em_cut(np.abs(ts).max()))
        for t, v in zip(ts, vals[:, 0]):
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
        assert abs(grid[i] - _mp_zeta(s)) <= _zeta_em((0.75,), np.array([ts[i]]), M)[1][0]


def test_zeta_grid_matches_pointwise_at_height():
    ts = 790.0 + 0.01 * np.arange(1001)
    grid = zeta_em_grid(0.75, ts)
    M = _em_cut(ts[-1])
    for i in (0, 333, 1000):
        s = complex(0.75, ts[i])
        assert abs(grid[i] - _mp_zeta(s)) <= _zeta_em((0.75,), np.array([ts[i]]), M)[1][0]


@pytest.mark.parametrize("sigma, t0, step", [
    (0.75, 98_000.0, 0.05),
    (0.6, 9_000.0, 1 / 32),
    (0.9, 1.0, 1 / 32),
])
def test_zeta_at_height_within_its_estimate_across_tail_blocks(sigma, t0, step):
    # 40 000 points, tail blocks of 2^15 and 7232, each summing only the
    # Bernoulli terms its own remainder bound needs: six points, two on
    # either side of the block edge, against mpmath
    ts = t0 + step * np.arange(40_000)
    vals, (est,) = _zeta_em((sigma,), ts, _em_cut(ts[-1]))
    for j in (0, 7919, _EM_BLOCK - 1, _EM_BLOCK, 36_000, 39_999):
        assert abs(vals[j, 0] - _mp_zeta(complex(sigma, ts[j]))) <= est, j


def _em_coeffs(M: int) -> list:
    # c_r = B_2r M^(1-2r) / (2r)!, r <= _EM_TERMS, from mpmath's Bernoulli numbers
    return [float(mpmath.bernoulli(2 * r)) / math.factorial(2 * r) * M ** (1.0 - 2 * r)
            for r in range(1, _EM_TERMS + 1)]


def _remainder(sigma: float, t: float, M: int, R: int) -> float:
    # the remainder bound after R Bernoulli terms, from mpmath's B_{2R+2}
    s = complex(sigma, t)
    prod = math.prod(abs((s + 2 * l - 1) * (s + 2 * l)) for l in range(1, R + 1))
    return (abs(float(mpmath.bernoulli(2 * R + 2))) / math.factorial(2 * R + 2)
            * M ** (-1.0 - 2 * R - sigma) * abs(s) * prod * abs(s + 2 * R + 1)
            / (sigma + 2 * R + 1))


@pytest.mark.parametrize("sigma", [-0.5, 0.5, 0.75, 0.9, 1.5, 2.0])
@pytest.mark.parametrize("t", [0.0, 3.0, 100.0, 800.0, 52_430.0, 1e5])
def test_em_terms_are_the_fewest_under_the_ratio(sigma, t):
    # R is the fewest terms, at most _EM_TERMS, whose remainder bound at the
    # block's top |t| is within _EM_RATIO of the column's rounding bound
    M = _em_cut(t)
    n = np.arange(1, M, dtype=np.float64)
    rnd = float(_rounding_model(np.array([t]), np.log(n), (n ** -sigma)[:, None])[0])
    c = _em_coeffs(M)
    R, trunc = _em_terms(sigma, t, M, c, rnd)[:2]
    assert 1 <= R <= _EM_TERMS
    assert trunc == pytest.approx(_remainder(sigma, t, M, R), rel=1e-12)
    assert trunc <= _EM_RATIO * rnd
    assert R == 1 or _remainder(sigma, t, M, R - 1) > _EM_RATIO * rnd


@pytest.mark.parametrize("sigma", [0.5, 0.55, 0.75, 0.9, 0.99])
def test_em_terms_meet_the_ratio_over_the_admitted_range(sigma):
    # at the cut _em_cut(t), _EM_TERMS Bernoulli terms are enough at every
    # desk height: each integer t to 400, where the cut leaves its floor of
    # 50 and the ratio is tightest, then 2000 heights geometric to 1e5
    for t in np.unique(np.r_[np.arange(1.0, 401.0), np.geomspace(1.0, 1e5, 2000)]):
        M = _em_cut(t)
        n = np.arange(1, M, dtype=np.float64)
        rnd = float(_rounding_model(np.array([t]), np.log(n), (n ** -sigma)[:, None])[0])
        R, trunc = _em_terms(sigma, t, M, _em_coeffs(M), rnd)[:2]
        assert R <= _EM_TERMS and trunc <= _EM_RATIO * rnd, t


@pytest.mark.parametrize("t", [85.0, 113.0, 1000.0, 3600.0, 1e5])
def test_zeta_within_its_estimate_where_the_remainder_is_tightest(t):
    # mpmath at 30 digits against the scalar call and the last point of a
    # uniform grid (the NUFFT path): at t = 85 and 113 the cut has just left
    # its floor of 50 and the tail sums 11 or 12 Bernoulli terms, the most
    # of any height; then up to the top of the desk range
    ts = t + np.arange(-32, 1) / 16.0
    for sigma in (0.5, 0.75, 0.99):
        ref = _mp_zeta(complex(sigma, t))
        r = zeta_em(complex(sigma, t), 1e-6)
        assert abs(r.value - ref) <= r.abs_error_estimate, sigma
        vals, (est,) = _zeta_em((sigma,), ts, _em_cut(t))
        assert abs(vals[-1, 0] - ref) <= est, sigma


def test_em_terms_at_the_real_axis_and_on_the_zeta_workload(monkeypatch):
    # four terms at s = 1.5, ten on each zeta moment grid to T = 800
    terms = zm.evaluate._em_terms
    got = []

    def spy(*args):
        out = terms(*args)
        got.append(out[0])
        return out

    monkeypatch.setattr(zm.evaluate, "_em_terms", spy)
    zeta_em(1.5)
    assert got == [4]
    got.clear()
    for k, sigma in ((1, 0.75), (1, 0.9), (2, 0.75), (3, 0.9)):
        zeta_em_grid(sigma, _moment_block("zeta", k, 800.0, 400.0, 800.0))
    assert got == [10] * 4


@pytest.mark.parametrize("t0, step, npts", [
    (1.0, 1 / 12, 9589),  # the zeta k = 3 pass to T = 800: h not a power of 2
    (98_000.0, 0.05, 5000),
    (-4.75, 0.5, 20),  # 64 h is far above max |t|
    (3.0, 0.1, 130),  # a partial last row of anchors
])
def test_zeta_tail_anchors_agree_with_an_exp_at_every_point(t0, step, npts):
    # on a uniform block M^{-s} is an anchor times a rotation; off one it is
    # an exp at every point: the two tails agree within the anchored one's
    # estimate, and the anchored estimate carries its drift
    ts = t0 + step * np.arange(npts)
    h = _grid_step(ts)
    assert h is not None
    M = _em_cut(np.abs(ts).max())
    c = _em_coeffs(M)
    anchored, exp = np.zeros(npts, complex), np.zeros(npts, complex)
    est = zm.evaluate._zeta_em_tail(0.75, ts, M, c, anchored, 1e-12, h)
    est_exp = zm.evaluate._zeta_em_tail(0.75, ts, M, c, exp, 1e-12, None)
    assert est >= est_exp
    assert np.abs(anchored - exp).max() <= est + est_exp


def test_zeta_grid_estimate_is_its_largest_block_estimate(monkeypatch):
    # a grid of 2.5 tail blocks: each block's estimate covers its own |t|
    # range, and the grid's is the largest of them; its values are those of
    # the blocks taken one by one
    tail = zm.evaluate._zeta_em_tail
    blocks = []

    def spy(sigma, ts, *args):
        est = tail(sigma, ts, *args)
        blocks.append((len(ts), est))
        return est

    monkeypatch.setattr(zm.evaluate, "_zeta_em_tail", spy)
    ts = 1.0 + np.arange(2 * _EM_BLOCK + _EM_BLOCK // 2) / 32.0
    M = _em_cut(ts[-1])
    vals, ests = _zeta_em((0.75, 0.9), ts, M)
    sizes = [_EM_BLOCK, _EM_BLOCK, _EM_BLOCK // 2]
    assert [b[0] for b in blocks] == sizes * 2
    assert ests == [max(e for _, e in blocks[:3]), max(e for _, e in blocks[3:])]
    assert len({e for _, e in blocks[:3]}) == 3  # the estimate differs per block


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
    out = _phase_dot(ts, _grid_step(ts), ln, W)[0]
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


@pytest.mark.parametrize("ts, width, groups", [
    # zeta one-column cells in pairs and triples on the T = 800 blocks of
    # k = 1 and 2, series two-column cells in triples on the series blocks,
    # and the direct sum's grids: one point, and non-uniform
    (1.0 + np.arange(9589) / 12.0, 1, 2),
    (1.0 + np.arange(9589) / 12.0, 1, 3),
    (1.0 + np.arange(15981) / 20.0, 1, 2),
    (1.0 + np.arange(15981) / 20.0, 1, 3),
    (_moment_block("F2", 1, 160.0, 0.0, 50.0), 2, 3),
    (_moment_block("F2", 1, 160.0, 50.0, 200.0), 2, 3),
    (np.array([160.0]), 1, 3),
    (np.array([160.0]), 2, 3),
    (np.sort(np.random.default_rng(3).uniform(1.0, 800.0, 300)), 2, 2),
])
def test_phase_dot_columns_do_not_depend_on_the_other_columns(ts, width, groups, rng):
    # a cell's columns in a shared call are bit-identical to its call alone,
    # and so is their rounding bound
    n = np.arange(1, (1600 if width == 1 else 12000), dtype=np.float64)
    ln = np.log(n)
    Ws = [rng.standard_normal((len(n), width)) * (n ** -0.75)[:, None] for _ in range(groups)]
    h = _grid_step(ts)
    out, bound = _phase_dot(ts, h, ln, np.concatenate(Ws, axis=1), (width,) * groups)
    assert out.shape == (len(ts), width * groups)
    for g, W in enumerate(Ws):
        alone, alone_bound = _phase_dot(ts, h, ln, W)
        cols = slice(g * width, (g + 1) * width)
        assert np.array_equal(out[:, cols], alone) and np.array_equal(bound[cols], alone_bound)


def test_cell_moments_leave_x_and_match_chebvander(rng):
    # a tile of runs of 1-40 terms and two column groups: the caller's x is
    # unchanged, and each moment is the sum over a run of the terms' real
    # rows times the rows of chebvander(x, J - 1)
    runs = rng.integers(1, 41, 200)
    starts = np.r_[0, np.cumsum(runs)[:-1]]
    x = rng.uniform(-1.0, 1.0, runs.sum())
    phase = rng.uniform(-50.0, 50.0, len(x))
    W = rng.standard_normal((len(x), 3))
    groups = [(0, 1), (1, 3)]
    x0 = x.copy()
    mus = _cell_moments(x, phase, W, starts, groups)
    assert np.array_equal(x, x0)
    V = np.polynomial.chebyshev.chebvander(x, _NU_TERMS - 1)
    cp = np.empty((6, len(x)))
    cp[0::2], cp[1::2] = (W * np.cos(phase)[:, None]).T, (W * np.sin(phase)[:, None]).T
    for (c0, c1), mu in zip(groups, mus):
        ref = np.add.reduceat(cp[2 * c0: 2 * c1, :, None] * V, starts, axis=1)
        assert mu.shape == (_NU_TERMS, 2 * (c1 - c0), len(runs))
        np.testing.assert_allclose(mu, ref.transpose(2, 0, 1), rtol=0, atol=1e-13)


@pytest.mark.parametrize("npts", [2, 3, 4900, 4901, 9589, 9590])
def test_nufft_modes_are_the_ffts_cells_mod_l(npts, rng, monkeypatch):
    # the strided slices and the per-|m| deconvolution give, bit for bit,
    # mode m = j - npts // 2 as entry (m // D) mod A2 of the FFT of row m mod D
    # times exp(tau m^2) sqrt(pi/tau)/L: each of the two column groups' rows,
    # batch by batch, or for D = 1 the one FFT of the whole grid
    fft = np.fft.fft
    calls = []

    def spy(a, *args, **kwargs):
        out = fft(a, *args, **kwargs)
        calls.append(out.copy())
        return out

    monkeypatch.setattr(np.fft, "fft", spy)
    ts = 1.0 + np.arange(npts) / 12.0
    n = np.arange(1, 2001, dtype=np.float64)
    ln = np.log(n)
    W = rng.standard_normal((len(n), 2)) * (n ** -0.75)[:, None]
    out = _nufft(ts, _grid_step(ts), ln, W, (1, 1))
    L, A2, D = _nu_plan(npts, _grid_step(ts), ln)[:3]
    assert L == D * A2 >= 2.5 * npts and (D == 1) == (npts < 4)
    if D == 1:
        (rows,) = calls
        rows = rows[:, None, :]
    else:  # per batch of rows, one call per group
        rows = np.concatenate([np.concatenate(calls[g::2], axis=1) for g in (0, 1)])
    assert rows.shape == (2, D, A2)
    tau = math.pi * _NU_HALF / (L * (L - npts / 2.0))
    m = np.arange(npts) - npts // 2
    deconv = np.exp(tau * (m * m)) * (math.sqrt(math.pi / tau) / L)
    ref = rows[:, m % D, (m // D) % A2].T * deconv[:, None]
    assert np.array_equal(out, ref)
    assert all(out[:, c].flags.c_contiguous for c in (0, 1))


@pytest.mark.parametrize("ts, nterms", [
    (3.5 + 0.1 * np.arange(2), 50),
    (3.5 + 0.1 * np.arange(3), 50),
    (1.0 + np.arange(4900) / 12.0, 1599),
    (1.0 + np.arange(4901) / 12.0, 1599),
    (1.0 + np.arange(9589) / 12.0, 1599),  # the zeta k = 1, 2 and 3 top blocks
    (1.0 + np.arange(9590) / 12.0, 1599),
    (1.0 + np.arange(15981) / 20.0, 1599),
    (1.0 + np.arange(25569) / 32.0, 1599),
    (100.0 + 0.01 * np.arange(11001), 12000),  # the series top block
    (7.0 + 3.1 * np.arange(500), 12000),  # phases wrap: h ln N = 29 > 2 pi
    (7.0 + 3.1 * np.arange(501), 12000),
    (-40.0 + 0.01 * np.arange(6001), 12000),  # negative t0
    (-2.0 + 0.0045 * np.arange(1000), 1599),
])
def test_nufft_matches_a_full_length_fft_of_its_grid(ts, nterms, rng, monkeypatch):
    # the spread grid's A2 cells put back at their own cells c(i) mod L of a
    # grid of L cells, whose one FFT, deconvolved, is the phase sum of the
    # whole grid: the row FFTs agree with it within the twiddles' rounding,
    # _NU_TW eps, and both transforms', under eps per level, of sum |g|; with
    # D = 1 they are the same transform, bit for bit
    spread = zm.evaluate._nu_spread
    grids = []

    def spy(*args):
        grid = spread(*args)
        grids.append(grid.copy())  # D = 1 takes its FFT in place
        return grid

    monkeypatch.setattr(zm.evaluate, "_nu_spread", spy)
    n = np.arange(1, nterms + 1, dtype=np.float64)
    ln = np.log(n)
    W = rng.standard_normal((nterms, 2)) * n[:, None] ** -0.75
    h = _grid_step(ts)
    out = _nufft(ts, h, ln, W, (1, 1))
    (grid,) = grids
    npts, mid = len(ts), len(ts) // 2
    L, A2, D, c_lo = _nu_plan(npts, h, ln)
    assert L == D * A2 >= 2.5 * npts
    i = np.arange(A2)
    full = np.zeros((2, L), dtype=np.complex128)
    full[:, (c_lo + (i - c_lo) % A2) % L] = grid
    tau = math.pi * _NU_HALF / (L * (L - npts / 2.0))
    m = np.arange(npts) - mid
    deconv = np.exp(tau * (m * m)) * (math.sqrt(math.pi / tau) / L)
    ref = np.fft.fft(full)[:, m % L].T * deconv[:, None]
    if D == 1:
        assert np.array_equal(out, ref)
        return
    tol = _EPS * (_NU_TW + 2.0 * math.log2(L)) * np.abs(grid).sum(axis=1)
    assert np.all(np.abs(out - ref) / deconv[:, None] <= tol)


@pytest.mark.parametrize("npts, share", [(25569, 1), (1 << 19, 4)])
def test_nufft_holds_no_grid_of_l_cells(npts, share):
    # zeta-shaped grids of step 1/32 and their n^-0.9 columns: a grid to
    # t = 800 (532 terms), whose spreading tile alone takes more than a
    # quarter of a grid of L complex cells, and a 2^19-point chunk (10 922
    # terms); beyond its returned modes, a call allocates less than 1/share
    # of one such grid (transforming the whole grid would take more than one
    # grid before the FFT's own scratch)
    ts = 1.0 + np.arange(npts) / 32.0
    n = np.arange(1, _em_cut(ts[-1]), dtype=np.float64)
    ln, W = np.log(n), (n ** -0.9)[:, None]
    h = _grid_step(ts)
    L, A2, D = _nu_plan(npts, h, ln)[:3]
    assert D > 8 and A2 < L / 8
    _nufft(ts[:64], _grid_step(ts[:64]), ln, W)  # first-call set-up
    tracemalloc.start()
    try:
        out = _nufft(ts, h, ln, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.base.nbytes < 16 * L / share


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
    # 500 points at h = 0.01 over 12 000 terms: L = 1296 cells, about two per
    # unit of ln n, so the top cell holds 3846 terms; against a long-double
    # direct sum, within _phase_dot's own bound
    n = np.arange(1, 12001, dtype=np.float64)
    ln = np.log(n)
    ts = 100.0 + 0.01 * np.arange(500)
    L = _nu_plan(len(ts), _grid_step(ts), ln)[0]
    assert L == 1296
    assert np.bincount(np.floor(ln * 0.01 * L / (2 * math.pi)).astype(int)).max() == 3846
    W = rng.standard_normal((len(n), 2)) * n[:, None] ** -0.75
    out, bound = _phase_dot(ts, _grid_step(ts), ln, W)
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

    def spy(ts, h, ln, W, widths=None, plan=None):
        calls.append(len(ts))
        return nufft(ts, h, ln, W, widths, plan)

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


def _smoothed_columns(values, sigma, ts, Y):
    # smoothed_grid's two columns v(Y) and v(2Y) before any pole term
    n = np.arange(1, min(len(values), int(math.ceil(74.0 * Y))) + 1, dtype=np.float64)
    npw = values[: len(n)] * n ** (-sigma)
    W = np.stack([npw * np.exp(-n / Y), npw * np.exp(-n / (2.0 * Y))], axis=1)
    acc = _phase_dot(ts, _grid_step(ts), np.log(n), W)[0]
    return acc[:, 0], acc[:, 1]


def _smoothed_pole_everywhere(values, sigma, ts, Y, residue):
    # the reference: smoothed_grid with the pole term subtracted at every point
    v1, v2 = _smoothed_columns(values, sigma, ts, Y)
    one_m_s = 1.0 - (sigma + 1j * ts)
    lg = loggamma(one_m_s)
    v1 -= residue * np.exp(lg + one_m_s * math.log(Y))
    v2 -= residue * np.exp(lg + one_m_s * math.log(2.0 * Y))
    return 2.0 * v2 - v1, float(np.abs(v2 - v1).max())


_Z2_GRIDS = [
    0.01 * np.arange(16000),  # from t = 0
    1.0 + 0.01 * np.arange(15901),  # the Z2 pass of T = 160
    -80.0 + 0.01 * np.arange(16001),  # negative t
    *[np.array([t]) for t in (0.0, 1.0, 20.0, 27.3, 40.0, -5.0)],
]


@pytest.mark.parametrize("sigma", [0.55, 0.8, 0.95])
def test_smoothed_grid_pole_term_skip_is_bit_identical(rankin_16e4, sigma):
    A = zm.rankin_A(rankin_16e4, rankin_16e4.N)[0]
    for ts in _Z2_GRIDS:
        for Y in (100.0, 12000 / 74.0):
            got = smoothed_grid(rankin_16e4.values, sigma, ts, Y, residue=A)
            ref = _smoothed_pole_everywhere(rankin_16e4.values, sigma, ts, Y, A)
            assert got[0].tobytes() == ref[0].tobytes() and got[1] == ref[1], (ts[0], Y)


@pytest.mark.parametrize("sigma", [0.55, 0.8, 0.95])
def test_pole_term_skip_drops_only_negligible_points(rankin_16e4, sigma):
    # at every point left out, the pole term at Y and at 2Y (30 digits) is
    # under a quarter ulp of every component it would be subtracted from
    A = zm.rankin_A(rankin_16e4, rankin_16e4.N)[0]
    Y = 12000 / 74.0
    ts = -40.0 + 0.02 * np.arange(4001)
    v1, v2 = _smoothed_columns(rankin_16e4.values, sigma, ts, Y)
    kept = _pole_points(A, sigma, ts, Y, v1, v2)
    dropped = np.setdiff1d(np.arange(len(ts)), kept)
    assert 0 < len(kept) < len(ts) and len(dropped) > 1000
    with mpmath.workdps(30):
        for i in dropped:
            s = mpmath.mpc(sigma, ts[i])
            for Yp, v in ((Y, v1[i]), (2.0 * Y, v2[i])):
                term = float(abs(A * mpmath.gamma(1 - s) * mpmath.mpf(Yp) ** (1 - s)))
                assert term < np.spacing(min(abs(v.real), abs(v.imag))) / 4.0, ts[i]


@pytest.mark.parametrize("sigma", [0.55, 0.8, 0.95])
def test_pole_bound_holds_against_mpmath(sigma):
    # P(t)/2 bounds |A Gamma(1-s) (2Y)^(1-sigma)| and is sharp to 20%
    A, Y = 0.7, 162.0
    ts = np.r_[np.linspace(-200.0, 200.0, 401), np.linspace(-2.0, 2.0, 41)]
    P = _pole_bound(A, sigma, ts, Y)
    with mpmath.workdps(30):
        for t, p in zip(ts, P):
            exact = A * abs(mpmath.gamma(1 - mpmath.mpc(sigma, t))) * mpmath.mpf(2 * Y) ** (1 - sigma)
            assert exact <= p / 2.0 <= 1.2 * exact, t
