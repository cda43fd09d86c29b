import dataclasses
import math

import mpmath
import numpy as np
import pytest

import zetamoments as zm
from zetamoments.arith import prime_sieve
from zetamoments.evaluate import gamma_fn
from zetamoments.moments import (
    _euler_arith_factor,
    _integrand_grid,
    _integrate_moment_grid,
    _one_swap_recipe,
    exponent_classical,
    BudgetError,
    DegenerateInputError,
    THEORY,
    exponent_sigma_star_weak,
    exponent_experiment,
    exponent_kanemitsu,
    exponent_lindelof,
    exponent_beta_envelope,
    exponent_sigma_star,
    fit_power_law,
    integrate_moment_grid,
    main_term_series,
    main_term_zeta,
    main_term_zeta_direct,
    matsumoto_exponent,
    moment_step,
    residual,
    secondary_term,
    theory_exponent,
)


def zeta_real(x):
    return zm.zeta_em(complex(x, 0), 1e-10).value.real


# ---------------------------------------------------------------------------
# main-term constants
# ---------------------------------------------------------------------------

def test_main_term_k1_is_zeta():
    c = main_term_zeta(1, 0.75)
    assert c.value == pytest.approx(zeta_real(1.5), rel=1e-12)
    assert c.tail_bound > 0.0  # zeta_em's estimate of zeta(2 sigma)
    with mpmath.workdps(40):
        assert abs(c.value - mpmath.zeta(mpmath.mpf(1.5))) <= c.tail_bound
    assert c.tail_bound < 1e-6 * c.value


@pytest.mark.parametrize("sigma", [0.55, 0.6, 0.75, 0.9])
def test_main_term_k2_identity(sigma):
    # sum d(n)^2 n^{-s} = zeta(s)^4/zeta(2s) via the (1+x)/(1-x)^3 local factor,
    # within the recorded bound of the 40-digit value
    c = main_term_zeta(2, sigma)
    with mpmath.workdps(40):
        s = mpmath.mpf(sigma)
        ref = mpmath.zeta(2 * s) ** 4 / mpmath.zeta(4 * s)
        assert abs(c.value - ref) <= c.tail_bound
    assert c.tail_bound < 1e-6 * c.value


def test_main_term_monotone_in_sigma():
    for k in (1, 2, 3, 4):
        vals = [main_term_zeta(k, s).value for s in (0.6, 0.7, 0.8, 0.9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def _poly_mul(a, b, J):
    out = [0] * J
    for i, u in enumerate(a[:J]):
        for j, v in enumerate(b[: J - i]):
            out[i + j] += u * v
    return out


@pytest.mark.parametrize("k", range(1, 7))
def test_euler_transformation_of_the_local_series(k):
    # (1-x)^{2k-1} sum_j C(k-1+j, j)^2 x^j = sum_{i<k} C(k-1, i)^2 x^i, as
    # integer power series to x^J: the identity main_term_zeta's closed form rests on
    J = 60
    series = [math.comb(k - 1 + j, j) ** 2 for j in range(J)]
    for _ in range(2 * k - 1):
        series = _poly_mul(series, [1, -1], J)
    assert series == [math.comb(k - 1, i) ** 2 for i in range(k)] + [0] * (J - k)


@pytest.mark.parametrize("k,sigma", [(2, 0.75), (3, 0.9), (3, 0.6), (4, 0.75), (6, 0.55)])
def test_main_term_matches_mpmath_product_over_same_primes(k, sigma):
    # zeta(2s)^{k^2} prod_{p <= 10^4} (1-x)^{k^2} sum_j C(k-1+j, j)^2 x^j at 40
    # digits, each local series summed term by term to 1e-45
    c = main_term_zeta(k, sigma, prime_cut=10**4)
    with mpmath.workdps(40):
        s2 = 2 * mpmath.mpf(sigma)
        ref = mpmath.zeta(s2) ** (k * k)
        for p in prime_sieve(10**4).tolist():
            x = mpmath.mpf(p) ** -s2
            local, term, j = mpmath.mpf(0), mpmath.mpf(1), 0
            while term > mpmath.mpf(10) ** -45:
                local += term
                j += 1
                term *= x * mpmath.mpf(k - 1 + j) ** 2 / j**2
            ref *= (1 - x) ** (k * k) * local
        err = abs(c.value - ref)
    assert err <= c.tail_bound
    # the bound is mostly the tail past 10^4; the products differ by rounding
    assert err <= 1e-13 * c.value


def test_main_term_divergence_guard():
    with pytest.raises(ValueError):
        main_term_zeta(2, 0.5)


def test_main_term_dual_method_within_tails():
    for k, N in ((1, 10**6), (2, 10**6), (3, 10**6)):
        table = zm.sieve_dk(k, N)
        for sigma in (0.75, 0.9):
            a = main_term_zeta(k, sigma)
            b = main_term_zeta_direct(k, sigma, table)
            assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound, (k, sigma)


def test_eq_1_2_printed_constant_discrepancy():
    # the fourth-moment main term equals zeta^4(2s)/zeta(4s); the printed
    # form zeta^2(2s)/zeta(4s) differs by exactly zeta(2s)^2
    sigma = 0.75
    c = main_term_zeta(2, sigma).value
    printed = zeta_real(2 * sigma) ** 2 / zeta_real(4 * sigma)
    assert c / printed == pytest.approx(zeta_real(2 * sigma) ** 2, rel=1e-8)


def test_main_term_series_delta_table():
    vals = np.zeros(10**5)
    vals[0] = 1.0
    t = zm.CoeffTable("rankin_c", 10**5, vals)
    c = main_term_series(t, 0.75)
    assert c.value == 1.0
    assert c.tail_bound == 0.0


def test_main_term_series_truncation_stability(atilde_16e4):
    half = zm.CoeffTable("a_tilde", atilde_16e4.N // 2,
                         atilde_16e4.values[: atilde_16e4.N // 2])
    full = main_term_series(atilde_16e4, 0.9)
    part = main_term_series(half, 0.9)
    assert abs(full.value - part.value) <= part.tail_bound + full.tail_bound


def test_main_term_series_partial_lower_bound(rankin_16e4):
    c = main_term_series(rankin_16e4, 0.75)
    n = np.arange(1, 11)
    lower = float(np.sum(rankin_16e4.values[:10] ** 2 * n**-1.5))
    assert c.value > 0
    assert c.value >= lower


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_trivial_interval():
    recs = integrate_moment_grid("zeta", 3, 0.75, [1.0])
    assert recs[0].integral == 0.0
    assert recs.quadrature == zm.moments.QuadraturePass()  # no pass ran


def test_a_record_is_exactly_a_ledger_row():
    names = [f.name for f in dataclasses.fields(zm.MomentRecord)]
    assert names == ["family", "k", "sigma", "T", "integral", "main", "residual", "quad_err"]
    recs = integrate_moment_grid("zeta", 1, 0.75, [50.0, 150.0])
    q = recs.quadrature
    assert (q.h, q.em_cut, q.spread) == (moment_step("zeta", 1, 150.0), 300, 0.0)
    assert q.points == int(round(149.0 / (q.h / 2.0**q.level))) + 1
    assert q.integrand_s > 0.0 and q.simpson_s > 0.0


def test_blocks_are_doubled_edges_past_the_grid():
    # edges 0, 50, 100, ... doubled until past the grid's last t, however far
    # that is; a grid ending on an edge gets a one-point block above it
    seen = []

    def block(tt, hi):
        seen.append((len(tt), hi))
        return np.zeros(len(tt)), 0.0

    _integrand_grid(1.0 + 0.5 * np.arange(1599), block, 1)  # t in [1, 800]
    assert seen == [(98, 50.0), (100, 100.0), (200, 200.0), (400, 400.0), (800, 800.0),
                    (1, 1600.0)]
    seen.clear()
    y, _ = _integrand_grid(np.array([10.0, 7000.0, 30000.0]), block, 1)
    assert seen == [(1, 50.0), (1, 12800.0), (1, 51200.0)] and len(y) == 3


def test_integrate_additive():
    r100 = integrate_moment_grid("zeta", 1, 0.75, [100.0])[0]
    r200 = integrate_moment_grid("zeta", 1, 0.75, [200.0])[0]
    grid = integrate_moment_grid("zeta", 1, 0.75, [100.0, 200.0])
    gap = (r200.integral - r100.integral) - (grid[1].integral - grid[0].integral)
    assert abs(gap) < 1e-6 * r200.integral


def test_integrate_step_halving_consistency():
    rec = integrate_moment_grid("zeta", 2, 0.75, [200.0], rel_tol=1e-4)[0]
    assert rec.quad_err < 1e-4 * rec.integral


def test_integrate_rejects_bad_args():
    with pytest.raises(ValueError):
        integrate_moment_grid("zeta", 1, 0.4, [100.0])
    with pytest.raises(ValueError):
        integrate_moment_grid("zeta", 1, 0.75, [10**4])
    with pytest.raises(ValueError):
        integrate_moment_grid("nope", 1, 0.75, [100.0])
    with pytest.raises(BudgetError):
        integrate_moment_grid("zeta", 1, 0.75, [1000.0], budget=100)
    for rel_tol in (1e-6, 0.05):
        with pytest.raises(ValueError, match="rel_tol must lie in"):
            integrate_moment_grid("zeta", 1, 0.75, [100.0], rel_tol=rel_tol)


def test_integrate_workers_deterministic():
    a = integrate_moment_grid("zeta", 1, 0.75, [50.0, 150.0], workers=1)
    b = integrate_moment_grid("zeta", 1, 0.75, [50.0, 150.0], workers=4)
    for x, y in zip(a, b):
        assert x.integral == y.integral and x.quad_err == y.quad_err


@pytest.mark.parametrize("k, sigma, T_grid", [
    # the benchmark's seed-0 zeta cells, then the 4th and 6th moments near 1/2
    (1, 0.75, [100.0, 200.0, 400.0, 800.0]),
    (1, 0.9, [100.0, 200.0, 400.0, 800.0]),
    (2, 0.75, [100.0, 200.0, 400.0, 800.0]),
    (3, 0.9, [100.0, 200.0, 400.0, 800.0]),
    (2, 0.55, [2000.0]),
    (3, 0.55, [2000.0]),
])
def test_zeta_quad_err_bounds_a_4x_finer_start(k, sigma, T_grid):
    recs = integrate_moment_grid("zeta", k, sigma, T_grid)
    refs = _integrate_moment_grid("zeta", k, sigma, T_grid, rel_tol=1e-4, coeffs=None,
                                  workers=1, budget=5_000_000, refine=4)
    assert refs.quadrature.h == recs.quadrature.h / 4
    for rec, ref, T in zip(recs, refs, T_grid):
        assert rec.T == ref.T == T
        assert abs(rec.integral - ref.integral) <= rec.quad_err


@pytest.mark.parametrize("family, k", [("F2", 1), ("F4", 2), ("Z2", 1)])
def test_series_keep_the_fixed_start_step(family, k):
    for T in (2.0, 20.0, 50.0, 160.0, 1000.0, 5000.0):
        assert moment_step(family, k, T) == min(0.02, 0.4 / math.log(T))


def test_integer_T_stays_on_the_zeta_grid():
    qs = set()
    for k in range(1, 7):
        for T_max in range(2, 5001):
            h = moment_step("zeta", k, float(T_max))
            q = round(1.0 / (2.0 * h))
            assert h == 1.0 / (2 * q)
            qs.add(q)
    T = np.arange(2, 5001)

    def misses(q):
        # the ledger T of integrate_moment_grid at every halving level
        for level in range(1, 5):
            h2 = 1.0 / (2 * q) / 2.0**level
            m2 = np.round((T - 1) / h2).astype(np.int64)
            m2 -= m2 % 4
            if not np.array_equal(1.0 + h2 * m2, T):
                return True
        return False

    assert not any(misses(q) for q in qs)
    # the first q whose grid misses an integer T lies beyond the rule's reach
    assert [q for q in range(1, 75) if misses(q)] == [49]
    assert max(qs) < 49


@pytest.fixture(scope="module")
def atilde_12e3():
    return zm.normalize(zm.tau_table(12_000))


def test_z2_residue_comes_from_its_table(atilde_12e3, monkeypatch):
    # every block subtracts the pole term with the residue rankin_A(c, N)[0]
    # of the table being integrated, and the integral lies within its own
    # quad_err of the value the call gave when callers passed that residue
    c = zm.rankin_c(atilde_12e3)
    residues = []

    def spy(*args, **kw):
        residues.append(kw["residue"])
        return zm.evaluate.smoothed_grid(*args, **kw)

    monkeypatch.setattr(zm.moments, "smoothed_grid", spy)
    r = integrate_moment_grid("Z2", 1, 0.8, [40.0], coeffs=c)[0]
    assert residues and all(x == zm.rankin_A(c, c.N)[0] for x in residues)
    assert abs(r.integral - 53.59574120175502) <= r.quad_err


def test_family_mismatch_raises_before_any_evaluation(atilde_12e3, monkeypatch):
    calls = []

    def spy(*args, **kw):
        calls.append(args)
        return zm.evaluate.smoothed_grid(*args, **kw)

    monkeypatch.setattr(zm.moments, "smoothed_grid", spy)
    conv = zm.self_convolve(atilde_12e3)
    for family, k, coeffs in (("F4", 2, atilde_12e3),  # F2's table
                              ("F2", 3, atilde_12e3),  # F2 is k = 1
                              ("F4", 1, conv),         # F4 is k = 2
                              ("Z2", 1, None),         # no table
                              ("zeta", 1, conv)):      # zeta takes none
        with pytest.raises(ValueError):
            exponent_experiment(family, k, 0.8, [20, 40], coeffs=coeffs)
        with pytest.raises(ValueError):
            integrate_moment_grid(family, k, 0.8, [20, 40], coeffs=coeffs)
    assert calls == []
    assert len(integrate_moment_grid("F4", 2, 0.8, [20, 40], coeffs=conv)) == 2
    assert calls


def test_main_term_series_unknown_label_raises():
    t = zm.CoeffTable("d_2", 1000, np.ones(1000))
    with pytest.raises(ValueError, match="d_2"):
        main_term_series(t, 0.75)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_residual_synthetic_zero():
    C = main_term_zeta(2, 0.75)
    rec = zm.MomentRecord("zeta", 2, 0.75, 100.0, C.value * 100.0)
    out = residual(rec, C)
    assert out.residual == 0.0
    assert out.main == C.value * 100.0


def test_residual_k1_includes_secondary_term():
    C = main_term_zeta(1, 0.75)
    rec = zm.MomentRecord("zeta", 1, 0.75, 1000.0, C.value * 1000.0)
    out = residual(rec, C)
    sec = secondary_term(0.75, 1000.0)
    assert out.main == pytest.approx(C.value * 1000.0 + sec, rel=1e-12)
    # the secondary coefficient is negative at sigma = 3/4
    assert sec < 0
    assert sec == pytest.approx(
        zeta_real(0.5) * math.gamma(0.5) * math.sin(0.75 * math.pi) / 0.25 * 1000**0.5,
        rel=1e-10,
    )


def test_residual_mismatch_errors():
    C = main_term_zeta(2, 0.75)
    with pytest.raises(ValueError):
        residual(zm.MomentRecord("zeta", 1, 0.75, 10.0, 1.0), C)
    with pytest.raises(ValueError):
        residual(zm.MomentRecord("zeta", 2, 0.8, 10.0, 1.0), C)


def test_residual_k1_bound_at_1000():
    rec = integrate_moment_grid("zeta", 1, 0.75, [1000.0])[0]
    out = residual(rec, main_term_zeta(1, 0.75))
    assert abs(out.residual) <= 5 * 1000 ** (1 / 6) * math.log(1000.0) ** (2 / 9)


def test_secondary_term_k1_unchanged():
    # the classical closed form, bit for bit, with or without k
    for sigma, T in ((0.75, 1000.0), (0.6, 250.0), (0.9, 2000.0)):
        z = zeta_real(2.0 * sigma - 1.0)
        g = gamma_fn(complex(2.0 * sigma - 1.0, 0.0)).value.real
        old = z * g * math.sin(math.pi * sigma) / (1.0 - sigma) * T ** (2.0 - 2.0 * sigma)
        assert secondary_term(sigma, T) == old
        assert secondary_term(sigma, T, k=1) == old


def test_secondary_term_recipe_k1_is_classical():
    # the single one-swap term zeta(2-2s)(t/2pi)^{1-2s}, integrated over
    # [1, T], is the increment of the classical term from 1 to T
    for sigma in (0.6, 0.75, 0.9):
        for T in (250.0, 2000.0):
            want = secondary_term(sigma, T) - secondary_term(sigma, 1.0)
            assert _one_swap_recipe(1, sigma, T) == pytest.approx(want, rel=1e-12)


def test_secondary_term_k2_matches_mpmath_recipe():
    # independent evaluation: the four one-swap terms at distinct real shifts
    # within 1e-15 of sigma - 1/2, in 50-digit arithmetic with
    # A_2 = 1/zeta(2 + sum of shifts); the poles cancel up to O(1e-15)
    import mpmath as mp

    sigma, T = 0.75, 2000
    with mp.workdps(50):
        d, eps = mp.mpf(sigma) - mp.mpf(1) / 2, mp.mpf("1e-15")
        alpha, beta = [d + eps, d - eps], [d + 2 * eps, d - 2 * eps]
        total = mp.mpf(0)
        for i in range(2):
            for j in range(2):
                A, B = list(alpha), list(beta)
                A[i], B[j] = -beta[j], -alpha[i]
                x = alpha[i] + beta[j]
                weight = (2 * mp.pi) ** x * (mp.mpf(T) ** (1 - x) - 1) / (1 - x)
                z = mp.fprod(mp.zeta(1 + a + b) for a in A for b in B)
                total += weight * z / mp.zeta(2 + mp.fsum(A) + mp.fsum(B))
    S2 = secondary_term(sigma, float(T), k=2)
    assert S2 == pytest.approx(float(total), rel=1e-10)
    assert S2 == pytest.approx(-3.134e4, rel=1e-3)


def test_euler_arith_factor_reproduces_A2():
    # at k = 2 the Euler product behind A_3 must give 1/zeta(2 + sum of
    # shifts); the cut p <= 2e4 leaves a tail of about sum_{p > 2e4} p^-2
    A = np.array([[0.25 + 0.01j, -0.25], [0.1, 0.2 - 0.05j]])
    B = np.array([[0.25 - 0.02j, -0.22], [0.15, -0.1]])
    logp = np.log(prime_sieve(20000).astype(np.float64))
    got = _euler_arith_factor(A, B, logp)
    want = [1.0 / zm.zeta_em(2.0 + a.sum() + b.sum()).value for a, b in zip(A, B)]
    assert np.allclose(got, want, rtol=2e-5, atol=0.0)


def test_secondary_term_rejects_bad_args():
    for k in (0, 4):
        with pytest.raises(ValueError):
            secondary_term(0.75, 100.0, k)
    for k in (1, 2, 3):
        for sigma in (0.5, 1.0, 0.3):
            with pytest.raises(ValueError):
                secondary_term(sigma, 100.0, k)


def test_secondary_term_evaluates_each_zeta_argument_once(monkeypatch):
    nodes = zm.moments._one_swap_nodes
    cases = ((0.75, 2000.0, 2), (0.9, 2000.0, 3))
    want = [secondary_term(*c) for c in cases]
    args = []  # the zeta arguments of each set of Cauchy nodes

    def nodes_spy(*a):
        args.append([])
        return nodes(*a)

    def zeta_spy(s, *a):
        args[-1].append(complex(s))
        return zm.evaluate.zeta_em(s, *a)

    monkeypatch.setattr(zm.moments, "_one_swap_nodes", nodes_spy)
    monkeypatch.setattr(zm.moments, "zeta_em", zeta_spy)
    assert [secondary_term(*c) for c in cases] == want
    assert len(args) == 4 and all(len(a) == len(set(a)) for a in args)
    # without reuse, each radius costs 32 nodes x k^2 terms x k^2 factors
    # (and one A_2 factor per term for k = 2): 640 calls for k = 2, 2592 for 3
    assert sum(map(len, args)) < 2 * (640 + 2592) / 3
    # an array of T builds the two node sets once and gives each T's value
    args.clear()
    Ts = [250.0, 500.0, 1000.0, 2000.0]
    got = secondary_term(0.75, Ts, 2)
    assert len(args) == 2 and list(got) == [secondary_term(0.75, T, 2) for T in Ts]
    assert list(secondary_term(0.75, Ts)) == [secondary_term(0.75, T) for T in Ts]


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def test_fit_exact_square_law():
    fit = fit_power_law([(10, 100), (100, 10**4), (1000, 10**6)], strict=False)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_synthetic_half_power():
    X = np.geomspace(10, 10**4, 20)
    fit = fit_power_law(list(zip(X, 2.7 * X**0.5)))
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.7), abs=1e-12)


def test_fit_signed_values_use_magnitude():
    X = np.geomspace(10, 10**4, 16)
    V = 3 * X**1.5 * np.where(np.arange(16) % 2 == 0, 1, -1)
    fit = fit_power_law(list(zip(X, V)))
    assert fit.slope == pytest.approx(1.5, abs=1e-12)


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        fit_power_law([(10, 0.0), (100, 0.0)], strict=False)
    with pytest.raises(DegenerateInputError):
        fit_power_law([(10, 1.0), (20, 2.0)])  # strict: too few points
    with pytest.raises(DegenerateInputError):
        fit_power_law([(10, 1.0), (9, 2.0)], strict=False)  # not increasing
    X = np.linspace(10, 20, 10)
    with pytest.raises(DegenerateInputError):
        fit_power_law(list(zip(X, X)))  # strict: span < 1.5 decades


def test_fit_delta2_mean_square_slope(d2_1e6):
    curve = zm.delta_mean_square(2, np.geomspace(10**4, 10**6, 41), d2_1e6, zm.main_poly(2))
    fit = fit_power_law(curve.cumulative_ms)
    assert fit.slope == pytest.approx(1.5, abs=0.05)


# ---------------------------------------------------------------------------
# theory exponents
# ---------------------------------------------------------------------------

def test_theory_zeta_k3_high_sigma():
    assert theory_exponent("zeta", 3, 0.9) == pytest.approx(0.3, abs=1e-14)


def test_theory_zeta_k3_low_sigma():
    # 0.6 > sigma*_3 = 7/12: the sigma* route applies and is the minimum
    v = theory_exponent("zeta", 3, 0.6)
    assert v == pytest.approx(24 * 0.4 / (17 - 12 * 0.6), rel=1e-12)
    assert v == pytest.approx(0.97959, abs=1e-5)


def test_theory_zeta_validity_window():
    with pytest.raises(ValueError):
        theory_exponent("zeta", 7, 0.75)  # outside the tabulated range
    with pytest.raises(ValueError):
        theory_exponent("zeta", 3, 0.45)  # outside the strip
    with pytest.raises(ValueError):
        exponent_sigma_star(3, 0.55)  # below sigma*_3 = 7/12
    # 0.55 < 7/12 but > max(1/3, 1/2): only the beta envelope applies
    assert theory_exponent("zeta", 3, 0.55) == pytest.approx(2 * 0.45 / (2 / 3), rel=1e-12)


def test_theory_zeta_k12_beta_envelope():
    # k = 1, 2 carry the beta-envelope values from the constants table
    assert theory_exponent("zeta", 1, 0.75) == pytest.approx(2 / 3, rel=1e-12)
    assert theory_exponent("zeta", 2, 0.75) == pytest.approx(2 / 3, rel=1e-12)
    # the sharp special-method exponents are separate table entries
    assert exponent_classical(1, 0.75) == pytest.approx(1 / 6, rel=1e-12)
    assert exponent_classical(2, 0.75) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        exponent_classical(3, 0.75)


def test_theory_Z():
    assert theory_exponent("Z2", 1, 0.8) == pytest.approx(0.8, rel=1e-12)


def test_theory_F_branches_continuous():
    for fam in ("F2", "F4"):
        lo = theory_exponent(fam, 1, 0.75 - 1e-12)
        hi = theory_exponent(fam, 1, 0.75 + 1e-12)
        assert lo == pytest.approx(hi, abs=1e-9)
    assert theory_exponent("F2", 1, 0.8) == pytest.approx(8 / 3 * 0.2, rel=1e-12)
    assert theory_exponent("F4", 2, 0.8) == pytest.approx(16 / 5 * 0.2, rel=1e-12)


def test_sigma_star_bound_improves_weak_form():
    for k in (3, 4, 5, 6):
        sk = THEORY.sigma_star[k]
        for sigma in np.linspace(sk + 1e-6, 1 - 1e-9, 30):
            assert exponent_sigma_star(k, sigma) <= exponent_sigma_star_weak(k, sigma) + 1e-14


def test_theory_minimum_of_candidates():
    for k in (3, 4, 5, 6):
        for sigma in (0.75, 0.85, 0.95):
            v = theory_exponent("zeta", k, sigma)
            assert v <= exponent_beta_envelope(k, sigma) + 1e-14
            assert v <= exponent_sigma_star(k, sigma) + 1e-14


def test_weak_form_recovers_tabulated_exponents():
    # the classical explicit values (17-12s)/10, (11-8s)/6, ...
    assert exponent_sigma_star_weak(3, 0.7) == pytest.approx((17 - 12 * 0.7) / 10, rel=1e-12)
    assert exponent_sigma_star_weak(4, 0.8) == pytest.approx((11 - 8 * 0.8) / 6, rel=1e-12)
    assert exponent_sigma_star_weak(5, 0.8) == pytest.approx((79 - 60 * 0.8) / 38, rel=1e-12)
    assert exponent_sigma_star_weak(6, 0.8) == pytest.approx((9 - 7 * 0.8) / 4, rel=1e-12)


def test_kanemitsu_and_lindelof_entries():
    assert exponent_kanemitsu(3, 0.8) == pytest.approx(9 * 0.2 / (3 + 2 - 2.4), rel=1e-12)
    with pytest.raises(ValueError):
        exponent_kanemitsu(3, 0.6)  # below 1 - 1/k
    assert exponent_lindelof(2, 0.75) == pytest.approx(8 * 0.25 / 3, rel=1e-12)


def test_matsumoto_pieces():
    assert matsumoto_exponent(0.7) == pytest.approx(4 - 4 * 0.7, rel=1e-12)
    assert matsumoto_exponent(0.78) == pytest.approx(2.5 - 1.56, rel=1e-12)
    assert matsumoto_exponent(0.9) == pytest.approx(60 * 0.1 / (29 - 18), rel=1e-12)
    knee = (12 + math.sqrt(19)) / 20
    assert matsumoto_exponent(knee - 1e-9) == pytest.approx(matsumoto_exponent(knee + 1e-9), abs=1e-6)


def test_theory_constant_maps_monotone():
    bs = [THEORY.beta[k] for k in sorted(THEORY.beta)]
    ss = [THEORY.sigma_star[k] for k in sorted(THEORY.sigma_star)]
    assert bs == sorted(bs) and ss == sorted(ss)
    assert all(0 < v < 1 for v in bs + ss)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_experiment_zeta_k1_small():
    res = exponent_experiment("zeta", 1, 0.75, [100, 200, 400])
    assert res.fit.pass_
    assert res.fit.slope <= res.fit.theory_exponent + res.fit.slack
    assert all(math.isfinite(r.residual) for r in res.records)


def test_experiment_near_half_refuses_to_pass():
    res = exponent_experiment("zeta", 1, 0.52, [50, 100, 200])
    assert res.near_half
    assert res.fit.pass_ is False


def test_experiment_o_of_T():
    res = exponent_experiment("zeta", 1, 0.75, [100, 200, 400, 800])
    ratios = [abs(r.residual) / r.T for r in res.records]
    assert ratios[-1] < ratios[0]
