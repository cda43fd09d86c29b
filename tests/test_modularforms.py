import math

import numpy as np
import pytest

import zetamoments as zm
from zetamoments import modularforms as mf
from zetamoments.arith import CapacityError, PrecisionError
from zetamoments.cache import save_table
from zetamoments.modularforms import DeligneBoundError, delta_phi_mean_square


def eta24_bruteforce(N: int) -> list:
    """q prod (1-q^m)^24 to order N by dense polynomial multiplication."""
    poly = [1] + [0] * N
    for m in range(1, N + 1):
        for _ in range(24):
            # multiply by (1 - q^m)
            for i in range(N, m - 1, -1):
                poly[i] -= poly[i - m]
    # tau(n) = coefficient of q^(n-1) in the product (after the q shift)
    return poly[: N]


def schoolbook_square(a: list, M: int) -> list:
    """Truncated square of a series in plain Python ints."""
    return [sum(a[i] * a[n - i] for i in range(n + 1)) for n in range(M + 1)]


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def test_tau_first_values(tau_1e5):
    assert tau_1e5.tau[0] == 1
    assert tau_1e5.tau[1] == -24
    assert tau_1e5.tau[2] == 252
    assert tau_1e5.tau[3] == -1472
    assert tau_1e5.tau[4] == 4830
    assert tau_1e5.tau[6] == -16744


def test_tau_against_bruteforce_series(tau_1e5):
    ref = eta24_bruteforce(120)
    assert tau_1e5.tau[:120] == ref


def test_tau_hecke_multiplicative(tau_1e5):
    assert tau_1e5.tau[5] == tau_1e5.tau[1] * tau_1e5.tau[2]
    assert tau_1e5.tau[99 * 1009 - 1] == tau_1e5.tau[98] * tau_1e5.tau[1008]
    assert tau_1e5.tau[32 * 3125 - 1] == tau_1e5.tau[31] * tau_1e5.tau[3124]


def test_tau_hecke_prime_power_recursion(tau_1e5):
    N = tau_1e5.N
    for p in (2, 3, 5, 7, 11, 13, 17, 311):
        pj = p * p
        while pj <= N:
            lhs = tau_1e5.tau[pj - 1]
            rhs = tau_1e5.tau[p - 1] * tau_1e5.tau[pj // p - 1] - p**11 * tau_1e5.tau[pj // p**2 - 1]
            assert lhs == rhs, (p, pj)
            pj *= p


def test_tau_matches_schoolbook_squares():
    # E^24 = ((E^3)^2)^2)^2 with every product done in Python ints, no FFT
    N = 400
    M = N - 1
    e = [1] + [0] * M
    for m in range(1, M + 1):
        for i in range(M, m - 1, -1):
            e[i] -= e[i - m]
    e2 = schoolbook_square(e, M)
    e3 = [sum(e2[i] * e[n - i] for i in range(n + 1)) for n in range(M + 1)]
    e24 = schoolbook_square(schoolbook_square(schoolbook_square(e3, M), M), M)
    assert zm.tau_table(N).tau == e24


def test_tau_2e5_certified_and_hecke(rng):
    tau = zm.tau_table(200000)
    assert set(tau.rounding) == {"e3^2", "e6^2", "e12^2"}
    for name, (bound, observed) in tau.rounding.items():
        print(f"\n{name}: a-priori bound {bound:.3g}, observed deviation {observed:.3g}")
        assert bound < 0.25 and observed < 0.25
    tv = tau.tau
    for p in (2, 3, 5, 7, 11, 13, 443):
        pj = p * p
        while pj <= tau.N:
            assert tv[pj - 1] == tv[p - 1] * tv[pj // p - 1] - p**11 * tv[pj // p**2 - 1], (p, pj)
            pj *= p
    pairs = 0
    while pairs < 1000:
        m = int(rng.integers(2, 448))
        n = int(rng.integers(tau.N // (2 * m), tau.N // m + 1))
        if math.gcd(m, n) == 1:
            assert tv[m * n - 1] == tv[m - 1] * tv[n - 1], (m, n)
            pairs += 1
    zm.normalize(tau)  # exact Deligne check on every coefficient


def test_square_twiddles_within_beta():
    # numpy's rfft of a unit impulse returns the twiddles exp(-2 pi i k / L)
    L = 1 << 19
    impulse = np.zeros(L)
    impulse[1] = 1.0
    got = np.fft.rfft(impulse)
    k = np.arange(L // 2 + 1, dtype=np.longdouble)
    ang = 2 * np.longdouble("3.14159265358979323846264338327950288") * k / L
    err = np.hypot(got.real - np.cos(ang), got.imag + np.sin(ang))
    assert float(err.max()) <= mf._BETA


def test_square_exact_against_python_ints(rng):
    a = rng.integers(-(2**40), 2**40, size=300)
    sq, (bound, observed) = mf._square(a)
    assert sq.tolist() == schoolbook_square([int(x) for x in a], 299)
    assert bound < 0.25 and observed < 0.25


def test_square_a_priori_bound_raises(rng, monkeypatch):
    # 30-bit limbs make the limb norms far too large for the rounding bound
    monkeypatch.setattr(mf, "_LIMB_BITS", 30)
    with pytest.raises(PrecisionError, match="bound"):
        mf._square(rng.integers(-(2**40), 2**40, size=2000))


def test_square_observed_deviation_raises(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda x, n: irfft(x, n) + 0.3)
    with pytest.raises(PrecisionError, match="deviation"):
        mf._square(np.arange(1, 50, dtype=np.int64))


def test_square_int64_guard_raises():
    # the coefficient 10 * 2^62 overflows int64: exact only in Python ints
    a = np.full(10, 2**31, dtype=np.int64)
    assert mf._square(a)[0].tolist() == schoolbook_square(a.tolist(), 9)


def test_square_int64_guard_decides_exactly(monkeypatch):
    # a = [1, x] with every balanced limb of x in [1, 2^10): the limb sums'
    # maxima are 2 d_s(x), so the run bound sum max|c_s| 2^(11 s) is exactly
    # 2 x; one run just below the limit, a second run from s = 5 at it
    x = sum(1023 << 11 * s for s in range(5)) + (63 << 55)  # the largest such x < 2^61
    for limit, dtype in ((2 * x + 1, np.int64), (2 * x, object)):
        monkeypatch.setattr(mf, "_RUN_LIMIT", limit)
        sq = mf._square(np.array([1, x], dtype=np.int64))[0]
        assert sq.dtype == dtype
        assert sq.tolist() == schoolbook_square([1, x], 1)
    monkeypatch.undo()
    assert mf._square(np.array([1, x], dtype=np.int64))[0].dtype == np.int64
    # x = 2^61 (one limb, 64 at s = 5): the bound 2^62 + 1 reaches 2^62
    sq = mf._square(np.array([1, 2**61], dtype=np.int64))[0]
    assert sq.dtype == object
    assert sq.tolist() == schoolbook_square([1, 2**61], 1) == [1, 2**62]


def test_deligne_corruption_near_N_raises(tau_1e5):
    n = tau_1e5.N - 7
    d = int(zm.sieve_dk(2, n).values[n - 1])
    tau = list(tau_1e5.tau)
    tau[n - 1] = -(math.isqrt(d * d * n**11) + 1)  # just above d(n) n^5.5
    with pytest.raises(DeligneBoundError, match=rf"a~\({n}\)"):
        zm.normalize(zm.TauTable(tau_1e5.N, tau))


def test_deligne_value_beyond_float_range_raises():
    tau = zm.tau_table(10).tau
    tau[1] = -(10**400)
    with pytest.raises(DeligneBoundError, match=r"a~\(2\)"):
        zm.normalize(zm.TauTable(10, tau))


def test_deligne_value_on_the_bound_passes(tau_1e5):
    # n = m^2 makes d(n) m^11 hit the bound exactly; the float margin cannot
    # certify it, so the exact integer test must admit it
    m = math.isqrt(tau_1e5.N)
    n = m * m
    d = int(zm.sieve_dk(2, n).values[n - 1])
    tau = list(tau_1e5.tau)
    tau[n - 1] = d * m**11
    t = float(tau[n - 1])
    assert not t * t <= float(d * d) * float(n) ** 11 * (1.0 - 64 * mf._EPS)
    a = zm.normalize(zm.TauTable(tau_1e5.N, tau))
    assert a.values[n - 1] == pytest.approx(d, rel=1e-14)


def test_tau_budget():
    with pytest.raises(CapacityError):
        zm.tau_table(10**6)


def test_tau_small_tables():
    assert zm.tau_table(1).tau == [1]
    assert zm.tau_table(3).tau == [1, -24, 252]


# ---------------------------------------------------------------------------
# normalization and Deligne
# ---------------------------------------------------------------------------

def test_normalize_values(atilde_1e5):
    assert atilde_1e5.values[0] == 1.0
    assert atilde_1e5.values[1] == pytest.approx(-24 * 2**-5.5, rel=1e-15)
    assert atilde_1e5.values[1] == pytest.approx(-0.530330, abs=5e-7)


def test_deligne_bound_exact(tau_1e5, atilde_1e5):
    d = zm.sieve_dk(2, tau_1e5.N).values
    # exact integer form: tau(n)^2 <= d(n)^2 n^11
    for n in (2, 12, 3511, 99991):
        assert tau_1e5.tau[n - 1] ** 2 <= int(d[n - 1]) ** 2 * n**11
    assert np.all(np.abs(atilde_1e5.values) <= d + 1e-9)


def test_normalize_rejects_corrupt_tau():
    bad = zm.TauTable(4, [1, -24, 252, 10**9])
    with pytest.raises(DeligneBoundError):
        zm.normalize(bad)


# ---------------------------------------------------------------------------
# self convolution and Rankin-Selberg coefficients
# ---------------------------------------------------------------------------

def test_self_convolve_small(atilde_1e5):
    conv = zm.self_convolve(atilde_1e5)
    assert conv.values[0] == pytest.approx(1.0)
    assert conv.values[1] == pytest.approx(2 * atilde_1e5.values[1], rel=1e-14)
    assert conv.values[1] == pytest.approx(-1.060660, abs=5e-7)
    # brute force at n=12: sum over divisor pairs
    v = sum(atilde_1e5.values[d - 1] * atilde_1e5.values[12 // d - 1] for d in (1, 2, 3, 4, 6, 12))
    assert conv.values[11] == pytest.approx(v, rel=1e-12)


def test_self_convolve_cache_bytes_unchanged(atilde_1e5, tmp_path):
    # the per-divisor loop self_convolve had before it became
    # dirichlet_convolve(a, a): same summation order, same bytes
    N = atilde_1e5.N
    v = atilde_1e5.values
    ref = np.zeros(N, dtype=np.float64)
    for d in range(1, N + 1):
        ref[d - 1:: d] += v[d - 1] * v[: N // d]
    conv = zm.self_convolve(atilde_1e5)
    assert (conv.label, conv.generator_params) == ("a_tilde_sq_conv", {"kappa": 12})
    save_table(tmp_path / "new.zml", conv.label, conv.generator_params, conv.values)
    save_table(tmp_path / "ref.zml", "a_tilde_sq_conv", {"kappa": 12}, ref)
    assert (tmp_path / "new.zml").read_bytes() == (tmp_path / "ref.zml").read_bytes()


def test_self_convolve_rejects_integer_table():
    with pytest.raises(ValueError):
        zm.self_convolve(zm.sieve_dk(2, 10))


def test_self_convolve_dominated_by_d4(atilde_1e5):
    conv = zm.self_convolve(atilde_1e5)
    d4 = zm.sieve_dk(4, atilde_1e5.N).values
    assert np.all(np.abs(conv.values) <= d4 + 1e-9)


def test_rankin_c_values(atilde_1e5):
    c = zm.rankin_c(atilde_1e5)
    assert (c.label, c.N, c.generator_params) == ("rankin_c", atilde_1e5.N, {})
    assert c.values[0] == pytest.approx(1.0)
    assert c.values[1] == pytest.approx(0.28125, rel=1e-14)  # (24^2)/2^11
    assert c.values[3] == pytest.approx(atilde_1e5.values[3] ** 2 + 1.0, rel=1e-14)
    # brute force c_36: d^2 m = 36 for d in {1, 2, 3, 6}
    expect = sum(atilde_1e5.values[36 // (d * d) - 1] ** 2 for d in (1, 2, 3, 6))
    assert c.values[35] == pytest.approx(expect, rel=1e-12)


def test_rankin_c_nonnegative(rankin_16e4):
    assert float(rankin_16e4.values.min()) >= 0.0
    assert rankin_16e4.values[0] == 1.0


# ---------------------------------------------------------------------------
# the average A and Delta(x, phi)
# ---------------------------------------------------------------------------

def test_rankin_A_constant_table():
    A0 = 2.75
    est, _ = zm.rankin_A(zm.CoeffTable("rankin_c", 10**4, np.full(10**4, A0)), 10**4)
    assert abs(est - A0) <= 1.5 * A0 / (10**4 // 4)


def test_rankin_A_real_table(rankin_16e4):
    A, spread = zm.rankin_A(rankin_16e4, rankin_16e4.N)
    assert A > 0
    assert spread < 0.02


def test_rankin_A_agrees_with_plain_average(rankin_16e4):
    N = 10**5
    plain = float(np.sum(rankin_16e4.values[:N])) / N
    A, _ = zm.rankin_A(rankin_16e4, rankin_16e4.N)
    assert abs(plain - A) / A < 0.05


def test_delta_phi_mean_square_slope(rankin_16e4):
    A, _ = zm.rankin_A(rankin_16e4, rankin_16e4.N)
    ms = delta_phi_mean_square(rankin_16e4, A, np.geomspace(10**3, 10**5, 41))
    fit = zm.fit_power_law(ms)
    assert fit.slope <= 2.2
    assert fit.r2 > 0.9


def test_delta_phi_rankin_pointwise_envelope(rankin_16e4):
    # |Delta(x,phi)| / x^(3/5) stays bounded on a log grid (report max)
    A, _ = zm.rankin_A(rankin_16e4, rankin_16e4.N)
    S = np.cumsum(rankin_16e4.values)
    xs = np.unique(np.geomspace(10, rankin_16e4.N, 200).astype(int))
    ratios = np.abs(S[xs - 1] - A * xs) / xs**0.6
    assert float(ratios.max()) < 1.0


def test_c_squared_summatory_growth(rankin_16e4):
    # sum_{n<=X} c_n^2 << X log^{1+eps} X, checked as a bounded (and not
    # increasing) ratio over a geometric grid
    S2 = np.cumsum(rankin_16e4.values ** 2)
    xs = np.unique(np.geomspace(10**3, rankin_16e4.N, 30).astype(int))
    ratios = S2[xs - 1] / (xs * np.log(xs) ** 1.1)
    assert np.all(np.isfinite(ratios))
    assert ratios[-1] <= ratios[0]


def test_c_crude_square_divisor_bound(atilde_1e5):
    # c_n <= d_4(n) * #{d : d^2 | n}: each summand a~(m)^2 <= d(m)^2 <= d_4(m)
    c = zm.rankin_c(atilde_1e5)
    N = 10**4
    d4 = zm.sieve_dk(4, N).values
    sq_div = np.zeros(N)
    d = 1
    while d * d <= N:
        sq_div[d * d - 1:: d * d] += 1
        d += 1
    assert np.all(c.values[:N] <= d4 * sq_div + 1e-9)
