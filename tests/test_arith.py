import math

import numpy as np
import pytest

import zetamoments as zm
from conftest import brute_dk
from zetamoments.arith import CapacityError, PrecisionError, prime_sieve, stieltjes_constants


# ---------------------------------------------------------------------------
# d_k sieves
# ---------------------------------------------------------------------------

def test_d1_is_ones():
    assert list(zm.sieve_dk(1, 5).values) == [1, 1, 1, 1, 1]


def test_d2_of_6_counts_divisors():
    assert zm.sieve_dk(2, 6).values[5] == 4  # 1, 2, 3, 6


def test_d3_of_4_counts_ordered_triples():
    # (1,1,4), (1,2,2) in all arrangements: 3 + 3
    assert zm.sieve_dk(3, 4).values[3] == 6


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dk_matches_bruteforce(k):
    table = zm.sieve_dk(k, 60)
    for n in range(1, 61):
        assert table.values[n - 1] == brute_dk(k, n), (k, n)


@pytest.mark.parametrize("N", [48, 49, 50, 120, 121, 122, 168, 169, 170])
def test_dk_matches_bruteforce_around_prime_squares(N):
    # N on both sides of 7^2, 11^2 and 13^2: the sieve's prime range is
    # primes <= isqrt(N), and the prime whose square is N must be in it
    for k in range(1, 7):
        table = zm.sieve_dk(k, N)
        assert [int(v) for v in table.values] == [brute_dk(k, n) for n in range(1, N + 1)], (k, N)


@pytest.mark.parametrize("k", range(1, 7))
def test_dk_matches_bruteforce_for_every_N_to_200(k):
    brute = [brute_dk(k, n) for n in range(1, 201)]
    for N in range(1, 201):
        assert zm.sieve_dk(k, N).values.tolist() == brute[:N], (k, N)


def _dk_by_trial_division(k: int, n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        out *= math.comb(a + k - 1, k - 1)
        p += 1
    return out * (k if n > 1 else 1)


def _sieve_dk_strided(k: int, N: int) -> np.ndarray:
    """d_k(1..N) by one strided pass per prime power over the whole table
    (sieve_dk before its wheel pre-sieve)."""
    vals = np.ones(N, dtype=np.int64)
    if k == 1:
        return vals
    found = np.ones(N, dtype=np.int32)
    for p in map(int, prime_sieve(math.isqrt(N))):
        vals[p - 1:: p] *= k
        found[p - 1:: p] *= p
        pa, a = p * p, 2
        while pa <= N:
            sl = vals[pa - 1:: pa]
            sl *= a + k - 1
            sl //= a
            found[pa - 1:: pa] *= p
            a += 1
            pa *= p
    np.less(found, np.arange(1, N + 1, dtype=np.int32), out=found)
    return vals * (1 + (k - 1) * found.astype(np.int64))


def test_dk_wheel_matches_strided_sieve_for_every_N_to_300():
    for k in range(1, 9):
        for N in range(1, 301):
            assert np.array_equal(zm.sieve_dk(k, N).values, _sieve_dk_strided(k, N)), (k, N)


_P = zm.arith._WHEEL_PERIOD  # 151200


@pytest.mark.parametrize("N", [_P - 1, _P, _P + 1, 2 * _P, 2 * _P + 1, 10**6])
def test_dk_wheel_matches_strided_sieve_across_periods(N):
    # one period short of, at and past the wheel's whole copies
    for k in (2, 3, 5):
        assert np.array_equal(zm.sieve_dk(k, N).values, _sieve_dk_strided(k, N)), (k, N)


def test_dk_wheel_against_trial_division_around_periods():
    N = 2 * _P + 40
    for k in (2, 3, 4):
        table = zm.sieve_dk(k, N).values
        for centre in (_P, 2 * _P):
            for n in range(centre - 40, centre + 41):
                assert table[n - 1] == _dk_by_trial_division(k, n), (k, n)


def _least_prime_above(m: int) -> int:
    q = m + 1
    while any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        q += 1
    return q


@pytest.mark.parametrize(
    "N", [48, 49, 50, 63, 64, 65, 120, 121, 122, 168, 169, 170, 1447, 1448, 1449,
          999_999, 10**6, 10**6 + 1, _P - 1, _P, _P + 1, 2 * _P + 1])
def test_dk_tightest_non_smooth_entries(N):
    # n = s q with q the least unsieved prime and s = N // q as large as it
    # goes: the largest smooth part beside a prime > sqrt(N), the entries
    # whose counter comes closest to the smoothness threshold.  n = 64 and
    # 1448 end the first two threshold blocks, where the margin is least:
    # L(1435 = 5 7 41) = 40 against t = 42
    q = _least_prime_above(max(7, math.isqrt(N)))
    ns = [q * s for s in range(max(1, N // q - 3), N // q + 1)]
    for k in range(2, 7):
        table = zm.sieve_dk(k, N).values
        for n in ns:
            assert table[n - 1] == _dk_by_trial_division(k, n), (k, N, n)
    assert np.array_equal(zm.sieve_dk(3, N).values, _sieve_dk_strided(3, N)), N


@pytest.mark.parametrize("N", [2**20 - 1, 2**20, 3 * 2**18, _P, 2 * _P + 1, 10**6])
def test_dk_smooth_entries_with_largest_omega(N):
    # 2^a, 3 2^a and 2^a 3^b just below N: the smooth n with the most prime
    # factors, whose counter falls furthest below 8 log2 n
    ns = {1 << (N.bit_length() - 1), 3 << ((N // 3).bit_length() - 1)}
    ns |= {2**a * 3**b for a in range(21) for b in range(14) if N // 2 < 2**a * 3**b <= N}
    for k in range(2, 9):
        table = zm.sieve_dk(k, N).values
        for n in sorted(ns):
            assert table[n - 1] == _dk_by_trial_division(k, n), (k, N, n)


def test_sieve_counter_capacity_at_the_budget():
    # the uint16 counter x = 256 c + 255 - L, read as (x + t) >> 8, holds for
    # every N up to the budget; a larger budget must revisit its layout
    budget = zm.arith._SIEVE_BUDGET
    low = (budget**8).bit_length() - 1  # floor(8 log2 N) bounds every L(n)
    assert low == 212 and low <= 255  # the low byte never borrows
    big = [int(p) for p in prime_sieve(100) if p >= 11]
    c = next(j for j in range(len(big)) if math.prod(big[: j + 1]) > budget)
    assert c == 6  # at most 6 distinct primes >= 11 divide any n <= budget
    t = (budget**7).bit_length() - 1  # the largest block threshold
    assert 255 + t < 512  # (255 - L + t) >> 8 is [L < t]
    assert 256 * c + 255 + t < 2**16  # x + t never wraps


def test_sieve_holds_ten_bytes_a_value():
    # the int64 table and the uint16 counter, beside buffers of one block
    # (2^16 entries); no third table-sized array
    import tracemalloc

    N = 2 * 10**6
    tracemalloc.start()
    try:
        zm.sieve_dk(3, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 10 * N <= peak < 10 * N + 2**21


def test_dk_random_sample_against_trial_division(rng):
    N = 10**5
    ns = rng.integers(1, N + 1, size=500)
    for k in range(1, 7):
        table = zm.sieve_dk(k, N)
        for n in map(int, ns):
            assert table.values[n - 1] == _dk_by_trial_division(k, n), (k, n)


def test_dk_prime_values():
    for k in (2, 3, 6):
        t = zm.sieve_dk(k, 100)
        for p in (2, 3, 53, 97):
            assert t.values[p - 1] == k


def test_dk_multiplicative(rng):
    t = zm.sieve_dk(3, 10**5)
    pairs = 0
    while pairs < 2000:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 10**5 // m))
        if math.gcd(m, n) == 1:
            assert t.values[m * n - 1] == t.values[m - 1] * t.values[n - 1]
            pairs += 1


def test_dk_prefix_sums_nondecreasing(d2_1e6):
    pref = d2_1e6.prefix_sums()
    assert np.all(np.diff(pref) > 0)
    # jump at n equals d(n)
    assert pref[99] - pref[98] == d2_1e6.values[99]


def test_prefix_sums_reject_a_partial_sum_past_float_range():
    # the last partial sum, 1, is exact; the first, 2^53 + 1, is not
    t = zm.CoeffTable("r", 2, np.array([2**53 + 1, -(2**53)], dtype=np.int64))
    with pytest.raises(CapacityError):
        t.prefix_sums()
    t = zm.CoeffTable("r", 2, np.array([2**53 - 1, -(2**53)], dtype=np.int64))
    assert t.prefix_sums().tolist() == [2**53 - 1, -1]


def test_sieve_rejects_bad_args():
    with pytest.raises(ValueError):
        zm.sieve_dk(0, 10)
    with pytest.raises(CapacityError):
        zm.sieve_dk(2, 10**9)


def test_sieve_int64_post_check(monkeypatch):
    # the exact check on the finished table: d(48) = 10, d(60) = 12
    monkeypatch.setattr(zm.arith, "_INT64_SAFE", 12)
    assert int(zm.sieve_dk(2, 59).values.max()) == 10
    with pytest.raises(CapacityError, match="int64 budget"):
        zm.sieve_dk(2, 60)


def test_sieve_rejects_k_beyond_int32():
    assert zm.sieve_dk(2**31 - 1, 2).values.tolist() == [1, 2**31 - 1]
    with pytest.raises(CapacityError):
        zm.sieve_dk(2**31, 2)


def test_prime_sieve_matches_trial_division():
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for nmax in range(2001):
        got = prime_sieve(nmax)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in primes if p <= nmax], nmax
    big = prime_sieve(10**6)
    assert len(big) == 78498 and big.dtype == np.int64 and big[-1] == 999983


# ---------------------------------------------------------------------------
# Dirichlet convolution
# ---------------------------------------------------------------------------

def test_ones_convolved_is_d2():
    ones = zm.sieve_dk(1, 200)
    conv = zm.dirichlet_convolve(ones, ones)
    assert np.array_equal(conv.values, zm.sieve_dk(2, 200).values)


def test_convolution_identity():
    a = zm.sieve_dk(3, 50)
    delta = zm.CoeffTable("delta1", 50, np.array([1] + [0] * 49, dtype=np.int64))
    assert np.array_equal(zm.dirichlet_convolve(a, delta).values, a.values)


def test_d2_convolved_with_ones_is_d3():
    N = 300
    ones = zm.sieve_dk(1, N)
    conv = zm.dirichlet_convolve(zm.sieve_dk(2, N), ones)
    assert np.array_equal(conv.values, zm.sieve_dk(3, N).values)


def test_convolution_associative(rng):
    N = 64
    mk = lambda: zm.CoeffTable("r", N, rng.integers(-9, 10, N).astype(np.int64))
    a, b, c = mk(), mk(), mk()
    left = zm.dirichlet_convolve(zm.dirichlet_convolve(a, b), c)
    right = zm.dirichlet_convolve(a, zm.dirichlet_convolve(b, c))
    assert np.array_equal(left.values, right.values)


def test_convolution_length_mismatch():
    with pytest.raises(ValueError):
        zm.dirichlet_convolve(zm.sieve_dk(1, 10), zm.sieve_dk(1, 11))


def _convolve_per_d(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """The plain loop: one strided pass for every d with a(d) != 0."""
    N = len(av)
    out = np.zeros(N, dtype=np.result_type(av, bv))
    for d in range(1, N + 1):
        if av[d - 1]:
            out[d - 1:: d] += av[d - 1] * bv[: N // d]
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4, 99, 100, 101, 9973, 15000])
def test_convolution_bytes_match_per_d_loop(N, rng):
    # random tables with zero and negative entries, in both dtypes; the
    # quotient blocks must keep every out[n]'s ascending-d order
    ints = rng.integers(-1000, 1000, N)
    floats = rng.standard_normal(N) * 10.0 ** rng.integers(-8, 8, N)
    for av, bv in ((ints, rng.integers(-1000, 1000, N)), (floats, rng.standard_normal(N))):
        av[rng.random(N) < 0.3] = 0
        got = zm.dirichlet_convolve(zm.CoeffTable("a", N, av), zm.CoeffTable("b", N, bv)).values
        ref = _convolve_per_d(av, bv)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_convolution_promotes_to_float():
    a = zm.sieve_dk(1, 20)
    b = zm.CoeffTable("f", 20, np.ones(20) * 0.5)
    out = zm.dirichlet_convolve(a, b)
    assert out.values.dtype.kind == "f"


# ---------------------------------------------------------------------------
# Stieltjes constants and P_{k-1}
# ---------------------------------------------------------------------------

def test_stieltjes_known_digits(gammas):
    assert gammas[0] == pytest.approx(0.577215664902, abs=5e-13)
    assert gammas[1] == pytest.approx(-0.072815845484, abs=5e-13)
    assert gammas[2] == pytest.approx(-0.009690363193, abs=5e-13)


def test_stieltjes_vs_zeta_limit(gammas):
    # zeta(1+eps) - 1/eps -> gamma_0 (eps as actually represented in double)
    s = 1.0 + 1e-6
    eps = s - 1.0
    z = zm.zeta_em(complex(s, 0), 1e-8).value.real  # the estimate here is 2.7e-9
    assert abs((z - 1 / eps) - gammas[0]) < 1e-6


def test_stieltjes_rejects_large_j():
    with pytest.raises(PrecisionError):
        zm.stieltjes_constants(21)


# float.hex of stieltjes_constants(20) and main_poly(k).coeffs, k = 1..10, from an
# independent Euler-Maclaurin sum for gamma_j (50 digits, cut M = 80)
_GAMMA_HEX = [
    "0x1.2788cfc6fb619p-1", "-0x1.2a40f2afba4a2p-4", "-0x1.3d88a87ff7c46p-7",
    "0x1.0d333f554cdb2p-9", "0x1.30ca78c3ba214p-9", "0x1.9fee1ecdb69a5p-11",
    "-0x1.f4bc50f505e37p-13", "-0x1.14739b917ad1ap-11", "-0x1.713a649eafd17p-12",
    "-0x1.2086373426595p-15", "0x1.ae9d3731cecc7p-13", "0x1.1b4f154ec33afp-12",
    "0x1.5ecbf5fbe3c63p-13", "-0x1.ccc426b42de9fp-16", "-0x1.b6be5e08b9708p-13",
    "-0x1.293d09aa27747p-12", "-0x1.a2cb6f37b6ab8p-13", "0x1.b8db03d88a101p-16",
    "0x1.424c942c56700p-12", "0x1.0808c79b7ee91p-11", "0x1.e8ff2586ba16dp-12",
]
_MAIN_POLY_HEX = {
    1: ["0x1.0000000000000p+0"],
    2: ["0x1.3c467e37db0c8p-3", "0x1.0000000000000p+0"],
    3: ["0x1.f2019f47f1aa0p-2", "0x1.769a6f54f224cp-1", "0x1.0000000000000p-1"],
    4: [
        "0x1.17533af1dda5cp-2", "0x1.f6830229f9dacp-1", "0x1.4f119f8df6c32p-1",
        "0x1.5555555555555p-3",
    ],
    5: [
        "0x1.64d66c4dd5758p-2", "0x1.dc093f59ee100p-1", "0x1.cf4dc0567e4aap-1",
        "0x1.41e404f64da29p-2", "0x1.5555555555555p-5",
    ],
    6: [
        "0x1.26fa2ff14a060p-2", "0x1.01e7ebf7608ccp+0", "0x1.0dae551fde527p+0",
        "0x1.fb18c3b9ab017p-2", "0x1.a466f4e34c187p-4", "0x1.1111111111111p-7",
    ],
    7: [
        "0x1.340a3320d1c04p-2", "0x1.02025e7654f1ep+0", "0x1.36bd332185760p+0",
        "0x1.55082c7958f70p-1", "0x1.7d17e59c5686bp-3", "0x1.9f2183d9d53ebp-6",
        "0x1.6c16c16c16c17p-10",
    ],
    8: [
        "0x1.1f17dd17d8098p-2", "0x1.09ea6a71584c8p+0", "0x1.56b9f2695f2e2p+0",
        "0x1.ae78be5981fe1p-1", "0x1.21bdf6b186122p-2", "0x1.ada7d5e2acaacp-5",
        "0x1.494b1c20af79bp-8", "0x1.a01a01a01a01ap-13",
    ],
    9: [
        "0x1.1d9401765bbc4p-2", "0x1.0c79378a54c0ep+0", "0x1.755bfb129fb1cp+0",
        "0x1.023a453a6c5d5p+0", "0x1.9145441e0796dp-2", "0x1.6c9f34751b2f1p-4",
        "0x1.80c9a3c98506fp-7", "0x1.b46161ede26c8p-11", "0x1.a01a01a01a01ap-16",
    ],
    10: [
        "0x1.1422a9efaa9c4p-2", "0x1.10a76098e16f4p+0", "0x1.8ff48f09d7f74p+0",
        "0x1.2c69052ef45f5p+0", "0x1.049d7470984ebp-1", "0x1.13e52d86b5d9ap-3",
        "0x1.68f980048330ep-6", "0x1.1cbe65701bd35p-9", "0x1.f06cecdafc4dfp-14",
        "0x1.71de3a556c734p-19",
    ],
}


def test_stieltjes_constants_are_pinned_bit_for_bit():
    assert [g.hex() for g in zm.stieltjes_constants(20)] == _GAMMA_HEX
    assert zm.stieltjes_constants(5) == [float.fromhex(h) for h in _GAMMA_HEX[:6]]


def test_main_poly_is_pinned_bit_for_bit():
    for k, coeffs in _MAIN_POLY_HEX.items():
        assert [float(c).hex() for c in zm.main_poly(k).coeffs] == coeffs


def test_main_poly_asks_for_gamma_0_to_k_minus_2(monkeypatch):
    # the u^(k-1) coefficient it reads takes no Laurent term past u^(k-1)
    asked = []

    def spy(J):
        asked.append(J)
        return stieltjes_constants(J)

    monkeypatch.setattr(zm.arith, "stieltjes_constants", spy)
    for k in range(1, 11):
        asked.clear()
        zm.main_poly(k)
        assert asked == ([] if k == 1 else [k - 2])


def test_main_poly_k1():
    p = zm.main_poly(1)
    assert p.coeffs == pytest.approx([1.0])


def test_main_poly_k2_classical(gammas):
    p = zm.main_poly(2)
    assert p.coeffs[1] == pytest.approx(1.0, abs=1e-12)
    assert p.coeffs[0] == pytest.approx(2 * gammas[0] - 1, abs=1e-12)
    assert p.coeffs[0] == pytest.approx(0.154431330, abs=5e-10)


def test_main_poly_k3_classical(gammas):
    # residue of zeta^3 x^s/s at 1: leading 1/2, then 3g-1, then 3g^2-3g_1-3g+1
    g0, g1 = gammas[0], gammas[1]
    p = zm.main_poly(3)
    assert p.coeffs[2] == pytest.approx(0.5, abs=1e-12)
    assert p.coeffs[1] == pytest.approx(3 * g0 - 1, abs=1e-11)
    assert p.coeffs[0] == pytest.approx(3 * g0**2 - 3 * g1 - 3 * g0 + 1, abs=1e-11)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_main_poly_leading_coefficient(k):
    p = zm.main_poly(k)
    assert p.coeffs[-1] == pytest.approx(1 / math.factorial(k - 1), rel=1e-10)
    assert len(p.coeffs) == k


# ---------------------------------------------------------------------------
# Delta_k and mean squares
# ---------------------------------------------------------------------------

def test_delta_1_is_sawtooth():
    # Delta_1(x) = D_1(x) - x P_0(log x) = floor(x) - x
    D = zm.sieve_dk(1, 10).prefix_sums()
    p = zm.main_poly(1)
    assert D[1] - 2.5 * p(math.log(2.5)) == pytest.approx(-0.5)


def test_delta_2_at_100(d2_1e6):
    # D_2(100) by brute-force divisor counting
    D100 = sum(sum(1 for d in range(1, n + 1) if n % d == 0) for n in range(1, 101))
    assert D100 == 482
    p = zm.main_poly(2)
    main = 100 * p(math.log(100))
    assert main == pytest.approx(475.960, abs=5e-3)
    assert d2_1e6.prefix_sums()[99] == D100


def test_mean_square_k1_exact():
    ones = zm.sieve_dk(1, 500)
    curve = zm.delta_mean_square(1, [10, 100, 500], ones, zm.main_poly(1))
    for X, v in curve.cumulative_ms:
        assert v == pytest.approx((X - 1) / 3, rel=1e-10)


def test_mean_square_matches_dense_quadrature_oracle():
    # independent oracle: midpoint rule, 400 points per unit interval
    # (midpoint error ~ (1/400)^2 per interval bounds the tolerance)
    N = 200
    t = zm.sieve_dk(2, N)
    p = zm.main_poly(2)
    pref = np.cumsum(t.values)
    total = 0.0
    for n in range(1, N):
        y = n + (np.arange(400) + 0.5) / 400
        delta = pref[n - 1] - y * p(np.log(y))
        total += np.mean(delta**2)
    curve = zm.delta_mean_square(2, [N], t, p)
    assert curve.cumulative_ms[0][1] == pytest.approx(total, rel=3e-5)


def test_mean_square_cumulative_nondecreasing(d2_1e6):
    Xs = np.geomspace(100, 10**5, 25)
    curve = zm.delta_mean_square(2, Xs, d2_1e6, zm.main_poly(2))
    vals = [v for _, v in curve.cumulative_ms]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_mean_square_partial_interval():
    ones = zm.sieve_dk(1, 10)
    curve = zm.delta_mean_square(1, [2.5], ones, zm.main_poly(1))
    # int_1^2 {y-1}^2 style sawtooth + partial: int_2^2.5 (2-y)^2 dy
    expect = 1 / 3 + ((0.5) ** 3) / 3
    assert curve.cumulative_ms[0][1] == pytest.approx(expect, rel=1e-12)


def test_mean_square_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="non-empty"):
        zm.delta_mean_square(1, [], zm.sieve_dk(1, 10), zm.main_poly(1))


def test_mean_square_rejects_a_k_that_is_not_the_inputs():
    d2, p2 = zm.sieve_dk(2, 1000), zm.main_poly(2)
    with pytest.raises(ValueError, match="k=3, but the polynomial has k=2"):
        zm.delta_mean_square(3, [100.0], d2, p2)
    with pytest.raises(ValueError, match="the table d_k has {'k': 2}"):
        zm.delta_mean_square(3, [100.0], d2, zm.main_poly(3))
    # a table without a k (rankin_c, a convolution) is checked against the polynomial only
    c = zm.CoeffTable("rankin_c", 1000, d2.values.astype(np.float64))
    assert zm.delta_mean_square(1, [100.0], c, zm.SummatoryPolynomial(1, np.array([2.0])))
    conv = zm.dirichlet_convolve(zm.sieve_dk(1, 1000), zm.sieve_dk(1, 1000))
    assert (zm.delta_mean_square(2, [100.0], conv, p2).cumulative_ms
            == zm.delta_mean_square(2, [100.0], d2, p2).cumulative_ms)
