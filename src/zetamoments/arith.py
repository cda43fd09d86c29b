"""Exact multiplicative-function machinery.

Builds coefficient tables for the generalized divisor functions d_k(n)
(the number of ordered factorizations of n into k factors), performs exact
Dirichlet convolution, takes the Stieltjes constants from mpmath.stieltjes,
and builds the summatory main-term polynomials P_{k-1} with

    D_k(x) = sum_{n<=x} d_k(n) = x P_{k-1}(log x) + Delta_k(x),

and the cumulative mean square  int_1^X Delta_k(y)^2 dy  of the error term.

All d_k tables are exact integers (int64, with an explicit capacity guard);
convolutions of integer tables stay integer.  `sieve_dk` holds 10 bytes a
value: the table and a uint16 counter, on which the first powers of the
primes >= 11 are sieved without touching the table (see its docstring).
A Dirichlet convolution to N adds a(d) b(j) into out[dj] as one strided pass
per d <= sqrt(N), then one fancy-indexed pass per block of the d > sqrt(N)
with equal quotient q = N//d (j <= q): about 2 sqrt(N) passes, not N.  No
index repeats within a block, since d2/d1 < (q+1)/q <= j1/j2 there, and the
blocks run in ascending d, so every out[n] still adds its terms in ascending
d and float results are bit-identical to a plain loop over d.  P_{k-1} is
obtained as the residue at s=1 of zeta(s)^k x^s / s, expanded in powers of
log x from the Laurent series of zeta at 1 to order k-1, which takes the
Stieltjes constants gamma_0..gamma_{k-2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "CoeffTable",
    "SummatoryPolynomial",
    "DeltaCurve",
    "CapacityError",
    "PrecisionError",
    "sieve_dk",
    "dirichlet_convolve",
    "stieltjes_constants",
    "main_poly",
    "delta_mean_square",
    "prime_sieve",
]

# int64 capacity guard: keep a couple of bits of headroom below 2^63
_INT64_SAFE = 1 << 61

# Default memory budget for sieves (values), in entries
_SIEVE_BUDGET = 10**8

# sieve_dk's wheel: prime -> exponent, and the period prod p^e = 151200
_WHEEL = {2: 5, 3: 3, 5: 2, 7: 1}
_WHEEL_PERIOD = math.prod(p**e for p, e in _WHEEL.items())
# entries per block of sieve_dk's last step, which stays in cache
_BLOCK = 1 << 16


class CapacityError(Exception):
    """A table request exceeds the configured size/overflow budget."""


class PrecisionError(Exception):
    """A numerical routine cannot reach the requested accuracy."""


@dataclass(frozen=True)
class CoeffTable:
    """A coefficient table a(1..N), the universal carrier for sieves.

    values[i] is the coefficient of n = i+1.  Integer tables are exact
    (int64); real tables are float64.  ``label`` records provenance
    ("d_k", "tau", "a_tilde", "a_tilde_sq_conv", "rankin_c", or a
    convolution expression), ``generator_params`` the named parameters
    (e.g. {"k": 3}).
    """

    label: str
    N: int
    values: np.ndarray
    generator_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.values) != self.N:
            raise ValueError(f"values length {len(self.values)} != N {self.N}")

    @property
    def is_integer(self) -> bool:
        return self.values.dtype.kind == "i"

    def prefix_sums(self) -> np.ndarray:
        """Exact summatory function D(n) = sum_{m<=n} a(m) as float64.

        An integer table raises CapacityError if any partial sum, not just
        the last, leaves the exact float64 range |D| < 2^53."""
        c = np.cumsum(self.values, dtype=np.int64 if self.is_integer else np.float64)
        if self.is_integer and max(int(c.max()), -int(c.min())) >= 2**53:
            raise CapacityError("prefix sums exceed exact float64 range")
        return c.astype(np.float64)


@dataclass(frozen=True)
class SummatoryPolynomial:
    """P_{k-1}(u) = sum_j coeffs[j] u^j with u = log x.

    Leading coefficient is 1/(k-1)!.
    """

    k: int
    coeffs: np.ndarray  # c_0 .. c_{k-1}

    def __call__(self, u):
        return np.polyval(self.coeffs[::-1], u)


@dataclass(frozen=True)
class DeltaCurve:
    """The cumulative mean square of the error term Delta_k on a grid of X."""

    k: int
    cumulative_ms: list  # (X, int_1^X Delta_k(y)^2 dy)


def prime_sieve(nmax: int) -> np.ndarray:
    """Primes <= nmax by Eratosthenes over the odd numbers (odd[i] is 2i + 1).

    odd[0] stands for 1 and is kept set, so its slot in the one index array
    becomes the prime 2."""
    if nmax < 2:
        return np.array([], dtype=np.int64)
    odd = np.ones((nmax + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(nmax) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2:: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def sieve_dk(k: int, N: int) -> CoeffTable:
    """Exact d_k(n) for 1 <= n <= N.

    d_k is multiplicative with d_k(p^a) = C(a+k-1, k-1).  A vectorized sieve
    walks the prime powers p^a, p <= sqrt(N): each multiple of p^a has its
    value multiplied by k for a = 1, and by (a+k-1) then divided by a for
    a >= 2, exactly (C(a+k-2, a-1) * (a+k-1) = a * C(a+k-1, a)), so
    valuation v gives C(v+k-1, v).

    Beside the int64 table sits one uint16 counter per value, x(n) =
    256 c(n) + 255 - L(n), 10 bytes a value in all.  L(n) sums l(p) =
    floor(8 log2 p) over the prime powers p^a | n found so far, and c(n)
    counts the primes p >= 11 with v_p(n) = 1, whose factor k is deferred:
    the first-power pass of such a prime only adds 256 - l(p) to x, a
    strided pass over 2 bytes a value that leaves the table alone.  Its
    p^2 pass takes the count back (x -= 256 + l(p)) and multiplies the
    table by d_k(p^2) = k(k+1)/2; the higher powers go on as above.
    L(n) <= 8 log2(1e8) < 213 and c(n) <= 6 (11*13*...*31 > 1e8), so the
    low byte never borrows and x + t never wraps.

    One sequential pass at the end multiplies the table by k^e(n), with
    e(n) = c(n) + [n has a prime factor q > sqrt(N)]: the primes left
    unsieved, all > 7 too.  n <= N has at most one such q, as q^2 > N.
    Since floor(y) > y - 1 and Omega(n) <= log2 n,
      * if n has no such q, 2^L(n) > n^8 / 2^Omega(n) >= n^7 (n >= 2);
      * if it has one, L(n) saw only n/q < sqrt(n): 2^L(n) <= (n/q)^8 < n^4.
    So over a block of n in [lo, hi], the threshold t = floor(log2 lo^7)
    decides exactly when hi^4 <= 2^t: the first kind has 2^L >= lo^7 >=
    2^t, so L >= t, the second 2^L < n^4 <= 2^t, so L < t.  Then e(n) =
    (x(n) + t) >> 8, as 255 - L + t < 512.  Every n < 11 is 7-smooth and
    owes nothing.

    The small prime powers, whose strided passes would each touch every
    cache line of the table, are sieved once over one wheel period
    P = 2^5 3^3 5^2 7 (the whole table when N < P): the factor that
    p^a, a <= e_p, contributes to n depends only on min(v_p(n), e_p), a
    function of n mod p^e_p, so that period repeats exactly.  It is copied
    over the table and the counter by doubling slices in place, and the
    higher powers of the wheel primes continue from a = e_p + 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > _SIEVE_BUDGET:
        raise CapacityError(f"N={N} exceeds sieve budget {_SIEVE_BUDGET}")
    if k >= 1 << 31:
        # from here on d_k(4) = k(k+1)/2 passes the int64 budget
        raise CapacityError(f"k={k} exceeds the sieve's bound k < 2^31")
    # largest d_k value is at most k^log2(N); demand headroom below 2^61
    if N > 2 and k ** min(60, int(math.log2(N)) + 1) >= _INT64_SAFE and k > 1:
        # loose a priori guard; the exact post-check below still runs
        if k > 16:
            raise CapacityError(f"d_{k} at N={N} may overflow int64")
    if k == 1:
        return CoeffTable("d_k", N, np.ones(N, dtype=np.int64), {"k": 1})
    period = min(N, _WHEEL_PERIOD)
    vals = np.empty(N, dtype=np.int64)  # filled from the first period on
    x = np.empty(N, dtype=np.uint16)
    vals[:period] = 1
    x[:period] = 255

    def sieve_powers(p: int, a: int, top: int, stop: int) -> None:
        # the passes of p^a, p^(a+1), ... up to p^top, over [:stop]
        lp = (p**8).bit_length() - 1  # floor(8 log2 p), exactly
        deferred = p not in _WHEEL
        pa = p**a
        while a <= top and pa <= stop:
            sl = vals[pa - 1: stop: pa]
            xs = x[pa - 1: stop: pa]
            if a == 1 and deferred:
                xs += 256 - lp
            elif a == 2 and deferred:
                sl *= k * (k + 1) // 2
                xs -= 256 + lp
            else:
                if a == 1:
                    sl *= k
                else:
                    sl *= a + k - 1
                    sl //= a
                xs -= lp
            a += 1
            pa *= p

    for p, e in _WHEEL.items():
        sieve_powers(p, 1, e, period)
    m = period
    while m < N:  # vals[:m] holds whole periods; double it
        c = min(m, N - m)
        vals[m: m + c] = vals[:c]
        x[m: m + c] = x[:c]
        m += c
    for p in map(int, prime_sieve(math.isqrt(N))):
        sieve_powers(p, _WHEEL.get(p, 0) + 1, N, N)
    # the deferred factors k^e(n), a block at a time, from n = 11 on; the
    # powers stop at the largest count plus one, so a large k at small N fits
    kpow = np.array([k**e for e in range((int(x.max()) >> 8) + 2)], dtype=np.int64)
    f = np.empty(min(N, _BLOCK), dtype=np.int64)
    lo = 11
    while lo <= N:
        t = (lo**7).bit_length() - 1
        hi = min(N, lo + _BLOCK - 1, math.isqrt(math.isqrt(1 << t)))  # hi^4 <= 2^t
        xb = x[lo - 1: hi]
        xb += t
        xb >>= 8
        fb = f[: len(xb)]
        np.take(kpow, xb, out=fb, mode="clip")
        vals[lo - 1: hi] *= fb
        lo = hi + 1
    if int(vals.max()) >= _INT64_SAFE:
        raise CapacityError(f"d_{k} values at N={N} exceed the int64 budget")
    return CoeffTable("d_k", N, vals, {"k": k})


def dirichlet_convolve(a: CoeffTable, b: CoeffTable) -> CoeffTable:
    """(a*b)(n) = sum_{d|n} a(d) b(n/d), exact for integer inputs.

    Integer (x) integer stays int64 with an overflow pre-check; any real
    operand promotes the result to float64.  About 2 sqrt(N) NumPy passes
    (see the module docstring), and every out[n] adds its terms in
    ascending d, so float results do not depend on the blocking.
    """
    if a.N != b.N:
        raise ValueError(f"length mismatch: {a.N} != {b.N}")
    N = a.N
    integer = a.is_integer and b.is_integer
    if integer:
        amax, bmax = int(np.abs(a.values).max()), int(np.abs(b.values).max())
        # bound: |out| <= amax*bmax*d(n); max divisor count below 1e8 is 768
        if amax * bmax > _INT64_SAFE // 768:
            raise CapacityError("integer convolution would risk int64 overflow")
        out = np.zeros(N, dtype=np.int64)
        av = a.values
        bv = b.values
    else:
        out = np.zeros(N, dtype=np.float64)
        av = a.values.astype(np.float64)
        bv = b.values.astype(np.float64)
    r = math.isqrt(N)
    for d in range(1, r + 1):
        ad = av[d - 1]
        if ad:
            out[d - 1:: d] += ad * bv[: N // d]
    big = r + 1 + np.flatnonzero(av[r:])  # the d > sqrt(N) with a(d) != 0
    quot = N // big
    starts = np.flatnonzero(np.diff(quot, prepend=0))  # where each quotient block begins
    for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [len(big)]):
        ds, q = big[lo:hi], int(quot[lo])
        out[ds[:, None] * np.arange(1, q + 1) - 1] += av[ds - 1, None] * bv[:q]
    label = f"({a.label})*({b.label})"
    return CoeffTable(label, N, out, {"left": a.label, "right": b.label})


# ---------------------------------------------------------------------------
# Stieltjes constants and the main-term polynomial
# ---------------------------------------------------------------------------

def stieltjes_constants(J: int) -> list:
    """gamma_0..gamma_J as floats: zeta(1+u) = 1/u + sum_j (-1)^j gamma_j u^j / j!.

    From mpmath.stieltjes at 30 digits, which leaves every float correctly
    rounded for j <= 20 (the same floats as at 60 digits).
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    if J > 20:
        raise PrecisionError("J > 20 is outside the configured desk range")
    import mpmath as mp

    with mp.workdps(30):
        return [float(mp.stieltjes(j)) for j in range(J + 1)]


def _laurent_zeta_pow_k(k: int, order: int, gammas: Sequence) -> list:
    """Taylor coefficients (mpf) of (u*zeta(1+u))^k / (1+u) up to u^order."""
    import mpmath as mp

    # u*zeta(1+u) = 1 + sum_{j>=1} (-1)^(j-1) gamma_{j-1} u^j / (j-1)!
    a = [mp.mpf(1)] + [
        (-1) ** (j - 1) * mp.mpf(gammas[j - 1]) / mp.factorial(j - 1)
        for j in range(1, order + 1)
    ]

    def mul(x, y):
        out = [mp.mpf(0)] * (order + 1)
        for i, xi in enumerate(x):
            if xi:
                for j in range(0, order + 1 - i):
                    out[i + j] += xi * y[j]
        return out

    p = [mp.mpf(1)] + [mp.mpf(0)] * order
    for _ in range(k):
        p = mul(p, a)
    inv = [mp.mpf((-1) ** j) for j in range(order + 1)]  # 1/(1+u)
    return mul(p, inv)


def main_poly(k: int) -> SummatoryPolynomial:
    """P_{k-1} as the residue at s=1 of zeta(s)^k x^s / s.

    Writing s = 1+u, the residue is x * [u^{k-1}] (u zeta(1+u))^k e^{u log x}
    / (1+u), i.e. P_{k-1}(L) = sum_m b_{k-1-m} L^m / m! with b_i the Taylor
    coefficients of (u zeta(1+u))^k/(1+u).  Only b_0..b_{k-1} enter, and the
    u^i coefficient of a product of power series depends only on its
    factors' coefficients up to u^i, so the expansion at order k-1, from
    gamma_0..gamma_{k-2}, is exact: a longer one adds the same terms in the
    same order and gives the same floats.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 10:
        raise PrecisionError("k > 10 is outside the configured desk range")
    import mpmath as mp

    b = _laurent_zeta_pow_k(k, k - 1, stieltjes_constants(k - 2) if k > 1 else [])
    coeffs = [float(b[k - 1 - m] / mp.factorial(m)) for m in range(k)]
    return SummatoryPolynomial(k, np.array(coeffs))


# ---------------------------------------------------------------------------
# Error terms and mean squares
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes on [0,1], fixed order 8 (deterministic mean squares)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_X = (_GL_X + 1.0) / 2.0
_GL_W = _GL_W / 2.0


def delta_mean_square(
    k: int,
    Xs: Sequence[float],
    table: CoeffTable,
    poly: SummatoryPolynomial,
) -> DeltaCurve:
    """Cumulative mean square int_1^X Delta_k(y)^2 dy on the grid Xs.

    Between consecutive integers Delta_k(y) = D_k(n) - y P_{k-1}(log y) is
    smooth, so each unit interval is integrated with fixed-order Gauss
    quadrature (order 8, exact for the polynomial part and far below the
    sampling error otherwise); partial end intervals are rescaled.
    """
    Xs = sorted(float(X) for X in Xs)
    if not Xs or Xs[0] < 1:
        raise ValueError("X grid must be non-empty and start at >= 1")
    if k != poly.k or k != table.generator_params.get("k", k):
        raise ValueError(f"k={k}, but the polynomial has k={poly.k} and the table "
                         f"{table.label} has {table.generator_params}")
    if Xs[-1] > table.N:
        raise ValueError(f"max X {Xs[-1]} exceeds table length {table.N}")
    pref = table.prefix_sums()
    nmax = int(Xs[-1])
    ns = np.arange(1, nmax + 1, dtype=np.float64)

    def unit_integrals(lo: np.ndarray, width: np.ndarray, dvals: np.ndarray):
        # integral over [lo, lo+width) of (D - y P(log y))^2 dy, vectorized
        y = lo[:, None] + width[:, None] * _GL_X[None, :]
        main = y * np.polyval(poly.coeffs[::-1], np.log(y))
        dlt = dvals[:, None] - main
        return width * ((dlt * dlt) @ _GL_W)

    # whole unit intervals [n, n+1) for n = 1..nmax-1 (D constant = D(n))
    whole = unit_integrals(ns[:-1], np.ones(nmax - 1), pref[: nmax - 1])
    cum = np.concatenate([[0.0], np.cumsum(whole)])  # cum[i] = int_1^{1+i}

    cumulative = []
    for X in Xs:
        nfl = int(X)
        val = cum[min(nfl, nmax) - 1]
        if X > nfl and nfl <= nmax:
            frac = unit_integrals(
                np.array([float(nfl)]), np.array([X - nfl]), pref[nfl - 1: nfl]
            )
            val += float(frac[0])
        cumulative.append((X, float(val)))
    return DeltaCurve(k, cumulative)
