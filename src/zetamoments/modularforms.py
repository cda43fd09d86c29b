"""Exact coefficients of the weight-12 cusp form and the Rankin-Selberg data.

Ramanujan tau via the eta product: tau(n) is the coefficient of q^n in
q prod_{m>=1} (1-q^m)^24.  The cube of the Euler product E = prod (1-q^m) is
read off Jacobi's identity E^3 = sum (-1)^m (2m+1) q^{m(m+1)/2}, then squared
three times: E^24 = ((E^3)^2)^2)^2.  Every squaring is an exact convolution by
float FFT on balanced 11-bit limbs whose rounding is certified (_square), so
the table is exact arbitrary-precision integers; the limb products are
recombined in int64 runs bounded by their exact maxima, joined in Python ints.

Every tau table is certified against Deligne's bound tau(n)^2 <= d(n)^2 n^11
before it is normalized.  The check runs in float64 with a margin of 64 eps,
four times its worst rounding, so a pass in floats implies the exact bound;
each n inside the margin (on real tables only n = 1) is settled in exact
integer arithmetic.

Derived tables: the Deligne-normalized a~(n) = tau(n) n^{-11/2}, the
self-convolution a~*a~ (coefficients of F^2), and the Rankin-Selberg
coefficients c_n = sum_{d^2 m = n} a~(m)^2 with

    sum_{n<=x} c_n = A x + Delta(x, phi).

A is estimated by Cesaro smoothing averaged over the top three dyadic cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import (CapacityError, CoeffTable, PrecisionError, SummatoryPolynomial,
                    delta_mean_square, dirichlet_convolve, sieve_dk)

__all__ = [
    "TauTable",
    "DeligneBoundError",
    "tau_table",
    "normalize",
    "self_convolve",
    "rankin_c",
    "rankin_A",
    "delta_phi_mean_square",
]

_TAU_BUDGET = 2 * 10**5
_LIMB_BITS = 11
_EPS = 2.0**-53  # float64 unit roundoff
_BETA = 2.0**-51  # assumed relative error of numpy's FFT twiddle factors
_RUN_LIMIT = 1 << 62  # bound on a run of limb sums recombined in int64


class DeligneBoundError(Exception):
    """|a~(n)| > d(n): the tau table is corrupt."""


@dataclass(frozen=True)
class TauTable:
    """Exact tau(1..N) as arbitrary-precision integers."""

    N: int
    tau: list
    # FFT squaring ("e3^2", "e6^2", "e12^2") -> certified (a-priori bound, observed deviation)
    rounding: dict = field(default_factory=dict, compare=False)


def _square(a: np.ndarray) -> tuple:
    """Exact truncated square sum_{i+j=n} a_i a_j, n <= M = len(a) - 1, by FFT.

    With balanced limbs a = sum_i d_i 2^(11 i), d_i in [-2^10, 2^10), each d_i
    gets one rfft of length L = 2^n >= 2M+1 (no wrap onto kept degrees) and
    each c_s = sum_{i+j=s} d_i d_j one irfft.  Before rounding, c_s must pass
    Percival's bound (Math. Comp. 72, 2003) with eps = 2^-53,
        sum_{i+j=s} |d_i|_2 |d_j|_2 ((1+eps)^3n (1+eps sqrt5)^(3n+1) (1+beta)^3n - 1) < 1/4,
    beta = 2^-51 assumed for numpy's twiddles (an rfft of a unit impulse
    returns them within 2.4 eps at L = 2^19), and max|c_s - rint(c_s)| < 1/4;
    else PrecisionError.  The c_s are cut into runs s0 <= s < s1, each as
    long as sum max|c_s| 2^(11 (s - s0)) < 2^62 allows with the exact
    integer maxima; that sum bounds every Horner partial sum of the run, so
    each run recombines in place in int64.  The runs are joined in Python
    ints, one shift-add per run past the first (two runs for tau to 15 000),
    and a square that is one run stays int64.  Returns (square, (largest
    a-priori bound, largest observed deviation)).
    """
    M = len(a) - 1
    half = 1 << (_LIMB_BITS - 1)
    limbs, r = [], a
    while r.any():  # about (bits of max|a| + 2) / 11 limbs
        d = ((r + half) & (2 * half - 1)) - half
        limbs.append(d.astype(np.float64))
        r = (r - d) >> _LIMB_BITS
    n = (2 * M).bit_length()
    L = 1 << n
    growth = math.expm1(3 * n * math.log1p(_EPS) + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
                        + 3 * n * math.log1p(_BETA))
    nl = len(limbs)
    # |d_i|_2 from an exact numpy sum: the squares are integers under 2^20
    # and their sum stays under 2^53
    norms = [math.sqrt(float(np.square(d).sum())) for d in limbs]
    spectra = [np.fft.rfft(d, L) for d in limbs]
    bound = observed = 0.0
    sums = []
    for s in range(2 * nl - 1):
        pairs = [(i, s - i) for i in range(max(0, s - nl + 1), min(s, nl - 1) + 1)]
        bound = max(bound, growth * sum(norms[i] * norms[j] for i, j in pairs))
        if bound >= 0.25:
            raise PrecisionError(f"FFT rounding bound {bound:.3g} >= 1/4 for limb sum {s}")
        spec = None
        for i, j in pairs[: (len(pairs) + 1) // 2]:  # i <= j
            p = spectra[i] * spectra[j]
            if i < j:
                p *= 2  # (i, j) and (j, i) share one product; doubling is exact
            if spec is None:
                spec = p
            else:
                spec += p
        c = np.fft.irfft(spec, L)[: M + 1]
        ci = np.rint(c)
        observed = max(observed, float(np.abs(c - ci).max()))
        if observed >= 0.25:
            raise PrecisionError(f"FFT rounding deviation {observed:.3g} >= 1/4 for limb sum {s}")
        sums.append(ci.astype(np.int64))
    # cut the c_s into runs s0 <= s < s1 whose sum of max|c_s| 2^(11 (s - s0))
    # stays below 2^62, from exact integer maxima
    starts, weight = [0], 0
    for s, c in enumerate(sums):
        m = int(np.abs(c).max())
        weight += m << _LIMB_BITS * (s - starts[-1])
        if weight >= _RUN_LIMIT and s > starts[-1]:
            starts.append(s)
            weight = m
    acc = None
    for s0, s1 in reversed(list(zip(starts, starts[1:] + [len(sums)]))):
        run = sums[s1 - 1]
        for c in reversed(sums[s0: s1 - 1]):  # Horner in place, in int64
            run <<= _LIMB_BITS
            run += c
        if acc is not None:  # join the runs in Python ints
            run = (acc.astype(object, copy=False) << _LIMB_BITS * (s1 - s0)) + run
        acc = run
    return acc, (bound, observed)


def tau_table(N: int) -> TauTable:
    """Exact tau(1..N) from the eta product (E^3 by Jacobi, three squarings).

    Raises PrecisionError if an FFT squaring cannot be certified exact.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > _TAU_BUDGET:
        raise CapacityError(f"N={N} exceeds the exact big-integer budget {_TAU_BUDGET}")
    M = N - 1  # degree needed in E^24
    m = np.arange((math.isqrt(8 * M + 1) + 1) // 2)  # m(m+1)/2 <= M
    e3 = np.zeros(M + 1, dtype=np.int64)
    e3[m * (m + 1) // 2] = (1 - 2 * (m % 2)) * (2 * m + 1)  # E^3 by Jacobi's identity
    rounding = {}
    e6, rounding["e3^2"] = _square(e3)
    e12, rounding["e6^2"] = _square(e6)
    e24, rounding["e12^2"] = _square(e12)
    return TauTable(N, e24.tolist(), rounding)


def normalize(tau: TauTable) -> CoeffTable:
    """a~(n) = tau(n) n^{-11/2} (weight 12) as float64; verifies Deligne exactly.

    The bound |a~(n)| <= d(n), i.e. tau(n)^2 <= d(n)^2 n^11, is certified in
    float64: t = fl(tau(n)) is correctly rounded, n^11 is 10 products and
    d(n)^2 is exact, so the float test t^2 <= d^2 n^11 (1 - 64 eps) errs by
    under 16 eps relative and implies the exact bound.  Every n that misses
    the margin (on real tables only n = 1) is checked in exact integers.
    """
    N = tau.N
    d = sieve_dk(2, N).values
    try:
        t = np.array(tau.tau, dtype=np.float64)  # each value correctly rounded
    except OverflowError:  # |tau(n)| > 2^1024 breaks the bound for any feasible n
        t = np.full(N, np.inf)
    n = np.arange(1, N + 1, dtype=np.float64)
    n11 = n.copy()
    for _ in range(10):
        n11 *= n
    d2 = (d * d).astype(np.float64)
    unsure = np.flatnonzero(~(t * t <= d2 * n11 * (1.0 - 64 * _EPS)))
    for i in unsure.tolist():
        if tau.tau[i] ** 2 > int(d[i]) ** 2 * (i + 1) ** 11:
            raise DeligneBoundError(f"|a~({i + 1})| > d({i + 1}): tau table corrupt")
    return CoeffTable("a_tilde", N, t * n ** (-5.5), {"kappa": 12})


def self_convolve(a_tilde: CoeffTable) -> CoeffTable:
    """(a~*a~)(n) = sum_{d|n} a~(d) a~(n/d), the coefficients of F^2."""
    if a_tilde.values.dtype.kind != "f":
        raise ValueError("self_convolve expects the real-variant a~ table")
    conv = dirichlet_convolve(a_tilde, a_tilde)
    return CoeffTable("a_tilde_sq_conv", a_tilde.N, conv.values, {"kappa": 12})


def rankin_c(a_tilde: CoeffTable) -> CoeffTable:
    """c_n = sum_{d^2 m = n} a~(m)^2 (Dirichlet product of zeta(2s) with a~^2)."""
    N = a_tilde.N
    asq = a_tilde.values**2
    c = np.zeros(N, dtype=np.float64)
    d = 1
    while d * d <= N:
        d2 = d * d
        m = N // d2
        c[d2 - 1:: d2] += asq[:m]
        d += 1
    return CoeffTable("rankin_c", N, c)


def rankin_A(c: CoeffTable, X: float) -> tuple:
    """(A, spread): A in sum_{n<=x} c_n = A x + Delta(x,phi) by Cesaro smoothing.

    A ~ (2/X) sum_{n<=X} c_n (1 - n/X), averaged over the top three dyadic
    cuts X, X/2, X/4; their relative spread must stay below 5%.
    """
    X = int(X)
    if not 8 <= X <= c.N:
        raise ValueError(f"X={X} outside table range")
    ests = []
    for cut in (X, X // 2, X // 4):
        n = np.arange(1, cut + 1, dtype=np.float64)
        ests.append(2.0 / cut * float(np.sum(c.values[:cut] * (1.0 - n / cut))))
    A = float(np.mean(ests))
    spread = (max(ests) - min(ests)) / A
    if spread > 0.05:
        raise ValueError(
            f"Cesaro estimate unstable: dyadic spread {spread:.2%} > 5% (X too small)"
        )
    return A, spread


def delta_phi_mean_square(c: CoeffTable, A: float, Xs) -> list:
    """Cumulative int_1^X Delta(x,phi)^2 dx on the grid Xs.

    Reuses the divisor-problem quadrature with the degree-0 main polynomial
    P(u) = A, i.e. main term A*x; Gauss order 8 is exact here since the
    integrand is piecewise quadratic.
    """
    return delta_mean_square(1, Xs, c, SummatoryPolynomial(1, np.array([A]))).cumulative_ms
