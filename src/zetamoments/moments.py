"""Moment main terms, quadrature, residual extraction and exponent tables.

The 2k-th moment of a Dirichlet series over [1, T] at fixed sigma in
(1/2, 1) has main term C * T with C the value of the coefficient-square
Dirichlet series at 2 sigma:

    zeta family:  C(k, sigma) = sum d_k(n)^2 n^{-2 sigma}
    F (cusp form): sum a~(n)^2 n^{-2 sigma},  fourth moment: sum (a~*a~)(n)^2
    Z (Rankin-Selberg): sum c_n^2 n^{-2 sigma}

plus a secondary (off-diagonal) term S_k of order T^{2-2 sigma} times a
polynomial in log T.  For the k=1 zeta moment it is the classical
zeta(2 sigma - 1) Gamma(2 sigma - 1) sin(pi sigma) T^{2-2 sigma} / (1 - sigma),
which residual() includes.  For k = 2, 3 it is the sum of the one-swap terms
of the CFKRS recipe with every shift at sigma - 1/2, integrated over the
moment's range [1, T] (secondary_term); residual() keeps main = C * T there,
and C * T + S_k is the prediction the moments are compared with.

C(k, sigma) is computed two independent ways: an Euler product
zeta(2s)^{k^2} prod_p (1-p^{-2s})^{k^2} 2F1(k,k;1;p^{-2s}) with a rigorous
prime tail, and a direct sieve sum with a density-completed tail.  Moments
are composite-Simpson integrals of |.|^{2k} with step h = min(0.02,
0.4/log T), validated by step halving.  Residual magnitudes are fitted
log-log against T and compared with the tabulated error-term exponents
(the beta-envelope and sigma*-energy routes plus older comparison bounds).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .arith import CoeffTable, PrecisionError, prime_sieve
from .evaluate import smoothed_grid, zeta_em, zeta_em_grid

__all__ = [
    "MainTermConstant",
    "MomentRecord",
    "FitResult",
    "TheoryConstants",
    "THEORY",
    "BudgetError",
    "DegenerateInputError",
    "main_term_zeta",
    "main_term_zeta_direct",
    "main_term_series",
    "integrate_moment",
    "integrate_moment_grid",
    "residual",
    "secondary_term",
    "fit_power_law",
    "theory_exponent",
    "exponent_beta_envelope",
    "exponent_classical",
    "exponent_sigma_star",
    "exponent_sigma_star_weak",
    "exponent_kanemitsu",
    "exponent_lindelof",
    "matsumoto_exponent",
    "exponent_experiment",
    "ExperimentResult",
]

FAMILIES = ("zeta", "F2", "F4", "Z2")


class BudgetError(Exception):
    pass


class DegenerateInputError(Exception):
    pass


@dataclass(frozen=True)
class MainTermConstant:
    family: str
    k: int
    sigma: float
    value: float
    tail_bound: float
    method: str  # "euler_product" | "direct_sum"

    @property
    def accepted(self) -> bool:
        """Tail below the 1e-6 relative gate (expected for euler_product)."""
        return self.tail_bound < 1e-6 * self.value


@dataclass(frozen=True)
class MomentRecord:
    family: str
    k: int
    sigma: float
    T: float
    integral: float
    main: float = float("nan")
    residual: float = float("nan")
    quad_err: float = float("nan")
    # diagnostics of the shared quadrature pass, for summary.json only (never
    # ledger.csv): the max Y-doubling spread of the smoothed values (0 for
    # zeta), the step-halving level reached and the integrand point count
    spread: float = 0.0
    level: int = 0
    points: int = 0


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    theory_exponent: float = float("nan")
    slack: float = float("nan")
    pass_: bool | None = None


@dataclass(frozen=True)
class TheoryConstants:
    """The paper-level exponent constants.

    beta[k] is the mean-square divisor exponent used by the k-th family
    envelope (k=1, 2 carry the cusp-form analogues rho = 1/4 and the
    classical 1/4; k=3..6 the divisor-problem values, with 9/20 the cited
    bound for k=5).  sigma_star[k] is the infimum abscissa with 2k-th
    moment << T^{1+eps}.
    """

    beta: dict = field(default_factory=lambda: {
        1: 1 / 4, 2: 1 / 4, 3: 1 / 3, 4: 3 / 8, 5: 9 / 20, 6: 1 / 2,
    })
    sigma_star: dict = field(default_factory=lambda: {
        3: 7 / 12, 4: 5 / 8, 5: 41 / 60, 6: 5 / 7,
    })
    rho: float = 1 / 4
    theta: float = 3 / 8


THEORY = TheoryConstants()


# ---------------------------------------------------------------------------
# Main-term constants
# ---------------------------------------------------------------------------

def _zeta_real(x: float) -> float:
    return zeta_em(complex(x, 0.0), 1e-10).value.real


def main_term_zeta(k: int, sigma: float, prime_cut: int = 10**6) -> MainTermConstant:
    """C(k, sigma) = sum d_k(n)^2 n^{-2 sigma} by Euler product.

    Factor out zeta(2s)^{k^2}; the residual local factor is
    g_p = (1-x)^{k^2} sum_j C(k-1+j, j)^2 x^j = 1 - (k(k-1)/2)^2 x^2 + ...
    with x = p^{-2s}, so the tail over p > P is bounded by the x^2 term:
    sum_{p>P} |log g_p| <= 2 (k(k-1)/2)^2 sum_{n>P} n^{-4 sigma}.
    """
    if sigma <= 0.5:
        raise ValueError("the series diverges for sigma <= 1/2")
    if not 1 <= k <= 6:
        raise ValueError("euler_product path supports 1 <= k <= 6")
    s2 = 2.0 * sigma
    zs = _zeta_real(s2)
    if k == 1:
        return MainTermConstant("zeta", 1, sigma, zs, 0.0, "euler_product")
    primes = prime_sieve(prime_cut)
    x = primes.astype(np.float64) ** (-s2)
    loc = np.ones_like(x)
    term = np.ones_like(x)
    j = 0
    while True:
        j += 1
        term = term * x * ((k - 1 + j) / j) ** 2
        loc += term
        if float(term.max()) < 1e-20:
            break
        if j > 400:
            raise PrecisionError("local factor series failed to converge")
    log_g = k * k * np.log1p(-x) + np.log(loc)
    value = zs ** (k * k) * math.exp(float(log_g.sum()))
    # prime tail: |log g_p| <= 2 c2 p^{-4 sigma} with c2 = (k(k-1)/2)^2
    c2 = (k * (k - 1) / 2) ** 2
    tail_log = 2.0 * c2 * prime_cut ** (1.0 - 2.0 * s2) / (2.0 * s2 - 1.0)
    tail = value * math.expm1(tail_log) if tail_log < 1 else float("inf")
    return MainTermConstant("zeta", k, sigma, value, tail, "euler_product")


def _log_density_tail(weights: np.ndarray, sigma: float, q: int) -> tuple[float, float]:
    """Complete sum_{n>N} w(n) n^{-2 sigma} from the empirical density.

    Model: density ~ a (log x + c)^q.  The shift c soaks up the lower-order
    log powers that dominate a plain (log x)^q fit whenever q is comparable
    to log N; a and c are pinned by the two top octaves of the table and
    the tail integral is a binomial sum of incomplete gammas.  The
    uncertainty combines the out-of-sample error on a third octave, the
    distance to the unshifted model, and a q/log N floor.
    """
    import mpmath as mp

    N = len(weights)
    if N < 256:
        return 0.0, float(np.sum(weights))  # too short to extrapolate
    s2 = 2.0 * sigma
    lam = s2 - 1.0

    def window(lo: int, hi: int) -> tuple[float, float]:
        mass = float(np.sum(weights[lo:hi]))
        return mass / (hi - lo), math.log((lo + 1 + hi) / 2.0)

    d1, L1 = window(N // 2, N)
    d2, L2 = window(N // 4, N // 2)
    d3, L3 = window(N // 8, N // 4)
    if d1 <= 0.0 or d2 <= 0.0:
        return 0.0, 0.0  # empty top of table: nothing to extrapolate

    def gamma_tail(i: int) -> float:
        return float(mp.gammainc(i + 1, lam * mp.log(N))) / lam ** (i + 1)

    def shifted_tail(a: float, c: float) -> float:
        return a * sum(
            math.comb(q, i) * c ** (q - i) * gamma_tail(i) for i in range(q + 1)
        )

    # plain model (c = 0) calibrated on the top octave
    a_plain = d1 / L1**q
    tail_plain = a_plain * gamma_tail(q)
    if q == 0:
        uncert = abs(d1 - d2) * gamma_tail(0) + 0.1 * abs(tail_plain)
        return tail_plain, uncert
    # shifted model from the two octave densities
    r = (d1 / d2) ** (1.0 / q)
    c = 0.0
    if abs(r - 1.0) > 1e-9:
        c = (L1 - r * L2) / (r - 1.0)
    if not math.isfinite(c) or c <= -L2 + 1.0 or abs(c) > 10.0 * L1:
        tail = tail_plain
        uncert = abs(d1 - d2) / L1**q * gamma_tail(q) + abs(tail) * (0.1 + q / math.log(N))
        return tail, uncert
    a = d1 / (L1 + c) ** q
    tail = shifted_tail(a, c)
    d3_pred = a * (L3 + c) ** q
    rel_oos = abs(d3_pred - d3) / d3 if d3 > 0 else 1.0
    uncert = (
        abs(tail - tail_plain) * 0.5
        + rel_oos * abs(tail)
        + abs(tail) * (0.1 + 0.2 * q / math.log(N))
    )
    return tail, uncert


def main_term_zeta_direct(
    k: int, sigma: float, table: CoeffTable, complete: bool = True
) -> MainTermConstant:
    """C(k, sigma) by direct summation of d_k(n)^2 n^{-2 sigma} over the table.

    The tail beyond N is completed with the empirical log-power density of
    d_k^2 (degree k^2 - 1); the completion uncertainty is the tail bound.
    """
    if sigma <= 0.5:
        raise ValueError("the series diverges for sigma <= 1/2")
    if table.generator_params.get("k") != k:
        raise ValueError("table is not a d_k table for this k")
    n = np.arange(1, table.N + 1, dtype=np.float64)
    w = table.values.astype(np.float64) ** 2
    partial = float(np.sum(w * n ** (-2.0 * sigma)))
    if not complete:
        return MainTermConstant("zeta", k, sigma, partial, float("inf"), "direct_sum")
    tail, uncert = _log_density_tail(w, sigma, k * k - 1)
    return MainTermConstant("zeta", k, sigma, partial + tail, uncert, "direct_sum")


# family, k, completion log-degree per coefficient label
_SERIES_FAMILY = {
    "a_tilde": ("F2", 1, 0),
    "a_tilde_sq_conv": ("F4", 2, 3),
    "rankin_c": ("Z2", 1, 1),
}


def main_term_series(coeffs: CoeffTable, sigma: float) -> MainTermConstant:
    """sum coeffs(n)^2 n^{-2 sigma} with a density-completed tail.

    The completion degree follows the mean-square growth of the family:
    a~^2 has constant density (Rankin), (a~*a~)^2 grows like log^3, c_n^2
    like log^{1+eps} (degree 1 used).
    """
    if sigma <= 0.5:
        raise ValueError("the series diverges for sigma <= 1/2")
    fam, k, q = _SERIES_FAMILY.get(coeffs.label, ("series", 1, 0))
    n = np.arange(1, coeffs.N + 1, dtype=np.float64)
    w = coeffs.values.astype(np.float64) ** 2
    partial = float(np.sum(w * n ** (-2.0 * sigma)))
    tail, uncert = _log_density_tail(w, sigma, q)
    value = partial + tail
    if sigma < 0.55 and uncert > 1e-3 * value:
        raise PrecisionError(
            f"tail too large near sigma=1/2: {uncert:.3g} vs value {value:.3g}"
        )
    return MainTermConstant(fam, k, sigma, value, uncert, "direct_sum")


# ---------------------------------------------------------------------------
# Moment quadrature
# ---------------------------------------------------------------------------

_DYADIC_EDGES = [0.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0]


def _integrand_grid(
    family: str,
    k: int,
    sigma: float,
    ts: np.ndarray,
    coeffs: CoeffTable | None,
    pole_residue: float | None,
    workers: int,
) -> tuple[np.ndarray, float]:
    """|.|^{2k} on the grid.  Evaluation parameters (Euler-Maclaurin cut,
    smoothing Y) are fixed per dyadic t-block, so values are independent of
    the worker count; blocks are reduced in fixed order."""
    y = np.empty(len(ts), dtype=np.float64)
    blocks = []
    for lo, hi in zip(_DYADIC_EDGES[:-1], _DYADIC_EDGES[1:]):
        idx0 = int(np.searchsorted(ts, lo, side="left"))
        idx1 = int(np.searchsorted(ts, hi, side="left"))
        if idx1 > idx0:
            blocks.append((idx0, idx1, hi))
    if blocks and blocks[-1][1] < len(ts):
        raise PrecisionError("t grid exceeds the configured dyadic range")

    max_spread = 0.0

    def run(block):
        i0, i1, hi = block
        tt = ts[i0:i1]
        if family == "zeta":
            z = zeta_em_grid(sigma, tt)
            return i0, np.abs(z) ** (2 * k), 0.0
        if coeffs is None:
            raise ValueError(f"family {family} needs a coefficient table")
        Y = min(max(2.0 * hi, 100.0), coeffs.N / 74.0)
        vals, spread = smoothed_grid(
            coeffs.values.astype(np.float64), sigma, tt, Y,
            residue=pole_residue if family == "Z2" else None,
        )
        return i0, np.abs(vals) ** 2, spread

    if workers <= 1:
        results = [run(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run, blocks))
    for i0, arr, spread in results:
        y[i0: i0 + len(arr)] = arr
        max_spread = max(max_spread, spread)
    return y, max_spread


def _simpson_prefix(y: np.ndarray, h: float, m: int) -> float:
    """Simpson over y[0..m] (m even) with step h."""
    if m == 0:
        return 0.0
    yy = y[: m + 1]
    return h / 3.0 * float(yy[0] + yy[-1] + 4.0 * yy[1:-1:2].sum() + 2.0 * yy[2:-1:2].sum())


def moment_step(T: float) -> float:
    return min(0.02, 0.4 / math.log(T)) if T > 1 else 0.02


def integrate_moment_grid(
    family: str,
    k: int,
    sigma: float,
    T_grid,
    rel_tol: float = 1e-4,
    coeffs: CoeffTable | None = None,
    pole_residue: float | None = None,
    workers: int = 1,
    budget: int = 5_000_000,
) -> list[MomentRecord]:
    """One shared quadrature pass producing a MomentRecord per T in T_grid.

    The integrand is evaluated once on the half-step grid; each requested T
    gets the Simpson value at step h plus the step-halved value, and their
    difference is the recorded quadrature error (must clear rel_tol, else a
    further halving is attempted within the evaluation budget).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not 0.5 < sigma < 1.0:
        raise ValueError("sigma must lie in (1/2, 1) for moment work")
    if rel_tol < 1e-5:
        raise ValueError("rel_tol below the 1e-5 floor")
    T_grid = sorted(float(T) for T in T_grid)
    if T_grid and T_grid[-1] > 5000:
        raise ValueError("T > 5000 is outside the desk range")
    records = []
    todo = [T for T in T_grid if T > 1.0]
    for T in T_grid:
        if T <= 1.0:
            records.append(MomentRecord(family, k, sigma, T, 0.0, quad_err=0.0))
    if not todo:
        return records
    Tmax = todo[-1]
    h = moment_step(Tmax)
    level = 1  # current grid is at h/2
    while True:
        h2 = h / 2.0
        npts = int(round((Tmax - 1.0) / h2)) + 1
        if npts > budget:
            raise BudgetError(f"refinement needs {npts} evaluations > budget {budget}")
        ts = 1.0 + h2 * np.arange(npts)
        y, spread = _integrand_grid(family, k, sigma, ts, coeffs, pole_residue, workers)
        ok = True
        out = []
        for T in todo:
            m2 = int(round((T - 1.0) / h2))
            m2 -= m2 % 4  # snap so both h and h/2 Simpson counts are even
            Ts = 1.0 + h2 * m2
            I_h = _simpson_prefix(y[::2], h, m2 // 2)
            I_h2 = _simpson_prefix(y, h2, m2)
            qerr = abs(I_h - I_h2)
            if qerr > rel_tol * max(abs(I_h2), 1e-300):
                ok = False
                break
            out.append(MomentRecord(family, k, sigma, Ts, I_h2, quad_err=qerr,
                                    spread=spread, level=level, points=npts))
        if ok:
            records.extend(out)
            records.sort(key=lambda r: r.T)
            return records
        h = h2
        level += 1
        if level > 4:
            raise BudgetError("step halving did not converge within 4 levels")


def integrate_moment(
    family: str,
    k: int,
    sigma: float,
    T: float,
    rel_tol: float = 1e-4,
    **kw,
) -> MomentRecord:
    """Composite-Simpson moment integral over [1, T]; see integrate_moment_grid."""
    return integrate_moment_grid(family, k, sigma, [T], rel_tol, **kw)[0]


# ---------------------------------------------------------------------------
# Secondary (one-swap) main terms
# ---------------------------------------------------------------------------

_RECIPE_PRIME_CUT = 20_000  # Euler-product cut for A_3
_CAUCHY_NODES = 32
_CAUCHY_TOL = 1e-8


def _euler_arith_factor(A: np.ndarray, B: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """The recipe's arithmetic factor A_k(A; B) by Euler product, one value per row.

    A, B hold shift rows of shape (E, k).  The local factor at p is
    prod_{a,b} (1 - x_a y_b) sum_m h_m(x) h_m(y) with x_a = p^{-1/2-a},
    y_b = p^{-1/2-b}; the sum over m (the theta-average of the local
    generating functions) is the sum of residues at u = y_b, so the shifts
    within a row of B must be distinct.  Primes are those whose logs are
    given; the truncation is a symmetric function of the shifts, so it keeps
    the pole cancellation of the one-swap sum exact.
    """
    k = A.shape[1]
    x = np.exp(-(0.5 + A[:, :, None]) * logp)
    y = np.exp(-(0.5 + B[:, :, None]) * logp)
    pair = 1.0 - x[:, :, None, :] * y[:, None, :, :]
    theta_avg = 0.0
    for b in range(k):
        den = np.prod(pair[:, :, b, :], axis=1)
        for c in range(k):
            if c != b:
                den = den * (y[:, b] - y[:, c])
        theta_avg = theta_avg + y[:, b] ** (k - 1) / den
    return np.prod(theta_avg * np.prod(pair, axis=(1, 2)), axis=1)


def _one_swap_terms(alpha: np.ndarray, beta: np.ndarray, logp: np.ndarray):
    """Exponents alpha_i + beta_j and coefficients of the k^2 one-swap terms.

    Swapping alpha_i with beta_j gives A' = A - {alpha_i} + {-beta_j},
    B' = B - {beta_j} + {-alpha_i} and the coefficient
    prod_{a in A', b in B'} zeta(1 + a + b) A_k(A'; B'), with A_1 = 1,
    A_2 = 1/zeta(2 + sum A' + sum B') and A_3 by Euler product.
    """
    k = len(alpha)
    rows_a, rows_b, expo, coef = [], [], [], []
    for i in range(k):
        for j in range(k):
            a = alpha.copy()
            a[i] = -beta[j]
            b = beta.copy()
            b[j] = -alpha[i]
            z = 1.0 + 0j
            for u in a:
                for v in b:
                    z *= zeta_em(1.0 + u + v, 1e-10).value
            rows_a.append(a)
            rows_b.append(b)
            expo.append(alpha[i] + beta[j])
            coef.append(z)
    coef = np.array(coef)
    if k == 2:
        coef /= [zeta_em(2.0 + a.sum() + b.sum(), 1e-10).value for a, b in zip(rows_a, rows_b)]
    elif k == 3:
        coef *= _euler_arith_factor(np.array(rows_a), np.array(rows_b), logp)
    return np.array(expo), coef


@lru_cache(maxsize=32)
def _one_swap_nodes(k: int, sigma: float, radius: float):
    """The one-swap terms at the Cauchy nodes eps_n = radius e^{2 pi i n/N}.

    The shifts are alpha_j = beta_j = sigma - 1/2 + eps_n d_j with distinct
    directions d_j = e^{2 pi i j/k}/2.  Returns the nodes and, per node, the
    k^2 exponents and coefficients; only the t-weights depend on T.
    """
    d = sigma - 0.5
    dirs = 0.5 * np.exp(2j * np.pi * np.arange(k) / k)
    eps = radius * np.exp(2j * np.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
    logp = np.log(prime_sieve(_RECIPE_PRIME_CUT).astype(np.float64)) if k == 3 else None
    terms = [_one_swap_terms(d + e * dirs, d + e * dirs, logp) for e in eps]
    return eps, np.array([x for x, _ in terms]), np.array([c for _, c in terms])


def _one_swap_recipe(k: int, sigma: float, T: float) -> float:
    """The k^2 one-swap recipe terms at shifts sigma - 1/2, integrated over [1, T].

    Each term carries the weight (t/2 pi)^{-x}, x = alpha_i + beta_j, whose
    integral over [1, T] is (2 pi)^x (T^{1-x} - 1)/(1 - x).  The terms have
    poles of order up to 2k - 2 where the shifts coincide; their sum is
    holomorphic, and its value there is the mean over the Cauchy nodes.  The
    evaluation is repeated at half the radius; the two must agree, the
    principal part at the nodes must vanish and the value must be real, each
    to _CAUCHY_TOL relative, else PrecisionError.
    """
    # the sum is holomorphic while the shifts keep 0 < Re(alpha_i + beta_j) < 1
    R = min(2.0 * sigma - 1.0, 2.0 - 2.0 * sigma)
    values = []
    for radius in (0.35 * R, 0.175 * R):
        eps, x, c = _one_swap_nodes(k, sigma, radius)
        F = (c * (2.0 * math.pi) ** x * (T ** (1.0 - x) - 1.0) / (1.0 - x)).sum(axis=1)
        value = F.mean()
        u = eps / radius
        principal = max((abs(np.mean(F * u**m)) for m in range(1, 2 * k - 1)), default=0.0)
        if principal > _CAUCHY_TOL * abs(value):
            raise PrecisionError(f"one-swap poles do not cancel: principal part {principal:.3g} "
                                 f"vs value {abs(value):.3g}")
        values.append(value)
    v, v_half = values
    if abs(v - v_half) > _CAUCHY_TOL * abs(v) or abs(v.imag) > _CAUCHY_TOL * abs(v):
        raise PrecisionError(f"one-swap sum unstable: {v} at radius r vs {v_half} at r/2")
    return v.real


def secondary_term(sigma: float, T: float, k: int = 1) -> float:
    """The secondary (off-diagonal) main term S_k of the 2k-th zeta moment.

    k = 1: the classical
    zeta(2 sigma - 1) Gamma(2 sigma - 1) sin(pi sigma) T^{2-2 sigma}/(1-sigma),
    which residual() adds to C*T.

    k = 2, 3: the one-swap terms of the CFKRS recipe (Conrey, Farmer,
    Keating, Rubinstein, Snaith, "Integral moments of L-functions",
    Proc. LMS 2005; proved for k = 2, conjectural for k = 3) with every
    shift set to sigma - 1/2: the sum over i, j of
    (t/2 pi)^{-alpha_i-beta_j} prod_{a in A', b in B'} zeta(1+a+b) A_k(A'; B')
    integrated over [1, T], of order T^{2-2 sigma} times a polynomial in
    log T.  A_2 = 1/zeta(2 + sum of shifts); A_3 is an Euler product over
    p <= 2e4, which fixes S_3(0.9, 2000) to about 1e-6.  The range [1, T] is
    the moment's own: the recipe does not hold for t < 1, and the piece from
    [0, 1] would add a constant (about -4.2e4 for k=3, sigma=0.9).  Two-swap
    and higher terms, of order T^{3-4 sigma}, are left out.  residual()
    keeps main = C*T for k >= 2; C*T + S_k is the predicted value the
    moment is compared with.
    """
    _check_sigma(sigma)
    if k == 1:
        from .evaluate import gamma_fn

        z = _zeta_real(2.0 * sigma - 1.0)
        g = gamma_fn(complex(2.0 * sigma - 1.0, 0.0)).value.real
        return z * g * math.sin(math.pi * sigma) / (1.0 - sigma) * T ** (2.0 - 2.0 * sigma)
    if k not in (2, 3):
        raise ValueError(f"secondary terms cover k = 1, 2, 3, not k={k}")
    return _one_swap_recipe(k, sigma, T)


def residual(rec: MomentRecord, C: MainTermConstant) -> MomentRecord:
    """Fill main = C*T (+ secondary term for the k=1 zeta family) and residual."""
    if C.family != rec.family or C.k != rec.k:
        raise ValueError(f"constant {C.family},k={C.k} does not match record "
                         f"{rec.family},k={rec.k}")
    if abs(C.sigma - rec.sigma) > 1e-12:
        raise ValueError("sigma mismatch between record and constant")
    main = C.value * rec.T
    if rec.family == "zeta" and rec.k == 1:
        main += secondary_term(rec.sigma, rec.T)
    return replace(rec, main=main, residual=rec.integral - main)


# ---------------------------------------------------------------------------
# Power-law fits
# ---------------------------------------------------------------------------

def fit_power_law(points, strict: bool = True) -> FitResult:
    """Least squares on (log X, log |V|); zero V dropped.

    strict enforces the documented preconditions (>= 8 usable points over
    >= 1.5 decades); envelope fits on short moment grids pass strict=False.
    """
    pts = [(float(x), float(v)) for x, v in points if v != 0.0]
    if any(x <= 0 for x, _ in pts):
        raise DegenerateInputError("X values must be positive")
    xs = [x for x, _ in pts]
    if sorted(xs) != xs or len(set(xs)) != len(xs):
        raise DegenerateInputError("X values must be strictly increasing")
    if len(pts) < 2:
        raise DegenerateInputError("fewer than 2 usable points")
    if strict:
        if len(pts) < 8:
            raise DegenerateInputError(f"{len(pts)} usable points < 8")
        if math.log10(xs[-1] / xs[0]) < 1.5:
            raise DegenerateInputError("X span below 1.5 decades")
    lx = np.log([x for x, _ in pts])
    ly = np.log([abs(v) for _, v in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(float(slope), float(intercept), r2)


# ---------------------------------------------------------------------------
# Theory exponents
# ---------------------------------------------------------------------------

def _check_sigma(sigma: float) -> None:
    if not 0.5 < sigma < 1.0:
        raise ValueError(f"sigma={sigma} outside (1/2, 1)")


def exponent_beta_envelope(k: int, sigma: float) -> float:
    """2(1-sigma)/(1-beta_k) for sigma > max(beta_k, 1/2).

    The divisor-mean-square route: the sharp statement holds for k >= 3,
    and the constants table extends the same formula to k = 1, 2 (where
    beta carries the cusp-form analogue values).
    """
    _check_sigma(sigma)
    if k not in THEORY.beta:
        raise ValueError(f"no beta_k tabulated for k={k}")
    bk = THEORY.beta[k]
    if sigma <= max(bk, 0.5):
        raise ValueError(f"sigma={sigma} violates sigma > max(beta_{k}, 1/2) = {max(bk, 0.5)}")
    return 2.0 * (1.0 - sigma) / (1.0 - bk)


def exponent_classical(k: int, sigma: float) -> float:
    """The sharp k=1, 2 error exponents 2(1-sigma)/3 and 2-2 sigma
    (special-method results; table entries for comparison)."""
    _check_sigma(sigma)
    if k == 1:
        return 2.0 * (1.0 - sigma) / 3.0
    if k == 2:
        return 2.0 - 2.0 * sigma
    raise ValueError("classical exponents cover k = 1, 2 only")


def exponent_sigma_star(k: int, sigma: float) -> float:
    """2(1-sigma)/(2 - sigma*_k - sigma), valid for sigma > sigma*_k, k >= 3.

    The moment-energy route through the defining property of sigma*_k."""
    _check_sigma(sigma)
    if k not in THEORY.sigma_star:
        raise ValueError(f"no sigma*_k tabulated for k={k}")
    sk = THEORY.sigma_star[k]
    if sigma <= sk:
        raise ValueError(f"sigma={sigma} violates sigma > sigma*_{k} = {sk}")
    return 2.0 * (1.0 - sigma) / (2.0 - sk - sigma)


def exponent_sigma_star_weak(k: int, sigma: float) -> float:
    """The older comparison bound (2 - sigma - sigma*_k)/(2 - 2 sigma*_k),
    which the sharper sigma* route improves throughout its range."""
    _check_sigma(sigma)
    if k not in THEORY.sigma_star:
        raise ValueError(f"no sigma*_k tabulated for k={k}")
    sk = THEORY.sigma_star[k]
    if sigma <= sk:
        raise ValueError(f"sigma={sigma} violates sigma > sigma*_{k} = {sk}")
    return (2.0 - sigma - sk) / (2.0 - 2.0 * sk)


def exponent_kanemitsu(k: int, sigma: float) -> float:
    """The multiple-gamma-factor comparison bound 3k(1-sigma)/(k+2-k sigma),
    valid for 1 - 1/k <= sigma <= 1 (k >= 2); table entry only."""
    if k < 2:
        raise ValueError("comparison bound needs k >= 2")
    if not 1.0 - 1.0 / k <= sigma <= 1.0:
        raise ValueError(f"sigma={sigma} outside [1 - 1/k, 1] = [{1 - 1/k}, 1]")
    return 3.0 * k * (1.0 - sigma) / (k + 2.0 - k * sigma)


def exponent_lindelof(k: int, sigma: float) -> float:
    """The conditional (Lindelof-equivalent) exponent 4k(1-sigma)/(k+1)."""
    _check_sigma(sigma)
    return 4.0 * k * (1.0 - sigma) / (k + 1.0)


_MATSUMOTO_KNEE = (12.0 + math.sqrt(19.0)) / 20.0


def matsumoto_exponent(sigma: float) -> float:
    """Piecewise comparison exponents for the Z mean square (table entry).

    5/2 - 2 sigma on (3/4, (12+sqrt 19)/20); 60(1-sigma)/(29-20 sigma)
    above the knee; 4 - 4 sigma (with a log) on (1/2, 3/4].
    """
    _check_sigma(sigma)
    if sigma <= 0.75:
        return 4.0 - 4.0 * sigma
    if sigma < _MATSUMOTO_KNEE:
        return 2.5 - 2.0 * sigma
    return 60.0 * (1.0 - sigma) / (29.0 - 20.0 * sigma)


def theory_exponent(family: str, k: int, sigma: float) -> float:
    """The best applicable error-term exponent for |R| << T^{c+eps}.

    zeta: the minimum of the beta-envelope (constants table k=1..6) and
    the sigma*-energy bound (k=3..6) over their validity ranges; the
    sharper special-method k=1, 2 exponents are
    exposed separately as exponent_classical.  F2/F4 use the piecewise
    cusp-form bounds (the upper branch of the fourth-moment bound follows
    the sigma*_2 = 5/8 derivation, i.e. 16(1-sigma)/(11-8 sigma)).  Z2 is
    4 - 4 sigma.
    """
    _check_sigma(sigma)
    if family == "zeta":
        if k not in THEORY.beta:
            raise ValueError(f"k={k} outside the supported zeta table (1..6)")
        cands = []
        for fn in (exponent_beta_envelope, exponent_sigma_star):
            try:
                cands.append(fn(k, sigma))
            except ValueError:
                pass
        if not cands:
            raise ValueError(
                f"sigma={sigma} below the validity threshold "
                f"max(beta_{k},1/2)={max(THEORY.beta[k], 0.5)}"
            )
        return min(cands)
    if family == "F2":
        if sigma <= 0.75:
            return 4.0 * (1.0 - sigma) / (3.0 - 2.0 * sigma)
        return 8.0 / 3.0 * (1.0 - sigma)
    if family == "F4":
        if sigma <= 0.75:
            return 16.0 * (1.0 - sigma) / (11.0 - 8.0 * sigma)
        return 16.0 / 5.0 * (1.0 - sigma)
    if family == "Z2":
        return 4.0 - 4.0 * sigma
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# The end-to-end exponent experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentResult:
    family: str
    k: int
    sigma: float
    records: list
    fit: FitResult
    constant: MainTermConstant
    near_half: bool = False


def exponent_experiment(
    family: str,
    k: int,
    sigma: float,
    T_grid,
    coeffs: CoeffTable | None = None,
    pole_residue: float | None = None,
    constant: MainTermConstant | None = None,
    rel_tol: float = 1e-4,
    slack: float = 0.25,
    workers: int = 1,
    budget: int = 5_000_000,
) -> ExperimentResult:
    """Integrate the moment over T_grid, extract residuals, fit |R| vs T and
    compare the slope against the theory exponent plus slack.

    Within 0.05 of sigma = 1/2 the experiment runs but refuses to pass
    (slow convergence makes the claim unverifiable there).
    """
    if constant is None:
        if family == "zeta":
            constant = main_term_zeta(k, sigma)
        else:
            if coeffs is None:
                raise ValueError("series families need their coefficient table")
            constant = main_term_series(coeffs, sigma)
    records = integrate_moment_grid(
        family, k, sigma, T_grid, rel_tol,
        coeffs=coeffs, pole_residue=pole_residue, workers=workers, budget=budget,
    )
    records = [residual(r, constant) for r in records]
    theo = theory_exponent(family, k, sigma)
    fit = fit_power_law([(r.T, r.residual) for r in records if r.T > 1], strict=False)
    near_half = sigma - 0.5 < 0.05
    passed = (fit.slope <= theo + slack) and not near_half
    fit = replace(fit, theory_exponent=theo, slack=slack, pass_=passed)
    return ExperimentResult(family, k, sigma, records, fit, constant, near_half)
