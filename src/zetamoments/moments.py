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

Each family is defined once, in FAMILIES; every entry point checks family,
k (zeta: 1..6), table and T (finite, in [1, 5000]) before any evaluation;
a series pole's residue is estimated from the table being integrated.

C(k, sigma) is computed two independent ways: an Euler product zeta(2s)^{k^2}
prod_p (1-x)^{(k-1)^2} N_k(x), x = p^{-2s}, with a rigorous prime tail and
rounding bound (for k = 2 its closed form zeta(2s)^4/zeta(4s)), and a direct
sieve sum with a density-completed tail.  The local factor is
(1-x)^{k^2} 2F1(k,k;1;x), which Euler's transformation turns into the closed
form with the polynomial N_k(x) = sum_{i<k} C(k-1, i)^2 x^i.
Moments are composite-Simpson integrals of |.|^{2k} from the start step of
moment_step, validated by step halving: for zeta the coarsest h = 1/(2q)
<= 1/4 that samples the integrand's top frequency k log M at least twice
per period (M the grid's top Euler-Maclaurin cut), for the series families
min(0.02, 0.4/log T), as their integrand jumps where the smoothing Y changes
between blocks.  Every family splits a pass by one rule: the grid splits
where the family's evaluation parameter changes between dyadic t-blocks,
and each run of one parameter into the fewest equal chunks of at most 2^20
points.  zeta has no parameter, so a pass is one run, each chunk summed at
its own top cut; a series' parameter is its smoothing Y, so dyadic blocks
that share a Y are one run.  One pass serves a T grid: a MomentRecord, one
ledger.csv row, per T and one QuadraturePass of diagnostics, with its
blocks, for summary.json.  Cells that share a grid share its pass: the
cells of one call (`_integrate_cells`, `_experiments`, of which
integrate_moment_grid and exponent_experiment are the one-cell calls) are
grouped by kind (zeta, or a series at one table length), start step and
top T; each block of a group's grid is evaluated once, with every cell's
weight columns in one phase sum, and each halving level re-evaluates only
the cells whose Simpson check failed, so every cell gets the values,
records and diagnostics of its own pass.  Residual magnitudes are
fitted log-log against T and compared with the tabulated error-term
exponents (the beta-envelope and sigma*-energy routes plus older comparison
bounds).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import CoeffTable, PrecisionError, prime_sieve
from .evaluate import _EPS, _em_cut, _smoothed_grids, _zeta_em_grids, gamma_fn, zeta_em
from .modularforms import rankin_A

__all__ = [
    "MainTermConstant",
    "MomentRecord",
    "MomentRecords",
    "QuadraturePass",
    "PassBlock",
    "FitResult",
    "TheoryConstants",
    "THEORY",
    "BudgetError",
    "DegenerateInputError",
    "main_term_zeta",
    "main_term_zeta_direct",
    "main_term_series",
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


class Family(NamedTuple):
    """A moment family, the one definition the library and the CLI read."""

    table: str | None  # coefficient table label; None: zeta, by Euler-Maclaurin
    k: int | None  # None: zeta, any k in 1.._ZETA_K_MAX
    tail: int | None  # main-term tail's log degree: a~^2 flat, (a~*a~)^2 log^3, c_n^2 log^1+eps
    pole: bool  # at s = 1; a series takes the residue from its table
    default_N: int | None  # table length of a manifest cell that names none


FAMILIES = {
    "zeta": Family(None, None, None, True, None),
    "F2": Family("a_tilde", 1, 0, False, 160_000),
    "F4": Family("a_tilde_sq_conv", 2, 3, False, 160_000),
    "Z2": Family("rankin_c", 1, 1, True, 100_000),
}
_ZETA_K_MAX = 6  # the top zeta k of THEORY's beta_k and sigma*_k and of main_term_zeta


def family_of(name: str, k: int | None = None) -> Family:
    """The FAMILIES entry of `name`; a k that is given must be the family's,
    or for zeta an integer in 1.._ZETA_K_MAX."""
    fam = FAMILIES.get(name)
    if fam is None:
        raise ValueError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")
    if k is not None and fam.k not in (None, k):
        raise ValueError(f"family {name} has k={fam.k}, not k={k}")
    if k is not None and fam.k is None and not (isinstance(k, (int, np.integer))
                                                and 1 <= k <= _ZETA_K_MAX):
        raise ValueError(f"family {name} takes an integer k in 1..{_ZETA_K_MAX}, not k={k!r}")
    return fam


def _checked_family(name: str, k: int, coeffs: CoeffTable | None) -> Family:
    """family_of(name, k), with coeffs checked to be the family's own table."""
    fam = family_of(name, k)
    label = None if coeffs is None else coeffs.label
    if label != fam.table:
        raise ValueError(f"family {name} takes the table {fam.table!r}, not {label!r}")
    return fam


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


@dataclass(frozen=True)
class MomentRecord:
    """One ledger.csv row; its fields are the columns, in order."""

    family: str
    k: int
    sigma: float
    T: float
    integral: float
    main: float = float("nan")
    residual: float = float("nan")
    quad_err: float = float("nan")


class PassBlock(NamedTuple):
    """One block of a quadrature pass, for summary.json: its first and last
    t, its points and its evaluation parameter, zeta's Euler-Maclaurin cut
    or a series' smoothing Y (the other is None), and for zeta the block's
    `_zeta_em` error estimate, the largest |zeta - value| it allows on the
    block (None for a series)."""

    t_first: float
    t_last: float
    points: int
    em_cut: int | None = None
    Y: float | None = None
    estimate: float | None = None


@dataclass(frozen=True)
class QuadraturePass:
    """One quadrature pass's diagnostics, for summary.json only: em_cut is zeta's
    top Euler-Maclaurin cut, the one its top block ran at, spread the max
    Y-doubling spread, blocks the final level's PassBlocks, *_s wall
    seconds."""

    h: float = 0.0
    level: int = 0
    points: int = 0
    em_cut: int | None = None
    spread: float = 0.0
    blocks: tuple = ()
    integrand_s: float = field(default=0.0, compare=False)
    simpson_s: float = field(default=0.0, compare=False)


class MomentRecords(list):
    """A quadrature pass's MomentRecords, in increasing T, and its diagnostics."""

    quadrature = QuadraturePass()


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


THEORY = TheoryConstants()


# ---------------------------------------------------------------------------
# Main-term constants
# ---------------------------------------------------------------------------

_PRIME_BLOCK = 1 << 13  # primes per block of main_term_zeta's Euler product


def main_term_zeta(k: int, sigma: float, prime_cut: int = 10**6) -> MainTermConstant:
    """C(k, sigma) = sum d_k(n)^2 n^{-2 sigma} by Euler product.

    Factor out zeta(2s)^{k^2}; with x = p^{-2s} the residual local factor is
    g_p = (1-x)^{k^2} 2F1(k, k; 1; x).  Euler's transformation
    2F1(k, k; 1; x) = (1-x)^{1-2k} 2F1(1-k, 1-k; 1; x) makes it a polynomial
    times a power:
        g_p = (1-x)^{(k-1)^2} N_k(x),  N_k(x) = sum_{i<k} C(k-1, i)^2 x^i,
    so log g_p = (k-1)^2 log1p(-x) + log1p(x N'(x)), N' = (N_k - 1)/x, in one
    pass over the primes p <= prime_cut, _PRIME_BLOCK at a time.  As
    g_p = 1 - (k(k-1)/2)^2 x^2 + ..., the tail over p > P is bounded by the
    x^2 term: sum_{p>P} |log g_p| <= 2 (k(k-1)/2)^2 sum_{n>P} n^{-4 sigma}.

    tail_bound is that tail plus the rounding, relative to the value: each
    log term is good to (k + 2) eps of itself (x, the degree k - 2
    polynomial N', log1p); numpy sums a block pairwise, in blocks of 128
    over 8 lanes, so no term passes more than log2 m + 32 additions in a
    block of m terms, and `math.fsum` adds the blocks' sums with one
    rounding, so each of the two sums, all of whose terms share a sign, is
    good to (log2 m + 33) eps/2 of the sum of their moduli, m the largest
    block; exp, the power and the product cost 3 eps; and zeta(2s) is good
    to its own zeta_em estimate, which enters k^2 times.  k = 1 is zeta(2s)
    itself, returned with that estimate as its tail_bound.  k = 2 is
    Ramanujan's zeta(2s)^4/zeta(4s), with no prime pass (prime_cut is
    unused): its tail_bound is the two zeta_em estimates, zeta(2s)'s
    entering 4 times, plus 3 eps of the value for the power and the
    division.
    """
    if not sigma > 0.5:
        raise ValueError(f"the series diverges for sigma <= 1/2, not sigma={sigma}")
    if not 1 <= k <= _ZETA_K_MAX:
        raise ValueError(f"euler_product path supports 1 <= k <= {_ZETA_K_MAX}")
    s2 = 2.0 * sigma
    z = zeta_em(complex(s2, 0.0), 1e-10)
    zs = z.value.real
    if k == 1:
        return MainTermConstant("zeta", 1, sigma, zs, z.abs_error_estimate)
    if k == 2:
        z4 = zeta_em(complex(2.0 * s2, 0.0), 1e-10)
        value = zs**4 / z4.value.real
        rel = 4.0 * z.abs_error_estimate / zs + z4.abs_error_estimate / z4.value.real + 3.0 * _EPS
        return MainTermConstant("zeta", 2, sigma, value, rel * value)
    primes = prime_sieve(prime_cut)
    coef = [math.comb(k - 1, i) ** 2 for i in range(1, k)]  # N' = sum coef[i] x^i
    downs, ups = [], []  # per block: sum log1p(-x) <= 0 and sum log1p(x N') >= 0
    for b0 in range(0, len(primes), _PRIME_BLOCK):
        x = primes[b0: b0 + _PRIME_BLOCK].astype(np.float64)
        x **= -s2
        y = np.full_like(x, coef[-1])
        for c in reversed(coef[:-1]):
            y *= x
            y += c
        y *= x
        np.log1p(y, out=y)
        ups.append(float(y.sum()))
        np.negative(x, out=x)
        np.log1p(x, out=x)
        downs.append(float(x.sum()))
    down = (k - 1) ** 2 * math.fsum(downs)
    up = math.fsum(ups)
    value = zs ** (k * k) * math.exp(down + up)
    # prime tail: |log g_p| <= 2 c2 p^{-4 sigma} with c2 = (k(k-1)/2)^2
    c2 = (k * (k - 1) / 2) ** 2
    tail_log = 2.0 * c2 * prime_cut ** (1.0 - 2.0 * s2) / (2.0 * s2 - 1.0)
    tail = value * math.expm1(tail_log) if tail_log < 1 else float("inf")
    m = max(min(len(primes), _PRIME_BLOCK), 1)
    rel = (_EPS * ((k + 2 + 0.5 * (math.log2(m) + 33)) * (up - down) + 3)
           + k * k * z.abs_error_estimate / zs)
    return MainTermConstant("zeta", k, sigma, value, tail + rel * value)


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


def _completed_sum(table: CoeffTable, sigma: float, q: int) -> tuple[float, float]:
    """sum table(n)^2 n^{-2 sigma} over the table plus its log-density tail.

    Returns (value, tail uncertainty); q is the tail's log-power degree.
    """
    n = np.arange(1, table.N + 1, dtype=np.float64)
    w = table.values.astype(np.float64) ** 2
    partial = float(np.sum(w * n ** (-2.0 * sigma)))
    tail, uncert = _log_density_tail(w, sigma, q)
    return partial + tail, uncert


def main_term_zeta_direct(k: int, sigma: float, table: CoeffTable) -> MainTermConstant:
    """C(k, sigma) by direct summation of d_k(n)^2 n^{-2 sigma} over the table.

    The tail beyond N is completed with the empirical log-power density of
    d_k^2 (degree k^2 - 1); the completion uncertainty is the tail bound.
    """
    if not sigma > 0.5:
        raise ValueError(f"the series diverges for sigma <= 1/2, not sigma={sigma}")
    if table.generator_params.get("k") != k:
        raise ValueError("table is not a d_k table for this k")
    value, uncert = _completed_sum(table, sigma, k * k - 1)
    return MainTermConstant("zeta", k, sigma, value, uncert)


def main_term_series(coeffs: CoeffTable, sigma: float) -> MainTermConstant:
    """sum coeffs(n)^2 n^{-2 sigma} with a density-completed tail.

    The family is the one whose table coeffs is, by label; the completion
    degree is its `tail`.
    """
    if not sigma > 0.5:
        raise ValueError(f"the series diverges for sigma <= 1/2, not sigma={sigma}")
    name = next((n for n, f in FAMILIES.items() if f.table == coeffs.label), None)
    if name is None:
        raise ValueError(f"no moment family has the table {coeffs.label!r}")
    value, uncert = _completed_sum(coeffs, sigma, FAMILIES[name].tail)
    if sigma < 0.55 and uncert > 1e-3 * value:
        raise PrecisionError(
            f"tail too large near sigma=1/2: {uncert:.3g} vs value {value:.3g}"
        )
    return MainTermConstant(name, FAMILIES[name].k, sigma, value, uncert)


# ---------------------------------------------------------------------------
# Moment quadrature
# ---------------------------------------------------------------------------

_ZETA_CHUNK = 1 << 20  # most points of one block, a zeta chunk or a piece of a series run


def _blocks(ts: np.ndarray, param) -> list:
    """[i0, i1) and parameter p of each block of an increasing t-grid.

    The grid splits where p = param(hi) changes between its nonempty dyadic
    t-blocks [lo, hi), edges 0, 50, 100, ... doubled until past the grid's
    largest t, and each run of one p into the fewest chunks of at most
    _ZETA_CHUNK points, their lengths differing by at most one.  The blocks
    depend on the grid alone."""
    edges = [0.0, 50.0]
    while edges[-1] <= ts[-1]:
        edges.append(2.0 * edges[-1])
    runs = []  # [i0, i1, p]
    cut = np.searchsorted(ts, edges)
    for i0, i1, hi in zip(cut[:-1], cut[1:], edges[1:]):
        if i1 > i0:
            p = param(hi)
            if runs and runs[-1][2] == p:
                runs[-1][1] = i1
            else:
                runs.append([i0, i1, p])
    out = []
    for i0, i1, p in runs:
        n = -(-(i1 - i0) // _ZETA_CHUNK)
        ends = [i0 + (i1 - i0) * i // n for i in range(n + 1)]
        out += [(a, b, p) for a, b in zip(ends[:-1], ends[1:])]
    return out


class _CellPass:
    """One cell of a shared pass: its checked inputs (slack only for its
    fit), its running stage times, and its records once its Simpson check
    passes."""

    def __init__(self, family: str, k: int, sigma: float, T_grid, rel_tol: float = 1e-4,
                 coeffs: CoeffTable | None = None, slack: float = 0.25):
        self.fam = _checked_family(family, k, coeffs)
        T_grid = sorted(float(T) for T in T_grid)
        _check_ranges(sigma, T_grid, rel_tol)
        if not math.isfinite(slack):
            raise ValueError(f"slack must be finite, not {slack}")
        self.family, self.k, self.sigma, self.rel_tol, self.coeffs = family, k, sigma, rel_tol, coeffs
        self.slack = slack
        self.done = [MomentRecord(family, k, sigma, T, 0.0, quad_err=0.0) for T in T_grid if T <= 1.0]
        self.todo = [T for T in T_grid if T > 1.0]
        self.records = None if self.todo else MomentRecords(self.done)
        self.integrand_s = self.simpson_s = 0.0

    def points(self, h: float) -> list:
        """Each T's count of steps h/2 from 1, snapped down to a multiple of 4 so
        that both Simpson counts are even; two T on one point are an error."""
        m2 = [m - m % 4 for m in (round((T - 1.0) / (h / 2.0)) for T in self.todo)]
        if len(set(m2)) < len(m2):
            raise ValueError(f"T_grid {self.todo} puts two T on one grid point at step {h:g}")
        return m2

    def simpson(self, y: np.ndarray, h: float) -> list | None:
        """A record per T from the integrand y at step h/2, or None as soon as
        one T's step-halving difference misses rel_tol."""
        h2 = h / 2.0
        out = []
        for m2 in self.points(h):
            I_h = _simpson_prefix(y[::2], h, m2 // 2)
            I_h2 = _simpson_prefix(y, h2, m2)
            qerr = abs(I_h - I_h2)
            if qerr > self.rel_tol * max(abs(I_h2), 1e-300):
                return None
            out.append(MomentRecord(self.family, self.k, self.sigma, 1 + h2 * m2, I_h2, quad_err=qerr))
        return out


# most points x weight columns of one phase-sum call: a grouped block splits
# its cells into calls of at most this many, so that a wide sigma sweep at
# T = 1e5 holds no more per call than a two-column chunk of _ZETA_CHUNK points
_SHARED_POINTS = 2 * _ZETA_CHUNK


def _group_evaluator(group: list):
    """(param, block) for the cells of one group: param(hi), their evaluation
    parameter on a dyadic t-block below hi, and block(tt, p, cells), per
    cell the |.|^{2k} of the points tt at parameter p, its Y-doubling spread
    and its PassBlock's parameter fields.  One evaluation serves every cell:
    zeta's columns n^-sigma, one per cell, are summed by Euler-Maclaurin at
    the block's own top cut, and each PassBlock carries its cell's estimate;
    a series is smoothed at Y = min(max(2 hi, 100), N/74), as Y must grow
    with t, with each table's Y and 2Y columns and a pole's residue A
    (sum_{n<=x} c_n = A x + Delta) estimated from the cell's own table, and
    timed with its integrand.  The cells of a block share calls of at most
    _SHARED_POINTS points x columns, whole cells each."""
    if group[0].fam.table is None:
        def zeta_block(tt, _, cells):
            out = []
            for batch in _batches(cells, len(tt)):
                values, ests = _zeta_em_grids([c.sigma for c in batch], tt)
                out += [(np.abs(values[:, i]) ** (2 * c.k), 0.0,
                         {"em_cut": _em_cut(tt[-1]), "estimate": est})
                        for i, (c, est) in enumerate(zip(batch, ests))]
            return out

        return (lambda hi: None), zeta_block
    tables = {}
    for c in group:
        t0 = time.perf_counter()
        residue = rankin_A(c.coeffs, c.coeffs.N)[0] if c.fam.pole else None
        tables[c] = (np.asarray(c.coeffs.values, dtype=np.float64), c.sigma, residue)
        c.integrand_s += time.perf_counter() - t0

    def block(tt, Y, cells):
        out = []
        for batch in _batches(cells, 2 * len(tt)):
            out += [(np.abs(vals) ** 2, spread, {"Y": Y})
                    for vals, spread in _smoothed_grids([tables[c] for c in batch], tt, Y)]
        return out

    N = group[0].coeffs.N
    return (lambda hi: min(max(2.0 * hi, 100.0), N / 74.0)), block


def _batches(cells: list, column_points: int) -> list:
    """cells in runs of at most _SHARED_POINTS // column_points, at least one:
    column_points is one cell's points x columns."""
    size = max(1, _SHARED_POINTS // column_points)
    return [cells[i: i + size] for i in range(0, len(cells), size)]


def _integrand_grid(ts: np.ndarray, param, block, cells: list) -> list:
    """block(tt, p, cells) on each block of _blocks(ts, param), in order,
    joined per cell: its values, its max spread and its PassBlocks."""
    args = [(ts[i0:i1], p, cells) for i0, i1, p in _blocks(ts, param)]
    out = []
    for mine in zip(*(block(*a) for a in args)):  # per cell, its result of each block
        values = mine[0][0] if len(mine) == 1 else np.concatenate([r[0] for r in mine])
        info = tuple(PassBlock(float(tt[0]), float(tt[-1]), len(tt), **r[2])
                     for (tt, _, _), r in zip(args, mine))
        out.append((values, max(r[1] for r in mine), info))
    return out


def _simpson_prefix(y: np.ndarray, h: float, m: int) -> float:
    """Simpson over y[0..m] (m even) with step h."""
    if m == 0:
        return 0.0
    yy = y[: m + 1]
    return h / 3.0 * float(yy[0] + yy[-1] + 4.0 * yy[1:-1:2].sum() + 2.0 * yy[2:-1:2].sum())


def moment_step(family: str, k: int, T_max: float) -> float:
    """Simpson's start step h for the 2k-th moment of `family` over [1, T_max].

    zeta: the coarsest h = 1/(2q), q an integer of at least 2, with
    h k log M <= pi, where M = _em_cut(T_max) is the grid's top
    Euler-Maclaurin cut.  |sum_{n<M} n^{-s}|^{2k} has frequencies of at most
    k log M, so the nodes take at least 2 samples per period of the top one
    at h (its Nyquist limit) and 4 at h/2; chunks with different cuts agree
    to rounding.  The cap h <= 1/4 binds only for k = 1 and T_max <= 267:
    from h = 1/2 a grid that holds a small T (T_grid = 25 50 100 200) fails
    the first level and refines to the grid h = 1/4 starts from.  As 1/h is
    an even integer, (T - 1)/(2h) is an integer for integer T, which stays
    on the grid at every halving level.

    F2, F4, Z2: min(0.02, 0.4/log T_max).  Their integrand jumps at the block
    edges, where the smoothing Y changes, and at a coarser start the
    step-halving difference no longer bounds the true error with a margin.
    """
    if family_of(family, k).table is not None:
        return min(0.02, 0.4 / math.log(T_max)) if T_max > 1 else 0.02
    q = max(2, math.ceil(k * math.log(_em_cut(T_max)) / (2.0 * math.pi)))
    return 1.0 / (2 * q)


def integrate_moment_grid(
    family: str,
    k: int,
    sigma: float,
    T_grid,
    rel_tol: float = 1e-4,
    coeffs: CoeffTable | None = None,
) -> MomentRecords:
    """One shared quadrature pass producing a MomentRecord per T in T_grid.

    The integrand is evaluated once on the half-step grid, from the start
    step h = moment_step(family, k, max T); each requested T gets the
    Simpson value at step h plus the step-halved value, and their difference
    is the recorded quadrature error (must clear rel_tol, else the step is
    halved, at most 4 levels in all).  The list's `quadrature` holds the
    pass's diagnostics.  A one-cell `_integrate_cells`.
    """
    cell = dict(family=family, k=k, sigma=sigma, T_grid=T_grid, rel_tol=rel_tol, coeffs=coeffs)
    return _integrate_cells([cell])[0]


def _integrate_cells(cells: list, *, refine: int = 1) -> list:
    """integrate_moment_grid of each cell, given as a dict of its arguments,
    by one pass per group of cells that share a grid, from the start step
    moment_step(...)/refine; a refine > 1 gives the finer values a quad_err
    is checked against, on grids refine times as large."""
    passes, groups = _plan(cells, refine)
    _run_groups(groups)
    return [p.records for p in passes]


def _plan(cells: list, refine: int) -> tuple:
    """The _CellPass of each cell, and its groups: (h0, Tmax) -> the cells
    that share that start step and top T and one kind of evaluation (zeta,
    or a series at one table length), whose grids at every level are the
    same.  Every cell's family, table and ranges are checked here, before
    any evaluation; at refine 1 they hold every grid to 4e6 points."""
    passes = [_CellPass(**c) for c in cells]
    groups: dict = {}
    for p in passes:
        if p.todo:
            N = None if p.coeffs is None else p.coeffs.N
            h0 = moment_step(p.family, p.k, p.todo[-1]) / refine
            for level in range(4):  # distinct T points on every level _run_groups may reach
                p.points(h0 / 2 ** level)
            groups.setdefault((p.fam.table is None, N, h0, p.todo[-1]), []).append(p)
    return passes, groups


def _run_groups(groups: dict) -> None:
    """One pass per group: each level evaluates the group's grid at h/2
    once, for the cells whose Simpson check has not passed yet, so every cell
    gets the grids, blocks, cuts, Y and values of its own pass.  A level's
    evaluation time is split evenly among the cells it evaluated; each cell's
    Simpson time is its own."""
    for (_, _, h0, Tmax), cells in groups.items():
        param, block = _group_evaluator(cells)
        h, level = h0, 1  # the current grid is at h/2
        while cells:
            t0 = time.perf_counter()
            npts = round((Tmax - 1.0) / (h / 2.0)) + 1
            results = _integrand_grid(1.0 + h / 2.0 * np.arange(npts), param, block, cells)
            share = (time.perf_counter() - t0) / len(cells)
            failed = []
            for c, (y, spread, blocks) in zip(cells, results):
                t1 = time.perf_counter()
                c.integrand_s += share
                out = c.simpson(y, h)
                c.simpson_s += time.perf_counter() - t1
                if out is None:
                    failed.append(c)
                    continue
                c.records = MomentRecords(c.done + out)
                c.records.quadrature = QuadraturePass(h0, level, npts, blocks[-1].em_cut, spread,
                                                      blocks, c.integrand_s, c.simpson_s)
            cells, h = failed, h / 2.0
            level += 1
            if cells and level > 4:
                raise BudgetError("step halving did not converge within 4 levels")


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


def _one_swap_terms(alpha: np.ndarray, beta: np.ndarray, logp: np.ndarray, zeta):
    """Exponents alpha_i + beta_j and coefficients of the k^2 one-swap terms.

    Swapping alpha_i with beta_j gives A' = A - {alpha_i} + {-beta_j},
    B' = B - {beta_j} + {-alpha_i} and the coefficient
    prod_{a in A', b in B'} zeta(1 + a + b) A_k(A'; B'), with A_1 = 1,
    A_2 = 1/zeta(2 + sum A' + sum B') and A_3 by Euler product (the
    caller's zeta, which may reuse values).
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
                    z *= zeta(1.0 + u + v)
            rows_a.append(a)
            rows_b.append(b)
            expo.append(alpha[i] + beta[j])
            coef.append(z)
    coef = np.array(coef)
    if k == 2:
        coef /= [zeta(2.0 + a.sum() + b.sum()) for a, b in zip(rows_a, rows_b)]
    elif k == 3:
        coef *= _euler_arith_factor(np.array(rows_a), np.array(rows_b), logp)
    return np.array(expo), coef


def _one_swap_nodes(k: int, sigma: float, radius: float):
    """The one-swap terms at the Cauchy nodes eps_n = radius e^{2 pi i n/N}.

    The shifts are alpha_j = beta_j = sigma - 1/2 + eps_n d_j with distinct
    directions d_j = e^{2 pi i j/k}/2.  Returns the nodes and, per node, the
    k^2 exponents and coefficients; only the t-weights depend on T.  The nodes
    share their zeta values, as most arguments 1 + a + b recur.
    """
    d = sigma - 0.5
    dirs = 0.5 * np.exp(2j * np.pi * np.arange(k) / k)
    eps = radius * np.exp(2j * np.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
    logp = np.log(prime_sieve(_RECIPE_PRIME_CUT).astype(np.float64)) if k == 3 else None
    zeta = lru_cache(maxsize=None)(lambda s: zeta_em(s, 1e-10).value)
    terms = [_one_swap_terms(d + e * dirs, d + e * dirs, logp, zeta) for e in eps]
    return eps, np.array([x for x, _ in terms]), np.array([c for _, c in terms])


def _one_swap_recipe(k: int, sigma: float, T):
    """The k^2 one-swap recipe terms at shifts sigma - 1/2, integrated over [1, T].

    T may be an array; the Cauchy nodes are built once.  Each term carries
    the weight (t/2 pi)^{-x}, x = alpha_i + beta_j, whose integral over
    [1, T] is (2 pi)^x (T^{1-x} - 1)/(1 - x).  The terms have poles of order
    up to 2k - 2 where the shifts coincide; their sum is holomorphic, and its
    value there is the mean over the Cauchy nodes.  The evaluation is
    repeated at half the radius; the two must agree, the principal part at
    the nodes must vanish and the value must be real, each to _CAUCHY_TOL
    relative at every T, else PrecisionError.
    """
    # the sum is holomorphic while the shifts keep 0 < Re(alpha_i + beta_j) < 1
    R = min(2.0 * sigma - 1.0, 2.0 - 2.0 * sigma)
    T = np.asarray(T, dtype=np.float64)[..., None, None]  # over nodes and terms
    values = []
    for radius in (0.35 * R, 0.175 * R):
        eps, x, c = _one_swap_nodes(k, sigma, radius)
        F = (c * (2.0 * math.pi) ** x * (T ** (1.0 - x) - 1.0) / (1.0 - x)).sum(axis=-1)
        value = F.mean(axis=-1)
        u = eps / radius
        for m in range(1, 2 * k - 1):
            principal = abs(np.mean(F * u**m, axis=-1))
            if np.any(principal > _CAUCHY_TOL * abs(value)):
                raise PrecisionError(f"one-swap poles do not cancel: principal part "
                                     f"{principal} vs value {abs(value)}")
        values.append(value)
    v, v_half = values
    if np.any(np.maximum(abs(v - v_half), abs(v.imag)) > _CAUCHY_TOL * abs(v)):
        raise PrecisionError(f"one-swap sum unstable: {v} at radius r vs {v_half} at r/2")
    return v.real


def secondary_term(sigma: float, T, k: int = 1):
    """The secondary (off-diagonal) main term S_k of the 2k-th zeta moment.

    At T a float, or at each T of an array.  k = 1: the classical
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
    T = np.asarray(T, dtype=np.float64) if np.ndim(T) else float(T)
    if k == 1:
        return _secondary_factor(sigma) * T ** (2.0 - 2.0 * sigma)
    if k not in (2, 3):
        raise ValueError(f"secondary terms cover k = 1, 2, 3, not k={k}")
    return _one_swap_recipe(k, sigma, T)


def _secondary_factor(sigma: float) -> float:
    """S_1's factor of T^{2-2 sigma}: zeta(2 sigma-1) Gamma(2 sigma-1) sin(pi sigma)/(1-sigma)."""
    _check_sigma(sigma)
    z = zeta_em(complex(2.0 * sigma - 1.0, 0.0), 1e-10).value.real
    g = gamma_fn(complex(2.0 * sigma - 1.0, 0.0)).value.real
    return z * g * math.sin(math.pi * sigma) / (1.0 - sigma)


def residual(rec: MomentRecord, C: MainTermConstant) -> MomentRecord:
    """Fill main = C*T (+ secondary term for the k=1 zeta family) and residual."""
    return _residuals([rec], C)[0]


def _residuals(records, C: MainTermConstant) -> list:
    """residual() of each record, with S_1's factor computed once per sigma
    and each row's own T^{2-2 sigma}, so every row equals residual()'s."""
    factors = {}
    out = []
    for rec in records:
        if C.family != rec.family or C.k != rec.k:
            raise ValueError(f"constant {C.family},k={C.k} does not match record "
                             f"{rec.family},k={rec.k}")
        if abs(C.sigma - rec.sigma) > 1e-12:
            raise ValueError("sigma mismatch between record and constant")
        main = C.value * rec.T
        if rec.family == "zeta" and rec.k == 1:
            if rec.sigma not in factors:
                factors[rec.sigma] = _secondary_factor(rec.sigma)
            main += factors[rec.sigma] * float(rec.T) ** (2.0 - 2.0 * rec.sigma)
        out.append(replace(rec, main=main, residual=rec.integral - main))
    return out


# ---------------------------------------------------------------------------
# Power-law fits
# ---------------------------------------------------------------------------

def fit_power_law(points, strict: bool = True) -> FitResult:
    """Least squares on (log X, log |V|); zero V dropped.

    strict enforces the documented preconditions (>= 8 usable points over
    >= 1.5 decades); envelope fits on short moment grids pass strict=False.
    """
    pts = [(float(x), float(v)) for x, v in points if v != 0.0]
    if not all(0 < x < math.inf and abs(v) < math.inf for x, v in pts):
        raise DegenerateInputError("X values must be positive and finite, V values finite")
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


def _check_ranges(sigma: float, T_grid, rel_tol: float | None) -> None:
    """The ranges a moment cell must lie in, checked before it evaluates
    anything: sigma in (1/2, 1), rel_tol in [1e-5, 1e-2] (None, a caller's
    default, is not checked) and every T finite and in [1, 5000]."""
    _check_sigma(sigma)
    if rel_tol is not None and not 1e-5 <= rel_tol <= 1e-2:
        raise ValueError(f"rel_tol must lie in [1e-5, 1e-2], not {rel_tol}")
    if not all(1.0 <= T <= 5000.0 for T in T_grid):
        raise ValueError(f"T_grid {list(T_grid)} has a T outside the desk range [1, 5000]")


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
    quadrature: QuadraturePass
    near_half: bool = False
    # wall seconds per stage: main_term, integrand, simpson_fit
    stage_s: dict = field(default_factory=dict, compare=False)


def exponent_experiment(
    family: str,
    k: int,
    sigma: float,
    T_grid,
    coeffs: CoeffTable | None = None,
    rel_tol: float = 1e-4,
    slack: float = 0.25,
) -> ExperimentResult:
    """Integrate the moment over T_grid, extract residuals, fit |R| vs T and
    compare the slope against the theory exponent plus slack.

    Family, k and coeffs are checked against FAMILIES before any evaluation.
    Within 0.05 of sigma = 1/2 the experiment runs but refuses to pass
    (slow convergence makes the claim unverifiable there).  A one-cell
    `_experiments`.
    """
    cell = dict(family=family, k=k, sigma=sigma, T_grid=T_grid, coeffs=coeffs,
                rel_tol=rel_tol, slack=slack)
    return _experiments([cell])[0]


def _experiments(cells: list) -> list:
    """exponent_experiment of each cell, given as a dict of its arguments
    (slack 0.25 where it names none), with one integrand pass per group of
    cells that share a grid (see `_plan`).  Every cell is checked before any
    main term or integrand is evaluated."""
    passes, groups = _plan(cells, 1)
    constants, main_s = [], []
    for p in passes:
        t0 = time.perf_counter()
        constants.append(main_term_zeta(p.k, p.sigma) if p.fam.table is None
                         else main_term_series(p.coeffs, p.sigma))
        main_s.append(time.perf_counter() - t0)
    _run_groups(groups)
    out = []
    for p, constant, t_main in zip(passes, constants, main_s):
        t2 = time.perf_counter()
        grid = p.records
        records = _residuals(grid, constant)
        theo = theory_exponent(p.family, p.k, p.sigma)
        fit = fit_power_law([(r.T, r.residual) for r in records if r.T > 1], strict=False)
        near_half = p.sigma - 0.5 < 0.05
        passed = (fit.slope <= theo + p.slack) and not near_half
        fit = replace(fit, theory_exponent=theo, slack=p.slack, pass_=passed)
        stage_s = {"main_term": t_main, "integrand": grid.quadrature.integrand_s,
                   "simpson_fit": grid.quadrature.simpson_s + time.perf_counter() - t2}
        out.append(ExperimentResult(p.family, p.k, p.sigma, records, fit, constant,
                                    grid.quadrature, near_half, stage_s))
    return out
