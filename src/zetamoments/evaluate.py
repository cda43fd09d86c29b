"""Numerical evaluation of zeta, Gamma, chi and smoothed Dirichlet series.

zeta(s) is computed by Euler-Maclaurin summation with cut M = max(2|t|, 50)
and 12 Bernoulli correction terms; the reported error estimate combines the
first omitted Bernoulli term (classical remainder bound) with a worst-case
rounding model for the main sum, so it stays honest at large |t| where
argument reduction in exp(-it log n) dominates.

Gamma(s) uses a fixed Lanczos rational approximation (g=7, 9 terms) with
reflection for Re s < 1/2; chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) is
assembled in log space so it stays finite at any desk height.

Dirichlet series outside their half-plane of absolute convergence are
evaluated through the exponential smoothing kernel: the Mellin pair
e^{-x} = (1/2pi i) int Gamma(w) x^{-w} dw turns sum a_n e^{-n/Y} n^{-s}
into the target value plus Gamma-pole/series-pole corrections.  The
operation subtracts the pole term A Gamma(1-s) Y^{1-s} when the target has
a simple pole at s=1, evaluates at Y and 2Y, and returns the Richardson
combination 2 v(2Y) - v(Y) (the O(1/Y) term from the Gamma pole at w=-1
cancels); the Y-doubling difference is the reported error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import CoeffTable, PrecisionError

__all__ = [
    "EvalResult",
    "PoleError",
    "zeta_em",
    "zeta_em_grid",
    "gamma_fn",
    "loggamma",
    "chi_factor",
    "smoothed_dirichlet",
    "smoothed_grid",
    "dump_eval_csv",
]

_EPS = 2.2e-16

# B_2 .. B_26 as exact-rational floats (Euler-Maclaurin correction weights)
_BERN2R = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
    -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
    -236364091 / 2730, 8553103 / 6,
]
_EM_TERMS = 12


class PoleError(Exception):
    """Evaluation requested at (or too close to) a pole."""


@dataclass(frozen=True)
class EvalResult:
    value: complex
    abs_error_estimate: float
    method: str


def _em_cut(t: float) -> int:
    return int(max(2.0 * abs(t), 50.0))


def zeta_em(s: complex, target_abs_err: float = 1e-9, M: int | None = None) -> EvalResult:
    """zeta(s) by Euler-Maclaurin; raises if the target is out of reach.

    M overrides the summation cut (default max(2|t|, 50)); it must stay
    >= |t|/pi for the Bernoulli tail to converge.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta has its pole at s=1")
    if abs(s.imag) > 1e5:
        raise PrecisionError("|t| > 1e5 is outside the configured desk range")
    if target_abs_err < 1e-12:
        raise PrecisionError("target_abs_err below the 1e-12 floor")
    if M is None:
        M = _em_cut(s.imag)
    elif M < abs(s.imag) / math.pi:
        raise ValueError("cut M below |t|/pi: Euler-Maclaurin tail would diverge")
    n = np.arange(1, M, dtype=np.float64)
    ln = np.log(n)
    npw = n ** (-s.real)
    terms = npw * np.exp(-1j * s.imag * ln)
    Ms = M ** (-s)
    z = terms.sum() + Ms * (0.5 + M / (s - 1.0))
    poch = 1.0 + 0j
    for r in range(1, _EM_TERMS + 1):
        poch = poch * (s + (2 * r - 2)) * ((s + (2 * r - 3)) if r > 1 else 1.0)
        z += _BERN2R[r - 1] / math.factorial(2 * r) * M ** (1.0 - 2 * r) * Ms * poch
    # remainder bound: first omitted term * |s+2R+1|/(sigma+2R+1)
    r = _EM_TERMS + 1
    poch = poch * (s + (2 * r - 2)) * (s + (2 * r - 3))
    trunc = (
        abs(_BERN2R[r - 1]) / math.factorial(2 * r)
        * M ** (1.0 - 2 * r - s.real) * abs(poch)
        * abs(s + 2 * _EM_TERMS + 1) / (s.real + 2 * _EM_TERMS + 1)
    )
    # rounding model: phases of n^{-it} are known to eps*|t log n|
    rnd = _EPS * ((abs(s.imag) + 1.0) * float((npw * ln).sum()) + float(npw.sum()))
    est = trunc + rnd
    if est > target_abs_err:
        raise PrecisionError(
            f"zeta_em cannot reach {target_abs_err:g} at s={s} (estimate {est:g})"
        )
    return EvalResult(complex(z), est, "euler_maclaurin")


_N_TILE = 64  # terms per GEMM; small so the per-tile temporaries stay small


def _phase_dot(ts: np.ndarray, ln: np.ndarray, W: np.ndarray) -> np.ndarray:
    """out[i, :] = sum_n exp(-i ts[i] ln[n]) W[n, :], as one tiled complex GEMM.

    The grid is cut into A blocks of B = ceil(sqrt(len(ts))) points.  On a
    uniform grid t[aB+b] = t[aB] + b h, so exp(-i t ln n) factors exactly
    into a block-start matrix U[a, n] = exp(-i t[aB] ln n) and an offset
    matrix R[n, (b, j)] = exp(-i b h ln n) W[n, j], and each n-tile adds
    U @ R to all A*B rows at once.  The block starts are the grid points
    themselves and h = (t[-1] - t[0]) / (len - 1), so the phases carry no
    drift from an accumulated step.  A non-uniform grid is the same product
    with B = 1.  Tile boundaries and the reduction order are fixed, so the
    result depends only on the inputs.
    """
    ts = np.asarray(ts, dtype=np.float64)
    npts, ncol = len(ts), W.shape[1]
    if not npts:
        return np.zeros((0, ncol), dtype=np.complex128)
    h = (ts[-1] - ts[0]) / (npts - 1) if npts > 1 else 0.0
    offsets = h * np.arange(npts)
    # uniform to rounding: the factored phases then stay within a few ulps of t
    uniform = np.abs(ts - ts[0] - offsets).max() <= 8 * _EPS * np.abs(ts).max()
    B = math.isqrt(npts - 1) + 1 if uniform else 1
    starts = ts[::B]
    acc = np.zeros((len(starts), B * ncol), dtype=np.complex128)
    for j0 in range(0, len(ln), _N_TILE):
        lnt = ln[j0: j0 + _N_TILE]
        U = np.exp(-1j * np.outer(starts, lnt))
        R = np.exp(-1j * np.outer(lnt, offsets[:B]))[:, :, None] * W[j0: j0 + _N_TILE, None, :]
        acc += U @ R.reshape(len(lnt), B * ncol)
    return acc.reshape(-1, ncol)[:npts]


def zeta_em_grid(sigma: float, ts: np.ndarray) -> np.ndarray:
    """Vectorized zeta(sigma+it) on a grid, cut fixed per call at max |t|."""
    ts = np.asarray(ts, dtype=np.float64)
    if not len(ts):
        return np.empty(0, dtype=np.complex128)
    M = _em_cut(float(np.abs(ts).max()))
    n = np.arange(1, M, dtype=np.float64)
    ln = np.log(n)
    npw = n ** (-sigma)
    out = _phase_dot(ts, ln, npw[:, None])[:, 0]
    sv = sigma + 1j * ts
    Ms = M ** (-sv)
    out += Ms * (0.5 + M / (sv - 1.0))
    poch = np.ones_like(sv)
    for r in range(1, _EM_TERMS + 1):
        poch = poch * (sv + (2 * r - 2)) * ((sv + (2 * r - 3)) if r > 1 else 1.0)
        out += _BERN2R[r - 1] / math.factorial(2 * r) * M ** (1.0 - 2 * r) * Ms * poch
    return out


# ---------------------------------------------------------------------------
# Gamma and the functional-equation factor
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _logsin(z):
    """log(sin z), stable for large |Im z| (any branch; callers exponentiate)."""
    z = np.asarray(z, dtype=np.complex128)
    y = z.imag
    out = np.empty_like(z)
    mid = np.abs(y) <= 20.0
    out[mid] = np.log(np.sin(z[mid]))
    up = y > 20.0  # sin z ~ (i/2) e^{-iz}
    out[up] = -math.log(2.0) + 1j * (math.pi / 2.0) - 1j * z[up] + np.log1p(-np.exp(2j * z[up]))
    dn = y < -20.0  # sin z ~ (1/2i) e^{iz}
    out[dn] = -math.log(2.0) - 1j * (math.pi / 2.0) + 1j * z[dn] + np.log1p(-np.exp(-2j * z[dn]))
    return out


def loggamma(z):
    """log Gamma(z) (Lanczos g=7; reflection for Re z < 1/2), array-friendly.

    Branches are not normalized; use only under exp() or for magnitudes.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).copy()
    out = np.empty_like(z)
    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z)
    w = zz - 1.0
    x = np.full_like(zz, _LANCZOS_C[0])
    for i in range(1, 9):
        x += _LANCZOS_C[i] / (w + i)
    tvar = w + _LANCZOS_G + 0.5
    lg = _HALF_LOG_2PI + (w + 0.5) * np.log(tvar) - tvar + np.log(x)
    out[~refl] = lg[~refl]
    if refl.any():
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        out[refl] = math.log(math.pi) - _logsin(math.pi * z[refl]) - lg[refl]
    return out[0] if scalar else out


def gamma_fn(s: complex) -> EvalResult:
    """Gamma(s) to ~13 significant digits; pole error at 0, -1, -2, ..."""
    s = complex(s)
    if abs(s.imag) < 1e-12 and s.real <= 0 and abs(s.real - round(s.real)) < 1e-12:
        raise PoleError(f"Gamma pole at s={s}")
    lg = loggamma(s)
    if lg.real > 700.0:
        raise PrecisionError(f"Gamma({s}) overflows double precision")
    val = complex(np.exp(lg))
    return EvalResult(val, 5e-13 * abs(val) + 5e-308, "reflection")


def chi_factor(s: complex) -> EvalResult:
    """chi(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1 - s), in log space.

    Satisfies zeta(s) = chi(s) zeta(1-s) and |chi(1/2+it)| = 1.
    """
    s = complex(s)
    # Gamma(1-s) poles at s = 1, 2, 3, ... are cancelled by sin(pi s/2) only
    # at even s; guard the genuine poles (odd s >= 1 gives finite chi limits
    # that this direct formula cannot take).
    if abs(s.imag) < 1e-12 and s.real >= 1 and abs(s.real - round(s.real)) < 1e-12:
        raise PoleError(f"direct chi formula degenerate at s={s}")
    lg = (
        s * math.log(2.0)
        + (s - 1.0) * math.log(math.pi)
        + complex(_logsin(math.pi * s / 2.0))
        + complex(loggamma(1.0 - s))
    )
    if lg.real > 700.0:
        raise PrecisionError(f"chi({s}) overflows double precision")
    val = complex(np.exp(lg))
    return EvalResult(val, 1e-12 * abs(val) + 5e-308, "reflection")


# ---------------------------------------------------------------------------
# Smoothed Dirichlet evaluation (the contour-shift device)
# ---------------------------------------------------------------------------

def _pole_term(residue: float, s, Y: float):
    """residue * Gamma(1-s) * Y^(1-s); s may be an array."""
    one_m_s = 1.0 - np.asarray(s, dtype=np.complex128)
    return residue * np.exp(loggamma(one_m_s) + one_m_s * math.log(Y))


def _check_pole_collision(s: complex) -> None:
    w = 1.0 - s
    if abs(w.imag) < 1e-8 and w.real <= 1e-8 and abs(w.real - round(w.real)) < 1e-8:
        raise PoleError(
            f"pole correction degenerate: 1-s={w} hits a Gamma pole "
            "(the w=1-s and Gamma poles merge; the simple-pole formula does not apply)"
        )


def smoothed_dirichlet(
    coeffs: CoeffTable,
    s: complex,
    Y: float,
    pole: tuple | None = None,
) -> EvalResult:
    """Evaluate sum a_n n^{-s} off absolute convergence via e^{-n/Y} smoothing.

    pole = (location, residue) with location 1 subtracts the contour-shift
    residue A Gamma(1-s) Y^{1-s} (case Z); entire targets (F) pass None.
    A one-point `smoothed_grid`: the value is 2 v(2Y) - v(Y) and the raw
    difference |v(2Y) - v(Y)| is the reported self-consistency estimate.
    """
    s = complex(s)
    if Y <= 0:
        raise ValueError("Y must be positive")
    need = int(math.ceil(74.0 * Y))
    if coeffs.N < need:
        raise PrecisionError(
            f"table too short for Y={Y}: need N >= 74*Y = {need} (have {coeffs.N}) "
            "so that exp(-N/(2Y)) < 1e-16"
        )
    residue = None
    if pole is not None:
        loc, residue = pole
        if loc != 1:
            raise ValueError("only a pole at s=1 is supported")
        _check_pole_collision(s)
    value, spread = smoothed_grid(coeffs.values.astype(np.float64), s.real,
                                  np.array([s.imag]), Y, residue)
    return EvalResult(complex(value[0]), spread, "smoothed_series")


def smoothed_grid(
    values: np.ndarray,
    sigma: float,
    ts: np.ndarray,
    Y: float,
    residue: float | None = None,
) -> tuple[np.ndarray, float]:
    """Richardson-smoothed values on a t-grid plus the max Y-doubling spread.

    The Y and 2Y weights are the two columns of one `_phase_dot` call, so
    the second evaluation shares every complex exponential with the first.
    Terms run to n = 74 Y (or the table's end), where e^{-n/(2Y)} < 1e-16.
    """
    ts = np.asarray(ts, dtype=np.float64)
    cut2 = min(len(values), int(math.ceil(74.0 * Y)))
    n = np.arange(1, cut2 + 1, dtype=np.float64)
    npw = values[:cut2] * n ** (-sigma)
    W = np.stack([npw * np.exp(-n / Y), npw * np.exp(-n / (2.0 * Y))], axis=1)
    acc = _phase_dot(ts, np.log(n), W)
    v1 = acc[:, 0]
    v2 = acc[:, 1]
    if residue is not None:
        sv = sigma + 1j * ts
        v1 -= _pole_term(residue, sv, Y)
        v2 -= _pole_term(residue, sv, 2.0 * Y)
    spread = float(np.abs(v2 - v1).max()) if len(ts) else 0.0
    return 2.0 * v2 - v1, spread


def dump_eval_csv(path, rows) -> None:
    """Diagnostic dump of (s, EvalResult) pairs as CSV rows."""
    with open(path, "w") as f:
        f.write("sigma,t,value_re,value_im,abs_error_estimate,method\n")
        for s, r in rows:
            s = complex(s)
            f.write(f"{s.real!r},{s.imag!r},{r.value.real!r},{r.value.imag!r},"
                    f"{r.abs_error_estimate!r},{r.method}\n")
