"""Numerical evaluation of zeta, Gamma, chi and smoothed Dirichlet series.

zeta(s) is computed by Euler-Maclaurin summation with cut M = max(2|t|, 50),
in one body, `_zeta_em`, that takes several sigma on one grid and is shared
by the scalar `zeta_em` (a one-point grid), `zeta_em_grid` (cut at max |t|)
and the moment passes, after one domain check, the pole at s = 1 and the
desk range |t| <= 1e5.  The tail is added a block of at most 2^15 points at
a time, and each block sums the fewest Bernoulli correction terms, at most
12, whose remainder bound at its largest |t| is within 2^-10 of the main
sum's rounding bound.  The terms are summed by Horner in the quadratic
factors (s+2r-1)(s+2r) of their Pochhammer symbols, one complex product per
term and point, and multiplied by M^{-s} = exp(-s ln M) once, which on a
uniform grid is an exp at every 64th point times a table of rotations.  The
error estimate combines the first omitted Bernoulli term (classical
remainder bound) with a worst-case rounding model for the main sum, so it
stays honest at large |t| where argument reduction in exp(-it log n)
dominates, and a first-order rounding model of the Horner tail, each over
a block's own |t| range; a grid's is the largest of its blocks'.
`zeta_em` reports it, `zeta_em_grid` returns values only, and a moment pass
records it per block.

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
cancels); the Y-doubling difference is the reported error estimate.  The
pole term is evaluated only at the points where a Stirling bound on it
reaches a quarter ulp of the values it is subtracted from, so the result
is bit-identical to subtracting it everywhere.  `_smoothed_grids` smooths
several tables of one length on one grid at one Y in one phase sum.

Every grid evaluation is a phase sum sum_n W_n e^{-it ln n} with weight
columns in groups: one n^-sigma column per zeta sigma, a Y and a 2Y column
per smoothed table.  `_phase_dot` is its one entry, and a group's columns
are bit-identical whatever other groups share the call; the grid's shape
alone picks the kernel.  A uniform grid of two or more points -- every moment
block, zeta's and the series' alike -- goes to `_nufft`, a type-1
nonuniform FFT with the t-grid as its modes and h ln n as its sources.  It
uses Gaussian gridding (Greengard-Lee, SIAM Review 2004) rather than the
"exponential of semicircle" kernel (Barnett-Magland-af Klinteberg, SISC
2019), whose Fourier transform has no closed form to deconvolve by, and
spreads the terms by per-cell Chebyshev moments (Dutt-Rokhlin, SISC 1993):
each fine-grid cell sums J = 16 moments sum c_n T_j(2 f_n - 1) of its terms
(f_n the term's place in the cell) and puts the Gaussian's 2H = 32 values
on its neighbours as one small matrix product with the Gaussian's Chebyshev
coefficients.  J is the fewest terms whose truncation, by a Bernstein-ellipse
bound, stays under the Gaussian's own error once deconvolved.  The grid has
L >= 2.5 points fine cells, but the terms h ln n and their Gaussians fill
one run of A2 of them (4-10% of the grid on zeta's blocks, 2% on the
series'), A2 a 2^a 3^b 5^c length: L = D A2, with D the most rows the run
leaves room for (`_nu_plan`), and the transform is batched FFTs of length
A2 of the occupied cells, row r times the twiddles e^{-2 pi i r c / L} of
its cells c, whose entries are the modes r mod D.  No array has L cells
unless D = 1, the one FFT of a short grid or of one whose terms wrap round
it.  That costs O(J terms + 2H J cells + L log A2) in O(A2 + points)
memory.  Any other grid (one point, as in the scalar
calls, or non-uniform) is summed directly, exp(-i outer(t, ln n)) @ W, in
row tiles.  The rounding bound is eps((max|t| + 1) sum |W_n| ln n +
sum |W_n|) on both paths; the NUFFT adds eps 1.28 e^{pi H / (4R(R - 1/2))}
sum |W_n| plus its truncation (16.1 eps sum |W_n| at half-width H = 16 and
oversampling R = 2.5): the rounding of the spread values, weighted by the
moments' coefficients, that the deconvolution amplifies at the grid's edge
modes, which dominates at small |t|; a grid of D > 1 rows adds 13.7 times
the first part (215 eps sum |W_n|) for the rounding of its twiddles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .arith import PrecisionError

__all__ = [
    "EvalResult",
    "PoleError",
    "zeta_em",
    "zeta_em_grid",
    "gamma_fn",
    "loggamma",
    "chi_factor",
    "smoothed_grid",
]

_EPS = 2.2e-16

# B_2 .. B_26 as exact-rational floats (Euler-Maclaurin correction weights)
_BERN2R = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
    -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
    -236364091 / 2730, 8553103 / 6,
]
_EM_TERMS = 12  # the most Bernoulli terms a tail sums
_EM_RATIO = 2.0 ** -10  # a tail's remainder bound against its column's rounding bound
_EM_BLOCK = 1 << 15  # points per tail block, whose temporaries stay in cache
_EM_ROT = 64  # points per exp of M^{-s} on a uniform tail block, see _zeta_em


class PoleError(Exception):
    """Evaluation requested at (or too close to) a pole."""


@dataclass(frozen=True)
class EvalResult:
    value: complex
    abs_error_estimate: float


def _em_cut(t: float) -> int:
    return int(max(2.0 * abs(t), 50.0))


def _zeta_domain(sigmas, ts: np.ndarray) -> float:
    """max |t| of a grid, after the checks every zeta entry point makes: the
    pole at s = 1 (PoleError) and the desk range |t| <= 1e5, s finite (PrecisionError)."""
    absts = np.abs(ts)
    if any(abs(sigma - 1.0) < 1e-12 and math.hypot(sigma - 1.0, float(absts.min())) < 1e-12
           for sigma in sigmas):
        raise PoleError("zeta has its pole at s=1")
    if not (absts.max() <= 1e5 and np.isfinite(sigmas).all()):
        raise PrecisionError("|t| > 1e5 or an s not finite is outside the configured desk range")
    return float(absts.max())


def zeta_em(s: complex, target_abs_err: float = 1e-9) -> EvalResult:
    """zeta(s) by Euler-Maclaurin; raises if the target is out of reach.

    A one-point `_zeta_em` at the cut max(2|t|, 50), so its value is
    bit-identical to `zeta_em_grid` at the same point.  The target is held
    against the full estimate: the method's part (remainder and phase
    rounding) plus the rounding of the tail and the value, which near the
    pole grows like eps |zeta(s)|.
    """
    s = complex(s)
    ts = np.array([s.imag])
    M = _em_cut(_zeta_domain((s.real,), ts))
    if not target_abs_err >= 1e-12:
        raise PrecisionError(f"target_abs_err must be at least 1e-12, not {target_abs_err:g}")
    value, (est,) = _zeta_em((s.real,), ts, M)
    if not est <= target_abs_err:
        raise PrecisionError(
            f"zeta_em cannot reach {target_abs_err:g} at s={s} (estimate {est:g})"
        )
    return EvalResult(complex(value[0, 0]), est)


_DIRECT_TILE = 1 << 18  # phase-matrix entries per direct-sum tile (4 MB)


def _grid_step(ts: np.ndarray) -> float | None:
    """The step h of a grid of two or more points that is uniform to
    rounding (every point within 8 eps max|t| of ts[0] + i h), else None."""
    npts = len(ts)
    if npts < 2:
        return None
    h = (ts[-1] - ts[0]) / (npts - 1)
    drift = np.abs(ts - ts[0] - h * np.arange(npts)).max()
    return h if drift <= 8 * _EPS * np.abs(ts).max() else None


def _groups(W: np.ndarray, widths) -> list:
    """[c0, c1) of each column group of W, widths=None being one group."""
    ends = list(accumulate(widths or (W.shape[1],), initial=0))
    return list(zip(ends[:-1], ends[1:]))


def _phase_dot(ts: np.ndarray, h: float | None, ln: np.ndarray, W: np.ndarray,
               widths=None) -> tuple[np.ndarray, np.ndarray]:
    """out[i, :] = sum_n exp(-i ts[i] ln[n]) W[n, :] for real weights W, and
    its rounding bound per weight column; h is the grid's `_grid_step`.

    The columns come in groups of `widths` (default: one group), one per
    cell of a shared pass.  Every product whose bits could depend on the
    number of columns (BLAS blocks a matrix product by its shape, and numpy
    sums a lone column pairwise) is taken per group, on an array of the
    group's own shape, so a group's columns and bounds are bit-identical to
    a call with that group alone; the rest is elementwise or per row.  Each
    column of the result is contiguous, as it is in a one-column call.

    The grid's shape alone picks the kernel: a uniform grid of two or more
    points (h not None) goes to `_nufft`, any other grid is summed directly,
    a few rows at a time so the phase matrix stays under _DIRECT_TILE
    entries.  The bound is eps ((max|t| + 1) sum |W_n| ln n + sum |W_n|),
    since the phase of n^{-it} is known to eps |t ln n| and each term rounds
    once; the NUFFT adds (eps _NU_MOM _NU_AMP + 2 _NU_GAUSS) sum |W_n| =
    16.1 eps sum |W_n| for the rounding of its spread values, which the
    deconvolution amplifies at the grid's edge modes, and for its
    truncation, and where its grid splits into D > 1 rows eps _NU_TW _NU_MOM
    _NU_AMP sum |W_n| = 215 eps sum |W_n| more for the rounding of its
    twiddles (see `_nufft`); the direct sum adds eps (N - 1)/2 sum |W_n| for
    adding its N terms in whatever order the matrix product takes (at small
    |t| the summation is most of its error).
    """
    ts = np.asarray(ts, dtype=np.float64)
    groups = _groups(W, widths)
    tmax = float(np.abs(ts).max()) if len(ts) else 0.0
    rnd, sW = np.empty(W.shape[1]), np.empty(W.shape[1])
    for c0, c1 in groups:
        aW = np.abs(W[:, c0:c1])
        sW[c0:c1] = aW.sum(axis=0)
        rnd[c0:c1] = _EPS * ((tmax + 1.0) * (ln @ aW) + sW[c0:c1])
    if h is not None:
        plan = _nu_plan(len(ts), h, ln)
        tw = _NU_TW if plan[2] > 1 else 0.0
        nu = _EPS * _NU_MOM * _NU_AMP * (1.0 + tw) + 2.0 * _NU_GAUSS
        return _nufft(ts, h, ln, W, widths, plan), rnd + nu * sW
    rows = max(1, _DIRECT_TILE // max(len(ln), 1))
    out = np.empty((len(ts), W.shape[1]), dtype=np.complex128, order="F")
    for i0 in range(0, len(ts), rows):
        phase = np.exp(-1j * np.outer(ts[i0: i0 + rows], ln))
        for c0, c1 in groups:
            out[i0: i0 + rows, c0:c1] = phase @ np.ascontiguousarray(W[:, c0:c1])
    return out, rnd + _EPS * 0.5 * max(len(ln) - 1, 0) * sW


_NU_HALF = 16  # Gaussian half-width, in fine-grid cells
_NU_OVERSAMPLE = 2.5  # fine-grid cells per output point; 2 is too coarse, see _nufft
# the deconvolution's largest gain on rounding, exp(pi H / (4 R (R - 1/2))): 12.3
_NU_AMP = math.exp(math.pi * _NU_HALF / (4.0 * _NU_OVERSAMPLE * (_NU_OVERSAMPLE - 0.5)))
# the Gaussian's own truncation and aliasing, exp(-pi H (R - 1) / (R - 1/2)): 4.2e-17
_NU_GAUSS = math.exp(-math.pi * _NU_HALF * (_NU_OVERSAMPLE - 1.0) / (_NU_OVERSAMPLE - 0.5))
_NU_A = (0.8 * math.pi / _NU_HALF, math.pi / _NU_HALF)  # the kernel exponent's range, see _nufft


def _cheb_bound(J: int) -> np.ndarray:
    """Per offset o = 1-H..H, a bound on |exp(-a (o - f)^2) - p(f)| over
    f in [0, 1) and a in _NU_A, p the degree J-1 Chebyshev interpolant in
    x = 2f - 1 at the J first-kind points.

    In x the kernel is exp(-b (x - x0)^2), b = a/4, x0 = 2o - 1, an entire
    function; on and inside the Bernstein ellipse E_rho (semi-axes A, B =
    (rho +- 1/rho)/2) it is at most M = exp(-b min Re (x - x0)^2), so its
    Chebyshev coefficients are at most 2 M rho^-j (Trefethen, Approximation
    Theory and Approximation Practice, Thm 8.1).  At the J first-kind points
    every T_m, m >= J, equals 0 or +-T_j for some j < J, so the interpolant
    is off by at most twice the coefficients' tail, 4 M rho^(1-J)/(rho - 1).
    On the ellipse Re (x - x0)^2 is a quadratic in the cosine of its angle.
    log M is linear in b, so the larger of its values at the range's two
    ends holds for every a; rho is taken from a grid, which only loosens
    the bound.
    """
    rho = np.geomspace(1.5, 1e3, 200)
    A, B = (rho + 1.0 / rho) / 2.0, (rho - 1.0 / rho) / 2.0
    x0 = 2.0 * np.arange(1 - _NU_HALF, _NU_HALF + 1)[:, None] - 1.0
    c = np.clip(A * x0 / (A * A + B * B), -1.0, 1.0)
    re = (A * A + B * B) * c * c - 2.0 * A * x0 * c + x0 * x0 - B * B
    logM = np.maximum(-_NU_A[0] / 4.0 * re, -_NU_A[1] / 4.0 * re)
    return np.exp((logM + math.log(4.0) + (1 - J) * np.log(rho) - np.log(rho - 1.0)).min(axis=1))


# Chebyshev terms per offset: the fewest J whose `_cheb_bound(J)`, summed over
# the 2H offsets and carried through the deconvolution (a gain of at most
# _NU_AMP / sqrt(H)), stays under the Gaussian's own error _NU_GAUSS.  The
# tests derive it; it is written out so that importing the module does not
# search for it.
_NU_TERMS = 16


def _nu_nodes() -> tuple:
    """The grid-independent part of `_nu_cheb`, in long double: the DCT
    matrix cos(j theta_i) 2/J (halved at j = 0) and (o - f_i)^2 for
    o = 1..H, at the J first-kind points f_i."""
    J, ld = _NU_TERMS, np.longdouble
    # cos(pi k / 2J), k < 4J, by halving angles from cos(k pi / 2), k = 0, 1, 2:
    # cos(x/2) = sqrt((1 + cos x) / 2) on [0, pi], then cos(2 pi - x) = cos x
    cos = np.array([1, 0, -1], dtype=ld)
    while len(cos) <= 2 * J:
        half = np.sqrt((1 + cos) / 2)
        cos = np.concatenate((half, -half[-2::-1]))
    cos = np.concatenate((cos, cos[-2:0:-1]))
    k = 2 * np.arange(J) + 1
    f = (1 + cos[k]) / 2
    dct = cos[np.outer(k, np.arange(J)) % (4 * J)] * (ld(2) / J)  # cos(j theta_i) = cos(pi k_i j / 2J)
    dct[:, 0] /= 2
    o = np.arange(1, _NU_HALF + 1, dtype=ld)[:, None]
    return dct, (o - f) ** 2


# made once, at import: made at the first pass, these small arrays would sit
# above that pass's arrays in the heap and keep it from shrinking past them
# (0.2-0.3 MB more peak RSS in a series command, measured)
_NU_NODES = _nu_nodes()


def _nu_cheb(npts: int, L: int) -> np.ndarray:
    """C[o + H - 1, j], j < _NU_TERMS: exp(-a (o - f)^2) ~ sum_j C[o, j]
    T_j(2f - 1) on f in [0, 1) for the kernel exponent a = pi (L - P/2) / (L H)
    of a P-point grid on L cells.  It is the Chebyshev interpolant at the J
    first-kind points f_i = (1 + cos theta_i) / 2, theta_i = pi (2i + 1) / 2J,
    computed in long double and rounded once to double."""
    ld = np.longdouble
    dct, of2 = _NU_NODES
    pi = ld(math.pi) + ld(1.2246467991473532e-16)  # math.pi and its remainder
    a = pi * (L - ld(npts) / 2) / (L * ld(_NU_HALF))
    up = np.dot(np.exp(-a * of2), dct).astype(np.float64)
    # f -> 1 - f takes o to 1 - o and T_j(x) to (-1)^j T_j(x), and the points
    # are symmetric, so the offsets o <= 0 mirror the offsets o > 0
    return np.concatenate((up[::-1] * (-1.0) ** np.arange(_NU_TERMS), up))


# The moments' weight on rounding: sum_{o,j} |C[o, j]| against the kernel's
# mass sum_o exp(-a (o - f)^2) = sqrt(pi/a), which grows with a and is
# 1.2758 at the top of _NU_A (the tests check the bound)
_NU_MOM = 1.276
# terms spread per pass: a pass has at most one cell per term, so its moments
# (J per cell and real row) hold at most 16 * 2 * 4096 doubles, 1 MB, per
# column, and the values of a quarter of its offsets (H/2 per cell and row)
# and their indices half as many
_NU_TILE = 4096
_NU_PART = _NU_HALF // 2  # offsets per batched product of C @ mu
_NU_BATCH = 1 << 13  # cells per call of the short FFTs of a grid of D > 1 rows
# a twiddled cell's rounding, (6 pi + 4 + 2 sqrt 5) u in eps = 2u (see _nufft)
_NU_TW = (6.0 * math.pi + 4.0 + 2.0 * math.sqrt(5.0)) / 2.0


def _fft_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT does without Bluestein."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _cell_moments(x: np.ndarray, phase: np.ndarray, W: np.ndarray,
                  starts: np.ndarray, groups: list) -> list:
    """Per column group [c0, c1), mu[j, r, k] = sum_n cp[r, n] T_j(x[n]),
    j < _NU_TERMS, over the k-th run of terms, runs starting at `starts`,
    with cp the group's terms c_n = W_n e^{i phase_n} as real rows
    Re c[:, c0], Im c[:, c0], Re c[:, c0 + 1], ...; one reduceat per j and
    group, on the group's own rows, whose inner loop runs over terms."""
    cp = np.empty((2 * W.shape[1], len(x)))
    # scratch for cos and sin, then a group's cp T_j
    prod = np.empty((2 * max(c1 - c0 for c0, c1 in groups), len(x)))
    np.cos(phase, out=prod[0])
    np.multiply(W.T, prod[0], out=cp[0::2])
    np.sin(phase, out=prod[0])
    np.multiply(W.T, prod[0], out=cp[1::2])
    # per group: its rows of cp, its rows of scratch and its moments
    rows = [(cp[2 * c0: 2 * c1], prod[: 2 * (c1 - c0)],
             np.empty((_NU_TERMS, 2 * (c1 - c0), len(starts)))) for c0, c1 in groups]
    for c, _, mu in rows:
        np.add.reduceat(c, starts, axis=1, out=mu[0])
    x2 = 2.0 * x
    # T_{j-2}, T_{j-1} and the next T_j rotate through buffers of this call's own
    tp, tj, tn = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(1, _NU_TERMS):
        if j > 1:  # T_j = 2 x T_{j-1} - T_{j-2}
            np.multiply(x2, tj, out=tn)
            tn -= tp
            tp, tj, tn = tj, tn, tp
        for c, p, mu in rows:
            np.multiply(c, tj, out=p)
            np.add.reduceat(p, starts, axis=1, out=mu[j])
    return [mu for _, _, mu in rows]


def _nu_plan(npts: int, h: float, ln: np.ndarray) -> tuple:
    """(L, A2, D, c_lo) of the NUFFT of a P-point grid of step h over the
    terms ln: L = D A2 fine cells, at least R P (R = _NU_OVERSAMPLE), A2 a
    length numpy's FFT does without Bluestein, and c_lo the first cell a term
    spreads onto, H - 1 below the lowest term's cell (H = _NU_HALF).

    The terms fill S = floor(max u) - floor(min u) + 2H cells, u the terms'
    places h ln n L / 2 pi in cells, and S <= s L + 2H + 1 for the span
    s = |h| (max ln - min ln) / 2 pi.  With n0 = ceil(R P), D = floor(n0 /
    (s n0 + 2H + 1)) and A2 = _fft_len(ceil(n0 / D)), L = D A2 >= n0 and
    s n0 + 2H + 1 <= n0 / D <= A2, so S <= A2 but for the stretch of L past
    n0 and rounding; S is therefore checked on the terms' own products, and
    D lowered until it fits; D = 1 (A2 = L, the
    transform of the whole grid) needs no check: it is taken when the terms
    cover more than half the grid, on short grids and where the phases wrap.
    """
    n0 = math.ceil(_NU_OVERSAMPLE * npts)
    if not len(ln):
        return _fft_len(n0), _fft_len(n0), 1, 0
    lo, hi = float(ln.min()), float(ln.max())
    span = abs(h) * (hi - lo) / (2.0 * math.pi)
    D = max(1, int(n0 // (span * n0 + 2 * _NU_HALF + 1)))
    while True:
        A2 = _fft_len(-(-n0 // D))
        L = D * A2
        f = h * L / (2.0 * math.pi)  # the factor the spreading takes u by
        u0, u1 = sorted((lo * f, hi * f))
        if D == 1 or math.floor(u1) - math.floor(u0) + 2 * _NU_HALF <= A2:
            return L, A2, D, math.floor(u0) - _NU_HALF + 1
        D -= 1


def _nu_twiddles(L: int, A2: int, D: int, c_lo: int) -> tuple:
    """Tables for the twiddles w[r, i] = exp(-2 pi i r c(i) / L), r < D, of
    the grid cells i < A2, c(i) the one cell of the support [c_lo, c_lo + A2)
    that is i mod A2: (B, T_hi, T_lo, x, T_x), with w[r, i] = T_hi[r, i // B]
    T_lo[r, i % B], except on the cells x <= i < c_lo mod A2 of the block
    that holds c_lo mod A2, where it is T_x[r] T_lo[r, i % B].  B is the
    divisor of A2 nearest below sqrt(A2), and each of the D (A2/B + B + 1)
    values is the cos and sin of an angle in [-pi, pi] from an exact
    integer exponent."""
    B = next(d for d in range(math.isqrt(A2), 0, -1) if A2 % d == 0)
    s = c_lo % A2
    base = c_lo - s  # c(i) = base + i for i >= s, base + A2 + i below s
    ih = np.arange(A2 // B) * B
    x = s - s % B
    # the cells each table's column stands for: the blocks' first cells, the
    # offsets in a block, and the straddling block's first cell below s
    c = np.concatenate((base + ih + A2 * (ih + B <= s), np.arange(B), [base + A2 + x]))
    e = np.arange(D)[:, None] * (c % L) % L
    e[e > L // 2] -= L
    theta = e * (-2.0 * math.pi / L)
    w = np.empty(e.shape, dtype=np.complex128)
    np.cos(theta, out=w.real)
    np.sin(theta, out=w.imag)
    return B, w[:, : A2 // B], w[:, A2 // B: -1], x, w[:, -1]


def _nufft(ts: np.ndarray, h: float, ln: np.ndarray, W: np.ndarray,
           widths=None, plan=None) -> np.ndarray:
    """The phase sum on a uniform grid ts[j] = ts[mid] + m h, m = j - mid, as
    a type-1 nonuniform FFT with Gaussian gridding (Greengard-Lee 2004);
    plan is the grid's `_nu_plan`, made here if None.

    With c_n = W_n exp(-i ts[mid] ln n) and x_n = h ln n, out[j] is
    sum_n c_n exp(-i m x_n).  Each c_n is spread onto the 2H nearest cells
    (H = _NU_HALF) of a periodic grid of L >= R P cells (R = _NU_OVERSAMPLE,
    P points) by the Gaussian exp(-(x - x_n)^2 / 4 tau), tau = pi H / (L (L -
    P/2)); the grid's FFT g^ gives every mode, and dividing by the
    Gaussian's Fourier transform sqrt(tau/pi) exp(-m^2 tau) leaves a
    truncation and aliasing error near exp(-pi H (R-1)/(R-1/2)) = _NU_GAUSS
    of sum |c_n|.

    The spreading goes by per-cell Chebyshev moments (Dutt-Rokhlin, SISC
    1993).  A term at fraction f of its cell puts exp(-a (o - f)^2),
    a = (pi/L)^2 / tau = pi (1 - P/(2L)) / H in [0.8 pi/H, pi/H), on the cell
    o away, o = 1-H..H, and that is sum_{j<J} C[o, j] T_j(2f - 1) to within
    `_cheb_bound`; J = _NU_TERMS = 16 is the fewest terms whose truncation,
    summed over the offsets and deconvolved, stays under _NU_GAUSS.  So a
    cell's 2H values are C @ mu, mu_j = sum c_n T_j(2 f_n - 1) over its
    terms, and as x_n is monotone in n each mu_j is one `np.add.reduceat`
    over the runs of terms that share a cell.  A pass takes at most
    _NU_TILE terms, so at most as many cells.  C @ mu is taken as 2H
    matrix-vector products, one batched `np.matmul` per quarter of the
    offsets (_NU_PART), not as a matrix-matrix product, which would page in
    BLAS's gemm code (some 0.2 MB the rest of the program never runs).
    BLAS blocks those products by their row count, so a row's bits would
    depend on how many columns share the call: each column group of
    `widths` (a cell of a shared pass) gets its own moments, on its own
    (J, 2 columns, K) array, and its own products and FFT calls, which have
    the shape of the group's call alone.  The terms' cells, phases and
    cosines, the twiddles and the deconvolution are shared.  Each value is
    then one dot product over j, and every other sum has a fixed order per
    row, so a group's columns depend only on its own weights and the grid,
    not on the other groups or the BLAS thread count.

    The transform covers only the cells the terms reach (`_nu_plan`): they
    fill S = s L + O(2H) of the L cells, s the span |h| (max ln - min ln) /
    2 pi of the terms in periods, 4-10% of the grid on zeta's blocks and
    2% on the series'.  The grid is L = D A2 cells with every term's 2H
    cells in one run of A2 >= S, and the values are added mod A2 into a
    grid g of A2 cells padded by 2H - 1, folded back once; cell i holds the
    one cell c(i) = i mod A2 of that run.  Mode m = r + D k, r < D, k < A2,
    is then sum_i g[i] w^{(r + D k) c(i)}, w = exp(-2 pi i / L), which is
    entry k of the length-A2 FFT of the row g[i] w^{r c(i)}: one radix-D
    step of a Cooley-Tukey FFT, taken on the occupied cells alone.  The D
    rows go through batched FFTs of at most _NU_BATCH cells a call (the
    twiddles w^{r c(i)} made per row batch from `_nu_twiddles`'s tables, two
    products a cell); the modes m >= 0 of row r are FFT entries k =
    0, 1, ..., the modes m < 0 the entries k = A2 - 1, A2 - 2, ..., so the
    output, padded to D whole modes per row of a (modes / D, D) view, takes
    two strided slices of each batch at once.  Each is times the
    deconvolution exp(tau m^2) sqrt(pi/tau)/L, which is taken once per |m|.
    D = 1 is the one FFT of the whole grid, folded mod L.  The cost is
    O(J terms + 2H J cells + L log A2): J real multiply-adds per term and
    real column for the moments, 2H J per cell for C @ mu, and per column
    the FFT and two products per cell for the twiddles; the memory is
    O(A2 + P) per column, no array has L cells unless D = 1.

    Error account, per mode m and in units of sum |c_n|: an absolute error
    E in the grid reaches mode m as E sqrt(pi/tau)/L exp(tau m^2), and the
    kernel's mass per term, sqrt(pi/a), times that gain is exp(tau m^2)
    <= exp(tau P^2/4) <= exp(pi H / (4 R (R - 1/2))) = _NU_AMP: 66 at R = 2,
    12 at R = 2.5.  Truncation: the Gaussian's _NU_GAUSS plus the
    expansion's, which J keeps below it.  Rounding, to first order with one
    rounding per term and sum as in `_phase_dot`: each mu_j sums terms of
    size |c_n T_j| <= |c_n|, and offset o weighs mu_j by |C[o, j]|, so the
    spread values carry eps sum_{o,j} |C[o, j]| <= eps _NU_MOM sqrt(pi/a)
    per unit |c_n| (_NU_MOM = 1.28); deconvolved, eps _NU_MOM _NU_AMP.  The
    same sum bounds the cells' moduli, sum_i |g[i]| <= _NU_MOM sqrt(pi/a)
    sum |c_n|, so a relative error d per cell in the rows g w^{r c} costs d
    _NU_MOM _NU_AMP: with u = eps/2, an angle -2 pi e / L in [-pi, pi] is
    good to 3 pi u (three roundings) and its cos and sin to an ulp each,
    2u, so a table value to (3 pi + 2) u; a twiddle, one complex product
    of two (Brent-Percival-Zimmermann 2007: sqrt 5 u), and its product with
    g add 2 sqrt 5 u, so d = (6 pi + 4 + 2 sqrt 5) u = _NU_TW eps, 13.7 eps,
    for D > 1.  The FFTs' own rounding is left out on both paths, as the
    split only moves log2 D of the log2 L levels of a length-L transform
    into the twiddles.
    """
    npts, ncol = len(ts), W.shape[1]
    groups = _groups(W, widths)
    mid = npts // 2
    L, A2, D, c_lo = plan or _nu_plan(npts, h, ln)
    tau = math.pi * _NU_HALF / (L * (L - npts / 2.0))
    grid = _nu_spread(ts[mid], h * L / (2.0 * math.pi), ln, W, groups,
                      _nu_cheb(npts, L), A2)
    # mode m = r + D k sits at place D Qn + m of a column of `modes`, in row
    # r, at k < Qp for m >= 0 and at k >= A2 - Qn below; the deconvolution
    # exp(tau m^2) sqrt(pi/tau)/L, one array over |m| (m^2 is exact), is read
    # through (modes / D, D) views
    Qn, Qp = -(-mid // D), -(-(npts - mid) // D)
    deconv = np.arange(max(D * Qn + 1, D * Qp), dtype=np.float64)
    np.square(deconv, out=deconv)
    deconv *= tau
    np.exp(deconv, out=deconv)
    deconv *= math.sqrt(math.pi / tau) / L
    dpos = deconv[:D * Qp].reshape(Qp, D).T  # dpos[r, k]: mode r + D k
    dneg = deconv[D * Qn::-1][:D * Qn].reshape(Qn, D).T  # dneg[r, k]: r - D (Qn - k)
    modes = np.empty((ncol, Qn + Qp, D), dtype=np.complex128)
    by_row = modes.transpose(0, 2, 1)  # by_row[c, r, k]: mode r + D (k - Qn)

    def put(g, c0, c1, r0, r1):
        # rows r0..r1 of columns c0..c1, deconvolved; shaped (rows, modes) so
        # that the inner loop runs over a row's modes, not over a batch's rows
        np.multiply(g[:, :, :Qp], dpos[r0:r1], out=by_row[c0:c1, r0:r1, Qn:])
        np.multiply(g[:, :, A2 - Qn:], dneg[r0:r1], out=by_row[c0:c1, r0:r1, :Qn])

    if D == 1:
        np.fft.fft(grid, out=grid)
        put(grid[:, None, :], 0, ncol, 0, 1)
    else:
        B, T_hi, T_lo, x, T_x = _nu_twiddles(L, A2, D, c_lo)
        s = c_lo % A2
        rows = max(1, _NU_BATCH // A2)
        y = np.empty((max(c1 - c0 for c0, c1 in groups), min(rows, D), A2),
                     dtype=np.complex128)
        # a batch's twiddles, shared by the groups; a lone column takes them in place
        tw = y[0] if ncol == 1 else np.empty_like(y[0])
        for r0 in range(0, D, rows):
            r1 = min(D, r0 + rows)
            t = tw[: r1 - r0]
            np.multiply(T_hi[r0:r1, :, None], T_lo[r0:r1, None, :],
                        out=t.reshape(r1 - r0, A2 // B, B))
            np.multiply(T_x[r0:r1, None], T_lo[r0:r1, : s - x], out=t[:, x:s])
            for c0, c1 in groups:
                g = y[: c1 - c0, : r1 - r0]
                # (in place when g holds the twiddles, which numpy would copy)
                np.multiply(g if ncol == 1 else t, grid[c0:c1, None, :], out=g)
                np.fft.fft(g, out=g)
                put(g, c0, c1, r0, r1)
    first = D * Qn - mid
    return modes.reshape(ncol, -1)[:, first: first + npts].T


def _nu_spread(t_mid: float, f: float, ln: np.ndarray, W: np.ndarray, groups: list,
               C: np.ndarray, A2: int) -> np.ndarray:
    """The spread grid of `_nufft`, (columns, A2) and complex: the terms
    c_n = W_n exp(-i t_mid ln n) at u_n = f ln n cells, each put on its 2H
    cells by C @ mu and added mod A2 (see `_nufft`)."""
    ncol = W.shape[1]
    # the terms of cell c land on the cells c + o, o = 1-H..H, of a grid padded
    # by H - 1 cells on the left and H on the right, folded back mod A2 at the end
    M = A2 + 2 * _NU_HALF - 1
    pad = np.zeros((ncol, M), dtype=np.complex128)
    flat = pad.view(np.float64).reshape(-1)
    R = 2 * ncol  # real rows Re c[:, 0], Im c[:, 0], Re c[:, 1], ...
    rows = np.array([r // 2 * 2 * M + r % 2 for r in range(R)])  # row r's start in flat
    # where[o + H - 1, r]: offset o from cell 0, in row r of flat
    where = (2 * np.arange(2 * _NU_HALF))[:, None, None] + rows[:, None]
    # per group, per quarter of the offsets: its coefficients and its rows' places
    parts = [[(C[i: i + _NU_PART, :, None], where[i: i + _NU_PART, 2 * c0: 2 * c1])
              for i in range(0, 2 * _NU_HALF, _NU_PART)] for c0, c1 in groups]
    for j0 in range(0, len(ln), _NU_TILE):
        lnt = ln[j0: j0 + _NU_TILE]
        u = lnt * f  # x_n in cells
        cell = np.floor(u)
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        cells = cell[starts].astype(np.int64)
        cells %= A2
        cells *= 2  # where cell c of row 0 sits in flat, less the left padding
        u -= cell
        u *= 2.0
        u -= 1.0  # 2 f - 1
        mus = _cell_moments(u, lnt * -t_mid, W[j0: j0 + _NU_TILE], starts, groups)
        for mu, group_parts in zip(mus, parts):
            muT = mu.reshape(_NU_TERMS, -1).T  # muT[r K + k, j] = mu[j, r, k]
            vals = np.empty((_NU_PART, len(muT), 1))
            for Ch, at in group_parts:  # vals[o, r K + k] = sum_j C[o, j] mu[j, r, k]
                np.matmul(muT, Ch, out=vals)
                np.add.at(flat, (at + cells).ravel(), vals.ravel())
    grid = pad[:, _NU_HALF - 1: _NU_HALF - 1 + A2]
    edge = np.r_[0: _NU_HALF - 1, A2 + _NU_HALF - 1: M]
    np.add.at(grid, (slice(None), (edge - (_NU_HALF - 1)) % A2), pad[:, edge])
    return grid


def _zeta_em(sigmas, ts: np.ndarray, M: int) -> tuple[np.ndarray, list]:
    """Euler-Maclaurin zeta(sigma+it) at cut M on a t-grid for each sigma of
    `sigmas`, as the columns of one (points, sigmas) array, with one error
    estimate per sigma for the grid: the method's part plus the rounding of
    tail and value.

    The main sums are one `_phase_dot`, one column n^-sigma per sigma, each
    its own column group, so each column is bit-identical to a one-sigma
    call.  The tail and its estimate are then taken per sigma and per block
    of at most _EM_BLOCK points, so that the tail's temporaries stay in
    cache; each block's estimate covers its own |t| range, and the grid's is
    the largest of them.

    The value is the main sum over n < M plus M^{-s} B, with
        B = 1/2 + M/(s-1) + s A,  s A = sum_{r<=R} c_r P_r,
    P_r = s(s+1)...(s+2r-2) and c_r = B_2r M^{1-2r}/(2r)!.  R is the
    fewest terms, at most _EM_TERMS, whose remainder bound at the block's
    largest |t| is at most _EM_RATIO of the column's phase-sum rounding
    bound (`_em_terms`), so the terms left out move the estimate by under a
    thousandth of it.  A is summed by Horner, A <- c_r + A q_r from A = c_R
    for r = R-1 down to 1, with q_r = (s+2r-1)(s+2r) = (sigma+2r-1)(sigma+2r)
    - t^2 + i t (2 sigma + 4r - 1): its real part steps down by
    4 sigma + 8r + 2 from one r to the next and its imaginary part is formed
    afresh from the grid, each in its own view of q, so a term costs one
    complex product and no array beyond A and q.  M^{-s} = exp(-s ln M)
    multiplies B once.  On a uniform grid of step h it is an anchor
    exp(-(sigma + i t_a) ln M) at every _EM_ROT-th point t_a times a
    rotation exp(-i k h ln M), k < _EM_ROT, from one table per block, so a
    point costs one complex product in place of an exp; elsewhere it is an
    exp at every point.

    The method's part is the remainder bound (first omitted Bernoulli term
    times |s+2R+1|/(sigma+2R+1)), which grows with |t| and is taken at the
    block's largest |t|, plus the whole grid's main-sum rounding bound from
    `_phase_dot`.  The rounding part, to first order in eps:
    - M^{-s}: t_a ln M and k h ln M are each good to eps, the anchor's
      t_a + k h is off the point's t by the drift d = max |t_a + k h - t|,
      which the block measures to eps |t|, so the argument is known to
      (eps (2 |s| + K |h|) + d) ln M (K = 1 and d = 0 off a uniform grid);
      the two exps and their product add 6.5 eps;
    - B: the division, the product s A and the two additions cost at most
      4.5 eps b, with b = 1/2 + M/|s-1| + sum_r |c_r P_r|, and the product
      M^{-s} B 2 eps more, so together with M^{-s} the tail is good to
      M^{-sigma} b ((eps (2 |s| + K |h|) + d) ln M + 13 eps);
    - Horner: each q_r is off by at most eps Q, Q = (R+1) max_r (|q_r| +
      |4 sigma + 8r + 2|) (the real part's R steps of subtraction), and
      each level's product and sum cost 2.5 eps, so s A is off by
      eps sum_r |c_r| |s| (prod_{l<r} |q_l| (2.5 r + 2)
      + Q sum_{i<r} prod_{l<r, l!=i} |q_l|);
    - the one addition of the tail into the value: eps/2 max |value|.
    Every product of |s + m| grows with |t|, so the Horner sums are taken at
    the block's largest |t|; M/|s-1| is taken at its smallest.
    """
    n = np.arange(1, M, dtype=np.float64)
    W = np.empty((M - 1, len(sigmas)))
    for i, sigma in enumerate(sigmas):
        W[:, i] = n ** (-sigma)
    h = _grid_step(ts)
    out, rnd = _phase_dot(ts, h, np.log(n), W, (1,) * len(sigmas))
    del W
    c = [_BERN2R[r - 1] / math.factorial(2 * r) * M ** (1.0 - 2 * r)
         for r in range(1, _EM_TERMS + 1)]
    ests = [max(_zeta_em_tail(sigma, ts[b: b + _EM_BLOCK], M, c, out[b: b + _EM_BLOCK, i],
                              float(rnd[i]), h)
                for b in range(0, len(ts), _EM_BLOCK))
            for i, sigma in enumerate(sigmas)]
    return out, ests


def _em_terms(sigma: float, tmax: float, M: int, c: list, rnd: float) -> tuple:
    """(R, trunc, E, H) of a tail block whose largest |t| is tmax: R the
    fewest Bernoulli terms, at most _EM_TERMS, whose remainder bound trunc
    is at most _EM_RATIO rnd, and the sums E = sum_r |c_r P_r| and H of the
    Horner rounding model at R terms; see `_zeta_em`."""
    s = complex(sigma, tmax)
    Ms = M ** -sigma
    pp = 1.0  # prod_{l<r} |q_l|
    dd = 0.0  # sum_{i<r} prod_{l<r, l!=i} |q_l|
    E = H1 = H2 = Qm = 0.0  # H = H1 + Q H2, Q = (R+1) Qm
    for R in range(1, _EM_TERMS + 1):
        q = abs((s + (2 * R - 1)) * (s + 2 * R))
        cs = abs(c[R - 1]) * abs(s)
        E += cs * pp
        H1 += cs * pp * (2.5 * R + 2.0)
        H2 += cs * dd
        dd = dd * q + pp
        pp *= q
        trunc = (
            abs(_BERN2R[R]) / math.factorial(2 * R + 2) * M ** (-1.0 - 2 * R) * Ms
            * abs(s) * pp * abs(s + 2 * R + 1) / (sigma + 2 * R + 1)
        )
        if R == _EM_TERMS or (sigma + 2 * R + 1 > 0 and trunc <= _EM_RATIO * rnd):
            return R, trunc, E, H1 + (R + 1) * Qm * H2
        Qm = max(Qm, q + abs(4.0 * sigma + 8 * R + 2))


def _zeta_em_tail(sigma: float, ts: np.ndarray, M: int, c: list, out: np.ndarray,
                  rnd: float, h: float | None) -> float:
    """Adds the Euler-Maclaurin tail M^{-s} B at one sigma to the main sums
    `out` of one block (in place), and returns the block's estimate; h is
    the step of a uniform grid, else None; see `_zeta_em`."""
    absts = np.abs(ts)
    s = complex(sigma, float(absts.max()))
    R, trunc, E, H = _em_terms(sigma, s.imag, M, c, rnd)
    lnM = math.log(M)
    # M^{-s} is an anchor at every K-th point times a rotation, see below; q
    # has room for whole rows of K
    K, h = (1, 0.0) if h is None else (_EM_ROT, float(h))
    rows = -(-len(ts) // K)
    qK = np.empty((rows, K), dtype=np.complex128)
    q = qK.reshape(-1)[: len(ts)]
    qr, qi = q.real, q.imag
    A = np.full(len(ts), c[R - 1], dtype=np.complex128)
    Ar = A.real
    if R > 1:
        np.multiply(ts, ts, out=qr)
        np.subtract((sigma + 2 * R - 3) * (sigma + 2 * R - 2), qr, out=qr)  # Re q_{R-1}
    for r in range(R - 1, 0, -1):
        if r < R - 1:
            qr -= 4.0 * sigma + 8 * r + 2
        np.multiply(ts, 2.0 * sigma + 4 * r - 1, out=qi)
        A *= q
        Ar += c[r - 1]
    qr[:] = sigma
    qi[:] = ts
    A *= q  # s A
    qr[:] = sigma - 1.0
    np.divide(M, q, out=q)  # M/(s-1)
    A += q
    Ar += 0.5
    # M^{-s}: anchor a = exp(-(sigma + i t_a) ln M) at every K-th point t_a
    # times rotation exp(-i k h ln M), k < K
    kh = np.arange(K) * h
    a = np.empty(rows, dtype=np.complex128)
    a.real = -sigma * lnM
    np.multiply(ts[::K], -lnM, out=a.imag)
    np.exp(a, out=a)
    np.multiply.outer(a, np.exp(kh * (-1j * lnM)), out=qK)
    A *= q
    out += A
    # the drift max |t_a + k h - t|, in q's real view
    np.add.outer(ts[::K], kh, out=qK.real)
    qr -= ts
    drift = float(np.abs(qr).max())
    near = math.hypot(sigma - 1.0, float(absts.min()))
    b = 0.5 + (M / near if near else math.inf) + E
    arg = _EPS * (2.0 * abs(s) + K * abs(h)) + drift  # M^{-s}'s phase error / ln M
    rnd_value = (M ** -sigma * (b * (arg * lnM + 13.0 * _EPS) + _EPS * H)
                 + _EPS * 0.5 * float(np.abs(out).max()))
    return trunc + rnd + rnd_value


def _zeta_em_grids(sigmas, ts: np.ndarray) -> tuple[np.ndarray, list]:
    """zeta on a non-empty grid at each sigma, cut fixed per call at max |t|:
    `_zeta_em`'s columns and estimates, after the domain checks."""
    ts = np.asarray(ts, dtype=np.float64)
    return _zeta_em(sigmas, ts, _em_cut(_zeta_domain(sigmas, ts)))


def zeta_em_grid(sigma: float, ts: np.ndarray) -> np.ndarray:
    """Vectorized zeta(sigma+it) on a grid, cut fixed per call at max |t|."""
    if not len(ts):
        return np.empty(0, dtype=np.complex128)
    return _zeta_em_grids((sigma,), ts)[0][:, 0]


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
    return EvalResult(val, 5e-13 * abs(val) + 5e-308)


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
    return EvalResult(val, 1e-12 * abs(val) + 5e-308)


# ---------------------------------------------------------------------------
# Smoothed Dirichlet evaluation (the contour-shift device)
# ---------------------------------------------------------------------------

def _pole_bound(residue: float, sigma: float, ts: np.ndarray, Y: float) -> np.ndarray:
    """P(t) = 2 |A| max(Y, 2Y)^(1-sigma) |Gamma(1-s)|, bounded above for Re w > 0.

    With w = 2 - s, Gamma(1-s) = Gamma(w)/(1-s), and Stirling's formula with
    its remainder, |R_1(w)| <= sec^2(arg w / 2)/(12|w|) <= 1/(6|w|)
    <= 1/(6 Re w) (DLMF 5.11.ii), gives
        ln|Gamma(w)| <= (Re w - 1/2) ln|w| - t atan(t/Re w) - Re w
                        + ln(2 pi)/2 + 1/(6 Re w).
    The factor 2 covers the rounding of P and of the pole term it bounds at
    Y and 2Y, whose logarithms are good to far better than ln 2.
    """
    a = 2.0 - sigma  # Re w
    c = (math.log(2.0) + (1.0 - sigma) * math.log((2.0 if sigma < 1.0 else 1.0) * Y)
         - a + _HALF_LOG_2PI + 1.0 / (6.0 * a))
    q = ts * ts
    p = q + a * a  # |w|^2
    np.log(p, out=p)
    p *= 0.5 * (a - 0.5)
    q += (1.0 - sigma) ** 2  # |1 - s|^2
    np.log(q, out=q)
    q *= 0.5
    p -= q
    np.divide(ts, a, out=q)
    np.arctan(q, out=q)
    q *= ts
    p -= q
    p += c
    np.exp(p, out=p)
    p *= abs(residue)
    return p


def _pole_points(residue: float, sigma: float, ts: np.ndarray, Y: float,
                 v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Indices of the points where the pole term residue Gamma(1-s) Y'^(1-s),
    Y' = Y or 2Y, can change a bit of v1 or v2.

    A point is left out when `_pole_bound` is below 2^-55 m, m the smallest
    modulus of its four components, which is under a quarter ulp of each:
    subtracting less than that from a double rounds back to it, even where
    the spacing below a power of 2 halves.  A component that is exactly 0,
    a NaN bound and Re(2 - s) <= 0, where the bound does not hold, keep the
    point.
    """
    if sigma >= 2.0:
        return np.arange(len(ts))
    p = _pole_bound(residue, sigma, ts, Y)
    m = np.abs(v1.real)
    for part in (v1.imag, v2.real, v2.imag):
        np.minimum(m, np.abs(part), out=m)
    m *= 2.0 ** -55
    return np.flatnonzero(~(p < m))


def smoothed_grid(
    values: np.ndarray,
    sigma: float,
    ts: np.ndarray,
    Y: float,
    residue: float | None = None,
) -> tuple[np.ndarray, float]:
    """Richardson-smoothed values on a t-grid plus the max Y-doubling spread.

    The Y and 2Y weights are the two columns of one `_phase_dot`, and the
    pole term residue Gamma(1-s) Y^(1-s) shares one loggamma between them.
    It is subtracted only at the points `_pole_points` keeps, where it can
    change a bit of either column; elsewhere subtracting it would return the
    same doubles, and |Gamma(1-s)| falls like e^{-pi |t|/2}, so above
    |t| ~ 30 no point needs it.  Terms run to n = 74 Y (or the table's end),
    where e^{-n/(2Y)} < 1e-16.  A one-table `_smoothed_grids`.
    """
    return next(_smoothed_grids([(values, sigma, residue)], ts, Y))


def _smoothed_grids(tables: list, ts: np.ndarray, Y: float):
    """`smoothed_grid` of each (values, sigma, residue) of `tables`, all of
    one length, on one grid at one Y, yielded in order: the tables' Y and 2Y
    columns are the column groups of one `_phase_dot`, so each table's
    values are bit-identical to its own call, and n, ln n and the two
    smoothing factors are computed once."""
    ts = np.asarray(ts, dtype=np.float64)
    cut2 = min(len(tables[0][0]), int(math.ceil(74.0 * Y)))
    n = np.arange(1, cut2 + 1, dtype=np.float64)
    e1, e2 = np.exp(-n / Y), np.exp(-n / (2.0 * Y))
    powers = {sigma: n ** (-sigma) for _, sigma, _ in tables}
    W = np.empty((cut2, 2 * len(tables)))
    for i, (values, sigma, _) in enumerate(tables):
        npw = values[:cut2] * powers[sigma]
        np.multiply(npw, e1, out=W[:, 2 * i])
        np.multiply(npw, e2, out=W[:, 2 * i + 1])
    ln = np.log(n)
    del n, e1, e2, powers, npw  # this frame outlives the phase sum
    acc = _phase_dot(ts, _grid_step(ts), ln, W, (2,) * len(tables))[0]
    del ln, W
    for i, (_, sigma, residue) in enumerate(tables):
        v1 = acc[:, 2 * i]
        v2 = acc[:, 2 * i + 1]
        if residue is not None:
            at = _pole_points(residue, sigma, ts, Y, v1, v2)
            one_m_s = 1.0 - (sigma + 1j * ts[at])
            lg = loggamma(one_m_s)
            v1[at] -= residue * np.exp(lg + one_m_s * math.log(Y))
            v2[at] -= residue * np.exp(lg + one_m_s * math.log(2.0 * Y))
        spread = float(np.abs(v2 - v1).max()) if len(ts) else 0.0
        yield 2.0 * v2 - v1, spread
