"""Numerical evaluation of zeta, Gamma, chi and smoothed Dirichlet series.

zeta(s) is computed by Euler-Maclaurin summation with cut M = max(2|t|, 50)
and 12 Bernoulli correction terms, in one body shared by the scalar
`zeta_em` (a one-point grid) and `zeta_em_grid` (cut at max |t|), after one
domain check, the pole at s = 1 and the desk range |t| <= 1e5.  The
correction terms are summed by Horner in the quadratic factors
(s+2r-1)(s+2r) of their Pochhammer symbols, one complex product per term
and point, and multiplied by M^{-s} = exp(-s ln M) once.  The
error estimate combines the first omitted Bernoulli term (classical
remainder bound) with a worst-case rounding model for the main sum, so it
stays honest at large |t| where argument reduction in exp(-it log n)
dominates, and a first-order rounding model of the Horner tail;
`zeta_em` reports it, `zeta_em_grid` returns values only.

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

Every grid evaluation is a phase sum sum_n W_n e^{-it ln n} with one or two
weight columns, and `_phase_dot` is its one entry; the grid's shape alone
picks the kernel.  A uniform grid of two or more points -- every moment
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
bound, stays under the Gaussian's own error once deconvolved.  That costs
O(J terms + 2H J cells + L log L) for L = 2.5 points fine cells.  Any other
grid (one point, as in the scalar calls, or non-uniform) is summed directly,
exp(-i outer(t, ln n)) @ W, in row tiles.  The rounding bound is
eps((max|t| + 1) sum |W_n| ln n + sum |W_n|) on both paths; the NUFFT adds
eps 1.28 e^{pi H / (4R(R - 1/2))} sum |W_n| plus its truncation (16.1 eps
sum |W_n| at half-width H = 16 and oversampling R = 2.5): the rounding of
the spread values, weighted by the moments' coefficients, that the
deconvolution amplifies at the grid's edge modes, which dominates at
small |t|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_EM_TERMS = 12


class PoleError(Exception):
    """Evaluation requested at (or too close to) a pole."""


@dataclass(frozen=True)
class EvalResult:
    value: complex
    abs_error_estimate: float


def _em_cut(t: float) -> int:
    return int(max(2.0 * abs(t), 50.0))


def _zeta_domain(sigma: float, ts: np.ndarray) -> float:
    """max |t| of a grid, after the checks both zeta entry points make: the
    pole at s = 1 (PoleError) and the desk range |t| <= 1e5 (PrecisionError)."""
    absts = np.abs(ts)
    if abs(sigma - 1.0) < 1e-12 and math.hypot(sigma - 1.0, float(absts.min())) < 1e-12:
        raise PoleError("zeta has its pole at s=1")
    if absts.max() > 1e5:
        raise PrecisionError("|t| > 1e5 is outside the configured desk range")
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
    M = _em_cut(_zeta_domain(s.real, ts))
    if target_abs_err < 1e-12:
        raise PrecisionError("target_abs_err below the 1e-12 floor")
    value, est = _zeta_em(s.real, ts, M)
    if est > target_abs_err:
        raise PrecisionError(
            f"zeta_em cannot reach {target_abs_err:g} at s={s} (estimate {est:g})"
        )
    return EvalResult(complex(value[0]), est)


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


def _phase_dot(ts: np.ndarray, ln: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """out[i, :] = sum_n exp(-i ts[i] ln[n]) W[n, :] for real weights W, and
    its rounding bound per weight column.

    The grid's shape alone picks the kernel: a uniform grid of two or more
    points goes to `_nufft`, any other grid is summed directly, a few rows
    at a time so the phase matrix stays under _DIRECT_TILE entries.  The
    bound is eps ((max|t| + 1) sum |W_n| ln n + sum |W_n|), since the phase
    of n^{-it} is known to eps |t ln n| and each term rounds once; the NUFFT
    adds (eps _NU_MOM _NU_AMP + 2 _NU_GAUSS) sum |W_n| = 16.1 eps sum |W_n|
    for the rounding of its spread values, which the deconvolution amplifies
    at the grid's edge modes, and for its truncation (see `_nufft`); the
    direct sum adds eps (N - 1)/2 sum |W_n| for adding its N terms in
    whatever order the matrix product takes (at small |t| the summation is
    most of its error).
    """
    ts = np.asarray(ts, dtype=np.float64)
    aW = np.abs(W)
    sW = aW.sum(axis=0)
    tmax = float(np.abs(ts).max()) if len(ts) else 0.0
    rnd = _EPS * ((tmax + 1.0) * (ln @ aW) + sW)
    h = _grid_step(ts)
    if h is not None:
        return _nufft(ts, h, ln, W), rnd + (_EPS * _NU_MOM * _NU_AMP + 2.0 * _NU_GAUSS) * sW
    rows = max(1, _DIRECT_TILE // max(len(ln), 1))
    out = np.empty((len(ts), W.shape[1]), dtype=np.complex128)
    for i0 in range(0, len(ts), rows):
        out[i0: i0 + rows] = np.exp(-1j * np.outer(ts[i0: i0 + rows], ln)) @ W
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
# tests derive it; it is written out so that importing the module computes
# nothing.
_NU_TERMS = 16


def _nu_cheb(npts: int, L: int) -> np.ndarray:
    """C[o + H - 1, j], j < _NU_TERMS: exp(-a (o - f)^2) ~ sum_j C[o, j]
    T_j(2f - 1) on f in [0, 1) for the kernel exponent a = pi (L - P/2) / (L H)
    of a P-point grid on L cells.  It is the Chebyshev interpolant at the J
    first-kind points f_i = (1 + cos theta_i) / 2, theta_i = pi (2i + 1) / 2J,
    computed in long double and rounded once to double."""
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
    pi = ld(math.pi) + ld(1.2246467991473532e-16)  # math.pi and its remainder
    a = pi * (L - ld(npts) / 2) / (L * ld(_NU_HALF))
    o = np.arange(1, _NU_HALF + 1, dtype=ld)[:, None]
    up = np.dot(np.exp(-a * (o - f) ** 2), dct).astype(np.float64)
    # f -> 1 - f takes o to 1 - o and T_j(x) to (-1)^j T_j(x), and the points
    # are symmetric, so the offsets o <= 0 mirror the offsets o > 0
    return np.concatenate((up[::-1] * (-1.0) ** np.arange(J), up))


# The moments' weight on rounding: sum_{o,j} |C[o, j]| against the kernel's
# mass sum_o exp(-a (o - f)^2) = sqrt(pi/a), which grows with a and is
# 1.2758 at the top of _NU_A (the tests check the bound)
_NU_MOM = 1.276
_NU_TILE = 4096  # terms spread per pass, at most _NU_CELLS cells of them
# so that a pass's moments (J per cell and real row), the values of half its
# offsets (H per cell and row) and their indices each hold no more numbers
# than its terms do as complex weights, 2 _NU_TILE per column
_NU_CELLS = _NU_TILE // max(_NU_TERMS, _NU_HALF)


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
                  starts: np.ndarray) -> np.ndarray:
    """mu[j, r, k] = sum_n cp[r, n] T_j(x[n]), j < _NU_TERMS, over the k-th
    run of terms, runs starting at `starts`, with cp the terms
    c_n = W_n e^{i phase_n} as real rows Re c[:, 0], Im c[:, 0],
    Re c[:, 1], ...; one reduceat per j, whose inner loop runs over terms."""
    cp = np.empty((2 * W.shape[1], len(x)))
    prod = np.empty_like(cp)  # scratch for cos and sin, then cp T_j
    np.cos(phase, out=prod[0])
    np.multiply(W.T, prod[0], out=cp[0::2])
    np.sin(phase, out=prod[0])
    np.multiply(W.T, prod[0], out=cp[1::2])
    mu = np.empty((_NU_TERMS, len(cp), len(starts)))
    np.add.reduceat(cp, starts, axis=1, out=mu[0])
    x2 = 2.0 * x
    tp, tj, tn = np.ones_like(x), x, np.empty_like(x)
    for j in range(1, _NU_TERMS):
        if j > 1:  # T_j = 2 x T_{j-1} - T_{j-2}
            np.multiply(x2, tj, out=tn)
            tn -= tp
            tp, tj, tn = tj, tn, tp
        np.multiply(cp, tj, out=prod)
        np.add.reduceat(prod, starts, axis=1, out=mu[j])
    return mu


def _nufft(ts: np.ndarray, h: float, ln: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The phase sum on a uniform grid ts[j] = ts[mid] + m h, m = j - mid, as
    a type-1 nonuniform FFT with Gaussian gridding (Greengard-Lee 2004).

    With c_n = W_n exp(-i ts[mid] ln n) and x_n = h ln n, out[j] is
    sum_n c_n exp(-i m x_n).  Each c_n is spread onto the 2H nearest cells
    (H = _NU_HALF) of a periodic grid of L = 2^a 3^b 5^c >= R P cells
    (R = _NU_OVERSAMPLE, P points) by the Gaussian exp(-(x - x_n)^2 / 4 tau),
    tau = pi H / (L (L - P/2)); one FFT gives every mode, and dividing by the
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
    over the runs of terms that share a cell.  The cost is O(J terms
    + 2H J cells + L log L): J real multiply-adds per term and real column
    for the moments, 2H J per cell for C @ mu, and the FFT.  A pass takes at
    most _NU_TILE terms and _NU_CELLS cells, and adds its values to a grid
    padded by 2H - 1 cells, so that no index is reduced mod L until the
    padding is folded back once, before the FFT.  C @ mu is taken as 2H
    matrix-vector products, one batched `np.matmul` per half of the
    offsets, not as a matrix-matrix product, which would page in BLAS's gemm
    code (some 0.2 MB the rest of the program never runs).  Each value is
    then one dot product over j, and every other sum has a fixed order too,
    so the result depends only on the inputs, not on workers or BLAS
    threads.

    Error account, per mode m and in units of sum |c_n|: an absolute error
    E in the grid reaches mode m as E sqrt(pi/tau)/L exp(tau m^2), and the
    kernel's mass per term, sqrt(pi/a), times that gain is exp(tau m^2)
    <= exp(tau P^2/4) <= exp(pi H / (4 R (R - 1/2))) = _NU_AMP: 66 at R = 2,
    12 at R = 2.5.  Truncation: the Gaussian's _NU_GAUSS plus the
    expansion's, which J keeps below it.  Rounding, to first order with one
    rounding per term and sum as in `_phase_dot`: each mu_j sums terms of
    size |c_n T_j| <= |c_n|, and offset o weighs mu_j by |C[o, j]|, so the
    spread values carry eps sum_{o,j} |C[o, j]| <= eps _NU_MOM sqrt(pi/a)
    per unit |c_n| (_NU_MOM = 1.28); deconvolved, eps _NU_MOM _NU_AMP.
    """
    npts, ncol = len(ts), W.shape[1]
    mid = npts // 2
    L = _fft_len(math.ceil(_NU_OVERSAMPLE * npts))
    tau = math.pi * _NU_HALF / (L * (L - npts / 2.0))
    C = _nu_cheb(npts, L)
    # the terms of cell c land on the cells c + o, o = 1-H..H, of a grid padded
    # by H - 1 cells on the left and H on the right, folded back mod L at the end
    M = L + 2 * _NU_HALF - 1
    pad = np.zeros((ncol, M), dtype=np.complex128)
    flat = pad.view(np.float64).reshape(-1)
    R = 2 * ncol  # real rows Re c[:, 0], Im c[:, 0], Re c[:, 1], ...
    rows = np.array([r // 2 * 2 * M + r % 2 for r in range(R)])  # row r's start in flat
    # where[o + H - 1, r]: offset o from cell 0, in row r of flat
    where = (2 * np.arange(2 * _NU_HALF))[:, None, None] + rows[:, None]
    halves = [(C[i: i + _NU_HALF, :, None], where[i: i + _NU_HALF]) for i in (0, _NU_HALF)]
    j0 = 0
    while j0 < len(ln):
        lnt = ln[j0: j0 + _NU_TILE]
        u = lnt * (h * L / (2.0 * math.pi))  # x_n in cells
        cell = np.floor(u)
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        if len(starts) > _NU_CELLS:  # end the pass at its _NU_CELLS-th cell
            nt = starts[_NU_CELLS]
            lnt, u, cell, starts = lnt[:nt], u[:nt], cell[:nt], starts[:_NU_CELLS]
        cells = cell[starts].astype(np.int64)
        cells %= L
        cells *= 2  # where cell c of row 0 sits in flat, less the left padding
        u -= cell
        u *= 2.0
        u -= 1.0  # 2 f - 1
        mu = _cell_moments(u, lnt * -ts[mid], W[j0: j0 + len(u)], starts)
        muT = mu.reshape(_NU_TERMS, -1).T  # muT[r K + k, j] = mu[j, r, k]
        vals = np.empty((_NU_HALF, len(muT), 1))
        for Ch, at in halves:  # vals[o, r K + k] = sum_j C[o, j] mu[j, r, k]
            np.matmul(muT, Ch, out=vals)
            np.add.at(flat, (at + cells).ravel(), vals.ravel())
        j0 += len(u)
    grid = pad[:, _NU_HALF - 1: _NU_HALF - 1 + L]
    edge = np.r_[0: _NU_HALF - 1, L + _NU_HALF - 1: M]
    np.add.at(grid, (slice(None), (edge - (_NU_HALF - 1)) % L), pad[:, edge])
    np.fft.fft(grid, out=grid)
    m = np.arange(npts) - mid
    out = grid.T[m % L]
    out *= (np.exp(tau * m * m) * (math.sqrt(math.pi / tau) / L))[:, None]
    return out


def _zeta_em(sigma: float, ts: np.ndarray, M: int) -> tuple[np.ndarray, float]:
    """Euler-Maclaurin zeta(sigma+it) at cut M on a t-grid, with one error
    estimate for the grid: the method's part plus the rounding of tail and
    value.

    The value is the main sum over n < M plus M^{-s} B, with
        B = 1/2 + M/(s-1) + s A,  s A = sum_{r<=R} c_r P_r,
    P_r = s(s+1)...(s+2r-2), c_r = B_2r M^{1-2r}/(2r)! and R = _EM_TERMS.
    A is summed by Horner, A <- c_r + A q_r from A = c_R for r = R-1 down
    to 1, with q_r = (s+2r-1)(s+2r) = (sigma+2r-1)(sigma+2r) - t^2
    + i t (2 sigma + 4r - 1): its real part steps down by 4 sigma + 8r + 2
    from one r to the next and its imaginary part is formed afresh from the
    grid, so a term costs one complex product and no array beyond A and q.
    M^{-s} = exp(-s ln M) multiplies B once.

    The method's part is the remainder bound (first omitted Bernoulli term
    times |s+2R+1|/(sigma+2R+1)) plus the main sum's rounding bound from
    `_phase_dot`; both grow with |t|, so they are taken at the grid's
    largest |t|.  The rounding part, to first order in eps:
    - M^{-s}: its argument is known to eps |s| ln M, and exp adds 2 eps;
    - B: the division, the product s A and the two additions cost at most
      4.5 eps b, with b = 1/2 + M/|s-1| + sum_r |c_r P_r|, and the product
      M^{-s} B 2 eps more, so together with M^{-s} the tail is good to
      eps M^{-sigma} b (|s| ln M + 9);
    - Horner: each q_r is off by at most eps Q, Q = (R+1) max_r (|q_r| +
      |4 sigma + 8r + 2|) (the real part's R steps of subtraction), and
      each level's product and sum cost 2.5 eps, so s A is off by
      eps sum_r |c_r| |s| (prod_{l<r} |q_l| (2.5 r + 2)
      + Q sum_{i<r} prod_{l<r, l!=i} |q_l|);
    - the one addition of the tail into the value: eps/2 max |value|.
    Every product of |s + m| grows with |t|, so the Horner sums are taken at
    the grid's largest |t|; M/|s-1| is taken at its smallest.
    """
    n = np.arange(1, M, dtype=np.float64)
    out, rnd = _phase_dot(ts, np.log(n), (n ** (-sigma))[:, None])
    out = out[:, 0]
    R = _EM_TERMS
    c = [_BERN2R[r - 1] / math.factorial(2 * r) * M ** (1.0 - 2 * r) for r in range(1, R + 1)]
    lnM = math.log(M)
    A = np.full(len(ts), c[-1], dtype=np.complex128)
    q = np.empty_like(A)
    qr, qi = q.real, q.imag
    np.multiply(ts, ts, out=qr)
    np.subtract((sigma + 2 * R - 3) * (sigma + 2 * R - 2), qr, out=qr)  # Re q_{R-1}
    for r in range(R - 1, 0, -1):
        if r < R - 1:
            q -= 4.0 * sigma + 8 * r + 2
        np.multiply(ts, 2.0 * sigma + 4 * r - 1, out=qi)
        A *= q
        A += c[r - 1]
    qr[:] = sigma
    qi[:] = ts
    A *= q  # s A
    q -= 1.0
    np.divide(M, q, out=q)  # M/(s-1)
    A += q
    A += 0.5
    qr[:] = -sigma * lnM
    np.multiply(ts, -lnM, out=qi)
    np.exp(q, out=q)  # M^{-s}
    A *= q
    out += A
    # the bounds at the grid's largest |t|, where every |s + m| is largest
    absts = np.abs(ts)
    s = complex(sigma, float(absts.max()))
    qs = [abs((s + (2 * r - 1)) * (s + 2 * r)) for r in range(1, R + 1)]
    Q = (R + 1) * max(qs[r - 1] + abs(4.0 * sigma + 8 * r + 2) for r in range(1, R))
    pp = 1.0  # prod_{l<r} |q_l|
    dd = 0.0  # sum_{i<r} prod_{l<r, l!=i} |q_l|
    E = H = 0.0
    for r in range(1, R + 1):
        cs = abs(c[r - 1]) * abs(s)
        E += cs * pp
        H += cs * (pp * (2.5 * r + 2.0) + Q * dd)
        dd = dd * qs[r - 1] + pp
        pp *= qs[r - 1]
    r = R + 1
    Ms = M ** -sigma
    trunc = (
        abs(_BERN2R[r - 1]) / math.factorial(2 * r) * M ** (1.0 - 2 * r) * Ms
        * abs(s) * pp * abs(s + 2 * R + 1) / (sigma + 2 * R + 1)
    )
    near = math.hypot(sigma - 1.0, float(absts.min()))
    b = 0.5 + (M / near if near else math.inf) + E
    rnd_value = _EPS * (Ms * (b * (abs(s) * lnM + 9.0) + H) + 0.5 * float(np.abs(out).max()))
    return out, trunc + float(rnd[0]) + rnd_value


def zeta_em_grid(sigma: float, ts: np.ndarray) -> np.ndarray:
    """Vectorized zeta(sigma+it) on a grid, cut fixed per call at max |t|."""
    ts = np.asarray(ts, dtype=np.float64)
    if not len(ts):
        return np.empty(0, dtype=np.complex128)
    return _zeta_em(sigma, ts, _em_cut(_zeta_domain(sigma, ts)))[0]


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
    Terms run to n = 74 Y (or the table's end), where e^{-n/(2Y)} < 1e-16.
    """
    ts = np.asarray(ts, dtype=np.float64)
    cut2 = min(len(values), int(math.ceil(74.0 * Y)))
    n = np.arange(1, cut2 + 1, dtype=np.float64)
    npw = values[:cut2] * n ** (-sigma)
    W = np.stack([npw * np.exp(-n / Y), npw * np.exp(-n / (2.0 * Y))], axis=1)
    acc = _phase_dot(ts, np.log(n), W)[0]
    v1 = acc[:, 0]
    v2 = acc[:, 1]
    if residue is not None:
        one_m_s = 1.0 - (sigma + 1j * ts)
        lg = loggamma(one_m_s)
        v1 -= residue * np.exp(lg + one_m_s * math.log(Y))
        v2 -= residue * np.exp(lg + one_m_s * math.log(2.0 * Y))
    spread = float(np.abs(v2 - v1).max()) if len(ts) else 0.0
    return 2.0 * v2 - v1, spread
