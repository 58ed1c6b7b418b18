"""Diagonal heat semigroup of the Stokes operator and estimate scanners.

e^{-tA} multiplies each eigencoefficient by exp(-t lambda_m), so the
semigroup law, commutation with every spectral multiplier, and L^2
contractivity hold to rounding.  The interesting content is quantitative:
the scanners below measure smoothing and boundedness estimates as ratios of
quadrature norms against the claimed time power, reporting the measured
constant and the fitted log-log slope instead of asserting any particular C.

Scans never assert sharpness: on a truncated spectrum a t -> 0 blowup
saturates once 1/t passes lambda_max, so slope assertions made by callers
should be one-sided (measured rate no steeper than claimed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, PolarGrid, SpectralField, mode_values_at
from .errors import ResolutionError
from .norms import (D, BesovIndex, band_profile, besov_from_profile, besov_norm,
                    dual_pairing, gradient_lp_norm, lp_norm)

KERNEL_TAIL_TOL = 1e-12
_KERNEL_BLOCK = 16          # points per side in one evaluation and matmul batch of kernel_matrix


def heat_apply(f: SpectralField, t: float) -> SpectralField:
    """e^{-tA} f: coefficient-wise decay exp(-t lambda); t = 0 is the identity."""
    t = float(t)
    if t < 0.0:
        raise ValueError("heat flow runs forward only (t >= 0)")
    return SpectralField(f.basis, f.coeffs * np.exp(-t * f.basis.lam))


def kernel_tail_threshold(basis: Basis) -> float:
    """Smallest t at which the truncated kernel sum is tail-resolved:
    exp(-t lambda_max) <= KERNEL_TAIL_TOL relative to the leading
    exp(-t lambda_min)."""
    return math.log(1.0 / KERNEL_TAIL_TOL) / (basis.lambda_max - basis.lambda_min)


def kernel_matrix(x, y, t, basis: Basis) -> np.ndarray:
    """Matrix-valued heat kernel sum_m e^{-t lambda_m} e_m(x) (x) e_m(y).

    x and y are points (2,) or point-pair arrays (P, 2), a single point
    pairing with every point of the other side; t is a scalar or a 1-D
    array.  Shape t.shape + (P, 2, 2), no P axis for two single points.

    The mode values, radial rows included, are computed _KERNEL_BLOCK
    points of each side at a time in one basis.mode_values_at call, and a
    single point's once, so neither a (P, n_modes, 2) array nor a side's
    whole radial rows are built.  A block's values and products are those
    of the same points in the whole arrays, bit for bit.

    Refuses any t below the tail-resolution threshold: there the truncation
    error is not small relative to the kernel itself and the Gaussian-decay
    statements would be tested against noise.
    """
    ts = np.asarray(t, dtype=float)
    t_min = kernel_tail_threshold(basis)
    if not np.all(ts >= t_min):
        raise ResolutionError(
            f"kernel tail unresolved at t={float(np.min(ts))!r}: exp(-t lambda_max) "
            f"exceeds {KERNEL_TAIL_TOL:g} of the leading term; need t >= {t_min!r} "
            "at this truncation")
    sides = [np.atleast_2d(np.asarray(v, dtype=float)) for v in (x, y)]
    count = np.broadcast_shapes(*((len(pts),) for pts in sides))[0]
    # a single point's values, once, repeated along every block
    single = [np.broadcast_to(mode_values_at(basis, pts), (_KERNEL_BLOCK, basis.n_modes, 2))
              if len(pts) == 1 else None for pts in sides]
    decay = [np.exp(-tv * basis.lam) for tv in ts.ravel()]
    kern = np.empty((len(decay), count, 2, 2))

    def contract(lo):
        # (e_x e^{-t lambda})^T e_y per point of the block: both sides'
        # values from one mode_values_at call, and the weighted copy of e_x
        # the only other temporary; all of them are freed on return
        blk = slice(lo, lo + _KERNEL_BLOCK)
        many = [pts[blk] for pts, one in zip(sides, single) if one is None]
        fresh = iter(np.split(mode_values_at(basis, np.concatenate(many)), len(many))
                     if many else ())
        ex, ey = (next(fresh) if one is None else one[:count - lo] for one in single)
        ex_t = ex.transpose(0, 2, 1)
        for i, w in enumerate(decay):
            np.matmul(ex_t * w, ey, out=kern[i, blk])

    for lo in range(0, count, _KERNEL_BLOCK):
        contract(lo)
    kern = kern.reshape(ts.shape + kern.shape[1:])
    return kern[..., 0, :, :] if np.ndim(x) == np.ndim(y) == 1 else kern


@dataclass(frozen=True)
class EstimateScan:
    """Evidence for one measured estimate: per-parameter left sides against
    the claimed model (right side with constant 1), the worst ratio, and a
    log-log slope where the parameter is a scale."""

    lhs: np.ndarray
    rhs_model: np.ndarray
    ratio: np.ndarray = field(init=False)
    slope: float | None = None
    slope_claimed: float | None = None
    skipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ratio", self.lhs / self.rhs_model)

    @property
    def max_ratio(self) -> float:
        return float(self.ratio.max()) if self.ratio.size else 0.0


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x (nan if x has no spread)."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    lx = lx - lx.mean()
    denom = np.dot(lx, lx)
    if denom == 0.0:
        return math.nan
    return float(np.dot(lx, ly - ly.mean()) / denom)


def _time_scan(t_grid, samples, top, bottom, claimed: float) -> EstimateScan:
    """The loop the three time scans share: per t, the worst
    top(e^{-tA} f) / bottom(f) over the samples, against the model
    t^claimed.  Samples with bottom(f) = 0 are skipped and counted."""
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid <= 0.0).any():
        raise ValueError("t grid must be positive")
    normed = [(f, bottom(f)) for f in samples]
    kept = [(f, nf) for f, nf in normed if nf > 0.0]
    lhs = np.array([max(top(heat_apply(f, t)) / nf for f, nf in kept)
                    for t in t_grid])
    return EstimateScan(lhs=lhs, rhs_model=t_grid ** claimed,
                        slope=loglog_slope(t_grid, lhs), slope_claimed=claimed,
                        skipped=len(normed) - len(kept))


def scan_besov_bounded(s: float, p: float, q: float, t_grid, samples,
                       grid: PolarGrid) -> EstimateScan:
    """Ratios ||e^{-tA} f|| / ||f|| in the (s, p, q) block norm; the claimed
    model is boundedness (time power zero)."""
    idx = BesovIndex(s, p, q)

    def norm(f):
        return besov_norm(f, idx, grid).value

    return _time_scan(t_grid, samples, norm, norm, 0.0)


def scan_smoothing(s: float, s0: float, p: float, p0: float, t_grid, samples,
                   grid: PolarGrid, profiles: dict | None = None) -> EstimateScan:
    """Smoothing estimate scan: left side ||e^{-tA} f|| in (s, p, 1) against
    t^(-(s-s0)/2 - (D/2)(1/p - 1/p0)) ||f|| in (s0, p0, inf).

    Requires s >= s0, p <= p0 and a nonnegative gap
    s - s0 - D (1/p - 1/p0); gap zero is plain boundedness, a negative gap
    is rejected (the estimate is not claimed there).

    profiles memoizes band profiles by (p, coefficients); pass one dict to
    several scans of the same samples on one grid, and each
    (sample, t, p) profile is computed once for all their indices.
    """
    if s < s0:
        raise ValueError("smoothing scan requires s >= s0")
    if p > p0:
        raise ValueError("smoothing scan requires p <= p0")
    gap = (s - s0) - D * (1.0 / p - 1.0 / p0)
    if gap < 0.0:
        raise ValueError("smoothing gap s - s0 - 2(1/p - 1/p0) must be >= 0")
    claimed = -0.5 * (s - s0) - 0.5 * D * (1.0 / p - 1.0 / p0)
    memo = {} if profiles is None else profiles

    def norm(idx):
        def value(f):
            key = (idx.p, f.coeffs.tobytes())
            if key not in memo:
                memo[key] = band_profile(f, grid, idx.p)
            return besov_from_profile(memo[key], idx).value
        return value

    return _time_scan(t_grid, samples, norm(BesovIndex(s, p, 1.0)),
                      norm(BesovIndex(s0, p0, math.inf)), claimed)


def scan_gradient(p: float, t_grid, samples, grid: PolarGrid) -> EstimateScan:
    """Gradient smoothing: ||grad e^{-tA} f||_{L^p} against t^{-1/2} ||f||_{L^p}."""
    if not (1.0 < float(p) < math.inf):
        raise ValueError("gradient smoothing is claimed for 1 < p < inf")
    return _time_scan(t_grid, samples, lambda f: gradient_lp_norm(f, grid, p),
                      lambda f: lp_norm(f, grid, p), -0.5)


def gradient_vs_besov(p: float, samples, grid: PolarGrid) -> EstimateScan:
    """Measured constant in ||grad f||_{L^p} <= C ||f|| in the (1, p, 1) block
    norm, sample by sample (the parameter axis is the sample index)."""
    if not (1.0 < float(p) < math.inf):
        raise ValueError("the gradient block-norm bound is claimed for 1 < p < inf")
    idx = BesovIndex(1.0, p, 1.0)
    lhs, rhs = [], []
    skipped = 0
    for f in samples:
        nf = besov_norm(f, idx, grid).value
        if nf == 0.0:
            skipped += 1
            continue
        lhs.append(gradient_lp_norm(f, grid, p))
        rhs.append(nf)
    lhs, rhs = np.array(lhs), np.array(rhs)
    return EstimateScan(lhs=lhs, rhs_model=rhs, skipped=skipped)


def weak_star_continuity(f: SpectralField, g: SpectralField, t_seq,
                         grid: PolarGrid) -> np.ndarray:
    """Band-paired test of e^{-tA} f -> f: the dual pairing of the increment
    against g, one value per requested time."""
    t_seq = np.asarray(t_seq, dtype=float)
    out = np.empty(t_seq.size)
    for i, t in enumerate(t_seq):
        out[i] = dual_pairing(heat_apply(f, t) - f, g, grid)
    return out
