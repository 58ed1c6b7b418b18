"""L^p and dyadic-block (Besov-type) norms for disk velocity fields.

The homogeneous norm with indices (s, p, q) is the l^q aggregate of the band
values 2^(j s) ||phi_j(sqrt(A)) f||_{L^p}; on a finite spectrum only the
active bands contribute, everything else is exactly zero.  Band L^p norms go
through grid quadrature (never through coefficient shortcuts), so the same
code path is exercised whether or not a spectral identity happens to apply.

p = infinity and q = infinity are encoded as math.inf, never as a large
finite float.  The sup norm is approximated by a max over a refinement grid
three times denser in each direction; truncated fields have bounded
gradients, so the refinement error is controlled and documented rather than
hidden.

Even integer p on a SpectralField integrates on the grid's exact angular
sub-grid PolarGrid.exact_subgrid(p n), the same radial rule on p n + 1
equispaced angles, n the top order with a nonzero coefficient.  At each
radius the velocity of the modes of order <= n is w = u_x + i u_y, a sum
of J_{m+1} e^{i(m+1)th} and J_{m-1} e^{-i(m-1)th} over m <= n, so its
angular frequencies lie in [-(n-1), n+1] and |u|^2 = w conj(w) has angular
degree <= 2n.  The squared Frobenius magnitude of the gradient is
|d_x w|^2 + |d_y w|^2 = 2(|d_z w|^2 + |d_zbar w|^2), and d_z, d_zbar move
every frequency down and up by one ([-n, n] and [-(n-2), n+2]), so it has
degree <= 2n as well.  |u|^p = (|u|^2)^(p/2) then has degree <= p n, and
N equispaced angles integrate every trig polynomial of degree < N exactly,
so the sub-grid's quadrature equals the full grid's up to rounding; the
radial Gauss rule is the same on both.  The bound is tight: N = p n angles
alias the degree-p n term into the mean.  p = inf (refined grid), odd or
fractional p, GridVectorField input and the pairings stay on the full grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import GridVectorField, PolarGrid, SpectralField, field_gradient_values, synthesize
from .dyadic import active_bands, apply_band, apply_window
from .errors import TruncationWarning

INF = math.inf
D = 2                   # space dimension of the disk


def critical_index(p: float) -> float:
    """Scaling-critical regularity -1 + D/p for velocity data on the disk."""
    return -1.0 + D / p


def _check_p(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError("integrability index p must lie in [1, inf]")
    return p


@dataclass(frozen=True)
class BesovIndex:
    """Index triple (s, p, q); p or q may be math.inf."""

    s: float
    p: float
    q: float

    def __post_init__(self):
        _check_p(self.p)
        if not (float(self.q) >= 1.0):
            raise ValueError("summation index q must lie in [1, inf]")


@dataclass(frozen=True)
class NormReport:
    """Band-by-band breakdown of one dyadic norm evaluation."""

    index: BesovIndex
    bands: tuple          # ((j, 2^{js} * band L^p value), ...)
    value: float


def _lp_from_squares(sq: np.ndarray, weights: np.ndarray, p: float) -> float:
    """L^p norm over the quadrature weights of a pointwise magnitude given by
    its square sq, which is overwritten.

    Even integer p takes |u|^p = sq^(p/2) exactly (no square root), in place;
    p = inf is the max of the magnitude, other p integrate sqrt(sq)^p.
    """
    if p == INF:
        return math.sqrt(float(sq.max()))
    if (p / 2.0).is_integer():
        np.power(sq, int(p) // 2, out=sq)
    else:
        np.sqrt(sq, out=sq)
        np.power(sq, p, out=sq)
    return float(np.vdot(weights, sq)) ** (1.0 / p)


def _quadrature_grid(f: SpectralField, grid: PolarGrid, p: float) -> PolarGrid:
    """The grid an L^p norm of f integrates on: the refined companion for
    p = inf, the exact angular sub-grid for even p (module docstring), else
    grid itself."""
    if p == INF:
        return grid.refined()
    if (p / 2.0).is_integer():
        return grid.exact_subgrid(int(p) * f.top_order())
    return grid


def lp_norm(v, grid: PolarGrid, p) -> float:
    """L^p norm of the pointwise velocity magnitude over the disk.

    Accepts a SpectralField (synthesized on its quadrature grid: the
    exact angular sub-grid for even p, the refined companion grid
    for p = inf) or raw GridVectorField samples (p = inf then maximizes
    over the nodes the data lives on).
    """
    p = _check_p(p)
    if isinstance(v, SpectralField):
        v = synthesize(v, _quadrature_grid(v, grid, p))
        # the samples are ours: square them in place
        sq = np.square(v.ux, out=v.ux)
        sq += np.square(v.uy, out=v.uy)
    elif isinstance(v, GridVectorField):
        if p != INF and v.grid.shape != grid.shape and v.grid.shape != grid.refined().shape:
            raise ValueError("grid samples do not match the quadrature grid")
        sq = np.square(v.ux)
        sq += np.square(v.uy)
    else:
        raise TypeError("expected a SpectralField or GridVectorField")
    return _lp_from_squares(sq, v.grid.weights, p)


def gradient_lp_norm(f: SpectralField, grid: PolarGrid, p) -> float:
    """L^p norm of the pointwise Frobenius magnitude of the velocity gradient,
    on the same quadrature grid as lp_norm."""
    p = _check_p(p)
    g = _quadrature_grid(f, grid, p)
    ten = field_gradient_values(f, g)
    return _lp_from_squares(np.sum(ten * ten, axis=(2, 3)), g.weights, p)


def _aggregate(values: np.ndarray, q: float) -> float:
    if values.size == 0:
        return 0.0
    if q == INF:
        return float(values.max())
    return float(np.sum(values ** q) ** (1.0 / q))


def band_profile(f: SpectralField, grid: PolarGrid, p: float) -> tuple:
    """((j, ||phi_j(sqrt(A)) f||_{L^p}), ...) over the active bands; every
    block norm of f with this p aggregates it (besov_from_profile)."""
    return tuple((j, lp_norm(apply_band(f, j), grid, p)) for j in active_bands(f.basis))


def besov_from_profile(profile: tuple, idx: BesovIndex) -> NormReport:
    """The (s, p, q) block norm from the band profile of its p."""
    bands = tuple((j, 2.0 ** (j * idx.s) * band_lp) for j, band_lp in profile)
    vals = np.array([v for _, v in bands])
    return NormReport(index=idx, bands=bands, value=_aggregate(vals, idx.q))


def besov_norm(f: SpectralField, idx: BesovIndex, grid: PolarGrid) -> NormReport:
    """Dyadic-block norm of a spectral field, with the per-band breakdown."""
    return besov_from_profile(band_profile(f, grid, idx.p), idx)


def dual_pairing(f: SpectralField, g: SpectralField, grid: PolarGrid) -> float:
    """sum_j integral of (phi_j(sqrt(A)) f) . (Phi_j(sqrt(A)) g) over the disk.

    The widened window Phi_j = phi_{j-1} + phi_j + phi_{j+1} makes the band
    products resolve the identity, so on a finite spectrum this equals the
    plain L^2 pairing of f and g; it is still computed band by band through
    quadrature, which is the route the pairing estimates actually bound.
    """
    if f.basis.cache_key != g.basis.cache_key:
        raise ValueError("fields live on different bases")
    total = 0.0
    for j in active_bands(f.basis):
        vf = synthesize(apply_band(f, j), grid)
        vg = synthesize(apply_window(g, j), grid)
        total += float(np.sum(grid.weights * (vf.ux * vg.ux + vf.uy * vg.uy)))
    return total


def trajectory_terms(traj, p: float, grid: PolarGrid):
    """The per-time terms of trajectory_norm, one entry per snapshot:

        (||u(t)||_{B^{-1+D/p}_{p,inf}},  t^{(1-D/p)/2} ||u(t)||_{L^p})

    as two arrays.  Requires D < p < inf.
    """
    p = _check_p(p)
    if not (D < p < INF):
        raise ValueError("trajectory norm requires 2 < p < inf")
    times = np.asarray(traj.times, dtype=float)
    if times.size == 0:
        raise ValueError("trajectory has no snapshots")
    if (times < 0.0).any() or (np.diff(times) <= 0.0).any():
        raise ValueError("trajectory times must be nonnegative and strictly increasing")
    idx = BesovIndex(critical_index(p), p, INF)
    alpha = 0.5 * (1.0 - D / p)
    block = np.array([besov_norm(f, idx, grid).value for f in traj.fields])
    weighted = np.array([t ** alpha * lp_norm(f, grid, p)
                         for t, f in zip(times, traj.fields)])
    return block, weighted


def trajectory_norm(traj, p: float, grid: PolarGrid, terms=None) -> float:
    """Solution-space norm of a time-indexed family of spectral fields:

        sup_t ||u(t)||_{B^{-1+D/p}_{p,inf}}  +  sup_t t^{(1-D/p)/2} ||u(t)||_{L^p}

    Requires D < p < inf.  A leading t = 0 snapshot is allowed: the weight
    vanishes there and the block-norm sup legitimately includes the datum.
    terms is trajectory_terms(traj, p, grid) when the caller already has it.
    """
    block, weighted = trajectory_terms(traj, p, grid) if terms is None else terms
    # np.max, unlike max(), carries a NaN through: a NaN norm must not read 0
    return float(np.max(block, initial=0.0) + np.max(weighted, initial=0.0))


def tail_smallness(u0: SpectralField, p: float, J: int, grid: PolarGrid) -> float:
    """sup over bands j >= J of 2^{(-1+D/p) j} ||phi_j(sqrt(A)) u0||_{L^p}.

    The local-solvability smallness diagnostic: data is admissible when this
    is small for some J.  If J lies above the last active band the truncated
    spectrum cannot see the tail; the result is 0 with a TruncationWarning.
    """
    p = _check_p(p)
    if not (D < p):
        raise ValueError("tail smallness requires p > 2")
    j_hi = active_bands(u0.basis)[-1]
    if J > j_hi:
        warnings.warn(
            f"tail start J={J} exceeds the last active band j={j_hi}; "
            "the truncated spectrum carries no tail information there",
            TruncationWarning, stacklevel=2)
        return 0.0
    s = critical_index(p)
    # np.max, unlike max(), carries a NaN through: NaN data must not read small
    return float(np.max([2.0 ** (j * s) * band_lp
                         for j, band_lp in band_profile(u0, grid, p) if j >= J],
                        initial=0.0))
