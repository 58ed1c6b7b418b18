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
hidden.  Only the velocity is sampled there: the refined grid's radial
stacks hold VELOCITY's two shift rows, and gradient_lp_norm takes
1 <= p < inf.  That grid lives while a caller holds it (PolarGrid.refined):
band_profile holds it across its bands, else each sup rebuilds its stacks.

The sup of a SpectralField runs in blocks.  ModeTables.lines, the radial
and sign stages of forward, gives per channel c and refined circle r_i the
coefficients line_c(r_i) of cosines and sines, so |u| <= B_i =
sqrt(sum_c (sum_rows |line_c(r_i)|)^2) on circle i.  The angular stage runs
on fixed blocks of _SUP_BLOCK = 32 consecutive circles, in descending order
of their largest B_i times 1 + 1e-9, through _bounded_sup (below): once the
largest value found is >= 2^-500, a block whose bound does not exceed it
cannot hold the max and is skipped.  A block that runs is the same product
whether or not others are skipped; that its rows equal those of the whole
refined synthesis bit for bit is tested.  A GridVectorField's sup stays a
plain max.

Every L^p norm of a SpectralField integrates on PolarGrid.rule_for(f, p):
for even p the exact sub-grid of p n + 1 angles, n the top order with a
nonzero coefficient.  The gradient's integrand has rule_for's degree bound:
|d_x w|^2 + |d_y w|^2 = 2(|d_z w|^2 + |d_zbar w|^2), and d_z, d_zbar move
the frequencies [-(n-1), n+1] of w = u_x + i u_y down and up by one, so
it has degree <= 2n.  Odd or fractional p, GridVectorField input and the
pairings stay on the full grid.

A norm outside [2^-400, 2^400] is recomputed from its input scaled by a
power of two (basis.coeff_l2, the one home of that rescale), a power sum
outside [2^-900, 2^900] from squares scaled by one (for p > 2.25 a norm
inside the first range can have its power sum outside): lp_norm and
gradient_lp_norm of 2^k f are 2^k times their values.

Sup-only consumers skip the terms that cannot reach the sup.  A mode's
velocity obeys |u_x + i u_y| <= E_m at every node on the radial rule,
E_m = ModeTables.velocity_envelope (|scale_m| times the largest
|J_{n-1}| + |J_{n+1}| over the radial nodes), so a field c has |u| <=
sum_m |c_m| E_m at every node of every grid on that rule, sub-grids
included.  The quadrature weights are positive and sum to W, hence

    2^{js} ||phi_j f||_{L^p} <= W^{1/p} sum_m |c_m| |phi_j(m)| 2^{js} E_m,

and the same without phi_j and 2^{js} bounds ||f||_{L^p}.  The factor
1 + 1e-9 on these bounds covers the synthesis rounding, about 1e-13
relative, and the norms are relatively exact at every scale (above).  The
bounds are sums of products |c_m| w_m, and a product below 2^-1022 is
subnormal, rounded to an absolute 2^-1075 that no relative slack covers,
hence a floor: trajectory_norm evaluates its terms in descending bound
order and stops once the next bound is <= the largest value found and
that value is >= 2^-500: every skipped term is then <= that value, so the
sup is the exhaustive one bit for bit.  When a bound is not finite, every
term is evaluated.
trajectory_terms, besov_norm and band_profile stay exhaustive: their
per-term values are artifacts (trajectory.csv columns, NormReport.bands).
tail_smallness, on no CLI path, reads besov_norm's bands.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import (VELOCITY, GridVectorField, PolarGrid, SpectralField, coeff_l2,
                    field_gradient_values, synthesize)
from .dyadic import _multiplier, active_bands, apply_band, apply_window
from .errors import TruncationWarning

INF = math.inf
D = 2                   # space dimension of the disk

# a power sum inside this range has neither underflowed nor overflowed
_POWER_SUM_MIN, _POWER_SUM_MAX = 2.0 ** -900, 2.0 ** 900
# relative slack of the term bounds, against synthesis rounding of ~1e-13
_BOUND_SLACK = 1.0 + 1e-9
# skipping needs a largest value of at least this (module docstring)
_SKIP_FLOOR = 2.0 ** -500
# refined circles per angular product of a p = inf norm (module docstring)
_SUP_BLOCK = 32


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


def _power_sum(sq: np.ndarray, weights: np.ndarray, p: float, out) -> float:
    """sum of weights * sq^(p/2), the weighted p-th powers written to out (a
    new array when None).  Even integer p takes sq^(p/2) exactly, without a
    square root.  numpy's pairwise sum runs in one thread, unlike a BLAS dot,
    which can split a long sum across threads: the bits do not depend on
    the thread count."""
    if (p / 2.0).is_integer():
        out = np.power(sq, int(p) // 2, out=out)
    else:
        out = np.sqrt(sq, out=out)
        np.power(out, p, out=out)
    return float(np.add.reduce(np.multiply(out, weights, out=out), axis=None))


def _lp_from_squares(sq: np.ndarray, weights: np.ndarray, p: float, out=None) -> float:
    """L^p norm over the quadrature weights of a pointwise magnitude given by
    its square sq; out, when given, is a scratch array of sq's shape that is
    overwritten.  p = inf is the max of the magnitude.

    When the power sum leaves [2^-900, 2^900], or reads 0 or inf while the
    largest square is finite and nonzero, the p-th powers have underflowed
    or overflowed: the squares are then scaled by a power of two 2^-2e that
    brings the largest to [1/2, 2), and the root is scaled back by 2^e.  A
    sum inside the range is returned as computed, bit for bit.
    """
    if p == INF:
        return math.sqrt(float(sq.max()))
    total = _power_sum(sq, weights, p, out)
    if not _POWER_SUM_MIN <= total <= _POWER_SUM_MAX:
        top = float(sq.max())
        if 0.0 < top < INF:
            e = math.frexp(top)[1] // 2
            total = _power_sum(np.ldexp(sq, -2 * e), weights, p, None)
            return math.ldexp(total ** (1.0 / p), e)
    return total ** (1.0 / p)


def _homogeneous(norm, finite=False):
    """norm(v, grid, p), of degree one in v, made exact at every scale by
    basis.coeff_l2's power-of-two rescale of v's arrays.  The arguments are
    checked first (p = inf refused when finite), so that a zero v, which
    reads 0.0 without a call of norm, is refused where any other v is; norm
    gets p as a float."""
    @functools.wraps(norm)
    def exact(v, grid, p):
        p = _check_p(p)
        if finite and p == INF:
            raise ValueError(f"{norm.__name__} takes 1 <= p < inf")
        if isinstance(v, SpectralField):
            return coeff_l2(v.coeffs, norm=lambda c: norm(SpectralField(v.basis, c), grid, p))
        if isinstance(v, GridVectorField):
            if p != INF and v.grid.shape != grid.shape:
                raise ValueError("grid samples do not match the quadrature grid")
            return coeff_l2(v.ux, v.uy,
                            norm=lambda x, y: norm(GridVectorField(v.grid, x, y), grid, p))
        return norm(v, grid, p)
    return exact


@_homogeneous
def lp_norm(v, grid: PolarGrid, p) -> float:
    """L^p norm of the pointwise velocity magnitude over the disk.

    Accepts a SpectralField (synthesized on its quadrature grid: the
    exact angular sub-grid for even p, and for p = inf the refined
    companion grid, in blocks of circles, module docstring) or raw
    GridVectorField samples (p = inf then maximizes over the nodes the
    data lives on).
    """
    if isinstance(v, SpectralField):
        if p == INF:
            return _sup_norm(v, grid.rule_for(v, p))
        v = synthesize(v, grid.rule_for(v, p))
        # the samples are ours: square them in place, and take the powers
        # in uy once it has been added
        sq = np.square(v.ux, out=v.ux)
        sq += np.square(v.uy, out=v.uy)
        return _lp_from_squares(sq, v.grid.weights, p, out=v.uy)
    if isinstance(v, GridVectorField):
        sq, scratch = np.square(v.ux), np.square(v.uy)
        sq += scratch
        return _lp_from_squares(sq, v.grid.weights, p, out=scratch)
    raise TypeError("expected a SpectralField or GridVectorField")


@functools.partial(_homogeneous, finite=True)
def gradient_lp_norm(f: SpectralField, grid: PolarGrid, p) -> float:
    """L^p norm, 1 <= p < inf, of the pointwise Frobenius magnitude of the
    velocity gradient, on the same quadrature grid as lp_norm."""
    g = grid.rule_for(f, p)
    ten = field_gradient_values(f, g)
    return _lp_from_squares(np.sum(ten * ten, axis=(2, 3)), g.weights, p)


def _sup_norm(f: SpectralField, grid: PolarGrid) -> float:
    """max |u| over the nodes of grid, _SUP_BLOCK circles at a time in
    descending order of their bound (module docstring)."""
    tables = grid.tables(f.basis)
    lines = tables.lines(VELOCITY, f.coeffs)        # (2, rows, R)
    angular = tables.angular[:lines.shape[1]]
    starts = np.arange(0, grid.radial_order, _SUP_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        circle = np.sqrt(np.square(np.abs(lines).sum(axis=1)).sum(axis=0))
        bounds = np.maximum.reduceat(circle, starts) * _BOUND_SLACK

    def block_max(i: int) -> float:
        blk = lines[:, :, starts[i]:starts[i] + _SUP_BLOCK]
        ux, uy = np.matmul(blk.transpose(0, 2, 1), angular)
        sq = np.square(ux, out=ux)
        sq += np.square(uy, out=uy)
        return math.sqrt(float(sq.max()))

    return _bounded_sup(bounds, block_max)


def _aggregate(values: np.ndarray, q: float) -> float:
    if values.size == 0:
        return 0.0
    if q == INF:
        return float(values.max())
    return float(np.sum(values ** q) ** (1.0 / q))


def band_profile(f: SpectralField, grid: PolarGrid, p: float) -> tuple:
    """((j, ||phi_j(sqrt(A)) f||_{L^p}), ...) over the active bands; every
    block norm of f with this p aggregates it (besov_from_profile)."""
    held = grid.rule_for(f, p)          # for p = inf one companion serves every band
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


def _term_bounds(basis, coeffs: np.ndarray, grid: PolarGrid, p: float, bands) -> np.ndarray:
    """Upper bounds, one row per coefficient row f of coeffs, on the band
    terms 2^{j s} ||phi_j f||_{L^p} for j in bands (s = -1 + D/p), one
    column each, and on ||f||_{L^p} in the last column (module docstring);
    inf or NaN where the data is not finite or a bound overflows."""
    s = critical_index(p)
    weights = np.ones((basis.n_modes, len(bands) + 1))
    for col, j in enumerate(bands):
        weights[:, col] = 2.0 ** (j * s) * np.abs(_multiplier(basis, j, False))
    weights *= grid.tables(basis).velocity_envelope[:, None]
    with np.errstate(invalid="ignore", over="ignore"):    # inf data: NaN bounds
        bounds = np.array([np.abs(row) @ weights for row in coeffs])
        bounds *= float(grid.weights.sum()) ** (1.0 / p) * _BOUND_SLACK
    return bounds


def _bounded_sup(bounds: np.ndarray, term) -> float:
    """np.max([term(i) for each flat index i of bounds], initial=0.0), bit
    for bit, where term(i) <= bounds[i].  The terms run in descending bound
    order and stop once the next bound is <= the largest value found, if
    that value is at least _SKIP_FLOOR; every term runs when a bound is not
    finite."""
    bounds = bounds.reshape(-1)
    if not np.isfinite(bounds).all():
        # np.max, unlike max(), carries a NaN through: a NaN norm must not read 0
        return float(np.max([term(i) for i in range(bounds.size)], initial=0.0))
    best = 0.0
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] <= best and best >= _SKIP_FLOOR:
            break
        best = max(best, term(int(i)))
    return float(best)


def _trajectory_times(traj, p: float):
    """Validated snapshot times and the weight exponent (1 - D/p)/2."""
    p = _check_p(p)
    if not (D < p < INF):
        raise ValueError("trajectory norm requires 2 < p < inf")
    times = np.asarray(traj.times, dtype=float)
    if times.size == 0:
        raise ValueError("trajectory has no snapshots")
    if (times < 0.0).any() or (np.diff(times) <= 0.0).any():
        raise ValueError("trajectory times must be nonnegative and strictly increasing")
    return times, 0.5 * (1.0 - D / p)


def trajectory_terms(traj, p: float, grid: PolarGrid):
    """The per-time terms of trajectory_norm, one entry per snapshot:

        (||u(t)||_{B^{-1+D/p}_{p,inf}},  t^{(1-D/p)/2} ||u(t)||_{L^p})

    as two arrays, every term evaluated.  Requires D < p < inf.
    """
    times, alpha = _trajectory_times(traj, p)
    idx = BesovIndex(critical_index(p), p, INF)
    block = np.array([besov_norm(f, idx, grid).value for _, f in traj])
    weighted = np.array([t ** alpha * lp_norm(f, grid, p) for t, f in traj])
    return block, weighted


def trajectory_norm(traj, p: float, grid: PolarGrid, terms=None) -> float:
    """Solution-space norm of a time-indexed family of spectral fields:

        sup_t ||u(t)||_{B^{-1+D/p}_{p,inf}}  +  sup_t t^{(1-D/p)/2} ||u(t)||_{L^p}

    Requires D < p < inf.  A leading t = 0 snapshot is allowed: the weight
    vanishes there and the block-norm sup legitimately includes the datum.
    terms is trajectory_terms(traj, p, grid) when the caller already has it.

    Without terms, only the terms that can reach a sup are evaluated.  Row
    by row, one (modes,) @ (modes, bands + 1) product bounds the row's terms
    through the modes' velocity envelopes E_m, W^{1/p} sum_m |c_m|
    |phi_j(m)| 2^{js} E_m for a band term, with a slack of 1 + 1e-9 against
    synthesis rounding of about 1e-13 (module docstring).  Each sup runs in descending bound order
    and stops once the next bound is <= the largest value found, which no
    skipped term can exceed: the result is the exhaustive one bit for bit.
    trajectory_terms stays exhaustive; its values are trajectory.csv columns.
    """
    if terms is not None:
        block, weighted = terms
        return float(np.max(block, initial=0.0) + np.max(weighted, initial=0.0))
    times, alpha = _trajectory_times(traj, p)
    bands = active_bands(traj.basis)
    bounds = _term_bounds(traj.basis, traj.coeffs, grid, p, bands)
    s, nb = critical_index(p), len(bands)

    def band_term(i):
        j = bands[i % nb]
        return 2.0 ** (j * s) * lp_norm(apply_band(traj.field(i // nb), j), grid, p)

    block = _bounded_sup(bounds[:, :-1], band_term)
    weighted = _bounded_sup(bounds[:, -1] * times ** alpha,
                            lambda i: times[i] ** alpha * lp_norm(traj.field(i), grid, p))
    return float(block + weighted)


def tail_smallness(u0: SpectralField, p: float, J: int, grid: PolarGrid) -> float:
    """sup over bands j >= J of 2^{(-1+D/p) j} ||phi_j(sqrt(A)) u0||_{L^p}.

    The local-solvability smallness diagnostic: data is admissible when this
    is small for some J.  If J lies above the last active band the truncated
    spectrum cannot see the tail; the result is 0 with a TruncationWarning.
    It reads besov_norm's bands (q = inf), so every active band is evaluated.
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
    bands = besov_norm(u0, BesovIndex(critical_index(p), p, INF), grid).bands
    # np.max, unlike max(), carries a NaN through: a NaN norm must not read 0
    return float(np.max([v for j, v in bands if j >= J]))
