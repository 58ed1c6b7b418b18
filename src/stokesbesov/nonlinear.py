"""Projected convection term N(u) = P div(u (x) u) and its diagnostics.

The weak form is the definition: the m-th coefficient of N(u) is

    -integral over the disk of  sum_{j,k} u_j u_k d_{x_k} (e_m)_j

evaluated pseudo-spectrally (synthesize u, form the quadratic products on
the nodes, contract against mode gradients by quadrature).  Because
d_y (e_m)_y = -d_x (e_m)_x pointwise, the contraction collapses to two
scalar products D = u_x^2 - u_y^2 and P = u_x u_y hit by angular transforms
and the order-shifted radial tables; no per-mode dense tensors are stored.

Since every test field is divergence-free and tangent to the boundary, the
trilinear form is antisymmetric and <N(u), u> vanishes; that orthogonality
and the dissipation identity <A u, u> = ||curl u||^2 are exposed here as
numerical residuals, not assumed.

Aliasing policy: N(u) integrates on PolarGrid.rule_for(u, 2, n_max), the
sub-grid of 2 n + n_max + 1 angles, n the top order with a nonzero
coefficient: D + 2iP = w^2 has angular frequencies in [-2(n-1), 2(n+1)],
and the _CONVECTION terms of output order m pair into Im[w^2
e^{-i(m+2)th}] J_{m+2} and Im[w^2 e^{i(m-2)th}] J_{m-2}, so every
coefficient's integrand has degree <= 2 n + m <= 2 n + n_max (the fact
behind Orszag's 3/2 rule).  nonlinear_coeffs first refuses a grid below
the dealiasing margin at top order n_max (PolarGrid.checked_rule_for);
dealiasing_check bypasses that gate, so that under-resolved setups can be
demonstrated rather than just refused, and recomputes every coefficient
on a 1.5x full grid, an independent quadrature in angle and radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (COS, GRADIENT, SIN, Basis, GridVectorField, ModeTables,
                    PolarGrid, SpectralField, Transform, analyze, apply_stokes,
                    build_grid, curl_l2, synthesize)


DEALIAS_FACTOR = 1.5          # check grid / working grid, in each direction
DEALIAS_TOL = 1e-7


@dataclass(frozen=True)
class DealiasReport:
    passed: bool
    margin: float                 # DEALIAS_TOL / worst relative change (inf if exact)
    scale: float                  # coefficient scale the changes are relative to


@dataclass(frozen=True)
class EnergyResidual:
    advection: float              # |<N(u), u>|
    dissipation_gap: float        # | <Au, u> - ||curl u||^2 |


# The weak form contracts u (x) u with each mode's gradient: since
# d_y (e_m)_y = -d_x (e_m)_x it is -integral of D G_xx + P (G_yx + G_xy), and
# the J_n terms of G_yx + G_xy cancel, leaving the order shifts n -+ 2.
_CONVECTION = Transform(
    shifts=(-2, 2), channels=2,
    terms=((2, 0, SIN, -1.0), (-2, 0, SIN, 1.0), (2, 1, COS, 2.0), (-2, 1, COS, 2.0)),
    scale=GRADIENT.scale)


def _convection_coeffs(u: SpectralField, grid: PolarGrid) -> np.ndarray:
    """Weak-form coefficients of P div(u (x) u) by quadrature on grid, no gates."""
    v = synthesize(u, grid)
    P = v.ux * v.uy
    D = np.square(v.ux, out=v.ux)      # the samples are ours: square in place
    D -= np.square(v.uy, out=v.uy)
    return grid.tables(u.basis).adjoint(_CONVECTION, (D, P))


def nonlinear_coeffs(u: SpectralField, tables: ModeTables) -> SpectralField:
    """N(u) as a spectral field, tables = grid.tables(basis); output is
    divergence-free by construction (its coefficients are taken against
    divergence-free modes)."""
    basis, grid = tables.basis, tables.grid
    if u.basis.cache_key != basis.cache_key:
        raise ValueError("field does not match the basis of the mode tables")
    sub = grid.checked_rule_for(u, 2, basis.n_max)
    return SpectralField(u.basis, _convection_coeffs(u, sub))


def dealiasing_check(u: SpectralField, tables: ModeTables) -> DealiasReport:
    """Recompute every coefficient of N(u) on the 1.5x grid and compare; pass
    iff the worst change is at most DEALIAS_TOL relative to the coefficient
    scale of N(u)."""
    r = int(math.ceil(tables.grid.radial_order * DEALIAS_FACTOR))
    a = int(math.ceil(tables.grid.angular_count * DEALIAS_FACTOR))
    coarse = _convection_coeffs(u, tables.grid.rule_for(u, 2, u.basis.n_max))
    fine = _convection_coeffs(u, build_grid(r, a + a % 2))
    scale = float(np.abs(coarse).max())
    if scale == 0.0:
        return DealiasReport(passed=True, margin=math.inf, scale=0.0)
    worst = float(np.abs(fine - coarse).max()) / scale
    margin = math.inf if worst == 0.0 else DEALIAS_TOL / worst
    return DealiasReport(passed=worst <= DEALIAS_TOL, margin=margin, scale=scale)


def helmholtz_project(v: GridVectorField, basis: Basis, grid: PolarGrid):
    """Split grid samples into the truncated divergence-free part and the
    quadrature remainder v - synthesize(analyze(v)).

    The remainder contains the gradient component (plus whatever the
    truncation cannot represent); it is quadrature-orthogonal to every mode.
    No pressure is reconstructed: the mild formulation never needs it.
    """
    proj = analyze(v, basis, grid)
    recon = synthesize(proj, grid)
    remainder = GridVectorField(grid, v.ux - recon.ux, v.uy - recon.uy)
    return proj, remainder


def energy_identity_residual(u: SpectralField, tables: ModeTables) -> EnergyResidual:
    """Numerical residuals of the two energy-budget identities:
    advection neutrality <N(u), u> = 0 and dissipation <Au, u> = ||curl u||^2
    (spectral pairing versus curl_l2's quadrature, two distinct routes)."""
    n_u = _convection_coeffs(u, tables.grid.rule_for(u, 2, u.basis.n_max))
    # summed in one thread, not by a BLAS dot that can split across threads
    advection = abs(float(np.add.reduce(n_u * u.coeffs)))
    pairing = float(np.add.reduce(apply_stokes(u).coeffs * u.coeffs))
    dissipation = curl_l2(u, tables.grid) ** 2
    return EnergyResidual(advection, abs(pairing - dissipation))
