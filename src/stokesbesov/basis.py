"""Divergence-free eigenbasis of the Stokes operator on the unit disk.

Every eigenfield is a rotated gradient of a Dirichlet Laplacian eigenfunction
(the stream function):

    psi_{n,k}(r, th) = J_n(j_{n,k} r) * {cos(n th), sin(n th)},  psi = 0 on r = 1,
    u = (d_y psi, -d_x psi),   i.e.  u_r = psi_th / r,  u_th = -psi_r,

with eigenvalue lambda_{n,k} = j_{n,k}^2 (square of the k-th positive zero of
J_n).  The stream function vanishing on the boundary forces u . nu = 0 there,
and the vorticity curl u = -Laplace(psi) = lambda psi vanishes on the boundary
as well, which is the free-boundary condition this basis encodes.  Fields are
normalized to unit L^2 norm: ||psi||^2 = (2 pi or pi) * J_{n+1}(j)^2 / 2 and
||u|| = sqrt(lambda) ||psi||.

All grid evaluation goes through Bessel-order-shift identities that remove
every 1/r factor, e.g. for the complex mode psi = J_n(jr) e^{i n th}:

    u_x + i u_y = i j J_{n+1}(jr) e^{i(n+1)th}
    u_x - i u_y = i j J_{n-1}(jr) e^{i(n-1)th}

and each Cartesian derivative shifts the order once more (factor j/2 per
derivative).  This keeps synthesis, analysis, and gradient tensors stable at
r = 0 and makes them factorize into radial tables times angular transforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .specfun import QuadratureRule, bessel_j_table, bessel_zeros_row, gauss_legendre

BASIS_FORMAT = "stokes-besov-basis/1"

COS, SIN = 0, 1
_PARITY_NAME = ("cos", "sin")

DEFAULT_N_MAX = 32
DEFAULT_K_MAX = 32
DEFAULT_RADIAL_ORDER = 128
DEFAULT_ANGULAR_COUNT = 256
REFINE_FACTOR = 3


@dataclass(frozen=True)
class EigenMode:
    n: int
    parity: str
    k: int
    lam: float
    zero: float
    stream_norm: float
    velocity_norm: float


@dataclass(eq=False)
class Basis:
    """Stokes eigenmodes up to angular order n_max and radial index k_max,
    sorted by ascending eigenvalue (ties broken by (n, parity, k))."""

    n_max: int
    k_max: int
    modes: tuple
    lam: np.ndarray
    zero: np.ndarray
    angular: np.ndarray
    parity: np.ndarray
    radial: np.ndarray
    stream_norm: np.ndarray
    velocity_norm: np.ndarray
    zeros_rows: np.ndarray            # (n_max+1, k_max), j_{n,k}
    group_index: dict                 # (n, parity_code) -> mode ids ordered by k

    @property
    def n_modes(self) -> int:
        return self.lam.size

    @property
    def lambda_min(self) -> float:
        return float(self.lam[0])

    @property
    def lambda_max(self) -> float:
        return float(self.lam[-1])

    @property
    def cache_key(self):
        return (self.n_max, self.k_max)

    def groups(self):
        for (n, p), idx in self.group_index.items():
            yield n, p, idx


def build_basis(n_max: int = DEFAULT_N_MAX, k_max: int = DEFAULT_K_MAX) -> Basis:
    """Assemble the eigenbasis for truncation (n_max, k_max).

    Mode count is k_max * (1 + 2 n_max): angular order 0 only has the cosine
    (axisymmetric) branch, every n >= 1 has a cosine and a sine branch.
    """
    if not (0 <= int(n_max) <= 128):
        raise ValueError("n_max must lie in [0, 128]")
    if not (1 <= int(k_max) <= 128):
        raise ValueError("k_max must lie in [1, 128]")
    n_max, k_max = int(n_max), int(k_max)

    rows = np.empty((n_max + 1, k_max))
    # deepest row first: primes the interlacing-bracket cache in one pass
    bessel_zeros_row(n_max, k_max)
    for n in range(n_max + 1):
        rows[n] = bessel_zeros_row(n, k_max)
    lam_rows = rows * rows

    ns, ps, ks = [], [], []
    for n in range(n_max + 1):
        for p in (COS, SIN) if n > 0 else (COS,):
            for k in range(1, k_max + 1):
                ns.append(n)
                ps.append(p)
                ks.append(k)
    ns = np.array(ns)
    ps = np.array(ps)
    ks = np.array(ks)
    lam = lam_rows[ns, ks - 1]
    order = np.lexsort((ks, ps, ns, lam))
    ns, ps, ks, lam = ns[order], ps[order], ks[order], lam[order]
    # the zero as sqrt(lambda), as _assemble rebuilds it from a cache
    zero = np.sqrt(lam)

    # ||psi||^2 = (2 pi if n == 0 else pi) * J_{n+1}(j)^2 / 2
    jnext = np.empty(lam.size)
    for n in range(n_max + 1):
        sel = ns == n
        if sel.any():
            jnext[sel] = bessel_j_table(n + 1, zero[sel])[n + 1]
    ang_factor = np.where(ns == 0, 2.0 * np.pi, np.pi)
    stream = np.sqrt(0.5 * ang_factor) * np.abs(jnext)
    return _assemble(n_max, k_max, ns, ps, ks, lam, stream)


def _assemble(n_max: int, k_max: int, ns, ps, ks, lam, stream) -> Basis:
    """Basis from per-mode (n, parity code, k, lambda, ||psi||) arrays in
    eigenvalue order.  Every derived quantity comes from lambda and ||psi||
    alone (zero = sqrt(lambda), ||u|| = zero * ||psi||), so build_basis and
    load_basis produce bit-identical bases."""
    zero = np.sqrt(lam)
    vel = zero * stream
    zeros_rows = np.empty((n_max + 1, k_max))
    group_index = {}
    for n in range(n_max + 1):
        for p in (COS, SIN) if n > 0 else (COS,):
            sel = np.nonzero((ns == n) & (ps == p))[0]
            if sel.size != k_max:
                raise ValueError("basis cache group size mismatch")
            sel = sel[np.argsort(ks[sel])]
            group_index[(n, p)] = sel
            if p == COS:
                zeros_rows[n] = zero[sel]
    modes = tuple(
        EigenMode(int(n), _PARITY_NAME[p], int(k), float(l), float(z), float(s), float(v))
        for n, p, k, l, z, s, v in zip(ns, ps, ks, lam, zero, stream, vel)
    )
    return Basis(
        n_max=n_max, k_max=k_max, modes=modes, lam=lam, zero=zero,
        angular=ns, parity=ps, radial=ks, stream_norm=stream,
        velocity_norm=vel, zeros_rows=zeros_rows, group_index=group_index,
    )


@dataclass(eq=False)
class SpectralField:
    """Coefficient vector over a Basis (the field sum_m coeffs[m] * e_m)."""

    basis: Basis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.n_modes,):
            raise ValueError("coefficient vector does not match the basis size")

    def copy(self) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs.copy())

    def l2(self) -> float:
        """L^2 norm of the field; exact because the modes are orthonormal."""
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, a):
        return SpectralField(self.basis, self.coeffs * float(a))

    __rmul__ = __mul__

    def _check(self, other):
        if other.basis is not self.basis and other.basis.cache_key != self.basis.cache_key:
            raise ValueError("fields live on different bases")


def zero_field(basis: Basis) -> SpectralField:
    return SpectralField(basis, np.zeros(basis.n_modes))


@dataclass(eq=False)
class GridVectorField:
    """Velocity samples on a polar grid; ux/uy are (radial, angular) arrays."""

    grid: "PolarGrid"
    ux: np.ndarray
    uy: np.ndarray

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.ux, self.uy)


@dataclass(eq=False)
class PolarGrid:
    """Tensor-product quadrature grid: Gauss-Legendre in radius (weighted for
    the area element r dr) times a uniform trapezoid rule in angle."""

    radial_rule: QuadratureRule
    angular_count: int
    radii: np.ndarray = field(init=False)
    thetas: np.ndarray = field(init=False)
    radial_weights: np.ndarray = field(init=False)
    angular_weight: float = field(init=False)
    weights: np.ndarray = field(init=False)
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)

    def __post_init__(self):
        self.radii = self.radial_rule.nodes
        self.thetas = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        self.radial_weights = self.radial_rule.weights * self.radii
        self.angular_weight = 2.0 * np.pi / self.angular_count
        self.weights = np.outer(self.radial_weights,
                                np.full(self.angular_count, self.angular_weight))
        self.x = np.outer(self.radii, np.cos(self.thetas))
        self.y = np.outer(self.radii, np.sin(self.thetas))
        self._tables = {}
        self._refined = {}

    @property
    def radial_order(self) -> int:
        return self.radial_rule.order

    @property
    def shape(self):
        return (self.radial_order, self.angular_count)

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the disk of a scalar sampled on the grid nodes."""
        return float(np.sum(self.weights * values))

    def tables(self, basis: Basis) -> "ModeTables":
        tab = self._tables.get(basis.cache_key)
        if tab is None:
            tab = ModeTables(basis, self)
            self._tables[basis.cache_key] = tab
        return tab

    def refined(self, factor: int = REFINE_FACTOR) -> "PolarGrid":
        """Denser companion grid (evaluation only, e.g. sup-norm sampling)."""
        g = self._refined.get(factor)
        if g is None:
            g = build_grid(self.radial_order * factor, self.angular_count * factor)
            self._refined[factor] = g
        return g


def build_grid(radial_order: int = DEFAULT_RADIAL_ORDER,
               angular_count: int = DEFAULT_ANGULAR_COUNT) -> PolarGrid:
    if radial_order < 4:
        raise ValueError("radial_order must be at least 4")
    if angular_count < 8 or angular_count % 2:
        raise ValueError("angular_count must be even and at least 8")
    return PolarGrid(radial_rule=gauss_legendre(int(radial_order)),
                     angular_count=int(angular_count))


class ModeTables:
    """Radial Bessel tables and angular trig tables for one (basis, grid) pair.

    radial[n] has shape (5, k_max, R) holding J_q(j_{n,k} r_i) for the signed
    orders q = n-2 .. n+2 (J_{-q} = (-1)^q J_q folded in); every synthesis,
    analysis, and gradient formula reads from these five rows.
    """

    def __init__(self, basis: Basis, grid: PolarGrid):
        self.basis = basis
        self.grid = grid
        q_top = basis.n_max + 2
        self.cosq = np.cos(np.outer(np.arange(q_top + 1), grid.thetas))
        self.sinq = np.sin(np.outer(np.arange(q_top + 1), grid.thetas))
        self._neg_sinq = -self.sinq
        self.radial = []
        self.scale_vel = []
        self.scale_grad = []
        for n in range(basis.n_max + 1):
            zr = basis.zeros_rows[n]                       # (k_max,)
            args = np.multiply.outer(zr, grid.radii)       # (k_max, R)
            tab = bessel_j_table(n + 2, args)              # (n+3, k_max, R)
            block = np.empty((5,) + args.shape)
            for off in range(-2, 3):
                q = n + off
                row = tab[abs(q)]
                block[off + 2] = row if (q >= 0 or q % 2 == 0) else -row
            self.radial.append(block)
            idx = basis.group_index[(n, COS)]
            vnorm = basis.velocity_norm[idx]
            self.scale_vel.append(zr / (2.0 * vnorm))
            self.scale_grad.append(zr * zr / (4.0 * vnorm))

    def ang(self, m: int):
        """cos(m th), sin(m th) rows for a signed angular index m."""
        a = abs(m)
        if m >= 0:
            return self.cosq[a], self.sinq[a]
        return self.cosq[a], self._neg_sinq[a]


def _sin_sign(m: int) -> float:
    return 1.0 if m >= 0 else -1.0


def synthesize(f: SpectralField, grid: PolarGrid) -> GridVectorField:
    """Evaluate a coefficient vector as a velocity field on the grid nodes."""
    basis = f.basis
    tab = grid.tables(basis)
    q_top = basis.n_max + 2
    R = grid.radial_order
    # accumulate radial profiles per angular frequency, then one matmul
    xc = np.zeros((q_top + 1, R))
    xs = np.zeros((q_top + 1, R))
    yc = np.zeros((q_top + 1, R))
    ys = np.zeros((q_top + 1, R))
    for n, p, idx in basis.groups():
        a = f.coeffs[idx] * tab.scale_vel[n]
        if not a.any():
            continue
        block = tab.radial[n]
        pm = a @ block[1]      # J_{n-1} profile  (R,)
        pp = a @ block[3]      # J_{n+1} profile
        sm = _sin_sign(n - 1)
        am = abs(n - 1)
        if p == COS:
            # u_x = -(j/2v) [Jp sin((n+1)th) + Jm sin((n-1)th)]
            # u_y =  (j/2v) [Jp cos((n+1)th) - Jm cos((n-1)th)]
            xs[n + 1] -= pp
            xs[am] -= sm * pm
            yc[n + 1] += pp
            yc[am] -= pm
        else:
            xc[n + 1] += pp
            xc[am] += pm
            ys[n + 1] += pp
            ys[am] -= sm * pm
    ux = xc.T @ tab.cosq + xs.T @ tab.sinq
    uy = yc.T @ tab.cosq + ys.T @ tab.sinq
    return GridVectorField(grid, ux, uy)


def analyze(v: GridVectorField, basis: Basis, grid: PolarGrid) -> SpectralField:
    """Project grid velocity samples onto the eigenmodes by quadrature.

    For data generated from the basis this inverts synthesize; for arbitrary
    samples it returns the quadrature realization of the L^2-orthogonal
    projection (the divergence-free, tangent part that the truncation sees).
    """
    tab = grid.tables(basis)
    wth = grid.angular_weight
    vxc = (v.ux @ tab.cosq.T) * wth      # (R, Q+1)
    vxs = (v.ux @ tab.sinq.T) * wth
    vyc = (v.uy @ tab.cosq.T) * wth
    vys = (v.uy @ tab.sinq.T) * wth
    wr = grid.radial_weights
    out = np.zeros(basis.n_modes)
    for n, p, idx in basis.groups():
        block = tab.radial[n]
        jm, jp = block[1], block[3]
        sm = _sin_sign(n - 1)
        am = abs(n - 1)
        if p == COS:
            gp = -vxs[:, n + 1] + vyc[:, n + 1]
            gm = -sm * vxs[:, am] - vyc[:, am]
        else:
            gp = vxc[:, n + 1] + vys[:, n + 1]
            gm = vxc[:, am] - sm * vys[:, am]
        out[idx] = tab.scale_vel[n] * (jp @ (wr * gp) + jm @ (wr * gm))
    return SpectralField(basis, out)


def apply_stokes(f: SpectralField, power: float = 1.0) -> SpectralField:
    """Spectral power of the Stokes operator: coefficients times lambda^power."""
    return SpectralField(f.basis, f.coeffs * f.basis.lam ** float(power))


def field_gradient_values(f: SpectralField, grid: PolarGrid) -> np.ndarray:
    """Cartesian velocity gradient on the grid, shape (R, A, 2, 2) indexed as
    grad[..., component, derivative] (so grad[..., 0, 1] is d_y u_x)."""
    basis = f.basis
    tab = grid.tables(basis)
    q_top = basis.n_max + 2
    R = grid.radial_order
    acc_c = np.zeros((3, q_top + 1, R))   # channels: G_xx, G_yx, G_xy
    acc_s = np.zeros((3, q_top + 1, R))
    for n, p, idx in basis.groups():
        a = f.coeffs[idx] * tab.scale_grad[n]
        if not a.any():
            continue
        block = tab.radial[n]
        pmm = a @ block[0]    # J_{n-2}
        pn = a @ block[2]     # J_n
        ppp = a @ block[4]    # J_{n+2}
        smm = _sin_sign(n - 2)
        amm = abs(n - 2)
        if p == COS:
            # G_xx = (j^2/4v) [Jpp sin((n+2)th) - Jmm sin((n-2)th)]
            acc_s[0, n + 2] += ppp
            acc_s[0, amm] -= smm * pmm
            # G_yx = -(j^2/4v) [2 Jn cos(n th) + Jpp cos((n+2)th) + Jmm cos((n-2)th)]
            acc_c[1, n] -= 2.0 * pn
            acc_c[1, n + 2] -= ppp
            acc_c[1, amm] -= pmm
            # G_xy =  (j^2/4v) [2 Jn cos(n th) - Jpp cos((n+2)th) - Jmm cos((n-2)th)]
            acc_c[2, n] += 2.0 * pn
            acc_c[2, n + 2] -= ppp
            acc_c[2, amm] -= pmm
        else:
            acc_c[0, amm] += pmm
            acc_c[0, n + 2] -= ppp
            acc_s[1, n] -= 2.0 * pn
            acc_s[1, n + 2] -= ppp
            acc_s[1, amm] -= smm * pmm
            acc_s[2, n] += 2.0 * pn
            acc_s[2, n + 2] -= ppp
            acc_s[2, amm] -= smm * pmm
    gxx = acc_c[0].T @ tab.cosq + acc_s[0].T @ tab.sinq
    gyx = acc_c[1].T @ tab.cosq + acc_s[1].T @ tab.sinq
    gxy = acc_c[2].T @ tab.cosq + acc_s[2].T @ tab.sinq
    out = np.empty(gxx.shape + (2, 2))
    out[..., 0, 0] = gxx
    out[..., 0, 1] = gyx
    out[..., 1, 0] = gxy
    out[..., 1, 1] = -gxx     # incompressibility: d_y u_y = -d_x u_x
    return out


def mode_gradient_values(basis: Basis, index: int, grid: PolarGrid) -> np.ndarray:
    """Gradient tensor of a single eigenmode on the grid nodes."""
    f = zero_field(basis)
    f.coeffs[index] = 1.0
    return field_gradient_values(f, grid)


def curl_values(f: SpectralField, grid: PolarGrid) -> np.ndarray:
    """Scalar vorticity on the grid: each mode contributes lambda psi / ||u||
    (with this stream-function sign convention curl u = +lambda psi)."""
    basis = f.basis
    tab = grid.tables(basis)
    q_top = basis.n_max + 2
    xc = np.zeros((q_top + 1, grid.radial_order))
    xs = np.zeros((q_top + 1, grid.radial_order))
    for n, p, idx in basis.groups():
        scale = basis.lam[idx] / basis.velocity_norm[idx]
        a = f.coeffs[idx] * scale
        if not a.any():
            continue
        prof = a @ tab.radial[n][2]
        if p == COS:
            xc[n] += prof
        else:
            xs[n] += prof
    return xc.T @ tab.cosq + xs.T @ tab.sinq


def mode_values_at(basis: Basis, points: np.ndarray) -> np.ndarray:
    """Velocity of every mode at arbitrary points, shape (P, n_modes, 2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    if (r > 1.0 + 1e-12).any():
        raise ValueError("evaluation points must lie in the closed unit disk")
    th = np.arctan2(pts[:, 1], pts[:, 0])
    P = pts.shape[0]
    out = np.zeros((P, basis.n_modes, 2))
    for n in range(basis.n_max + 1):
        zr = basis.zeros_rows[n]
        args = np.multiply.outer(zr, r)               # (k_max, P)
        tabn = bessel_j_table(n + 1, args)
        jp = tabn[n + 1]
        if n >= 1:
            jm = tabn[n - 1]
        else:
            jm = -tabn[1]
        sm = _sin_sign(n - 1)
        am = abs(n - 1)
        cp_, sp_ = np.cos((n + 1) * th), np.sin((n + 1) * th)
        cm_, sm_ = np.cos(am * th), sm * np.sin(am * th)
        idx = basis.group_index[(n, COS)]
        scale = (basis.zero[idx] / (2.0 * basis.velocity_norm[idx]))[:, None]
        out[:, idx, 0] = (-(jp * sp_ + jm * sm_) * scale).T
        out[:, idx, 1] = ((jp * cp_ - jm * cm_) * scale).T
        if n >= 1:
            idx = basis.group_index[(n, SIN)]
            out[:, idx, 0] = ((jp * cp_ + jm * cm_) * scale).T
            out[:, idx, 1] = ((jp * sp_ - jm * sm_) * scale).T
    return out


def field_values_at(f: SpectralField, points: np.ndarray) -> np.ndarray:
    """Velocity of a spectral field at arbitrary points, shape (P, 2)."""
    vals = mode_values_at(f.basis, points)
    return np.einsum("pmc,m->pc", vals, f.coeffs)


def boundary_traces(basis: Basis):
    """Per-mode maxima over the boundary circle of |u . nu| and |curl u|.

    Both are proportional to |J_n(j_{n,k})|, evaluated at the computed zeros,
    so this measures the quality of the zero finding in the norms that the
    boundary conditions see.
    """
    jn_at_zero = np.empty(basis.n_modes)
    for n in range(basis.n_max + 1):
        sel = basis.angular == n
        jn_at_zero[sel] = bessel_j_table(n, basis.zero[sel])[n]
    normal_max = basis.angular * np.abs(jn_at_zero) / basis.velocity_norm
    curl_max = basis.lam * np.abs(jn_at_zero) / basis.velocity_norm
    return normal_max, curl_max


def save_basis(basis: Basis, path) -> None:
    """Write the basis cache (JSON, format stokes-besov-basis/1)."""
    doc = {
        "format": BASIS_FORMAT,
        "n_max": basis.n_max,
        "k_max": basis.k_max,
        "modes": [
            {"n": m.n, "parity": m.parity, "k": m.k,
             "lambda": m.lam, "stream_norm": m.stream_norm}
            for m in basis.modes
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_basis(path) -> Basis:
    """Reconstruct a basis from its cache without recomputing any zeros.

    Every derived quantity is rebuilt by the same expressions build_basis
    uses (zero = sqrt(lambda), ||u|| = zero * ||psi||), so the loaded basis
    is bit-identical to the one that was saved.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != BASIS_FORMAT:
        raise ValueError(f"not a basis cache (format {doc.get('format')!r})")
    n_max, k_max = int(doc["n_max"]), int(doc["k_max"])
    recs = doc["modes"]
    if len(recs) != k_max * (1 + 2 * n_max):
        raise ValueError("basis cache mode count mismatch")
    ns = np.array([r["n"] for r in recs])
    ps = np.array([_PARITY_NAME.index(r["parity"]) for r in recs])
    ks = np.array([r["k"] for r in recs])
    lam = np.array([r["lambda"] for r in recs], dtype=float)
    stream = np.array([r["stream_norm"] for r in recs], dtype=float)
    return _assemble(n_max, k_max, ns, ps, ks, lam, stream)
