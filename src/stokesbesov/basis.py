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

Each table is held once, read-only.  A grid and its sub-grids share one
radial stack per basis, a view of a larger truncation's stack on the same
radii where one exists (PolarGrid.radial_stack); ModeTables reads it
through the grid, so a stack replaced by a view is freed.  A stack holds
the grid's shifts: -2 .. 2 on build_grid's grids, VELOCITY's -1 and 1 on
the refined companion grid, which only sup sampling reads.  There is one
Transform.sign_table per (transform, n_max, orders) for every grid.  A
ModeTables holds its grid weakly: reference counting alone frees both.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ResolutionError
from .specfun import (_SWEEP_BLOCK, MAX_QUADRATURE_ORDER, QuadratureRule, bessel_j_table,
                      bessel_zeros_row, gauss_legendre)

BASIS_FORMAT = "stokes-besov-basis/1"

COS, SIN = 0, 1
_PARITY_NAME = ("cos", "sin")

MAX_N_MAX = 128
MAX_K_MAX = 128
REFINE_FACTOR = 3
# the refined grid of the p = inf norms must stay within the quadrature limit
MAX_RADIAL_ORDER = MAX_QUADRATURE_ORDER // REFINE_FACTOR


@dataclass(eq=False)
class Basis:
    """Stokes eigenmodes up to angular order n_max and radial index k_max,
    sorted by ascending eigenvalue (ties broken by (n, parity, k))."""

    n_max: int
    k_max: int
    lam: np.ndarray
    zero: np.ndarray
    angular: np.ndarray
    parity: np.ndarray
    radial: np.ndarray
    stream_norm: np.ndarray
    velocity_norm: np.ndarray
    zeros_rows: np.ndarray            # (n_max+1, k_max), j_{n,k}
    group_index: dict                 # (n, parity_code) -> mode ids ordered by k
    multipliers: dict = field(default_factory=dict, repr=False)   # dyadic rows

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


def build_basis(n_max: int, k_max: int) -> Basis:
    """Assemble the eigenbasis for truncation (n_max, k_max).

    Mode count is k_max * (1 + 2 n_max): angular order 0 only has the cosine
    (axisymmetric) branch, every n >= 1 has a cosine and a sine branch.
    """
    if not (0 <= int(n_max) <= MAX_N_MAX):
        raise ValueError(f"n_max must lie in [0, {MAX_N_MAX}]")
    if not (1 <= int(k_max) <= MAX_K_MAX):
        raise ValueError(f"k_max must lie in [1, {MAX_K_MAX}]")
    n_max, k_max = int(n_max), int(k_max)

    # top order first: its request solves every row's zeros in one block,
    # and each lower row is then a slice of that block
    rows = np.array([bessel_zeros_row(n, k_max) for n in range(n_max, -1, -1)])[::-1]
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

    # ||psi||^2 = (2 pi if n == 0 else pi) * J_{n+1}(j)^2 / 2, at the zero
    # sqrt(lambda), as _assemble rebuilds it from a cache
    jnext = radial_rows(np.sqrt(lam_rows), np.ones(1), (1,))[ns, 0, ks - 1, 0]
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
    return Basis(
        n_max=n_max, k_max=k_max, lam=lam, zero=zero,
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

    def l2(self) -> float:
        """L^2 norm of the field; exact because the modes are orthonormal."""
        return coeff_l2(self.coeffs)

    def top_order(self) -> int:
        """Highest angular order with a nonzero coefficient (0 for the zero
        field): it bounds the angular degree of every pointwise product."""
        return int(np.max(self.basis.angular, where=self.coeffs != 0, initial=0))

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


# log2(norm / largest entry) stays below this for every norm coeff_l2 serves
_NORM_SPAN = 50


def _euclidean(a: np.ndarray) -> float:
    return math.sqrt(np.add.reduce(np.square(a), axis=None))


def coeff_l2(*parts: np.ndarray, norm=_euclidean) -> float:
    """norm(*parts), of degree one (by default the Euclidean norm of one part,
    its squares summed by numpy in one thread, never by a BLAS dot that can
    split across threads); a value outside [2^-400, 2^400] is 2^e norm(*2^-e
    parts), e the exponent of the largest entry, so no square under- or
    overflows (Blue, ACM TOMS 4, 1978).

    All-zero parts read 0.0 without a call of norm.  With the largest entry
    below 2^e, every norm served here is below 2^(e + 34): a coefficient
    vector's (n_modes <= 128 * 257 < 2^15.01) at most 2^7.6 times it, and an
    L^p norm of a synthesis at most pi^(1/p) < 2^1.7 times sqrt(4 channels)
    times the sum of a channel's term coefficients (<= 4) times sum_m |c_m|
    |Transform.scale_m| (|scale_m| < 2^13.9 at (128, 128)).  So below
    e = -400 - _NORM_SPAN the unscaled value would fall below 2^-400 and be
    dropped: only the scaled pass runs."""
    top = max(float(np.abs(a).max()) for a in parts)
    if top == 0.0 and not any(a.any() for a in parts):     # a NaN part is not zero
        return 0.0
    e = math.frexp(top)[1]              # 0 also for an inf or NaN largest entry
    with np.errstate(over="ignore"):
        if e > -400 - _NORM_SPAN:
            value = float(norm(*parts))
            if 2.0 ** -400 <= value <= 2.0 ** 400 or e == 0:
                return value
        return float(np.ldexp(norm(*(np.ldexp(a, -e) for a in parts)), e))


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
    the area element r dr) times a uniform trapezoid rule in angle.  shifts
    are the Bessel order offsets its radial stacks hold, ascending and
    evenly spaced."""

    radial_rule: QuadratureRule
    angular_count: int
    shifts: tuple = (-2, -1, 0, 1, 2)
    radii: np.ndarray = field(init=False)
    thetas: np.ndarray = field(init=False)
    radial_weights: np.ndarray = field(init=False)
    angular_weight: float = field(init=False)

    def __post_init__(self):
        self.radii = self.radial_rule.nodes
        self.thetas = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        self.radial_weights = self.radial_rule.weights * self.radii
        self.angular_weight = 2.0 * np.pi / self.angular_count
        self._tables = {}
        self._refined = None
        # basis cache key -> (zeros_rows, radial Bessel stack), shared with
        # every sub-grid (radial_stack)
        self._radial_stacks = {}
        self._subgrids = {}

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The (R, A) node weights, built on first read."""
        return np.outer(self.radial_weights, np.full(self.angular_count, self.angular_weight))

    @property
    def x(self) -> np.ndarray:
        """Cartesian x of the nodes, computed on access (not stored)."""
        return np.outer(self.radii, np.cos(self.thetas))

    @property
    def y(self) -> np.ndarray:
        """Cartesian y of the nodes, computed on access (not stored)."""
        return np.outer(self.radii, np.sin(self.thetas))

    @property
    def radial_order(self) -> int:
        return self.radial_rule.order

    @property
    def shape(self):
        return (self.radial_order, self.angular_count)

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the disk of a scalar sampled on the grid nodes."""
        return float(np.sum(self.weights * values))

    def exact_subgrid(self, degree: int) -> "PolarGrid":
        """The grid on N = degree + 1 equispaced angles: its trapezoid rule
        integrates every trig polynomial of that degree exactly.  Its angles
        are the ones build_grid(radial_order, N) makes, bit for bit; it keeps
        the radial rule and shifts and shares the radial stacks.  The grid itself
        when degree + 1 >= angular_count."""
        count = int(degree) + 1
        if count >= self.angular_count:
            return self
        sub = self._subgrids.get(count)
        if sub is None:
            sub = PolarGrid(self.radial_rule, count, self.shifts)
            sub._radial_stacks = self._radial_stacks
            self._subgrids[count] = sub
        return sub

    def radial_stack(self, basis: Basis) -> np.ndarray:
        """ModeTables.radial of basis on this grid's radii, held once by the
        grid and its sub-grids: the [:n+1, :, :k] corner of a larger stack
        whose zeros hold basis's, bit for bit (every Bessel entry depends on
        its own order, argument and table top alone), else built, and then
        every smaller entry whose zeros are its corner becomes a view of it."""
        hit = self._radial_stacks.get(basis.cache_key)
        if hit is None:
            zeros = basis.zeros_rows
            n, k = zeros.shape
            big = next((s for z, s in self._radial_stacks.values() if _is_corner(zeros, z)),
                       None)
            if big is not None:
                stack = big[:n, :, :k]
            else:
                # tables up to order n + 2 whatever the shifts: an entry's
                # bits depend on the table top, so every grid's rows agree
                stack = radial_rows(zeros, self.radii, self.shifts, 2)
                stack.flags.writeable = False
                for key, (z, s) in self._radial_stacks.items():
                    if _is_corner(z, zeros):
                        self._radial_stacks[key] = (z, stack[:z.shape[0], :, :z.shape[1]])
            hit = self._radial_stacks[basis.cache_key] = (zeros, stack)
        return hit[1]

    def shift_rows(self, spec: "Transform") -> slice:
        """The rows of this grid's radial stacks that hold spec's shifts."""
        if not set(spec.shifts) <= set(self.shifts):
            raise ValueError(f"the grid's radial stacks hold shifts {self.shifts}, "
                             f"not all of {spec.shifts}")
        rows = [self.shifts.index(s) for s in spec.shifts]
        return slice(rows[0], rows[-1] + 1, rows[1] - rows[0] if len(rows) > 1 else 1)

    def tables(self, basis: Basis) -> "ModeTables":
        tab = self._tables.get(basis.cache_key)
        if tab is None:
            tab = ModeTables(basis, self)
            self._tables[basis.cache_key] = tab
        return tab

    def refined(self) -> "PolarGrid":
        """Companion grid REFINE_FACTOR times denser in each direction, for
        sup-norm sampling: its stacks hold VELOCITY's shifts.  Its radial rule
        is kept, the grid cached weakly, so it lives while a caller holds it."""
        rule, held = self._refined or (gauss_legendre(self.radial_order * REFINE_FACTOR), None)
        companion = held and held()
        if companion is None:
            companion = PolarGrid(rule, self.angular_count * REFINE_FACTOR, VELOCITY.shifts)
            self._refined = rule, weakref.ref(companion)
        return companion

    def rule_for(self, f: SpectralField, power: float, order: int = 0) -> "PolarGrid":
        """The grid of every quadrature of f, picked here alone, for |u|^power
        (u the velocity of f, or its curl or gradient) times a mode of angular
        order `order`: refined() for power = inf, a sup; exact_subgrid(p n +
        order), n = f.top_order(), for even p; else this grid.  Exact, as w =
        u_x + i u_y, a sum of J_{m+1} e^{i(m+1)th} and J_{m-1} e^{-i(m-1)th}
        over m <= n, has angular frequencies in [-(n-1), n+1]: |u|^2 = w
        conj(w), like |curl u|^2 (of orders <= n), has degree <= 2n, |u|^p
        times the mode <= p n + order, and N equispaced angles integrate
        degree < N exactly.  p n + order angles alias.  A grid with no more
        angles than that is returned itself, not exact."""
        if power == math.inf:
            return self.refined()
        if (power / 2.0).is_integer():
            return self.exact_subgrid(_degree(power, f.top_order(), order))
        return self

    def checked_rule_for(self, f: SpectralField, power: float, order: int = 0) -> "PolarGrid":
        """rule_for for even power, refusing (ResolutionError) a grid below
        the dealiasing margin of f's basis: fewer angles than rule_for keeps
        at top order n_max, or radial order below 2 sqrt(lambda_max) / pi,
        the fastest oscillation a velocity gradient carries."""
        angular = _degree(power, f.basis.n_max, order) + 1
        radial = math.ceil(2.0 * math.sqrt(f.basis.lambda_max) / math.pi)
        if self.angular_count < angular or self.radial_order < radial:
            raise ResolutionError(
                f"grid {self.shape} is below the dealiasing margin "
                f"(needs radial >= {radial}, angular >= {angular})")
        return self.rule_for(f, power, order)


def _degree(power: float, top: int, order: int) -> int:
    return int(power) * top + order


def _is_corner(small: np.ndarray, big: np.ndarray) -> bool:
    """Whether the zeros table small is the [:n+1, :k] corner of big."""
    n, k = small.shape
    return n <= big.shape[0] and k <= big.shape[1] and np.array_equal(big[:n, :k], small)


def build_grid(radial_order: int, angular_count: int) -> PolarGrid:
    if radial_order < 4:
        raise ValueError("radial_order must be at least 4")
    if angular_count < 8 or angular_count % 2:
        raise ValueError("angular_count must be even and at least 8")
    return PolarGrid(radial_rule=gauss_legendre(int(radial_order)),
                     angular_count=int(angular_count))


@dataclass(frozen=True, eq=False)
class Transform:
    """One grid quantity as a fixed linear map of the stacked radial profiles.

    Each term (shift, channel, trig, coef) adds, for every angular order n,
    coef * J_{n+shift}(j r) * trig((n+shift) th) of the cosine mode (n, k)
    to the channel; trig is COS or SIN, and a negative order folds as
    cos(-m th) = cos(m th), sin(-m th) = -sin(m th).  The sine mode is the
    cosine mode with cos -> sin and sin -> -cos in every term.  The
    coefficients carry the per-mode factor scale(basis); shifts lists the
    radial order offsets the terms read, ascending and evenly spaced.
    """

    shifts: tuple
    channels: int
    terms: tuple
    scale: Callable

    @functools.cache
    def sign_table(self, n_max: int, orders: int) -> np.ndarray:
        """The terms as signs, (channels, 2 orders, (n_max+1) * len(shifts) * 2)
        over angular rows 2m, 2m+1 = cos, sin(m th) and profiles ordered (n,
        shift, parity), with negative orders folded.  One read-only table
        per (transform, n_max, orders), shared by every grid."""
        n = np.arange(n_max + 1)
        table = np.zeros((self.channels, 2 * orders, n.size, len(self.shifts), 2))
        for shift, channel, trig, coef in self.terms:
            m = n + shift
            for parity, t, c in ((COS, trig, coef),
                                 (SIN, 1 - trig, coef if trig == COS else -coef)):
                sign = np.where((t == SIN) & (m < 0), -c, c)
                table[channel, 2 * np.abs(m) + t, n, self.shifts.index(shift), parity] += sign
        table = table.reshape(self.channels, 2 * orders, -1)
        table.flags.writeable = False
        return table


# u_x + i u_y = i j J_{n+1} e^{i(n+1)th},  u_x - i u_y = i j J_{n-1} e^{i(n-1)th}
VELOCITY = Transform(
    shifts=(-1, 1), channels=2,
    terms=((1, 0, SIN, -1.0), (-1, 0, SIN, -1.0), (1, 1, COS, 1.0), (-1, 1, COS, -1.0)),
    scale=lambda b: b.zero / (2.0 * b.velocity_norm))

# curl u = lambda psi
CURL = Transform(shifts=(0,), channels=1, terms=((0, 0, COS, 1.0),),
                 scale=lambda b: b.lam / b.velocity_norm)

# channels G_xx = d_x u_x, G_yx = d_y u_x, G_xy = d_x u_y; for the cosine mode
#   G_xx = Jpp sin((n+2)th) - Jmm sin((n-2)th)
#   G_yx = -2 Jn cos(n th) - Jpp cos((n+2)th) - Jmm cos((n-2)th)
#   G_xy =  2 Jn cos(n th) - Jpp cos((n+2)th) - Jmm cos((n-2)th)
# times j^2/(4 ||u||)
GRADIENT = Transform(
    shifts=(-2, 0, 2), channels=3,
    terms=((2, 0, SIN, 1.0), (-2, 0, SIN, -1.0),
           (0, 1, COS, -2.0), (2, 1, COS, -1.0), (-2, 1, COS, -1.0),
           (0, 2, COS, 2.0), (2, 2, COS, -1.0), (-2, 2, COS, -1.0)),
    scale=lambda b: b.zero * b.zero / (4.0 * b.velocity_norm))


class ModeTables:
    """Stacked radial Bessel table and interleaved angular table for one
    (basis, grid) pair; every transform is a contraction over these two.

    radial has shape (n_max+1, len(grid.shifts), k_max, R) and holds
    J_q(j_{n,k} r_i) at the signed orders q = n + s, s in grid.shifts
    (J_{-q} = (-1)^q J_q folded in); a transform reads the rows of its
    shifts (PolarGrid.shift_rows), and refuses a grid without them.  angular
    has shape (2 (n_max+3), A): row 2m is cos(m th) and row 2m+1 is
    sin(m th), so the rows up to any angular order form a prefix.
    Coefficients enter through the padded (n, parity, k) layout; slot maps
    mode ids into it, and the absent n = 0 sine group stays zero.  Valid
    while the grid lives: they hold it weakly and copy what they read.
    """

    shift_rows = PolarGrid.shift_rows       # of the shifts copied from the grid

    def __init__(self, basis: Basis, grid: PolarGrid):
        self.basis = basis
        self._grid, self._stacks = weakref.ref(grid), grid._radial_stacks
        self.shifts, self.radial_order = grid.shifts, grid.radial_order
        self._node_weights = grid.angular_weight * grid.radial_weights
        count = grid.angular_count
        # m th_i = 2 pi k / N with k = m i mod N reduced exactly in integers:
        # no entry carries the rounding of a float product m th_i, and the
        # order-1 row is cos and sin of thetas, bit for bit
        k = np.outer(np.arange(basis.n_max + 3), np.arange(count)) % count
        angles = 2.0 * np.pi * k / count
        ang = np.empty((angles.shape[0], 2, count))
        np.cos(angles, out=ang[:, COS])
        np.sin(angles, out=ang[:, SIN])
        self.angular = ang.reshape(2 * angles.shape[0], count)
        grid.radial_stack(basis)
        self._stack_key = basis.cache_key
        self.slot = (2 * basis.angular + basis.parity) * basis.k_max + basis.radial - 1
        self._scale = {}

    @property
    def grid(self) -> PolarGrid:
        if (grid := self._grid()) is None:
            raise ReferenceError("these ModeTables outlived their grid")
        return grid

    @property
    def radial(self) -> np.ndarray:
        """PolarGrid.radial_stack, read through the stack dict on every use."""
        return self._stacks[self._stack_key][1]

    @functools.cached_property
    def velocity_envelope(self) -> np.ndarray:
        """Per mode, E_m = |scale_m| max_i (|J_{n-1}(j r_i)| + |J_{n+1}(j r_i)|)
        over the radial nodes: |u_x + i u_y| of mode m is at most E_m at every
        node of every grid on this radial rule, so sum_m |c_m| E_m bounds the
        velocity magnitude of the field c there."""
        b = self.basis
        pair = self.shift_rows(VELOCITY)
        peak = np.array([np.abs(rows[pair]).sum(axis=0).max(axis=-1) for rows in self.radial])
        return np.abs(VELOCITY.scale(b)) * peak[b.angular, b.radial - 1]

    def scatter(self, spec: Transform):
        """Sign table of a transform over the angular rows (Transform.sign_table)
        and the per-mode coefficient scale."""
        scale = self._scale.get(spec)
        if scale is None:
            scale = self._scale[spec] = spec.scale(self.basis)
        return spec.sign_table(self.basis.n_max, self.angular.shape[0] // 2), scale

    def lines(self, spec: Transform, coeffs: np.ndarray) -> np.ndarray:
        """The radial and sign stages of forward: per channel and radius the
        coefficients of the angular rows, shape (channels, rows, R).

        Orders above the highest one with a nonzero coefficient are cut off:
        profiles, sign table and angular rows are all prefix slices.
        """
        shift_rows = self.shift_rows(spec)
        table, scale = self.scatter(spec)
        a = np.zeros((self.basis.n_max + 1, 2, self.basis.k_max))
        a.reshape(-1)[self.slot] = coeffs * scale
        live = np.flatnonzero(a.any(axis=(1, 2)))
        cut = int(live[-1]) + 1 if live.size else 0
        prof = np.matmul(a[:cut, None], self.radial[:cut, shift_rows])
        rows = min(table.shape[1], 2 * (cut + spec.shifts[-1])) if cut else 0
        return np.matmul(table[:, :rows, :prof.size // self.radial_order],
                         prof.reshape(-1, self.radial_order))

    def forward(self, spec: Transform, coeffs: np.ndarray, out=None) -> np.ndarray:
        """Channel values (channels, R, A) of a coefficient vector, written
        to out when given: the angular stage applied to lines."""
        lines = self.lines(spec, coeffs)
        return np.matmul(lines.transpose(0, 2, 1), self.angular[:lines.shape[1]], out=out)

    def adjoint(self, spec: Transform, values) -> np.ndarray:
        """Quadrature transpose of forward: the coefficient vector of
        sum over channels of the integral of values[c] times each mode's
        channel c."""
        shift_rows = self.shift_rows(spec)
        table, scale = self.scatter(spec)
        lines = np.stack([self.angular @ v.T for v in values])      # (C, rows, R)
        lines *= self._node_weights
        prof = table.reshape(-1, table.shape[2]).T @ lines.reshape(-1, lines.shape[2])
        prof = prof.reshape(self.basis.n_max + 1, len(spec.shifts), 2, -1)
        out = np.matmul(prof, self.radial[:, shift_rows].swapaxes(-1, -2))
        return out.sum(axis=1).reshape(-1)[self.slot] * scale


def radial_rows(zeros_rows: np.ndarray, r: np.ndarray, shifts, reach=None) -> np.ndarray:
    """J_{n+s}(j_{n,k} r) for every order n, shift s, zero and radius, shape
    (n_max+1, len(shifts), k_max, len(r)), with J_{-q} = (-1)^q J_q folded
    in.  One stacked Bessel table, row n up to order n + reach, max(shifts)
    by default, swept in its blocks of rows, each block's arguments formed
    just before it and its values written in place."""
    shifts = np.asarray(shifts)
    reach = int(shifts.max() if reach is None else reach)
    n = np.arange(zeros_rows.shape[0])
    qs = n[:, None] + shifts
    out = np.empty(qs.shape + zeros_rows.shape[1:] + (r.size,))
    flat = out.reshape(qs.shape + (-1,))
    step = max(1, _SWEEP_BLOCK // max(1, flat.shape[-1]))
    for rows in (slice(lo, lo + step) for lo in range(0, n.size, step)):
        x = np.multiply.outer(zeros_rows[rows], r).reshape(flat[rows].shape[0], -1)
        bessel_j_table(n[rows] + reach, x, orders=np.abs(qs[rows]), out=flat[rows])
    out[(qs < 0) & (qs % 2 == 1)] *= -1.0
    return out


def synthesize(f: SpectralField, grid: PolarGrid) -> GridVectorField:
    """Evaluate a coefficient vector as a velocity field on the grid nodes."""
    ux, uy = grid.tables(f.basis).forward(VELOCITY, f.coeffs)
    return GridVectorField(grid, ux, uy)


def analyze(v: GridVectorField, basis: Basis, grid: PolarGrid) -> SpectralField:
    """Project grid velocity samples onto the eigenmodes by quadrature.

    For data generated from the basis this inverts synthesize; for arbitrary
    samples it returns the quadrature realization of the L^2-orthogonal
    projection (the divergence-free, tangent part that the truncation sees).
    """
    return SpectralField(basis, grid.tables(basis).adjoint(VELOCITY, (v.ux, v.uy)))


def apply_stokes(f: SpectralField, power: float = 1.0) -> SpectralField:
    """Spectral power of the Stokes operator: coefficients times lambda^power."""
    return SpectralField(f.basis, f.coeffs * f.basis.lam ** float(power))


def field_gradient_values(f: SpectralField, grid: PolarGrid) -> np.ndarray:
    """Cartesian velocity gradient on the grid, shape (R, A, 2, 2) indexed as
    grad[..., component, derivative] (so grad[..., 0, 1] is d_y u_x)."""
    out = np.empty((4,) + grid.shape)
    grid.tables(f.basis).forward(GRADIENT, f.coeffs, out=out[:3])
    np.negative(out[0], out=out[3])     # incompressibility: d_y u_y = -d_x u_x
    return out.reshape((2, 2) + grid.shape).transpose(2, 3, 0, 1)


def curl_values(f: SpectralField, grid: PolarGrid) -> np.ndarray:
    """Scalar vorticity on the grid: each mode contributes lambda psi / ||u||
    (with this stream-function sign convention curl u = +lambda psi)."""
    return grid.tables(f.basis).forward(CURL, f.coeffs)[0]


def curl_l2(f: SpectralField, grid: PolarGrid) -> float:
    """||curl f||_{L^2} on grid.rule_for(f, 2), exact at every scale."""
    sub = grid.rule_for(f, 2)
    return coeff_l2(f.coeffs, norm=lambda c: np.sqrt(sub.integrate(
        np.square(curl_values(SpectralField(f.basis, c), sub)))))


def mode_values_at(basis: Basis, points: np.ndarray) -> np.ndarray:
    """Velocity of every mode at arbitrary points, shape (P, n_modes, 2), as
    VELOCITY's terms at the points' radii and angles.  Every value is
    elementwise in its point, so the values at a block of the points hold
    the same bits as the same rows of the whole array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    if (r > 1.0 + 1e-12).any():
        raise ValueError("evaluation points must lie in the closed unit disk")
    rows = radial_rows(basis.zeros_rows, r, VELOCITY.shifts)
    orders = basis.n_max + 2
    m_th = np.multiply.outer(np.arange(orders), np.arctan2(pts[:, 1], pts[:, 0]))
    trig = np.stack([np.cos(m_th), np.sin(m_th)], axis=1).reshape(2 * orders, -1)
    scale = VELOCITY.scale(basis)
    signs = VELOCITY.sign_table(basis.n_max, orders)
    # one signed trig value per (channel, n, shift, parity): a sum of one term
    signed = np.matmul(signs.swapaxes(1, 2), trig).reshape(2, basis.n_max + 1, 2, 2, 1, -1)
    out = np.empty((pts.shape[0], basis.n_modes, 2))
    # a group at a time, so no temporary outgrows (channels, shifts, k_max, P)
    for (n, q), idx in basis.group_index.items():
        out[:, idx] = ((rows[n] * signed[:, n, :, q]).sum(axis=1) * scale[idx, None]).T
    return out


def boundary_traces(basis: Basis):
    """Per-mode maxima over the boundary circle of |u . nu| and |curl u|.

    Both are proportional to |J_n(j_{n,k})|, evaluated at the computed zeros,
    so this measures the quality of the zero finding in the norms that the
    boundary conditions see.
    """
    rows = radial_rows(basis.zeros_rows, np.ones(1), (0,))
    jn_at_zero = rows[basis.angular, 0, basis.radial - 1, 0]
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
            {"n": int(n), "parity": _PARITY_NAME[p], "k": int(k),
             "lambda": float(lam), "stream_norm": float(stream)}
            for n, p, k, lam, stream in zip(basis.angular, basis.parity, basis.radial,
                                            basis.lam, basis.stream_norm)
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
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != BASIS_FORMAT:
        raise ValueError(f"not a basis cache (format {fmt!r})")
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
