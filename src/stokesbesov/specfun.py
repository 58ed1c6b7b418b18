"""Scalar special-function kernel: integer-order Bessel functions J_n, their
positive zeros, Gauss-Legendre rules on (0, 1), and the Beta function
(from the standard library's math.lgamma).

Everything is float64.  Accuracy targets, verified in the test suite against
high-precision references: 1e-12 absolute for J_n over n <= 256, x <= 1e4;
1e-11 absolute for zeros; 1e-12 relative for Beta on its domain (0, 100].

J_n is evaluated, scalar or array alike, by one table routine that routes
each x > 0 by (q_max, x) alone.  At and above the switch x = max(16, q_max)
every requested order is at most x, where the upward recurrence J_{q+1} =
(2q/x) J_q - J_{q-1} is stable (Gautschi, SIAM Review 9, 1967); it starts
from J_0 and J_1 by the Hankel expansion (DLMF 10.17.3) summed through a_37;
its first omitted term is largest at x = 16, 3e-15 of the envelope
sqrt(2/(pi x)) or 6e-16 absolute, and shrinks like x^-38 above.  Below
the switch a downward Miller recurrence runs from s + floor(15 s^(1/3)) +
22 rounded up to even, s the switch, and is normalized with the Neumann
identity J_0 + 2*sum_k J_{2k} = 1.  Against 50-digit mpmath over
q_max <= 256 and 1e-8 <= x <= 1e4 both regimes read within about 1.2e-15
absolute; below x = 1e-12, J_0 = 1 and J_q = 0 are taken as exact.

bessel_j_table(q_max, x, orders=...) computes only the rows a caller reads,
and every entry is bit for bit that of the full table up to q_max: the bits
depend on q_max, q and x alone, not on which orders are requested nor on
which other x share the call.  So a table on a set of x is the column-wise
join of tables on its parts.

Its stacked form takes one table top per row of a 2-D x, tops
non-decreasing, and one order sequence per row, as a radial stack needs
one per angular order.  Both recurrences are elementwise, so one downward
and one upward sweep serve every row.  The Miller start does not decrease
as the top grows, so at each downward step the rows already started are a
suffix of the arguments; the rows still climbing upward, to their highest
order, are a suffix too.  Every step runs on a slice, each argument keeps
the steps and rescalings of its own per-order call, and a stack is the
row-wise join of per-order tables, bit for bit.

The zeros j_{m,k}, m <= n, k <= K, are solved as one block.  Zeros of one
order lie more than j_{0,2} - j_{0,1} > 3 apart, so the k-th sign change of
row m in one table of J_0..J_n on x = 0.25, 0.5, ... (up to McMahon's
j_{n,K+1} + 2) brackets j_{m,k}; too few sign changes is a NumericalError.
One Newton-bisection loop refines every bracket in lockstep, a step being
one table call at the orders m - 1, m, m + 1 of each zero, and the
interlacing j_{m-1,k} < j_{m,k} < j_{m-1,k+1} (DLMF 10.21(i)) is checked
after convergence.  The block is cached.  A request outside it solves an
enlarged block that keeps every entry already held, so a zero never changes
once returned and a smaller basis's zeros are a prefix of a larger one's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

_UPWARD_X_MIN = 16.0
MAX_QUADRATURE_ORDER = 4096


@dataclass
class QuadratureRule:
    """Nodes and weights for integration over (0, 1); weights sum to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with `order` points, mapped affinely to (0, 1).

    Exact for polynomials of degree <= 2*order - 1.  It is numpy's leggauss
    (numpy.polynomial.legendre, BSD licence, NumPy Developers) operation for
    operation, so it has leggauss's bits without importing numpy.polynomial.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError("quadrature order must be a positive integer")
    if order > MAX_QUADRATURE_ORDER:
        raise ValueError(f"quadrature order above {MAX_QUADRATURE_ORDER} is not supported")
    n = int(order)
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    # the symmetric companion matrix; eigvalsh reads its lower triangle only
    x = np.linalg.eigvalsh(np.diag(np.arange(1, n) * scl[:-1] * scl[1:], -1))
    series = np.zeros(n + 1)
    series[n] = 1.0                                           # P_n
    slope = np.zeros(n)
    slope[n - 1::-2] = 2.0 * np.arange(n - 1, -1, -2) + 1.0   # P_n' = sum (2k + 1) P_k
    df = _legendre_sum(slope, x)
    x -= _legendre_sum(series, x) / df                        # one Newton step
    fm = _legendre_sum(series[1:], x)                         # P_{n-1}
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return QuadratureRule(nodes=(x + 1.0) / 2.0, weights=w / 2.0, order=n)


def _legendre_sum(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[k] P_k(x) by the Clenshaw recurrence, as numpy's legval."""
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _hankel_coefficients(terms: int) -> np.ndarray:
    """Rows P_0, P_1, Q_0, Q_1 of the Hankel sums in z = 1/x^2 (DLMF
    10.17.3): P_nu = sum_i (-1)^i a_2i(nu) z^i, Q_nu x = sum_i (-1)^i
    a_2i+1(nu) z^i, with a_k(nu) = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k)
    accumulated in integers and rounded once."""
    table = np.ones((2, 2 * terms))
    for nu in (0, 1):
        num = den = 1
        for k in range(1, 2 * terms):
            num *= 4 * nu * nu - (2 * k - 1) ** 2
            den *= 8 * k
            table[nu, k] = num / den              # int / int rounds once
    return np.concatenate([table[:, 0::2], table[:, 1::2]]) * (-1.0) ** np.arange(terms)


# a_0 .. a_37 (module docstring)
_HANKEL = _hankel_coefficients(19)


def _slots(orders: np.ndarray, counts: np.ndarray) -> dict:
    """q -> [(j, cells)]: the entries tab[j, cells] of a (r, n) sweep table
    that hold order q.  The n arguments are swept row after row, counts[i]
    of them from row i, and orders[i] (shape (rows, r)) is row i's
    sequence, so the cells are a row's slice of the arguments."""
    slot = {}
    end = np.cumsum(counts).tolist()
    for row, a, b in zip(orders.tolist(), [0, *end[:-1]], end):
        if a < b:
            for j, q in enumerate(row):
                slot.setdefault(q, []).append((j, slice(a, b)))
    return slot


def _upward_table(climbs: np.ndarray, counts: np.ndarray, slot: dict, x: np.ndarray,
                  out: np.ndarray, at: np.ndarray, cols: int) -> None:
    """J_q(x) for arguments at or above their row's switch max(_UPWARD_X_MIN,
    top), counts[i] of them from row i, written straight into the flat
    table out: the entry of slot j (cells of slot, _slots) of argument a is
    out[at[a] + j cols].  J_0 and J_1 come from the Hankel expansion, then
    the recurrence runs upward, stable for q <= x, through order climbs[i]
    on row i: climbs do not decrease and bound every order of their row, so
    the rows still climbing are a suffix of the arguments.  Each entry
    depends on its x and q alone.

    cos and sin of x - nu pi/2 - pi/4 come from cos x and sin x, so no
    rounded phase enters."""
    inv_x = 1.0 / x
    jp = inv_x * inv_x                            # z = 1/x^2, scratch after
    sums = np.zeros((4, x.size))
    for col in range(_HANKEL.shape[1] - 1, -1, -1):
        sums *= jp
        sums += _HANKEL[:, col, None]
    jm, jc, q0, q1 = sums                         # P_0, P_1, Q_0 x, Q_1 x
    cos, minus = np.cos(x), np.sin(x)
    plus = np.add(minus, cos, out=jp)             # sin x + cos x, in the scratch
    minus -= cos                                  # sin x - cos x
    amp = np.divide(inv_x, np.pi, out=cos)
    np.sqrt(amp, out=amp)
    q0 *= inv_x
    q1 *= inv_x
    jm *= plus
    jm -= np.multiply(q0, minus, out=q0)
    jm *= amp                                     # J_q, q = 0
    jc *= minus
    jc += np.multiply(q1, plus, out=q1)
    jc *= amp                                     # J_{q+1}
    begin = np.concatenate([[0], np.cumsum(counts)])
    for q in range(int(climbs[-1]) + 1):
        for j, cells in slot.get(q, ()):
            out[at[cells] + j * cols] = jm[cells]
        off = int(begin[np.searchsorted(climbs, q + 2)])     # the rows that read J_{q+2}
        step = np.multiply(inv_x[off:], 2.0 * (q + 1), out=jp[off:])
        step *= jc[off:]
        step -= jm[off:]                          # J_{q+2}
        jm, jc, jp = jc, jp, jm


def _miller_table(switch: np.ndarray, counts: np.ndarray, slot: dict, r: int,
                  x: np.ndarray) -> np.ndarray:
    """Downward-recurrence J_q(x) for arguments 0 < x below their row's
    switch max(_UPWARD_X_MIN, top), counts[i] of them from row i, switches
    non-decreasing, as a (r, x.size) table: slot j of argument a at [j, a]
    (cells of slot, _slots).  The table is rescaled during the sweep and
    normalized at its end, so it is placed in the result afterwards.

    A row's recurrence starts at an index set by its switch alone and each
    x is rescaled at the first step its own value passes the threshold, so
    the recurrence, its rescalings and hence every entry are the same
    whichever orders, rows and other x are in the call.  The start does
    not decrease as the switch grows, so the rows already started are a
    suffix of the arguments and every step runs on a slice.
    """
    starts = np.array([int(s) + int(15.0 * s ** (1.0 / 3.0)) + 22 for s in switch.tolist()])
    starts += starts % 2
    begin = np.concatenate([[0], np.cumsum(counts)])
    tab = np.zeros((r, x.size))
    jp, jc, jm, acc = (np.empty_like(x) for _ in range(4))
    inv_x = 1.0 / x
    # bound >= max(|J~_k|, |J~_{k+1}|) over the started x; one step multiplies
    # it by at most 2k max(1/x) + 1, and the 1e-12 margin covers the
    # roundings.  The overflow test runs only once the bound passes its
    # threshold, so it fires at exactly the steps where testing every step
    # would.
    grow = 2.0 * float(inv_x.max())
    bound = 1e-30
    off = x.size
    for k in range(int(starts[counts > 0].max()), 0, -1):
        enter = int(begin[np.searchsorted(starts, k)])
        if enter < off:                   # rows starting at k: J~_{k+1} = 0, J~_k = 1e-30
            jp[enter:off] = 0.0
            jc[enter:off] = 1e-30
            np.multiply(jc[enter:off], 2.0, out=acc[enter:off])
            off, bound = enter, max(bound, 1e-30)
        step = np.multiply(inv_x[off:], 2.0 * k, out=jm[off:])
        step *= jc[off:]
        step -= jp[off:]                  # J~_{k-1}
        jp, jc, jm = jc, jm, jp
        q = k - 1
        for j, cells in slot.get(q, ()):
            tab[j, cells] = jc[cells]
        if q == 0:
            acc[off:] += jc[off:]
        elif q % 2 == 0:
            acc[off:] += np.multiply(jc[off:], 2.0, out=jm[off:])
        bound *= (k * grow + 1.0) * (1.0 + 1e-12)
        if bound > 1e250:
            size = np.abs(jc[off:], out=jm[off:])
            big = np.flatnonzero(size > 1e250)
            if big.size:
                size[big] *= 1e-250
                big += off
                jc[big] *= 1e-250
                jp[big] *= 1e-250
                acc[big] *= 1e-250
                tab[:, big] *= 1e-250
            bound = max(float(size.max()), float(np.abs(jp[off:]).max()))
    tab /= acc
    return tab


def bessel_j_table(q_max, x, orders=None, out=None) -> np.ndarray:
    """J_q(x) for all orders q = 0..q_max, vectorized over an array of finite
    x >= 0.

    With orders (one sequence of integers in 0..q_max, repeats allowed) row
    i of the result is J_{orders[i]}, with the bits of the full table.

    Stacked: q_max a 1-D sequence of non-decreasing table tops, one per row
    of a 2-D x, and orders of shape (rows, r), one sequence per row.  Entry
    [i, j, c] of the (rows, r, columns) result is J_{orders[i, j]}(x[i, c])
    with the bits of bessel_j_table(q_max[i], x[i], orders=orders[i])[j].
    One upward and one downward sweep run over all the rows, writing into
    the result, or into out, a C-contiguous float array of its shape, when
    given.

    Routes each element by (q_max, x) alone, through the Hankel expansion
    and the upward recurrence at x >= max(16, q_max) and the Miller
    recurrence below; this is the workhorse behind basis tables, point
    evaluation and the zero finder.
    """
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x) & (x >= 0)).all():
        raise ValueError("bessel_j_table requires finite x >= 0")
    tops = np.asarray(q_max)
    stacked = tops.ndim == 1
    if stacked:
        grid = np.asarray([] if orders is None else orders, dtype=int)
        if (tops.dtype.kind not in "iu" or x.ndim != 2 or grid.ndim != 2 or grid.size == 0
                or not tops.size == x.shape[0] == grid.shape[0] or (np.diff(tops) < 0).any()
                or grid.min() < 0 or (grid > tops[:, None]).any()):
            raise ValueError("a stacked table needs non-decreasing integer tops, one row of "
                             "x and one non-empty order sequence within 0..top per top")
    else:
        x = np.atleast_1d(x)
        grid = np.asarray(np.arange(q_max + 1) if orders is None else orders, dtype=int)
        if grid.ndim != 1 or grid.size == 0 or grid.min() < 0 or grid.max() > q_max:
            raise ValueError("orders must be one non-empty sequence within 0..q_max")
        shape, tops, x, grid = x.shape, tops[None], x.reshape(1, -1), grid[None]
    (rows, r), cols = grid.shape, x.shape[1]
    if out is None:
        out = np.zeros((rows, r, cols))
    elif not (stacked and out.shape == (rows, r, cols) and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous array of the stacked result's shape")
    flat = out.reshape(-1)
    switch = np.maximum(_UPWARD_X_MIN, tops)
    tiny = x < 1e-12
    upward = x >= switch[:, None]
    # each route takes its arguments row after row; at[a] is the flat index
    # of argument a's slot 0 in the result
    for mask in (tiny, upward, ~(tiny | upward)):
        at = np.flatnonzero(mask)
        if at.size == 0:
            continue
        counts = mask.sum(axis=1)
        arg = x.reshape(-1)[at]
        at += at // cols * ((r - 1) * cols)
        if mask is upward:                # written into the result as it climbs
            _upward_table(np.maximum.accumulate(grid.max(axis=1)), counts,
                          _slots(grid, counts), arg, flat, at, cols)
        else:
            if mask is tiny:              # J_0(0) = 1, J_q(0) = 0 for q >= 1
                tab = np.repeat(grid, counts, axis=0).T == 0
            else:
                tab = _miller_table(switch, counts, _slots(grid, counts), r, arg)
            for j, row in enumerate(tab):
                flat[at + j * cols] = row
            del tab
        del arg, at                       # before the next route allocates
    return out if stacked else out.reshape((-1,) + shape)


def _mcmahon_guess(n, k) -> np.ndarray:
    """Asymptotic initializer for the k-th positive zero of J_n."""
    k = np.asarray(k, dtype=float)
    beta = (k + 0.5 * n - 0.25) * np.pi
    mu = 4.0 * n * n
    b8 = 8.0 * beta
    c1 = (mu - 1.0) / b8
    c3 = 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
    c5 = 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8**5)
    c7 = (64.0 * (mu - 1.0)
          * (6949.0 * mu**3 - 153855.0 * mu * mu + 1585743.0 * mu - 6277237.0)
          / (105.0 * b8**7))
    return beta - c1 - c3 - c5 - c7


def _jn_with_prime(n, x: np.ndarray):
    """(J_n(x), J_n'(x)), with J_n' = (J_{n-1} - J_{n+1}) / 2 and J_{-1} = -J_1;
    n is one order, or one order per x, in any sequence.  One stacked table
    at the top max(n) + 1 holds a row per distinct order, padded with x = 0
    (the exact route), so each entry has the bits of a call on its x alone."""
    n, x = (a.ravel() for a in np.broadcast_arrays(n, x))
    qs, row, counts = np.unique(n, return_inverse=True, return_counts=True)
    by_order = np.argsort(row, kind="stable")
    col = np.empty_like(row)
    col[by_order] = np.arange(n.size) - (np.cumsum(counts) - counts)[row[by_order]]
    args = np.zeros((qs.size, counts.max()))
    args[row, col] = x
    jm, jn, jp = bessel_j_table(np.full(qs.size, qs[-1] + 1), args,
                                orders=np.stack([abs(qs - 1), qs, qs + 1], axis=1))[row, :, col].T
    return jn, 0.5 * (np.where(n >= 1, jm, -jm) - jp)


def _newton_bisect(n, guess: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   flo: np.ndarray) -> np.ndarray:
    """Newton iteration on J_n inside brackets [lo, hi] with flo = J_n(lo) of
    the other sign than J_n(hi), bisection fallback.  n broadcasts against
    the brackets; each step evaluates only the zeros not yet converged.

    Convergence is judged on the Newton step itself, before the brackets
    are tightened: tightening first would pin a bracket endpoint onto the
    converged point and push the next candidate into the bisection branch.
    """
    x = np.clip(guess, lo + 1e-12, hi - 1e-12)
    n, lo, hi, flo = (np.broadcast_to(a, x.shape).flatten() for a in (n, lo, hi, flo))
    flat, live = x.ravel(), np.arange(x.size)
    for _ in range(200):
        if live.size == 0:
            return x
        f, fp = _jn_with_prime(n[live], flat[live])
        step = f / np.where(fp != 0.0, fp, 1.0)
        act = (fp == 0.0) | (np.abs(step) > 1e-15 * np.abs(flat[live]) + 1e-16)
        live, f, fp, step = live[act], f[act], fp[act], step[act]
        xl = flat[live]
        same = (f * flo[live]) > 0.0
        lo[live] = np.where(same, xl, lo[live])
        flo[live] = np.where(same, f, flo[live])
        hi[live] = np.where(same, hi[live], xl)
        low, high, cand = lo[live], hi[live], xl - step
        fallback = (fp == 0.0) | ~np.isfinite(cand) | (cand <= low) | (cand >= high)
        flat[live] = np.where(fallback, 0.5 * (low + high), cand)
        live = live[(high - low) > 1e-15 * np.abs(flat[live])]
    raise NumericalError(f"zero refinement did not converge for orders {np.unique(n[live])}")


def _lockstep_zeros(n: int, count: int) -> np.ndarray:
    """The first count positive zeros of J_0..J_n, shape (n + 1, count)."""
    cols = count + 1                      # the extra zero bounds the interlacing check
    xs = 0.25 * np.arange(1.0, 4.0 * (float(_mcmahon_guess(n, cols)) + 2.0) + 1.0)
    table = bessel_j_table(n, xs)
    change = table[:, :-1] * table[:, 1:] < 0.0
    if (change.sum(axis=1) < cols).any():
        raise NumericalError(f"too few sign changes of J_0..J_{n} below x = {xs[-1]:g}")
    cells = np.nonzero(change & (np.cumsum(change, axis=1) <= cols))[1].reshape(n + 1, cols)
    orders = np.arange(n + 1)[:, None]
    zeros = _newton_bisect(orders, _mcmahon_guess(orders, np.arange(1, cols + 1)),
                           xs[cells], xs[cells + 1], np.take_along_axis(table, cells, axis=1))
    if not ((zeros[:-1, :-1] < zeros[1:, :-1]) & (zeros[1:, :-1] < zeros[:-1, 1:])).all():
        raise NumericalError(f"zeros of J_0..J_{n} do not interlace")
    return zeros[:, :count]


_zero_block = np.empty((0, 0))


def _zeros_row(n: int, count: int) -> np.ndarray:
    """The first count zeros of J_n, a slice of the cached block."""
    global _zero_block
    held = _zero_block
    if n >= held.shape[0] or count > held.shape[1]:
        block = _lockstep_zeros(max(n, held.shape[0] - 1), max(count, held.shape[1]))
        block[:held.shape[0], :held.shape[1]] = held
        _zero_block = held = block
    return held[n, :count]


def bessel_zero(n: int, k: int) -> float:
    """k-th positive zero of J_n (k = 1, 2, ...), accurate to ~1e-13 relative."""
    return float(bessel_zeros_row(n, k)[-1])


def bessel_zeros_row(n: int, k_max: int) -> np.ndarray:
    """First k_max positive zeros of J_n as an array (convenience wrapper)."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("order n must be a non-negative integer")
    if not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise ValueError("zero count must be a positive integer")
    return _zeros_row(int(n), int(k_max)).copy()


def beta_function(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for
    0 < a, b <= 100, the domain the Duhamel time weights need.

    Any other argument, NaN and inf included, raises ValueError: above 100
    the log-Gamma sum cancels (B(1e8, 1/2) is 1.6e-8 off).  A quotient
    beyond the float range raises OverflowError (math.exp).
    """
    a = float(a)
    b = float(b)
    if not (0.0 < a <= 100.0 and 0.0 < b <= 100.0):
        raise ValueError(f"beta_function needs finite arguments in (0, 100], got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
