"""Special-function kernel against independent references.

The Bessel zeros and Beta values pinned here are the oracle anchors the rest
of the suite builds on: every frozen literal is re-derived by tests in this
module from a second algorithm (series bisection, adaptive quadrature,
mpmath) before other modules are allowed to rely on it.
"""

import math

import numpy as np
import pytest

import oracles
from stokesbesov import (NumericalError, basis, bessel_zero, bessel_zeros_row, beta_function,
                         gauss_legendre, specfun)
from stokesbesov.specfun import _jn_with_prime, bessel_j_table

J01 = 2.404825557695773
J11 = 3.831705970207512


def test_jn_at_zero_argument():
    assert bessel_j_table(0, 0.0, orders=(0,))[0, 0] == 1.0
    assert bessel_j_table(1, 0.0, orders=(1,))[0, 0] == 0.0
    assert bessel_j_table(7, 0.0, orders=(7,))[0, 0] == 0.0


def test_j0_vanishes_at_first_zero():
    # oracle: bisection on the truncated power series of J_0
    root = oracles.bisect_bessel_zero(0, 2.0, 3.0)
    assert abs(root - J01) < 1e-12
    assert abs(bessel_j_table(0, J01, orders=(0,))[0, 0]) < 1e-12


def test_jn_prime_values():
    assert _jn_with_prime(0, 0.0)[1][0] == 0.0
    assert _jn_with_prime(1, 0.0)[1][0] == 0.5
    # J_0' = -J_1, with J_1 evaluated by the independent series
    assert abs(_jn_with_prime(0, J01)[1][0] + oracles.series_jn(1, J01)) < 1e-13


def test_first_zeros_frozen_values():
    # oracle: series bisection on [2, 3] and [3, 4.5]
    assert abs(oracles.bisect_bessel_zero(0, 2.0, 3.0) - J01) < 1e-12
    assert abs(oracles.bisect_bessel_zero(1, 3.0, 4.5) - J11) < 1e-12
    assert abs(bessel_zero(0, 1) - J01) < 1e-12
    assert abs(bessel_zero(1, 1) - J11) < 1e-12


def test_zero_ordering():
    assert bessel_zero(0, 1) < bessel_zero(0, 2)


def test_zeros_against_mpmath_grid():
    for n in (0, 1, 5, 17, 32):
        for k in (1, 2, 16, 32):
            ref = oracles.mp_bessel_zero(n, k)
            assert abs(bessel_zero(n, k) - ref) < 1e-11 * max(1.0, ref)


def test_zeros_near_twelve_vs_mpmath():
    # oracle: mpmath; the zeros in (8.6, 12) to 1e-14 relative, well inside
    # the 1e-11 budget
    for n, k in ((2, 3), (0, 4), (1, 3), (4, 2)):
        ref = oracles.mp_bessel_zero(n, k)
        assert abs(bessel_zero(n, k) - ref) <= 1e-14 * ref


def test_lockstep_block_steps(empty_zero_cache, monkeypatch):
    # the (33, 33) block converges in at most 5 Newton-bisection steps
    steps = []
    real = specfun._jn_with_prime

    def counted(n, x):
        steps.append(1)
        return real(n, x)

    monkeypatch.setattr(specfun, "_jn_with_prime", counted)
    bessel_zeros_row(33, 33)
    assert 1 <= len(steps) <= 5


def test_zeros_row_matches_scipy():
    # every order of the (64, 64) block; the top order first, so the first
    # request solves the whole block
    for n in range(64, -1, -1):
        ref = oracles.scipy_jn_zeros(n, 64)
        got = bessel_zeros_row(n, 64)
        assert np.max(np.abs(got - ref)) < 1e-10


@pytest.mark.parametrize("n, k_max", [(-1, 3), (2.5, 3), (2, 0), (2, 2.5)])
def test_zeros_row_rejects_bad_arguments(n, k_max):
    with pytest.raises(ValueError):
        bessel_zeros_row(n, k_max)


def test_too_few_sign_changes_raise(empty_zero_cache, monkeypatch):
    real = specfun.bessel_j_table

    def flat_tail(q_max, x, orders=None):
        table = real(q_max, x, orders)
        if orders is None:               # the bracket table: no zero past x = 20
            table[:, np.asarray(x) > 20.0] = 1.0
        return table

    monkeypatch.setattr(specfun, "bessel_j_table", flat_tail)
    with pytest.raises(NumericalError, match="sign changes"):
        bessel_zeros_row(3, 8)


def test_non_interlacing_zeros_raise(empty_zero_cache, monkeypatch):
    real = specfun._newton_bisect

    def swapped(*args):
        zeros = real(*args)
        zeros[[1, 2]] = zeros[[2, 1]]    # J_1's zeros filed as J_2's and back
        return zeros

    monkeypatch.setattr(specfun, "_newton_bisect", swapped)
    with pytest.raises(NumericalError, match="interlace"):
        bessel_zeros_row(4, 6)


def test_zero_interlacing_property():
    # j_{n-1,k} < j_{n,k} < j_{n-1,k+1}, exercised over a seeded sample
    rng = np.random.default_rng(404)
    for n in rng.integers(1, 64, size=20):
        n = int(n)
        upper = bessel_zeros_row(n - 1, 9)
        row = bessel_zeros_row(n, 8)
        assert np.all(upper[:8] < row)
        assert np.all(row < upper[1:9])


def test_bessel_j_random_args_vs_scipy():
    rng = np.random.default_rng(11)
    x = np.exp(rng.uniform(math.log(1e-2), math.log(300.0), size=60))
    for n in (0, 1, 2, 8, 33, 64):
        ref = oracles.scipy_jv(n, x)
        got = bessel_j_table(n, x, orders=(n,))[0]
        assert np.max(np.abs(got - ref)) < 1e-12


def test_bessel_miller_upward_crossover():
    # both evaluation regimes around the switch x = max(16, q_max) agree
    # with mpmath to the documented 1e-12 absolute budget
    for n, xs in (((0, 4, 10), (15.5, 16.0, 16.5, 17.0)), ((40,), (39.5, 40.0, 40.5, 41.0))):
        for x in xs:
            for q in n:
                got = bessel_j_table(q, x, orders=(q,))[0, 0]
                assert abs(got - oracles.mp_bessel_j(q, x)) < 1e-12


@pytest.mark.parametrize("q_max", [0, 1, 2, 9, 34, 66, 130, 256])
def test_bessel_both_regimes_vs_mpmath(q_max):
    # oracle: mpmath at 50 digits, within the 1e-12 absolute budget, from
    # x = 1e-8 up to the switch max(16, q_max) (Miller) and on to 1e4
    # (Hankel J_0, J_1 and the upward recurrence)
    switch = max(16.0, q_max)
    x = np.concatenate([np.geomspace(1e-8, switch, 12, endpoint=False),
                        switch * np.array([1.0 - 1e-3, 1.0, 1.0 + 1e-3]),
                        np.geomspace(switch, 1e4, 12)[1:]])
    table = bessel_j_table(q_max, x)
    for q in sorted({0, min(1, q_max), q_max // 2, max(q_max - 1, 0), q_max}):
        ref = np.array([oracles.mp_bessel_j(q, xi) for xi in x])
        assert np.max(np.abs(table[q] - ref)) < 1e-12


def test_bessel_table_entries_do_not_depend_on_the_batch():
    # a column's bits depend on q_max and its own x: any subset of the x,
    # or one x alone, gives the same columns bit for bit
    rng = np.random.default_rng(18)
    x = np.concatenate([[0.0, 1e-13], rng.uniform(0.0, 20.0, 24), rng.uniform(20.0, 400.0, 24)])
    subset = rng.permutation(x.size)[:17]
    for q_max in (0, 2, 9, 34, 66):
        full = bessel_j_table(q_max, x)
        assert np.array_equal(full[:, subset], bessel_j_table(q_max, x[subset]))
        for column, xi in zip(full.T, x):
            assert np.array_equal(column, bessel_j_table(q_max, xi)[:, 0])


# x = 1e-3 lies far below the Miller start, so its values pass the overflow
# threshold and rescale; "series" is the range of the former power series,
# now Miller; "upward" is at or above the switch max(16, q_max) for every
# q_max used here
_ORDER_ARGS = {
    "rescaling": np.array([1e-3, 12.01, 400.0]),
    "series": np.linspace(0.0, 12.0, 41),
    "miller": np.linspace(12.5, 60.0, 37),
    "upward": np.geomspace(66.0, 1e4, 37),
    "mixed": np.exp(np.random.default_rng(7).uniform(-6.0, 6.0, (6, 9))),
}


@pytest.mark.parametrize("regime", sorted(_ORDER_ARGS))
def test_bessel_orders_rows_equal_full_table(regime):
    # asking for some rows changes no bit of them
    x = _ORDER_ARGS[regime]
    for q_max in (0, 1, 2, 9, 34, 66):
        full = bessel_j_table(q_max, x)
        assert full.shape == (q_max + 1,) + x.shape
        # the radial stack's |n-2|..n+2, mode_values_at's |n-1|, n+1, one
        # row, repeats out of order, and low rows only
        n = q_max - 2
        picks = ([abs(q) for q in range(n - 2, n + 3)], [abs(n), n + 2],
                 [q_max], [q_max, 0, q_max], [q_max // 2, 0])
        for orders in (o for o in picks if max(o) <= q_max):
            got = bessel_j_table(q_max, x, orders=orders)
            assert np.array_equal(got, full[orders])


@pytest.mark.parametrize("regime", sorted(_ORDER_ARGS))
def test_jn_with_prime_equals_per_argument_calls(regime):
    """The zero finder's one stacked table, a row per order, has the bits of
    one plain call per argument at the top max(n) + 1: over ragged rows in
    random order, a one-argument row (order 40), order 0 (J_{-1} = -J_1)
    and x = 0, with Miller and upward arguments."""
    x = np.concatenate([_ORDER_ARGS[regime].ravel(), [0.0, 0.0, 30.0]])
    n = np.random.default_rng(5).integers(0, 35, x.size)
    n[-3:] = (0, 3, 40)
    want = np.array([bessel_j_table(41, [xi], orders=(abs(ni - 1), ni, ni + 1))[:, 0]
                     for ni, xi in zip(n, x)]).T
    jn, prime = _jn_with_prime(n, x)
    assert np.array_equal(jn, want[1])
    assert np.array_equal(prime, 0.5 * (np.where(n >= 1, want[0], -want[0]) - want[2]))


def test_jn_with_prime_takes_orders_in_any_sequence():
    """Shuffled orders give every argument its own values, bit for bit,
    those of the call with the orders sorted."""
    rng = np.random.default_rng(9)
    n = np.sort(rng.integers(0, 12, 60))
    x = rng.uniform(0.0, 30.0, 60)
    mixed = rng.permutation(60)
    for got, want in zip(_jn_with_prime(n[mixed], x[mixed]), _jn_with_prime(n, x)):
        assert np.array_equal(got, want[mixed])


def test_bessel_orders_vs_scipy():
    # oracle: scipy.special.jv, within the module's 1e-12 absolute budget
    rng = np.random.default_rng(64)
    x = np.concatenate([rng.uniform(0.0, 12.0, 40), rng.uniform(12.0, 400.0, 40)])
    for n in (0, 1, 2, 7, 31, 62):
        orders = [abs(q) for q in range(n - 2, n + 3)]
        got = bessel_j_table(n + 2, x, orders=orders)
        for row, q in zip(got, orders):
            assert np.max(np.abs(row - oracles.scipy_jv(q, x))) < 1e-12


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_bessel_table_rejects_bad_arguments(bad):
    with pytest.raises(ValueError, match="finite x >= 0"):
        bessel_j_table(3, np.array([1.0, bad]))


def test_bessel_orders_rejects_out_of_range():
    # 2-D orders with a scalar top, even one sequence per x, are refused
    for orders in ([], [-1], [5], [[1, 2]], [[1, 2], [0, 3]], np.zeros((2, 1), int)):
        with pytest.raises(ValueError):
            bessel_j_table(4, np.array([1.0, 20.0]), orders=orders)


def _per_order(zeros_rows, r, shifts, reach):
    """What the stacked call builds, one call per angular order n: J at the
    orders |n + s| of the table up to n + reach, at the arguments j_{n,k} r."""
    return np.stack([bessel_j_table(n + reach, np.multiply.outer(zeros, r).ravel(),
                                    orders=[abs(n + s) for s in shifts])
                     for n, zeros in enumerate(zeros_rows)])


def _stacked(zeros_rows, r, shifts, reach):
    """Stacked calls over every angular order, in blocks of rows as
    basis.radial_rows sweeps them."""
    n = np.arange(zeros_rows.shape[0])
    x = np.multiply.outer(zeros_rows, r).reshape(n.size, -1)
    out = np.empty((n.size, len(shifts), x.shape[1]))
    step = max(1, basis._SWEEP_BLOCK // max(1, x.shape[1]))
    for rows in (slice(lo, lo + step) for lo in range(0, n.size, step)):
        bessel_j_table(n[rows] + reach, x[rows], orders=np.abs(n[rows, None] + np.array(shifts)),
                       out=out[rows])
    return out


# the points r = 0 and r = 1, and radii whose arguments j r start at 1e-10
# and reach past 1e-3: far below the Miller start, they pass the overflow
# threshold and rescale
_EDGES = np.concatenate([[0.0, 1.0], np.geomspace(1e-10, 1e-3, 15) / J01])


@pytest.mark.parametrize("n_max, k_max", [(0, 1), (8, 8), (16, 16), (32, 32), (64, 64)])
def test_stacked_table_equals_per_order_calls(n_max, k_max):
    """Stacked calls over the angular orders of a radial stack have the bits
    of one call per order: the grid stack's shifts -2..2 on 128 Gauss
    radii, the refined stack's -1, 1 on 384, point evaluation's -1, 1, the
    normalization's 1 and the boundary traces' 0, each at the table top
    the program uses."""
    zeros = np.array([bessel_zeros_row(n, k_max) for n in range(n_max + 1)])
    gauss = gauss_legendre(128).nodes
    cases = ((range(-2, 3), 2, np.concatenate([_EDGES, gauss])),
             ((-1, 1), 2, gauss_legendre(384).nodes),
             ((-1, 1), 1, np.concatenate([_EDGES, gauss[::5]])),
             ((1,), 1, _EDGES), ((0,), 0, _EDGES))
    for shifts, reach, r in cases:
        got = _stacked(zeros, r, shifts, reach)
        assert got.shape == (n_max + 1, len(shifts), k_max * r.size)
        assert np.array_equal(got, _per_order(zeros, r, shifts, reach)), (shifts, r.size)


def test_stacked_table_takes_any_orders_per_row():
    """Rows whose highest orders fall as the tops rise, repeats and order 0,
    over every regime (zero, rescaling, Miller and upward arguments), have
    the bits of one call per row."""
    tops = np.array([0, 3, 9, 9, 20, 40, 41])
    orders = np.array([[0, 0], [3, 1], [9, 0], [2, 2], [20, 7], [1, 0], [41, 40]])
    x = np.array([0.0, 1e-9, 1e-3, 0.7, 12.0, 15.9, 16.0, 39.5, 40.5, 41.0, 400.0])
    x = x * np.linspace(1.0, 1.1, tops.size)[:, None]
    got = bessel_j_table(tops, x, orders=orders)
    for top, row, xs, table in zip(tops, orders, x, got):
        assert np.array_equal(table, bessel_j_table(int(top), xs, orders=row)), top


def test_stacked_table_rejects_bad_stacks():
    x = np.array([[1.0, 20.0], [2.0, 30.0]])
    for tops, orders in (([3, 2], [[0], [1]]),          # tops decrease
                         ([2, 3], [[0], [4]]),          # an order above its top
                         ([2, 3], [[0]]),               # one order row short
                         ([2, 3, 4], [[0], [1], [2]]),  # one top too many
                         ([2, 3], [[], []]),            # no orders
                         ([2.0, 3.0], [[0], [1]])):     # tops not integers
        with pytest.raises(ValueError):
            bessel_j_table(np.array(tops), x, orders=orders)
    with pytest.raises(ValueError):
        bessel_j_table(np.array([2, 3]), x)             # stacks need orders
    with pytest.raises(ValueError):
        bessel_j_table(np.array([2]), x[0], orders=[[0]])   # x must be 2-D


def test_gauss_legendre_midpoint():
    rule = gauss_legendre(1)
    assert rule.nodes.tolist() == [0.5]
    assert rule.weights.tolist() == [1.0]


def test_gauss_legendre_weight_normalization():
    rule = gauss_legendre(16)
    assert abs(rule.weights.sum() - 1.0) < 1e-14


def test_gauss_legendre_quadratic_exact():
    # analytic oracle: integral of x^2 over (0, 1) is 1/3
    rule = gauss_legendre(2)
    assert abs(float(rule.weights @ rule.nodes ** 2) - 1.0 / 3.0) < 1e-15


def test_gauss_legendre_is_numpys_leggauss():
    """The rule is numpy's leggauss mapped to (0, 1), bit for bit, at every
    order up to 160, at the radial orders of the 1.5x and 3x grids and at
    the config's limit."""
    from numpy.polynomial.legendre import leggauss
    for order in [*range(1, 161), 192, 384, 1365]:
        rule = gauss_legendre(order)
        x, w = leggauss(order)
        assert rule.nodes.tobytes() == ((x + 1.0) / 2.0).tobytes(), order
        assert rule.weights.tobytes() == (w / 2.0).tobytes(), order


def test_gauss_legendre_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(2.5)


def test_beta_uniform_density():
    assert beta_function(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_beta_half_half_is_pi():
    # oracle: adaptive quadrature away from the endpoints (substituted)
    assert abs(oracles.quad_beta(0.5, 0.5) - math.pi) < 1e-12
    assert abs(beta_function(0.5, 0.5) - math.pi) < 1e-10


def test_beta_symmetry_property():
    rng = np.random.default_rng(2718)
    for _ in range(25):
        a, b = rng.uniform(0.1, 8.0, size=2)
        assert beta_function(a, b) == pytest.approx(beta_function(b, a), rel=1e-13)


def test_beta_against_quadrature_sample():
    rng = np.random.default_rng(515)
    for _ in range(8):
        a, b = rng.uniform(0.2, 4.0, size=2)
        ref = oracles.quad_beta(a, b)
        assert beta_function(a, b) == pytest.approx(ref, rel=1e-11)


def test_beta_against_mpmath_on_positive_arguments():
    rng = np.random.default_rng(516)
    for a, b in rng.uniform(0.01, 40.0, size=(60, 2)):
        assert beta_function(a, b) == pytest.approx(oracles.mp_beta(a, b), rel=1e-12, abs=0.0)


def test_beta_against_mpmath_over_its_domain():
    # 49 log-spaced arguments per axis from 1e-6 to exactly 100: the
    # log-Gamma sum cancels least at the small end, most at (100, 100)
    xs = np.logspace(-6.0, 2.0, 49)
    worst = max(abs(beta_function(a, b) / oracles.mp_beta(a, b) - 1.0) for a in xs for b in xs)
    assert worst <= 1e-12


def test_beta_refuses_poles():
    for a, b in ((0.0, 1.0), (-2.0, 0.5), (0.5, -1.5)):
        with pytest.raises(ValueError, match=r"in \(0, 100\]"):
            beta_function(a, b)


def test_beta_refuses_negative_and_large_arguments():
    # negative arguments have no caller; above 100 the log-Gamma sum cancels
    for a, b in ((-0.5, 2.2), (100.5, 1.0), (1e8, 0.5)):
        with pytest.raises(ValueError, match=r"in \(0, 100\]"):
            beta_function(a, b)


def test_beta_refuses_non_finite_arguments_and_overflows():
    for a, b in ((math.inf, 1.0), (-math.inf, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            beta_function(a, b)
    with pytest.raises(OverflowError):        # B(a, a) ~ 2 / a above the float range
        beta_function(1e-320, 1e-320)
