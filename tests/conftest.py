"""Shared fixtures (one basis/grid build per session) and the acceptance
summary hook: every test named test_criterion_NN_* contributes one
PASS/FAIL line to the terminal summary, so the acceptance status is
readable without scrolling through the full pytest output.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from stokesbesov import build_basis, build_grid, specfun

_CRITERION = re.compile(r"test_criterion_(\d+)")

_CRITERION_TITLES = {
    1: "partition reconstruction at (32,32)",
    2: "basis fidelity (Gram, traces, lambda_min)",
    3: "multiplier uniformity and drift",
    4: "semigroup smoothing slopes",
    5: "Gaussian kernel constant",
    6: "gradient estimate constants",
    7: "Beta constants vs quadrature",
    8: "nonlinear structure identities",
    9: "small-data mild solution",
    10: "critical embedding sharpness (L4 ~ width^-1/2, Besov <= 4x)",
    11: "verify-all determinism and budget",
}


@pytest.fixture
def empty_zero_cache(monkeypatch):
    """Start the test with no cached Bessel zeros; the session's block, which
    the shared bases were built from, comes back afterwards."""
    monkeypatch.setattr(specfun, "_zero_block", np.empty((0, 0)))


@pytest.fixture(scope="session")
def grid_default():
    return build_grid(128, 256)


@pytest.fixture(scope="session")
def grid_small():
    return build_grid(64, 128)


@pytest.fixture(scope="session")
def basis_11():
    return build_basis(1, 1)


@pytest.fixture(scope="session")
def basis_88():
    return build_basis(8, 8)


@pytest.fixture(scope="session")
def basis_1616():
    return build_basis(16, 16)


@pytest.fixture(scope="session")
def basis_3232():
    return build_basis(32, 32)


def pytest_configure(config):
    config._acceptance_results = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    store = getattr(report.config, "_acceptance_results", None) if hasattr(report, "config") else None
    # logreport has no config attribute on older pytest; stash on the module
    if store is None:
        store = _RESULTS
    if report.when == "call":
        store[num] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        store[num] = report.outcome


_RESULTS: dict = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = dict(_RESULTS)
    results.update(getattr(config, "_acceptance_results", {}))
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(set(results) | set(_CRITERION_TITLES)):
        outcome = results.get(num)
        if outcome is None:
            status = "NOT RUN"
        elif outcome == "passed":
            status = "PASS"
        else:
            status = "FAIL"
        title = _CRITERION_TITLES.get(num, "")
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {title}")
