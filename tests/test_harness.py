"""Config parsing, data generators, experiment drivers, CLI, artifacts."""

import gc
import json
import math

import numpy as np
import pytest

import stokesbesov.harness
import stokesbesov.solver
from stokesbesov import specfun
from stokesbesov import (ConfigError, ResolutionError,
                         SolverConfig, besov_norm, BesovIndex,
                         critical_index, picard_solve, save_basis, synthesize,
                         zero_field)
from stokesbesov.basis import COS, SIN
from stokesbesov.cli import main
from stokesbesov.harness import (CHECKS, DRIFT_CHECKS, DataSpec, RunConfig,
                                 embedding_experiment, generate_data,
                                 load_config, run_experiment, trajectory_rows,
                                 verify_checks, weak_l2_proxy, write_csv,
                                 _fmt, _resolved_radius, _sanitize)
from stokesbesov.norms import INF, trajectory_terms
from stokesbesov.solver import Trajectory, evaluate_at


# ---------------------------------------------------------------------------
# config loading

def test_defaults():
    cfg = load_config()
    assert cfg.experiment == "verify"
    assert (cfg.n_max, cfg.k_max) == (32, 32)
    assert cfg.p == 4.0
    assert cfg.embed_widths == (0.4, 0.2, 0.1)
    assert cfg.data.kind == "single_mode"
    assert cfg.out_dir == "artifacts"


def test_full_config_roundtrip(tmp_path):
    text = """
[run]
seed = 11
[basis]
n_max = 8
k_max = 8
[grid]
radial_order = 64
angular_count = 128
[solver]
p = 5
t_final = 0.25
mesh_count = 12
gamma = 2
[data]
kind = band_random
band = 3
amplitude = 0.01
center = 0.1, -0.2
[embed]
widths = 0.3, 0.15
[verify]
doubled = yes
checks = beta-pi, multiplier-drift
[output]
dir = out_here
"""
    path = tmp_path / "run.ini"
    path.write_text(text)
    cfg = load_config(path, {"experiment": "solve"})
    assert cfg.experiment == "solve"
    assert cfg.seed == 11
    assert (cfg.n_max, cfg.k_max) == (8, 8)
    assert (cfg.radial_order, cfg.angular_count) == (64, 128)
    assert (cfg.p, cfg.T, cfg.mesh_count, cfg.gamma) == (5.0, 0.25, 12, 2.0)
    assert cfg.data.kind == "band_random" and cfg.data.band == 3
    assert cfg.data.center == (0.1, -0.2)
    assert cfg.embed_widths == (0.3, 0.15)
    assert cfg.doubled is True
    assert cfg.checks == ("beta-pi", "multiplier-drift")
    assert cfg.out_dir == "out_here"


def test_unknown_section(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[solvers]\np = 4\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)


def test_unknown_key(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[solver]\npp = 4\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)


def test_p_range_enforced(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[solver]\np = 2.0\n")
    with pytest.raises(ConfigError, match="d < p < inf"):
        load_config(path)


def test_unknown_check_id(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[verify]\nchecks = gram-orthonormality, bogus-check\n")
    with pytest.raises(ConfigError, match="unknown check ids"):
        load_config(path)


def test_bad_center(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[data]\ncenter = 0.1\n")
    with pytest.raises(ConfigError, match="center"):
        load_config(path)


# ---------------------------------------------------------------------------
# data generators

def test_single_mode_data(basis_88, grid_small):
    spec = DataSpec(kind="single_mode", n=1, parity="sin", k=2, amplitude=0.5)
    u = generate_data(spec, basis_88, grid_small)
    hot = np.flatnonzero(u.coeffs)
    assert hot.size == 1
    assert hot[0] == basis_88.group_index[(1, SIN)][2 - 1]
    assert u.coeffs[hot[0]] == 0.5


def test_single_mode_outside_truncation(basis_88, grid_small):
    with pytest.raises(ConfigError, match="not in the"):
        generate_data(DataSpec(kind="single_mode", n=3, k=9), basis_88,
                      grid_small)


def test_band_random_reproducible(basis_88, grid_small):
    spec = DataSpec(kind="band_random", band=3, seed=7, amplitude=2e-3)
    a = generate_data(spec, basis_88, grid_small)
    b = generate_data(spec, basis_88, grid_small)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert np.linalg.norm(a.coeffs) == pytest.approx(2e-3, rel=1e-12)
    freq = np.sqrt(basis_88.lam[np.flatnonzero(a.coeffs)])
    assert ((freq > 4.0) & (freq < 16.0)).all()


def test_band_random_empty_band(basis_88, grid_small):
    with pytest.raises(ConfigError, match="no basis frequencies"):
        generate_data(DataSpec(kind="band_random", band=12), basis_88,
                      grid_small)


def test_spectral_slope_normalized(basis_88, grid_small):
    u = generate_data(DataSpec(kind="spectral_slope", slope=1.5,
                               amplitude=0.3), basis_88, grid_small)
    assert np.linalg.norm(u.coeffs) == pytest.approx(0.3, rel=1e-12)


def test_bump_width_gates(basis_88, grid_small):
    with pytest.raises(ResolutionError, match="positive"):
        generate_data(DataSpec(kind="bump_family", width=0.0), basis_88,
                      grid_small)
    # 3 radial spacings at order 64 is ~0.047
    with pytest.raises(ResolutionError, match="radial grid spacings"):
        generate_data(DataSpec(kind="bump_family", width=0.01), basis_88,
                      grid_small)


def test_embedding_refuses_a_nan_width(basis_88, grid_small):
    # eta(nan) is 1, so a NaN width would cut the whole swirl off
    with pytest.raises(ResolutionError, match="radial grid spacings"):
        embedding_experiment(4.0, (math.nan, 0.2), basis_88, grid_small)


def test_weak_proxy_needs_samples(basis_88, grid_small):
    with pytest.raises(TypeError):
        weak_l2_proxy(zero_field(basis_88))


def test_weak_proxy_width_uniform(basis_1616, grid_default):
    """The cut-off swirl has |u| ~ 1/rho away from the core, so its weak-L^2
    size barely moves as the cutoff shrinks.  That uniformity is the whole
    point of the family."""
    proxies = []
    for h in (0.4, 0.2, 0.1):
        u = generate_data(DataSpec(kind="bump_family", width=h),
                          basis_1616, grid_default)
        proxies.append(weak_l2_proxy(synthesize(u, grid_default)))
    assert max(proxies) / min(proxies) <= 2.0


def test_weak_proxy_zero():
    from stokesbesov import build_grid
    from stokesbesov.basis import GridVectorField
    g = build_grid(16, 32)
    v = GridVectorField(g, np.zeros(g.shape), np.zeros(g.shape))
    assert weak_l2_proxy(v) == 0.0


def test_embedding_experiment(basis_1616, grid_default):
    rep = embedding_experiment(4.0, (0.4, 0.2, 0.1), basis_1616, grid_default)
    lp = [r["lp_norm"] for r in rep["rows"]]
    assert lp[0] < lp[1] < lp[2]
    slope = np.polyfit(np.log([0.4, 0.2, 0.1]), np.log(lp), 1)[0]
    assert slope <= -0.4
    assert rep["lp_spread"] >= 1.8
    assert rep["weak_spread"] <= 2.0
    assert rep["besov_spread"] <= 4.0


def test_embedding_validates_p(basis_88, grid_small):
    with pytest.raises(ValueError):
        embedding_experiment(2.0, (0.2,), basis_88, grid_small)


# ---------------------------------------------------------------------------
# trajectory diagnostics

def _two_mode_direction(basis):
    u = zero_field(basis)
    for n in (0, 1):
        u.coeffs[basis.group_index[(n, COS)][1 - 1]] = 1.0
    return u


def _small_solve(basis, grid, mesh=12):
    cfg = SolverConfig(basis=basis, grid=grid, p=4.0, T=0.5, mesh_count=mesh)
    u0 = 1e-2 * _two_mode_direction(basis)
    traj, report = picard_solve(u0, cfg)
    assert report.converged
    return traj, u0, cfg


def _rows(traj, u0, cfg):
    evaluated = evaluate_at(traj, u0, traj.times, cfg)
    return trajectory_rows(traj, cfg, evaluated, trajectory_terms(traj, cfg.p, cfg.grid))


def test_trajectory_rows_one_convection_per_mesh_point(basis_88, grid_small,
                                                       monkeypatch):
    # the defect column needs N(u) at each mesh field once, not once per row
    traj, u0, cfg = _small_solve(basis_88, grid_small)
    calls = []
    counted = stokesbesov.solver.nonlinear_coeffs

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(stokesbesov.solver, "nonlinear_coeffs", counting)
    evaluated = evaluate_at(traj, u0, traj.times, cfg)
    assert 0 < len(calls) <= cfg.mesh_count + 1
    made = len(calls)
    rows = trajectory_rows(traj, cfg, evaluated, trajectory_terms(traj, cfg.p, grid_small))
    assert len(rows) == cfg.mesh_count + 1
    assert len(calls) == made


def test_trajectory_rows_flag_perturbed_row(basis_88, grid_small):
    traj, u0, cfg = _small_solve(basis_88, grid_small)
    assert [r[-1] for r in _rows(traj, u0, cfg)] == [1] * 13
    bent = traj.coeffs.copy()
    bent[8] *= 1.01
    bad = Trajectory(basis_88, traj.times, bent)
    flags = [r[-1] for r in _rows(bad, u0, cfg)]
    assert flags[8] == 0
    assert flags[:8] == [1] * 8


# ---------------------------------------------------------------------------
# experiment drivers and artifacts

_SMALL = """
[basis]
n_max = 8
k_max = 8
[grid]
radial_order = 64
angular_count = 128
"""


def _write_cfg(tmp_path, extra=""):
    path = tmp_path / "run.ini"
    path.write_text(_SMALL + extra)
    return path


def test_run_verify_subset(tmp_path):
    cfg = load_config(_write_cfg(tmp_path), {
        "checks": ("partition-residual", "band-support", "beta-pi"),
        "out_dir": str(tmp_path / "out"),
    })
    assert run_experiment(cfg) == 0
    rows = (tmp_path / "out" / "checks.csv").read_text().strip().splitlines()
    assert rows[0] == "check_id,value,threshold,passed"
    assert len(rows) == 4
    assert all(r.endswith("pass") for r in rows[1:])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert summary["failed"] == []


def test_run_solve_small(tmp_path, monkeypatch):
    extra = """
[solver]
t_final = 0.25
mesh_count = 12
[data]
kind = single_mode
amplitude = 1e-3
"""
    cfg = load_config(_write_cfg(tmp_path, extra),
                      {"experiment": "solve", "out_dir": str(tmp_path / "out")})
    calls = []
    real = stokesbesov.solver.evaluate_at

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (stokesbesov.solver, stokesbesov.harness):
        monkeypatch.setattr(module, "evaluate_at", counting)
    assert run_experiment(cfg) == 0
    # one mild evaluation feeds both trajectory.csv and the summary residual
    assert len(calls) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["picard"]["converged"] is True
    assert summary["residual"] <= 10.0 * cfg.picard_tol
    rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == ("t,l2_norm,lp_norm_weighted,besov_crit_norm,"
                      "energy,curl_l2,residual_flag")
    assert len(rows) == 1 + 12 + 1          # header + mesh nodes incl. t=0
    assert all(r.rsplit(",", 1)[1] == "1" for r in rows[1:])


def test_solve_diagnostics_reuse_final_forcing_and_norm(tmp_path, monkeypatch):
    # after Picard, the diagnostics need N(u) at each mesh field once and the
    # final trajectory norm once
    extra = """
[solver]
t_final = 0.25
mesh_count = 6
[data]
kind = single_mode
amplitude = 1e-3
"""
    counts = {"convection": 0, "trajectory_norm": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(stokesbesov.solver, "nonlinear_coeffs", "convection")
    counting(stokesbesov.solver, "trajectory_norm", "trajectory_norm")
    counting(stokesbesov.harness, "trajectory_norm", "trajectory_norm")
    cfg = load_config(_write_cfg(tmp_path, extra),
                      {"experiment": "solve", "out_dir": str(tmp_path / "out")})
    assert run_experiment(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    iterations = summary["picard"]["iterations"]
    assert iterations >= 1
    assert counts["convection"] == (iterations + 1) * (6 + 1)
    assert counts["trajectory_norm"] == iterations + 1


def test_manifest_records_environment(tmp_path):
    cfg = load_config(_write_cfg(tmp_path),
                      {"experiment": "basis", "out_dir": str(tmp_path / "out")})
    assert run_experiment(cfg) == 0
    env = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
    assert env["numpy"] == np.__version__
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert name in env
        assert env[name] is None or isinstance(env[name], str)


def test_run_basis_cache(tmp_path):
    cfg = load_config(_write_cfg(tmp_path),
                      {"experiment": "basis", "out_dir": str(tmp_path / "out")})
    assert run_experiment(cfg) == 0
    doc = json.loads((tmp_path / "out" / "basis.json").read_text())
    assert doc["n_max"] == 8 and len(doc["modes"]) == 8 * 17
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_modes"] == 8 * 17
    assert summary["lambda_min"] == pytest.approx(5.783185962946785, abs=1e-9)


def test_run_embed_small(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("""
[basis]
n_max = 8
k_max = 8
[grid]
radial_order = 96
angular_count = 192
[embed]
widths = 0.4, 0.2
""")
    cfg = load_config(path, {"experiment": "embed", "out_dir": str(tmp_path / "out")})
    assert run_experiment(cfg) == 0
    rows = (tmp_path / "out" / "embedding.csv").read_text().strip().splitlines()
    assert rows[0] == "width,lp_norm,weak_l2_proxy,besov_critical"
    assert len(rows) == 3


def test_byte_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = load_config(_write_cfg(tmp_path), {
            "checks": ("partition-residual", "reconstruction", "beta-pi"),
            "out_dir": str(tmp_path / name),
        })
        assert run_experiment(cfg) == 0
        outs.append(tmp_path / name)
    a, b = outs
    assert (a / "checks.csv").read_bytes() == (b / "checks.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    # wall time varies by nature; out_dir is an input difference, not drift
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    ma["config"].pop("out_dir"), mb["config"].pop("out_dir")
    assert ma == mb


# ---------------------------------------------------------------------------
# the check runner

@pytest.mark.parametrize("check_id", list(CHECKS) + list(DRIFT_CHECKS))
def test_one_comparator_decides_every_check(check_id, monkeypatch):
    """A value at the threshold passes unless the sense is strict, one step
    to the failing side fails, and so do NaN and a false extra condition."""
    registry = CHECKS if check_id in CHECKS else DRIFT_CHECKS
    config = RunConfig(checks=(check_id,))

    def run(*returned):
        monkeypatch.setitem(registry, check_id, lambda ctx: returned)
        [result] = verify_checks(config)
        assert (result.check_id, result.value, result.note) == (check_id, *returned[:2])
        return result

    sense = {"dealiasing": ">=", "weak-star": "<"}.get(check_id, "<=")
    nan = run(math.nan, "nan")
    assert (nan.passed, nan.sense) == (False, sense)
    threshold = nan.threshold
    if check_id == "picard-small":
        assert threshold == 10 * config.picard_tol
    failing_side = -INF if sense == ">=" else INF
    assert run(threshold, "at").passed is (sense != "<")
    assert run(np.nextafter(threshold, failing_side), "past").passed is False
    inside = np.nextafter(threshold, -failing_side)
    assert run(inside, "inside").passed is True
    assert run(inside, "inside", True).passed is True
    assert run(inside, "inside", False).passed is False


def test_crashed_check_fails_and_the_rest_run(tmp_path, monkeypatch, capsys):
    def crash(ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(CHECKS, "weak-star", crash)
    path = _write_cfg(tmp_path, "[verify]\nchecks = weak-star, beta-pi\n")
    out = tmp_path / "out"
    assert main(["verify", "all", "--config", str(path), "--out", str(out)]) == 4
    crashed, healthy = json.loads((out / "summary.json").read_text())["checks"]
    # a crashed row keeps its check's threshold and sense from the registry
    assert crashed == {"check_id": "weak-star", "value": None, "threshold": 1.0,
                       "passed": False, "sense": "<", "note": "error: boom"}
    assert (healthy["check_id"], healthy["passed"]) == ("beta-pi", True)
    printed = capsys.readouterr().out
    assert "weak-star: FAIL (value inf, threshold 1.0)" in printed
    assert "1 check(s) failed: weak-star" in printed


def test_verify_checks_refuses_an_invalid_config_before_any_check(monkeypatch):
    # a RunConfig built in code is validated as a loaded one is: no check
    # runs, so no crashed check turns into a FAIL row
    ran = []
    monkeypatch.setitem(CHECKS, "picard-small", lambda ctx: ran.append(ctx))
    with pytest.raises(ConfigError, match="gamma"):
        verify_checks(RunConfig(gamma=0.5, checks=("picard-small",)))
    assert ran == []


def test_resolved_radius_solves_one_zero_block(empty_zero_cache, monkeypatch):
    solves = []
    real = specfun._lockstep_zeros

    def counted(n, count):
        solves.append((n, count))
        return real(n, count)

    monkeypatch.setattr(specfun, "_lockstep_zeros", counted)
    # min(j_{3,1}, j_{0,3}), from mpmath.besseljzero
    assert _resolved_radius(2, 2) == pytest.approx(6.38016189592398, rel=1e-13)
    assert solves == [(3, 3)]


def test_bernstein_companion_is_built_once_and_freed_on_return(monkeypatch):
    """_bernstein_stat holds the refined companion across its sup norms:
    one radial_rows build on its 3R radii per statistic, and the companion
    is gone, by reference counting alone, when the statistic returns."""
    import stokesbesov.basis
    from stokesbesov import build_basis, build_grid
    from stokesbesov.harness import _bernstein_stat
    basis, grid = build_basis(8, 8), build_grid(32, 64)
    refined_builds = []
    real = stokesbesov.basis.radial_rows

    def counted(zeros, r, *args):
        refined_builds.extend([r.size] if r.size == 3 * grid.radial_order else [])
        return real(zeros, r, *args)

    monkeypatch.setattr(stokesbesov.basis, "radial_rows", counted)
    gc.disable()
    try:
        for seed in (3, 4):
            stats, _ = _bernstein_stat(basis, grid, seed)
            assert grid._refined[1]() is None          # the rule is kept, the grid not
            assert math.isfinite(stats[(2.0, INF)][0])
    finally:
        gc.enable()
    assert refined_builds == [3 * grid.radial_order] * 2


# ---------------------------------------------------------------------------
# CLI

def test_cli_verify_single_check(tmp_path, capsys):
    code = main(["verify", "beta-pi", "--config",
                 str(_write_cfg(tmp_path)), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "beta-pi: pass" in out
    assert "all checks passed" in out


def test_cli_doubled_appends_the_drift_checks_to_a_named_one(tmp_path, monkeypatch):
    ran = []
    for check_id in DRIFT_CHECKS:
        monkeypatch.setitem(DRIFT_CHECKS, check_id,
                            lambda ctx, c=check_id: ran.append(c) or (0.0, "stub"))
    code = main(["verify", "beta-pi", "--doubled", "--config",
                 str(_write_cfg(tmp_path)), "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "checks.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["beta-pi", *DRIFT_CHECKS]
    assert ran == list(DRIFT_CHECKS)
    # a named drift check runs once, where it was named; the others follow
    cfg = load_config(_write_cfg(tmp_path, "\n[verify]\nchecks = kernel-drift, beta-pi\n"
                                           "doubled = yes\n"), {"out_dir": str(tmp_path / "o2")})
    assert [r.check_id for r in verify_checks(cfg)] == [
        "kernel-drift", "beta-pi", *(c for c in DRIFT_CHECKS if c != "kernel-drift")]


def test_cli_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[solver]\np = 2.0\n")
    code = main(["verify", "all", "--config", str(path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_check(capsys):
    code = main(["verify", "no-such-check"])
    assert code == 2
    assert "unknown check id" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("solve",), ("embed",), ("verify", "beta-pi"),
                                     ("basis", "build")])
@pytest.mark.parametrize("section,key,value", [("basis", "n_max", 129),
                                               ("basis", "k_max", 129),
                                               ("grid", "radial_order", 5000),
                                               ("grid", "radial_order", 1366),
                                               ("solver", "gamma", "nan"),
                                               ("solver", "picard_tol", "nan"),
                                               ("run", "seed", -3),
                                               ("data", "seed", -1),
                                               ("data", "width", -0.5),
                                               ("data", "amplitude", "nan"),
                                               ("data", "center", "nan, 0"),
                                               ("embed", "widths", "0.4, nan")])
def test_cli_refuses_out_of_range_sizes(tmp_path, capsys, command, section, key, value):
    path = tmp_path / "big.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    code = main([*command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"[{section}] {key}" in capsys.readouterr().err


def test_cli_refuses_experiment_key(tmp_path, capsys):
    # the subcommand picks the experiment; an INI that names one is refused
    # rather than silently overridden
    path = tmp_path / "run.ini"
    path.write_text("[run]\nexperiment = embed\n")
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "experiment" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_verify_embedding_reads_embed_section(tmp_path, capsys):
    path = tmp_path / "embed.ini"
    path.write_text("[embed]\np = 6\nwidths = 0.3, 0.15\n")
    code = main(["verify", "embedding", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    (row,) = json.loads((tmp_path / "out" / "summary.json").read_text())["checks"]
    assert row["passed"] and row["value"] != 1.7866934634167124
    # the L^6 spread against 0.75 * 2^(2/3), 3/4 of the scaling law's
    assert row["note"].startswith("L6 spread 1.604,")


def test_cli_refuses_a_single_embed_width(tmp_path, capsys):
    path = tmp_path / "embed.ini"
    path.write_text("[embed]\nwidths = 0.2, 0.2\n")
    assert main(["embed", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "[embed] widths" in capsys.readouterr().err


def test_cli_corrupted_cache_fails_gram(tmp_path, basis_1616, capsys):
    cache = tmp_path / "basis.json"
    save_basis(basis_1616, cache)
    doc = json.loads(cache.read_text())
    # denormalize one cos record: the transform scales are built from the
    # cos rows (sin shares them by symmetry), so this must break the Gram
    victim = next(m for m in doc["modes"] if m["n"] == 1 and m["parity"] == "cos")
    victim["stream_norm"] *= 1.5
    cache.write_text(json.dumps(doc))

    extra = f"""
[basis]
n_max = 16
k_max = 16
cache = {cache}
[verify]
checks = gram-orthonormality
"""
    path = tmp_path / "run.ini"
    path.write_text("[grid]\nradial_order = 128\nangular_count = 256\n" + extra)
    code = main(["verify", "all", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 4
    out = capsys.readouterr().out
    assert "gram-orthonormality: FAIL" in out
    assert "1 check(s) failed" in out
    rows = (tmp_path / "out" / "checks.csv").read_text().strip().splitlines()
    assert rows[1].startswith("gram-orthonormality,") and rows[1].endswith("FAIL")


_CACHED_RUN = """
[basis]
n_max = 4
k_max = 4
cache = {cache}
[grid]
radial_order = 32
angular_count = 64
[solver]
mesh_count = 4
[embed]
widths = 0.4, 0.2
"""


def _cache_run(tmp_path, command, cache, *target):
    path = tmp_path / "run.ini"
    path.write_text(_CACHED_RUN.format(cache=cache))
    return main([command, *target, "--config", str(path),
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["embed", "solve"])
def test_cli_reads_basis_cache(tmp_path, monkeypatch, capsys, command):
    cache = tmp_path / "basis.json"
    save_basis(stokesbesov.harness.build_basis(4, 4), cache)

    def no_build(*args):
        raise AssertionError("the run built its basis instead of reading the cache")

    monkeypatch.setattr(stokesbesov.harness, "build_basis", no_build)
    assert _cache_run(tmp_path, command, cache) == 0
    assert "written to" in capsys.readouterr().out


def _missing_cache(path):
    pass


def _garbled_cache(path):
    path.write_text("{not json")


def _foreign_cache(path):
    path.write_text(json.dumps({"format": "something-else/1", "modes": []}))


def _wrong_truncation_cache(path):
    save_basis(stokesbesov.harness.build_basis(2, 3), path)


@pytest.mark.parametrize("command", [("embed",), ("solve",), ("verify", "beta-pi")])
@pytest.mark.parametrize("make, reason", [
    (_missing_cache, "cannot load"),
    (_garbled_cache, "cannot load"),
    (_foreign_cache, "not a basis cache"),
    (_wrong_truncation_cache, "holds the (2, 3) truncation"),
])
def test_cli_refuses_bad_basis_cache(tmp_path, capsys, command, make, reason):
    cache = tmp_path / "basis.json"
    make(cache)
    assert _cache_run(tmp_path, command[0], cache, *command[1:]) == 2
    err = capsys.readouterr().err
    assert "config error: [basis] cache" in err and reason in err


def test_cli_basis_build_refuses_cache(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(f"[basis]\nn_max = 4\nk_max = 4\ncache = {tmp_path / 'basis.json'}\n")
    code = main(["basis", "build", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[basis] cache" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# formatting helpers

def test_fmt_floats():
    assert _fmt(0.1) == "0.1"
    assert _fmt(float(np.float64(1) / 3)) == repr(1 / 3)
    assert _fmt(math.inf) == "inf"
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(7) == "7"
    assert _fmt("pass") == "pass"


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1.0 / 3.0, math.inf], [0.1, -2]])
    lines = path.read_text().strip().splitlines()
    assert lines == ["a,b", f"{1.0 / 3.0!r},inf", "0.1,-2"]
    assert float(lines[1].split(",")[0]) == 1.0 / 3.0


def test_sanitize_nonfinite():
    doc = {"x": math.inf, "y": [1.0, math.nan], "z": {"w": -math.inf}, "k": 2.0}
    clean = _sanitize(doc)
    assert clean == {"x": None, "y": [1.0, None], "z": {"w": None}, "k": 2.0}
