"""Front diagnostics: interface extraction and M_eps, mean-speed estimation,
weighted gap decay, sandwich checks, and the perturbation stability driver."""

import math

import numpy as np
import pytest

from curvedfronts import (
    Field,
    FrontConfiguration,
    Grid,
    PerturbationSpec,
    SolverConfig,
    check_admissibility,
    entire_solution,
    extract_interface_and_Meps,
    half_level_cross_check,
    mean_speed_estimate,
    min_q,
    ridge_distance,
    sandwich_and_monotonicity,
    stability_run,
    subsolution_lower,
    subsolution_floor,
    symmetric_v,
    weighted_gap_report,
)
from curvedfronts import rd_solver
from curvedfronts.diagnostics import ADMISSIBLE_RATIO, _half_level_points, perturbation_values


def planar_cfg(speed):
    return FrontConfiguration(2, np.array([[1.0]]), np.array([math.pi / 2]), np.zeros(1), speed)


def exact_field(cfg, profile, grid, t=0.0):
    vals = profile(min_q(cfg, t, grid.points().reshape(-1, grid.dimension)))
    return Field(grid, vals.reshape(grid.counts), t)


@pytest.fixture(scope="module")
def grid96():
    return Grid((96, 96), 0.5, (-24.0, -24.0))


def test_meps_planar_matches_profile_levels(profile03, grid96):
    # for the exact planar wave, M_eps is the widest profile level set,
    # recovered to within one grid spacing
    cfg = planar_cfg(profile03.speed)
    rows = extract_interface_and_Meps(exact_field(cfg, profile03, grid96), cfg)
    for row in rows:
        eps = row["eps"]
        expected = max(abs(profile03.inverse(1.0 - eps)), profile03.inverse(eps))
        assert not row["censored"]
        assert abs(row["m_eps"] - expected) <= grid96.dx


def test_meps_monotone_in_eps(profile03, grid96):
    cfg = planar_cfg(profile03.speed)
    rows = extract_interface_and_Meps(exact_field(cfg, profile03, grid96), cfg)
    vals = [row["m_eps"] for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_meps_indicator_is_zero(profile03, grid96):
    cfg = planar_cfg(profile03.speed)
    q = min_q(cfg, 0.0, grid96.points().reshape(-1, 2))
    ind = Field(grid96, (q < 0).astype(float).reshape(grid96.counts), 0.0)
    rows = extract_interface_and_Meps(ind, cfg)
    assert all(row["m_eps"] == 0.0 for row in rows)


def test_meps_censored_on_tiny_box(cfg_v, profile03):
    tiny = Grid((16, 16), 0.5, (-4.0, -4.0))
    rows = extract_interface_and_Meps(exact_field(cfg_v, profile03, tiny), cfg_v)
    assert rows[-1]["eps"] == 0.01
    assert rows[-1]["censored"]


def _exact_trajectory(cfg, profile, grid):
    return [exact_field(cfg, profile, grid, k / cfg.speed) for k in range(5)]


def test_mean_speed_of_exact_trajectory(cfg_v, profile03, grid96):
    # the half-level sets of U(min_i q_i) move at c
    c = profile03.speed
    ms = mean_speed_estimate(_exact_trajectory(cfg_v, profile03, grid96), cfg_v, profile03, 5.0)
    assert abs(ms["gamma_hat"] - c) / c <= 1e-4
    assert ms["times"] == [k / c for k in range(5)]
    assert len(ms["positions"]) == 5 and min(ms["n_points"]) > 0


def test_mean_speed_reads_the_snapshot_times(cfg_v, profile03, grid96):
    # the same fields stamped 5% later move 5% slower, beyond verify's 2% rule
    c = profile03.speed
    late = [Field(f.grid, f.values, 1.05 * f.time)
            for f in _exact_trajectory(cfg_v, profile03, grid96)]
    ms = mean_speed_estimate(late, cfg_v, profile03, 5.0)
    assert abs(ms["gamma_hat"] - c) / c > 0.02


def test_mean_speed_input_validation(cfg_v, profile03, grid96):
    traj = _exact_trajectory(cfg_v, profile03, grid96)
    with pytest.raises(ValueError, match="at least 2 snapshots"):
        mean_speed_estimate(traj[:1], cfg_v, profile03, 5.0)
    with pytest.raises(ValueError, match="no half-level crossings"):
        mean_speed_estimate(traj, cfg_v, profile03, 100.0)  # no point that far from the ridge


@pytest.mark.parametrize("front", ["planar", "v", "pyramid"])
def test_half_level_positions_are_exact_on_exact_snapshots(front, cfg_v, profile03, grid96):
    # u = U(min_i q_i) with q linear along the last axis between nodes of one
    # facet: D = U^{-1}(u) is linear there, so each crossing is exact wherever
    # the front sits in its cell (t = 0, 4, 8, 12 are not whole cells), in 2D
    # and 3D alike
    c = profile03.speed
    pyramid = FrontConfiguration(3, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                                 np.full(4, math.pi / 3), np.zeros(4), c)
    cfg, grid, radius = {
        "planar": (planar_cfg(c), grid96, None),
        "v": (cfg_v, grid96, 5.0),
        "pyramid": (pyramid, Grid((40, 40, 40), 0.5, (-10.0, -10.0, -10.0)), 2.0),
    }[front]
    traj = [exact_field(cfg, profile03, grid, t) for t in (0.0, 4.0, 8.0, 12.0)]
    ms = mean_speed_estimate(traj, cfg, profile03, radius)
    assert abs(ms["gamma_hat"] - c) <= 1e-12
    assert min(ms["n_points"]) >= 50
    for fld in traj:
        assert half_level_cross_check(fld, cfg, profile03, radius)["discrepancy"] <= 1e-12


def test_half_level_points_of_a_step_field_are_finite(profile03, grid96):
    # nodes at exactly 0 and 1 are clipped into (0, 1) before inverting: each
    # crossing stays finite and between its two nodes
    cfg = planar_cfg(profile03.speed)
    y = grid96.axis(1)
    step = Field(grid96, np.broadcast_to((y < 0.25).astype(float), grid96.counts), 0.0)
    pts = _half_level_points(step, cfg, profile03, None)
    assert pts.shape == (76, 2) and np.all(np.isfinite(pts))
    assert np.all((pts[:, 1] > 0.0) & (pts[:, 1] < 0.5))
    out = half_level_cross_check(step, cfg, profile03)
    assert all(math.isfinite(out[key]) for key in ("median_offset", "discrepancy"))


def test_half_level_cross_check_planar(profile03, grid96):
    cfg = planar_cfg(profile03.speed)
    out = half_level_cross_check(exact_field(cfg, profile03, grid96), cfg, profile=profile03)
    assert out["n_points"] > 0
    assert out["discrepancy"] <= 2 * grid96.dx
    assert out["median_offset"] == pytest.approx(profile03.inverse(0.5), abs=0.01)


def test_weighted_gap_zero_for_exact_lower(cfg_v, profile03, params03):
    g = Grid((64, 64), 1.0, (-32.0, -20.0))
    pts = g.points().reshape(-1, 2)
    traj = [
        Field(g, subsolution_lower(cfg_v, profile03, t, pts).reshape(64, 64), t)
        for t in np.linspace(0.0, 8.0, 5)
    ]
    rep = weighted_gap_report(traj, cfg_v, profile03, params03.v_star)
    assert rep["passed"]
    assert all(v == 0.0 for v in rep["curve"])


def test_weighted_gap_upper_barrier_far_bins(cfg_v, profile03, params03, barriers03):
    # (upper - lower) over the weight must fall below C* eps once the
    # smoothing scale 1/alpha is cleared; needs a wide coarse grid
    g = Grid((160, 120), 4.0, (-320.0, -140.0))
    pts = g.points().reshape(-1, 2)
    traj = [
        Field(g, barriers03.upper(t, pts).reshape(160, 120), t)
        for t in np.linspace(0.0, 8.0, 5)
    ]
    rep = weighted_gap_report(traj, cfg_v, profile03, params03.v_star)
    assert rep["passed"]
    curve = rep["curve"]
    assert all(b <= a * (1 + 1e-3) + 1e-15 for a, b in zip(curve, curve[1:]))
    cap = 1.8278553487973894 * params03.epsilon
    assert curve[-1] <= cap
    assert curve[-2] <= cap


def test_sandwich_on_monotone_run(cfg_v, profile03, nl03, barriers03):
    c = profile03.speed
    g = Grid((64, 64), 0.5, (-16.0, -20.0))
    sc = SolverConfig()
    res = entire_solution(
        cfg_v, profile03, nl03, g, sc,
        n_list=[2.0 / c, 4.0 / c], window_end=1.0 / c, snapshot_dt=0.5 / c,
    )
    out = sandwich_and_monotonicity(res.v_hat, cfg_v, profile03, barriers=barriers03)
    assert out["lower_violation"] <= 1e-8
    assert out["upper_violation"] <= 1e-8
    assert out["dudt_min"] >= -1e-12
    assert out["n_snapshots"] == len(res.v_hat)
    floors = out["tube_floors"]
    assert len(floors) == 3
    assert all(v > 0.0 for v in floors.values())
    # deeper tubes sit farther into the tails, so their floors are smaller
    vals = [floors[k] for k in sorted(floors, key=float)]
    assert vals[0] > vals[1] > vals[2]


def test_perturbation_values_bump(cfg_v, grid96):
    spec = PerturbationSpec(height=0.0125, radius=10.0)
    pv = perturbation_values(spec, cfg_v, grid96)
    assert pv.max() == pytest.approx(0.0125, rel=1e-12)
    assert np.all(pv >= 0.0)
    assert 0.0 < np.mean(pv > 0.0) < 1.0
    flat = perturbation_values(PerturbationSpec(height=0.0, radius=1.0), cfg_v, grid96)
    assert not flat.any()


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(height=0.1, radius=-2.0)


def test_admissibility_flags(cfg_v, profile03, params03, grid96):
    pts = grid96.points().reshape(-1, 2)
    u0 = subsolution_lower(cfg_v, profile03, 0.0, pts).reshape(grid96.counts)
    vlow = subsolution_floor(cfg_v, profile03, grid96)(0.0)
    good = check_admissibility(u0, cfg_v, vlow, grid96, params03.v_star, rho0=10.0)
    assert good["ok"]
    below = check_admissibility(u0 - 0.01, cfg_v, vlow, grid96, params03.v_star, rho0=10.0)
    assert not below["ok"]
    assert below["below_subsolution"] >= 0.01 - 1e-12
    over = check_admissibility(np.minimum(u0 + 2.0, 3.0), cfg_v, vlow, grid96, params03.v_star, rho0=10.0)
    assert not over["ok"]
    assert over["out_of_range"] > 1e-12


def test_admissibility_checks_every_far_cell(cfg_v, profile03, params03, grid96):
    # one cell ahead of the front and 18 from the ridge, lifted by 0.2: its
    # perturbation / weight is about 0.2, and a 1000-cell subsample of the
    # far cells drawn with default_rng(0) would miss it
    vlow = subsolution_floor(cfg_v, profile03, grid96)(0.0)
    u0 = vlow.copy()
    u0[47, 86] += 0.2
    rep = check_admissibility(u0, cfg_v, vlow, grid96, params03.v_star, rho0=3.0)
    # two cells lie within 1e-15 of rho0, so the count follows c_f's last bits
    pts = grid96.points().reshape(-1, 2)
    assert rep["n_far_cells"] == np.count_nonzero(
        ridge_distance(cfg_v, np.zeros(pts.shape[0]), pts) > 3.0)
    assert rep["worst_far_ratio"] == pytest.approx(0.2, rel=1e-2)
    assert rep["worst_far_ratio"] > ADMISSIBLE_RATIO
    assert not rep["ok"]


def test_stability_zero_perturbation_is_exact(cfg_v, profile03, nl03, barriers03):
    c = profile03.speed
    g = Grid((96, 96), 0.5, (-24.0, -28.0))
    sc = SolverConfig()
    spec = PerturbationSpec(height=0.0, radius=1.0)
    res = stability_run(cfg_v, profile03, nl03, g, sc, spec, t_end=4.0 / c,
                        snapshot_dt=1.0 / c, barriers=barriers03)
    # twin and perturbed runs are the same deterministic computation
    assert np.all(np.asarray(res.curve) == 0.0)
    assert res.report["passed"]


def check_stability_bump_decays(cfg_v, profile03, nl03, barriers03, final_gap):
    c = profile03.speed
    g = Grid((96, 96), 0.5, (-24.0, -28.0))
    sc = SolverConfig()
    spec = PerturbationSpec(height=nl03.gamma_star / 2, radius=3.0 / c)
    res = stability_run(cfg_v, profile03, nl03, g, sc, spec, t_end=12.0 / c,
                        snapshot_dt=2.0 / c, barriers=barriers03)
    rep = res.report
    assert rep["passed"]
    assert res.curve[0] == pytest.approx(nl03.gamma_star / 2, rel=1e-12)
    # transient amplification through the reaction zone, then decay
    assert rep["final_gap"] == pytest.approx(final_gap, rel=1e-6)
    assert rep["eventually_decreasing"]
    assert rep["final_gap"] < res.curve[0]
    assert rep["domination_min"] >= -1e-9
    assert rep["envelope_ok"]
    assert rep["admissibility"]["ok"]


def test_stability_bump_decays(cfg_v, profile03, nl03, barriers03, monkeypatch):
    # the floor refreshed at every step, as before it was held
    monkeypatch.setattr(rd_solver, "HOLD_STEPS", 1)
    check_stability_bump_decays(cfg_v, profile03, nl03, barriers03, 6.076277300890887e-3)


def test_stability_bump_decays_with_held_floor(cfg_v, profile03, nl03, barriers03):
    # the floor held for HOLD_STEPS steps: the final gap rises by 0.4%
    check_stability_bump_decays(cfg_v, profile03, nl03, barriers03, 6.100293029981496e-3)


def test_stability_rejects_far_field_perturbation(cfg_v, profile03, nl03, barriers03):
    # mass parked far from the front violates the weighted smallness bound
    c = profile03.speed
    g = Grid((96, 96), 0.5, (-24.0, -28.0))
    sc = SolverConfig()
    far = PerturbationSpec(height=0.4, radius=5.0, center=(10.0, 12.0))
    with pytest.raises(ValueError, match="inadmissible"):
        stability_run(cfg_v, profile03, nl03, g, sc, far, t_end=1.0 / c,
                      snapshot_dt=1.0 / c, barriers=barriers03, rho0=5.0)

