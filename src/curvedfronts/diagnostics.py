"""Measurable checks of the front structure on simulated trajectories.

Turns the qualitative statements about curved fronts (sandwiching between
the barriers, monotonicity in time, interface localization M_eps, global
mean speed, weighted gap decay, stability under admissible perturbations)
into quantitative report sections over solver snapshots.  The mean speed
and the half-level check read the snapshots' own {u = 1/2} crossings along
the last axis, placed by the profile's inverse, away from the box edge and
the ridge, so a front that moves at the wrong speed or sits at the wrong
offset fails them, in any dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barriers import BarrierSet
from .front_geometry import (FrontConfiguration, _slab_weight, min_q,
                             ridge_distance, interface_distance,
                             spatial_ridge_distance, subsolution_lower)
from .nonlinearity import CombustionNonlinearity
from .rd_solver import (Grid, Field, SolverConfig, solve_cauchy, make_boundary,
                        subsolution_floor)
from .wave_profile import WaveProfile

__all__ = [
    "sandwich_and_monotonicity",
    "extract_interface_and_Meps",
    "half_level_cross_check",
    "mean_speed_estimate",
    "weighted_gap_report",
    "PerturbationSpec",
    "check_admissibility",
    "stability_run",
    "StabilityResult",
]

HALF_LEVEL_MARGIN = 5.0  # half-level points this close to the box edge are dropped
ADMISSIBLE_RATIO = 0.1  # largest admissible far-field perturbation / weight
M_EPS_LEVELS = (0.25, 0.1, 0.05, 0.02, 0.01)  # the eps of the M_eps table, largest first
GAP_BINS = 8  # ridge-distance bins of the weighted gap curve
GAP_PASS_LEVEL = 0.05  # farthest-bin sup the weighted gap must reach
STABILITY_GAP_TOL = 1e-2  # final sup |u - twin| a stable run must reach


def sandwich_and_monotonicity(trajectory, cfg: FrontConfiguration,
                              profile: WaveProfile,
                              barriers: BarrierSet | None = None) -> dict:
    """Barrier sandwich and time-monotonicity section.

    Reports max of (V_lower - u)+ and (u - V_upper)+ over all snapshots,
    the global min of the discrete du/dt, and the ridge-tube floors
    k_hat(rho) at rho = 2/c, 5/c and 10/c.
    """
    grid = trajectory[0].grid
    pts = grid.points().reshape(-1, grid.dimension)
    rho_list = [2.0 / cfg.speed, 5.0 / cfg.speed, 10.0 / cfg.speed]

    lower_viol = 0.0
    upper_viol = 0.0
    for snap in trajectory:
        lower = subsolution_lower(cfg, profile, snap.time, pts)
        lower_viol = max(lower_viol, float((lower - snap.values.reshape(-1)).max()))
        if barriers is not None:
            vbar = barriers.upper(np.full(pts.shape[0], snap.time), pts)
            upper_viol = max(upper_viol, float((snap.values.reshape(-1) - vbar).max()))

    dudt_min = np.inf
    tube_floor = {rho: np.inf for rho in rho_list}
    need_tube = cfg.n_waves >= 2
    if need_tube:
        db = ridge_distance(cfg, np.full(pts.shape[0], trajectory[0].time), pts)
    for a, b in zip(trajectory[:-1], trajectory[1:]):
        rate = (b.values - a.values) / (b.time - a.time)
        dudt_min = min(dudt_min, float(rate.min()))
        if need_tube:
            da, db = db, ridge_distance(cfg, np.full(pts.shape[0], b.time), pts)
            d = np.maximum(da, db).reshape(grid.counts)
            for rho in rho_list:
                inside = d <= rho
                if inside.any():
                    tube_floor[rho] = min(tube_floor[rho],
                                          float(rate[inside].min()))
    return {
        "lower_violation": lower_viol,
        "upper_violation": upper_viol,
        "dudt_min": dudt_min,
        "tube_floors": {f"{rho:.6g}": (v if np.isfinite(v) else None)
                        for rho, v in tube_floor.items()},
        "n_snapshots": len(trajectory),
    }


def extract_interface_and_Meps(fld: Field, cfg: FrontConfiguration) -> list:
    """M_eps table from the exact geometric interface min_i q_i = 0.

    For each eps of M_EPS_LEVELS, M_eps is the smallest radius such that
    every burned-side point at distance >= M_eps has u >= 1-eps and every
    unburned-side point at distance >= M_eps has u <= eps; an entry is
    censored when the radius reaches the box margin (the ball is uncovered).
    """
    grid = fld.grid
    pts = grid.points().reshape(-1, grid.dimension)
    dist = interface_distance(cfg, fld.time, pts)
    side = min_q(cfg, fld.time, pts)    # < 0 burned, > 0 unburned
    u = fld.values.reshape(-1)

    burned = side < 0
    unburned = side > 0
    margin_b = float(dist[burned].max()) if burned.any() else 0.0
    margin_u = float(dist[unburned].max()) if unburned.any() else 0.0

    out = []
    for eps in M_EPS_LEVELS:
        viol_b = burned & (u < 1.0 - eps)
        viol_u = unburned & (u > eps)
        m_b = float(dist[viol_b].max()) if viol_b.any() else 0.0
        m_u = float(dist[viol_u].max()) if viol_u.any() else 0.0
        # censored when the worst violator sits at that side's coverage edge
        censored = (viol_b.any() and m_b >= margin_b - grid.dx) or \
                   (viol_u.any() and m_u >= margin_u - grid.dx)
        out.append({"eps": float(eps), "m_eps": max(m_b, m_u),
                    "censored": bool(censored)})
    return out


def _half_level_points(fld: Field, cfg: FrontConfiguration, profile: WaveProfile,
                       exclude_ridge_radius: float | None) -> np.ndarray:
    """Crossings of u = 1/2 between neighbours on the last axis, at least
    HALF_LEVEL_MARGIN inside the box and, when a radius is given, farther
    than it from the time-t ridge.  Each sits where D = U^{-1}(u), taken
    linear between its two nodes, reaches U^{-1}(1/2): on a snapshot
    U(min_i q_i) that is exact wherever one facet holds both nodes."""
    g = fld.grid
    lo = np.array(g.origin) + HALF_LEVEL_MARGIN
    hi = np.array(g.origin) + g.dx * (np.array(g.counts) - 1) - HALF_LEVEL_MARGIN
    idx = np.nonzero((fld.values[..., :-1] - 0.5) * (fld.values[..., 1:] - 0.5) < 0)
    pts = np.array(g.origin) + g.dx * np.stack(idx, axis=-1)  # the lower nodes
    lead = np.all((pts[:, :-1] >= lo[:-1]) & (pts[:, :-1] <= hi[:-1]), axis=-1)
    pts, idx = pts[lead], tuple(i[lead] for i in idx)
    n = pts.shape[0]
    levels = np.concatenate([fld.values[idx], fld.values[idx[:-1] + (idx[-1] + 1,)], [0.5]])
    # inverse takes levels inside (0, 1) only; a node at 0 or 1 gets a finite D
    d = profile.inverse(np.clip(levels, np.finfo(float).tiny, np.nextafter(1.0, 0.0)))
    pts[:, -1] += g.dx * (d[-1] - d[:n]) / (d[n:-1] - d[:n])
    pts = pts[(pts[:, -1] >= lo[-1]) & (pts[:, -1] <= hi[-1])]
    if exclude_ridge_radius is not None and pts.shape[0]:
        pts = pts[spatial_ridge_distance(cfg, fld.time, pts) > exclude_ridge_radius]
    if pts.shape[0] == 0:
        raise ValueError(f"no half-level crossings at t = {fld.time:.6g} "
                         "left after exclusions")
    return pts


def half_level_cross_check(fld: Field, cfg: FrontConfiguration,
                           profile: WaveProfile,
                           exclude_ridge_radius: float | None = None) -> dict:
    """Discrepancy between the {u = 1/2} level set and the geometric one.

    The geometric interface is min q = 0; the half-level set sits at the
    profile's half-level offset U^{-1}(1/2) from it, so the comparison
    subtracts that offset before reporting the sup discrepancy.  Near the
    ridge the field genuinely bulges ahead of the polytope, so callers
    checking profile consistency exclude a ridge neighborhood.
    """
    pts = _half_level_points(fld, cfg, profile, exclude_ridge_radius)
    t = np.full(pts.shape[0], fld.time)
    level_q = min_q(cfg, t, pts)
    return {
        "n_points": int(pts.shape[0]),
        "median_offset": float(np.median(level_q)),
        "offset_spread": float(np.ptp(level_q)),
        "discrepancy": float(np.max(np.abs(level_q - profile.inverse(0.5)))),
    }


def mean_speed_estimate(trajectory, cfg: FrontConfiguration,
                        profile: WaveProfile,
                        exclude_ridge_radius: float | None) -> dict:
    """Global mean speed read off the {u = 1/2} sets of the snapshots.

    Each far half-level point (see half_level_cross_check) is given the
    facet i attaining min_i q_i; a snapshot's position is the median of
    z . e_i + tau_i over its points, which a front moving at normal speed
    gamma advances by gamma per unit time.  gamma_hat is the least-squares
    slope of the positions against the snapshot times, and fit_residual
    the largest distance of a position from that line.
    """
    if len(trajectory) < 2:
        raise ValueError(f"need at least 2 snapshots, got {len(trajectory)}")
    times = np.array([f.time for f in trajectory])
    positions, n_points = [], []
    for fld in trajectory:
        pts = _half_level_points(fld, cfg, profile, exclude_ridge_radius)
        # min_i (z . e_i + tau_i) is z . e_i + tau_i on the facet attaining min_i q_i
        positions.append(float(np.median(min_q(cfg, 0.0, pts))))
        n_points.append(int(pts.shape[0]))
    coeffs = np.polyfit(times, positions, 1)
    return {
        "gamma_hat": float(coeffs[0]),
        "fit_residual": float(np.max(np.abs(np.polyval(coeffs, times) - positions))),
        "times": times.tolist(),
        "positions": positions,
        "n_points": n_points,
    }


def weighted_gap_report(trajectory, cfg: FrontConfiguration,
                        profile: WaveProfile, v_rate: float) -> dict:
    """Sup of |u - V_lower| / weight in each of GAP_BINS ridge-distance bins.

    The weight is min{1, exp(-v * min_i q_i/sin theta_i)}, which is 1 on
    the burned side and decays ahead of the front; the curve must decay to
    GAP_PASS_LEVEL in the farthest bin for the transition-front gap bound.
    """
    cfg.require_ridges()
    grid = trajectory[0].grid
    pts = grid.points().reshape(-1, grid.dimension)

    all_d = []
    all_ratio = []
    for snap in trajectory:
        tvec = np.full(pts.shape[0], snap.time)
        weight = _slab_weight(cfg, snap.time, pts, v_rate)
        gap = np.abs(snap.values.reshape(-1) - subsolution_lower(cfg, profile, snap.time, pts))
        all_d.append(ridge_distance(cfg, tvec, pts))
        all_ratio.append(gap / weight)
    d = np.concatenate(all_d)
    ratio = np.concatenate(all_ratio)
    edges = np.linspace(0.0, d.max() * (1 + 1e-12), GAP_BINS + 1)
    curve = []
    for k in range(GAP_BINS):
        inside = (d >= edges[k]) & (d < edges[k + 1])
        curve.append(float(ratio[inside].max()) if inside.any() else 0.0)
    # nonincreasing up to a small relative wiggle: discretization drift puts
    # mid-range bins on a near-flat plateau
    decreasing = all(curve[k + 1] <= curve[k] * (1.0 + 1e-3) + 1e-15
                     for k in range(len(curve) - 1))
    return {
        "bin_edges": edges.tolist(),
        "curve": curve,
        "v_rate": v_rate,
        "farthest_bin_sup": curve[-1],
        "decreasing": decreasing,
        "passed": bool(decreasing and curve[-1] <= GAP_PASS_LEVEL),
    }


@dataclass(frozen=True)
class PerturbationSpec:
    """Bump added on top of the subsolution; height 0 leaves it unperturbed."""

    height: float = 0.0
    radius: float = 1.0
    center: tuple | None = None   # defaults to a point on the t=0 ridge

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("bump radius must be positive")


def _ridge_point(cfg: FrontConfiguration, t: float) -> np.ndarray:
    """A point on the spatial ridge at time t (least-squares corner)."""
    cfg.require_ridges()
    rhs = cfg.speed * t - cfg.shifts
    z, *_ = np.linalg.lstsq(cfg.directions, rhs, rcond=None)
    return z


def perturbation_values(spec: PerturbationSpec, cfg: FrontConfiguration,
                        grid: Grid) -> np.ndarray:
    center = np.asarray(spec.center, dtype=float) if spec.center is not None \
        else _ridge_point(cfg, 0.0)
    pts = grid.points()
    r = np.sqrt(((pts - center) ** 2).sum(axis=-1)) / spec.radius
    out = np.zeros(grid.counts)
    inside = r < 1.0
    out[inside] = spec.height * np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def check_admissibility(u0: np.ndarray, cfg: FrontConfiguration,
                        vlow: np.ndarray, grid: Grid, v_rate: float,
                        rho0: float) -> dict:
    """Initial-data admissibility against the t = 0 subsolution values vlow:
    above them, inside [0,1], and perturbation / weight at most
    ADMISSIBLE_RATIO on every cell beyond ridge distance rho0."""
    below = float((vlow - u0).max())
    out_of_range = float(max(-u0.min(), u0.max() - 1.0))

    pts = grid.points().reshape(-1, grid.dimension)
    far = ridge_distance(cfg, np.zeros(pts.shape[0]), pts) > rho0
    pert = (u0 - vlow).reshape(-1)[far]
    weight = _slab_weight(cfg, 0.0, pts[far], v_rate)
    worst_ratio = float((pert / weight).max()) if pert.size else 0.0

    ok = below <= 1e-12 and out_of_range <= 1e-12 and worst_ratio <= ADMISSIBLE_RATIO
    return {
        "ok": bool(ok),
        "below_subsolution": below,
        "out_of_range": out_of_range,
        "worst_far_ratio": worst_ratio,
        "rho0": rho0,
        "n_far_cells": int(pert.size),
    }


@dataclass
class StabilityResult:
    """Decay curve of one perturbation.

    report holds, in order: final_gap, eventually_decreasing,
    admissibility, domination_min (min over snapshots of min(W - u)),
    envelope_ok, envelope_slack_min (the three None without barriers),
    passed, gap_tol, t_end, initial_gap, v_rate and rho0.
    """

    times: np.ndarray
    curve: np.ndarray                 # sup |u - twin| per snapshot
    report: dict


def stability_run(cfg: FrontConfiguration, profile: WaveProfile,
                  nl: CombustionNonlinearity, grid: Grid,
                  config: SolverConfig, perturbation: PerturbationSpec,
                  t_end: float, snapshot_dt: float,
                  barriers: BarrierSet | None = None,
                  rho0: float | None = None) -> StabilityResult:
    """Perturbation decay against the unperturbed twin trajectory.

    The comparison target is the twin run from the same subsolution start:
    the discrete Cauchy iterates approach the entire solution so slowly
    near the ridge that a deeper-started reference would contaminate the
    curve with iteration non-convergence; the twin isolates exactly the
    fate of the perturbation, which is what the stability statement is
    about.  With barriers given, the shifted supersolution is checked to
    dominate the perturbed run at every snapshot and the envelope bound
    is evaluated.
    """
    v_rate = barriers.params.v_star if barriers is not None and \
        barriers.params.v_star is not None else 1e-4
    if rho0 is None:
        rho0 = perturbation.radius

    floor = subsolution_floor(cfg, profile, grid)
    pert = perturbation_values(perturbation, cfg, grid)
    vlow0 = floor(0.0)
    # cap inside [V_lower, 1]; the stated bound is min{1 - V_lower, ...}
    pert = np.minimum(pert, 1.0 - vlow0)
    u0 = vlow0 + pert

    adm = check_admissibility(u0, cfg, vlow0, grid, v_rate, rho0)
    if not adm["ok"]:
        raise ValueError(f"inadmissible perturbation: {adm}")

    boundary = make_boundary(cfg, profile)
    twin = solve_cauchy(Field(grid, vlow0, 0.0), nl, boundary, config, t_end,
                        snapshot_dt=snapshot_dt, floor=floor)
    pert_run = solve_cauchy(Field(grid, u0, 0.0), nl, boundary, config, t_end,
                            snapshot_dt=snapshot_dt, floor=floor)

    times = np.array([s.time for s in twin])
    curve = np.array([float(np.max(np.abs(a.values - b.values)))
                      for a, b in zip(pert_run, twin)])
    final_gap = float(curve[-1])
    peak = int(np.argmax(curve))
    slack = 1e-9 * max(1.0, float(curve[peak]))
    eventually_decreasing = bool(
        peak < len(curve) - 1 and np.all(np.diff(curve[peak:]) <= slack))
    report = {
        "final_gap": final_gap,
        "eventually_decreasing": eventually_decreasing,
        "admissibility": adm,
        "domination_min": None,
        "envelope_ok": None,
        "envelope_slack_min": None,
        "passed": bool(final_gap <= STABILITY_GAP_TOL and eventually_decreasing),
        "gap_tol": STABILITY_GAP_TOL,
        "t_end": t_end,
        "initial_gap": float(curve[0]),
        "v_rate": v_rate,
        "rho0": rho0,
    }
    if barriers is not None:
        pts = grid.points().reshape(-1, grid.dimension)
        dom = np.inf
        slack = np.inf
        p = barriers.params
        dvhat_sup = 0.0
        for k in range(len(times) - 1):
            dvhat_sup = max(dvhat_sup, float(np.max(np.abs(
                twin[k + 1].values - twin[k].values)) / (times[k + 1] - times[k])))
        for k, (snap, tw) in enumerate(zip(pert_run, twin)):
            tvec = np.full(pts.shape[0], snap.time)
            w = barriers.time_upper(tvec, pts)
            dom = min(dom, float((w - snap.values.reshape(-1)).min()))
            vbar_shift = barriers.upper(
                np.full(pts.shape[0], barriers.shift_time(snap.time)), pts)
            envelope = (p.delta * np.exp(-p.lam * snap.time)
                        + float(np.max(np.abs(vbar_shift - tw.values.reshape(-1))))
                        + p.varrho * p.delta * dvhat_sup)
            slack = min(slack, envelope - curve[k])
        report.update(domination_min=float(dom), envelope_ok=bool(slack >= 0.0),
                      envelope_slack_min=float(slack))
    return StabilityResult(times=times, curve=curve, report=report)

