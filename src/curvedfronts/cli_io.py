"""Batch front-end: run configs, snapshot persistence, and subcommands.

Each subcommand maps onto one verifiable capability (profile shooting,
surface construction, barrier certification, Cauchy simulation, the
entire-solution iteration, the diagnostics suite, 1D speed measurement,
and perturbation stability).  Runs land in a directory named by config
hash + timestamp with a checksummed manifest, so sweeps stay collision
free and reproducible.

Exit codes: 0 all PASS criteria of the subcommand hold; 2 invalid config
(field-level messages on stderr); 3 numerical failure (diagnostics path
on stderr).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import struct
import sys
from dataclasses import replace

import numpy as np

from .barriers import (BarrierParams, BarrierSampleSpec, BarrierSet,
                       auto_parameters, validate_parameters)
from .diagnostics import (DiagnosticsReport, PerturbationSpec,
                          extract_interface_and_Meps, half_level_cross_check,
                          mean_speed_estimate, sandwich_and_monotonicity,
                          stability_run, weighted_gap_report)
from .front_geometry import FrontConfiguration, min_q
from .hypersurface import ScaledSurface, fit_surface_constants
from .jsonio import dumps
from .nonlinearity import CombustionNonlinearity, make_combustion
from .rd_solver import (Field, Grid, SolverConfig, entire_solution,
                        make_boundary, measure_speed_1d, solve_cauchy,
                        subsolution_floor)
from .wave_profile import build_profile, find_wave_speed, ode_residual_sup

__all__ = [
    "ConfigError",
    "load_config",
    "build_objects",
    "write_snapshot",
    "read_snapshot",
    "snapshot_roundtrip",
    "run",
    "main",
]

SNAPSHOT_MAGIC = b"CFLB1"
SNAPSHOT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SUBCOMMANDS = ("profile", "surface", "barriers-validate", "simulate",
               "entire", "verify", "speed", "stability")


class ConfigError(Exception):
    """Invalid run configuration; carries field-level messages."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# -- snapshot format ---------------------------------------------------------


def write_snapshot(path, fld: Field) -> None:
    """Binary snapshot: header (magic, version u32, N u32, counts u64 per
    axis, dx f64, t f64) then row-major f64 values, little-endian."""
    g = fld.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", SNAPSHOT_VERSION, g.dimension))
        fh.write(struct.pack(f"<{g.dimension}Q", *g.counts))
        fh.write(struct.pack("<dd", g.dx, fld.time))
        fh.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def read_snapshot(path, origin=None) -> Field:
    """Read a CFLB1 snapshot; origin is carried by the run config, not the
    binary format, and defaults to zeros."""
    with open(path, "rb") as fh:
        raw = fh.read()

    def take(n, what):
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"truncated snapshot file: {what} missing in {path}")
        out = raw[off:off + n]
        off += n
        return out

    off = 0
    magic = take(len(SNAPSHOT_MAGIC), "magic")
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(
            f"bad snapshot magic {magic!r}, expected {SNAPSHOT_MAGIC.decode()} in {path}")
    version, ndim = struct.unpack("<II", take(8, "version/dimension"))
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported CFLB1 version {version} in {path}")
    counts = struct.unpack(f"<{ndim}Q", take(8 * ndim, "axis counts"))
    dx, t = struct.unpack("<dd", take(16, "dx/time"))
    n_vals = int(np.prod(counts))
    payload = take(8 * n_vals, "values")
    if off != len(raw):
        raise ValueError(f"trailing bytes after snapshot payload in {path}")
    values = np.frombuffer(payload, dtype="<f8").reshape(counts)
    if origin is None:
        origin = tuple(0.0 for _ in counts)
    return Field(Grid(tuple(int(c) for c in counts), dx, tuple(origin)),
                 values.astype(float), t)


def snapshot_roundtrip(fld: Field, path) -> Field:
    write_snapshot(path, fld)
    return read_snapshot(path, origin=fld.grid.origin)


def write_slice_csv(path, fld: Field, axis: int = 0) -> None:
    """1D slice through the box center along the given axis."""
    g = fld.grid
    idx = [c // 2 for c in g.counts]
    coords = g.axis(axis)
    sl = [slice(None) if k == axis else idx[k] for k in range(g.dimension)]
    vals = fld.values[tuple(sl)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coordinate", "u"])
        for x, u in zip(coords, vals):
            writer.writerow([repr(float(x)), repr(float(u))])


# -- config parsing ----------------------------------------------------------


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    return cfg


def _need(block: dict, field: str, where: str, errors: list, types=(int, float)):
    if field not in block:
        errors.append(f"{where}.{field}: required")
        return None
    val = block[field]
    if types and not isinstance(val, types):
        errors.append(f"{where}.{field}: expected {types}, got {type(val).__name__}")
        return None
    return val


def parse_nonlinearity(cfg: dict, errors: list) -> CombustionNonlinearity | None:
    block = cfg.get("nonlinearity")
    if block is None:
        errors.append("nonlinearity: required block")
        return None
    theta = _need(block, "theta", "nonlinearity", errors)
    a = _need(block, "a", "nonlinearity", errors)
    p = _need(block, "p", "nonlinearity", errors)
    sigma = _need(block, "sigma", "nonlinearity", errors)
    if None in (theta, a, p, sigma):
        return None
    try:
        return make_combustion(theta=theta, amplitude=a, exponent=p, sigma=sigma)
    except ValueError as e:
        errors.append(f"nonlinearity: {e}")
        return None


def parse_front(cfg: dict, speed: float, errors: list) -> FrontConfiguration | None:
    block = cfg.get("front")
    if block is None:
        errors.append("front: required block")
        return None
    dim = _need(block, "N", "front", errors, types=(int,))
    waves = block.get("waves")
    if not isinstance(waves, list) or not waves:
        errors.append("front.waves: required nonempty list of (nu, theta, tau)")
        return None
    nus, angles, shifts = [], [], []
    for k, w in enumerate(waves):
        if not isinstance(w, dict):
            errors.append(f"front.waves[{k}]: expected object")
            return None
        nu = w.get("nu")
        th = _need(w, "theta", f"front.waves[{k}]", errors)
        tau = _need(w, "tau", f"front.waves[{k}]", errors)
        if not isinstance(nu, list):
            errors.append(f"front.waves[{k}].nu: expected list of floats")
            return None
        if None in (th, tau):
            return None
        nus.append(nu)
        angles.append(th)
        shifts.append(tau)
    if dim is None:
        return None
    try:
        return FrontConfiguration(dimension=dim, nus=np.asarray(nus, dtype=float),
                                  angles=np.asarray(angles, dtype=float),
                                  shifts=np.asarray(shifts, dtype=float),
                                  speed=speed)
    except ValueError as e:
        errors.append(f"front: {e}")
        return None


def parse_barriers(cfg: dict, front, profile, nl, errors: list):
    block = cfg.get("barrier")
    if block is None:
        return None
    if block == "auto":
        return "auto"
    if not isinstance(block, dict):
        errors.append('barrier: expected "auto" or an object')
        return None
    eps = _need(block, "epsilon", "barrier", errors)
    alpha = _need(block, "alpha", "barrier", errors)
    beta = _need(block, "beta", "barrier", errors)
    delta = _need(block, "delta", "barrier", errors)
    lam = _need(block, "lambda", "barrier", errors)
    varrho = _need(block, "varrho", "barrier", errors)
    if None in (eps, alpha, beta, delta, lam, varrho):
        return None
    try:
        return BarrierParams(epsilon=eps, alpha=alpha, beta=beta, delta=delta,
                             lam=lam, varrho=varrho)
    except ValueError as e:
        errors.append(f"barrier: {e}")
        return None


def parse_solver(cfg: dict, errors: list):
    block = cfg.get("solver")
    if block is None:
        errors.append("solver: required block")
        return None
    dx = _need(block, "dx", "solver", errors)
    scheme = block.get("scheme", "euler")
    if scheme not in ("euler", "rk2"):
        errors.append(f'solver.scheme: must be "euler" or "rk2", got {scheme!r}')
    dt = block.get("dt", "cfl")
    if dt != "cfl" and not isinstance(dt, (int, float)):
        errors.append('solver.dt: must be a number or "cfl"')
        dt = None
    box = block.get("box")
    grid = None
    if not isinstance(box, dict):
        errors.append("solver.box: required object with counts and origin")
    elif dx is not None:
        counts = box.get("counts")
        origin = box.get("origin")
        if not isinstance(counts, list) or not isinstance(origin, list):
            errors.append("solver.box: counts and origin must be lists")
        else:
            try:
                grid = Grid(tuple(int(c) for c in counts), float(dx),
                            tuple(float(o) for o in origin))
            except (TypeError, ValueError) as e:
                errors.append(f"solver.box: {e}")
    t_end = _need(block, "T", "solver", errors)
    snap = _need(block, "snapshot_interval", "solver", errors)
    if t_end is not None and t_end <= 0:
        errors.append("solver.T: must be positive")
    if snap is not None and snap <= 0:
        errors.append("solver.snapshot_interval: must be positive")
    if errors:
        return None
    config = SolverConfig(dt=None if dt == "cfl" else float(dt),
                          scheme=scheme,
                          cfl_safety=float(block.get("cfl_safety", 0.4)))
    return grid, config, float(t_end), float(snap)


_REQUIRED_BLOCKS = {
    "profile": ("nonlinearity",),
    "speed": ("nonlinearity",),
    "surface": ("nonlinearity", "front"),
    "barriers-validate": ("nonlinearity", "front", "barrier"),
    "simulate": ("nonlinearity", "front", "solver"),
    "entire": ("nonlinearity", "front", "solver"),
    "verify": ("nonlinearity", "front", "solver"),
    "stability": ("nonlinearity", "front", "solver"),
}


def build_objects(cfg: dict, subcommand: str) -> dict:
    """Validate the config against module invariants and construct objects.

    Only the blocks the subcommand needs are required; everything present
    is validated.  Raises ConfigError with all field-level messages.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"subcommand: unknown {subcommand!r}")
    errors: list = []
    needed = _REQUIRED_BLOCKS[subcommand]
    out: dict = {"experiment": cfg.get("experiment", {})}
    if not isinstance(out["experiment"], dict):
        errors.append("experiment: expected object")
        out["experiment"] = {}

    nl = None
    if "nonlinearity" in needed or "nonlinearity" in cfg:
        nl = parse_nonlinearity(cfg, errors)
        out["nl"] = nl

    profile = None
    front = None
    if nl is not None and ("front" in needed or "front" in cfg):
        profile = build_profile(nl)
        front = parse_front(cfg, profile.speed, errors)
        out["profile"] = profile
        out["front"] = front

    if nl is not None and ("barrier" in needed or "barrier" in cfg):
        if "barrier" not in cfg and "barrier" in needed:
            errors.append("barrier: required block")
        else:
            out["barrier"] = parse_barriers(cfg, front, profile, nl, errors)

    if "solver" in needed or "solver" in cfg:
        solver = parse_solver(cfg, errors)
        if solver is not None:
            out["grid"], out["solver_config"], out["t_end"], out["snapshot_dt"] = solver

    if errors:
        raise ConfigError(errors)
    return out


# -- run directory and manifest ----------------------------------------------


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return _sha256_bytes(canonical.encode())[:12]


def make_run_dir(out_dir, cfg: dict) -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = os.path.join(out_dir, f"{config_hash(cfg)}-{stamp}")
    os.makedirs(path, exist_ok=False)
    return path


def write_manifest(run_dir, cfg: dict, subcommand: str, passed: bool,
                   seed: int, threads: int) -> str:
    artifacts = {}
    for name in sorted(os.listdir(run_dir)):
        if name == "manifest.json":
            continue
        full = os.path.join(run_dir, name)
        if os.path.isfile(full):
            artifacts[name] = _sha256_file(full)
    manifest = {
        "subcommand": subcommand,
        "config_sha256": _sha256_bytes(
            json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()),
        "seed": seed,
        "threads": threads,
        "passed": passed,
        "artifacts": artifacts,
    }
    path = os.path.join(run_dir, "manifest.json")
    with open(path, "w") as fh:
        fh.write(dumps(manifest, indent=2, sort_keys=True))
    return path


def verify_manifest(run_dir) -> bool:
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    for name, digest in manifest["artifacts"].items():
        if _sha256_file(os.path.join(run_dir, name)) != digest:
            return False
    return True


def _write_json(run_dir, name, payload) -> str:
    path = os.path.join(run_dir, name)
    with open(path, "w") as fh:
        fh.write(payload if isinstance(payload, str) else dumps(payload, indent=2))
    return path


# -- subcommand bodies ---------------------------------------------------------


def _cmd_profile(objs, run_dir, seed, threads):
    nl = objs["nl"]
    profile = build_profile(nl)
    resid = ode_residual_sup(profile, nl)
    path = os.path.join(run_dir, "profile.csv")
    with open(path, "w", newline="") as fh:
        fh.write(f"# c_f={profile.speed!r} beta0={profile.beta0!r} "
                 f"tail=theta*exp(-c_f*D) on D>=0\n")
        writer = csv.writer(fh)
        writer.writerow(["D", "U"])
        for d, u in zip(profile.grid, profile.values):
            writer.writerow([repr(float(d)), repr(float(u))])
    summary = {
        "c_f": profile.speed,
        "beta0": profile.beta0,
        "ode_residual_sup": resid,
        "passed": bool(resid <= 1e-6),
    }
    _write_json(run_dir, "profile.json", summary)
    return summary["passed"], "profile.json"


def _cmd_surface(objs, run_dir, seed, threads):
    front = objs["front"]
    front.require_ridges()
    alpha = objs["experiment"].get("alpha", 1.0)
    surface = ScaledSurface(front, alpha)
    fit = fit_surface_constants(ScaledSurface(front, 1.0))
    rng = np.random.default_rng(seed)
    n = int(objs["experiment"].get("n_samples", 20000))
    t = rng.uniform(-10.0, 10.0, n)
    x = rng.uniform(-40.0, 40.0, (n, front.dimension - 1))
    phi = surface.solve_phi(alpha * t, alpha * x)
    psi = surface.psi(alpha * t, alpha * x)
    h = surface.flatness(alpha * t, alpha * x, phi=phi)
    resid = np.abs(surface.residual(alpha * t, alpha * x, phi))
    gap = phi - psi
    path = os.path.join(run_dir, "surface.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{k}" for k in range(front.dimension - 1)]
                        + ["phi", "h", "phi_minus_psi"])
        for k in range(min(n, 2000)):
            writer.writerow([repr(float(t[k]))]
                            + [repr(float(v)) for v in np.atleast_1d(x[k])]
                            + [repr(float(phi[k] / alpha)), repr(float(h[k])),
                               repr(float(gap[k] / alpha))])
    summary = {
        "alpha": alpha,
        "c_hat": fit.c_hat,
        "c1_hat": fit.c1_hat,
        "max_abs_residual": float(resid.max()),
        "min_phi_minus_psi": float(gap.min()),
        "passed": bool(resid.max() <= 1e-9 and gap.min() >= -1e-12),
    }
    _write_json(run_dir, "surface.json", summary)
    return summary["passed"], "surface.json"


def _resolve_barrier_params(objs) -> BarrierParams:
    params = objs.get("barrier")
    if params == "auto" or params is None:
        return auto_parameters(objs["front"], objs["profile"], objs["nl"])
    return params


def _cmd_barriers_validate(objs, run_dir, seed, threads):
    params = _resolve_barrier_params(objs)
    n = int(objs["experiment"].get("n_samples", 100_000))
    spec = BarrierSampleSpec(n_samples=n, seed=seed)
    report = validate_parameters(objs["front"], objs["profile"], objs["nl"],
                                 params, spec)
    _write_json(run_dir, "validation.json", report.to_json())
    return report.passed, "validation.json"


def _cmd_simulate(objs, run_dir, seed, threads):
    grid = objs["grid"]
    config = replace(objs["solver_config"], workers=threads)
    front, profile, nl = objs["front"], objs["profile"], objs["nl"]
    exp = objs["experiment"]
    t_start = float(exp.get("t_start", 0.0))
    pts = grid.points().reshape(-1, grid.dimension)
    u0 = profile(min_q(front, t_start, pts).reshape(grid.counts))
    boundary = make_boundary("dirichlet-lower", front, profile)
    floor = subsolution_floor(front, profile, grid) if exp.get("use_floor") \
        else None
    snaps = solve_cauchy(Field(grid, u0, t_start), nl, boundary, config,
                         t_start + objs["t_end"],
                         snapshot_dt=objs["snapshot_dt"], floor=floor)
    for k, fld in enumerate(snaps):
        write_snapshot(os.path.join(run_dir, f"snapshot_{k:04d}.cflb"), fld)
    write_slice_csv(os.path.join(run_dir, "final_slice.csv"), snaps[-1],
                    axis=grid.dimension - 1)
    final = snaps[-1]
    in_bounds = bool(final.values.min() >= -1e-12
                     and final.values.max() <= 1.0 + 1e-12)
    summary = {
        "n_snapshots": len(snaps),
        "t_final": final.time,
        "min": float(final.values.min()),
        "max": float(final.values.max()),
        "passed": in_bounds,
    }
    _write_json(run_dir, "simulate.json", summary)
    return in_bounds, "simulate.json"


def _cmd_entire(objs, run_dir, seed, threads):
    grid = objs["grid"]
    config = replace(objs["solver_config"], workers=threads)
    front, profile, nl = objs["front"], objs["profile"], objs["nl"]
    exp = objs["experiment"]
    c = profile.speed
    n_list = exp.get("n_list", [2.0 / c, 4.0 / c, 8.0 / c, 16.0 / c])
    result = entire_solution(front, profile, nl, grid, config,
                             n_list=n_list, window_end=objs["t_end"],
                             snapshot_dt=objs["snapshot_dt"])
    for k, vals in enumerate(result.v_hat):
        write_snapshot(os.path.join(run_dir, f"vhat_{k:04d}.cflb"),
                       Field(grid, vals, result.times[k]))
    inc = result.increments
    ratio_ok = len(inc) < 2 or inc[-1] <= 2.0 * inc[-2]
    passed = bool(result.monotone_in_n and ratio_ok
                  and result.report["lower_gap_min"] >= -1e-10
                  and result.report["max_value"] <= 1.0 + 1e-12)
    summary = dict(result.report)
    summary.update({
        "monotone_in_n": result.monotone_in_n,
        "monotonicity_worst": result.monotonicity_worst,
        "time_derivative_min": result.time_derivative_min,
        "passed": passed,
    })
    _write_json(run_dir, "entire.json", summary)
    return passed, "entire.json"


def _cmd_verify(objs, run_dir, seed, threads):
    grid = objs["grid"]
    config = replace(objs["solver_config"], workers=threads)
    front, profile, nl = objs["front"], objs["profile"], objs["nl"]
    exp = objs["experiment"]
    c = profile.speed
    spin_depth = float(exp.get("spin_depth", 8.0 / c))
    boundary = make_boundary("dirichlet-lower", front, profile)
    floor = subsolution_floor(front, profile, grid)
    pts = grid.points().reshape(-1, grid.dimension)
    u0 = profile(min_q(front, -spin_depth, pts).reshape(grid.counts))
    spin = solve_cauchy(Field(grid, u0, -spin_depth), nl, boundary, config,
                        0.0, snapshot_dt=spin_depth, floor=floor,
                        keep_all=False)
    traj = solve_cauchy(spin[-1], nl, boundary, config, objs["t_end"],
                        snapshot_dt=objs["snapshot_dt"], floor=floor)

    params = _resolve_barrier_params(objs)
    barriers = BarrierSet(front, profile, nl, params)
    report = DiagnosticsReport()
    sm = sandwich_and_monotonicity(traj, front, profile, barriers=barriers)
    report.add("sandwich_and_monotonicity", sm)
    meps = extract_interface_and_Meps(traj[-1], front)
    report.add("m_eps_table", {"rows": meps})
    mvals = [r["m_eps"] for r in meps]
    meps_monotone = all(mvals[k] <= mvals[k + 1] + 1e-12
                        for k in range(len(mvals) - 1))
    ms = mean_speed_estimate(front, np.linspace(0.0, 50.0 / c, 9))
    report.add("mean_speed", ms)
    wg = weighted_gap_report(traj, front, profile,
                             v_rate=params.v_star or 1e-4)
    report.add("weighted_gap", wg)
    ridge_excl = float(exp.get("ridge_exclusion", 10.0 / c))
    hl = half_level_cross_check(traj[-1], front, profile=profile,
                                exclude_ridge_radius=ridge_excl)
    report.add("half_level_cross_check", hl)

    speed_ok = abs(ms["gamma_hat"] - c) <= 0.02 * c
    passed = bool(sm["lower_violation"] <= 1e-10
                  and sm["dudt_min"] >= -1e-12
                  and meps_monotone and speed_ok and wg["passed"]
                  and hl["discrepancy"] <= 2.0 * grid.dx)
    report.add("verdict", {
        "meps_monotone": meps_monotone,
        "mean_speed_ok": speed_ok,
        "passed": passed,
    })
    _write_json(run_dir, "diagnostics.json", report.to_json())
    report.write_csv_curves(run_dir)
    return passed, "diagnostics.json"


def _cmd_speed(objs, run_dir, seed, threads):
    nl = objs["nl"]
    exp = objs["experiment"]
    thetas = exp.get("theta_list", [nl.theta])
    rows = []
    passed = True
    for theta in thetas:
        fam = make_combustion(theta=theta, amplitude=nl.amplitude,
                              exponent=nl.exponent, sigma=nl.sigma)
        c_shoot = find_wave_speed(fam)
        fit = measure_speed_1d(fam, workers=threads)
        rel = abs(fit.speed - c_shoot) / c_shoot
        rows.append({"theta": theta, "c_shooting": c_shoot,
                     "c_measured": fit.speed, "rel_err": rel})
        passed = passed and rel <= 0.01
    _write_json(run_dir, "speed.json", {"rows": rows, "passed": passed})
    with open(os.path.join(run_dir, "speed.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "c_shooting", "c_measured", "rel_err"])
        for r in rows:
            writer.writerow([repr(float(r["theta"])), repr(r["c_shooting"]),
                             repr(r["c_measured"]), repr(r["rel_err"])])
    return passed, "speed.json"


def _cmd_stability(objs, run_dir, seed, threads):
    grid = objs["grid"]
    config = replace(objs["solver_config"], workers=threads)
    front, profile, nl = objs["front"], objs["profile"], objs["nl"]
    exp = objs["experiment"]
    if "height" not in exp or "radius" not in exp:
        raise ConfigError(["experiment.height: required for stability",
                           "experiment.radius: required for stability"])
    pert = PerturbationSpec(kind=exp.get("kind", "bump"),
                            height=float(exp["height"]),
                            radius=float(exp["radius"]),
                            center=tuple(exp["center"]) if exp.get("center")
                            else None)
    barriers = None
    if objs.get("barrier") is not None:
        barriers = BarrierSet(front, profile, nl, _resolve_barrier_params(objs))
    result = stability_run(front, profile, nl, grid, config, pert,
                           t_end=objs["t_end"],
                           snapshot_dt=objs["snapshot_dt"], barriers=barriers)
    with open(os.path.join(run_dir, "stability_curve.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sup_gap"])
        for t, v in zip(result.times, result.curve):
            writer.writerow([repr(float(t)), repr(float(v))])
    passed = result.passed and (result.domination_min is None
                                or result.domination_min >= -1e-9)
    summary = {
        "final_gap": result.final_gap,
        "eventually_decreasing": result.eventually_decreasing,
        "admissibility": result.admissibility,
        "domination_min": result.domination_min,
        "envelope_ok": result.envelope_ok,
        "envelope_slack_min": result.envelope_slack_min,
        "passed": bool(passed),
    }
    summary.update(result.report)
    _write_json(run_dir, "stability.json", summary)
    return bool(passed), "stability.json"


_BODIES = {
    "profile": _cmd_profile,
    "surface": _cmd_surface,
    "barriers-validate": _cmd_barriers_validate,
    "simulate": _cmd_simulate,
    "entire": _cmd_entire,
    "verify": _cmd_verify,
    "speed": _cmd_speed,
    "stability": _cmd_stability,
}


def run(cfg: dict, subcommand: str, out_dir: str, threads: int = 1,
        seed: int = 0):
    """Execute one subcommand; returns (exit_code, run_dir, detail_path)."""
    objs = build_objects(cfg, subcommand)
    run_dir = make_run_dir(out_dir, cfg)
    try:
        passed, detail = _BODIES[subcommand](objs, run_dir, seed, threads)
    except (RuntimeError, ValueError) as e:
        detail_path = _write_json(run_dir, "failure.json",
                                  {"error": str(e), "subcommand": subcommand})
        write_manifest(run_dir, cfg, subcommand, False, seed, threads)
        return EXIT_NUMERICAL, run_dir, detail_path
    write_manifest(run_dir, cfg, subcommand, passed, seed, threads)
    detail_path = os.path.join(run_dir, detail)
    code = EXIT_OK if passed else EXIT_NUMERICAL
    return code, run_dir, detail_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvedfronts",
        description="Curved-front reaction-diffusion toolbox (batch runs)")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=".", help="output directory root")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (fallback: CFL_THREADS, then 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random sample placement in validation")
    args = parser.parse_args(argv)

    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("CFL_THREADS", "1"))
    if threads < 1:
        print("config error: threads: must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = load_config(args.config)
        code, run_dir, detail = run(cfg, args.subcommand, args.out,
                                    threads=threads, seed=args.seed)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    print(run_dir)
    if code != EXIT_OK:
        print(f"numerical failure: see {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
