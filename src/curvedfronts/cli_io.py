"""Batch front-end: run configs, snapshot persistence, and subcommands.

Each subcommand maps onto one verifiable capability (profile shooting,
surface construction, barrier certification, Cauchy simulation, the
entire-solution iteration, the diagnostics suite, 1D speed measurement,
and perturbation stability).  A subcommand body returns (passed,
detail); `run` writes the detail JSON, or failure.json if the body
raised, then a manifest with the SHA-256 of every file.  Runs land in a
directory named by config hash + timestamp, so sweeps stay collision
free and reproducible.

A config is checked against one table of keys (CONFIG) before anything
is computed.  Exit codes: 0 all PASS criteria of the subcommand hold; 2
invalid config (field-level messages on stderr, no run directory); 3
numerical failure (diagnostics path on stderr).
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
from .diagnostics import (PerturbationSpec, extract_interface_and_Meps,
                          half_level_cross_check, mean_speed_estimate,
                          sandwich_and_monotonicity, stability_run,
                          weighted_gap_report)
from .front_geometry import FrontConfiguration
from .hypersurface import ScaledSurface, fit_surface_constants
from .jsonio import dumps
from .nonlinearity import make_combustion
from .rd_solver import (Field, Grid, SolverConfig, _snapshot_count,
                        entire_solution, make_boundary, measure_speed_1d,
                        solve_cauchy, subsolution_floor)
from .wave_profile import build_profile, find_wave_speed, ode_residual_sup

__all__ = [
    "ConfigError",
    "load_config",
    "build_objects",
    "validate_config",
    "write_snapshot",
    "read_snapshot",
    "run",
    "main",
]

SNAPSHOT_MAGIC = b"CFLB1"
SNAPSHOT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

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


def _write_csv(path, header, rows, comment="") -> None:
    """CSV whose cells are repr(float(value)), or an int as it is, so every value round-trips."""
    with open(path, "w", newline="") as fh:
        fh.write(comment)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, int) else repr(float(v)) for v in row] for row in rows)


def write_slice_csv(path, fld: Field) -> None:
    """1D slice through the box center along the last axis."""
    g = fld.grid
    idx = tuple(c // 2 for c in g.counts[:-1])
    _write_csv(path, ["coordinate", "u"], zip(g.axis(g.dimension - 1), fld.values[idx]))


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


REQUIRED = "required"
FRONT_USERS = ("surface", "barriers-validate", "simulate", "entire", "verify",
               "stability")
SOLVER_USERS = ("simulate", "entire", "verify", "stability")
BARRIER_USERS = ("barriers-validate", "verify", "stability")


class Key:
    """One key of a config block.

    kind is the JSON type as a (test, description) pair.  reads maps each
    subcommand that reads the key to its default: REQUIRED if it has none,
    a callable of c_f if it scales with the planar speed.  rule is a
    (test, message) range check, for ranges no constructor checks.  table
    is the block that an object value, or each object of a list value, is
    checked against.
    """

    __slots__ = ("kind", "reads", "rule", "table")

    def __init__(self, kind: tuple, reads: dict, rule: tuple | None = None,
                 table: dict | None = None):
        self.kind, self.reads, self.rule, self.table = kind, reads, rule, table


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (_is_integer(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _list_of(test, what):
    return (lambda v: isinstance(v, list) and all(map(test, v))), f"a list of {what}"


NUMBER = (_is_number, "a finite number")
INTEGER = (_is_integer, "an integer")
STRING = (lambda v: isinstance(v, str), "a string")
OBJECT = (lambda v: isinstance(v, dict), "an object")
NUMBERS = _list_of(_is_number, "finite numbers")
POSITIVE = (lambda v: v > 0, "must be positive")
NONEMPTY = (len, "must not be empty")


def _required(subcommands=SUBCOMMANDS) -> dict:
    return dict.fromkeys(subcommands, REQUIRED)


CONFIG = {
    "nonlinearity": Key(OBJECT, _required(), table={
        name: Key(NUMBER, _required()) for name in ("theta", "a", "p", "sigma")}),
    "front": Key(OBJECT, _required(FRONT_USERS), table={
        "N": Key(INTEGER, _required(FRONT_USERS)),
        "waves": Key(_list_of(OBJECT[0], "objects"), _required(FRONT_USERS),
                     NONEMPTY, table={
                         "nu": Key(NUMBERS, _required(FRONT_USERS)),
                         "theta": Key(NUMBER, _required(FRONT_USERS)),
                         "tau": Key(NUMBER, _required(FRONT_USERS))}),
    }),
    "barrier": Key(
        (lambda v: v == "auto" or isinstance(v, dict), '"auto" or an object'),
        {"barriers-validate": REQUIRED, "verify": "auto", "stability": None},
        table={name: Key(NUMBER, _required(BARRIER_USERS))
               for name in ("epsilon", "alpha", "beta", "delta", "lambda", "varrho")}),
    "solver": Key(OBJECT, _required(SOLVER_USERS), table={
        "dx": Key(NUMBER, _required(SOLVER_USERS)),
        "dt": Key((lambda v: v == "cfl" or _is_number(v), 'a number or "cfl"'),
                  dict.fromkeys(SOLVER_USERS, "cfl"),
                  (lambda v: v == "cfl" or v > 0, "must be positive")),
        "scheme": Key(STRING, dict.fromkeys(SOLVER_USERS, "euler"),
                      (lambda v: v == "euler", 'must be "euler"')),
        "box": Key(OBJECT, _required(SOLVER_USERS), table={
            "counts": Key(_list_of(_is_integer, "integers"), _required(SOLVER_USERS)),
            "origin": Key(NUMBERS, _required(SOLVER_USERS)),
        }),
        "T": Key(NUMBER, _required(SOLVER_USERS), POSITIVE),
        "snapshot_interval": Key(NUMBER, _required(SOLVER_USERS), POSITIVE),
    }),
    "experiment": Key(OBJECT, dict.fromkeys(SUBCOMMANDS, {}), table={
        "alpha": Key(NUMBER, {"surface": 1.0}),
        # validation draws n_samples // 8 points for its t = 0 check
        "n_samples": Key(INTEGER, {"surface": 20000,
                                   "barriers-validate": 100_000},
                         (lambda v: v >= 8, "must be at least 8")),
        "t_start": Key(NUMBER, {"simulate": 0.0}),
        "use_floor": Key((lambda v: isinstance(v, bool), "true or false"),
                         {"simulate": False}),
        "n_list": Key(NUMBERS, {"entire": lambda c: [2.0 / c, 4.0 / c, 8.0 / c,
                                                     16.0 / c]},
                      (lambda v: v and min(v) > 0, "must be nonempty and positive")),
        "spin_depth": Key(NUMBER, {"verify": lambda c: 8.0 / c}, POSITIVE),
        "ridge_exclusion": Key(NUMBER, {"verify": lambda c: 10.0 / c}),
        # None: the nonlinearity's own theta
        "theta_list": Key(NUMBERS, {"speed": None}, NONEMPTY),
        "height": Key(NUMBER, {"stability": REQUIRED}),
        "radius": Key(NUMBER, {"stability": REQUIRED}),
        "center": Key(NUMBERS, {"stability": None}),
    }),
}


def validate_config(cfg: dict, subcommand: str, table=CONFIG, path="") -> list:
    """Every message of the config table for one subcommand, each in the
    `block.field: ...` form.  Pure: builds nothing and runs no numerics.
    Unknown keys are errors inside a block, not at the top level."""
    errors = [f"{path}: unknown key {k!r}" for k in cfg
              if path and k not in table]
    for name, key in table.items():
        where = f"{path}.{name}" if path else name
        if name not in cfg:
            if key.reads.get(subcommand) == REQUIRED:
                errors.append(f"{where}: required")
            continue
        value = cfg[name]
        if not key.kind[0](value):
            errors.append(
                f"{where}: expected {key.kind[1]}, got {json.dumps(value)}")
        elif key.rule is not None and not key.rule[0](value):
            errors.append(f"{where}: {key.rule[1]}")
        elif key.table is not None and isinstance(value, dict):
            errors += validate_config(value, subcommand, key.table, where)
        elif key.table is not None and isinstance(value, list):
            for k, item in enumerate(value):
                errors += validate_config(item, subcommand, key.table,
                                          f"{where}[{k}]")
    return errors


def _read(block: dict, table: dict, subcommand: str) -> dict:
    """The keys of a checked block the subcommand reads, defaults filled in,
    nested blocks read the same way."""
    out = {}
    for name, key in table.items():
        if subcommand in key.reads:
            value = block.get(name, key.reads[subcommand])
            nested = key.table is not None and isinstance(value, dict)
            out[name] = _read(value, key.table, subcommand) if nested else value
    return out


def build_objects(cfg: dict, subcommand: str) -> dict:
    """Check cfg against the config table, then construct the run's objects.

    Raises ConfigError with every table message before anything is built,
    then with every constructor and cross-field message.  The profile is
    built after that, then FrontConfiguration and the default n_list, the
    two that need c_f.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"subcommand: unknown {subcommand!r}")
    errors = validate_config(cfg, subcommand)
    if errors:
        raise ConfigError(errors)
    blocks = _read(cfg, CONFIG, subcommand)
    exp = blocks["experiment"]

    def construct(where, build):
        try:
            return build()
        except ValueError as e:
            errors.append(f"{where}: {e}")

    law = blocks["nonlinearity"]
    rest = dict(amplitude=law["a"], exponent=law["p"], sigma=law["sigma"])
    out = {"nl": construct("nonlinearity",
                           lambda: make_combustion(theta=law["theta"], **rest))}
    if subcommand == "speed":
        thetas = exp["theta_list"]
        out["families"] = [out["nl"]] if thetas is None else [
            construct(f"experiment.theta_list[{k}]",
                      lambda: make_combustion(theta=theta, **rest))
            for k, theta in enumerate(thetas)]
    out["barrier"] = barrier = blocks.get("barrier")
    if isinstance(barrier, dict):
        out["barrier"] = construct("barrier", lambda: BarrierParams(
            epsilon=barrier["epsilon"], alpha=barrier["alpha"], beta=barrier["beta"],
            delta=barrier["delta"], lam=barrier["lambda"], varrho=barrier["varrho"]))

    def tile_n_list():  # each entire run marches from -n to 0 in snapshots
        for k, n in enumerate(exp["n_list"]):
            construct(f"experiment.n_list[{k}]", lambda: _snapshot_count(-n, 0.0, snap))

    if subcommand in SOLVER_USERS:
        solver, n = blocks["solver"], blocks["front"]["N"]
        counts = solver["box"]["counts"]
        if len(counts) != n:
            errors.append(f"solver.box.counts: expected {n} axes (front.N), "
                          f"got {len(counts)}")
        if subcommand == "verify" and n != 2:  # no 3D verify config is validated yet
            errors.append(f"front.N: verify needs 2 space dimensions, got {n}")
        grid = out["grid"] = construct("solver.box", lambda: Grid(
            tuple(counts), float(solver["dx"]), tuple(solver["box"]["origin"])))
        config = out["solver_config"] = SolverConfig(
            dt=None if solver["dt"] == "cfl" else float(solver["dt"]))
        t_end = out["t_end"] = float(solver["T"])
        snap = out["snapshot_dt"] = float(solver["snapshot_interval"])
        construct("solver.T", lambda: _snapshot_count(0.0, t_end, snap))
        if grid is not None and out["nl"] is not None:
            construct("solver.dt", lambda: config.resolve_dt(grid, out["nl"], snap))
    default_n_list = subcommand == "entire" and callable(exp["n_list"])
    if subcommand == "entire" and not default_n_list:
        tile_n_list()
    if subcommand == "stability":
        center = exp["center"]
        if center is not None and len(center) != n:
            errors.append(f"experiment.center: expected {n} coordinates (front.N), "
                          f"got {len(center)}")
        out["perturbation"] = construct("experiment", lambda: PerturbationSpec(
            height=float(exp["height"]), radius=float(exp["radius"]),
            center=None if center is None else tuple(center)))
    if errors:
        raise ConfigError(errors)

    if subcommand != "speed":
        try:  # a law every constructor accepts can still defeat the profile build
            with np.errstate(all="ignore"):  # whose warnings would precede the error
                profile = out["profile"] = build_profile(out["nl"])
        except RuntimeError as e:
            raise ConfigError(f"nonlinearity: {e}")
        exp = {name: v(profile.speed) if callable(v) else v for name, v in exp.items()}
    if subcommand in FRONT_USERS:
        waves = blocks["front"]["waves"]
        out["front"] = construct("front", lambda: FrontConfiguration(
            dimension=blocks["front"]["N"],
            nus=np.asarray([w["nu"] for w in waves], dtype=float),
            angles=np.asarray([w["theta"] for w in waves], dtype=float),
            shifts=np.asarray([w["tau"] for w in waves], dtype=float),
            speed=profile.speed))
        if default_n_list:
            tile_n_list()
        if errors:
            raise ConfigError(errors)
    out["experiment"] = exp
    return out


# -- run directory and manifest ----------------------------------------------


def _config_sha256(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(cfg: dict) -> str:
    return _config_sha256(cfg)[:12]


def make_run_dir(out_dir, cfg: dict) -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = os.path.join(out_dir, f"{config_hash(cfg)}-{stamp}")
    os.makedirs(path, exist_ok=False)
    return path


def write_manifest(run_dir, cfg: dict, subcommand: str, passed: bool,
                   seed: int, threads: int) -> str:
    from . import __version__  # the package imports this module first
    artifacts = {}
    for name in sorted(os.listdir(run_dir)):
        if name == "manifest.json":
            continue
        full = os.path.join(run_dir, name)
        if os.path.isfile(full):
            artifacts[name] = _sha256_file(full)
    manifest = {
        "subcommand": subcommand,
        "config_sha256": _config_sha256(cfg),
        "seed": seed,
        "threads": threads,
        # recorded for reproduction; the profile table does not depend on them
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "versions": {"curvedfronts": __version__, "python": sys.version,
                     "numpy": np.__version__,
                     "platform": sys.platform, "machine": os.uname().machine},
        "passed": passed,
        "artifacts": artifacts,
    }
    path = os.path.join(run_dir, "manifest.json")
    with open(path, "w") as fh:
        fh.write(dumps(manifest, indent=2, sort_keys=True))
    return path


def _write_json(run_dir, name, payload) -> str:
    path = os.path.join(run_dir, name)
    with open(path, "w") as fh:
        fh.write(dumps(payload, indent=2))
    return path


# -- subcommand bodies ---------------------------------------------------------


def _cmd_profile(objs, run_dir, seed):
    profile = objs["profile"]
    c, beta0 = profile.speed, profile.beta0
    resid = ode_residual_sup(profile, objs["nl"])
    # the table on [-W, W] at step 0.005, or at 2^16 + 1 points where that step takes more
    width = max(16.0 / c, 16.0 / beta0, abs(profile.d_joint) + 4.0)
    step = max(0.005, width / 2**15)
    grid = step * np.arange(-np.ceil(width / step), np.ceil(width / step) + 1)
    _write_csv(os.path.join(run_dir, "profile.csv"), ["D", "U"], zip(grid, profile(grid)),
               comment=f"# c_f={c!r} beta0={beta0!r} tail=theta*exp(-c_f*D) on D>=0\n")
    passed = bool(resid <= 1e-6)
    return passed, {
        "c_f": c,
        "beta0": beta0,
        "ode_residual_sup": resid,  # relative to sup |f(U)|
        "passed": passed,
    }


def _cmd_surface(objs, run_dir, seed):
    front = objs["front"]
    front.require_ridges()
    alpha = objs["experiment"]["alpha"]
    surface = ScaledSurface(front, alpha)
    fit = fit_surface_constants(ScaledSurface(front, 1.0))
    rng = np.random.default_rng(seed)
    n = objs["experiment"]["n_samples"]
    t = rng.uniform(-10.0, 10.0, n)
    x = rng.uniform(-40.0, 40.0, (n, front.dimension - 1))
    phi = surface.solve_phi(alpha * t, alpha * x)
    psi = surface.psi(alpha * t, alpha * x)
    h = surface.gradient_and_flatness(alpha * t, alpha * x, phi)[1]
    resid = np.abs(surface.residual(alpha * t, alpha * x, phi))
    gap = phi - psi
    _write_csv(os.path.join(run_dir, "surface.csv"),
               ["t"] + [f"x{k}" for k in range(front.dimension - 1)]
               + ["phi", "h", "phi_minus_psi"],
               ([t[k], *x[k], phi[k] / alpha, h[k], gap[k] / alpha]
                for k in range(min(n, 2000))))
    passed = bool(resid.max() <= 1e-9 and gap.min() >= -1e-12)
    return passed, {
        "alpha": alpha,
        "c_hat": fit.c_hat,
        "c1_hat": fit.c1_hat,
        "max_abs_residual": float(resid.max()),
        "min_phi_minus_psi": float(gap.min()),
        "passed": passed,
    }


def _resolve_barrier_params(objs) -> BarrierParams:
    if objs["barrier"] == "auto":
        return auto_parameters(objs["front"], objs["profile"], objs["nl"])
    return objs["barrier"]


def _cmd_barriers_validate(objs, run_dir, seed):
    params = _resolve_barrier_params(objs)
    spec = BarrierSampleSpec(n_samples=objs["experiment"]["n_samples"], seed=seed)
    report = validate_parameters(objs["front"], objs["profile"], objs["nl"],
                                 params, spec)
    return report.passed, report


def _cmd_simulate(objs, run_dir, seed):
    grid, config = objs["grid"], objs["solver_config"]
    front, profile, nl = objs["front"], objs["profile"], objs["nl"]
    exp = objs["experiment"]
    t_start = float(exp["t_start"])
    floor = subsolution_floor(front, profile, grid)
    snaps = solve_cauchy(Field(grid, floor(t_start), t_start), nl,
                         make_boundary(front, profile), config,
                         t_start + objs["t_end"], snapshot_dt=objs["snapshot_dt"],
                         floor=floor if exp["use_floor"] else None)
    for k, fld in enumerate(snaps):
        write_snapshot(os.path.join(run_dir, f"snapshot_{k:04d}.cflb"), fld)
    final = snaps[-1]
    write_slice_csv(os.path.join(run_dir, "final_slice.csv"), final)
    in_bounds = bool(final.values.min() >= -1e-12
                     and final.values.max() <= 1.0 + 1e-12)
    return in_bounds, {
        "n_snapshots": len(snaps),
        "t_final": final.time,
        "min": float(final.values.min()),
        "max": float(final.values.max()),
        "passed": in_bounds,
    }


def _cmd_entire(objs, run_dir, seed):
    grid, config = objs["grid"], objs["solver_config"]
    front, profile, nl = objs["front"], objs["profile"], objs["nl"]
    result = entire_solution(front, profile, nl, grid, config,
                             n_list=objs["experiment"]["n_list"],
                             window_end=objs["t_end"],
                             snapshot_dt=objs["snapshot_dt"])
    for k, fld in enumerate(result.v_hat):
        write_snapshot(os.path.join(run_dir, f"vhat_{k:04d}.cflb"), fld)
    summary = dict(result.report)
    inc = summary["increments_sup"]
    ratio_ok = len(inc) < 2 or inc[-1] <= 2.0 * inc[-2]
    summary["passed"] = bool(summary["monotone_in_n"] and ratio_ok
                             and summary["lower_gap_min"] >= -1e-10
                             and summary["max_value"] <= 1.0 + 1e-12)
    return summary["passed"], summary


def _cmd_verify(objs, run_dir, seed):
    grid, config = objs["grid"], objs["solver_config"]
    front, profile, nl = objs["front"], objs["profile"], objs["nl"]
    exp = objs["experiment"]
    c = profile.speed
    spin_depth = float(exp["spin_depth"])
    boundary = make_boundary(front, profile)
    floor = subsolution_floor(front, profile, grid)
    spin = solve_cauchy(Field(grid, floor(-spin_depth), -spin_depth), nl, boundary,
                        config, 0.0, snapshot_dt=spin_depth, floor=floor,
                        keep_all=False)
    traj = solve_cauchy(spin[-1], nl, boundary, config, objs["t_end"],
                        snapshot_dt=objs["snapshot_dt"], floor=floor)

    params = _resolve_barrier_params(objs)
    barriers = BarrierSet(front, profile, nl, params)
    sm = sandwich_and_monotonicity(traj, front, profile, barriers=barriers)
    meps = extract_interface_and_Meps(traj[-1], front)
    mvals = [r["m_eps"] for r in meps]
    meps_monotone = all(mvals[k] <= mvals[k + 1] + 1e-12
                        for k in range(len(mvals) - 1))
    ridge_exclusion = float(exp["ridge_exclusion"])
    ms = mean_speed_estimate(traj, front, profile, ridge_exclusion)
    wg = weighted_gap_report(traj, front, profile,
                             v_rate=params.v_star or 1e-4)
    hl = half_level_cross_check(traj[-1], front, profile,
                                exclude_ridge_radius=ridge_exclusion)

    speed_ok = abs(ms["gamma_hat"] - c) <= 0.02 * c
    passed = bool(sm["lower_violation"] <= 1e-10
                  and sm["dudt_min"] >= -1e-12
                  and meps_monotone and speed_ok and wg["passed"]
                  and hl["discrepancy"] <= 2.0 * grid.dx)
    report = {
        "sandwich_and_monotonicity": sm,
        "m_eps_table": {"rows": meps},
        "mean_speed": ms,
        "weighted_gap": wg,
        "half_level_cross_check": hl,
        "verdict": {"meps_monotone": meps_monotone, "mean_speed_ok": speed_ok, "passed": passed},
    }
    # one CSV per list of floats in a section: the mean-speed and gap curves
    for name, section in report.items():
        for key, val in section.items():
            if isinstance(val, list) and val and isinstance(val[0], float):
                _write_csv(os.path.join(run_dir, f"{name}_{key}.csv"), ["index", key],
                           enumerate(val))
    return passed, report


def _cmd_speed(objs, run_dir, seed):
    rows = []
    passed = True
    for fam in objs["families"]:
        c_shoot = find_wave_speed(fam)
        fit = measure_speed_1d(fam)
        rel = abs(fit.speed - c_shoot) / c_shoot
        rows.append({"theta": fam.theta, "c_shooting": c_shoot,
                     "c_measured": fit.speed, "rel_err": rel})
        passed = passed and rel <= 0.01
    header = ["theta", "c_shooting", "c_measured", "rel_err"]
    _write_csv(os.path.join(run_dir, "speed.csv"), header,
               ([r[name] for name in header] for r in rows))
    return passed, {"rows": rows, "passed": passed}


def _cmd_stability(objs, run_dir, seed):
    grid, config = objs["grid"], objs["solver_config"]
    front, profile, nl = objs["front"], objs["profile"], objs["nl"]
    barriers = None
    if objs["barrier"] is not None:
        barriers = BarrierSet(front, profile, nl, _resolve_barrier_params(objs))
    result = stability_run(front, profile, nl, grid, config, objs["perturbation"],
                           t_end=objs["t_end"],
                           snapshot_dt=objs["snapshot_dt"], barriers=barriers)
    _write_csv(os.path.join(run_dir, "stability_curve.csv"), ["t", "sup_gap"],
               zip(result.times, result.curve))
    summary = dict(result.report)
    dom = summary["domination_min"]
    summary["passed"] = bool(summary["passed"] and (dom is None or dom >= -1e-9))
    return summary["passed"], summary


# subcommand -> (detail file name, body); a body returns (passed, detail)
_BODIES = {
    "profile": ("profile.json", _cmd_profile),
    "surface": ("surface.json", _cmd_surface),
    "barriers-validate": ("validation.json", _cmd_barriers_validate),
    "simulate": ("simulate.json", _cmd_simulate),
    "entire": ("entire.json", _cmd_entire),
    "verify": ("diagnostics.json", _cmd_verify),
    "speed": ("speed.json", _cmd_speed),
    "stability": ("stability.json", _cmd_stability),
}


def run(cfg: dict, subcommand: str, out_dir: str, threads: int = 1,
        seed: int = 0):
    """Execute one subcommand; returns (exit_code, run_dir, detail_path).

    The body's detail goes to its file, or {"error", "subcommand"} to
    failure.json if the body raised a numerical error; the manifest,
    written last, records the digest of every file."""
    if threads < 1:
        raise ConfigError("threads: must be >= 1")
    objs = build_objects(cfg, subcommand)
    if subcommand in SOLVER_USERS:
        objs["solver_config"] = replace(objs["solver_config"], workers=threads)
    name, body = _BODIES[subcommand]
    run_dir = make_run_dir(out_dir, cfg)
    try:
        passed, detail = body(objs, run_dir, seed)
    except (RuntimeError, ValueError) as e:
        name = "failure.json"
        passed, detail = False, {"error": str(e), "subcommand": subcommand}
    detail_path = _write_json(run_dir, name, detail)
    write_manifest(run_dir, cfg, subcommand, passed, seed, threads)
    return EXIT_OK if passed else EXIT_NUMERICAL, run_dir, detail_path


def _hold_heap():
    """Fix glibc's mmap and trim thresholds at 32 and 64 MiB; a no-op
    where mallopt is missing.  The certification frees and reallocates
    arrays over its 100k samples many times; under glibc's default dynamic
    thresholds each may be returned to the kernel and faulted in afresh."""
    try:
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _hold_heap()
    parser = argparse.ArgumentParser(
        prog="curvedfronts",
        description="Curved-front reaction-diffusion toolbox (batch runs)")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=".", help="output directory root")
    parser.add_argument("--threads", type=int, default=1, help="worker threads")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random sample placement in validation")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        code, run_dir, detail = run(cfg, args.subcommand, args.out,
                                    threads=args.threads, seed=args.seed)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    print(run_dir)
    if code != EXIT_OK:
        print(f"numerical failure: see {detail}", file=sys.stderr)
    return code
