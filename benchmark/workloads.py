"""Workload configs for the CLI benchmark and the reference check of their
artifacts.

Each workload is one `curvedfronts` subcommand on a fixed config.  The
nonlinearity and the front are the ones the test suite uses: theta 0.3,
a = 1, p = 2, sigma = 0.1, and the symmetric V at pi/3 with tau = 0, whose
planar speed is C below.  README.md in this directory says why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import json
import math
import os

C = 0.26343617168072303
ANGLE = math.pi / 3

NONLINEARITY = {"theta": 0.3, "a": 1.0, "p": 2.0, "sigma": 0.1}
FRONT = {
    "N": 2,
    "waves": [
        {"nu": [-1.0], "theta": ANGLE, "tau": 0.0},
        {"nu": [1.0], "theta": ANGLE, "tau": 0.0},
    ],
}

# alpha that auto_parameters picks off its ladder for this front; the pilot
# certification inside it uses a fixed seed, so any seed must reproduce it
CERTIFY_ALPHA = 0.025

WORKLOADS = {
    "certify": {
        "subcommand": "barriers-validate",
        "threads": 1,
        "config": {
            "nonlinearity": NONLINEARITY,
            "front": FRONT,
            "barrier": "auto",
            "experiment": {},
        },
        "detail": "validation.json",
    },
    "verify": {
        "subcommand": "verify",
        "threads": 1,
        "config": {
            "nonlinearity": NONLINEARITY,
            "front": FRONT,
            "barrier": "auto",
            "solver": {
                "dx": 0.379598592562289,
                "dt": "cfl",
                "scheme": "euler",
                "box": {"counts": [160, 160], "origin": [-30.0, -35.0]},
                "T": 4.0 / C,
                "snapshot_interval": 1.0 / C,
            },
            "experiment": {"spin_depth": 4.0 / C, "ridge_exclusion": 12.0},
        },
        "detail": "diagnostics.json",
    },
    "speed1d": {
        "subcommand": "speed",
        "threads": 1,
        "config": {"nonlinearity": NONLINEARITY},
        "detail": "speed.json",
    },
    "entire_mt": {
        "subcommand": "entire",
        "threads": 2,
        "config": {
            "nonlinearity": NONLINEARITY,
            "front": FRONT,
            "solver": {
                "dx": 0.5,
                "dt": "cfl",
                "scheme": "euler",
                "box": {"counts": [512, 512], "origin": [-128.0, -140.0]},
                "T": 0.5 / C,
                "snapshot_interval": 0.25 / C,
            },
            "experiment": {"n_list": [1.0 / C, 2.0 / C]},
        },
        "detail": "entire.json",
    },
}


def cli_argv(name: str, config_path: str, out_dir: str, seed: int,
             threads: int | None = None) -> list:
    """Arguments for `curvedfronts.cli_io.main` running one workload."""
    w = WORKLOADS[name]
    return [w["subcommand"], "--config", config_path, "--out", out_dir,
            "--threads", str(w["threads"] if threads is None else threads),
            "--seed", str(seed)]


def write_config(name: str, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(WORKLOADS[name]["config"], fh, indent=2)


def _problems_certify(d: dict) -> list:
    out = []
    if d.get("passed") is not True:
        out.append("certify: report not passed")
    if not d.get("min_residual_upper", -1.0) > 0.0:
        out.append(f"certify: min_residual_upper {d.get('min_residual_upper')} <= 0")
    alpha = d.get("params", {}).get("alpha")
    if alpha != CERTIFY_ALPHA:
        out.append(f"certify: ladder alpha {alpha} != {CERTIFY_ALPHA}")
    return out


def _problems_verify(d: dict) -> list:
    out = []
    if d.get("verdict", {}).get("passed") is not True:
        out.append("verify: verdict not passed")
    viol = d.get("sandwich_and_monotonicity", {}).get("lower_violation")
    if viol is None or not viol <= 1e-10:
        out.append(f"verify: lower_violation {viol} > 1e-10")
    gamma = d.get("mean_speed", {}).get("gamma_hat")
    if gamma is None or not abs(gamma - C) <= 0.02 * C:
        out.append(f"verify: gamma_hat {gamma} not within 2% of {C}")
    return out


def _problems_speed1d(d: dict) -> list:
    out = []
    if d.get("passed") is not True:
        out.append("speed1d: report not passed")
    rows = d.get("rows") or [{}]
    for r in rows:
        c_shoot = r.get("c_shooting")
        if r.get("theta") == NONLINEARITY["theta"] and (
                c_shoot is None or not abs(c_shoot - C) <= 1e-10):
            out.append(f"speed1d: c_shooting {c_shoot} not within 1e-10 of {C}")
        rel = r.get("rel_err")
        if rel is None or not rel <= 0.01:
            out.append(f"speed1d: rel_err {rel} > 0.01")
    return out


def _problems_entire_mt(d: dict) -> list:
    out = []
    if d.get("passed") is not True:
        out.append("entire_mt: report not passed")
    if d.get("monotone_in_n") is not True:
        out.append("entire_mt: not monotone in n")
    gap = d.get("lower_gap_min")
    if gap is None or not gap >= -1e-10:
        out.append(f"entire_mt: lower_gap_min {gap} < -1e-10")
    return out


_CHECKS = {
    "certify": _problems_certify,
    "verify": _problems_verify,
    "speed1d": _problems_speed1d,
    "entire_mt": _problems_entire_mt,
}


def reference_problems(name: str, run_dir: str) -> list:
    """Ways the run's detail artifact departs from the seed's scientific
    results; empty when it matches within the tolerances the tests state.

    c_f is checked where an artifact records it (speed1d); the other
    workloads derive every checked quantity from it.
    """
    path = os.path.join(run_dir, WORKLOADS[name]["detail"])
    try:
        with open(path) as fh:
            detail = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{name}: cannot read {path}: {e}"]
    return _CHECKS[name](detail)
