"""Batch front-end: snapshot format, config validation, exit codes, run
directories with checksummed manifests, and thread reproducibility."""

import copy
import csv
import hashlib
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvedfronts
from curvedfronts import (Field, Grid, SolverConfig, make_combustion, read_snapshot,
                          write_snapshot)
from curvedfronts import cli_io
from curvedfronts.cli_io import (
    CONFIG,
    SUBCOMMANDS,
    ConfigError,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    _write_json,
    build_objects,
    config_hash,
    load_config,
    main,
    validate_config,
    write_manifest,
)

C = 0.26343617168072303
ANGLE = math.pi / 3

BASE = {
    "nonlinearity": {"theta": 0.3, "a": 1.0, "p": 2.0, "sigma": 0.1},
    "front": {
        "N": 2,
        "waves": [
            {"nu": [-1.0], "theta": ANGLE, "tau": 0.0},
            {"nu": [1.0], "theta": ANGLE, "tau": 0.0},
        ],
    },
    "barrier": "auto",
    "solver": {
        "dx": 0.5,
        "dt": "cfl",
        "scheme": "euler",
        "box": {"counts": [96, 96], "origin": [-24.0, -28.0]},
        "T": 2.0 / C,
        "snapshot_interval": 1.0 / C,
    },
    "experiment": {},
}


# the grid and nonlinearity that build_objects makes of BASE
BASE_GRID = Grid(tuple(BASE["solver"]["box"]["counts"]), BASE["solver"]["dx"],
                 tuple(BASE["solver"]["box"]["origin"]))
BASE_NL = make_combustion(*(BASE["nonlinearity"][k] for k in ("theta", "a", "p", "sigma")))


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sample_field():
    g = Grid((24, 17), 0.37, (-1.5, 2.25))
    rng = np.random.default_rng(0)
    return Field(g, rng.uniform(0.0, 1.0, (24, 17)), 3.75)


def run_dir_of(stdout):
    return stdout.strip().splitlines()[-1]


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def checked_artifacts(run_dir):
    """The manifest's artifacts, checked to be exactly the run directory's
    other files, each listed with its SHA-256."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        artifacts = json.load(fh)["artifacts"]
    assert set(artifacts) == set(os.listdir(run_dir)) - {"manifest.json"}
    for name, digest in artifacts.items():
        assert digest == sha256_of(os.path.join(run_dir, name)), name
    return artifacts


# -- snapshot format ---------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    fld = sample_field()
    write_snapshot(tmp_path / "f.cflb", fld)
    back = read_snapshot(tmp_path / "f.cflb", origin=fld.grid.origin)
    assert np.array_equal(back.values, fld.values)
    assert back.grid.counts == fld.grid.counts
    assert back.grid.dx == fld.grid.dx
    assert back.grid.origin == fld.grid.origin
    assert back.time == fld.time


def test_snapshot_header_layout(tmp_path):
    fld = sample_field()
    path = tmp_path / "f.cflb"
    write_snapshot(path, fld)
    raw = path.read_bytes()
    assert raw[:5] == b"CFLB1"
    version, ndim = struct.unpack_from("<II", raw, 5)
    assert (version, ndim) == (1, 2)
    counts = struct.unpack_from("<2Q", raw, 13)
    assert counts == (24, 17)
    dx, t = struct.unpack_from("<dd", raw, 29)
    assert dx == 0.37 and t == 3.75
    assert len(raw) == 45 + 8 * 24 * 17
    payload = np.frombuffer(raw[45:], dtype="<f8").reshape(24, 17)
    assert np.array_equal(payload, fld.values)


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "f.cflb"
    write_snapshot(path, sample_field())
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="CFLB1"):
        read_snapshot(path)


def test_snapshot_unsupported_version(tmp_path):
    path = tmp_path / "f.cflb"
    write_snapshot(path, sample_field())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 5, 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_snapshot(path)


@pytest.mark.parametrize("cut", [3, 9, 20, 40, 200])
def test_snapshot_truncation(tmp_path, cut):
    path = tmp_path / "f.cflb"
    write_snapshot(path, sample_field())
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(path)


def test_snapshot_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "f.cflb"
    write_snapshot(path, sample_field())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_snapshot(path)


# -- config loading and validation -------------------------------------------


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(arr)


def test_build_objects_reports_missing_blocks():
    with pytest.raises(ConfigError) as exc:
        build_objects({}, "simulate")
    msgs = exc.value.errors
    assert any(m.startswith("nonlinearity") for m in msgs)
    assert any(m.startswith("solver") for m in msgs)


def test_build_objects_field_messages():
    cfg = copy.deepcopy(BASE)
    cfg["nonlinearity"]["theta"] = "big"
    del cfg["solver"]["T"]
    with pytest.raises(ConfigError) as exc:
        build_objects(cfg, "simulate")
    msgs = "; ".join(exc.value.errors)
    assert "nonlinearity.theta" in msgs
    assert "solver.T" in msgs


def test_build_objects_rejects_unknown_subcommand():
    with pytest.raises(ConfigError, match="subcommand"):
        build_objects(copy.deepcopy(BASE), "explode")


def test_validate_config_accepts_base():
    for sub in SUBCOMMANDS:
        errors = validate_config(BASE, sub)
        if sub == "stability":
            assert errors == ["experiment.height: required", "experiment.radius: required"]
        else:
            assert errors == []


def test_validate_config_rejects_bools_nonfinite_and_unknown_keys():
    cfg = copy.deepcopy(BASE)
    cfg["nonlinearity"]["a"] = True
    cfg["solver"]["T"] = math.nan
    cfg["solver"]["box"]["count"] = [96, 96]
    cfg["experiment"]["n_sample"] = 10
    assert validate_config(cfg, "simulate") == [
        "nonlinearity.a: expected a finite number, got true",
        "solver.box: unknown key 'count'",
        "solver.T: expected a finite number, got NaN",
        "experiment: unknown key 'n_sample'",
    ]


def _table_paths(table=CONFIG, prefix=""):
    for name, key in table.items():
        path = f"{prefix}.{name}" if prefix else name
        yield path
        if key.table is not None:
            yield from _table_paths(key.table, path)


def _config_paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for k, v in items:
        yield from _config_paths(v, path + (k,))


TABLE_PATHS = set(_table_paths())
# every field of BASE, and every experiment key, which BASE leaves unset
FUZZ_TARGETS = [p for p in _config_paths(BASE) if p] + [
    ("experiment", name) for name in CONFIG["experiment"].table]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


DELETE = object()


@settings(max_examples=250)
@given(edits=st.lists(st.tuples(st.sampled_from(FUZZ_TARGETS), JSON_VALUES | st.just(DELETE)),
                      min_size=1, max_size=3),
       subcommand=st.sampled_from(SUBCOMMANDS))
def test_validate_config_fuzz(edits, subcommand):
    cfg = copy.deepcopy(BASE)
    # deepest edits first, so every path still leads through BASE's structure
    for path, value in sorted(edits, key=lambda e: -len(e[0])):
        node = cfg
        for k in path[:-1]:
            node = node[k]
        if value is not DELETE:
            node[path[-1]] = value
        elif isinstance(node, dict):
            node.pop(path[-1], None)
    errors = validate_config(cfg, subcommand)
    assert isinstance(errors, list)
    for msg in errors:
        assert isinstance(msg, str)
        field = re.sub(r"\[\d+\]", "", msg.split(": ", 1)[0])
        assert field in TABLE_PATHS, msg


def test_config_hash_canonical():
    a = {"x": 1, "y": {"b": 2, "a": 3}}
    b = {"y": {"a": 3, "b": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 1, "y": {"b": 2, "a": 4}})
    assert len(config_hash(a)) == 12


# -- subcommand runs ----------------------------------------------------------


def test_profile_run(tmp_path, capsys):
    cfg = {"nonlinearity": dict(BASE["nonlinearity"])}
    path = write_cfg(tmp_path, cfg)
    rc = main(["profile", "--config", path, "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    run_dir = run_dir_of(out.out)
    assert os.path.basename(run_dir).startswith(config_hash(cfg) + "-")
    summary = json.load(open(os.path.join(run_dir, "profile.json")))
    assert summary["passed"]
    assert summary["c_f"] == pytest.approx(C, abs=1e-10)
    assert summary["ode_residual_sup"] <= 1e-6
    first = open(os.path.join(run_dir, "profile.csv")).readline()
    assert first.startswith("# c_f=") and "tail=theta*exp(-c_f*D)" in first
    checked_artifacts(run_dir)
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["subcommand"] == "profile"
    assert set(manifest["artifacts"]) == {"profile.csv", "profile.json"}


def test_surface_run(tmp_path, capsys):
    cfg = {k: copy.deepcopy(BASE[k]) for k in ("nonlinearity", "front")}
    cfg["experiment"] = {"n_samples": 5000}
    rc = main(["surface", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    summary = json.load(open(os.path.join(run_dir_of(out.out), "surface.json")))
    assert summary["passed"]
    assert summary["max_abs_residual"] <= 1e-9
    assert summary["min_phi_minus_psi"] >= -1e-12
    assert summary["c_hat"] == pytest.approx(1.60075, abs=2e-3)


def test_barriers_validate_auto(tmp_path, capsys):
    cfg = {k: copy.deepcopy(BASE[k]) for k in ("nonlinearity", "front", "barrier")}
    cfg["experiment"] = {"n_samples": 5000}
    rc = main(["barriers-validate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    report = json.loads(open(os.path.join(run_dir_of(out.out), "validation.json")).read())
    assert report["passed"]
    assert report["min_residual_upper"] > 0.0


def test_barriers_validate_alpha_ten_fails(tmp_path, capsys):
    cfg = {k: copy.deepcopy(BASE[k]) for k in ("nonlinearity", "front")}
    cfg["barrier"] = {
        "epsilon": 0.003125,
        "alpha": 10.0,
        "beta": 0.0625,
        "delta": 0.000922160004455645,
        "lambda": 0.000135544172948819,
        "varrho": 8000421.4538548915,
    }
    cfg["experiment"] = {"n_samples": 5000}
    rc = main(["barriers-validate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_NUMERICAL
    assert "numerical failure: see" in out.err
    run_dir = run_dir_of(out.out)
    report = json.loads(open(os.path.join(run_dir, "validation.json")).read())
    assert not report["passed"]
    assert report["min_residual_upper"] < 0.0
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["passed"] is False


def test_simulate_reproducible_across_threads(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    del cfg["barrier"]
    path = write_cfg(tmp_path, cfg)
    digests = []
    for threads in ("1", "2"):
        rc = main(["simulate", "--config", path, "--out", str(tmp_path), "--threads", threads])
        out = capsys.readouterr()
        assert rc == EXIT_OK
        run_dir = run_dir_of(out.out)
        manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
        assert manifest["threads"] == int(threads)
        digests.append({k: v for k, v in manifest["artifacts"].items() if k.endswith(".cflb")})
    assert digests[0] == digests[1]
    assert len(digests[0]) == 3  # t = 0, 1/c, 2/c


def test_simulate_snapshot_interval_shorter_than_dt(tmp_path, capsys):
    # an interval below dt / 2 rounds to zero steps of length dt; each
    # snapshot takes one shorter step instead
    cfg = copy.deepcopy(BASE)
    del cfg["barrier"]
    cfg["solver"].update({"dt": 0.025, "snapshot_interval": 0.01, "T": 0.02})
    rc = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK, out.err
    summary = json.load(open(os.path.join(run_dir_of(out.out), "simulate.json")))
    assert summary["n_snapshots"] == 3


@pytest.mark.parametrize("t_end, code, n_snapshots", [(0.3, EXIT_OK, 4), (0.35, EXIT_CONFIG, 0)],
                         ids=["tiled", "untiled"])
def test_simulate_far_from_time_zero(tmp_path, capsys, t_end, code, n_snapshots):
    # at t_start 1e8 the span (t_start + T) - t_start rounds away from T,
    # which must not fail a T that the snapshots tile; one they do not
    # tile still fails the config check
    cfg = copy.deepcopy(BASE)
    del cfg["barrier"]
    cfg["solver"].update({"box": {"counts": [32, 32], "origin": [-8.0, -8.0]},
                          "T": t_end, "snapshot_interval": 0.1})
    cfg["experiment"] = {"t_start": 1e8}
    rc = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == code, out.err
    if code == EXIT_OK:
        summary = json.load(open(os.path.join(run_dir_of(out.out), "simulate.json")))
        assert summary["n_snapshots"] == n_snapshots
    else:
        assert "solver.T: span 0.35 is not an integer multiple of snapshot_dt 0.1" in out.err


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
def test_floored_steps_keep_their_temporaries(tmp_path):
    # main fixes glibc's mmap and trim thresholds, and a floored 160^2 step
    # reuses its temporaries from the heap rather than faulting them in
    # afresh each step (under 1k minor faults over these 200 steps)
    cfg = copy.deepcopy(BASE)
    del cfg["barrier"]
    cfg["solver"].update({"box": {"counts": [160, 160], "origin": [-40.0, -40.0]},
                          "T": 5.0, "snapshot_interval": 5.0})
    cfg["experiment"] = {"use_floor": True}
    path = write_cfg(tmp_path, cfg)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import resource, sys\n"
            "from curvedfronts.cli_io import main\n"
            "r0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "rc = main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "r1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(rc, r1 - r0)\n")
    proc = subprocess.run([sys.executable, "-c", code, path, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    rc, faults = map(int, proc.stdout.strip().splitlines()[-1].split())
    assert rc == EXIT_OK
    assert faults < 20_000


def test_simulate_snapshots_readable(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    del cfg["barrier"]
    cfg["solver"]["T"] = 1.0 / C
    rc = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    run_dir = run_dir_of(out.out)
    fld = read_snapshot(os.path.join(run_dir, "snapshot_0001.cflb"),
                        origin=cfg["solver"]["box"]["origin"])
    assert fld.grid.counts == (96, 96)
    assert fld.grid.dx == 0.5
    assert fld.time == pytest.approx(1.0 / C, rel=1e-12)
    assert 0.0 <= fld.values.min() and fld.values.max() <= 1.0
    lines = open(os.path.join(run_dir, "final_slice.csv")).read().strip().splitlines()
    assert lines[0] == "coordinate,u"
    assert len(lines) == 1 + 96


def test_entire_run(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    del cfg["barrier"]
    cfg["solver"]["box"] = {"counts": [64, 64], "origin": [-16.0, -20.0]}
    cfg["solver"]["T"] = 1.0 / C
    cfg["solver"]["snapshot_interval"] = 0.5 / C
    cfg["experiment"] = {"n_list": [2.0 / C, 4.0 / C]}
    rc = main(["entire", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    run_dir = run_dir_of(out.out)
    summary = json.load(open(os.path.join(run_dir, "entire.json")))
    assert summary["passed"]
    assert summary["monotone_in_n"]
    snaps = sorted(n for n in os.listdir(run_dir) if n.endswith(".cflb"))
    assert snaps == ["vhat_0000.cflb", "vhat_0001.cflb", "vhat_0002.cflb"]


def test_verify_run(tmp_path, capsys, strict_loads):
    cfg = copy.deepcopy(BASE)
    cfg["solver"] = {
        "dx": 0.379598592562289,
        "dt": "cfl",
        "scheme": "euler",
        "box": {"counts": [160, 160], "origin": [-30.0, -35.0]},
        "T": 4.0 / C,
        "snapshot_interval": 1.0 / C,
    }
    cfg["experiment"] = {"spin_depth": 4.0 / C, "ridge_exclusion": 12.0}
    rc = main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    run_dir = run_dir_of(out.out)
    diag = strict_loads(open(os.path.join(run_dir, "diagnostics.json")).read())
    assert diag["verdict"]["passed"]
    assert abs(diag["mean_speed"]["gamma_hat"] - C) / C <= 0.02
    # the estimate reads the run's own snapshots, at 0, 1/c, ..., 4/c
    assert diag["mean_speed"]["times"] == [k * (1.0 / C) for k in range(5)]
    assert diag["sandwich_and_monotonicity"]["lower_violation"] <= 1e-10
    vals = [r["m_eps"] for r in diag["m_eps_table"]["rows"]]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert diag["weighted_gap"]["passed"]
    # one CSV per list of floats in a section, holding that list
    curves = [("mean_speed", "times"), ("mean_speed", "positions"),
              ("weighted_gap", "bin_edges"), ("weighted_gap", "curve")]
    assert sorted(n for n in os.listdir(run_dir) if n.endswith(".csv")) == \
        sorted(f"{name}_{key}.csv" for name, key in curves)
    for name, key in curves:
        with open(os.path.join(run_dir, f"{name}_{key}.csv"), newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["index", key]
        assert [r[0] for r in rows] == [str(i) for i in range(len(rows))]
        assert [float(r[1]) for r in rows] == diag[name][key]


def test_stability_run_cli(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["solver"]["T"] = 4.0 / C
    cfg["experiment"] = {"height": 0.0125, "radius": 2.0}
    rc = main(["stability", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    run_dir = run_dir_of(out.out)
    summary = json.load(open(os.path.join(run_dir, "stability.json")))
    assert summary["passed"]
    curve = open(os.path.join(run_dir, "stability_curve.csv")).read().strip().splitlines()
    assert len(curve) >= 4


def test_numerical_failure_writes_failure_json(tmp_path, capsys, strict_loads):
    # a far-field bump is inadmissible: the body raises before any step and
    # run writes failure.json in place of stability.json
    cfg = copy.deepcopy(BASE)
    del cfg["barrier"]
    cfg["experiment"] = {"height": 0.4, "radius": 5.0, "center": [10.0, 12.0]}
    rc = main(["stability", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_NUMERICAL
    run_dir = run_dir_of(out.out)
    failure_path = os.path.join(run_dir, "failure.json")
    assert out.err == f"numerical failure: see {failure_path}\n"
    assert sorted(os.listdir(run_dir)) == ["failure.json", "manifest.json"]
    failure = strict_loads(open(failure_path).read())
    assert failure["subcommand"] == "stability"
    assert failure["error"].startswith("inadmissible perturbation")
    manifest = strict_loads(open(os.path.join(run_dir, "manifest.json")).read())
    assert manifest["passed"] is False
    assert checked_artifacts(run_dir) == {"failure.json": sha256_of(failure_path)}


def test_stability_requires_perturbation_fields(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    rc = main(["stability", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert "config error:" in out.err
    assert "height" in out.err


def test_speed_run(tmp_path, capsys):
    cfg = {"nonlinearity": dict(BASE["nonlinearity"])}
    rc = main(["speed", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    summary = json.load(open(os.path.join(run_dir_of(out.out), "speed.json")))
    assert summary["passed"]
    row = summary["rows"][0]
    assert row["theta"] == 0.3
    assert row["rel_err"] <= 0.01
    assert abs(row["c_measured"] - row["c_shooting"]) / row["c_shooting"] == pytest.approx(row["rel_err"], rel=1e-9)


# -- CLI plumbing --------------------------------------------------------------


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["nonlinearity"]["p"] = 1.0  # exponent below the supported range
    rc = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert "config error:" in out.err


EXP_ERRORS = [
    ("speed", {"theta_list": ["x"]}, "experiment.theta_list"),
    ("speed", {"theta_list": 0.3}, "experiment.theta_list"),
    ("surface", {"alpha": "x"}, "experiment.alpha"),
    ("simulate", {}, "solver.cfl_safety"),
    ("surface", {"n_samples": "many"}, "experiment.n_samples"),
    ("entire", {"n_list": "x"}, "experiment.n_list"),
    ("stability", {"height": "x", "radius": 2.0}, "experiment.height"),
    ("stability", {"radius": 2.0}, "experiment.height"),
    ("speed", {"theta_list": [1.5]}, "experiment.theta_list[0]"),
    ("stability", {"height": 0.4, "radius": 2.0, "center": [0.0]}, "experiment.center"),
    ("stability", {"height": 0.4, "radius": 2.0, "center": [0.0] * 4}, "experiment.center"),
    ("barriers-validate", {"n_samples": 7}, "experiment.n_samples"),
    ("simulate", {}, "solver.T"),
    ("simulate", {}, "solver.box.counts"),
    ("entire", {"n_list": [2.0 / C, 0.3]}, "experiment.n_list[1]"),
    ("simulate", {}, "solver.dt"),
    # a bump is the one perturbation, so kind is no key
    ("stability", {"kind": "bump", "height": 0.4, "radius": 2.0}, "experiment.kind"),
]
# solver edits per field, and the messages expected where the field alone
# is not the message's start
SOLVER_EDITS = {
    # cfl_safety is no key, and "euler" is the one scheme
    "solver.cfl_safety": {"cfl_safety": 0.4, "scheme": "rk2"},
    "solver.T": {"T": 1.0, "snapshot_interval": 0.3},
    "solver.box.counts": {"box": {"counts": [32, 32, 32], "origin": [0.0] * 3}},
    "solver.dt": {"dt": 1.0},
}
MESSAGES = {
    "solver.cfl_safety": ["solver: unknown key 'cfl_safety'",
                          'solver.scheme: must be "euler"'],
    "solver.T": ["solver.T: span 1.0 is not an integer multiple of snapshot_dt 0.3"],
    "experiment.kind": ["experiment: unknown key 'kind'"],
    "solver.dt": ["solver.dt: dt=1.0 violates the stability cap "
                  f"{SolverConfig().stable_dt(BASE_GRID, BASE_NL)}"],
}


@pytest.mark.parametrize("sub, experiment, field", EXP_ERRORS,
                         ids=[f"{s}-{f}-{i}" for i, (s, _, f) in enumerate(EXP_ERRORS)])
def test_config_error_exits_2_before_run_dir(tmp_path, capsys, monkeypatch, sub,
                                             experiment, field):
    def no_profile(nl):
        raise AssertionError("profile built before the config error")

    monkeypatch.setattr(cli_io, "build_profile", no_profile)
    cfg = copy.deepcopy(BASE)
    cfg["experiment"] = experiment
    cfg["solver"].update(SOLVER_EDITS.get(field, {}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main([sub, "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)])
    out = capsys.readouterr()
    assert rc == EXIT_CONFIG
    for msg in MESSAGES.get(field, [field]):
        assert f"config error: {msg}" in out.err
    assert os.listdir(out_dir) == []


def test_verify_rejects_3d_before_run_dir(tmp_path, capsys, monkeypatch):
    def no_profile(nl):
        raise AssertionError("profile built before the config error")

    monkeypatch.setattr(cli_io, "build_profile", no_profile)
    s3 = math.sqrt(3.0) / 2.0
    cfg = copy.deepcopy(BASE)
    cfg["front"] = {"N": 3, "waves": [
        {"nu": nu, "theta": math.pi / 4, "tau": 0.0}
        for nu in ([1.0, 0.0], [-0.5, s3], [-0.5, -s3])]}
    cfg["solver"]["box"] = {"counts": [20, 20, 20], "origin": [-5.0, -5.0, -5.0]}
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)])
    out = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert "config error: front.N: verify needs 2 space dimensions, got 3" in out.err
    assert os.listdir(out_dir) == []


def test_profile_built_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = cli_io.build_profile
    monkeypatch.setattr(cli_io, "build_profile", lambda nl: calls.append(nl) or build(nl))
    cfg = {k: copy.deepcopy(BASE[k]) for k in ("nonlinearity", "front")}
    rc = main(["profile", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == EXIT_OK
    assert len(calls) == 1


# laws that pass every constructor check but defeat the profile build
UNBUILDABLE_LAWS = [
    (1e-8, 2.0, "degree 1024 does not resolve the position integrand"),
    (0.9999999, 2.0, "table nodes did not converge"),
    (0.3, 50.0, "degree 64 does not resolve g"),
    (0.3, 200.0, "degree 64 does not resolve g"),
]


@pytest.mark.parametrize("theta, p, message", UNBUILDABLE_LAWS)
def test_unbuildable_profile_exits_2_before_run_dir(tmp_path, capsys, theta, p, message):
    cfg = {"nonlinearity": {"theta": theta, "a": 1.0, "p": p, "sigma": 0.1}}
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main(["profile", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)])
    out = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert f"config error: nonlinearity: {message}" in out.err
    assert "Traceback" not in out.err
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize("theta, p, message", UNBUILDABLE_LAWS)
def test_unbuildable_profile_writes_only_the_config_error(tmp_path, capfd, theta, p, message):
    # run as `python -m curvedfronts`, with the default warning filters, so
    # a RuntimeWarning of the failing build would reach stderr
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    cfg = {"nonlinearity": {"theta": theta, "a": 1.0, "p": p, "sigma": 0.1}}
    proc = subprocess.run([sys.executable, "-m", "curvedfronts", "profile", "--config",
                           write_cfg(tmp_path, cfg), "--out", str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    err = capfd.readouterr().err
    assert proc.returncode == EXIT_CONFIG
    assert err.startswith(f"config error: nonlinearity: {message}")
    assert all(line.startswith("config error:") for line in err.splitlines())


def test_profile_csv_caps_its_points(tmp_path, capsys):
    # at theta 0.999, c_f is about 5e-7, so step 0.005 would take 15.7e9
    # points; the step widens to keep 2^16 + 1
    cfg = {"nonlinearity": {"theta": 0.999, "a": 1.0, "p": 2.0, "sigma": 0.1}}
    rc = main(["profile", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    run_dir = run_dir_of(capsys.readouterr().out)
    assert rc == EXIT_OK
    with open(os.path.join(run_dir, "profile.csv")) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))[1:]
    d = np.array([float(r[0]) for r in rows])
    c_f = json.load(open(os.path.join(run_dir, "profile.json")))["c_f"]
    assert len(rows) == 2**16 + 1
    assert d[-1] == -d[0] == pytest.approx(16.0 / c_f, rel=1e-12)


def _accepted(lo, hi):
    # a band where profiles build, and the whole range the config table accepts
    return (st.floats(lo, hi, exclude_min=lo == 0.0)
            | st.floats(lo, exclude_min=lo == 0.0, allow_infinity=False))


@settings(max_examples=20)
@given(theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       a=_accepted(0.0, 100.0), p=_accepted(2.0, 20.0), sigma=_accepted(0.0, 1.0))
def test_profile_exit_codes_property(theta, a, p, sigma):
    # any law the config table accepts ends in an exit code, never an exception
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "cfg.json")
        with open(path, "w") as fh:
            json.dump({"nonlinearity": {"theta": theta, "a": a, "p": p, "sigma": sigma}}, fh)
        assert main(["profile", "--config", path, "--out", out]) in (
            EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["profile", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert "config error:" in out.err


def test_invalid_threads_exits_2(tmp_path, capsys):
    cfg = {"nonlinearity": dict(BASE["nonlinearity"])}
    rc = main(["profile", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path),
               "--threads", "0"])
    out = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert "threads" in out.err


@pytest.mark.parametrize("sub", ["profile", "simulate"])
def test_run_rejects_threads_below_one(tmp_path, sub):
    # checked before the config is built, for every subcommand
    cfg = copy.deepcopy(BASE) if sub == "simulate" else {
        "nonlinearity": dict(BASE["nonlinearity"])}
    out_dir = tmp_path / "runs"
    with pytest.raises(ConfigError) as exc:
        cli_io.run(cfg, sub, str(out_dir), threads=0)
    assert exc.value.errors == ["threads: must be >= 1"]
    assert not out_dir.exists()


def _profile_threads_with_env(tmp_path, capsys, monkeypatch, env):
    cfg = {"nonlinearity": dict(BASE["nonlinearity"])}
    monkeypatch.setenv("CFL_THREADS", env)
    rc = main(["profile", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK, out.err
    return json.load(open(os.path.join(run_dir_of(out.out), "manifest.json")))["threads"]


def test_cfl_threads_env_is_ignored(tmp_path, capsys, monkeypatch):
    # --threads is the one way to set the thread count, and it defaults to 1
    assert _profile_threads_with_env(tmp_path, capsys, monkeypatch, "3") == 1


def test_invalid_cfl_threads_env_runs(tmp_path, capsys, monkeypatch):
    # an unparsable CFL_THREADS is not read, so it cannot stop a run
    assert _profile_threads_with_env(tmp_path, capsys, monkeypatch, "abc") == 1


def test_seed_recorded(tmp_path, capsys):
    cfg = {k: copy.deepcopy(BASE[k]) for k in ("nonlinearity", "front")}
    cfg["experiment"] = {"n_samples": 2000}
    rc = main(["surface", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path),
               "--seed", "42"])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    manifest = json.load(open(os.path.join(run_dir_of(out.out), "manifest.json")))
    assert manifest["seed"] == 42


def test_manifest_detects_corruption(tmp_path, capsys):
    cfg = {"nonlinearity": dict(BASE["nonlinearity"])}
    rc = main(["profile", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == EXIT_OK
    run_dir = run_dir_of(out.out)
    artifacts = checked_artifacts(run_dir)
    path = os.path.join(run_dir, "profile.csv")
    with open(path, "a") as fh:
        fh.write("tampered\n")
    assert sha256_of(path) != artifacts["profile.csv"]
    # a listed artifact that was deleted is missing from the directory
    os.remove(path)
    assert "profile.csv" in artifacts and not os.path.exists(path)


def test_manifest_records_blas_threads(tmp_path, monkeypatch, strict_loads):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    write_manifest(str(tmp_path), {"x": 1}, "profile", True, seed=0, threads=1)
    manifest = strict_loads((tmp_path / "manifest.json").read_text())
    assert manifest["blas_threads"] == {"OMP_NUM_THREADS": None,
                                        "OPENBLAS_NUM_THREADS": "2",
                                        "MKL_NUM_THREADS": "1"}


def test_manifest_records_versions(tmp_path, strict_loads):
    write_manifest(str(tmp_path), {"x": 1}, "profile", True, seed=0, threads=1)
    manifest = strict_loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"] == {"curvedfronts": curvedfronts.__version__,
                                    "python": sys.version,
                                    "numpy": np.__version__,
                                    "platform": sys.platform,
                                    "machine": os.uname().machine}


def test_import_leaves_scipy_out():
    # the package needs numpy only, so importing the CLI loads no scipy
    # module
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, curvedfronts.cli_io; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "[]"


def test_python_m_runs_without_runpy_warning(tmp_path):
    # the package imports cli_io, so `python -m curvedfronts.cli_io` would
    # warn that the module was imported before it ran; __main__ avoids it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = write_cfg(tmp_path, {"nonlinearity": dict(BASE["nonlinearity"])})
    proc = subprocess.run([sys.executable, "-m", "curvedfronts", "profile", "--config",
                           path, "--out", str(tmp_path)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert os.path.isfile(os.path.join(proc.stdout.strip(), "profile.json"))


def test_unknown_subcommand_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["explode", "--config", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_artifacts_are_strict_json(tmp_path, strict_loads):
    # non-finite values become null in written artifacts and the manifest,
    # numpy values Python ones
    _write_json(str(tmp_path), "summary.json",
                {"gap": np.float64(np.nan), "rows": [math.inf, 0.5],
                 "curve": np.array([1.0, -np.inf, np.nan]), "n": np.int64(3), "ok": np.bool_(True)})
    write_manifest(str(tmp_path), {"x": 1}, "verify", True, seed=0, threads=1)
    assert strict_loads((tmp_path / "summary.json").read_text()) == {
        "gap": None, "rows": [None, 0.5], "curve": [1.0, None, None], "n": 3, "ok": True}
    manifest = strict_loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == ["summary.json"]
    checked_artifacts(str(tmp_path))
