"""Checks of the benchmark itself: the reference check rejects perturbed
artifacts, and the tracer sees every layer call on a small run.

    python3 -m pytest benchmark -q
"""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Spans, layer_metrics  # noqa: E402

C = workloads.C

# Detail artifacts with the fields the reference check reads, at the
# seed's values.
GOOD = {
    "certify": {"passed": True, "min_residual_upper": 3.1e-9,
                "params": {"alpha": workloads.CERTIFY_ALPHA}},
    "verify": {"verdict": {"passed": True},
               "sandwich_and_monotonicity": {"lower_violation": 0.0},
               "mean_speed": {"gamma_hat": C * 1.001}},
    "speed1d": {"passed": True,
                "rows": [{"theta": 0.3, "c_shooting": C, "c_measured": C * 1.004,
                          "rel_err": 0.004}]},
    "entire_mt": {"passed": True, "monotone_in_n": True, "lower_gap_min": 0.0},
}

PERTURBED = [
    ("certify", ("passed",), False),
    ("certify", ("min_residual_upper",), -1e-9),
    ("certify", ("params", "alpha"), workloads.CERTIFY_ALPHA / 2),
    ("verify", ("verdict", "passed"), False),
    ("verify", ("sandwich_and_monotonicity", "lower_violation"), 1e-9),
    ("verify", ("mean_speed", "gamma_hat"), C * 1.03),
    ("speed1d", ("passed",), False),
    ("speed1d", ("rows", 0, "c_shooting"), C + 1e-9),
    ("speed1d", ("rows", 0, "rel_err"), 0.02),
    ("entire_mt", ("passed",), False),
    ("entire_mt", ("monotone_in_n",), False),
    ("entire_mt", ("lower_gap_min",), -1e-9),
]


def _write_detail(tmp_path, name, detail):
    path = tmp_path / workloads.WORKLOADS[name]["detail"]
    path.write_text(json.dumps(detail))
    return str(tmp_path)


@pytest.mark.parametrize("name", sorted(GOOD))
def test_reference_check_accepts_seed_values(tmp_path, name):
    assert workloads.reference_problems(name, _write_detail(tmp_path, name, GOOD[name])) == []


@pytest.mark.parametrize("name,keys,value", PERTURBED)
def test_reference_check_rejects_perturbed_artifact(tmp_path, name, keys, value):
    detail = copy.deepcopy(GOOD[name])
    target = detail
    for k in keys[:-1]:
        target = target[k]
    target[keys[-1]] = value
    problems = workloads.reference_problems(name, _write_detail(tmp_path, name, detail))
    assert problems and all(p.startswith(f"{name}:") for p in problems)


def test_reference_check_rejects_missing_artifact(tmp_path):
    assert workloads.reference_problems("verify", str(tmp_path))


def test_traced_small_entire_run(tmp_path):
    """A 64x64 `entire` run at 2 threads: every step and pool-thread
    reaction call is seen, and the layer spans cover the call."""
    cfg = copy.deepcopy(workloads.WORKLOADS["entire_mt"]["config"])
    cfg["solver"].update(box={"counts": [64, 64], "origin": [-16.0, -20.0]},
                         T=1.0 / C, snapshot_interval=0.5 / C)
    cfg["experiment"] = {"n_list": [2.0 / C, 4.0 / C]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    spans = str(tmp_path / "spans.npz")
    spec = {"src": os.path.join(os.path.dirname(HERE), "src"),
            "argv": ["entire", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path), "--threads", "2"],
            "result": str(tmp_path / "result.json"), "spans": spans,
            "run_id": "small-entire"}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                    str(tmp_path / "spec.json")], check=True, timeout=300,
                   capture_output=True)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_code"] == 0

    s = Spans(spans)
    m = layer_metrics(spans)
    # two runs (n = 2/c, 4/c), each a march to t = 0 and a window of 2
    # snapshots; one floor call per step
    cauchy = s.sel("rd_solver.solve_cauchy")
    assert cauchy.sum() == 4
    assert m["rd_solver.steps"] == s.children("rd_solver.floor", "rd_solver.solve_cauchy").sum()
    assert m["rd_solver.cell_updates"] == m["rd_solver.steps"] * 64 * 64
    # the reaction runs on pool threads, under the solver call that
    # handed it the work
    f = s.sel("nonlinearity.CombustionNonlinearity.__call__")
    assert f.any() and np.all(s.thread[f] != 0)
    assert np.all(s.name_of(s.parent[f]) == "rd_solver.solve_cauchy")
    assert np.all(s.self_time >= -1e-9)
    # the from-import bindings in cli_io were patched too
    assert s.calls("cli_io.write_snapshot") == 3
    assert m["cli_io.write_snapshot.bytes"] == 3 * (45 + 8 * 64 * 64)
    assert m["wave_profile.shoot_p.calls"] > 0
    assert m["trace.coverage"] >= 0.9
    with np.load(spans) as z:
        assert str(z["run_id"]) == "small-entire"
