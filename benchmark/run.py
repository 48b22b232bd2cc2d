"""End-to-end and per-layer benchmark of the `curvedfronts` CLI.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --workload all [--seconds <s>] [--trace 1] [--write <file>]

Each repetition is a fresh interpreter (benchmark/child.py) that imports
`curvedfronts.cli_io` and calls `main([...])` on the workload's config,
writing into a fresh output directory under `.bench_run/`.  Repetitions run
one at a time; another starts only while the previous one's duration still
fits in `--seconds`, and at least one always runs.  Every repetition's
artifacts are checked against the seed's scientific results
(workloads.reference_problems); a run that exits nonzero or fails the
check counts as failed.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics, as medians over the repetitions: wall_s, cpu_s,
peak_rss_mb, and setup_s over the repetitions' imports and 2 x
SETUP_IMPORTS import-only processes.  With `--trace 1` each cycle runs one
untraced and one traced repetition (for entire_mt also a traced one at 1
thread) and the JSON holds the per-layer metrics of tracer.layer_metrics,
medians over the traced repetitions, plus the tracing overhead.
`--workload all` runs every workload and prints a table; `--write` saves
it with the environment as JSON.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# BLAS pools would otherwise size themselves from the machine, on both
# commits alike; the solver's own threads come from --threads.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"
SETUP_IMPORTS = 3  # import-only processes before, and again after, the reps
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children die past this

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env.pop("CFL_THREADS", None)
    return env


def environment(seed) -> dict:
    """Machine and toolchain facts recorded with the results."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            def read(field, entry=entry):
                with open(os.path.join(base, entry, field)) as fh:
                    return fh.read().strip()
            caches[f"L{read('level')}_{read('type').lower()}"] = read("size")
        except OSError:
            continue
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "seed": seed,
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
    }


class Runner:
    """Runs repetitions in fresh processes under one output directory."""

    def __init__(self, seed: int, t_limit: float):
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"run-{seed}-", dir=WORK)
        self.seed = seed
        self.t_limit = t_limit
        self.env = child_env()
        self.count = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _spawn(self, argv, spans=None) -> dict | None:
        """Run child.py on one spec; None if it failed or was killed."""
        self.count += 1
        tag = os.path.join(self.dir, f"rep{self.count}")
        spec = {"src": SRC, "argv": argv, "result": tag + ".result.json",
                "spans": spans,
                "run_id": f"{os.path.basename(self.dir)}-rep{self.count}"}
        with open(tag + ".spec.json", "w") as fh:
            json.dump(spec, fh)
        with open(tag + ".out", "w") as out, open(tag + ".err", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"),
                 tag + ".spec.json"], stdout=out, stderr=err, env=self.env,
                cwd=ROOT)
            status = None
            try:
                while status is None:
                    pid, st, ru_now = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        status, ru = st, ru_now
                    elif time.monotonic() > self.t_limit:
                        break
                    else:
                        time.sleep(0.02)
            finally:
                if status is None:  # past the run's time limit, or interrupted
                    proc.send_signal(signal.SIGKILL)
                    _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            return None
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result["peak_rss_mb"] = ru.ru_maxrss / 1024.0
        with open(tag + ".out") as fh:
            lines = fh.read().strip().splitlines()
        result["run_dir"] = lines[-1] if lines else None
        return result

    def setup_only(self) -> float | None:
        r = self._spawn(None)
        return None if r is None else r["setup_s"]

    def rep(self, name: str, spans: str | None = None,
            threads: int | None = None) -> dict:
        """One CLI repetition with its reference check."""
        out = tempfile.mkdtemp(prefix=f"{name}-", dir=self.dir)
        cfg = os.path.join(out, "config.json")
        workloads.write_config(name, cfg)
        argv = workloads.cli_argv(name, cfg, out, self.seed, threads)
        r = self._spawn(argv, spans)
        if r is None:
            return {"ok": False, "problems": ["child process failed"]}
        problems = []
        if r["exit_code"] != 0:
            problems.append(f"exit code {r['exit_code']}")
        if r["run_dir"] and os.path.isdir(r["run_dir"]):
            problems += workloads.reference_problems(name, r["run_dir"])
            r["artifact_bytes"] = sum(
                os.path.getsize(os.path.join(r["run_dir"], f))
                for f in os.listdir(r["run_dir"]))
        else:
            problems.append("no run directory")
        shutil.rmtree(out, ignore_errors=True)
        r.update(ok=not problems, problems=problems)
        return r


def traced_rep(runner: Runner, name: str, threads: int) -> dict:
    """A traced repetition with its per-layer metrics.  The span file is
    kept under .bench_run/spans, the latest one per workload and thread
    count."""
    from tracer import layer_metrics
    span_dir = os.path.join(WORK, "spans")
    os.makedirs(span_dir, exist_ok=True)
    path = os.path.join(span_dir, f"{name}-{threads}thread.npz")
    r = runner.rep(name, spans=path, threads=threads)
    if "wall_s" in r:
        r["layers"] = layer_metrics(path)
    return r


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one run and the metrics they give."""
    t0 = time.monotonic()
    runner = Runner(seed, t0 + RUN_LIMIT_S)
    reps, traced, single = [], [], []
    setups = []

    def imports():
        # spread before and after the repetitions, so that one slow spell
        # of a shared machine does not set the median
        for _ in range(SETUP_IMPORTS):
            s = runner.setup_only()
            if s is None:
                raise RuntimeError("importing curvedfronts.cli_io failed")
            setups.append(s)

    try:
        if not trace:
            imports()
        threads = workloads.WORKLOADS[name]["threads"]
        while True:
            c0 = time.monotonic()
            reps.append(runner.rep(name))
            if trace:
                traced.append(traced_rep(runner, name, threads))
                if threads != 1:
                    single.append(traced_rep(runner, name, 1))
            now = time.monotonic()
            if now + (now - c0) > t0 + seconds or now > t0 + RUN_LIMIT_S / 2:
                break
        if not trace:
            imports()
    finally:
        runner.close()

    every = reps + traced + single
    # a failed repetition still took its time; "failed" reports it
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        raise RuntimeError(f"no repetition of {name} ran to the end")
    result = {
        "workload": name,
        "attempted": len(every),
        "failed": sum(not r["ok"] for r in every),
        "problems": sorted({p for r in every for p in r["problems"]}),
        "repetitions": len(reps),
    }
    if not trace:
        setups += [r["setup_s"] for r in timed]
        result["end_to_end"] = {
            "wall_s": statistics.median([r["wall_s"] for r in timed]),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median([r["cpu_s"] for r in timed]),
            "peak_rss_mb": statistics.median(
                [r["peak_rss_mb"] for r in timed]),
        }
        return result

    layers = [r for r in traced if "layers" in r]
    mcups1 = [r["layers"]["rd_solver.mcups"] for r in single if "layers" in r]
    if not layers or (single and not mcups1):
        raise RuntimeError(f"no traced repetition of {name} ran to the end")
    per_layer = {k: statistics.median([r["layers"][k] for r in layers])
                 for k in layers[0]["layers"]}
    per_layer["rd_solver.mcups_1thread"] = statistics.median(mcups1) if single \
        else per_layer["rd_solver.mcups"]
    per_layer["cli_io.artifact_bytes"] = statistics.median(
        [r.get("artifact_bytes", 0) for r in layers])
    per_layer["trace.overhead"] = per_layer["trace.wall_s"] / statistics.median(
        [r["wall_s"] for r in timed])
    result["per_layer"] = per_layer
    return result


def _numbers(values: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists for the section, with units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC[section]}


def run_all(seconds: float, seed: int, trace: bool, write: str | None) -> int:
    table = {"environment": environment(seed), "seconds": seconds,
             "workloads": {}}
    sections = ["end_to_end"] + (["per_layer"] if trace else [])
    for name in workloads.WORKLOADS:
        rec = measure(name, seed, seconds, trace=False)
        if trace:
            tr = measure(name, seed, seconds, trace=True)
            rec["per_layer"] = tr["per_layer"]
            for k in ("attempted", "failed", "problems"):
                rec[k] += tr[k]
        rec["fail_frac"] = rec["failed"] / rec["attempted"]
        table["workloads"][name] = rec
        rows = [(m["name"], rec[s][m["name"]], m["unit"])
                for s in sections for m in SPEC[s]]
        for k, v, unit in rows + [("fail_frac", rec["fail_frac"], "ratio")]:
            print(f"{name:10s} {k:52s} {v:14.6g} {unit}")
        for p in rec["problems"]:
            print(f"{name:10s} problem: {p}")
    if write:
        with open(write, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
    return 0 if all(r["failed"] == 0 for r in table["workloads"].values()) else 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write", help="with --workload all: save results here")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "curvedfronts", "cli_io.py")):
        print(f"benchmark: no curvedfronts sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seconds, args.seed, bool(args.trace), args.write)

    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for p in rec["problems"]:
        print(f"problem: {p}")
    print(json.dumps({"environment": environment(args.seed),
                      "repetitions": rec["repetitions"]}))
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({"correct": rec["failed"] == 0,
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": _numbers(rec[section], section)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
