"""Spans around the public functions of each `curvedfronts` module.

`Tracer.install()` replaces every public function and public method of the
layer modules with a wrapper that records one span per call: name, start,
end, parent span, thread, and two numbers a layer metric needs (a work
count such as points evaluated, and a value such as a returned step
size).  The code imports with `from .x import y`, so each module holds
its own binding of a name; every binding is patched.  Methods are patched
on the class.  Spans are kept in per-thread columns, so pool threads
never interleave their records, and are written once, at exit, by
`Tracer.write`.

`layer_metrics` turns a span file into the per-layer metrics the benchmark
reports.  Self time is computed per thread: a span's self time is its
duration minus that of its children on the same thread.  A span opened on
a pool thread with nothing open on that thread takes as parent the span
open on the main thread, the call that handed it the work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("nonlinearity", "wave_profile", "front_geometry", "hypersurface",
          "barriers", "rd_solver", "diagnostics", "cli_io")

# Entry points: their time is wall_s itself, so a span around them would
# hide how much of it the layers below account for.
SKIP = {"cli_io.main", "cli_io.run"}
# Public in practice though missing from the module's __all__.
EXTRA = {"cli_io": ("write_manifest",)}

EVAL_METHODS = ("wave_profile.WaveProfile.__call__",
                "wave_profile.WaveProfile.one_minus",
                "wave_profile.WaveProfile.log_u",
                "wave_profile.WaveProfile.derivative")


def _size_of_arg(i):
    return lambda args, kwargs, result: (int(np.size(args[i])), math.nan)


def _size_of_result(args, kwargs, result):
    return int(np.size(result)), math.nan


def _parabolic_residual(args, kwargs, result):
    residual, excluded = result
    return int(np.size(residual)), float(np.count_nonzero(excluded))


def _validate_parameters(args, kwargs, result):
    return 0, 1.0 if result.passed else 0.0


def _solve_cauchy(args, kwargs, result):
    return int(args[0].values.size), math.nan


def _resolve_dt(args, kwargs, result):
    return int(np.prod(args[1].counts)), float(result)


def _measure_speed_1d_meta():
    sig = None

    def meta(args, kwargs, result):
        nonlocal sig
        if sig is None:
            from curvedfronts import rd_solver
            sig = inspect.signature(rd_solver.measure_speed_1d)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return len(result.times), float(bound.arguments["sample_dt"])
    return meta


def _write_snapshot(args, kwargs, result):
    return os.path.getsize(args[0]), math.nan


META = {
    "nonlinearity.CombustionNonlinearity.__call__": _size_of_arg(1),
    **{name: _size_of_arg(1) for name in EVAL_METHODS},
    "hypersurface.ScaledSurface.solve_phi": _size_of_result,
    "barriers.parabolic_residual": _parabolic_residual,
    "barriers.validate_parameters": _validate_parameters,
    "front_geometry.polyhedron_face_distance": _size_of_result,
    "rd_solver.solve_cauchy": _solve_cauchy,
    "rd_solver.SolverConfig.resolve_dt": _resolve_dt,
    "rd_solver.measure_speed_1d": _measure_speed_1d_meta(),
    "rd_solver.boundary": _size_of_result,
    "rd_solver.floor": _size_of_result,
    "cli_io.write_snapshot": _write_snapshot,
}

# The callables these factories return are traced under their own name.
FACTORIES = {"rd_solver.make_boundary": "rd_solver.boundary",
             "rd_solver.subsolution_floor": "rd_solver.floor"}


class _Columns:
    """Span records of one thread, one array per field."""

    def __init__(self, index: int):
        self.index = index
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.value = array("d")
        self.stack = []


class Tracer:
    def __init__(self):
        self.names = []
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._main = self._columns()

    # -- recording ---------------------------------------------------------

    def _columns(self) -> _Columns:
        cols = getattr(self._local, "cols", None)
        if cols is None:
            with self._lock:
                cols = _Columns(len(self._threads))
                self._threads.append(cols)
            self._local.cols = cols
        return cols

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        ix = self._name_index(name)
        meta = META.get(name)
        product = FACTORIES.get(name)
        local = self._local
        main = self._main
        clock = time.perf_counter
        columns = self._columns

        def traced(*args, **kwargs):
            cols = getattr(local, "cols", None) or columns()
            stack = cols.stack
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = -1 if cols is main else main.stack[-1]
                except IndexError:
                    parent = -1
            row = len(cols.start)
            cols.name.append(ix)
            cols.parent.append(parent)
            cols.end.append(0.0)
            cols.points.append(0)
            cols.value.append(math.nan)
            stack.append((cols.index << 40) | row)
            cols.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                cols.end[row] = clock()
                stack.pop()
            if meta is not None:
                cols.points[row], cols.value[row] = meta(args, kwargs, result)
            if product is not None:
                result = self.wrap(result, product)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Patch every public function and method of the layer modules,
        in every `curvedfronts` module namespace that binds it."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"curvedfronts.{layer}")
            names = list(getattr(mod, "__all__", ())) + list(EXTRA.get(layer, ()))
            for attr in names:
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                full = f"{layer}.{attr}"
                if inspect.isfunction(obj) and full not in SKIP:
                    originals[id(obj)] = (obj, self.wrap(obj, full))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                not meth.startswith("_") or meth == "__call__"):
                            setattr(obj, meth, self.wrap(fn, f"{full}.{meth}"))
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if not (modname == "curvedfronts" or modname.startswith("curvedfronts.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    # -- output ------------------------------------------------------------

    def write(self, path: str, run_id: str, t_start: float, t_end: float) -> None:
        """Write all spans as columns of one .npz file.  Parent ids become
        row numbers in the concatenated columns (-1: no parent); times are
        seconds from t_start, and every span carries the run id."""
        threads = list(self._threads)
        offsets = np.cumsum([0] + [len(c.start) for c in threads])
        parent = np.concatenate([np.frombuffer(c.parent, dtype=np.int64)
                                 for c in threads])
        has_parent = parent >= 0
        p_thread = parent[has_parent] >> 40
        p_row = parent[has_parent] & ((1 << 40) - 1)
        parent[has_parent] = offsets[p_thread] + p_row

        def cat(field, dtype):
            return np.concatenate([np.frombuffer(getattr(c, field), dtype=dtype)
                                   for c in threads])

        np.savez(path,
                 run_id=np.str_(run_id),
                 names=np.array(self.names),
                 name=cat("name", np.int32),
                 parent=parent,
                 thread=np.repeat(np.arange(len(threads)),
                                  [len(c.start) for c in threads]),
                 start=cat("start", np.float64) - t_start,
                 end=cat("end", np.float64) - t_start,
                 points=cat("points", np.int64),
                 value=cat("value", np.float64),
                 wall=np.float64(t_end - t_start))


# -- per-layer metrics ---------------------------------------------------------


class Spans:
    """Read-only view of one span file with per-name selections."""

    def __init__(self, path: str):
        with np.load(path) as z:
            # a factory registers its product's name once per call, so
            # names repeat; spans carry a code per distinct name
            self.names, codes = np.unique(z["names"], return_inverse=True)
            self.code = codes[z["name"]]
            self.parent = z["parent"]
            self.thread = z["thread"]
            self.start = z["start"]
            self.end = z["end"]
            self.points = z["points"]
            self.value = z["value"]
            self.wall = float(z["wall"])
        self.dur = self.end - self.start
        has = self.parent >= 0
        same = has.copy()
        same[has] = self.thread[self.parent[has]] == self.thread[has]
        child_time = np.bincount(self.parent[same], weights=self.dur[same],
                                 minlength=len(self.dur))
        self.self_time = self.dur - child_time
        self.parent_code = np.full(len(self.dur), -1)
        self.parent_code[has] = self.code[self.parent[has]]

    def _codes(self, names) -> list:
        return [i for i, n in enumerate(self.names) if n in names]

    def name_of(self, rows) -> np.ndarray:
        return self.names[self.code[rows]]

    def sel(self, *names) -> np.ndarray:
        return np.isin(self.code, self._codes(names))

    def busy(self, *names) -> float:
        return float(self.dur[self.sel(*names)].sum())

    def self_s(self, *names) -> float:
        return float(self.self_time[self.sel(*names)].sum())

    def calls(self, *names) -> int:
        return int(self.sel(*names).sum())

    def points_of(self, *names) -> int:
        return int(self.points[self.sel(*names)].sum())

    def children(self, child: str, parent: str) -> np.ndarray:
        return self.sel(child) & np.isin(self.parent_code, self._codes((parent,)))


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def solver_counts(s: Spans) -> tuple:
    """(steps, cell_updates, solver busy seconds).

    A 2D run calls its boundary callable once at the start of each
    `solve_cauchy` and once per explicit Euler step.  The 1D speed run
    calls no factory-made callable, so its steps come from the returned
    `SpeedFit.times` and the step size `SolverConfig.resolve_dt` gave it.
    """
    steps = 0
    updates = 0
    rows = np.nonzero(s.sel("rd_solver.solve_cauchy"))[0]
    bnd = s.sel("rd_solver.boundary")
    for r in rows:
        n = int(np.count_nonzero(bnd & (s.parent == r))) - 1
        steps += n
        updates += n * int(s.points[r])
    dts = s.sel("rd_solver.SolverConfig.resolve_dt")
    for r in np.nonzero(s.sel("rd_solver.measure_speed_1d"))[0]:
        kids = np.nonzero(dts & (s.parent == r))[0]
        k = kids[-1]
        n = int(s.points[r]) * int(round(s.value[r] / s.value[k]))
        steps += n
        updates += n * int(s.points[k])
    busy = s.busy("rd_solver.solve_cauchy", "rd_solver.measure_speed_1d")
    return steps, updates, busy


def layer_metrics(path: str) -> dict:
    """Per-layer metrics of one traced repetition, by metric name."""
    s = Spans(path)
    steps, updates, solver_busy = solver_counts(s)
    eval_points = s.points_of(*EVAL_METHODS)
    eval_busy = s.busy(*EVAL_METHODS)
    f = "nonlinearity.CombustionNonlinearity.__call__"
    phi = "hypersurface.ScaledSurface.solve_phi"
    pr = "barriers.parabolic_residual"
    pfd = "front_geometry.polyhedron_face_distance"
    rungs = s.children("barriers.validate_parameters", "barriers.auto_parameters")
    samples = s.points_of(pr)
    top = (s.parent < 0) & (s.thread == 0)
    m = {
        "wave_profile.find_wave_speed.busy_s": s.busy("wave_profile.find_wave_speed"),
        "wave_profile.shoot_p.calls": s.calls("wave_profile.shoot_p"),
        "wave_profile.build_profile.self_s": s.self_s("wave_profile.build_profile"),
        "wave_profile.eval.points": eval_points,
        "wave_profile.eval.busy_s": eval_busy,
        "wave_profile.eval.ns_per_point": 1e9 * _ratio(eval_busy, eval_points),
        "nonlinearity.f.calls": s.calls(f),
        "nonlinearity.f.points": s.points_of(f),
        "nonlinearity.f.busy_s": s.busy(f),
        "nonlinearity.f.ns_per_point": 1e9 * _ratio(s.busy(f), s.points_of(f)),
        "hypersurface.solve_phi.calls": s.calls(phi),
        "hypersurface.solve_phi.points": s.points_of(phi),
        "hypersurface.solve_phi.busy_s": s.busy(phi),
        "hypersurface.solve_phi.ns_per_point": 1e9 * _ratio(s.busy(phi), s.points_of(phi)),
        "hypersurface.solve_phi.iterations": int(
            s.children("hypersurface.ScaledSurface.q_at", phi).sum()),
        "hypersurface.derivatives.busy_s": s.busy("hypersurface.ScaledSurface.derivatives"),
        "barriers.auto_parameters.busy_s": s.busy("barriers.auto_parameters"),
        "barriers.ladder.rungs": int(rungs.sum()),
        "barriers.ladder.passed_frac": _ratio(np.nansum(s.value[rungs]), rungs.sum()),
        "barriers.validate_parameters.self_s": s.self_s("barriers.validate_parameters"),
        "barriers.parabolic_residual.samples": samples,
        "barriers.parabolic_residual.samples_per_s": _ratio(samples, s.busy(pr)),
        "barriers.upper.busy_s": s.busy("barriers.BarrierSet.upper"),
        "barriers.time_upper.busy_s": s.busy("barriers.BarrierSet.time_upper"),
        "barriers.fit_time_term_constant.busy_s": s.busy("barriers.fit_time_term_constant"),
        "barriers.excluded_frac": _ratio(np.nansum(s.value[s.sel(pr)]), samples),
        "rd_solver.steps": steps,
        "rd_solver.cell_updates": updates,
        "rd_solver.mcups": 1e-6 * _ratio(updates, solver_busy),
        "rd_solver.stencil.busy_s": s.self_s("rd_solver.solve_cauchy",
                                             "rd_solver.measure_speed_1d"),
        "rd_solver.floor.calls": s.calls("rd_solver.floor"),
        "rd_solver.floor.busy_s": s.busy("rd_solver.floor"),
        "rd_solver.boundary.busy_s": s.busy("rd_solver.boundary"),
        "front_geometry.polyhedron_face_distance.points": s.points_of(pfd),
        "front_geometry.polyhedron_face_distance.points_per_s":
            _ratio(s.points_of(pfd), s.busy(pfd)),
        "front_geometry.min_q.busy_s": s.busy("front_geometry.min_q"),
        "cli_io.write_snapshot.bytes": s.points_of("cli_io.write_snapshot"),
        "cli_io.write_snapshot.busy_s": s.busy("cli_io.write_snapshot"),
        "cli_io.write_manifest.busy_s": s.busy("cli_io.write_manifest"),
        "trace.wall_s": s.wall,
        "trace.coverage": _ratio(s.dur[top].sum(), s.wall),
    }
    for name in ("sandwich_and_monotonicity", "extract_interface_and_Meps",
                 "mean_speed_estimate", "weighted_gap_report",
                 "half_level_cross_check"):
        m[f"diagnostics.{name}.busy_s"] = s.busy(f"diagnostics.{name}")
    return m
