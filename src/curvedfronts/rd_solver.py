"""Explicit finite-difference solver for u_t - Lap u = f(u) on boxes.

Supports 1D/2D/3D uniform grids and one update, forward Euler with
dt (2N/dx^2 + L) <= 1, L = sup |f'|: each cell's weight on itself is >= 0,
so the update preserves order, as the floor and the comparisons below need,
and keeps [0, 1]; as dt = O(dx^2), its O(dt) error is the stencil's O(dx^2).
The subsolution max_i U(q_i) of the planar waves is the one object the runs
are compared against: subsolution_floor gives its grid values (the floor and
each run's initial state) and make_boundary its values on the boundary ring
(the Dirichlet data), both from front_geometry's min_q, so comparisons with
the analytic barriers carry over to the discrete runs.  The floor evaluates
U once per distinct value of min_i q_i, kept for the last time asked, and
gathers the grid.  solve_cauchy holds it between refreshes HOLD_STEPS steps
apart: U(q - c t) rises with t, so it stays a lower bound that never falls.

Each step is one pass over cache-sized blocks of leading-axis rows (about
BLOCK_CELLS cells each), swept as flat ranges with each axis's neighbours
at -+ its stride, so each ufunc makes one contiguous pass (the ring data
overwrite the ring cells in a range).  With several workers the blocks run
on a thread pool, and a floored step first hands the pool one task that
evaluates the ring data at the step's end time and the floor at its refresh
time: neither depends on the new state, so it runs beside the sweep instead
of after it.  Every cell's update is the same sequence of elementwise
floating-point operations whichever block or thread computes it, and the
only reductions (the blow-up check, once per snapshot) are a min and a max,
which are exact, so results are bit-identical for any block layout and any
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .front_geometry import FrontConfiguration, min_q, subsolution_lower
from .nonlinearity import CombustionNonlinearity
from .wave_profile import WaveProfile

__all__ = [
    "Grid",
    "Field",
    "SolverConfig",
    "make_boundary",
    "subsolution_floor",
    "solve_cauchy",
    "entire_solution",
    "EntireSolutionResult",
    "measure_speed_1d",
    "SpeedFit",
]

BLOCK_CELLS = 32768  # cells per row block: 256 KiB per float64 array
CFL_SAFETY = 0.8  # fraction of the monotone step bound 1 / (2N/dx^2 + L)
HOLD_STEPS = 32  # steps between floor refreshes within a snapshot interval
SPEED_MAX_TIME = 20000.0  # model time after which measure_speed_1d gives up


@dataclass(frozen=True)
class Grid:
    """Uniform box grid; origin is the coordinate of index 0 on each axis."""

    counts: tuple
    dx: float
    origin: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        origin = tuple(float(o) for o in self.origin)
        if len(counts) not in (1, 2, 3):
            raise ValueError(f"grid must be 1D, 2D or 3D, got {len(counts)} axes")
        if any(c < 16 for c in counts):
            raise ValueError(f"need at least 16 cells per axis, got {counts}")
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if len(origin) != len(counts):
            raise ValueError("origin and counts must have the same length")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "origin", origin)

    @property
    def dimension(self) -> int:
        return len(self.counts)

    def axis(self, k: int) -> np.ndarray:
        return self.origin[k] + self.dx * np.arange(self.counts[k])

    def points(self) -> np.ndarray:
        """All grid coordinates, shape counts + (dimension,)."""
        axes = [self.axis(k) for k in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def ring_indices(self):
        """Flat indices of the boundary ring (all faces), ascending."""
        ring = np.ones(self.counts, dtype=bool)
        ring[(slice(1, -1),) * self.dimension] = False
        return np.nonzero(ring.ravel())[0]


@dataclass
class Field:
    """Scalar state on a grid at one time."""

    grid: Grid
    values: np.ndarray
    time: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.counts:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.counts}")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.time)


@dataclass(frozen=True)
class SolverConfig:
    """Stepping controls: a cap on dt (None: the stability cap), pool size."""

    dt: float | None = None
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def stable_dt(self, grid: Grid, nl: CombustionNonlinearity) -> float:
        """CFL_SAFETY / (2N/dx^2 + L), L = sup |f'|: every cell keeps the
        weight 1 - dt (2N/dx^2 + L) >= 0 on itself, so the update is monotone."""
        lip = nl.max_abs_derivative(-nl.sigma, 1.0 + nl.sigma)
        return CFL_SAFETY / (2.0 * grid.dimension / grid.dx**2 + lip)

    def resolve_dt(self, grid: Grid, nl: CombustionNonlinearity,
                   snap_dt: float) -> float:
        """The largest dt that splits snap_dt into whole steps and exceeds
        neither the stability cap nor a set dt, which must lie under it."""
        cap = self.stable_dt(grid, nl)
        if self.dt is not None:
            if self.dt > cap * (1.0 + 1e-12):
                raise ValueError(f"dt={self.dt} violates the stability cap {cap}")
            cap = self.dt
        # round, not ceil: snap_dt / cap can be a whole number plus an ulp
        steps = max(1, round(snap_dt / cap))
        if snap_dt / steps > cap:
            steps += 1
        return snap_dt / steps


def _snapshot_count(t0: float, t_end: float, snapshot_dt: float) -> int:
    """Snapshot intervals from t0 to t_end; a ValueError unless they tile
    it up to a relative 1e-9 plus the rounding of the endpoints."""
    span = t_end - t0
    n = round(span / snapshot_dt)
    slack = 1e-9 * max(1.0, abs(span)) + 2.0 * np.spacing(abs(t0) + abs(span))
    if abs(n * snapshot_dt - span) > slack:
        raise ValueError(
            f"span {span} is not an integer multiple of snapshot_dt {snapshot_dt}")
    return n


def subsolution_floor(cfg: FrontConfiguration, profile: WaveProfile,
                      grid: Grid):
    """Floor callable t -> max_i U(q_i) on the grid, a new array per call.

    All facets move with the same speed, so min_q(t) = base - c*t with
    base = min_q(0), bit for bit.  The sorted distinct values of base and
    their map to the grid are kept; at a new t the profile fills a held
    buffer from the shifted values, still ascending, in three slices, and
    each call gathers a new grid from it with the bits of subsolution_lower;
    calls must not overlap, as they share the buffer.
    """
    pts = grid.points().reshape(-1, grid.dimension)
    uq, inv = np.unique(min_q(cfg, 0.0, pts), return_inverse=True)
    inv, c = inv.reshape(grid.counts), cfg.speed
    held, held_t = np.empty_like(uq), None

    def floor(t):
        nonlocal held_t
        if t != held_t:
            held_t = None  # a failed evaluation leaves no stale entry
            profile(uq - c * t, ascending=True, out=held)
            held_t = t
        return held.take(inv)
    return floor


def make_boundary(cfg: FrontConfiguration, profile: WaveProfile):
    """Dirichlet data callable (t, points) -> max_i U(q_i(t, points)): the
    subsolution on the boundary ring."""
    return lambda t, pts: subsolution_lower(cfg, profile, t, pts)


def _row_blocks(counts: tuple):
    """Interior leading-axis rows in flat [lo, hi) ranges of about
    BLOCK_CELLS cells; the layout depends on the grid alone."""
    s0 = math.prod(counts[1:])
    edges = list(range(s0, (counts[0] - 1) * s0, max(1, BLOCK_CELLS // s0) * s0))
    return list(zip(edges, edges[1:] + [(counts[0] - 1) * s0]))


class _Stepper:
    """Cache-blocked explicit stepper with a double-buffered state.

    Each step is one pass over the row blocks (flat ranges); a block computes
    Lap u + f(u) on its cells, ring cells too, and writes the update straight
    into the output buffer, out = u + dt * (Lap u + f(u)).  The optional floor
    callable t -> grid-shaped values is applied as a pointwise max after
    each completed step; with a pool (workers > 1) the blocks, and the floor
    and ring task before them, run on it.  The plain
    scheme transports fronts at a slightly wrong discrete speed, so the
    subsolution is not preserved under discretization; flooring by it
    restores the comparison structure (the floored update is still a
    monotone map), which the entire-solution iteration relies on.
    """

    def __init__(self, grid: Grid, nl: CombustionNonlinearity, dt: float,
                 boundary, workers: int = 1, floor=None):
        self.nl = nl
        self.dt = dt
        self.boundary = boundary
        self.floor = floor
        self.inv_dx2 = 1.0 / grid.dx**2
        self.ring = grid.ring_indices()
        self.ring_points = grid.points().reshape(-1, grid.dimension)[self.ring]
        self.blocks = _row_blocks(grid.counts)
        self.strides = tuple(math.prod(grid.counts[k + 1:]) for k in range(grid.dimension))
        self.pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
        self.buffers = (np.empty(grid.counts), np.empty(grid.counts))

    def close(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    def _block(self, lo, hi, u, out):
        """out = u + dt * (Lap u + f(u)) on lo:hi of the flattened state, one
        pass, neighbours at -+ each stride; ring data overwrite ring cells."""
        s0 = self.strides[0]
        ui = u[lo:hi]
        rhs = u[lo - s0:hi - s0] + u[lo + s0:hi + s0]
        for s in self.strides[1:]:
            rhs += u[lo - s:hi - s]
            rhs += u[lo + s:hi + s]
        rhs -= 2.0 * len(self.strides) * ui
        rhs *= self.inv_dx2
        rhs += self.nl(ui)
        rhs *= self.dt
        np.add(ui, rhs, out=out[lo:hi])

    def _sweep(self, u, out):
        u, out = u.reshape(-1), out.reshape(-1)  # out is a stepper buffer, so a view
        if self.pool is None:
            for lo, hi in self.blocks:
                self._block(lo, hi, u, out)
        else:  # map queues every block before it waits on the first
            list(self.pool.map(lambda b: self._block(*b, u, out), self.blocks))

    def _ring_and_floor(self, t, t_floor):
        """Ring data at time t, floor values (None without a floor) at t_floor."""
        return self.boundary(t, self.ring_points), self.floor and self.floor(t_floor)

    def advance(self, values: np.ndarray, t_new: float, t_floor) -> np.ndarray:
        """One step of length dt ending at time t_new; returns the new state.

        The ring is evaluated at t_new and the floor at t_floor.  On a pool,
        a floored step evaluates both in one task submitted before the sweep,
        and they are applied after it, in the same order as without a pool.
        values is only read.  The result is one of the stepper's two buffers,
        whichever values is not, so it stays valid while it is fed back in
        and is overwritten two steps later; a caller that keeps a state
        longer must copy it.
        """
        a, b = self.buffers
        new = a if values is b else b
        pending = None
        if self.pool is not None and self.floor is not None:
            pending = self.pool.submit(self._ring_and_floor, t_new, t_floor)
        self._sweep(values, new)
        ring, floor = pending.result() if pending else self._ring_and_floor(t_new, t_floor)
        new.ravel()[self.ring] = ring
        if floor is not None:
            np.maximum(new, floor, out=new)
        return new


def solve_cauchy(u0: Field, nl: CombustionNonlinearity, boundary,
                 config: SolverConfig, t_end: float, snapshot_dt: float, floor=None,
                 keep_all: bool = True) -> list:
    """March from u0.time to t_end, returning snapshots.

    Snapshots are taken at u0.time + k * snapshot_dt, which must tile the
    span exactly (resolve_dt picks a step that divides snapshot_dt, so
    snapshot times are exact), and the last one at t_end itself, which
    that sum can miss by ulps; keep_all=False retains only the first and
    final snapshot.  Aborts at the first snapshot where some u is outside
    [-2, 2] or NaN (blow-up can only come from a mis-set step or
    boundary; the PDE itself preserves [0,1]).  A step applies the floor
    at its last refresh, each HOLD_STEPS-th step from a snapshot's start and
    each snapshot's last step: U(base - c t) rises with t, so the held floor
    is a lower bound of floor(t) that never decreases, and as with a fresh
    floor the floored map keeps order and a run from a floor rises in time.
    """
    t0 = u0.time
    span = t_end - t0
    if span <= 0:
        return [u0.copy()]
    n_snaps = _snapshot_count(t0, t_end, snapshot_dt)
    dt = config.resolve_dt(u0.grid, nl, snapshot_dt)
    steps_per_snap = round(snapshot_dt / dt)

    st = _Stepper(u0.grid, nl, dt, boundary, config.workers, floor=floor)
    try:
        # advance never writes into its input, so this copy can be kept;
        # later states live in the stepper's buffers and are copied out
        values = u0.values.copy()
        values.ravel()[st.ring] = boundary(t0, st.ring_points)
        out = [Field(u0.grid, values, t0)]
        t_floor = t0
        for k in range(n_snaps):
            t_snap0 = t0 + k * snapshot_dt
            t_now = t_end if k == n_snaps - 1 else t0 + (k + 1) * snapshot_dt
            for j in range(steps_per_snap):
                last = j == steps_per_snap - 1
                # the last step ends exactly at the snapshot's recorded time and
                # refreshes the floor, so a snapshot sits on or above floor(t_now)
                t_new = t_now if last else t_snap0 + j * dt + dt
                t_floor = t_new if last or (j + 1) % HOLD_STEPS == 0 else t_floor
                values = st.advance(values, t_new, t_floor)
            # written so that NaN fails it: a NaN compares False both ways
            if not (values.min() >= -2.0 and values.max() <= 2.0):
                raise RuntimeError(
                    f"blow-up detected by t={t_now:.6f}: |u| exceeded 2 or is NaN")
            if keep_all or k == n_snaps - 1:
                out.append(Field(u0.grid, values.copy(), t_now))
    finally:
        st.close()
    return out


@dataclass
class EntireSolutionResult:
    """The deepest run of the increasing-start iteration on the window.

    v_hat holds its window snapshots.  report holds, in order: n_list,
    window_end, lower_gap_min, strict_lower_gap_min, max_value,
    max_below_saturation, increments_sup (sup-norm gaps between consecutive
    runs), monotone_in_n, monotonicity_worst (most negative pointwise
    increment) and time_derivative_min (min discrete du/dt over the window).
    """

    v_hat: list                       # Field snapshots of the deepest run
    report: dict


def entire_solution(cfg: FrontConfiguration, profile: WaveProfile,
                    nl: CombustionNonlinearity, grid: Grid,
                    config: SolverConfig, n_list, window_end: float,
                    snapshot_dt: float) -> EntireSolutionResult:
    """Monotone approximation of the entire solution on [0, window_end].

    Each run starts at t = -n from the subsolution floor max_i U(q_i), with
    the subsolution as Dirichlet data, and is marched into the common
    window.  The floor stays enforced: the plain discrete front speed is
    slightly off c_f, so without it a deeper run can drop below
    max_i U(q_i) by O(dx^2 * elapsed) and the runs would not be ordered;
    with it, run n_{k+1} dominates the floor at t = -n_k, which is exactly
    run n_k's initial state, and ordering on the window follows from
    monotonicity of the floored update map.  Each run is compared with the
    run before as soon as it ends, and only the later one is kept.
    """
    n_list = sorted(float(n) for n in n_list)
    boundary = make_boundary(cfg, profile)
    floor = subsolution_floor(cfg, profile, grid)

    # one explicit dt for every run: the run-vs-run ordering argument needs
    # the exact same update map on the shared time range, and every
    # solve_cauchy call below passes the same snapshot_dt to resolve_dt
    worst = 0.0
    increments = []
    v_hat = None
    for n in n_list:
        # march to the window start, then snapshot through the window
        to_zero = solve_cauchy(Field(grid, floor(-n), -n), nl, boundary, config, 0.0,
                               snapshot_dt=snapshot_dt, floor=floor,
                               keep_all=False)
        snaps = solve_cauchy(to_zero[-1], nl, boundary, config, window_end,
                             snapshot_dt=snapshot_dt, floor=floor)
        if v_hat is not None:
            gap_inf = min(float(np.min(b.values - a.values)) for a, b in zip(v_hat, snaps))
            worst = min(worst, gap_inf)
            increments.append(max(float(np.max(np.abs(b.values - a.values)))
                                  for a, b in zip(v_hat, snaps)))
        v_hat = snaps

    dudt_min = np.inf
    for a, b in zip(v_hat[:-1], v_hat[1:]):
        dudt_min = min(dudt_min, float(np.min((b.values - a.values) / (b.time - a.time))))

    lower_gap = np.inf
    strict_gap = np.inf
    below_one = 0.0
    max_value = 0.0
    for snap in v_hat:
        vk = snap.values
        vlow = floor(snap.time)
        gap = vk - vlow
        lower_gap = min(lower_gap, float(gap.min()))
        # strict inequalities are only meaningful away from values that
        # round to 0 or 1 in double precision
        zone = (vlow > 1e-6) & (vlow < 1.0 - 1e-6)
        if zone.any():
            strict_gap = min(strict_gap, float(gap[zone].min()))
        rep = vlow < 1.0 - 1e-12
        if rep.any():
            below_one = max(below_one, float(vk[rep].max()))
        max_value = max(max_value, float(vk.max()))
    report = {
        "n_list": n_list,
        "window_end": window_end,
        "lower_gap_min": lower_gap,
        "strict_lower_gap_min": strict_gap,
        "max_value": max_value,
        "max_below_saturation": below_one,
        "increments_sup": increments,
        "monotone_in_n": bool(worst >= -1e-10),
        "monotonicity_worst": worst,
        "time_derivative_min": dudt_min,
    }
    return EntireSolutionResult(v_hat=v_hat, report=report)


@dataclass(frozen=True)
class SpeedFit:
    """Front speed fitted from level-set positions."""

    speed: float
    stderr: float
    times: np.ndarray
    positions: np.ndarray


def _half_level_position(x: np.ndarray, u: np.ndarray) -> float:
    """Rightmost downward crossing of u = 1/2, linearly interpolated."""
    above = u >= 0.5
    if not above.any() or above.all():
        raise ValueError("level set not inside the domain")
    idx = np.nonzero(above[:-1] & ~above[1:])[0]
    if idx.size == 0:
        raise ValueError("no downward crossing of the level")
    i = int(idx[-1])
    frac = (u[i] - 0.5) / (u[i] - u[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def measure_speed_1d(nl: CombustionNonlinearity, dx: float = 0.25,
                     length: float = 300.0, sample_dt: float = 2.0) -> SpeedFit:
    """Empirical front speed from a 1D ignition run.

    Starts from step data (1 on the left quarter, 0 elsewhere), keeps the
    left end burned, tracks the half-level crossing every sample_dt,
    discards the first half of the samples as transient, and fits position
    against time by least squares.  The run stops once the front has
    crossed three quarters of the domain, so no reference speed is needed
    up front, and fails if that takes longer than SPEED_MAX_TIME.
    """
    n = int(round(length / dx)) + 1
    grid = Grid(counts=(n,), dx=dx, origin=(0.0,))
    x = grid.axis(0)
    u0 = np.where(x <= length / 4.0, 1.0, 0.0)
    dt = SolverConfig().resolve_dt(grid, nl, sample_dt)
    steps = round(sample_dt / dt)
    ends = np.array([1.0, 0.0])  # the ring data: burned left end, unburned right end
    st = _Stepper(grid, nl, dt, lambda t, pts: ends)
    times = []
    positions = []
    stop_at = 0.75 * length
    values = u0
    t = 0.0
    while t < SPEED_MAX_TIME:
        for _ in range(steps):
            values = st.advance(values, t + dt, None)
            t += dt
        try:
            pos = _half_level_position(x, values)
        except ValueError as exc:
            raise ValueError(f"speed fit rejected: {exc}") from exc
        times.append(t)
        positions.append(pos)
        if pos >= stop_at:
            break
    else:
        raise RuntimeError(
            f"front did not cross the domain within t = {SPEED_MAX_TIME}")
    times = np.asarray(times)
    positions = np.asarray(positions)
    keep = times >= times[len(times) // 2]
    if keep.sum() < 8:
        raise ValueError("domain too short: too few post-transient samples")
    if np.ptp(positions[keep]) < 4.0 * dx:
        raise ValueError("flat level-set trajectory; speed fit rejected")
    coeffs, cov = np.polyfit(times[keep], positions[keep], 1, cov=True)
    return SpeedFit(speed=float(coeffs[0]), stderr=float(np.sqrt(cov[0, 0])),
                    times=times, positions=positions)
