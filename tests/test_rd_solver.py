"""Explicit solver for u_t = Lap u + f(u): grid plumbing, the monotone step
rule, order preservation, planar-wave accuracy, the floor's bits and memory,
worker determinism (the floor and ring evaluated on the pool included),
and the monotone entire-solution construction."""

import itertools
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvedfronts import (
    BarrierParams,
    BarrierSet,
    Field,
    FrontConfiguration,
    Grid,
    SolverConfig,
    entire_solution,
    make_boundary,
    make_combustion,
    measure_speed_1d,
    min_q,
    solve_cauchy,
    subsolution_floor,
    symmetric_v,
)
from curvedfronts import rd_solver
from curvedfronts.rd_solver import _row_blocks

C = 0.26343617168072303

# grids for the kernel tests: the 1D one is one row block, the 2D and 3D
# ones span several
GRID_1D = Grid((1201,), 0.25, (-150.0,))
GRID_2D = Grid((40, 1024), 0.5, (-10.0, -256.0))
GRID_3D = Grid((20, 40, 48), 0.5, (-5.0, -10.0, -12.0))
# odd counts, three row blocks, the last one short
GRID_3D_ODD = Grid((24, 45, 67), 0.5, (-6.0, -11.0, -16.5))


def planar_cfg(speed):
    return FrontConfiguration(2, np.array([[1.0]]), np.array([math.pi / 2]), np.zeros(1), speed)


def initial_field(cfg, profile, grid, t=0.0):
    vals = profile(min_q(cfg, t, grid.points().reshape(-1, grid.dimension)))
    return Field(grid, vals.reshape(grid.counts), t)


@pytest.fixture(scope="module")
def small_grid():
    return Grid((48, 48), 0.5, (-12.0, -12.0))


def test_grid_geometry(small_grid):
    assert small_grid.dimension == 2
    ax = small_grid.axis(0)
    assert ax[0] == -12.0
    assert ax[1] - ax[0] == 0.5
    pts = small_grid.points()
    assert pts.shape == (48, 48, 2)
    ring = small_grid.ring_indices()
    flat = np.zeros(48 * 48, dtype=bool)
    flat[ring] = True
    mask = flat.reshape(48, 48)
    assert mask[0].all() and mask[-1].all() and mask[:, 0].all() and mask[:, -1].all()
    assert not mask[1:-1, 1:-1].any()


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((8, 48), 0.5, (0.0, 0.0))  # too few cells
    with pytest.raises(ValueError):
        Grid((48, 48), -0.5, (0.0, 0.0))
    with pytest.raises(ValueError):
        Grid((48, 48), 0.5, (0.0,))  # origin rank mismatch


def test_stability_cap(small_grid):
    nl = make_combustion()
    sc = SolverConfig()
    # 2D explicit Laplacian cap dx^2 / 4 times the safety factor,
    # shaved slightly by the reaction Lipschitz constant
    assert rd_solver.CFL_SAFETY == 0.8
    dt = sc.stable_dt(small_grid, nl)
    assert dt <= 0.8 * 0.5**2 / 4.0 + 1e-15
    assert dt > 0.8 * 0.8 * 0.5**2 / 4.0
    with pytest.raises(ValueError, match="violates the stability cap"):
        SolverConfig(dt=1.0).resolve_dt(small_grid, nl, 1.0)
    with pytest.raises(ValueError):
        SolverConfig(workers=0)


@settings(max_examples=60)
@given(n=st.sampled_from([1, 2, 3]), dx=st.floats(min_value=0.05, max_value=1.0),
       amplitude=st.floats(min_value=0.01, max_value=300.0))
# L dx^2 / (2N) = 1.2, where 0.8 of each of two separate caps gives 1.47
@example(n=1, dx=0.1, amplitude=300.0)
def test_step_keeps_every_self_weight_non_negative(n, dx, amplitude):
    # the monotone step rule: 1 - dt (2N/dx^2 + L) >= 0 with a margin of
    # 1 - CFL_SAFETY, for the cap and for every step resolve_dt picks
    nl = make_combustion(amplitude=amplitude)
    grid = Grid((16,) * n, dx, (0.0,) * n)
    rate = 2.0 * n / dx**2 + nl.max_abs_derivative(-nl.sigma, 1.0 + nl.sigma)
    cap = SolverConfig().stable_dt(grid, nl)
    for dt in [cap] + [SolverConfig().resolve_dt(grid, nl, snap)
                       for snap in (0.3 * cap, 2.5 * cap, 1.0 / C, 4.0)]:
        assert dt * rate <= rd_solver.CFL_SAFETY * (1.0 + 1e-12)


def test_resolve_dt_splits_the_interval(small_grid, nl03):
    # the largest dt that splits the interval into whole steps and exceeds
    # neither the cap nor a set dt
    cap = SolverConfig().stable_dt(small_grid, nl03)
    for set_dt in (None, cap, 0.7 * cap, 0.3 * cap):
        limit = cap if set_dt is None else set_dt
        for snap in (0.01 * cap, 0.5 * cap, cap, 1.5 * cap, 2.5 * cap, 7.3 * cap,
                     0.25 / C, 1.0 / C, 4.0):
            dt = SolverConfig(dt=set_dt).resolve_dt(small_grid, nl03, snap)
            steps = round(snap / dt)
            assert dt <= limit
            assert dt == snap / steps
            assert steps == 1 or snap / (steps - 1) > limit
    # an interval shorter than dt takes one shorter step
    assert SolverConfig(dt=cap).resolve_dt(small_grid, nl03, 0.4 * cap) == 0.4 * cap
    # without a set dt the step is snap / ceil(snap / cap) away from ulp ties
    for snap in (0.25 / C, 0.5 / C, 1.0 / C, 4.0 / C, 2.0, 0.5):
        assert SolverConfig().resolve_dt(small_grid, nl03, snap) == \
            snap / math.ceil(snap / cap)
    # a set dt that divides the interval comes back unchanged, also where
    # snap / dt comes out an ulp above a whole number
    snap = 0.25 / C
    for k in range(1, 200):
        dt = snap / k
        if dt <= cap:
            assert SolverConfig(dt=dt).resolve_dt(small_grid, nl03, snap) == dt
    assert math.ceil(snap / (snap / 54)) == 55  # such a k is in the loop


def test_snapshot_span_must_tile(small_grid, nl03, profile03):
    cfg = planar_cfg(profile03.speed)
    u0 = initial_field(cfg, profile03, small_grid)
    bc = make_boundary(cfg, profile03)
    with pytest.raises(ValueError):
        solve_cauchy(u0, nl03, bc, SolverConfig(), t_end=1.0, snapshot_dt=0.3)


def test_blow_up_detection(small_grid, nl03, profile03):
    cfg = planar_cfg(profile03.speed)
    bad = Field(small_grid, np.full((48, 48), 2.5), 0.0)
    bc = make_boundary(cfg, profile03)
    with pytest.raises(RuntimeError):
        solve_cauchy(bad, nl03, bc, SolverConfig(), t_end=0.5, snapshot_dt=0.5)


def test_nan_state_is_blow_up(small_grid, nl03, profile03):
    # NaN fails both halves of a plain |u| > 2 test, so it must be caught
    # explicitly; the error names the snapshot at which it was seen
    cfg = planar_cfg(profile03.speed)
    u0 = initial_field(cfg, profile03, small_grid)
    u0.values[24, 24] = np.nan
    bc = make_boundary(cfg, profile03)
    with pytest.raises(RuntimeError, match=r"blow-up detected by t=0\.250000: .* NaN"):
        solve_cauchy(u0, nl03, bc, SolverConfig(), t_end=0.5, snapshot_dt=0.25)


def test_constant_states_are_fixed_points(small_grid, nl03):
    for const in (0.0, 1.0):
        u0 = Field(small_grid, np.full((48, 48), const), 0.0)
        bc = lambda t, pts, c=const: np.full(len(pts), c)
        out = solve_cauchy(u0, nl03, bc, SolverConfig(), t_end=1.0, snapshot_dt=1.0)
        assert np.array_equal(out[-1].values, u0.values)


def test_order_preservation(small_grid, nl03, profile03):
    # comparison principle survives discretisation: ordered data stay ordered
    cfg = planar_cfg(profile03.speed)
    rng = np.random.default_rng(3)
    base = profile03(min_q(cfg, 0.0, small_grid.points().reshape(-1, 2))).reshape(48, 48)
    lo = np.clip(base - rng.uniform(0.0, 0.05, base.shape), 0.0, 1.0)
    hi = np.clip(base + rng.uniform(0.0, 0.05, base.shape), 0.0, 1.0)
    hi = np.maximum(lo, hi)
    # Dirichlet data of the exact planar wave
    bc = lambda t, pts: profile03(pts @ cfg.directions[0] - cfg.speed * t + cfg.shifts[0])
    sc = SolverConfig()
    out_lo = solve_cauchy(Field(small_grid, lo, 0.0), nl03, bc, sc, 2.0, 2.0)
    out_hi = solve_cauchy(Field(small_grid, hi, 0.0), nl03, bc, sc, 2.0, 2.0)
    assert np.all(out_hi[-1].values - out_lo[-1].values >= -1e-14)


ORDER_GRID = Grid((24, 24), 0.5, (-6.0, -8.0))


def floored_bump_gap(nl, profile, cfg, seed, cell, height):
    """min of advance(u + b) - advance(u) for one floored step of the V at
    the stable dt, u uniform between the floor and 1, b = height on one
    interior cell."""
    grid = ORDER_GRID
    dt = SolverConfig().stable_dt(grid, nl)
    floor = subsolution_floor(cfg, profile, grid)
    stepper = rd_solver._Stepper(grid, nl, dt, make_boundary(cfg, profile), floor=floor)
    lift = floor(0.0)
    u = lift + (1.0 - lift) * np.random.default_rng(seed).uniform(0.0, 1.0, grid.counts)
    bumped = u.copy()
    bumped[cell] += height
    low = stepper.advance(u, dt, dt).copy()
    return float(np.min(stepper.advance(bumped, dt, dt) - low))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), i=st.integers(1, 22), j=st.integers(1, 22),
       height=st.floats(min_value=1e-3, max_value=1.0))
def test_floored_update_map_preserves_order(nl03, profile03, cfg_v, seed, i, j, height):
    # the property the step rule keeps: raising one cell lowers no cell
    # of the floored update, the floor and the ring included
    assert floored_bump_gap(nl03, profile03, cfg_v, seed, (i, j), height) >= -1e-12


def held_floor_steps(nl, profile, cfg, u0, hold):
    """Every step's state, and the snapshots, of a floored run on ORDER_GRID
    from u0 at t = 0 to t = 1, snapshots every 0.5, the floor refreshed
    every hold steps."""
    states = []

    class Recording(rd_solver._Stepper):
        def advance(self, *args):
            new = super().advance(*args)
            states.append(new.copy())
            return new

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rd_solver, "HOLD_STEPS", hold)
        mp.setattr(rd_solver, "_Stepper", Recording)
        snaps = solve_cauchy(Field(ORDER_GRID, u0, 0.0), nl, make_boundary(cfg, profile),
                             SolverConfig(), 1.0, 0.5,
                             floor=subsolution_floor(cfg, profile, ORDER_GRID))
    return states, snaps


@settings(max_examples=40)
@given(hold=st.integers(1, 16), i=st.integers(1, 22), j=st.integers(1, 22),
       height=st.floats(min_value=1e-3, max_value=1.0))
def test_held_floor_map_preserves_order_and_time_monotonicity(nl03, profile03, cfg_v,
                                                              hold, i, j, height):
    # a floor held for `hold` steps is still a lower bound that never
    # decreases: runs from ordered states stay ordered at every step, a run
    # from the floor rises at every step, and every snapshot sits on or
    # above the fresh floor
    floor = subsolution_floor(cfg_v, profile03, ORDER_GRID)
    start = floor(0.0)
    bumped = start.copy()
    bumped[i, j] += height
    low, low_snaps = held_floor_steps(nl03, profile03, cfg_v, start, hold)
    high, high_snaps = held_floor_steps(nl03, profile03, cfg_v, bumped, hold)
    assert len(low) == len(high) > 16
    for before, after in zip([start] + low, low):
        assert np.min(after - before) >= -1e-12
    for a, b in zip(low, high):
        assert np.min(b - a) >= -1e-12
    for snap in low_snaps + high_snaps:
        assert np.all(snap.values >= floor(snap.time))


def test_floor_is_held_at_the_last_refresh(nl03, profile03, cfg_v, monkeypatch):
    # each step applies the floor at the end of the last refresh step: every
    # HOLD_STEPS-th step counted from a snapshot's start, and each
    # snapshot's last step; 11 steps a snapshot, so a short group ends each
    monkeypatch.setattr(rd_solver, "HOLD_STEPS", 3)
    floor = subsolution_floor(cfg_v, profile03, ORDER_GRID)
    bc = make_boundary(cfg_v, profile03)
    ends, held = [], []
    solve_cauchy(Field(ORDER_GRID, floor(0.0), 0.0), nl03,
                 lambda t, pts: ends.append(t) or bc(t, pts), SolverConfig(), 1.5, 0.5,
                 floor=lambda t: held.append(t) or floor(t))
    ends = ends[1:]  # the first ring call sets the initial state
    per_snap = len(ends) // 3
    assert per_snap == 11 and len(held) == len(ends)
    expected, last = [], 0.0
    for i, t in enumerate(ends):
        if (i % per_snap + 1) % 3 == 0 or i % per_snap == per_snap - 1:
            last = t
        expected.append(last)
    assert held == expected


def test_floored_order_check_fails_past_the_monotone_bound(nl03, profile03, cfg_v,
                                                           monkeypatch):
    # at 1.5 times the bound a cell's weight on itself is about -0.4, so
    # a bump comes out as a dip wherever the floor does not hide it
    monkeypatch.setattr(rd_solver, "CFL_SAFETY", 1.5)
    for seed in range(5):
        assert floored_bump_gap(nl03, profile03, cfg_v, seed, (12, 12), 1e-3) < -1e-12


def test_planar_wave_speed_and_shape(small_grid, nl03, profile03):
    # floored run tracks the exact traveling wave on a coarse grid
    cfg = planar_cfg(profile03.speed)
    u0 = initial_field(cfg, profile03, small_grid)
    bc = make_boundary(cfg, profile03)
    floor = subsolution_floor(cfg, profile03, small_grid)
    traj = solve_cauchy(u0, nl03, bc, SolverConfig(), t_end=10.0, snapshot_dt=2.0, floor=floor)
    exact = initial_field(cfg, profile03, small_grid, t=10.0)
    assert np.max(np.abs(traj[-1].values - exact.values)) < 1e-3
    # floor keeps the state above the subsolution exactly
    for f in traj:
        lower = initial_field(cfg, profile03, small_grid, t=f.time).values
        assert np.min(f.values - lower) >= 0.0


# forward Euler, the one update; the id keeps these tests' names
EULER = pytest.mark.parametrize("scheme", ["euler"])


@EULER
def test_bit_identical_across_workers(scheme, nl03, profile03, cfg_v):
    # several row blocks, so the pooled runs really split each step
    grid = GRID_2D
    assert len(_row_blocks(grid.counts)) >= 2
    u0 = initial_field(cfg_v, profile03, grid)
    bc = make_boundary(cfg_v, profile03)
    floor = subsolution_floor(cfg_v, profile03, grid)
    outs = []
    for workers in (1, 4, 8):
        sc = SolverConfig(workers=workers)
        traj = solve_cauchy(u0.copy(), nl03, bc, sc, 2.0, 1.0, floor=floor)
        outs.append(traj[-1].values)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def pyramid_cfg(speed):
    nus = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    return FrontConfiguration(3, nus, np.full(3, math.pi / 4), np.zeros(3), speed)


def floor_case(name, c):
    """(configuration, grid) of the floor bit-identity cases.  The "mirror"
    boxes are symmetric about the fronts' mirror plane where they have one
    (x_1 = 0 for the V, x_2 = 0 for the pyramid), so base values repeat."""
    if name == "1d-off-centre":
        # FrontConfiguration starts at N = 2, and the floor reads only
        # dimension, directions, shifts and speed: two facing planar waves
        # on a line
        cfg = SimpleNamespace(dimension=1, directions=np.array([[1.0], [-1.0]]),
                              shifts=np.array([0.5, -1.5]), speed=c)
        return cfg, Grid((301,), 0.25, (-40.3,))
    if name == "v-2d-mirror":
        return symmetric_v(math.pi / 3, c), Grid((64, 64), 0.5, (-15.75, -20.0))
    if name == "v-2d-off-centre":
        return symmetric_v(math.pi / 3, c, 0.7), Grid((60, 64), 0.379598592562289, (-10.0, -14.0))
    if name == "three-wave-2d-mirror":
        return three_wave_cfg(c), Grid((48, 56), 0.5, (-11.75, -13.75))
    pyramid = pyramid_cfg(c)
    if name == "pyramid-3d-mirror":
        cfg = FrontConfiguration(3, pyramid.nus, pyramid.angles, np.array([0.7, -1.1, -1.1]), c)
        return cfg, Grid((24, 20, 20), 1.0, (-11.5, -9.5, -9.0))
    return pyramid, Grid((20, 24, 16), 0.75, (-7.3, -9.1, -4.2))


@pytest.mark.parametrize("name", ["1d-off-centre", "v-2d-mirror", "v-2d-off-centre",
                                  "three-wave-2d-mirror", "pyramid-3d-mirror",
                                  "pyramid-3d-off-centre"])
@settings(max_examples=40)
@given(t=st.floats(min_value=-200.0, max_value=200.0))
def test_floor_is_the_profile_on_the_grid_bit_for_bit(profile03, name, t):
    # evaluating the shifted base values TABLE_CHUNK at a time gives each
    # cell the bits of one evaluation of the whole grid
    cfg, grid = floor_case(name, profile03.speed)
    pts = grid.points().reshape(-1, grid.dimension)
    base = np.min(pts @ cfg.directions.T + cfg.shifts, axis=-1).reshape(grid.counts)
    got = subsolution_floor(cfg, profile03, grid)(t)
    assert got.shape == grid.counts
    assert np.array_equal(got, profile03(base - cfg.speed * t))


def test_floor_refresh_allocates_little_and_holds_one_read_only_array(cfg_v, profile03,
                                                                       monkeypatch):
    # the 512^2 grid of the `entire` benchmark: a refresh fills a new grid
    # array TABLE_CHUNK values at a time, so its peak is about the result's
    # size, at every time
    floor = subsolution_floor(cfg_v, profile03, Grid((512, 512), 0.5, (-128.0, -140.0)))
    for t in (-400.0, -4.0, 0.0, 2.0, 400.0):
        tracemalloc.start()
        try:
            got = floor(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * got.nbytes, (t, peak)
    # a call at the held time evaluates no profile and returns the held
    # array, which callers only read; a refresh makes a new array, so an
    # array a caller keeps, such as a Field's state, keeps its values
    calls = []
    evaluate = type(profile03).__call__
    monkeypatch.setattr(type(profile03), "__call__",
                        lambda self, d: calls.append(1) or evaluate(self, d))
    first = floor(0.0)
    kept, refresh_calls = first.copy(), len(calls)
    assert refresh_calls > 0
    assert floor(0.0) is first and len(calls) == refresh_calls
    with pytest.raises(ValueError):
        first[0, 0] = 0.5
    later = floor(2.0)
    assert not np.shares_memory(later, first) and not np.array_equal(later, kept)
    assert np.array_equal(first, kept)


def counted(fn, calls):
    """fn, recording for each call whether it ran on the main thread."""
    def wrapped(*args):
        calls.append(threading.current_thread() is threading.main_thread())
        return fn(*args)
    return wrapped


@pytest.mark.parametrize("front", ["v-2d", "pyramid-3d"])
@EULER
def test_pooled_floor_and_ring_match_serial(front, scheme, nl03, profile03, cfg_v):
    # on the pool a floored step evaluates the floor and the ring at t_new
    # in a task beside the sweep: same calls per step, same bits
    if front == "v-2d":
        grid, cfg = GRID_2D, cfg_v
    else:
        grid, cfg = GRID_3D, pyramid_cfg(profile03.speed)
    assert len(_row_blocks(grid.counts)) >= 2
    u0 = initial_field(cfg, profile03, grid)
    bc = make_boundary(cfg, profile03)
    floor = subsolution_floor(cfg, profile03, grid)
    runs = {}
    for workers in (1, 2):
        sc = SolverConfig(workers=workers)
        floor_calls, ring_calls = [], []
        traj = solve_cauchy(u0.copy(), nl03, counted(bc, ring_calls), sc, 1.0, 0.5,
                            floor=counted(floor, floor_calls))
        runs[workers] = traj, floor_calls, ring_calls
    steps = 2 * round(0.5 / sc.resolve_dt(grid, nl03, 0.5))
    for traj, floor_calls, ring_calls in runs.values():
        assert len(floor_calls) == steps
        assert len(ring_calls) == 1 + steps
    # serial: everything on the calling thread; pooled: the floor and the
    # end-of-step ring in pool tasks, the initial ring not
    _, floor_calls, ring_calls = runs[1]
    assert all(floor_calls) and all(ring_calls)
    _, floor_calls, ring_calls = runs[2]
    assert not any(floor_calls)
    assert sum(ring_calls) == 1
    for a, b in zip(runs[1][0], runs[2][0]):
        assert a.time == b.time
        assert np.array_equal(a.values, b.values)


@EULER
def test_floor_error_in_pool_task_propagates(scheme, nl03, profile03, cfg_v,
                                             monkeypatch):
    pools = []

    class RecordingPool(rd_solver.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(rd_solver, "ThreadPoolExecutor", RecordingPool)
    grid = GRID_2D
    floor = subsolution_floor(cfg_v, profile03, grid)
    err = ArithmeticError("floor failed")
    failed_on = []

    def failing_floor(t):
        if t > 0.1:
            failed_on.append(threading.current_thread())
            raise err
        return floor(t)

    u0 = initial_field(cfg_v, profile03, grid)
    bc = make_boundary(cfg_v, profile03)
    sc = SolverConfig(workers=2)
    with pytest.raises(ArithmeticError) as exc:
        solve_cauchy(u0, nl03, bc, sc, t_end=0.5, snapshot_dt=0.25, floor=failing_floor)
    assert exc.value is err
    assert len(failed_on) == 1 and failed_on[0] is not threading.main_thread()
    assert len(pools) == 1
    with pytest.raises(RuntimeError, match="shutdown"):
        pools[0].submit(int)


def reference_rhs(u, nl, inv_dx2):
    """Lap u + f(u) on the interior of the whole array, neighbours summed
    axis by axis in the same order as the solver's kernel."""
    d = u.ndim
    inner = (slice(1, -1),) * d

    def shifted(k, side):
        return u[inner[:k] + (side,) + inner[k + 1:]]

    acc = shifted(0, slice(None, -2)) + shifted(0, slice(2, None))
    for k in range(1, d):
        acc = acc + shifted(k, slice(None, -2)) + shifted(k, slice(2, None))
    return (acc - 2.0 * d * u[inner]) * inv_dx2 + nl(u[inner])


def reference_march(u0, nl, grid, bc, dt, steps):
    """Whole-array Euler steps with Dirichlet ring data."""
    inner = (slice(1, -1),) * grid.dimension
    ring = grid.ring_indices()
    ring_pts = grid.points().reshape(-1, grid.dimension)[ring]
    inv_dx2 = 1.0 / grid.dx**2

    def with_ring(u, t):
        u.ravel()[ring] = bc(t, ring_pts)
        return u

    u = with_ring(u0.copy(), 0.0)
    for j in range(steps):
        t = j * dt
        new = u.copy()
        new[inner] = u[inner] + dt * reference_rhs(u, nl, inv_dx2)
        u = with_ring(new, t + dt)
    return u


@pytest.mark.parametrize("grid,workers", [
    (GRID_1D, 1), (GRID_2D, 1), (GRID_2D, 2), (GRID_3D, 1), (GRID_3D, 2),
    (GRID_3D_ODD, 1), (GRID_3D_ODD, 2),
], ids=["1d", "2d-w1", "2d-w2", "3d-w1", "3d-w2", "3d-odd-w1", "3d-odd-w2"])
@EULER
def test_blocked_kernel_matches_whole_array_reference(grid, workers, scheme,
                                                      nl03, profile03):
    # workers = 2 on the 2D and 3D grids splits each step across the pool
    assert grid.dimension == 1 or len(_row_blocks(grid.counts)) >= 2
    c = profile03.speed

    def bc(t, pts):
        return profile03(pts[:, -1] + 0.2 * np.sin(pts[:, 0]) - c * t)

    pts = grid.points().reshape(-1, grid.dimension)
    u0 = Field(grid, bc(0.0, pts).reshape(grid.counts), 0.0)
    steps, t_end = 8, 0.08
    dt = t_end / steps
    sc = SolverConfig(dt=dt, workers=workers)
    out = solve_cauchy(u0, nl03, bc, sc, t_end=t_end, snapshot_dt=t_end)
    expected = reference_march(u0.values, nl03, grid, bc, dt, steps)
    assert np.array_equal(out[-1].values, expected)


@EULER
def test_stepping_leaves_input_untouched(scheme, nl03, profile03, cfg_v):
    grid = GRID_2D
    u0 = initial_field(cfg_v, profile03, grid)
    before = u0.values.copy()
    bc = make_boundary(cfg_v, profile03)
    floor = subsolution_floor(cfg_v, profile03, grid)
    sc = SolverConfig(workers=2)
    traj = solve_cauchy(u0, nl03, bc, sc, t_end=0.5, snapshot_dt=0.25, floor=floor)
    assert np.array_equal(u0.values, before)
    # snapshots are copies, not views of the stepper's two buffers
    arrays = [u0.values] + [f.values for f in traj]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))


def test_measured_1d_speed_matches_shooting(nl03, profile03):
    fit = measure_speed_1d(nl03, dx=0.25, length=200.0, sample_dt=4.0)
    assert abs(fit.speed - profile03.speed) / profile03.speed < 0.01
    # frozen: the stepper's block layout must not change the result
    assert fit.speed == 0.26325889856709145
    assert fit.stderr < 1e-3
    assert len(fit.times) == len(fit.positions)


def test_measured_1d_speed_converges_at_second_order(nl03, profile03):
    # the O(dx^2) stencil and the O(dt) = O(dx^2) step: the error falls
    # about fourfold per halving of dx (LeVeque 2007, ch. 2 and 9)
    errs = [abs(measure_speed_1d(nl03, dx=dx).speed - profile03.speed) / profile03.speed
            for dx in (0.5, 0.25, 0.125)]
    assert errs[1] <= 8.8e-4
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) >= 1.8


def check_entire_solution_monotone(nl03, profile03, cfg_v, increments_sup):
    c = profile03.speed
    grid = Grid((64, 64), 0.5, (-16.0, -20.0))
    sc = SolverConfig()
    res = entire_solution(
        cfg_v, profile03, nl03, grid, sc,
        n_list=[2.0 / c, 4.0 / c, 8.0 / c],
        window_end=1.0 / c, snapshot_dt=1.0 / c,
    )
    rep = res.report
    assert rep["monotone_in_n"]
    assert rep["monotonicity_worst"] >= -1e-10
    # frozen regression values for this grid and ladder
    assert rep["increments_sup"][0] == pytest.approx(increments_sup[0], rel=1e-9)
    assert rep["increments_sup"][1] == pytest.approx(increments_sup[1], rel=1e-9)
    assert rep["time_derivative_min"] >= 0.0
    assert rep["lower_gap_min"] >= -1e-10
    assert rep["max_value"] <= 1.0
    assert rep["max_below_saturation"] < 1.0
    assert len(res.v_hat) == 2
    assert res.v_hat[0].time == 0.0
    assert res.v_hat[-1].time == pytest.approx(1.0 / c, rel=1e-12)


def test_entire_solution_monotone(nl03, profile03, cfg_v, monkeypatch):
    # the floor refreshed at every step, as before it was held
    monkeypatch.setattr(rd_solver, "HOLD_STEPS", 1)
    check_entire_solution_monotone(nl03, profile03, cfg_v,
                                   (0.07073370675032276, 0.08654835272036998))


def test_entire_solution_monotone_with_held_floor(nl03, profile03, cfg_v):
    # the floor held for HOLD_STEPS steps: the increments move by about 5e-6
    check_entire_solution_monotone(nl03, profile03, cfg_v,
                                   (0.07072845087908619, 0.0865466848767964))


def test_entire_solution_starts_each_run_from_the_floor(nl03, profile03, monkeypatch):
    # tau != 0: evaluated in another order, max_i U(q_i) differs from the
    # floor by an ulp on some cells, and run n_k's initial state must be
    # exactly the floor that run n_{k+1} is held above at t = -n_k
    c = profile03.speed
    cfg = symmetric_v(math.pi / 3, c, shift=0.01)
    grid = Grid((64, 64), 0.5, (-16.0, -20.0))
    starts = []
    solve = rd_solver.solve_cauchy

    def recording(u0, *args, **kwargs):
        starts.append(u0.copy())
        return solve(u0, *args, **kwargs)

    monkeypatch.setattr(rd_solver, "solve_cauchy", recording)
    n_list = [2.0 / c, 4.0 / c]
    entire_solution(cfg, profile03, nl03, grid, SolverConfig(), n_list=n_list,
                    window_end=1.0 / c, snapshot_dt=1.0 / c)
    floor = subsolution_floor(cfg, profile03, grid)
    run_starts = [u0 for u0 in starts if u0.time < 0.0]
    assert [u0.time for u0 in run_starts] == [-n for n in n_list]
    for u0 in run_starts:
        assert np.array_equal(u0.values, floor(u0.time))


def test_entire_solution_runs_share_one_dt(nl03, profile03, cfg_v, monkeypatch):
    # the run-vs-run ordering needs the same update map in every run,
    # including the marches to the window start
    c = profile03.speed
    dts = []

    class Recording(rd_solver._Stepper):
        def __init__(self, grid, nl, dt, *args, **kwargs):
            dts.append(dt)
            super().__init__(grid, nl, dt, *args, **kwargs)

    monkeypatch.setattr(rd_solver, "_Stepper", Recording)
    entire_solution(cfg_v, profile03, nl03, Grid((32, 32), 0.5, (-8.0, -10.0)),
                    SolverConfig(), n_list=[0.5 / c, 1.0 / c], window_end=0.5 / c,
                    snapshot_dt=0.25 / c)
    assert len(dts) == 4 and len(set(dts)) == 1


def test_entire_solution_window_starts_at_zero(nl03, profile03, cfg_v):
    # each march ends at its own t_end, so the window starts at 0.0 also
    # where a start -n is not bit-exactly a whole number of snapshot
    # intervals before it: -3.75/c + 5 * (0.75/c) is 1.8e-15
    c = profile03.speed
    res = entire_solution(cfg_v, profile03, nl03, Grid((32, 32), 0.5, (-8.0, -10.0)),
                          SolverConfig(), n_list=[0.75 / c, 3.75 / c], window_end=0.75 / c,
                          snapshot_dt=0.75 / c)
    assert res.v_hat[0].time == 0.0
    assert res.v_hat[-1].time == 0.75 / c


def test_entire_solution_holds_only_the_run_before(nl03, profile03, cfg_v):
    # each run is compared with the one before as soon as it ends and the
    # older is dropped, so four runs peak no higher than two
    c = profile03.speed
    grid = Grid((128, 128), 0.5, (-32.0, -40.0))
    peaks = []
    for n_list in ([2.0 / c, 4.0 / c], [2.0 / c, 4.0 / c, 8.0 / c, 16.0 / c]):
        tracemalloc.start()
        try:
            entire_solution(cfg_v, profile03, nl03, grid, SolverConfig(), n_list=n_list,
                            window_end=2.0 / c, snapshot_dt=0.5 / c)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def three_wave_cfg(speed):
    nus = np.array([[-1.0], [1.0], [1.0]])
    angles = np.array([math.pi / 3, math.pi / 4, 1.2])
    return FrontConfiguration(2, nus, angles, np.array([0.0, 0.5, -1.5]), speed)


@pytest.mark.parametrize("front", ["v-2d", "pyramid-3d", "three-wave-2d"])
def test_ring_data_match_the_floor(front, profile03, cfg_v):
    # the ring data and the floor evaluate max_i U(q_i) through min_q, so
    # they agree bit for bit, also where some tau_i != 0
    c = profile03.speed
    if front == "v-2d":
        cfg, grid = cfg_v, Grid((160, 160), 0.379598592562289, (-30.0, -35.0))
    elif front == "pyramid-3d":
        cfg, grid = pyramid_cfg(c), Grid((32, 32, 32), 1.0, (-16.0, -16.0, -12.0))
    else:
        cfg, grid = three_wave_cfg(c), Grid((96, 96), 0.5, (-24.0, -24.0))
    floor = subsolution_floor(cfg, profile03, grid)
    ring = grid.ring_indices()
    ring_points = grid.points().reshape(-1, grid.dimension)[ring]
    bc = make_boundary(cfg, profile03)
    for t in np.linspace(-20.0, 20.0, 81):
        assert np.array_equal(bc(t, ring_points), floor(t).ravel()[ring])


@pytest.mark.parametrize("name", ["v-2d-off-centre", "three-wave-2d-mirror",
                                  "pyramid-3d-mirror"])
@settings(max_examples=40)
@given(t=st.floats(min_value=-200.0, max_value=200.0))
def test_barrier_lower_ring_and_floor_agree_bit_for_bit(nl03, profile03, name, t):
    # the barriers' lower bound, the ring data and the floor all read
    # front_geometry's min_q, so they agree bit for bit where tau_i != 0
    cfg, grid = floor_case(name, profile03.speed)
    params = BarrierParams(epsilon=0.01, alpha=0.1, beta=0.1, delta=0.01, lam=0.1, varrho=1.0)
    pts = grid.points().reshape(-1, grid.dimension)
    ring = grid.ring_indices()
    floor = subsolution_floor(cfg, profile03, grid)(t).ravel()
    assert np.array_equal(BarrierSet(cfg, profile03, nl03, params).lower(t, pts), floor)
    assert np.array_equal(make_boundary(cfg, profile03)(t, pts[ring]), floor[ring])


LIBRARY_RUN = """
import math, resource
from curvedfronts import (Field, Grid, SolverConfig, build_profile, make_boundary,
                          make_combustion, solve_cauchy, subsolution_floor, symmetric_v)
nl = make_combustion(0.3, 1.0, 2.0, 0.1)
profile = build_profile(nl)
c = profile.speed
cfg = symmetric_v(math.pi / 3, c)
grid = Grid((160, 160), 0.379598592562289, (-30.0, -35.0))
floor = subsolution_floor(cfg, profile, grid)
r0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
solve_cauchy(Field(grid, floor(-4.0 / c), -4.0 / c), nl, make_boundary(cfg, profile),
             SolverConfig(), 0.0, 4.0 / c, floor=floor, keep_all=False)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - r0)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap behaviour")
def test_library_floored_run_reuses_its_temporaries():
    # a floored 160^2 run over 4/c in a fresh interpreter, under glibc's
    # default heap thresholds: a step's few grid-sized temporaries are
    # reused from the heap (about 160 minor faults; 90k when the reaction
    # term allocated eight arrays a call)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", LIBRARY_RUN], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert int(proc.stdout.strip().splitlines()[-1]) < 20_000


def test_entire_solution_shift_continuity(nl03, profile03):
    # small shift in the configuration moves the construction by O(tau)
    c = profile03.speed
    grid = Grid((64, 64), 0.5, (-16.0, -20.0))
    sc = SolverConfig()
    n = 2.0 / c
    kw = dict(n_list=[n], window_end=1.0 / c, snapshot_dt=1.0 / c)
    base = entire_solution(symmetric_v(math.pi / 3, c), profile03, nl03, grid, sc, **kw)
    moved = entire_solution(symmetric_v(math.pi / 3, c, shift=0.01), profile03, nl03, grid, sc, **kw)
    d = max(float(np.max(np.abs(a.values - b.values)))
            for a, b in zip(base.v_hat, moved.v_hat))
    assert 1e-4 < d < 1e-2
