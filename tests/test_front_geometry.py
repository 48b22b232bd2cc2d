"""Polytope front configurations: linear forms q_i, region classification,
and exact distances to the interface, its ridges, and the space-time boundary.

Distance routines are checked against dense brute-force sampling of the
relevant sets, so failures localise to the projection logic.
"""

import math
from itertools import combinations, product

import numpy as np
import pytest

from curvedfronts import (
    FrontConfiguration,
    Grid,
    boundary_distance,
    classify_region,
    interface_distance,
    min_q,
    q_values,
    ridge_distance,
    spatial_ridge_distance,
    subsolution_floor,
    subsolution_lower,
    symmetric_v,
)
from curvedfronts.front_geometry import _fold, _slab_weight

C = 0.26343617168072303
SIN60 = math.sin(math.pi / 3)
COS60 = math.cos(math.pi / 3)


def planar(speed=C):
    return FrontConfiguration(
        dimension=2,
        nus=np.array([[1.0]]),
        angles=np.array([math.pi / 2]),
        shifts=np.zeros(1),
        speed=speed,
    )


def pyramid(speed=C, angle=math.pi / 4):
    nus = np.array([
        [1.0, 0.0],
        [-0.5, math.sqrt(3) / 2],
        [-0.5, -math.sqrt(3) / 2],
    ])
    return FrontConfiguration(
        dimension=3,
        nus=nus,
        angles=np.full(3, angle),
        shifts=np.zeros(3),
        speed=speed,
    )


def brute_interface_points(cfg, t, half_width=80.0, n=4001):
    """Dense boundary sample: solve the last coordinate from each q_i = 0."""
    d = cfg.dimension
    if d == 2:
        base = np.linspace(-half_width, half_width, n)[:, None]
    else:
        ax = np.linspace(-half_width, half_width, int(math.sqrt(n)) * 4)
        base = np.stack(np.meshgrid(ax, ax), axis=-1).reshape(-1, 2)
    pts = []
    for i in range(cfg.n_waves):
        di = cfg.directions[i]
        last = (cfg.speed * t - cfg.shifts[i] - base @ di[:-1]) / di[-1]
        z = np.concatenate([base, last[:, None]], axis=1)
        feas = min_q(cfg, t, z) >= -1e-9
        pts.append(z[feas])
    return np.concatenate(pts, axis=0)


def test_symmetric_v_structure():
    cfg = symmetric_v(math.pi / 3, C)
    assert cfg.n_waves == 2
    assert np.allclose(np.linalg.norm(cfg.directions, axis=1), 1.0)
    assert np.allclose(cfg.directions, [[-COS60, SIN60], [COS60, SIN60]])


def test_q_closed_form():
    cfg = symmetric_v(math.pi / 3, C)
    rng = np.random.default_rng(3)
    z = rng.uniform(-10, 10, size=(50, 2))
    t = 1.7
    expected = np.stack(
        [
            -COS60 * z[:, 0] + SIN60 * z[:, 1] - C * t,
            COS60 * z[:, 0] + SIN60 * z[:, 1] - C * t,
        ],
        axis=1,
    )
    assert np.allclose(q_values(cfg, t, z), expected, atol=1e-13)
    assert np.allclose(min_q(cfg, t, z), expected.min(axis=1), atol=1e-13)


def test_shift_offsets_q():
    z = np.array([[0.3, -0.7]])
    base = q_values(symmetric_v(math.pi / 3, C), 2.0, z)
    shifted = q_values(symmetric_v(math.pi / 3, C, shift=1.5), 2.0, z)
    assert np.allclose(shifted - base, 1.5, atol=1e-14)


def test_q_linear_in_time():
    cfg = pyramid()
    rng = np.random.default_rng(5)
    z = rng.uniform(-8, 8, size=(30, 3))
    q0 = q_values(cfg, 0.0, z)
    q3 = q_values(cfg, 3.0, z)
    assert np.allclose(q3, q0 - 3.0 * cfg.speed, atol=1e-13)


def test_classify_region():
    cfg = symmetric_v(math.pi / 3, C)
    pts = np.array([[0.0, 2.0], [0.0, -2.0], [0.0, 0.0], [3.0, 0.0]])
    assert np.array_equal(classify_region(cfg, 0.0, pts), [1, -1, 0, -1])


def test_subsolution_lower_is_profile_of_min_q(cfg_v, profile03):
    rng = np.random.default_rng(9)
    z = rng.uniform(-20, 20, size=(100, 2))
    t = 0.8
    expected = profile03(min_q(cfg_v, t, z))
    assert np.allclose(subsolution_lower(cfg_v, profile03, t, z), expected, atol=1e-14)


def test_interface_distance_hand_values():
    cfg = symmetric_v(math.pi / 3, C)
    # unburned side: perpendicular foot lands on a facet
    assert interface_distance(cfg, 0.0, np.array([[0.0, 1.0]]))[0] == pytest.approx(SIN60, abs=1e-13)
    # burned side: both feet are infeasible, nearest point is the apex
    assert interface_distance(cfg, 0.0, np.array([[0.0, -1.0]]))[0] == pytest.approx(1.0, abs=1e-13)
    assert interface_distance(cfg, 0.0, np.array([[2.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("make_cfg,t", [(lambda: symmetric_v(math.pi / 3, C), 0.0),
                                        (lambda: symmetric_v(math.pi / 4, 0.4, shift=0.9), 2.5),
                                        (pyramid, 1.0)])
def test_interface_distance_against_brute_force(make_cfg, t):
    cfg = make_cfg()
    boundary = brute_interface_points(cfg, t)
    h = 80.0 * 2 / 4000 if cfg.dimension == 2 else 160.0 / 252
    rng = np.random.default_rng(17)
    z = rng.uniform(-12, 12, size=(25, cfg.dimension))
    exact = interface_distance(cfg, t, z)
    for k in range(len(z)):
        brute = np.min(np.linalg.norm(boundary - z[k], axis=1))
        assert exact[k] <= brute + 1e-9
        assert exact[k] >= brute - h


def test_spatial_ridge_distance_apex_oracle():
    cfg = symmetric_v(math.pi / 3, C)
    pts = np.array([[0.0, 1.0], [0.0, -1.0], [2.0, 0.0], [3.0, 4.0]])
    assert np.allclose(spatial_ridge_distance(cfg, 0.0, pts), [1.0, 1.0, 2.0, 5.0], atol=1e-13)
    # apex rides up at speed c / sin(theta)
    t = 4.0
    apex = np.array([0.0, C * t / SIN60])
    d = spatial_ridge_distance(cfg, t, apex[None, :])
    assert d[0] == pytest.approx(0.0, abs=1e-12)


def test_spatial_ridge_distance_pyramid_brute_force():
    cfg = pyramid()
    t = 0.5
    # ridges are the three pairwise intersections; sample each line densely
    lines = []
    for i in range(3):
        for j in range(i + 1, 3):
            A = np.stack([cfg.directions[i], cfg.directions[j]])
            # particular solution plus the null direction
            z0, *_ = np.linalg.lstsq(A, np.full(2, cfg.speed * t), rcond=None)
            tangent = np.cross(cfg.directions[i], cfg.directions[j])
            tangent /= np.linalg.norm(tangent)
            s = np.linspace(-60, 60, 24001)[:, None]
            pts = z0[None, :] + s * tangent[None, :]
            feas = min_q(cfg, t, pts) >= -1e-9
            lines.append(pts[feas])
    ridge_pts = np.concatenate(lines, axis=0)
    rng = np.random.default_rng(23)
    z = rng.uniform(-10, 10, size=(20, 3))
    exact = spatial_ridge_distance(cfg, t, z)
    for k in range(len(z)):
        brute = np.min(np.linalg.norm(ridge_pts - z[k], axis=1))
        assert exact[k] == pytest.approx(brute, abs=0.01)


def test_spacetime_ridge_distance_brute_force(cfg_v):
    c = cfg_v.speed
    pts = np.array([[0.0, 1.0], [0.0, -1.0], [4.0, 2.0]])
    times = np.array([0.0, 0.0, 1.0])
    exact = ridge_distance(cfg_v, times, pts)
    s = np.linspace(-80.0, 80.0, 400001)
    apex_y = c * s / SIN60
    for k in range(len(pts)):
        d2 = (times[k] - s) ** 2 + pts[k, 0] ** 2 + (pts[k, 1] - apex_y) ** 2
        assert exact[k] == pytest.approx(math.sqrt(d2.min()), abs=1e-6)


def test_boundary_distance_ordering(cfg_v):
    # space-time boundary contains every fixed-time interface and the ridge
    rng = np.random.default_rng(31)
    z = rng.uniform(-15, 15, size=(40, 2))
    t = np.zeros(40)
    bd = boundary_distance(cfg_v, t, z)
    assert np.all(bd <= interface_distance(cfg_v, 0.0, z) + 1e-12)
    assert np.all(bd <= ridge_distance(cfg_v, t, z) + 1e-12)
    on_boundary = min_q(cfg_v, 0.0, z) == 0.0
    assert np.all(bd[~on_boundary] > 0.0)


def test_planar_interface_distance_is_abs_q():
    cfg = planar()
    rng = np.random.default_rng(41)
    z = rng.uniform(-20, 20, size=(50, 2))
    t = 1.2
    assert np.allclose(interface_distance(cfg, t, z), np.abs(min_q(cfg, t, z)), atol=1e-12)


def test_planar_has_no_ridges():
    with pytest.raises(ValueError):
        planar().require_ridges()


def test_spacetime_normals():
    cfg = pyramid()
    nrm = cfg.spacetime_normals()
    assert nrm.shape == (3, 4)
    assert np.allclose(nrm[:, 0], -cfg.speed, atol=1e-15)
    assert np.allclose(nrm[:, 1:], cfg.directions, atol=1e-15)


def test_invalid_configurations_rejected():
    ang = np.array([math.pi / 2])
    with pytest.raises(ValueError):
        FrontConfiguration(2, np.array([[2.0]]), ang, np.zeros(1), C)
    with pytest.raises(ValueError):
        FrontConfiguration(2, np.array([[1.0]]), np.array([2.0]), np.zeros(1), C)
    with pytest.raises(ValueError):
        FrontConfiguration(2, np.array([[1.0]]), ang, np.zeros(1), -C)
    with pytest.raises(ValueError):
        FrontConfiguration(2, np.array([[1.0]]), ang, np.zeros(2), C)


# -- column folds against numpy's reductions --------------------------------
# _fold takes extrema and sums over a short last axis one column at a time.
# It must give the reductions' bits: values, NaN, and the sign of a zero.
# The one stated exception: np.sum starts from +0.0, so a row of -0.0 alone
# sums to +0.0 there and to -0.0 in the fold.

SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.25)


def _same_bits(got, ref):
    # equal values, NaN where NaN, and equal sign bits off NaN: numpy's
    # min and max reductions do not keep the sign bit of a NaN
    number = ~np.isnan(ref)
    return (np.shape(got) == np.shape(ref) and np.array_equal(got, ref, equal_nan=True)
            and np.array_equal(np.signbit(got)[number], np.signbit(ref)[number]))


def _fold_cases():
    rng = np.random.default_rng(71)
    for n in range(1, 6):
        # every ordered pair of specials in the first two columns
        pairs = np.array(list(product(SPECIALS, repeat=min(n, 2))))
        rest = rng.standard_normal((len(pairs), n - pairs.shape[1]))
        yield np.concatenate([pairs, rest], axis=1)
        for shape in ((), (7,), (3, 4)):
            for _ in range(20):
                a = rng.standard_normal(shape + (n,)) * 10.0 ** rng.integers(-3, 4, shape + (n,))
                special = rng.random(a.shape) < 0.3
                a[special] = rng.choice(SPECIALS, size=int(special.sum()))
                yield a


@np.errstate(invalid="ignore")             # inf - inf in the sums
def test_fold_matches_numpy_reductions_bitwise():
    for a in _fold_cases():
        for op, reduce in ((np.minimum, np.min), (np.maximum, np.max)):
            got, ref = _fold(op, a), reduce(a, axis=-1)
            assert _same_bits(got, ref), (op, a)
            assert type(got) is type(ref)
            # the same columns as wave-major rows, as a list or an array
            rows = np.moveaxis(a, -1, 0)
            assert _same_bits(_fold(op, rows, axis=0), ref)
            assert _same_bits(_fold(op, list(rows), axis=0), ref)
        negative_zeros = np.all((a == 0.0) & np.signbit(a), axis=-1)
        ref = np.where(negative_zeros, -0.0, np.sum(a, axis=-1))
        got = _fold(np.add, a)
        assert _same_bits(got, ref), a
        assert type(got) is type(np.sum(a, axis=-1))


def test_fold_sum_of_negative_zeros_keeps_its_sign():
    a = np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]])
    assert np.array_equal(np.signbit(_fold(np.add, a)), [True, False, False])
    assert not np.any(np.signbit(np.sum(a, axis=-1)))


# in-test copies of the reductions the folds replaced

def _min_q_reference(cfg, t, z):
    return np.min(q_values(cfg, t, z), axis=-1)


def _face_distance_reference(normals, offsets, pts, min_active, feas_tol=1e-9):
    best = np.full(pts.shape[0], np.inf)
    scale = 1.0 + np.max(np.abs(pts))
    for r in range(min_active, normals.shape[0] + 1):
        for subset in combinations(range(normals.shape[0]), r):
            b = normals[list(subset)]
            pinv = np.linalg.pinv(b)
            cand = pts - (pts @ b.T + offsets[list(subset)]) @ pinv.T
            consistent = np.max(np.abs(cand @ b.T + offsets[list(subset)]), axis=1) <= feas_tol * scale
            feasible = np.min(cand @ normals.T + offsets, axis=1) >= -feas_tol * scale
            ok = consistent & feasible
            if np.any(ok):
                best = np.where(ok, np.minimum(best, np.linalg.norm(pts - cand, axis=1)), best)
    return best


def _shifted_three_wave():
    return FrontConfiguration(2, np.array([[-1.0], [1.0], [1.0]]),
                              np.array([math.pi / 3, math.pi / 4, 1.2]),
                              np.array([0.0, 0.5, -1.5]), C)


GEOMETRIES = pytest.mark.parametrize("make_cfg", [
    lambda: symmetric_v(math.pi / 3, C),
    _shifted_three_wave,
    pyramid,
], ids=["v-2d", "three-wave-2d", "pyramid-3d"])


@GEOMETRIES
def test_folded_sites_match_reductions_bitwise(make_cfg):
    cfg = make_cfg()
    rng = np.random.default_rng(73)
    z = rng.uniform(-20.0, 20.0, (4000, cfg.dimension))
    t = rng.uniform(-5.0, 5.0, 4000)
    # the apex at t = +-0, and points where q_i is inf in one column and
    # inf - inf = NaN in another, so NaN and signed zeros reach the folds
    z[:4] = 0.0
    z[2:4, 0] = np.inf
    t[:4] = (0.0, -0.0, np.inf, -np.inf)
    with np.errstate(invalid="ignore"):
        assert _same_bits(min_q(cfg, t, z), _min_q_reference(cfg, t, z))
        q = (z @ cfg.directions.T + cfg.shifts) - cfg.speed * 0.7
        ref = np.minimum(1.0, np.exp(-0.4 * (q / np.sin(cfg.angles)).min(axis=1)))
        assert _same_bits(_slab_weight(cfg, 0.7, z, 0.4), ref)
    assert _same_bits(min_q(cfg, 1.0, z[5]), _min_q_reference(cfg, 1.0, z[5]))
    assert type(min_q(cfg, 1.0, z[5])) is np.float64
    zs = z[4:404]
    ts = t[4:404]
    w = np.concatenate([ts[:, None], zs], axis=1)
    offsets = cfg.shifts - cfg.speed * 1.5
    for min_active in (1, 2):
        ref = _face_distance_reference(cfg.spacetime_normals(), cfg.shifts, w, min_active)
        got = (boundary_distance if min_active == 1 else ridge_distance)(cfg, ts, zs)
        assert _same_bits(got, ref)
        ref = _face_distance_reference(cfg.directions, offsets, zs, min_active)
        got = (interface_distance if min_active == 1 else spatial_ridge_distance)(cfg, 1.5, zs)
        assert _same_bits(got, ref)


@GEOMETRIES
def test_folded_floor_matches_reduction_bitwise(make_cfg, profile03):
    cfg = make_cfg()
    cfg = FrontConfiguration(cfg.dimension, cfg.nus, cfg.angles, cfg.shifts, profile03.speed)
    counts = (40, 48) if cfg.dimension == 2 else (16, 20, 24)
    grid = Grid(counts, 0.5, tuple(-0.25 * c for c in counts))
    pts = grid.points().reshape(-1, grid.dimension)
    base = (pts @ cfg.directions.T + cfg.shifts).min(axis=1).reshape(grid.counts)
    floor = subsolution_floor(cfg, profile03, grid)
    for t in (-20.0, 0.0, 3.5):
        assert _same_bits(floor(t), profile03(base - cfg.speed * t))
