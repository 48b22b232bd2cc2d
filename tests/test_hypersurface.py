"""Smoothed front hypersurface y = phi(t, x) solving sum_i exp(-q_i) = 1:
Newton solver accuracy, support-plane bounds, analytic derivatives, and the
fitted flatness constants."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedfronts import (BarrierSet, FrontConfiguration, ScaledSurface, fit_surface_constants,
                          symmetric_v)
from curvedfronts import hypersurface

C = 0.26343617168072303
SIN60 = math.sin(math.pi / 3)


@pytest.fixture(scope="module")
def surf(cfg_v):
    return ScaledSurface(cfg_v, alpha=1.0)


def pyramid_surface():
    nus = np.array([
        [1.0, 0.0],
        [-0.5, math.sqrt(3) / 2],
        [-0.5, -math.sqrt(3) / 2],
    ])
    cfg = FrontConfiguration(3, nus, np.full(3, math.pi / 4), np.zeros(3), C)
    return ScaledSurface(cfg, alpha=1.0)


def _derivatives(S, t, x):
    return S.derivatives(t, x, S.solve_phi(t, x))


def test_apex_value(surf):
    phi = surf.solve_phi(np.array([0.0]), np.zeros((1, 1)))
    assert phi[0] == pytest.approx(math.log(2.0) / SIN60, abs=1e-12)


def test_solve_phi_reports_non_convergence(surf, monkeypatch):
    # at the apex the start y = psi has residual 1; with no Newton update
    # allowed the loop must say so (one update is exact on the V)
    monkeypatch.setattr(hypersurface, "NEWTON_MAX_ITER", 0)
    with pytest.raises(RuntimeError, match=r"did not converge in 0 Newton steps: max \|residual\|"):
        surf.solve_phi(np.array([0.0]), np.zeros((1, 1)))
    monkeypatch.setattr(hypersurface, "NEWTON_MAX_ITER", 20)
    phi = surf.solve_phi(np.array([0.0]), np.zeros((1, 1)))
    assert phi[0] == pytest.approx(math.log(2.0) / SIN60, abs=1e-12)


def test_apex_value_three_waves():
    S = pyramid_surface()
    phi = S.solve_phi(np.array([0.0]), np.zeros((1, 2)))
    assert phi[0] == pytest.approx(math.log(3.0) / math.sin(math.pi / 4), abs=1e-12)


def test_residual_vanishes_at_solution(surf):
    rng = np.random.default_rng(13)
    t = rng.uniform(-20, 20, 20000)
    x = rng.uniform(-60, 60, (20000, 1))
    phi = surf.solve_phi(t, x)
    assert np.max(np.abs(surf.residual(t, x, phi))) < 1e-12


def test_residual_vanishes_far_from_ridge(surf):
    # one exponential underflows out there; Newton must still land exactly
    t = np.zeros(5)
    x = np.array([[-1000.0], [-100.0], [0.0], [100.0], [1000.0]])
    phi = surf.solve_phi(t, x)
    assert np.max(np.abs(surf.residual(t, x, phi))) < 1e-12


def test_surface_above_support_function(surf):
    rng = np.random.default_rng(19)
    t = rng.uniform(-20, 20, 5000)
    x = rng.uniform(-80, 80, (5000, 1))
    phi = surf.solve_phi(t, x)
    psi = surf.psi(t, x)
    gap = phi - psi
    # far from the ridge the secondary exponential underflows against |psi|,
    # so positivity is only resolvable up to a few ulps of psi
    assert np.all(gap >= -8 * np.finfo(float).eps * np.maximum(1.0, np.abs(psi)))
    assert np.max(gap) <= math.log(2.0) / SIN60 + 1e-12
    near = np.abs(x[:, 0]) <= 20.0
    assert np.all(gap[near] > 0.0)


def test_uniform_vertical_translation_in_time(surf, cfg_v):
    # common contact angle: the whole graph rides up at speed c / sin(theta)
    x = np.linspace(-30, 30, 101)[:, None]
    t0 = np.zeros(101)
    for t in (1.0, 4.5):
        expected = surf.solve_phi(t0, x) + cfg_v.speed * t / SIN60
        assert np.allclose(surf.solve_phi(t0 + t, x), expected, atol=1e-11)
    d = _derivatives(surf, np.array([0.7]), np.array([[2.0]]))
    assert d.phi_t[0] == pytest.approx(cfg_v.speed / SIN60, abs=1e-12)
    assert d.grad_t[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_analytic_derivatives_match_finite_differences(surf):
    pts = [(-3.0, -4.0), (0.0, 0.0), (0.5, 1.7), (2.0, 12.0)]
    h = 1e-4
    laps = []

    def f(t, x):
        return surf.solve_phi(np.array([t]), np.array([[x]]))[0]

    for t, x in pts:
        d = _derivatives(surf, np.array([t]), np.array([[x]]))
        fd_x = (f(t, x + h) - f(t, x - h)) / (2 * h)
        fd_xx = (f(t, x + h) - 2 * f(t, x) + f(t, x - h)) / h**2
        fd_t = (f(t + h, x) - f(t - h, x)) / (2 * h)
        fd_tx = (
            f(t + h, x + h) - f(t + h, x - h) - f(t - h, x + h) + f(t - h, x - h)
        ) / (4 * h**2)
        assert d.grad[0, 0] == pytest.approx(fd_x, abs=1e-6)
        assert d.hess[0, 0, 0] == pytest.approx(fd_xx, abs=1e-6)
        assert d.phi_t[0] == pytest.approx(fd_t, abs=1e-6)
        assert d.grad_t[0, 0] == pytest.approx(fd_tx, abs=1e-6)
        laps.append(grad_lap_against_hess_differences(surf, t, np.array([x])))
    # the differences see a third derivative that is not zero
    assert np.max(np.abs(laps)) > 1e-3


def grad_lap_against_hess_differences(S, t, x, h=1e-4):
    # L_j = d_j tr hess, by central differences of the analytic Hessian
    def tr_hess(xq):
        hess = _derivatives(S, np.array([t]), xq[None, :]).hess[0]
        return np.trace(hess)

    lap = _derivatives(S, np.array([t]), x[None, :]).grad_lap[0]
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        fd = (tr_hess(x + e) - tr_hess(x - e)) / (2 * h)
        assert lap[j] == pytest.approx(fd, abs=1e-6)
    return lap


def test_grad_lap_matches_finite_differences_off_the_v():
    # the pyramid, then unequal angles, where the sin theta_i (g tr hess +
    # 2 hess g) sum of grad_lap does not vanish: the tilted four-wave 3D and
    # the three-wave 2D surfaces, near their ridges
    for S, t, x in ((pyramid_surface(), 0.3, np.array([0.4, -0.2])),
                    (pyramid_surface(), -1.0, np.array([-1.5, 2.0])),
                    (_tilted_3d_surface(), 0.5, np.array([0.3, 0.8])),
                    (_three_wave_2d_surface(), 0.2, np.array([0.9]))):
        lap = grad_lap_against_hess_differences(S, t, x)
        assert np.min(np.abs(lap)) > 1e-3


def test_weights_and_flatness(surf):
    rng = np.random.default_rng(29)
    t = rng.uniform(-10, 10, 1000)
    x = rng.uniform(-40, 40, (1000, 1))
    d = _derivatives(surf, t, x)
    w, h = d.w, d.h
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(h, 1.0 - np.sum(w**2, axis=1), atol=1e-12)
    assert np.all(h >= 0.0)
    assert np.all(h <= 0.5 + 1e-12)
    # the pair form sum_{i != j} w_i w_j agrees with the complement form
    pair = np.einsum("...i,...j->...", w, w) - np.sum(w * w, axis=-1)
    assert np.max(np.abs(pair - (1.0 - np.sum(w * w, axis=-1)))) < 1e-12
    # equal weights on the symmetry axis, single-facet dominance far out
    assert _derivatives(surf, np.array([0.0]), np.zeros((1, 1))).h[0] == pytest.approx(0.5, abs=1e-13)
    assert _derivatives(surf, np.array([0.0]), np.array([[200.0]])).h[0] < 1e-40


def test_alpha_scaling(cfg_v):
    # Y itself does not depend on alpha; the physical graph is Y(at, ax)/a,
    # so stronger smoothing (small alpha) lifts the apex clearance like 1/a.
    t = np.array([0.0])
    x = np.zeros((1, 1))
    for alpha in (1.0, 0.5, 0.1):
        S = ScaledSurface(cfg_v, alpha=alpha)
        y = S.solve_phi(alpha * t, alpha * x)[0]
        assert y == pytest.approx(math.log(2.0) / SIN60, abs=1e-12)
        assert y / alpha == pytest.approx(math.log(2.0) / (alpha * SIN60), abs=1e-9)


def test_fitted_constants(surf):
    fit = fit_surface_constants(surf)
    # the sup of gap/h and of the facet deviation sit at the ridge corner,
    # where both have closed forms for the symmetric V
    assert fit.c_hat == pytest.approx(2.0 * math.log(2.0) / SIN60, rel=1e-12)
    assert fit.c1_hat == pytest.approx(2.0 / math.tan(math.pi / 3), rel=1e-12)
    assert fit.n_samples == 4000
    assert abs(fit.normal_speed_min) < 1e-10
    assert fit.h_max <= 0.5 + 1e-12
    # the fitted constant really does dominate fresh samples
    rng = np.random.default_rng(37)
    t = rng.uniform(-10, 10, 5000)
    x = rng.uniform(-30, 30, (5000, 1))
    gap = surf.solve_phi(t, x) - surf.psi(t, x)
    assert np.all(gap <= fit.c_hat * _derivatives(surf, t, x).h + 1e-12)


def test_three_wave_residual_and_ordering():
    S = pyramid_surface()
    rng = np.random.default_rng(43)
    t = rng.uniform(-5, 5, 4000)
    x = rng.uniform(-25, 25, (4000, 2))
    phi = S.solve_phi(t, x)
    assert np.max(np.abs(S.residual(t, x, phi))) < 1e-12
    gap = phi - S.psi(t, x)
    assert np.all(gap > 0.0)
    assert np.max(gap) <= math.log(3.0) / math.sin(math.pi / 4) + 1e-12


# -- bit identity with the point-major formulas ------------------------------
#
# The surface kernel works wave-major (one contiguous row per wave) and adds
# the rows left to right.  These are the point-major (..., n) formulas it
# replaced; for n < 8 numpy sums a short last axis in the same order, so
# every result must match them bit for bit.


def _q_point_major(S, t, x, y):
    return (x @ S._nu_cos.T + y[..., None] * S._sin
            - S.cfg.speed * t[..., None] + S._tau)


def _solve_phi_point_major(S, t, x):
    # returns phi and the number of residual evaluations; x @ nu_cos.T and
    # c t are recomputed on every one, and the rounding-scaled tolerance
    # on every one after the first update
    t = np.broadcast_to(t, x.shape[:-1]).copy()
    y = np.max(S.support_planes(t, x), axis=-1)
    eps = np.finfo(float).eps
    floor = 64.0 * eps * S.cfg.n_waves
    for k in range(101):
        w = np.exp(-_q_point_major(S, t, x, y))
        s = np.sum(w, axis=-1)
        r = s - 1.0
        m = np.sum(w * S._sin, axis=-1)
        size = (np.abs(x @ S._nu_cos.T + S._tau) + np.abs(S.cfg.speed * t)[..., None]
                + np.abs(y)[..., None] * S._sin)
        tol = np.maximum(floor, 2.0 * eps * np.sum(w * size, axis=-1)) if k else floor
        if not np.any(np.abs(r) > tol):
            return y, k + 1
        y = y + np.log1p(r) * s / m
    raise AssertionError("reference Newton did not converge")


def _derivatives_point_major(S, t, x, phi):
    w = np.exp(-_q_point_major(S, t, x, phi))
    s = np.sum(w * S._sin, axis=-1)
    c = S.cfg.speed
    phi_t = c * np.sum(w, axis=-1) / s
    grad = -(w @ S._nu_cos) / s[..., None]
    g = S._nu_cos + S._sin[:, None] * grad[..., None, :]
    gt = -c + S._sin * phi_t[..., None]
    hess = np.einsum("...i,...ik,...il->...kl", w, g, g) / s[..., None, None]
    grad_t = np.einsum("...i,...i,...ik->...k", w, gt, g) / s[..., None]
    tr = np.trace(hess, axis1=-2, axis2=-1)[..., None]
    ws = w * S._sin
    third = (np.einsum("...i,...ij->...j", ws * tr - w * np.einsum("...ik,...ik->...i", g, g), g)
             + 2.0 * np.einsum("...i,...ij->...j", ws, g @ hess))
    wsum = np.sum(w, axis=-1)
    h = wsum * wsum - np.sum(w * w, axis=-1)
    # the fields of SurfaceDerivatives, in order
    return phi_t, grad, hess, grad_t, third / s[..., None], w, g, gt, h


def _tilted_3d_surface():
    nus = np.array([[1.0, 0.0], [-0.6, 0.8], [-0.28, -0.96], [0.0, 1.0]])
    angles = np.array([1.0, 0.9, 1.2, 1.4])
    cfg = FrontConfiguration(3, nus, angles, np.array([0.0, 0.7, -0.4, 1.3]), C)
    return ScaledSurface(cfg, alpha=0.3)


def _three_wave_2d_surface():
    nus = np.array([[-1.0], [1.0], [1.0]])
    angles = np.array([math.pi / 3, math.pi / 4, 1.2])
    cfg = FrontConfiguration(2, nus, angles, np.array([0.0, 0.5, -1.5]), C)
    return ScaledSurface(cfg, alpha=0.7)


# the three-wave 2D and the tilted 3D configs have tau != 0
SURFACES = pytest.mark.parametrize("make", [
    lambda cfg_v: ScaledSurface(cfg_v, alpha=0.025),
    lambda cfg_v: _three_wave_2d_surface(),
    lambda cfg_v: pyramid_surface(),
    lambda cfg_v: _tilted_3d_surface(),
], ids=["v-2d", "three-wave-2d", "pyramid-3d", "tilted-four-wave-3d"])


@SURFACES
def test_surface_kernel_matches_point_major_bits(make, cfg_v):
    S = make(cfg_v)
    m = S.cfg.dimension - 1
    rng = np.random.default_rng(53)
    t = rng.uniform(-6.0, 6.0, 30000) * S.alpha
    x = rng.uniform(-30.0, 30.0, (30000, m)) * S.alpha
    phi = S.solve_phi(t, x)
    ref_phi, _ = _solve_phi_point_major(S, t, x)
    assert np.array_equal(phi, ref_phi)
    ref = _derivatives_point_major(S, t, x, phi)
    der = S.derivatives(t, x, phi)
    for f, want in zip(fields(der), ref):
        got = getattr(der, f.name)
        assert got.shape == want.shape, f.name
        assert np.array_equal(got, want), f.name
    assert der.w.shape == (30000, S.cfg.n_waves)
    # the cheap frame has the bits of the full evaluator
    grad, h = S.gradient_and_flatness(t, x, phi)
    assert np.array_equal(grad, der.grad)
    assert np.array_equal(h, der.h)
    assert np.array_equal(S.residual(t, x, phi),
                          np.sum(der.w, axis=-1) - 1.0)
    # the public point-major shapes hold for a grid of points too
    tg = np.zeros((3, 4))
    xg = np.zeros((3, 4, m))
    n = S.cfg.n_waves
    assert S.support_planes(tg, xg).shape == (3, 4, n)
    assert S.residual(tg, xg, S.solve_phi(tg, xg)).shape == (3, 4)
    dg = _derivatives(S, tg, xg)
    assert (dg.hess.shape, dg.w.shape, dg.g.shape, dg.gt.shape, dg.h.shape) == \
        ((3, 4, m, m), (3, 4, n), (3, 4, n, m), (3, 4, n), (3, 4))


@SURFACES
def test_hoisted_projection_matches_per_iteration_solve(make, cfg_v, monkeypatch):
    # solve_phi forms x @ nu_cos.T and c t once per call; the reference
    # recomputes them on every Newton iteration.  The bits and the number
    # of q_at calls, one per residual evaluation, must be the same.
    S = make(cfg_v)
    m = S.cfg.dimension - 1
    rng = np.random.default_rng(59)
    t = rng.uniform(-6.0, 6.0, 20000) * S.alpha
    x = rng.uniform(-30.0, 30.0, (20000, m)) * S.alpha
    calls = []
    q_at = ScaledSurface.q_at
    monkeypatch.setattr(ScaledSurface, "q_at",
                        lambda self, *a, **k: calls.append(1) or q_at(self, *a, **k))
    for tq in (t, np.float64(1.5 * S.alpha)):   # per-point times and one broadcast time
        calls.clear()
        phi = S.solve_phi(tq, x)
        ref_phi, ref_calls = _solve_phi_point_major(S, tq, x)
        assert np.array_equal(phi, ref_phi)
        assert len(calls) == ref_calls >= 2


@SURFACES
def test_newton_work_per_config(make, cfg_v, monkeypatch):
    # Newton on log sum exp(-q_i) is exact in one update where all sin
    # theta_i are equal (the V, the pyramid): two residual evaluations.
    # Elsewhere four.  Each point's iterates rise until its own residual is
    # within tolerance; once there, later updates move it by round-off only.
    S = make(cfg_v)
    m = S.cfg.dimension - 1
    rng = np.random.default_rng(53)
    t = rng.uniform(-6.0, 6.0, 30000) * S.alpha
    x = rng.uniform(-30.0, 30.0, (30000, m)) * S.alpha
    ys = []
    q_at = ScaledSurface.q_at
    monkeypatch.setattr(ScaledSurface, "q_at",
                        lambda self, t, x, y, proj=None: ys.append(y) or q_at(self, t, x, y, proj))
    phi = S.solve_phi(t, x)
    monkeypatch.undo()
    assert len(ys) <= (2 if np.all(S._sin == S._sin[0]) else 4)
    assert ys[-1] is phi
    tol = 64.0 * np.finfo(float).eps * S.cfg.n_waves
    res = [np.abs(S.residual(t, x, y)) for y in ys]
    assert np.all(res[-1] <= tol)
    for y0, y1, r0, r1 in zip(ys, ys[1:], res, res[1:]):
        step = y1 - y0
        live = r0 > tol
        last = live & (r1 <= tol)
        assert np.all(step[live & ~last] > 0.0)
        assert np.all(step[last] >= -4.0 * np.spacing(np.abs(y0[last])))
        assert np.all(np.abs(step[~live]) <= 2.0 * tol / np.min(S._sin))


def test_solve_phi_converges_far_from_the_origin(cfg_v):
    # at t = 1000 and |x| up to 750 the terms that form q_i reach |c t| =
    # 263 and |y| sin theta = 640; their rounding alone exceeds 64 n ulps
    # of 1, so the tolerance scales with it
    S = ScaledSurface(cfg_v, alpha=0.025)
    x = np.random.default_rng(1).uniform(-750.0, 750.0, 20000)
    t = np.full(20000, 1000.0)
    phi = S.solve_phi(t, x)
    ref_phi, k = _solve_phi_point_major(S, t, x[:, None])
    assert np.array_equal(phi, ref_phi) and k == 2
    assert np.max(np.abs(S.residual(t, x, phi))) < 1e-12
    psi = S.psi(t, x)
    ulps = np.spacing(np.abs(psi))
    assert np.all(phi - psi >= -8.0 * ulps)
    assert np.all(phi - psi <= math.log(2.0) / SIN60 + 64.0 * ulps)


@SURFACES
@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
       spread=st.floats(0.01, 3.0), data=st.data())
def test_solve_phi_batch_property(make, cfg_v, seed, n, spread, data):
    # chunked barrier certification rests on this: a point's phi depends on
    # the rest of its batch only through the call's Newton count.  Converged
    # points keep updating until the slowest converges, which can move their
    # last bits, but by no more than the convergence tolerance allows.
    S = make(cfg_v)
    m = S.cfg.dimension - 1
    rng = np.random.default_rng(seed)
    t = rng.uniform(-6.0, 6.0, n) * S.alpha * spread
    x = rng.uniform(-30.0, 30.0, (n, m)) * S.alpha * spread
    sub = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2))))
    phi = S.solve_phi(t, x)
    phi_sub = S.solve_phi(t[sub], x[sub])
    k = _solve_phi_point_major(S, t, x)[1]
    k_sub = _solve_phi_point_major(S, t[sub], x[sub])[1]
    n_waves = S.cfg.n_waves
    min_sin = float(np.min(S._sin))
    assert k_sub <= k
    if k_sub == k:
        assert np.array_equal(phi_sub, phi[sub])
    else:
        tol = 64.0 * np.finfo(float).eps * n_waves
        assert np.all(np.abs(phi_sub - phi[sub]) <= 2.0 * tol / min_sin
                      + 4.0 * np.spacing(np.abs(phi[sub])))
    # psi < phi <= psi + ln n / min sin
    planes = S.support_planes(t, x)
    psi = np.max(planes, axis=-1)
    gap = phi - psi
    ulps = np.spacing(np.maximum(np.abs(psi), 1.0))
    assert np.all(gap <= math.log(n_waves) / min_sin + 64.0 * ulps)
    assert np.all(gap >= -8.0 * ulps)
    # the first Newton step from psi bounds the gap below; wherever that
    # bound is resolvable against psi, phi lies strictly above psi
    tail = np.sum(np.exp(-S._sin * (psi[:, None] - planes)), axis=-1) - 1.0
    first_step = tail / (np.max(S._sin) * (1.0 + tail))
    resolvable = first_step > 64.0 * ulps
    assert np.all(gap[resolvable] > 0.0)


def _same_bits(got, ref):
    # equal values, NaN where NaN, and equal sign bits off NaN: numpy's
    # min and max reductions do not keep the sign bit of a NaN
    number = ~np.isnan(ref)
    return (np.shape(got) == np.shape(ref) and np.array_equal(got, ref, equal_nan=True)
            and np.array_equal(np.signbit(got)[number], np.signbit(ref)[number]))


@SURFACES
def test_folded_psi_matches_reduction_bitwise(make, cfg_v):
    # psi folds its wave-major rows with np.maximum; the reduction it
    # replaced is np.max over support_planes' last axis
    S = make(cfg_v)
    m = S.cfg.dimension - 1
    rng = np.random.default_rng(79)
    t = rng.uniform(-6.0, 6.0, 20000) * S.alpha
    x = rng.uniform(-30.0, 30.0, (20000, m)) * S.alpha
    # the apex at t = +-0, and inf - inf = NaN in some rows at infinite points
    x[:4] = np.array([0.0, 0.0, np.inf, -np.inf])[:, None]
    t[:4] = (0.0, -0.0, np.inf, np.inf)
    cases = ((t, x), (np.float64(1.5), x), (t[7], x[7]), (0.0, np.zeros(m)),
             (t[:12].reshape(3, 4), x[:12].reshape(3, 4, m)))
    for tq, xq in cases:
        with np.errstate(invalid="ignore"):
            got = S.psi(tq, xq)
            ref = np.max(S.support_planes(tq, xq), axis=-1)
        assert _same_bits(got, ref)
        assert type(got) is type(ref)
    # a given projection: the computed one, then one of signed zeros,
    # infinities and NaN, so psi_i = +0 meets psi_j = -0 and NaN meets numbers
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0])
    crafted = (rng.choice(specials, (2000, S.cfg.n_waves)), rng.choice(specials, 2000))
    with np.errstate(invalid="ignore"):
        for proj in (S._project(t, x), crafted):
            assert _same_bits(S.psi(t, x, proj),
                              np.max(S.support_planes(t, x, proj), axis=-1))


@pytest.mark.parametrize("front", ["v", "pyramid"])
def test_folded_frame_matches_reduction_bitwise(front, cfg_v, profile03, nl03, params03):
    # BarrierSet._frame folds |grad phi|^2 over the columns of grad
    cfg = cfg_v if front == "v" else pyramid_surface().cfg
    cfg = FrontConfiguration(cfg.dimension, cfg.nus, cfg.angles, cfg.shifts, profile03.speed)
    B = BarrierSet(cfg, profile03, nl03, params03)
    m = cfg.dimension - 1
    a = params03.alpha
    rng = np.random.default_rng(83)
    t = rng.uniform(0.0, 8.0, 5000)
    z = rng.uniform(-30.0, 30.0, (5000, m + 1))
    for tq, zq in ((t, z), (t[3], z[3])):
        eta, xi, h = B._frame(tq, zq)
        at, ax = a * np.asarray(tq), a * zq[..., :-1]
        phi = B.surface.solve_phi(at, ax)
        grad, ref_h = B.surface.gradient_and_flatness(at, ax, phi)
        ref_eta = zq[..., -1] - phi / a
        ref_xi = ref_eta / np.sqrt(1.0 + np.sum(grad * grad, axis=-1))
        for got, ref in ((eta, ref_eta), (xi, ref_xi), (h, ref_h)):
            assert _same_bits(got, ref)
