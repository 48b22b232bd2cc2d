"""Planar traveling wave U(D) with speed c: the collocation shot and the
Newton speed search, checked against scipy's solve_ivp as an independent
reference (the speed is a root of its shot, and the table follows its
tighter pass), decay rates, evaluator accuracy and independence of the
BLAS thread count, the ODE residual of the table and the inputs it must
reject, the inverse towards both ends, and the amplitude scaling law."""

import dataclasses
import functools
import logging
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from curvedfronts import (
    Grid,
    ShootingCollapseError,
    SolverConfig,
    build_profile,
    decay_rate_into_burned,
    entire_solution,
    find_wave_speed,
    make_combustion,
    ode_residual_sup,
    sandwich_and_monotonicity,
    shoot_p,
)
from curvedfronts import wave_profile
from curvedfronts.wave_profile import N_PIECES

# Bisection-converged speeds, frozen once the shooting solver stabilised.
SPEEDS = {
    0.2: 0.36699380655581,
    0.3: 0.26343617168072303,
    0.5: 0.12151061635796,
}
# The exact floats the search returns for these cases (and for amplitude 4
# at theta 0.3, twice that of amplitude 1); every artifact rests on them.
EXACT_SPEEDS = {
    0.2: 0.3669938065551964,
    0.3: 0.263436171681936,
    0.5: 0.12151061635810964,
}
EXACT_SPEED_A4 = 0.526872343363872


@pytest.mark.parametrize("theta", sorted(SPEEDS))
def test_wave_speed_reference_values(theta):
    nl = make_combustion(theta=theta, amplitude=1.0, exponent=2.0, sigma=0.1)
    c = find_wave_speed(nl)
    assert c == pytest.approx(SPEEDS[theta], abs=5e-11)
    assert c == EXACT_SPEEDS[theta]


def test_search_pays_few_full_shots(monkeypatch, caplog, nl03):
    shots = []
    real = wave_profile.shoot_p

    def counting(nl, c):
        shots.append(c)
        return real(nl, c)

    monkeypatch.setattr(wave_profile, "shoot_p", counting)
    with caplog.at_level(logging.DEBUG, logger=wave_profile.__name__):
        assert find_wave_speed(nl03) == EXACT_SPEEDS[0.3]
    assert 0 < len(shots) <= 8  # 5 here; the plain bisection paid 39
    # the search's own telemetry reports the same count
    (record,) = [r for r in caplog.records if r.name == wave_profile.__name__]
    assert f"after {len(shots)} shots" in record.getMessage()


def test_search_halves_after_a_collapse(monkeypatch, nl03):
    # a collapsed shot sends the search back to half its speed, from which
    # Newton climbs to the same root
    real, tried = wave_profile.shoot_p, []

    def first_collapses(nl, c):
        tried.append(c)
        if len(tried) == 1:
            raise ShootingCollapseError("forced")
        return real(nl, c)

    monkeypatch.setattr(wave_profile, "shoot_p", first_collapses)
    assert find_wave_speed(nl03) == pytest.approx(EXACT_SPEEDS[0.3], rel=1e-14)
    assert tried[1] == 0.5 * tried[0]


def test_search_gives_up_after_max_shots(monkeypatch, nl03):
    # a search that cannot meet its stop rule says so instead of returning
    monkeypatch.setattr(wave_profile, "S_TOL", -1.0)
    with pytest.raises(RuntimeError, match=f"after {wave_profile.MAX_SHOTS} shots"):
        find_wave_speed(nl03)


def test_search_stops_at_a_speed_bound_that_underflows():
    # at exponent 1e17 the lower bound sqrt(2 int f) reads 0.0: the search
    # raises RuntimeError, which the CLI reports as a config error, rather
    # than hand shoot_p a speed it rejects
    with pytest.raises(RuntimeError, match=r"no wave speed: candidate c = 0\.0 after 0 shots"):
        find_wave_speed(make_combustion(theta=0.3, amplitude=1.0, exponent=1e17, sigma=0.1))


def test_unresolved_degree_raises(monkeypatch, nl03):
    # at degree 8 the last Chebyshev coefficients of g read 1e-4 of the
    # largest: the shot says so rather than return an unresolved p(theta)
    monkeypatch.setattr(wave_profile, "DEGREE", 8)
    with pytest.raises(RuntimeError, match="degree 8 does not resolve g"):
        shoot_p(nl03, EXACT_SPEEDS[0.3])


def test_unresolved_position_integrand_raises(monkeypatch):
    # at theta 0.001 the integrand needs degree 128: capped at 64,
    # build_profile says so rather than build an unresolved table
    monkeypatch.setattr(wave_profile, "POSITION_DEGREES", (64,))
    nl = make_combustion(theta=0.001, amplitude=1.0, exponent=2.0, sigma=0.1)
    with pytest.raises(RuntimeError, match="degree 64 does not resolve the position integrand"):
        build_profile(nl)


def test_nan_shot_raises():
    # a shot whose Newton iterates turn NaN collapses instead of returning NaN
    nan_nl = SimpleNamespace(theta=0.3, amplitude=np.nan, exponent=2.0, fprime_at_one=-0.49)
    with pytest.raises(ShootingCollapseError, match="Newton diverged"):
        shoot_p(nan_nl, 0.3)


def test_speed_matches_tail_slope(nl03, profile03):
    # at the connection speed the shot lands on the exponential-tail
    # slope |U'| = c theta at the ignition level
    c = profile03.speed
    assert shoot_p(nl03, c)[0] == pytest.approx(c * nl03.theta, abs=1e-10)



def test_shooting_collapses_above_connection_speed(nl03):
    with pytest.raises(ShootingCollapseError):
        shoot_p(nl03, 0.5)


# -- scipy's solve_ivp as the independent reference --------------------------

# Nonlinearities across the parameter range, as (theta, amplitude, exponent,
# sigma), with the exact speeds the search returns for them.
PORT_CASES = {
    (0.2, 1.0, 2.0, 0.1): EXACT_SPEEDS[0.2],
    (0.3, 1.0, 2.0, 0.1): EXACT_SPEEDS[0.3],
    (0.5, 1.0, 2.0, 0.1): EXACT_SPEEDS[0.5],
    (0.3, 4.0, 2.0, 0.1): EXACT_SPEED_A4,
    (0.1, 2.0, 3.0, 0.1): 0.4699682377333104,
    (0.4, 0.5, 2.5, 0.05): 0.09704935639932867,
    (0.05, 1.0, 2.0, 0.1): 0.5927088951062397,
    (0.9, 1.0, 2.0, 0.1): 0.004204095243108363,
    (0.7, 10.0, 2.0, 0.1): 0.12780130231170223,
    (0.3, 0.01, 2.0, 0.1): 0.0263436171681936,
    (0.3, 300.0, 2.0, 0.1): 4.562848339045507,
}
SEED = 1e-6  # 1 - U where the scipy shot starts on the linearization p = beta0 (1 - U)


def _pass_points(theta):
    """24001 levels of U from 1 - SEED down to theta, log-spaced in 1 - U."""
    w = np.exp(np.linspace(np.log(SEED), np.log(1.0 - theta), 24001))
    u = 1.0 - w
    u[-1] = theta
    return u


def _scipy_shot(nl, c, t_eval, rtol, atol):
    """The phase-plane shot p' = c - f/p, D' = -1/p from U = 1 - SEED down to
    theta as solve_ivp's DOP853 takes it: status 1 is a collapse."""
    mu = decay_rate_into_burned(nl, c)
    a, theta, expo = nl.amplitude, nl.theta, nl.exponent

    def rhs(u, y):
        fu = a * (u - theta) ** expo * (1.0 - u) if u > theta else 0.0
        return (c - fu / y[0], -1.0 / y[0])

    floor_amp = 0.05 * min(c * theta, mu * (1.0 - theta)) / (1.0 - theta)

    def hit_floor(u, y):
        return y[0] - floor_amp * (1.0 - u)

    hit_floor.terminal = True
    hit_floor.direction = -1
    return solve_ivp(rhs, (1.0 - SEED, theta), (mu * SEED, 0.0),
                     method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol, events=hit_floor)


@pytest.mark.parametrize("params", sorted(PORT_CASES), ids=str)
def test_speed_is_a_root_of_scipys_shot(params):
    # scipy's rtol-1e-13 S(c) = p(theta) - c theta changes sign within a
    # relative 1e-10 of c_f: its root lies within 8e-14 of c_f
    nl = make_combustion(*params)
    c = find_wave_speed(nl)
    assert c == PORT_CASES[params]
    s = []
    for factor in (1.0 - 1e-10, 1.0 + 1e-10):
        ref = _scipy_shot(nl, c * factor, None, 1e-13, 1e-16)
        assert ref.status == 0
        s.append(ref.y[0][-1] - c * factor * nl.theta)
    assert s[0] > 0.0 > s[1]


def test_anchor_and_range(profile03):
    assert profile03(0.0) == pytest.approx(0.3, abs=1e-12)
    D = np.linspace(-61.0, 61.0, 2000)
    u = profile03(D)
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)
    assert np.all(np.diff(u) <= 0.0)
    # strictly decreasing wherever 1 - u is resolvable in doubles
    Ds = np.linspace(-40.0, 61.0, 2000)
    assert np.all(np.diff(profile03(Ds)) < 0.0)


def test_exact_exponential_tail(profile03):
    # on D >= 0 the profile is exactly theta * exp(-c D)
    D = np.linspace(0.0, 40.0, 400)
    expected = 0.3 * np.exp(-profile03.speed * D)
    assert np.max(np.abs(profile03(D) - expected) / expected) < 1e-12


def test_beta0_reference_and_quadratic_identity(nl03, profile03):
    c = profile03.speed
    b0 = profile03.beta0
    assert b0 == pytest.approx(0.5805667266731785, abs=1e-10)
    assert b0**2 + c * b0 + nl03.fprime_at_one == pytest.approx(0.0, abs=1e-12)
    assert decay_rate_into_burned(nl03, c) == pytest.approx(b0, abs=1e-12)


def test_ode_residual(nl03, profile03):
    # U'' + c U' + f(U) = 0 from the table's own derivatives, relative to
    # sup |f(U)|: 1.8e-9 here
    assert ode_residual_sup(profile03, nl03) < 1e-6


# the eleven profiles whose residuals and joint jumps CHANGES.md reports, as
# (theta, amplitude, exponent): the speed-checked ones, a steep and three
# low-threshold families, a low amplitude and two other exponents; at theta
# 0.001 the position integrand needs twice the degree of g
PROFILE_CASES = [(0.2, 1.0, 2.0), (0.3, 1.0, 2.0), (0.5, 1.0, 2.0), (0.3, 4.0, 2.0),
                 (0.3, 16.0, 2.0), (0.05, 1.0, 2.0), (0.1, 1.0, 2.0), (0.3, 1.0, 3.0),
                 (0.3, 1.0, 2.5), (0.1, 0.5, 2.0), (0.001, 1.0, 2.0)]
ACROSS_PROFILES = pytest.mark.parametrize(
    "theta, amplitude, exponent", PROFILE_CASES,
    ids=[f"theta{t}-amplitude{a}" + (f"-exponent{p}" if p != 2.0 else "")
         for t, a, p in PROFILE_CASES])


@functools.cache
def _built(theta, amplitude, exponent):
    nl = make_combustion(theta=theta, amplitude=amplitude, exponent=exponent, sigma=0.1)
    return nl, build_profile(nl)


@ACROSS_PROFILES
def test_ode_residual_across_families(theta, amplitude, exponent):
    # one relative bound for every family: these read 1.1e-9 to 5.4e-8
    nl, profile = _built(theta, amplitude, exponent)
    assert ode_residual_sup(profile, nl) < 1e-6


def test_ode_residual_sees_a_mismatched_amplitude(profile03):
    # the profile of amplitude 1 checked against amplitude 1 + 1e-5 reads
    # 1.0e-5 (a second-difference check on a step-0.005 grid read 5.4e-7)
    nl = make_combustion(theta=0.3, amplitude=1.0 + 1e-5, exponent=2.0, sigma=0.1)
    assert ode_residual_sup(profile03, nl) > 1e-6


def test_ode_residual_sees_a_perturbed_speed(nl03, profile03):
    # the table of c_f evaluated at a speed off by a relative 1e-5 reads
    # 6.3e-6 (the second-difference check read 3.1e-7)
    wrong = dataclasses.replace(profile03, speed=profile03.speed * (1.0 + 1e-5))
    assert ode_residual_sup(wrong, nl03) > 1e-6


def test_derivative_matches_finite_differences(profile03):
    D = np.linspace(-25.0, 25.0, 600)
    h = 1e-5
    fd = (profile03(D + h) - profile03(D - h)) / (2 * h)
    assert np.max(np.abs(profile03.jet(D)[1] - fd)) < 1e-8


def test_second_derivative_matches_finite_differences(nl03, profile03):
    D = np.linspace(-20.0, 20.0, 400)
    # keep clear of the ignition kink at D = 0 where U'' jumps
    D = D[np.abs(D) > 0.05]
    h = 1e-4
    fd = (profile03(D + h) - 2 * profile03(D) + profile03(D - h)) / h**2
    # U'' = -c U' - f(U), from the ODE
    u, u1, _ = profile03.jet(D)
    upp = -profile03.speed * u1 - nl03(u)
    assert np.max(np.abs(upp - fd)) < 1e-6


def test_derivative_strictly_negative(profile03):
    D = np.linspace(-61.0, 61.0, 3000)
    assert np.all(profile03.jet(D)[1] < 0.0)


def test_inverse_roundtrip(profile03):
    for u in np.linspace(1e-6, 1.0 - 1e-9, 37):
        D = profile03.inverse(float(u))
        assert profile03(D) == pytest.approx(u, abs=1e-9)
    with pytest.raises(ValueError):
        profile03.inverse(1.5)
    with pytest.raises(ValueError):
        profile03.inverse(0.0)


def _one_minus(profile, d):
    """1 - U(D) from jet's log U, without cancellation as U -> 1."""
    return -np.expm1(profile.jet(d)[2])


@pytest.mark.parametrize("u", [1.0 - 1e-12, 1.0 - 1e-7, 1e-3, 1e-200])
def test_inverse_is_accurate_towards_both_ends(profile03, u):
    # the smaller of U and 1 - U comes back to round-off: D is linear in
    # log(1 - u) left of d_joint and in log u right of 0.  A bisection on U
    # itself lost 5.6e-5 of 1 - U at 1 - 1e-12.  1 - U is read off log U
    d = profile03.inverse(u)
    if u > 0.5:
        assert abs(_one_minus(profile03, d) / (1.0 - u) - 1.0) <= 1e-13
    else:
        assert abs(profile03(d) / u - 1.0) <= 1e-13


@given(low=st.floats(min_value=-300.0, max_value=-0.01),
       high=st.floats(min_value=-15.0, max_value=-0.16))
def test_inverse_roundtrip_towards_both_ends(profile03, low, high):
    # u = 10^low and u = 1 - 10^high: U, and 1 - U, come back to a relative
    # 1e-12 through every branch of inverse
    u = 10.0 ** low
    assert abs(profile03(profile03.inverse(u)) / u - 1.0) <= 1e-12
    u = 1.0 - 10.0 ** high
    assert abs(_one_minus(profile03, profile03.inverse(u)) / (1.0 - u) - 1.0) <= 1e-12


def _tail_constants(profile):
    """(L1, L2, L3, L4): the extremes of U e^{c D} on D > 0 and of (1 - U)
    e^{-beta0 D} on D < 0, over the step-0.005 grid of profile.csv."""
    c, beta0 = profile.speed, profile.beta0
    half_n = int(np.ceil(max(16.0 / c, 16.0 / beta0, abs(profile.d_joint) + 4.0) / 0.005))
    grid = 0.005 * np.arange(-half_n, half_n + 1)
    pos, neg = grid[grid > 0.0], grid[grid < 0.0]
    r_right = profile(pos) * np.exp(c * pos)
    r_left = _one_minus(profile, neg) * np.exp(-beta0 * neg)
    return r_right.min(), r_right.max(), r_left.max(), r_left.min()


def test_one_minus_accuracy_in_burned_tail(profile03):
    # 1 - U underflows in naive evaluation; read off log U it keeps its
    # relative accuracy
    D = np.linspace(-60.0, -30.0, 100)
    om = _one_minus(profile03, D)
    assert np.all(om > 0.0)
    L1, L2, L3, L4 = _tail_constants(profile03)
    env = np.exp(profile03.beta0 * D)
    assert np.all(om <= L3 * env * (1 + 1e-9))
    assert np.all(om >= L4 * env * (1 - 1e-9))


def test_tail_rate_envelopes(profile03):
    c = profile03.speed
    L1, L2, L3, L4 = _tail_constants(profile03)
    assert 0 < L1 <= L2
    assert 0 < L4 <= L3
    D = np.linspace(0.0, 30.0, 200)
    u = profile03(D)
    assert np.all(u <= L2 * np.exp(-c * D) * (1 + 1e-12))
    assert np.all(u >= L1 * np.exp(-c * D) * (1 - 1e-12))


def test_u_pow_and_log_u_consistency(profile03):
    D = np.linspace(-30.0, 50.0, 300)
    log_u = profile03.jet(D)[2]
    assert np.max(np.abs(log_u - np.log(profile03(D)))) < 1e-10
    p = 2.0  # U^p as the barriers take it, in the log domain
    assert np.max(np.abs(np.exp(p * log_u) - profile03(D) ** p)) < 1e-12


def test_amplitude_scaling_doubles_speed(nl03, profile03):
    # u_t - u_xx = a f(u) travels at sqrt(a) c with profile U(sqrt(a) D);
    # the search scales the amplitude-1 speed by sqrt(a), so the law holds to
    # one rounding (the bisection broke it by 4.7e-12 to 1.9e-11 relative)
    for a in (0.01, 4.0, 300.0):
        c_a = find_wave_speed(make_combustion(theta=0.3, amplitude=a, exponent=2.0, sigma=0.1))
        assert c_a == pytest.approx(np.sqrt(a) * profile03.speed, rel=1e-15, abs=0.0)
    nl4 = make_combustion(theta=0.3, amplitude=4.0, exponent=2.0, sigma=0.1)
    c4 = find_wave_speed(nl4)
    assert c4 == EXACT_SPEED_A4
    prof4 = build_profile(nl4, c=c4)
    D = np.linspace(-12.0, 25.0, 500)
    assert np.max(np.abs(prof4(D) - profile03(2.0 * D))) < 1e-6


def test_build_profile_with_explicit_speed(nl03, profile03):
    prof = build_profile(nl03, c=profile03.speed)
    D = np.linspace(-15.0, 15.0, 200)
    assert np.max(np.abs(prof(D) - profile03(D))) < 1e-12


# -- piecewise evaluation table ----------------------------------------------


def _breakpoints(profile):
    return profile.d_joint + profile._piece_width * np.arange(1, N_PIECES)


def test_piecewise_table_follows_a_tighter_shot(nl03, profile03):
    # scipy's rtol-3e-14 pass at c_f, anchored so that D(theta) = 0, is the
    # reference where 1 - U >= 1e-5, past the error of its linear seed (U
    # is 4.9e-13 off at the seed, and 1e-16 off at 1 - U = 1e-4): there U
    # and 1 - U read 1.7e-14 off it, and U' = -p 2.9e-13
    ref = _scipy_shot(nl03, profile03.speed, _pass_points(0.3), 3e-14, 1e-16)
    assert ref.status == 0
    keep = 1.0 - ref.t >= 1e-5
    u_ref, p_ref, d_ref = ref.t[keep], ref.y[0][keep], (ref.y[1] - ref.y[1][-1])[keep]
    assert np.max(np.abs(profile03(d_ref) - u_ref)) <= 1e-13
    _, u1, log_u = profile03.jet(d_ref)
    assert np.max(np.abs(-np.expm1(log_u) - (1.0 - u_ref))) <= 1e-13
    assert np.max(np.abs(u1 + p_ref)) <= 1e-12


@ACROSS_PROFILES
def test_piecewise_table_is_continuous_at_breakpoints(theta, amplitude, exponent):
    # the piece joints, plus the joint to the exponential left tail.  U'
    # jumps by the round-off of the node values at the piece joints, at
    # most 6.6e-13 over these profiles (1.3e-13 above theta 0.001), and by
    # about |g'(1)| DELTA_LIN^2 at the tail joint, at most 2.8e-14
    profile = _built(theta, amplitude, exponent)[1]
    b = np.append(_breakpoints(profile), profile.d_joint)
    below, above = np.nextafter(b, -np.inf), np.nextafter(b, np.inf)
    assert np.max(np.abs(profile(above) - profile(below))) <= 1e-14
    assert np.max(np.abs(profile(b) - profile(below))) <= 1e-14
    jump_slope = profile.jet(above)[1] - profile.jet(below)[1]
    assert np.max(np.abs(jump_slope)) <= 1e-12


def test_table_does_not_depend_on_blas_threads(tmp_path):
    # the table is built without any least-squares solve, so a BLAS pool of
    # another size cannot move its bits
    script = (
        "import sys, numpy as np\n"
        "from curvedfronts import build_profile, make_combustion\n"
        "p = build_profile(make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1))\n"
        "np.savez(sys.argv[1], table=p._table, slope=p._slope_table,\n"
        "         values=p(np.linspace(-60.0, 60.0, 24001)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    saved = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        path = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
        saved.append(np.load(path))
    for name in ("table", "slope", "values"):
        assert np.array_equal(saved[0][name], saved[1][name]), name


# Each evaluator read off the profile: __call__ gives U, jet gives
# (U, U', log U), and the derivative, log U and 1 - U (as -expm1 of log U)
# are single outputs of jet
EVALUATORS = {
    "__call__": lambda p, d: (p(d),),
    "jet": lambda p, d: p.jet(d),
    "derivative": lambda p, d: (p.jet(d)[1],),
    "log_u": lambda p, d: (p.jet(d)[2],),
    "one_minus": lambda p, d: (-np.expm1(p.jet(d)[2]),),
}


@pytest.mark.parametrize("method", list(EVALUATORS))
def test_evaluator_shapes(profile03, method):
    # floats for a scalar D, arrays of D's shape for an array, each entry the
    # scalar's value
    def f(d):
        return EVALUATORS[method](profile03, d)
    n = len(f(0.0))
    for x in (-3.0, np.float64(2.0)):
        assert all(isinstance(v, float) for v in f(x))
    for shape in [(0,), (1,), (5,), (3, 4)]:
        D = np.linspace(-40.0, 10.0, int(np.prod(shape))).reshape(shape)
        scalars = np.array([f(float(x)) for x in D.reshape(-1)]).reshape(shape + (n,))
        outs = f(D)
        assert len(outs) == n
        for k, out in enumerate(outs):
            assert isinstance(out, np.ndarray) and out.shape == shape
            np.testing.assert_allclose(out, scalars[..., k], rtol=1e-13, atol=0.0)


@ACROSS_PROFILES
def test_jet_value_is_the_profile(theta, amplitude, exponent):
    # jet's U is __call__'s, bit for bit, at the joints, both zeros and the
    # tails; a scalar D gives the entries of the array
    profile = _built(theta, amplitude, exponent)[1]
    edges = (profile.d_joint, 0.0, -0.0, 1e-300, -1e-300)
    d = np.concatenate([np.linspace(profile.d_joint - 30.0, 30.0, 20001)]
                       + [[np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)] for e in edges])
    u, u1, log_u = profile.jet(d)
    assert np.array_equal(u, profile(d))
    for i in range(-15, 0):
        assert profile.jet(float(d[i])) == (u[i], u1[i], log_u[i])


def test_inverse_takes_arrays(profile03):
    # every branch: the right tail, the table span and the burned tail; an
    # array gives the scalar bits and keeps its shape
    levels = np.array([[1e-200, 1e-3, 0.3], [0.5, 1.0 - 1e-7, 1.0 - 1e-12]])
    d = profile03.inverse(levels)
    assert d.shape == levels.shape
    assert np.array_equal(d, [[profile03.inverse(float(u)) for u in row] for row in levels])
    assert isinstance(profile03.inverse(0.5), float)
    with pytest.raises(ValueError):
        profile03.inverse(np.array([0.5, 1.0]))


def test_ascending_route_at_the_slice_boundaries(profile03):
    # the ascending route must put d_joint in the table span and both zeros
    # in the right tail, as the masks do.  The table misses theta at D = 0
    # by about an ulp, but meets the burned tail at d_joint bit for bit, so
    # a copy with the burned tail shifted shows a point on the wrong side
    # of that boundary too
    shifted = dataclasses.replace(
        profile03, _log_one_minus_at_joint=profile03._log_one_minus_at_joint + 1e-3)
    for p in (profile03, shifted):
        d = np.sort([x for edge in (p.d_joint, 0.0, -0.0)
                     for x in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))])
        want = np.array([p(x) for x in d])
        assert np.array_equal(p(d, ascending=True), want)
        assert np.array_equal(p(d), want)
    assert profile03(np.array([-0.0, 0.0]), ascending=True).tolist() == [0.3, 0.3]


def test_floored_run_has_zero_lower_violation(cfg_v, profile03, nl03):
    # the solver floor and the check both call subsolution_floor at the
    # snapshot times, so a floored run sits on or above it bit for bit
    c = profile03.speed
    g = Grid((48, 48), 0.5, (-12.0, -16.0))
    res = entire_solution(cfg_v, profile03, nl03, g, SolverConfig(),
                          n_list=[2.0 / c], window_end=1.0 / c, snapshot_dt=0.5 / c)
    assert sandwich_and_monotonicity(res.v_hat, cfg_v, profile03)["lower_violation"] == 0.0
