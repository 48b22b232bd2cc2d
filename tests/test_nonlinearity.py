"""Ignition-type nonlinearity: support, clamping, derivative data, and the
burned-state margin gamma_star."""

import numpy as np
import pytest

from curvedfronts import CombustionNonlinearity, gamma_star, make_combustion


def test_zero_below_ignition_and_at_one():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    u = np.linspace(-0.1, 0.3, 41)
    assert np.all(nl(u) == 0.0)
    assert nl(1.0) == 0.0


def test_sign_pattern():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    mid = np.linspace(0.3 + 1e-6, 1.0 - 1e-6, 100)
    assert np.all(nl(mid) > 0.0)
    over = np.linspace(1.0 + 1e-6, 1.1, 50)
    assert np.all(nl(over) < 0.0)


def test_closed_form_values():
    # f(u) = a (u - theta)^p (1 - u) on (theta, 1 + sigma]
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    for u in (0.4, 0.5, 0.75, 0.95, 1.05):
        assert nl(u) == pytest.approx((u - 0.3) ** 2 * (1.0 - u), abs=1e-15)


def test_clamped_outside_extended_range():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    # values freeze at the endpoints of [-sigma, 1 + sigma]
    assert nl(-5.0) == nl(-0.1)
    assert nl(7.0) == nl(1.1)
    assert nl(1.1) == pytest.approx(0.8**2 * (-0.1), abs=1e-15)


def _clip_form(nl, u):
    """(clamp, f, f') as computed with np.clip before the min/max clamp."""
    uu = np.asarray(u, dtype=float)
    w = np.clip(uu, -nl.sigma, 1.0 + nl.sigma)
    s = np.maximum(w - nl.theta, 0.0)
    p = nl.exponent
    f = nl.amplitude * s**p * (1.0 - w)
    df = nl.amplitude * s ** (p - 1.0) * (p * (1.0 - w) - s)
    return w, f, np.where((uu < -nl.sigma) | (uu > 1.0 + nl.sigma), 0.0, df)


def test_clamp_matches_np_clip_bitwise():
    nl = make_combustion(theta=0.3, amplitude=1.3, exponent=2.5, sigma=0.1)
    lo, hi = -nl.sigma, 1.0 + nl.sigma
    u = np.array([0.0, -0.0, lo, hi, np.nextafter(lo, -1.0), np.nextafter(hi, 2.0),
                  np.inf, -np.inf, -5.0, 7.0, 0.3, 0.65, 1.0, 1.05, np.nan])
    for x in [u, *u.tolist()]:
        got = (nl._clamp(np.asarray(x)), nl(x), nl.derivative(x))
        for g, ref in zip(got, _clip_form(nl, x)):
            assert np.array_equal(g, ref, equal_nan=True)
            assert np.array_equal(np.signbit(g), np.signbit(ref))
        assert isinstance(got[1], float) == isinstance(x, float)
        assert isinstance(got[2], float) == isinstance(x, float)


def test_fprime_at_one():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    assert nl.fprime_at_one == pytest.approx(-0.49, abs=1e-14)
    nl2 = make_combustion(theta=0.2, amplitude=2.0, exponent=3.0, sigma=0.1)
    assert nl2.fprime_at_one == pytest.approx(-2.0 * 0.8**3, abs=1e-14)


def test_derivative_matches_finite_differences():
    nl = make_combustion(theta=0.3, amplitude=1.3, exponent=2.5, sigma=0.1)
    rng = np.random.default_rng(7)
    # stay away from the ignition kink and the clamp corners
    u = rng.uniform(0.32, 1.08, size=200)
    h = 1e-6
    fd = (nl(u + h) - nl(u - h)) / (2 * h)
    assert np.max(np.abs(nl.derivative(u) - fd)) < 5e-9


def test_lipschitz_bound():
    nl = make_combustion(theta=0.25, amplitude=1.0, exponent=2.0, sigma=0.1)
    L = nl.max_abs_derivative(-nl.sigma, 1.0 + nl.sigma)
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.3, 1.4, size=500)
    v = rng.uniform(-0.3, 1.4, size=500)
    assert np.all(np.abs(nl(u) - nl(v)) <= L * np.abs(u - v) + 1e-14)


@pytest.mark.parametrize("theta, exponent", [(0.1, 7.0), (0.3, 2.0), (0.3, 2.5), (0.7, 10.0)])
def test_max_abs_derivative_is_the_sup(theta, exponent):
    # on the solver's and the barriers' intervals the sup sits at an end,
    # which a dense sample hits bit for bit; on an interior interval around
    # the extremum of f' the sample falls short of it (by 3e-10 to 3e-9 here)
    nl = make_combustion(theta=theta, amplitude=0.5, exponent=exponent, sigma=0.1)
    for lo, hi in ((-nl.sigma, 1.0 + nl.sigma), (0.0, 1.0)):
        dense = np.linspace(lo, hi, 8193)
        assert nl.max_abs_derivative(lo, hi) == np.max(np.abs(nl.derivative(dense)))
    peak = theta + (exponent - 1.0) * (1.0 - theta) / (exponent + 1.0)
    lo, hi = peak - 0.1 * (1.0 - theta), peak + 0.05 * (1.0 - theta)
    sup = nl.max_abs_derivative(lo, hi)
    dense = np.max(np.abs(nl.derivative(np.linspace(lo, hi, 8193))))
    assert sup == pytest.approx(abs(nl.derivative(peak)), rel=1e-15)
    assert dense < sup


def test_gamma_star_reference_value():
    # for (0.3, 1, 2, 0.1) the cap min{theta/4, (1-theta)/2, sigma/4} binds
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    assert gamma_star(nl) == pytest.approx(0.025, abs=1e-12)
    assert nl.gamma_star == pytest.approx(0.025, abs=1e-12)


def test_gamma_star_derivative_band():
    # within [1 - 2g, 1 + 2g] the slope stays comparable to f'(1)
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    g = nl.gamma_star
    u = np.linspace(1.0 - 2 * g, 1.0 + 2 * g, 801)
    df = nl.derivative(u)
    assert np.all(df <= 0.5 * nl.fprime_at_one + 1e-12)
    assert np.all(df >= 1.5 * nl.fprime_at_one - 1e-12)


def test_exponent_below_two_rejected():
    with pytest.raises(ValueError):
        make_combustion(exponent=1.5)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_combustion(theta=0.0)
    with pytest.raises(ValueError):
        make_combustion(theta=1.0)
    with pytest.raises(ValueError):
        make_combustion(amplitude=-1.0)
    with pytest.raises(ValueError):
        make_combustion(sigma=0.0)


def test_dataclass_direct_construction_validates():
    with pytest.raises(ValueError):
        CombustionNonlinearity(theta=0.3, amplitude=1.0, exponent=1.0, sigma=0.1)
