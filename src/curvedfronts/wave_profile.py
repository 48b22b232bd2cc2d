"""Planar traveling front U(D) and its speed for ignition nonlinearities.

The profile solves U'' + c U' + f(U) = 0 with U(-inf) = 1, U(+inf) = 0,
U' < 0, normalized so that U(0) = theta.  Since f vanishes on [0, theta],
the right tail is exactly U(D) = theta * exp(-c D) for D >= 0; the speed is
the unique c for which the phase-plane trajectory from the burned state
matches that tail at U = theta.

In the phase plane p(u) = -U'(D) solves p' = c - f(u) / p, and the match
is p(theta) = c * theta.  Writing p = (1 - u) g(u) takes out the zero of p
at the burned state:

    (1 - u) g' = g + c - a (u - theta)^p / g    on [theta, 1],

which at u = 1 reduces to g^2 + c g + f'(1) = 0, so g(1) is the rate beta0
at which 1 - U decays into the burned state, with no seed offset.  A shot
is one Chebyshev collocation of this equation (Trefethen, *Spectral
Methods in MATLAB*, ch. 6, 7 and 13; Boyd, *Chebyshev and Fourier Spectral
Methods*): Newton's method solves it at the DEGREE + 1 Chebyshev-Lobatto
points of [theta, 1] in t = sqrt((u - theta) / (1 - theta)), where the
equation picks the one solution that is smooth at u = 1, and the shot
gives p(theta) = (1 - theta) g(theta).  The variable t makes
(u - theta)^p a power of t and crowds the points towards theta, where g
turns small for a small theta.  A shot gives p(theta) and, from its own
Jacobian, dp(theta)/dc; it raises ShootingCollapseError where Newton
finds no positive g, and RuntimeError where DEGREE does not resolve g.

The speed is the root of S(c) = p(theta; c) - c * theta, by Newton's
method on S with dS/dc from the shot's own Jacobian.  It starts from a
lower bound: c * int_0^1 p du = int_0^1 f du and p <= c u give
c^2 >= 2 int_0^1 f du.  The search runs at amplitude 1 and scales the
result by sqrt(a), since u_t = u_xx + a f(u) is the amplitude-1 equation
in x sqrt(a) and t a; so c(a) = sqrt(a) c(1) holds to one rounding.

The position follows from dD/du = -1 / p:

    D(u) = log((1 - u) / (1 - theta)) / beta0
           + int_u^theta (beta0 - g) / (beta0 g (1 - v)) dv,

the logarithm of the burned tail plus a smooth integral, which is fitted
and integrated in Chebyshev form.  For evaluation the profile is stored as
three pieces: the right tail (closed form), log(1 - U) on the span
[d_joint, 0] with d_joint = D(1 - DELTA_LIN), and the exponential left tail
beyond it.  On the span it is a table of N_PIECES = 640 uniform pieces,
each a degree-PIECE_DEGREE = 5 Chebyshev interpolant (the interval
splitting of Trefethen, *Approximation Theory and Approximation Practice*)
whose node values s = log(1 - U) solve D(s) = D by Newton's method, with
dD/ds = 1 / g, so no global series in D is formed.  A point finds its
piece in O(1) and costs a PIECE_DEGREE-step Clenshaw sum per table; a
second table, differentiated piece by piece, gives U'.  One split, by
masks, puts each point on a tail or the table; then __call__ gives U, and
jet (U, U', log U) from one pass over both tables.  This table is the
profile's only representation: ode_residual_sup checks the ODE on its
own derivatives, and inverse solves on it, for one level or an array,
between two closed-form tails.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .nonlinearity import CombustionNonlinearity

__all__ = [
    "WaveProfile",
    "ShootingCollapseError",
    "decay_rate_into_burned",
    "shoot_p",
    "find_wave_speed",
    "build_profile",
    "ode_residual_sup",
]

DEGREE = 64  # Chebyshev degree of g on [theta, 1]
# A series is resolved when its last three Chebyshev coefficients are
# below a share of the largest: G_RTOL for g, which sets the speed, and
# POSITION_RTOL for the position integrand.  At DEGREE, over theta 0.01 to
# 0.99, exponents 2 to 10 and amplitudes 0.01 to 300, they read at most
# 2e-16 for g and 2e-12 for the integrand.  The integrand's grow as theta
# falls (3.3e-7 at 0.001), so build_profile tries POSITION_DEGREES in turn:
# 128 resolves theta 0.001, 512 1e-5 and 1024 1e-6, where g's read 4e-13
# and the table's residual 2e-8.  At degree 8, g's read 1e-4.
G_RTOL = 1e-11
POSITION_RTOL = 1e-11
POSITION_DEGREES = tuple(DEGREE << k for k in range(5))  # DEGREE to 16 DEGREE
NEWTON_RTOL = 1e-13  # Newton stops on a step below this share of max g, or of |log DELTA_LIN| for s
NEWTON_STEPS = 30  # Newton steps within which a shot, or a table node, converges
S_TOL = 1e-12  # |S| at which find_wave_speed may stop...
STEP_RTOL = 1e-14  # ...once its Newton step is below this share of c
MAX_SHOTS = 20  # shots after which find_wave_speed gives up
# 1 - U at the left end d_joint of the table span.  The table's log-slope
# there is g(1 - DELTA_LIN), off beta0 by about |g'(1)| DELTA_LIN, so U'
# steps by about |g'(1)| DELTA_LIN^2 onto the burned tail: 7e-15 at theta 0.3
DELTA_LIN = 1e-7
N_PIECES = 640  # uniform pieces of the evaluation table on [d_joint, 0], 0.047 wide at theta 0.3
PIECE_DEGREE = 5  # Chebyshev degree of each piece
TABLE_CHUNK = 8192  # points per pass of _table_sum and per floor profile call: temporaries stay in L2
RESIDUAL_POINTS = 16384  # uniform points of [d_joint, 0] at which ode_residual_sup checks the ODE

_log = logging.getLogger(__name__)


class ShootingCollapseError(RuntimeError):
    """No positive g solves the phase-plane equation for this speed.

    This happens when the speed candidate sits well above the connection
    speed: the trajectory then rides the slow branch p ~ f/c, which
    vanishes before the ignition threshold.
    """


def decay_rate_into_burned(nl: CombustionNonlinearity, c: float) -> float:
    """Positive root beta0 of beta^2 + c*beta + f'(1) = 0: the rate at which
    1 - U decays as D -> -inf (and g(1), the slope of p at U = 1)."""
    fp1 = nl.fprime_at_one
    return 0.5 * (-c + np.sqrt(c * c - 4.0 * fp1))


def _lobatto(n: int):
    """(t, 1 - t) at the Chebyshev-Lobatto points x_j = cos(pi j / n), j = 0..n,
    from x = 1 down to -1: t = (1 + x) / 2, and 1 - t without cancellation."""
    half = np.pi * np.arange(n + 1) / (2 * n)
    return np.cos(half) ** 2, np.sin(half) ** 2


def _cheb_coefficients(values):
    """Chebyshev coefficients of the polynomial through values at the
    Lobatto points x_j = cos(pi j / n), by the FFT of their even extension,
    and the share of the largest that the last three reach: the degree
    resolves the function where that share is at round-off."""
    n = values.size - 1
    coef = np.fft.rfft(np.concatenate((values, values[-2:0:-1]))).real / n
    coef[0] *= 0.5
    coef[n] *= 0.5
    return coef, np.max(np.abs(coef[-3:])) / np.max(np.abs(coef))


def _unresolved(n: int, name: str, c: float, tail: float) -> RuntimeError:
    return RuntimeError(f"degree {n} does not resolve {name} at c = {c}: its last "
                        f"Chebyshev coefficients reach {tail:.1e} of the largest")


def _collocate(nl: CombustionNonlinearity, c: float):
    """(g, dg/dc, Chebyshev coefficients of g) at the Lobatto points, from
    u = 1 (j = 0) down to theta (j = DEGREE).

    The variable is t = sqrt((u - theta) / (1 - theta)) = (1 + x) / 2:
    (u - theta)^p is then a power of t and g is even in t, and the points
    crowd towards theta, where g turns small for a small theta.  With
    (1 - u) d/du = (1 - t)(1 + t) / t d/dx, the equation times t reads
    F(g) = (1 - t)(1 + t) D g - t (g + c - a (u - theta)^p / g) = 0, whose
    row at t = 0 asks dg/dx to vanish there, as it does for every g smooth
    in u.  Newton starts from 1/p = 1/(c u) + 1/(beta0 (1 - u)), between the
    two asymptotes of p; each step solves the Jacobian for F and for
    -dF/dc = t, so the converged shot has dg/dc from the same factorization.
    """
    theta = nl.theta
    t, one_minus_t = _lobatto(DEGREE)
    # the differentiation matrix in x (Trefethen, ch. 6), each diagonal
    # entry minus the sum of its row
    j = np.arange(DEGREE + 1)
    x = np.sin(np.pi * (DEGREE - 2 * j) / (2 * DEGREE))
    weight = np.where((j == 0) | (j == DEGREE), 2.0, 1.0) * (-1.0) ** j
    dm = np.outer(weight, 1.0 / weight) / (np.subtract.outer(x, x) + np.eye(DEGREE + 1))
    dm -= np.diag(dm.sum(axis=1))
    lhs = (one_minus_t * (1.0 + t))[:, None] * dm - np.diag(t)
    tw = t * nl.amplitude * ((1.0 - theta) * t * t) ** nl.exponent  # t a (u - theta)^p
    u = theta + (1.0 - theta) * t * t
    mu = decay_rate_into_burned(nl, c)
    g = c * mu * u / (mu * (1.0 - theta) * one_minus_t * (1.0 + t) + c * u)
    rhs = np.empty((DEGREE + 1, 2))
    rhs[:, 1] = t
    for _ in range(NEWTON_STEPS):
        # the row sums by numpy's own reduction, not BLAS, keep the bits
        # independent of the BLAS thread count
        rhs[:, 0] = (lhs * g).sum(axis=1) - t * c + tw / g
        step = np.linalg.solve(lhs - np.diag(tw / (g * g)), rhs)
        g = g - step[:, 0]
        if not np.all(np.isfinite(g)):
            raise ShootingCollapseError(f"Newton diverged at c = {c}")
        if np.max(np.abs(step[:, 0])) <= NEWTON_RTOL * np.max(np.abs(g)):
            break
    else:
        raise ShootingCollapseError(f"Newton did not converge in {NEWTON_STEPS} steps at c = {c}")
    # an iterate may dip below 0 on the way; the solution may not
    if not np.all(g > 0.0):
        raise ShootingCollapseError(f"no positive g at c = {c}")
    coef, tail = _cheb_coefficients(g)
    if not tail <= G_RTOL:
        raise _unresolved(DEGREE, "g", c, tail)
    return g, step[:, 1], coef


def shoot_p(nl: CombustionNonlinearity, c: float) -> tuple[float, float]:
    """(p(theta; c), dp(theta)/dc) from one collocation, p(theta) being
    (1 - theta) g(theta).  A candidate above the connection speed may
    collapse (ShootingCollapseError)."""
    if c <= 0.0:
        raise ValueError(f"wave speed candidate must be positive, got {c}")
    g, dg_dc = _collocate(nl, c)[:2]
    return float((1.0 - nl.theta) * g[-1]), float((1.0 - nl.theta) * dg_dc[-1])


def find_wave_speed(nl: CombustionNonlinearity) -> float:
    """Unique speed c with S(c) = p(theta; c) - c*theta = 0.

    Newton's method on S at amplitude 1, from the lower bound
    sqrt(2 int_0^1 f du), halving c after a collapsed shot; the result is
    scaled by sqrt(a).  It stops at the first shot with |S| <= S_TOL whose
    Newton step is at most STEP_RTOL * c, and returns that shot's c, or
    raises RuntimeError after MAX_SHOTS shots or at a candidate c <= 0.
    The shot count and the final |S| go to the module logger at DEBUG.
    """
    unit = dataclasses.replace(nl, amplitude=1.0)
    theta, p = nl.theta, nl.exponent
    # sqrt(2 int_0^1 f du) at amplitude 1, below the root
    c = float(np.sqrt(2.0 * (1.0 - theta) ** (p + 2.0) / ((p + 1.0) * (p + 2.0))))
    s = np.inf
    for shots in range(1, MAX_SHOTS + 1):
        if not c > 0.0:  # the bound underflows to 0 at a large exponent
            raise RuntimeError(f"no wave speed: candidate c = {c} after {shots - 1} shots")
        try:
            p_theta, slope = shoot_p(unit, c)
        except ShootingCollapseError:
            c *= 0.5
            continue
        s = p_theta - c * theta
        step = s / (slope - theta)
        if abs(s) <= S_TOL and abs(step) <= STEP_RTOL * c:
            c = float(np.sqrt(nl.amplitude) * c)
            _log.debug("find_wave_speed: c = %r after %d shots, |S(c)| = %.3e at amplitude 1",
                       c, shots, abs(s))
            return c
        c -= step
    raise RuntimeError(f"no wave speed after {MAX_SHOTS} shots: c = {c}, |S| = {abs(s):.3e}")


@dataclass(frozen=True)
class WaveProfile:
    """Planar front U(D), valid for every real D: the piecewise Chebyshev
    table of log(1 - U) on the computed span [d_joint, 0], between the exact
    exponential tails.  Its evaluators share one split of the input: U(D)
    by calling it, (U, U', log U) by jet, and D from U by inverse."""

    speed: float
    beta0: float
    anchor: float  # U(0) = theta
    d_joint: float  # left end of the computed span; 1 - U decays at beta0 beyond it
    # Chebyshev coefficients of log(1 - U) on the pieces of [d_joint, 0]:
    # row m holds degree m of every piece, so a Clenshaw step gathers one row
    _table: np.ndarray  # (PIECE_DEGREE + 1, N_PIECES) = (6, 640)
    _slope_table: np.ndarray  # (PIECE_DEGREE, N_PIECES) = (5, 640): d/dD of _table
    _centres: np.ndarray  # (N_PIECES,): midpoints of the pieces
    _piece_width: float
    _log_one_minus_at_joint: float

    # -- core piecewise representation -------------------------------------

    def _table_sum(self, rows, d, *more):
        """Piecewise Chebyshev sums of `rows`, and of each table in `more`,
        at D in [d_joint, 0], a 1-D array, TABLE_CHUNK points at a time: one
        piece index and one local variable per point serve every table.
        Returns one array per table."""
        tables = (rows,) + more
        outs = tuple(np.empty_like(d) for _ in tables)
        for lo in range(0, d.size, TABLE_CHUNK):
            dc = d[lo:lo + TABLE_CHUNK]
            idx = np.minimum(((dc - self.d_joint) / self._piece_width).astype(np.intp),
                             N_PIECES - 1)
            # twice the local variable s in [-1, 1] of the piece, measured from
            # its centre: d lies close to it, so the difference is exact
            # (Sterbenz) outside the piece next to D = 0
            x2 = (dc - self._centres.take(idx)) * (4.0 / self._piece_width)
            for table, out in zip(tables, outs):
                b1, b2 = table[-1].take(idx), 0.0
                for row in table[-2:0:-1]:  # Clenshaw: b_m = c_m + 2 s b_{m+1} - b_{m+2}
                    b1, b2 = row.take(idx) + x2 * b1 - b2, b1
                out[lo:lo + TABLE_CHUNK] = table[0].take(idx) + 0.5 * x2 * b1 - b2
        return outs

    def _burned_log(self, d):
        """log(1 - U(D)) on the burned tail D < d_joint: linear at rate beta0."""
        g = d - self.d_joint  # then in place, with the bits of g_joint + beta0 * g
        return np.add(np.multiply(g, self.beta0, out=g), self._log_one_minus_at_joint, out=g)

    def _split(self, d):
        """(d, scalar, burned, span, pos) for a scalar or an array of D: d as
        an array of at least one dimension, and the masks of where it lies
        on the burned tail, the table span and the right tail D >= 0."""
        d = np.asarray(d, dtype=float)
        scalar = d.ndim == 0
        d = np.atleast_1d(d)
        pos = d >= 0.0
        span = (d >= self.d_joint) & ~pos
        return d, scalar, ~(pos | span), span, pos

    def __call__(self, d):
        """U(D) for any real D."""
        d, scalar, burned, span, pos = self._split(d)
        out = np.empty_like(d)
        u = -self.speed * d[pos]  # anchor * exp(-c D), in place
        out[pos] = np.multiply(np.exp(u, out=u), self.anchor, out=u)
        for sel, g in ((span, self._table_sum(self._table, d[span])[0]),
                       (burned, self._burned_log(d[burned]))):
            out[sel] = np.subtract(1.0, np.exp(g, out=g), out=g)  # 1 - exp(g), in place
        return float(out[0]) if scalar else out

    def jet(self, d):
        """(U, U', log U) at D, from one split and one pass over the value
        and slope tables; U' < 0, and log U is stable in both tails.  A
        scalar D gives a tuple of floats."""
        d, scalar, burned, span, pos = self._split(d)
        u, u1, log_u = out = np.empty((3,) + d.shape)
        c, dp = self.speed, d[pos]
        e = np.exp(-c * dp)
        u[pos], u1[pos] = e * self.anchor, (-c * self.anchor) * e
        log_u[pos] = np.log(self.anchor) - c * dp
        # on D < 0, g = log(1 - U) and U' = -g' e^g
        for sel, (g, g1) in ((span, self._table_sum(self._table, d[span], self._slope_table)),
                             (burned, (self._burned_log(d[burned]), self.beta0))):
            e = np.exp(g)
            u[sel], u1[sel], log_u[sel] = 1.0 - e, -g1 * e, np.log1p(-e)
        return tuple(float(x[0]) for x in out) if scalar else (u, u1, log_u)

    def inverse(self, u):
        """D with U(D) = u, for a level or an array of levels in (0, 1):
        closed form on both tails and bisection on log(1 - U) over
        [d_joint, 0], so 1 - U keeps its relative accuracy as u -> 1.  Each
        level of an array stops its bisection where a lone level would, so
        it gets the scalar bits."""
        u = np.asarray(u, dtype=float)
        if not np.all((u > 0.0) & (u < 1.0)):
            raise ValueError(f"level must lie in (0, 1), got {u}")
        flat = u.ravel()
        out = np.empty_like(flat)
        right = flat <= self.anchor
        out[right] = np.log(self.anchor / flat[right]) / self.speed
        g = np.log1p(-flat)
        burned = ~right & (g <= self._log_one_minus_at_joint)
        out[burned] = self.d_joint + (g[burned] - self._log_one_minus_at_joint) / self.beta0
        live = np.flatnonzero(~(right | burned))
        g = g[live]
        lo, hi = np.full(live.size, self.d_joint), np.zeros(live.size)
        for _ in range(200):
            if not live.size:
                break
            mid = 0.5 * (lo + hi)
            below = self._table_sum(self._table, mid)[0] < g
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            done = hi - lo < 1e-14 * np.maximum(1.0, np.abs(hi))
            out[live[done]] = 0.5 * (lo[done] + hi[done])
            live, g, lo, hi = live[~done], g[~done], lo[~done], hi[~done]
        out[live] = 0.5 * (lo + hi)
        return float(out[0]) if u.ndim == 0 else out.reshape(u.shape)


def _piece_tables(d_joint: float, log_one_minus):
    """Tabulate log(1 - U) on N_PIECES uniform pieces of [d_joint, 0].

    Each piece is the degree-PIECE_DEGREE interpolant at the Chebyshev
    points of the first kind, whose coefficients follow from the discrete
    orthogonality of T_0..T_M on those points; log_one_minus gives the
    values at an array of those points.  Returns the value table, the table
    of D-derivatives (both one row per degree), the piece centres and the
    piece width.
    """
    width = -d_joint / N_PIECES
    centres = d_joint + width * (np.arange(N_PIECES) + 0.5)
    n = PIECE_DEGREE + 1
    nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    g = log_one_minus((centres[:, None] + 0.5 * width * nodes).ravel())
    coef = (2.0 / n) * g.reshape(N_PIECES, n) @ chebyshev.chebvander(nodes, PIECE_DEGREE)
    coef[:, 0] *= 0.5
    slope = chebyshev.chebder(coef, axis=1) * (2.0 / width)
    return np.ascontiguousarray(coef.T), np.ascontiguousarray(slope.T), centres, width


def build_profile(nl: CombustionNonlinearity, c: float | None = None) -> WaveProfile:
    """Solve for the profile and build its piece table.

    One collocation at c gives g; D(u) is anchored so that U(0) = theta
    exactly, and each table node solves D(s) = D for s = log(1 - U).
    """
    if c is None:
        c = find_wave_speed(nl)
    theta = nl.theta
    g, _, g_coef = _collocate(nl, c)
    mismatch = abs((1.0 - theta) * g[-1] - c * theta)
    if mismatch > 1e-9:
        raise RuntimeError(
            f"phase-plane matching residual {mismatch:.3e}; speed candidate is not converged")

    beta0 = decay_rate_into_burned(nl, c)
    # (beta0 - g) / (beta0 g (1 - u)) du/dx at the Lobatto points, with
    # du/dx = (1 - theta) t; at x = 1, where g = beta0 and 1 - t vanish, its
    # limit is dg/dx / beta0^2, and T_k'(1) = k^2.  1/g has poles about
    # sqrt(theta) off t = 0, so for a small theta the integrand is sampled
    # again on the series of g at twice the degree until its fit resolves
    for n in POSITION_DEGREES:
        t, one_minus_t = _lobatto(n)
        gn = g if n == DEGREE else chebyshev.chebval(2.0 * t - 1.0, g_coef)
        integrand = np.empty_like(gn)
        integrand[0] = (np.arange(DEGREE + 1) ** 2 * g_coef).sum() / beta0**2
        integrand[1:] = (beta0 - gn[1:]) * t[1:] / (beta0 * gn[1:] * one_minus_t[1:] * (1.0 + t[1:]))
        coef, tail = _cheb_coefficients(integrand)
        if tail <= POSITION_RTOL:
            break
    else:
        raise _unresolved(n, "the position integrand", c, tail)
    integral = chebyshev.chebint(coef, lbnd=-1.0)  # from theta, zero at x = -1
    s_theta, s_lo = np.log(1.0 - theta), np.log(DELTA_LIN)

    def position(s):
        """(D, x) at 1 - U = e^s, where t^2 = 1 - e^s / (1 - theta)."""
        x = 2.0 * np.sqrt(-np.expm1(s - s_theta)) - 1.0
        return (s - s_theta) / beta0 - chebyshev.chebval(x, integral), x

    def log_one_minus(d):
        # Newton on D(s) = d from the logarithmic term alone; dD/ds = 1 / g.
        # The clamp keeps s, and so x, in range while Newton settles
        s = np.clip(s_theta + beta0 * d, s_lo - 1.0, s_theta)
        for _ in range(NEWTON_STEPS):
            d_s, x = position(s)
            step = (d_s - d) * chebyshev.chebval(x, g_coef)
            s = np.clip(s - step, s_lo - 1.0, s_theta)
            if np.max(np.abs(step)) <= NEWTON_RTOL * -s_lo:
                return s
        raise RuntimeError(f"table nodes did not converge in {NEWTON_STEPS} Newton steps")

    d_joint = float(position(s_lo)[0])
    table, slope_table, centres, width = _piece_tables(d_joint, log_one_minus)
    return WaveProfile(
        speed=c, beta0=beta0, anchor=theta,
        d_joint=d_joint, _table=table, _slope_table=slope_table,
        _centres=centres, _piece_width=width,
        # the left tail continues the first piece from its end s = -1
        _log_one_minus_at_joint=float(chebyshev.chebval(-1.0, table[:, 0])),
    )


def ode_residual_sup(profile: WaveProfile, nl: CombustionNonlinearity) -> float:
    """sup |U'' + c U' + f(U)| / sup |f(U)| from the table's own derivatives.

    With g = log(1 - U), U' = -g' e^g and U'' = -(g'' + g'^2) e^g; g' comes
    from the slope table and g'' from one more chebder of it.  The points are
    RESIDUAL_POINTS uniform points of [d_joint, 0] and, in closed form (g' =
    beta0, g'' = 0), 256 points of the left tail over a reach of 16 / beta0,
    where the residual is O((1 - U)^2).  On D >= 0 it is exactly 0.  Every
    term scales with the amplitude, so one relative bound fits every family.
    """
    d_joint = profile.d_joint
    tail = np.linspace(d_joint - 16.0 / profile.beta0, d_joint, 256, endpoint=False)
    curvature = chebyshev.chebder(profile._slope_table, axis=0) * (2.0 / profile._piece_width)
    g, g1, g2 = profile._table_sum(profile._table, np.linspace(d_joint, 0.0, RESIDUAL_POINTS),
                                   profile._slope_table, curvature)
    g = np.concatenate((profile._burned_log(tail), g))
    g1 = np.concatenate((np.full(tail.size, profile.beta0), g1))
    g2 = np.concatenate((np.zeros(tail.size), g2))
    f_u = nl(-np.expm1(g))
    res = f_u - (g2 + g1 * g1 + profile.speed * g1) * np.exp(g)
    return float(np.max(np.abs(res)) / np.max(np.abs(f_u)))
