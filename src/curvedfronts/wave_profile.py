"""Planar traveling front U(D) and its speed for ignition nonlinearities.

The profile solves U'' + c U' + f(U) = 0 with U(-inf) = 1, U(+inf) = 0,
U' < 0, normalized so that U(0) = theta.  Since f vanishes on [0, theta],
the right tail is exactly U(D) = theta * exp(-c D) for D >= 0; the speed is
the unique c for which the phase-plane trajectory shot from the burned state
matches that tail at U = theta.

Shooting is done in the phase plane p(U) = -U'(D):

    p'(U) = c - f(U) / p(U),    p(theta) = c * theta  at the matching point,

seeded near U = 1 by the linearization p = mu * (1 - U) where mu is the
positive root of mu^2 + c*mu + f'(1) = 0.  Integrating downward in U is
contracting, so the seed error is crushed; integrating upward is unstable,
which is why the profile's table is also built from the downward pass.
The shots use DOP853 (Hairer, Nørsett and Wanner, *Solving Ordinary
Differential Equations I*, §II.10) from _dop853, a numpy port of scipy's
solve_ivp that the tests check against it bit for bit: the same steps and
rounding, so the same c_f, without importing scipy.

The speed search is a bisection on S(c) = p(theta; c) - c*theta that stops
at the first midpoint where a full-precision shot gives |S| <= S_TOL.  Its
result is kept bit for bit, but most of its shots are skipped: cheap
low-tolerance probes and then a secant on full shots first find the root
of the full-precision S, and the bisection is replayed against it.  A
midpoint farther than SIGN_GUARD * c from that root takes its sign from
it, since |S| there exceeds the noise of a shot by thousands of times; a
midpoint inside the guard gets a real shot.  Only a real shot ends the
search, so a wrong root estimate makes it raise instead of returning a
different c.

For evaluation the profile is stored as three pieces: the right tail
(closed form), log(1 - U(D)) on the computed span [d_joint, 0], and the
exponential left tail beyond it.  On the span it is a table of N_PIECES =
512 uniform pieces, each a degree-PIECE_DEGREE = 5 Chebyshev interpolant
(the interval splitting of Trefethen, *Approximation Theory and
Approximation Practice*) whose node values are interpolated from the
NODE_SAMPLES = 13 shot samples nearest to each node, so no global series is
formed.  A point finds its piece in O(1) and costs a PIECE_DEGREE-step
Clenshaw sum per table; a second table, differentiated piece by piece,
gives U'.  One split, by masks or by one searchsorted on ascending input,
puts each point on a tail or the table; then __call__ gives U, and jet
(U, U', log U) from one pass over both tables.  The pieces follow the shot
as closely as its samples do and agree at their joints to round-off.  This
table is the profile's only representation: ode_residual_sup checks the
ODE on its own derivatives, and inverse solves on it, for one level or an
array, between two closed-form tails.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from ._dop853 import dop853
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

DELTA_LIN = 1e-6  # seeding offset 1 - U at the burned end of the shot
C_LO, C_HI, MAX_WIDEN = 1e-4, 2.0, 12  # find_wave_speed's first bracket, widenings
S_TOL = 1e-12  # |S| at which find_wave_speed's bisection stops
N_PIECES = 512  # uniform pieces of the evaluation table on [d_joint, 0]
PIECE_DEGREE = 5  # Chebyshev degree of each piece: higher rows would hold the shot's noise
NODE_SAMPLES = 13  # shot samples nearest to a node that fix its value
TABLE_CHUNK = 8192  # points per pass of _table_sum, so its temporaries stay in L2
RESIDUAL_POINTS = 16384  # uniform points of [d_joint, 0] at which ode_residual_sup checks the ODE
# find_wave_speed replays its bisection against the root of the
# full-precision S, and a point farther than SIGN_GUARD * c from that root
# takes its sign from it.  Near the root S' is about -0.71 at theta 0.3
# (-0.64 to -0.82 over theta 0.2 to 0.5), while the noise of a full shot,
# |S(rtol 1e-13) - S(rtol 1e-14)|, is at most 5e-16 there (2.5e-15 over
# that range).  So the root is known to a few 1e-15, and |S| at the guard
# is about 4e4 times that noise at theta 0.3, at least 4e3 times over the
# range.
SIGN_GUARD = 1e-10
PROBE_RTOL = 1e-8  # the probes' S is good to about 1e-8
# Relative step at which the secant on full shots stops.  The secant
# converges superlinearly, so the estimate after such a step is far closer
# than the step; 1e-15 lies under the noise of a shot for c below about 1
# and would only let the secant wander.
ROOT_RTOL = 1e-12

_log = logging.getLogger(__name__)


class ShootingCollapseError(RuntimeError):
    """The phase-plane trajectory hit p = 0 before reaching U = theta.

    Empirically this happens when the speed candidate sits well above the
    connection speed: the trajectory then rides the slow branch p ~ f/c,
    which vanishes at the ignition threshold.
    """


def decay_rate_into_burned(nl: CombustionNonlinearity, c: float) -> float:
    """Positive root beta0 of beta^2 + c*beta + f'(1) = 0: the rate at which
    1 - U decays as D -> -inf (and the linearization slope of p at U = 1)."""
    fp1 = nl.fprime_at_one
    return 0.5 * (-c + np.sqrt(c * c - 4.0 * fp1))


def _shoot(nl: CombustionNonlinearity, c: float, t_eval=None, rtol=1e-13, atol=1e-16):
    mu = decay_rate_into_burned(nl, c)
    u_start = 1.0 - DELTA_LIN
    p_start = mu * DELTA_LIN

    # plain-float closure: this sits in a hot loop inside the ODE solver
    a, theta, expo = nl.amplitude, nl.theta, nl.exponent

    def rhs(u, y):
        fu = a * (u - theta) ** expo * (1.0 - u) if u > theta else 0.0
        return (c - fu / y[0], -1.0 / y[0])

    # a connecting trajectory satisfies p >= c*U on [theta, 1], so anything
    # dipping below this line (scaled down, and tapered so the seed clears
    # it) can only collapse; stop early instead of crawling to p = 0
    floor_amp = 0.05 * min(c * nl.theta, mu * (1.0 - theta)) / (1.0 - theta)

    def hit_floor(u, y):
        return y[0] - floor_amp * (1.0 - u)

    t, y, _, status = dop853(rhs, u_start, (p_start, 0.0), nl.theta, rtol, atol,
                             t_eval=t_eval, event=hit_floor)
    if status == 1:
        raise ShootingCollapseError(f"trajectory hit p = 0 before U = theta at c = {c}")
    if status == -1:
        raise RuntimeError(f"phase-plane integration failed at c = {c}: step below 10 ulps")
    return t, y


def shoot_p(nl: CombustionNonlinearity, c: float) -> float:
    """p(theta; c): terminal value of the full-precision phase-plane shot
    at U = theta.  A candidate above the connection speed may collapse
    (ShootingCollapseError)."""
    if c <= 0.0:
        raise ValueError(f"wave speed candidate must be positive, got {c}")
    return float(_shoot(nl, c)[1][0][-1])


def _bracket(s):
    """Widen [C_LO, C_HI] until s(c_lo) > 0 >= s(c_hi): c_lo shrinks by 4
    and c_hi doubles, up to MAX_WIDEN times each.  Returns (c_lo, s(c_lo),
    c_hi, s(c_hi))."""
    c_lo, c_hi = C_LO, C_HI
    s_lo = s(c_lo)
    if s_lo <= 0.0:
        for _ in range(MAX_WIDEN):
            c_lo *= 0.25
            s_lo = s(c_lo)
            if s_lo > 0.0:
                break
        else:
            raise RuntimeError("could not bracket the wave speed from below")
    s_hi = s(c_hi)
    if s_hi > 0.0:
        for _ in range(MAX_WIDEN):
            c_hi *= 2.0
            s_hi = s(c_hi)
            if s_hi <= 0.0:
                break
        else:
            raise RuntimeError("could not bracket the wave speed from above")
    return c_lo, s_lo, c_hi, s_hi


def _root_estimate(s_probe, s_full, c_lo: float, s_lo: float, c_hi: float, s_hi: float) -> float:
    """Root of the full-precision S inside a probe bracket, s_probe(c_lo) >
    0 >= s_probe(c_hi), where a collapse reads -inf.

    Probes narrow the bracket by false position with the Illinois halving
    (bisection while the upper end has collapsed) until the bracket or the
    step is below PROBE_RTOL relative.  A secant on full shots then starts
    from that point and a second one PROBE_RTOL above it, and stops once
    its relative step is below ROOT_RTOL.
    """
    c, side = c_lo, 0
    for _ in range(100):  # about 30 would do by bisection alone
        if np.isfinite(s_hi):
            c_new = c_hi - s_hi * (c_hi - c_lo) / (s_hi - s_lo)
        else:
            c_new = 0.5 * (c_lo + c_hi)
        step, c = abs(c_new - c), c_new
        s = s_probe(c)
        if s > 0.0:
            c_lo, s_lo = c, s
            if side > 0:
                s_hi *= 0.5
            side = 1
        else:
            c_hi, s_hi = c, s
            if side < 0:
                s_lo *= 0.5
            side = -1
        if min(step, c_hi - c_lo) <= PROBE_RTOL * c:
            break

    c0, c1 = c, c * (1.0 + PROBE_RTOL)
    s0 = s_full(c0)
    for _ in range(10):
        s1 = s_full(c1)
        if s1 == s0 or not np.isfinite(s1):
            break  # at the noise floor; a wild estimate makes the replay raise
        c0, s0, c1 = c1, s1, c1 - s1 * (c1 - c0) / (s1 - s0)
        if abs(c1 - c0) <= ROOT_RTOL * c1:
            break
    return c1


def find_wave_speed(nl: CombustionNonlinearity) -> float:
    """Unique speed c with S(c) = 0, by bracketing sweep plus bisection
    until |S| <= S_TOL (or the bracket collapses to machine width).

    S(c) = p(theta; c) - c*theta is strictly decreasing; a collapsed shot
    counts as S < 0.  The result is, bit for bit, that of a full-precision
    shot at every point of the sweep and the bisection, but most of those
    shots are skipped.  _root_estimate first finds the root of the
    full-precision S (probes narrow the bracket, then a secant on full
    shots); the sweep and the bisection are then replayed.  A point farther
    than SIGN_GUARD * c from that root takes its sign from it, which is
    safe because |S| there is thousands of times the noise of a shot (see
    SIGN_GUARD); a point inside the guard gets a real full shot.  Only a
    real shot with |S| <= S_TOL ends the search, so a wrong root estimate
    cannot return a different c: the bracket loses the root and the search
    raises.  The probe count, the full-shot count and the final |S| go to
    the module logger at DEBUG.
    """
    theta = nl.theta
    n_probe = n_full = 0

    def s_probe(c):
        nonlocal n_probe
        n_probe += 1
        try:
            # a cheap shot, whose S is good to about 1e-8
            return float(_shoot(nl, c, rtol=1e-6, atol=1e-12)[1][0][-1]) - c * theta
        except ShootingCollapseError:
            return -np.inf

    def s_full(c):
        nonlocal n_full
        n_full += 1
        try:
            return shoot_p(nl, c) - c * theta
        except ShootingCollapseError:
            return -np.inf

    root = _root_estimate(s_probe, s_full, *_bracket(s_probe))

    def s_replay(c):
        if abs(c - root) > SIGN_GUARD * root:
            return np.inf if c < root else -np.inf
        return s_full(c)

    c_lo, _, c_hi, _ = _bracket(s_replay)
    c_mid, s_mid = 0.5 * (c_lo + c_hi), np.inf
    while c_hi - c_lo > 4e-16 * max(1.0, c_hi):
        c_mid = 0.5 * (c_lo + c_hi)
        s_mid = s_replay(c_mid)
        if abs(s_mid) <= S_TOL:
            break
        if s_mid > 0.0:
            c_lo = c_mid
        else:
            c_hi = c_mid
    _log.debug("find_wave_speed: c = %r after %d probes and %d full shots, |S(c)| = %.3e",
               c_mid, n_probe, n_full, abs(s_mid))
    if not abs(s_mid) <= S_TOL:
        raise RuntimeError(
            f"bisection collapsed at c = {c_mid} with matching residual {s_mid:.3e} > {S_TOL}")
    return c_mid


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
    _table: np.ndarray  # (PIECE_DEGREE + 1, N_PIECES) = (6, 512)
    _slope_table: np.ndarray  # (PIECE_DEGREE, N_PIECES) = (5, 512): d/dD of _table
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

    def _split(self, d, ascending: bool = False):
        """(d, scalar, burned, span, pos) for a scalar or an array of D: d as
        an array of at least one dimension, and where it lies on the burned
        tail, the table span and the right tail D >= 0, as masks or, for an
        ascending 1-D array, as three contiguous slices."""
        d = np.asarray(d, dtype=float)
        scalar = d.ndim == 0
        d = np.atleast_1d(d)
        if ascending:
            # side="left", as the masks: d_joint is in the span, -0.0 in the right tail
            j, k = np.searchsorted(d, (self.d_joint, 0.0))
            return d, scalar, slice(0, j), slice(j, k), slice(k, None)
        pos = d >= 0.0
        span = (d >= self.d_joint) & ~pos
        return d, scalar, ~(pos | span), span, pos

    def __call__(self, d, ascending: bool = False):
        """U(D) for any real D; ascending=True takes an ascending 1-D array
        and gives the same bits without masks."""
        d, scalar, burned, span, pos = self._split(d, ascending)
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


def _piece_tables(d_samples, g_samples):
    """Tabulate log(1 - U) on N_PIECES uniform pieces of the sampled span.

    Each piece is the degree-PIECE_DEGREE interpolant at the Chebyshev
    points of the first kind, whose coefficients follow from the discrete
    orthogonality of T_0..T_M on those points.  The value at each point is
    that of the polynomial through the NODE_SAMPLES samples nearest to it
    (Neville's scheme on abscissae measured from the point), so the nodes
    follow the shot as closely as its samples do (PIECE_DEGREE + 1 would
    not).  Returns the value table, the table of D-derivatives (both one
    row per degree), the piece centres and the piece width.
    """
    lo, hi = float(d_samples[0]), float(d_samples[-1])
    width = (hi - lo) / N_PIECES
    centres = lo + width * (np.arange(N_PIECES) + 0.5)
    n, w = PIECE_DEGREE + 1, NODE_SAMPLES
    nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    at = (centres[:, None] + 0.5 * width * nodes).ravel()
    first = np.clip(np.searchsorted(d_samples, at) - w // 2, 0, d_samples.size - w)
    window = first[:, None] + np.arange(w)
    x = d_samples[window] - at[:, None]
    g = g_samples[window]
    for m in range(1, w):  # Neville: column i -> interpolant of samples i..i+m, at the node
        g = (x[:, :w - m] * g[:, 1:] - x[:, m:] * g[:, :-1]) / (x[:, :w - m] - x[:, m:])
    coef = (2.0 / n) * g.reshape(N_PIECES, n) @ chebyshev.chebvander(nodes, PIECE_DEGREE)
    coef[:, 0] *= 0.5
    slope = chebyshev.chebder(coef, axis=1) * (2.0 / width)
    return np.ascontiguousarray(coef.T), np.ascontiguousarray(slope.T), centres, width


def _log_one_minus_samples(nl: CombustionNonlinearity, c: float):
    """(D, log(1 - U)) along the downward phase-plane pass, sorted by D and
    anchored so that D(theta) = 0."""
    theta = nl.theta
    # sample the shot at points log-spaced in 1 - U so the D-grid is even
    n_pass = 24001
    w = np.exp(np.linspace(np.log(DELTA_LIN), np.log(1.0 - theta), n_pass))
    u_eval = 1.0 - w
    u_eval[-1] = theta
    u_pass, (p_vals, d_raw) = _shoot(nl, c, t_eval=u_eval)
    mismatch = abs(p_vals[-1] - c * theta)
    if mismatch > 1e-9:
        raise RuntimeError(
            f"phase-plane matching residual {mismatch:.3e}; speed candidate is not converged")

    d_samples = d_raw - d_raw[-1]  # now D(theta) = 0, D <= 0 along the pass
    g_samples = np.log(1.0 - u_pass)  # log(1 - U)
    order = np.argsort(d_samples)
    return d_samples[order], g_samples[order]


def build_profile(nl: CombustionNonlinearity, c: float | None = None) -> WaveProfile:
    """Solve for the profile and build its piece table.

    The downward phase-plane pass supplies (U, D) samples; D is anchored by
    shifting so that U(0) = theta exactly.
    """
    if c is None:
        c = find_wave_speed(nl)
    d_samples, g_samples = _log_one_minus_samples(nl, c)
    table, slope_table, centres, width = _piece_tables(d_samples, g_samples)
    return WaveProfile(
        speed=c, beta0=decay_rate_into_burned(nl, c), anchor=nl.theta,
        d_joint=float(d_samples[0]), _table=table, _slope_table=slope_table,
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
