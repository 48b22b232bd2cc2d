"""Explicit super- and subsolution barriers around a polytope front.

The upper barrier combines the planar profile evaluated across the smoothed
hypersurface with a curvature correction proportional to the flatness h:

    V_up = min{ U(xi) + eps * h * [U^beta(eta) w(eta) + (1 - w(eta))], 1 },

where eta = y - phi_alpha(t, x) is the vertical offset from the sharpened
surface, xi = eta / sqrt(1 + |grad phi|^2) its normal-ish rescaling, and
w a smooth switch.  The time-shifted variant adds a decaying layer
delta * e^(-lambda t) of the same tail shape, with the time argument bent
by pi(t) = t - rho delta e^(-lambda t) + rho delta.

Whether a concrete parameter set actually yields a supersolution is decided
numerically: residuals of L v = v_t - Lap v - f(v), in closed form by the
chain rule (derivatives of phi up to grad Lap phi; U, U' and log U from one
profile jet at xi and one at eta, U'' = -c U' - f(U); and the switch's w,
w', w''), are sampled densely and certified against a fixed tolerance.
Where the unclamped value is at least 1, v = 1 solves the PDE, so exactly
the clamped samples are excluded.  The 4th-order finite differences of
parabolic_residual cross-check the formula on the least residuals.
Residuals run in chunks of RESIDUAL_CHUNK samples; solve_phi gives a point
the same bits in any batch of two or more points, so a chunk of two or more
samples moves no residual.
The alpha ladder of auto_parameters certifies V_up first and rejects a rung
that fails there before fitting or checking anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .front_geometry import (FrontConfiguration, _fold, _slab_weight, ridge_distance,
                             subsolution_lower)
from .hypersurface import ScaledSurface, fit_surface_constants
from .jsonio import dumps
from .nonlinearity import CombustionNonlinearity
from .wave_profile import WaveProfile

__all__ = [
    "mollifier_omega",
    "BarrierParams",
    "BarrierSet",
    "BarrierSampleSpec",
    "ValidationReport",
    "case_thresholds",
    "parabolic_residual",
    "validate_parameters",
    "fit_time_term_constant",
    "auto_parameters",
]

RESIDUAL_TOL = -1e-8
# the cross-check's step: 4th-order stencils at this step keep FD truncation
# ~1e-10 and round-off amplification ~5e-11, both well under |RESIDUAL_TOL|
DEFAULT_FD_STEP = 5e-3
FD_CHECK_SAMPLES = 512  # least live residuals of each barrier that the FD re-derives
# The samples' box.  Offsets from the sharpened surface cover the eta-cases
# evenly; the time-shifted barrier's range of t starts beyond the reach of
# the time stencil (2 DEFAULT_FD_STEP).
SAMPLE_T_RANGE = (-6.0, 6.0)
SAMPLE_X_HALF_WIDTH = 30.0
SAMPLE_OFFSET_RANGE = (-22.0, 22.0)
SAMPLE_W_T_RANGE = (0.05, 8.0)
# samples per pass of a chain-rule residual; its temporaries grow with the chunk
RESIDUAL_CHUNK = 4096
TIME_TERM_SAMPLES = 20000  # samples of the tail layer that fit_time_term_constant bounds
ALPHA_LADDER = (0.4, 0.2, 0.1, 0.05, 0.025)  # the alphas auto_parameters tries, in order
PILOT_SAMPLES = 20000  # samples of each rung's pilot certification


def mollifier_omega(s):
    """Smooth switch: 0 for s <= -1, 1 for s >= 1, strictly increasing
    between.  Returns (omega, omega', omega'').

    Built from rho(r) = exp(-1/r) as rho((s+1)/2) / (rho((s+1)/2) +
    rho((1-s)/2)), which collapses to the logistic of
    g(s) = 2/(1-s) - 2/(1+s); derivatives follow by the chain rule.
    """
    s_in = np.asarray(s, dtype=float)
    scalar = s_in.ndim == 0
    s_arr = np.atleast_1d(s_in)
    w = np.where(s_arr >= 1.0, 1.0, 0.0)
    w1 = np.zeros_like(s_arr)
    w2 = np.zeros_like(s_arr)
    inside = (s_arr > -1.0) & (s_arr < 1.0)
    if np.any(inside):
        si = s_arr[inside]
        um = 1.0 - si
        up = 1.0 + si
        g = 2.0 / um - 2.0 / up
        # logistic evaluated stably on both signs of g
        eg = np.exp(-np.abs(g))
        wi = np.where(g >= 0, 1.0 / (1.0 + eg), eg / (1.0 + eg))
        g1 = 2.0 / um**2 + 2.0 / up**2
        g2 = 4.0 / um**3 - 4.0 / up**3
        p = wi * (1.0 - wi)
        w[inside] = wi
        w1[inside] = p * g1
        w2[inside] = p * (1.0 - 2.0 * wi) * g1**2 + p * g2
    if scalar:
        return float(w[0]), float(w1[0]), float(w2[0])
    return w, w1, w2


@dataclass(frozen=True)
class BarrierParams:
    """Parameters of the barrier pair plus fitted metadata.

    The six leading fields define the barriers; the remaining entries
    record how the automatic schedule derived them and are carried along
    for reporting.
    """

    epsilon: float
    alpha: float
    beta: float
    delta: float
    lam: float
    varrho: float
    beta_star: float | None = None
    v_star: float | None = None
    kappa: float | None = None
    x_prime: float | None = None
    x_double_prime: float | None = None
    c_hat: float | None = None
    c1_hat: float | None = None
    c_star_time: float | None = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        for name in ("alpha", "beta", "delta", "lam", "varrho"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def as_dict(self) -> dict:
        return asdict(self)


def beta_star_bound(c1_hat: float, max_cot: float) -> float:
    """Largest admissible tail exponent for the fitted surface constants."""
    base = (c1_hat + max_cot) ** 2 + 1.0
    return min(1.0 / (4.0 * base), 1.0 / (4.0 * np.sqrt(base)))


class BarrierSet:
    """Evaluates the barrier pair for one front configuration."""

    def __init__(self, cfg: FrontConfiguration, profile: WaveProfile,
                 nl: CombustionNonlinearity, params: BarrierParams):
        if abs(cfg.speed - profile.speed) > 1e-9 * max(1.0, profile.speed):
            raise ValueError("front configuration speed disagrees with the profile speed")
        self.cfg = cfg
        self.profile = profile
        self.nl = nl
        self.params = params
        self.surface = ScaledSurface(cfg, params.alpha)

    def _frame(self, t, z):
        """(eta, xi, h) at (t, z) from one solve of the sharpened surface:
        the vertical offset eta = y - phi, its rescaling
        xi = eta / sqrt(1 + |grad phi|^2), and the flatness h."""
        z = np.asarray(z, dtype=float)
        x, y = z[..., :-1], z[..., -1]
        a = self.params.alpha
        at = a * np.asarray(t, dtype=float)
        ax = a * x
        phi = self.surface.solve_phi(at, ax)
        grad, h = self.surface.gradient_and_flatness(at, ax, phi)
        eta = y - phi / a
        xi = eta / np.sqrt(1.0 + _fold(np.add, grad * grad))
        return eta, xi, h

    def tail_weight(self, eta):
        """U^beta(eta) w(eta) + (1 - w(eta)) in [0, 1]."""
        w, _, _ = mollifier_omega(eta)
        return np.exp(self.params.beta * self.profile.jet(eta)[2]) * w + (1.0 - w)

    def lower(self, t, z):
        """Subsolution: max of the planar fronts, U(min_i q_i)."""
        return subsolution_lower(self.cfg, self.profile, t, z)

    def upper(self, t, z):
        """Supersolution V_up (clamped at 1)."""
        eta, xi, h = self._frame(t, z)
        return self._clamped_upper(self.profile(xi), h, self.tail_weight(eta))

    def _clamped_upper(self, u_xi, h, tail):
        return np.minimum(u_xi + self.params.epsilon * h * tail, 1.0)

    def shift_time(self, t):
        """pi(t) = t - rho delta e^(-lambda t) + rho delta; pi(0) = 0."""
        t = np.asarray(t, dtype=float)
        rd = self.params.varrho * self.params.delta
        return t - rd * np.exp(-self.params.lam * t) + rd

    def time_upper(self, t, z):
        """Time-shifted supersolution W_delta for t >= 0.

        V_up and the layer share one surface frame at pi(t)."""
        t = np.asarray(t, dtype=float)
        eta, xi, h = self._frame(self.shift_time(t), z)
        tail = self.tail_weight(eta)
        layer = self.params.delta * np.exp(-self.params.lam * t) * tail
        return np.minimum(self._clamped_upper(self.profile(xi), h, tail) + layer, 1.0)

    def _jet(self, t, z):
        """The chain-rule pieces of the residuals at (t, z): (U(xi), h, T,
        v_t, Lap v, d_t T, Lap T), for v = U(xi) + eps h T unclamped and the
        tail weight T(eta).  U(xi), h and T have the bits of _frame and
        tail_weight; U'' comes from the profile ODE U'' = -c U' - f(U)."""
        z = np.asarray(z, dtype=float)
        a, eps, beta = self.params.alpha, self.params.epsilon, self.params.beta
        at, ax = a * np.asarray(t, dtype=float), a * z[..., :-1]
        phi = self.surface.solve_phi(at, ax)
        d = self.surface.derivatives(at, ax, phi)
        w, g, gt, h, p, hess = d.w, d.g, d.gt, d.h, d.grad, d.hess
        p2 = _fold(np.add, p * p)
        eta = z[..., -1] - phi / a
        xi = eta / np.sqrt(1.0 + p2)
        # d_t eta = -phi_t, grad eta = (-p, 1), Lap eta = -a tr hess
        eta_t, tr = -d.phi_t, np.trace(hess, axis1=-2, axis2=-1)
        lap_eta = -a * tr
        # xi = eta m with m = (1 + |p|^2)^(-1/2), grad m = -a m^3 hess p
        m = 1.0 / np.sqrt(1.0 + p2)
        hp = np.einsum("...kl,...l->...k", hess, p)
        grad_m = (-a * m**3)[..., None] * hp
        lap_m = a * a * m**3 * (3.0 * m * m * _dot(hp, hp)
                                - _dot(hess, hess, "...kl") - _dot(p, d.grad_lap))
        xi_t = eta_t * m - a * m**3 * _dot(p, d.grad_t) * eta
        grad_xi = eta[..., None] * grad_m - m[..., None] * p
        lap_xi = lap_eta * m - 2.0 * _dot(p, grad_m) + eta * lap_m
        # h = 1 - sum_i w_i^2 with dw_i = -w_i (gt_i d(at) + g_i . d(ax))
        w2 = w * w
        h_t = 2.0 * a * _dot(w2, gt)
        grad_h_p = 2.0 * a * np.einsum("...i,...ik,...k->...", w2, g, p)
        gg = np.einsum("...ik,...ik->...i", g, g)
        lap_h = 2.0 * a * a * _dot(w2, self.surface._sin * tr[..., None] - 2.0 * gg)
        # T = U^beta om + 1 - om, with r = U'/U and U''/U = -c r - f(U)/U
        prof, nl, c = self.profile, self.nl, self.profile.speed
        (u, u1, _), (ue, ue1, log_ue) = prof.jet(xi), prof.jet(eta)
        om, om1, om2 = mollifier_omega(eta)
        ub, r = np.exp(beta * log_ue), ue1 / ue
        ub1 = beta * ub * r
        ub2 = beta * ub * ((beta - 1.0) * r * r - c * r - nl(ue) / ue)
        tail = ub * om + (1.0 - om)
        tail1 = ub1 * om + (ub - 1.0) * om1
        lap_tail = (ub2 * om + 2.0 * ub1 * om1 + (ub - 1.0) * om2) * (1.0 + p2) + tail1 * lap_eta
        v_t = u1 * xi_t + eps * (h_t * tail + h * tail1 * eta_t)
        lap_v = ((-c * u1 - nl(u)) * (_dot(grad_xi, grad_xi) + m * m) + u1 * lap_xi
                 + eps * (lap_h * tail - 2.0 * tail1 * grad_h_p + h * lap_tail))
        return u, h, tail, v_t, lap_v, tail1 * eta_t, lap_tail

    def upper_residual(self, t, z):
        """(V_up, v_t - Lap v - f(v)) at samples t (m,), z (m, N), by the
        chain rule, RESIDUAL_CHUNK samples at a time; V_up has the bits of
        upper on each chunk.  The residual is that of the unclamped
        barrier: it holds where V_up < 1, and v = 1 solves the PDE."""
        def chunk(tc, zc):
            u, h, tail, v_t, lap_v, _, _ = self._jet(tc, zc)
            v = self._clamped_upper(u, h, tail)
            return v, v_t - lap_v - self.nl(v)
        return _in_chunks(chunk, t, z)

    def time_upper_residual(self, t, z):
        """(W_delta, its residual) at samples t (m,) >= 0, as upper_residual;
        W_delta has the bits of time_upper, and pi'(t) enters by the chain
        rule."""
        p = self.params

        def chunk(tc, zc):
            decay = np.exp(-p.lam * tc)
            u, h, tail, v_t, lap_v, tail_t, lap_tail = self._jet(self.shift_time(tc), zc)
            w = np.minimum(self._clamped_upper(u, h, tail) + p.delta * decay * tail, 1.0)
            gain = 1.0 + p.varrho * p.delta * p.lam * decay  # pi'(t)
            w_t = gain * v_t + p.delta * decay * (gain * tail_t - p.lam * tail)
            return w, w_t - lap_v - p.delta * decay * lap_tail - self.nl(w)
        return _in_chunks(chunk, t, z)


# -- residual certification -------------------------------------------------


def _dot(a, b, axes="...k"):
    """sum over the trailing axes `axes` of a * b."""
    return np.einsum(f"{axes},{axes}->...", a, b)


def _in_chunks(fn, t, z):
    """fn(t, z) -> (value, residual) on consecutive chunks of RESIDUAL_CHUNK
    samples, joined into a (2, m) array."""
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    out = np.empty((2, t.shape[0]))
    for lo in range(0, t.shape[0], RESIDUAL_CHUNK):
        out[:, lo:lo + RESIDUAL_CHUNK] = fn(t[lo:lo + RESIDUAL_CHUNK], z[lo:lo + RESIDUAL_CHUNK])
    return out


def parabolic_residual(field_fn, nl: CombustionNonlinearity, t, z):
    """Sampled residual L v = v_t - Lap v - f(v) by 4th-order stencils.

    t has shape (npts,) and z shape (npts, N).  field_fn(t, z) is called
    once, on all 1 + 4 (N + 1) stencil points of every sample, with shapes
    (m,) and (m, N); the time derivative and the Laplacian use the 5-point
    weights on [-2h, -h, 0, h, 2h], h = DEFAULT_FD_STEP.  Returns (residual,
    excluded), where excluded marks samples whose stencil touches the clamp
    v >= 1 (the min with 1 kinks the field there, so the finite differences
    are not trustworthy).
    """
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    npts, ndim = z.shape
    shifts = np.array([-2.0, -1.0, 1.0, 2.0]) * DEFAULT_FD_STEP
    d1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * DEFAULT_FD_STEP)
    d2_off = np.array([-1.0, 16.0, 16.0, -1.0]) / (12.0 * DEFAULT_FD_STEP**2)
    d2_center = -30.0 / (12.0 * DEFAULT_FD_STEP**2)

    t_all = [t] + [t + s for s in shifts] + [t] * (4 * ndim)
    z_all = [z] * 5
    for k in range(ndim):
        for s in shifts:
            zk = z.copy()
            zk[:, k] += s
            z_all.append(zk)
    vals = field_fn(np.concatenate(t_all), np.concatenate(z_all, axis=0)).reshape(-1, npts)
    v_t = vals[1:5].T @ d1
    lap = np.zeros(npts)
    for k in range(ndim):
        lap += vals[5 + 4 * k: 9 + 4 * k].T @ d2_off + d2_center * vals[0]
    return v_t - lap - nl(vals[0]), np.max(vals, axis=0) >= 1.0


def _fd_gap(field_fn, nl, t, z, residual, live):
    """Largest |FD - chain-rule| residual over the FD_CHECK_SAMPLES least live
    residuals whose stencils stay off the clamp (0 if there are none)."""
    worst = np.argsort(np.where(live, residual, np.inf))[:min(FD_CHECK_SAMPLES, int(np.sum(live)))]
    fd, touched = parabolic_residual(field_fn, nl, t[worst], z[worst])
    gap = np.abs(fd - residual[worst])[~touched]
    return float(np.max(gap)) if gap.size else 0.0


@dataclass(frozen=True)
class BarrierSampleSpec:
    """Sampling plan for residual certification: the sample count and the
    seed of the streams.  The box the samples fill is fixed (SAMPLE_*)."""

    n_samples: int = 100_000
    seed: int = 0


@dataclass
class ValidationReport:
    """Outcome of residual certification for one parameter set."""

    passed: bool
    params: dict
    min_residual_upper: float
    min_residual_time: float
    cases_upper: dict
    cases_time: dict
    excluded_upper: int
    excluded_time: int
    sandwich_min: float
    time_vs_upper_at_zero_min: float
    fd_gap: float
    fd_ok: bool
    x_prime: float
    x_double_prime: float
    kappa: float
    v_star: float
    c_star_fit: float
    clearance_radius: float
    worst_point_upper: list = field(default_factory=list)
    worst_ridge_distance: float = float("nan")
    fd_step: float = DEFAULT_FD_STEP
    notes: str = ""


def case_thresholds(profile: WaveProfile, nl: CombustionNonlinearity,
                    epsilon: float, max_cot: float):
    """Smallest eta-thresholds (X', X'') splitting the residual samples.

    Beyond X' the barrier sits in the reaction-free tail (values under the
    ignition cutoff even with the correction term); below -X'' everything is
    inside the derivative sandwich near 1.  kappa is the worst profile slope
    between them; it feeds the time-shift gain.
    """
    g = nl.gamma_star
    gmax = np.sqrt(1.0 + max_cot**2)
    lo = min(2.0 * g - epsilon, nl.theta)
    x_prime = gmax * profile.inverse(lo)
    x_double_prime = -gmax * profile.inverse(1.0 - 2.0 * g)
    x_prime = max(1.25, 0.25 * np.ceil(x_prime / 0.25))
    x_double_prime = max(1.25, 0.25 * np.ceil(x_double_prime / 0.25))
    grid = np.linspace(-x_double_prime, x_prime, 4001)
    kappa = float(np.min(np.abs(profile.jet(grid)[1])))
    return float(x_prime), float(x_double_prime), kappa


def v_star_schedule(profile: WaveProfile, cfg: FrontConfiguration,
                    alpha: float, beta: float, c_hat: float,
                    max_cot: float) -> float:
    """Decay rate for the weighted-gap bound, halved for safety."""
    c = profile.speed
    cands = [
        alpha * profile.beta0 / 2.0,
        (c / 2.0) * min(float(np.min(np.sin(cfg.angles))), alpha * beta, alpha,
                        alpha / np.sqrt(1.0 + (c_hat + max_cot) ** 2)),
    ]
    return 0.5 * min(cands)


def _sample_points(barriers: BarrierSet, spec: BarrierSampleSpec, n: int,
                   t_lo: float, t_hi: float, seed_offset: int = 0):
    """n samples (t, z, eta) placed at offsets eta from the sharpened surface,
    drawn from the stream spec.seed + seed_offset."""
    r = np.random.default_rng(spec.seed + seed_offset)
    t = r.uniform(t_lo, t_hi, size=n)
    x = r.uniform(-SAMPLE_X_HALF_WIDTH, SAMPLE_X_HALF_WIDTH,
                  size=(n, barriers.cfg.dimension - 1))
    off = r.uniform(*SAMPLE_OFFSET_RANGE, size=n)
    a = barriers.params.alpha
    y = barriers.surface.solve_phi(a * t, a * x) / a + off
    return t, np.concatenate([x, y[:, None]], axis=1), off


def _upper_certificate(barriers: BarrierSet, spec: BarrierSampleSpec):
    """Residuals of V_up on the primary sample batch: (t, z, eta, V_up,
    residual, excluded, least live residual or NaN).  V_up reads only
    epsilon, alpha and beta, so any BarrierSet that shares them gives the
    same bits."""
    t, z, eta = _sample_points(barriers, spec, spec.n_samples, *SAMPLE_T_RANGE)
    v_up, res = barriers.upper_residual(t, z)
    exc = v_up >= 1.0
    live = ~exc
    return (t, z, eta, v_up, res, exc,
            float(np.min(res[live])) if np.any(live) else float("nan"))


def fit_time_term_constant(barriers: BarrierSet, spec: BarrierSampleSpec) -> float:
    """Bound on -(d_t - Lap) of the tail layer, fitted on TIME_TERM_SAMPLES samples.

    The time-shifted barrier needs (d_t - Lap)(e^(-lam t) g) >= -(lam + C*)
    e^(-lam t) with g the tail weight; since 0 <= g <= 1 it suffices to bound
    -(d_t - Lap) g.  The time-bending factor pi'(t) stays in [1, 2] under the
    rho*delta*lam <= 1 cap, hence the factor 2 on the fitted minimum.
    """
    t, z, _ = _sample_points(barriers, spec, TIME_TERM_SAMPLES, *SAMPLE_T_RANGE, seed_offset=1)

    def tail_residual(tc, zc):
        _, _, tail, _, _, tail_t, lap_tail = barriers._jet(tc, zc)
        return tail, tail_t - lap_tail

    worst = float(np.min(_in_chunks(tail_residual, t, z)[1]))
    return 2.0 * max(0.0, -worst)


def _stratify(residual, excluded, eta, x_prime, x_double_prime, tol):
    cases = {}
    masks = {
        "ahead": eta > x_prime,
        "behind": eta < -x_double_prime,
        "middle": (eta >= -x_double_prime) & (eta <= x_prime),
    }
    for name, mask in masks.items():
        keep = mask & ~excluded
        if np.any(keep):
            r = residual[keep]
            cases[name] = {
                "count": int(np.sum(keep)),
                "min_residual": float(np.min(r)),
                "passed": bool(np.min(r) >= tol),
            }
        else:
            cases[name] = {"count": 0, "min_residual": float("nan"), "passed": True}
    return cases


def validate_parameters(cfg: FrontConfiguration, profile: WaveProfile,
                        nl: CombustionNonlinearity, params: BarrierParams,
                        spec: BarrierSampleSpec | None = None,
                        upper_certificate=None) -> ValidationReport:
    """Certify a parameter set by dense residual sampling.

    PASS means: the parabolic residual of the upper barrier is >= -1e-8 on
    every sample below the clamp (stratified into the three eta-cases), the
    same holds for the time-shifted barrier on t >= 0, the upper barrier
    never drops below the lower one, and on the FD_CHECK_SAMPLES least live
    residuals of each barrier the finite-difference residual agrees with the
    chain-rule one within |RESIDUAL_TOL| (fd_gap, fd_ok).
    upper_certificate, if given, is _upper_certificate for the same
    epsilon, alpha, beta and spec; it is computed here otherwise.
    """
    if spec is None:
        spec = BarrierSampleSpec()
    barriers = BarrierSet(cfg, profile, nl, params)
    rng = np.random.default_rng(spec.seed)
    max_cot = float(np.max(1.0 / np.tan(cfg.angles)))
    x_prime, x_double_prime, kappa = case_thresholds(profile, nl, params.epsilon, max_cot)

    # upper barrier residuals
    t_u, z_u, eta_u, v_up, res_u, exc_u, min_u = (upper_certificate
                                                  or _upper_certificate(barriers, spec))
    cases_u = _stratify(res_u, exc_u, eta_u, x_prime, x_double_prime, RESIDUAL_TOL)
    live_u = ~exc_u
    i_worst = int(np.argmin(np.where(live_u, res_u, np.inf)))
    worst_point = [float(t_u[i_worst])] + [float(v) for v in z_u[i_worst]]

    # ordering against the lower barrier, on the residual samples plus a
    # uniform-height batch for coverage away from the surface
    gap = v_up - barriers.lower(t_u, z_u)
    sandwich_min = float(np.min(gap))
    t_e, z_e, _ = _sample_points(barriers, spec, spec.n_samples // 4, *SAMPLE_T_RANGE, seed_offset=7)
    z_e[:, -1] = rng.uniform(z_e[:, -1].min(), z_e[:, -1].max(), size=z_e.shape[0])
    sandwich_min = min(sandwich_min,
                       float(np.min(barriers.upper(t_e, z_e) - barriers.lower(t_e, z_e))))

    # weighted gap: fitted decay constant and the 2-eps clearance radius,
    # the least whole r0 >= 1 beyond every sample whose gap exceeds 2 eps,
    # kept if some sample lies at rd >= r0 and r0 < max(2, max rd)
    v_star = v_star_schedule(profile, cfg, params.alpha, params.beta,
                             params.c_hat if params.c_hat is not None else 1.0, max_cot)
    if cfg.n_waves >= 2:
        rd = ridge_distance(cfg, t_u, z_u)
        worst_rd, rd_max = float(rd[i_worst]), float(np.max(rd))
        wide = rd[gap > 2.0 * params.epsilon]
        r0 = max(1.0, float(np.floor(np.max(wide))) + 1.0) if wide.size else 1.0
        clearance = r0 if r0 <= rd_max and r0 < max(2.0, rd_max) else float("inf")
        far = rd >= (clearance if np.isfinite(clearance) else np.median(rd))
        ratio = gap / _slab_weight(cfg, t_u, z_u, 2.0 * v_star)
        c_star_fit = float(np.max(ratio[far]) / params.epsilon) if np.any(far) else float("nan")
    else:
        worst_rd, clearance = float("nan"), 0.0
        c_star_fit = float(np.max(gap) / params.epsilon) if params.epsilon > 0 else 0.0

    # time-shifted barrier on t >= 0
    t_w, z_w, _ = _sample_points(barriers, spec, spec.n_samples // 2, *SAMPLE_W_T_RANGE,
                                 seed_offset=13)
    w_val, res_w = barriers.time_upper_residual(t_w, z_w)
    exc_w = w_val >= 1.0
    eta_w = barriers._frame(barriers.shift_time(t_w), z_w)[0]
    cases_w = _stratify(res_w, exc_w, eta_w, x_prime, x_double_prime, RESIDUAL_TOL)
    live_w = ~exc_w
    min_w = float(np.min(res_w[live_w])) if np.any(live_w) else float("nan")
    fd_gap = max(_fd_gap(barriers.upper, nl, t_u, z_u, res_u, live_u),
                 _fd_gap(barriers.time_upper, nl, t_w, z_w, res_w, live_w))
    fd_ok = fd_gap <= abs(RESIDUAL_TOL)
    # W at t=0 sits on or above the plain barrier
    t0 = np.zeros(min(4000, spec.n_samples // 8))
    _, z0, _ = _sample_points(barriers, spec, t0.shape[0], 0.0, 0.0, seed_offset=29)
    w0_margin = float(np.min(barriers.time_upper(t0, z0) - barriers.upper(t0, z0)))

    passed = bool(
        min_u >= RESIDUAL_TOL
        and min_w >= RESIDUAL_TOL
        and sandwich_min >= 0.0
        and fd_ok
    )
    return ValidationReport(
        passed=passed,
        params=params.as_dict(),
        min_residual_upper=min_u,
        min_residual_time=min_w,
        cases_upper=cases_u,
        cases_time=cases_w,
        excluded_upper=int(np.sum(exc_u)),
        excluded_time=int(np.sum(exc_w)),
        sandwich_min=sandwich_min,
        time_vs_upper_at_zero_min=w0_margin,
        fd_gap=fd_gap,
        fd_ok=fd_ok,
        x_prime=x_prime,
        x_double_prime=x_double_prime,
        kappa=kappa,
        v_star=v_star,
        c_star_fit=c_star_fit,
        clearance_radius=clearance,
        worst_point_upper=worst_point,
        worst_ridge_distance=worst_rd,
    )


def auto_parameters(cfg: FrontConfiguration, profile: WaveProfile,
                    nl: CombustionNonlinearity) -> BarrierParams:
    """Concrete certified barrier parameters for a configuration.

    Fits the surface comparison constants, takes the largest admissible
    tail exponent and a conservative amplitude, then walks alpha down
    ALPHA_LADDER until a pilot certification on PILOT_SAMPLES samples
    passes, stepping one extra rung for safety; a rung whose upper barrier
    alone fails is rejected before the rest.  The time-shift gain follows
    the explicit recipe rho = 3 (||f'|| + lam + C*) / (lam kappa c_f) with
    the fitted C*, and delta is capped so that rho * delta * lam <= 1.
    """
    fit = fit_surface_constants(ScaledSurface(cfg, 1.0))
    max_cot = float(np.max(1.0 / np.tan(cfg.angles)))
    beta_star = beta_star_bound(fit.c1_hat, max_cot)
    beta = beta_star
    g = nl.gamma_star
    epsilon = g / 8.0
    c = profile.speed
    lam = 0.5 * min(-nl.fprime_at_one / 4.0, beta * c * c / 16.0)
    x_prime, x_double_prime, kappa = case_thresholds(profile, nl, epsilon, max_cot)
    f_lip = nl.max_abs_derivative(0.0, 1.0)
    pilot = BarrierSampleSpec(n_samples=PILOT_SAMPLES)

    def validated(trial, upper):
        alpha = trial.params.alpha
        c_star = fit_time_term_constant(trial, pilot)
        varrho = 3.0 * (f_lip + lam + c_star) / (lam * kappa * c)
        delta = min(g / 8.0, 1.0 / (lam * varrho))
        cand = BarrierParams(epsilon=epsilon, alpha=alpha, beta=beta, delta=delta,
                             lam=lam, varrho=varrho, beta_star=beta_star,
                             v_star=v_star_schedule(profile, cfg, alpha, beta,
                                                    fit.c_hat, max_cot),
                             kappa=kappa, x_prime=x_prime,
                             x_double_prime=x_double_prime,
                             c_hat=fit.c_hat, c1_hat=fit.c1_hat,
                             c_star_time=c_star)
        return cand, validate_parameters(cfg, profile, nl, cand, pilot,
                                         upper_certificate=upper)

    chosen = report = None
    for alpha in ALPHA_LADDER:
        trial = BarrierSet(cfg, profile, nl,
                           BarrierParams(epsilon=epsilon, alpha=alpha, beta=beta,
                                         delta=g / 8.0, lam=lam, varrho=1.0))
        upper = _upper_certificate(trial, pilot)
        # a failed upper certificate fails the rung whatever the rest says
        cand, report = validated(trial, upper) if upper[-1] >= RESIDUAL_TOL else (None, None)
        if report is not None and report.passed:
            if chosen is None:
                chosen = cand
                continue  # one safety rung below the first passing alpha
            chosen = cand
            break
        if chosen is not None:
            # the safety rung failed; keep the rung that passed
            break
    if chosen is None:
        if report is None:
            # the last rung failed its upper certificate; complete its report
            report = validated(trial, upper)[1]
        raise RuntimeError(
            "no alpha on the ladder certified; last report:\n"
            + (dumps(report, indent=2) if report is not None else "none"))
    return chosen
