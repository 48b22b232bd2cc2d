"""Smooth graph interpolating a polytope front: y = phi(t, x).

For a configuration with directions e_i = (nu_i cos theta_i, sin theta_i)
and shifts tau_i, the graph is defined implicitly by

    sum_i exp(-q_i(t, x, phi)) = 1,
    q_i(t, x, y) = x . nu_i cos theta_i + y sin theta_i - c t + alpha tau_i,

where alpha >= 1 is a sharpness factor (the same surface evaluated at
(alpha t, alpha x) and divided by alpha sharpens toward the polytope as
alpha grows; folding alpha into the shifts keeps that scaling exact).
Newton runs on log sum_i exp(-q_i) = 0, decreasing and convex in y like the
sum, so from the support function max_i psi_i it rises monotonically; it is
linear in y where all sin theta_i are equal, and one update is exact there.

The kernel is wave-major: q_at returns one contiguous row per wave, and
Newton, the weight sums, h and psi fold those rows left to right
(front_geometry._fold; numpy's reductions over a short axis cost tens of
times as much).  np.sum adds a short last axis in that order (n < 8), so
below eight waves the bits equal those of a point-major (..., n) kernel.
support_planes and derivatives keep the (..., n) layout; derivatives, the
one full evaluator, and gradient_and_flatness, the cheap frame (grad phi,
h), each build one weights array.  solve_phi forms x . nu_i cos theta_i
and c t once per call; its q_at calls take them precomputed and add them
in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .front_geometry import FrontConfiguration, _fold

__all__ = [
    "ScaledSurface",
    "SurfaceDerivatives",
    "SurfaceFit",
    "fit_surface_constants",
]

FIT_T_RANGE = (-10.0, 10.0)  # the sampling box of fit_surface_constants
FIT_X_HALF_WIDTH = 30.0
FIT_SAMPLES = 4000
FIT_RIDGE_TIMES = 33  # times of the ridge-corner samples
NEWTON_MAX_ITER = 100  # Newton updates solve_phi makes before it gives up


@dataclass(frozen=True)
class SurfaceDerivatives:
    """Implicit derivatives of phi up to grad Lap phi and the surface
    quantities they are built from; h has the bits of gradient_and_flatness."""

    phi_t: np.ndarray        # (...,)
    grad: np.ndarray         # (..., N-1)
    hess: np.ndarray         # (..., N-1, N-1)
    grad_t: np.ndarray       # (..., N-1): d/dt of grad
    grad_lap: np.ndarray     # (..., N-1): L_j = sum_k d^3 phi / dx_j dx_k dx_k
    w: np.ndarray            # (..., n): weights exp(-q_i), summing to 1
    g: np.ndarray            # (..., n, N-1): on-surface d q_i / dx
    gt: np.ndarray           # (..., n): on-surface d q_i / dt
    h: np.ndarray            # (...,): flatness 1 - sum_i w_i^2, 0 on a facet, peaks at ridges


class ScaledSurface:
    """Level-set graph for a front configuration, sharpened by alpha."""

    def __init__(self, cfg: FrontConfiguration, alpha: float = 1.0):
        if not alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.cfg = cfg
        self.alpha = float(alpha)
        self._sin = np.sin(cfg.angles)
        self._cos = np.cos(cfg.angles)
        self._nu_cos = cfg.nus * self._cos[:, None]  # (n, N-1)
        self._tau = alpha * cfg.shifts

    def _as_x(self, x) -> np.ndarray:
        # for N = 2 any array of scalars is promoted to points; an explicit
        # trailing axis of length 1 is also accepted
        x = np.asarray(x, dtype=float)
        m = self.cfg.dimension - 1
        if m == 1 and (x.ndim <= 1 or x.shape[-1] != 1):
            x = x[..., None]
        if x.shape[-1] != m:
            raise ValueError(f"x must have trailing dimension {m}, got {x.shape}")
        return x

    def _project(self, t, x):
        """(x . nu_i cos theta_i, c t): the y-free parts of q_i."""
        return self._as_x(x) @ self._nu_cos.T, self.cfg.speed * np.asarray(t, dtype=float)

    def support_planes(self, t, x, proj=None) -> np.ndarray:
        """psi_i(t, x): the height at which q_i vanishes, shape (..., n).
        proj, if given, is _project(t, x)."""
        xn, ct = self._project(t, x) if proj is None else proj
        return (ct[..., None] - xn - self._tau) / self._sin

    def psi(self, t, x, proj=None) -> np.ndarray:
        """Support function max_i psi_i; phi - psi in (0, ln n / min sin]."""
        xn, ct = self._project(t, x) if proj is None else proj
        return _fold(np.maximum, [(ct - xn[..., i] - self._tau[i]) / self._sin[i]
                                  for i in range(self.cfg.n_waves)], axis=0)

    def q_at(self, t, x, y, proj=None) -> np.ndarray:
        """q_i(t, x, y), wave-major: shape (n, ...), one contiguous row per
        wave.  proj, if given, is _project(t, x)."""
        xn, ct = self._project(t, x) if proj is None else proj
        y = np.asarray(y, dtype=float)
        q = np.empty((self.cfg.n_waves,)
                     + np.broadcast_shapes(xn.shape[:-1], ct.shape, y.shape))
        for i in range(self.cfg.n_waves):
            row = q[i, ...]
            np.multiply(y, self._sin[i], out=row)
            row += xn[..., i]
            row -= ct
            row += self._tau[i]
        return q

    def _weight_rows(self, t, x, phi, proj=None) -> np.ndarray:
        """exp(-q_i), wave-major like q_at."""
        q = self.q_at(t, x, phi, proj)
        np.negative(q, out=q)
        return np.exp(q, out=q)

    def residual(self, t, x, y) -> np.ndarray:
        """sum_i exp(-q_i(t, x, y)) - 1; zero exactly on the surface."""
        return _wave_sum(self._weight_rows(t, x, y)) - 1.0

    def solve_phi(self, t, x) -> np.ndarray:
        """Solve sum exp(-q_i) = 1 for y by Newton on log sum_i w_i, w_i = exp(-q_i).

        From y = psi the update y += log1p(r) sum_i w_i / sum_i w_i sin theta_i,
        r = sum_i w_i - 1 (exact), rises monotonically, and it is exact at once
        where all sin theta_i are equal.  The loop stops when every |r| is
        within 64 n ulps or, after the first update, within twice the rounding
        of forming the q_i, sum_i w_i (|x . nu_i cos theta_i + tau_i| + |c t| +
        |y| sin theta_i) ulps, which rules far from the origin; past
        NEWTON_MAX_ITER updates it raises RuntimeError.  One _project per
        call, one q_at call per residual.  Converged points update until the
        last one converges, which can move their last bits: phi depends on
        the batch through the call's Newton count alone (for two or more
        points; in 3D numpy sends a one-row projection through another BLAS
        kernel).
        """
        x = self._as_x(x)
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1]).copy()
        proj = self._project(t, x)
        y = self.psi(t, x, proj)
        eps = np.finfo(float).eps
        tol = floor = 64.0 * eps * self.cfg.n_waves
        for k in range(NEWTON_MAX_ITER + 1):
            w = self._weight_rows(t, x, y, proj)
            s = _wave_sum(w)
            r = s - 1.0
            a = np.abs(r)
            if k and np.any(a > floor):  # a tol kept from an earlier pass is >= floor too
                xn, ct = proj
                size = [np.abs(xn[..., i] + self._tau[i]) + np.abs(ct) + np.abs(y) * self._sin[i]
                        for i in range(self.cfg.n_waves)]
                tol = np.maximum(floor, 2.0 * eps * _wave_sum(w * size))
            if not np.any(a > tol):
                return y
            if k == NEWTON_MAX_ITER:
                break
            y = y + np.log1p(r) * s / _wave_sum(w, self._sin)
        i = np.argmax(a - tol)  # the point furthest beyond its tolerance
        tol = np.broadcast_to(tol, a.shape)
        raise RuntimeError(f"solve_phi did not converge in {NEWTON_MAX_ITER} Newton steps: max "
                           f"|residual| beyond its tolerance {a.flat[i]:.3e} > {tol.flat[i]:.3e}")

    def _gradient(self, w_rows, s):
        # BLAS may fuse this matmul's multiply-adds; neither a row formula
        # nor a matmul on the transposed rows view reproduces its bits
        w = np.ascontiguousarray(np.moveaxis(w_rows, 0, -1))
        return w, -(w @ self._nu_cos) / s[..., None]

    def gradient_and_flatness(self, t, x, phi):
        """grad phi and the flatness h at points of the surface y = phi,
        from one weights array."""
        w = self._weight_rows(t, x, phi)
        _, grad = self._gradient(w, _wave_sum(w, self._sin))
        return grad, _flatness(w)

    def derivatives(self, t, x, phi) -> SurfaceDerivatives:
        """Implicit derivatives of phi at points of the surface y = phi.

        Differentiating sum exp(-q_i(t, x, phi)) = 1 once gives, with
        w_i = exp(-q_i) and s = sum_i w_i sin(theta_i),

            phi_t = c sum_i w_i / s,
            grad  = -(sum_i w_i nu_i cos theta_i) / s,

        and differentiating again (the chain rule through g_i = d q_i/d x_k
        on the surface, with d g_i/d x = sin theta_i hess) yields the Hessian
        and the mixed derivative below, and once more grad Lap phi:

            L_j = [sum_i w_i sin theta_i (g_ij tr hess + 2 (hess g_i)_j)
                   - sum_i w_i g_ij |g_i|^2] / s.
        """
        w_rows = self._weight_rows(t, x, phi)            # (n, ...)
        s = _wave_sum(w_rows, self._sin)                 # (...,)
        c = self.cfg.speed
        phi_t = c * _wave_sum(w_rows) / s
        w, grad = self._gradient(w_rows, s)              # (..., n), (..., N-1)
        # on-surface spatial gradient of q_i: g_i = nu_i cos + sin * grad
        g = self._nu_cos + self._sin[:, None] * grad[..., None, :]  # (..., n, N-1)
        # on-surface time derivative of q_i
        gt = -c + self._sin * phi_t[..., None]           # (..., n)
        # no correction term: sum_i w_i sin g_i = -s grad + s grad = 0
        hess = np.einsum("...i,...ik,...il->...kl", w, g, g) / s[..., None, None]
        grad_t = np.einsum("...i,...i,...ik->...k", w, gt, g) / s[..., None]
        tr = np.trace(hess, axis1=-2, axis2=-1)[..., None]
        gg = np.einsum("...ik,...ik->...i", g, g)
        ws = w * self._sin
        third = (np.einsum("...i,...ij->...j", ws * tr - w * gg, g)
                 + 2.0 * np.einsum("...i,...ij->...j", ws, g @ hess))
        return SurfaceDerivatives(phi_t=phi_t, grad=grad, hess=hess, grad_t=grad_t,
                                  grad_lap=third / s[..., None], w=w, g=g, gt=gt,
                                  h=_flatness(w_rows))


def _wave_sum(rows, coef=None) -> np.ndarray:
    """sum_i coef_i rows[i] (coef_i = 1 if omitted), added left to right."""
    return _fold(np.add, rows if coef is None else [row * c for row, c in zip(rows, coef)], axis=0)


def _flatness(w_rows) -> np.ndarray:
    wsum = _wave_sum(w_rows)
    return wsum * wsum - _wave_sum(w_rows * w_rows)


@dataclass(frozen=True)
class SurfaceFit:
    """Sampled bounds relating the graph to its polytope."""

    c_hat: float          # sup (phi - psi) / h
    c1_hat: float         # sup of facet-deviation and normal-speed ratios vs h
    normal_speed_min: float   # inf over samples of phi_t/sqrt(1+|grad|^2) - c
    h_max: float
    n_samples: int


def _ridge_corner_samples(surface: ScaledSurface, t_range):
    """Deterministic (t, x) samples on the ridge of psi.

    The ratios (phi - psi) / h and the facet-deviation / h peak where the
    support planes meet, which uniform box sampling almost never hits; the
    fitted constants must include these points or they undershoot the sup.
    """
    cfg = surface.cfg
    sin = np.sin(cfg.angles)
    slopes = -(cfg.nus * np.cos(cfg.angles)[:, None]) / sin[:, None]
    ts, xs = [], []
    for t in np.linspace(t_range[0], t_range[1], FIT_RIDGE_TIMES):
        b = (cfg.speed * t - surface._tau) / sin
        x_all, *_ = np.linalg.lstsq(slopes[1:] - slopes[0], b[0] - b[1:], rcond=None)
        ts.append(t)
        xs.append(x_all)
        for i, j in combinations(range(cfg.n_waves), 2):
            d = slopes[i] - slopes[j]
            nn = float(d @ d)
            if nn < 1e-24:
                continue
            ts.append(t)
            xs.append((b[j] - b[i]) * d / nn)
    return np.array(ts), np.array(xs)


def fit_surface_constants(surface: ScaledSurface) -> SurfaceFit:
    """Estimate the comparison constants of the graph by sampling.

    Over the box FIT_T_RANGE x [-FIT_X_HALF_WIDTH, FIT_X_HALF_WIDTH]^(N-1) of
    scaled coordinates (FIT_SAMPLES uniform points from a fixed seed, plus
    the ridge corners) this measures the ratio of the gap
    phi - psi to the flatness h, the deviation of (phi_t, grad) from the
    dominant facet's slope against h, and the excess of the normal speed
    phi_t / sqrt(1 + |grad|^2) over the planar speed c (positive for a
    strictly convex graph, vanishing toward facet interiors).
    """
    rng = np.random.default_rng(0)
    cfg = surface.cfg
    m = cfg.dimension - 1
    t = rng.uniform(*FIT_T_RANGE, size=FIT_SAMPLES)
    x = rng.uniform(-FIT_X_HALF_WIDTH, FIT_X_HALF_WIDTH, size=(FIT_SAMPLES, m))
    if cfg.n_waves >= 2:
        t_corner, x_corner = _ridge_corner_samples(surface, FIT_T_RANGE)
        t = np.concatenate([t, t_corner])
        x = np.concatenate([x, x_corner.reshape(-1, m)], axis=0)
    phi = surface.solve_phi(t, x)
    psi_all = surface.support_planes(t, x)
    psi = _fold(np.maximum, psi_all)
    dom = np.argmax(psi_all, axis=-1)
    der = surface.derivatives(t, x, phi)
    h = np.maximum(der.h, 1e-300)
    c_hat = float(np.max((phi - psi) / h))
    sin_d = np.sin(cfg.angles)[dom]
    slope_d = -(cfg.nus * np.cos(cfg.angles)[:, None])[dom] / sin_d[:, None]
    dev = (np.abs(der.phi_t - cfg.speed / sin_d)
           + np.sqrt(_fold(np.add, (der.grad - slope_d) ** 2)))
    speed_excess = der.phi_t / np.sqrt(1.0 + _fold(np.add, der.grad**2)) - cfg.speed
    c1_hat = float(max(np.max(dev / h), np.max(speed_excess / h)))
    return SurfaceFit(c_hat=c_hat, c1_hat=c1_hat,
                      normal_speed_min=float(np.min(speed_excess)),
                      h_max=float(np.max(h)), n_samples=FIT_SAMPLES)
