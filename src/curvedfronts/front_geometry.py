"""Polytope front configurations: directions, shifts, facets, and ridges.

A configuration is a finite family of unit directions
e_i = (nu_i * cos(theta_i), sin(theta_i)) with angles theta_i in (0, pi/2]
and nu_i on the unit sphere of the horizontal coordinates, together with
shifts tau_i and a common normal speed c.  The moving polytope is

    P(t) = { z : min_i q_i(t, z) >= 0 },   q_i(t, z) = (z . e_i + tau_i) - c t,

whose boundary is the front interface; ridges are pairwise facet
intersections.  All distances below are Euclidean, either in space-time
(t, z) or in a fixed-time spatial slice.  Extrema and sums over the waves
(or a point's coordinates) are folded column by column with elementwise
ufuncs (_fold): numpy's reductions over a short last axis cost tens of
times as much for the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .wave_profile import WaveProfile

__all__ = [
    "FrontConfiguration",
    "symmetric_v",
    "q_values",
    "min_q",
    "subsolution_lower",
    "classify_region",
    "boundary_distance",
    "ridge_distance",
    "interface_distance",
    "spatial_ridge_distance",
    "polyhedron_face_distance",
]

REGION_TOL = 1e-12     # half-width of classify_region's interface band
FACE_FEAS_TOL = 1e-9   # polyhedron_face_distance's slack, relative to 1 + max |point|


@dataclass(frozen=True)
class FrontConfiguration:
    """Directions, angles, shifts, and speed of a polytope front.

    dimension is the ambient spatial dimension N (2 or 3); nus has shape
    (n, N-1) with unit rows, angles lie in (0, pi/2], shifts are free reals.
    n = 1 is admitted for planar identity checks; ridge queries then fail.
    """

    dimension: int
    nus: np.ndarray
    angles: np.ndarray
    shifts: np.ndarray
    speed: float
    directions: np.ndarray = field(init=False)  # (n, N) unit rows

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        nus = np.atleast_2d(np.asarray(self.nus, dtype=float))
        angles = np.atleast_1d(np.asarray(self.angles, dtype=float))
        shifts = np.atleast_1d(np.asarray(self.shifts, dtype=float))
        n = angles.shape[0]
        if nus.shape != (n, self.dimension - 1):
            raise ValueError(
                f"nus must have shape (n, N-1) = ({n}, {self.dimension - 1}), got {nus.shape}")
        if shifts.shape != (n,):
            raise ValueError(f"shifts must have shape ({n},), got {shifts.shape}")
        if n < 1:
            raise ValueError("at least one direction is required")
        norms = np.linalg.norm(nus, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise ValueError(f"nu rows must be unit vectors, got norms {norms}")
        if not (np.all(angles > 0.0) and np.all(angles <= np.pi / 2 + 1e-15)):
            raise ValueError(f"angles must lie in (0, pi/2], got {angles}")
        if not self.speed > 0.0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        dirs = np.concatenate([nus * np.cos(angles)[:, None], np.sin(angles)[:, None]], axis=1)
        for i, j in combinations(range(n), 2):
            if np.linalg.norm(dirs[i] - dirs[j]) < 1e-12:
                raise ValueError(f"directions {i} and {j} coincide")
        object.__setattr__(self, "nus", nus)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "directions", dirs)

    @property
    def n_waves(self) -> int:
        return self.angles.shape[0]

    def spacetime_normals(self) -> np.ndarray:
        """Rows (-c, e_i): gradients of q_i in (t, z)."""
        n = self.n_waves
        return np.concatenate([np.full((n, 1), -self.speed), self.directions], axis=1)

    def require_ridges(self) -> None:
        if self.n_waves < 2:
            raise ValueError("ridge queries need at least two directions")


def symmetric_v(angle: float, speed: float, shift: float = 0.0) -> FrontConfiguration:
    """Two-wave symmetric configuration in the plane (a V-shaped front)."""
    return FrontConfiguration(
        dimension=2,
        nus=np.array([[-1.0], [1.0]]),
        angles=np.array([angle, angle]),
        shifts=np.array([shift, shift]),
        speed=speed,
    )


def _fold(op, a, axis=-1):
    """op(...op(a_0, a_1)..., a_{n-1}) over the columns a[..., i] or wave-major rows (axis=0),
    with the bits of np.min, np.max (NaN aside from its sign bit) and np.sum, which adds under
    8 terms left to right but from +0.0: -0.0 terms alone give +0.0 there, -0.0 here."""
    rows = a if axis == 0 else np.moveaxis(a, axis, 0)
    out = op(rows[0], rows[1]) if len(rows) > 1 else rows[0].copy()
    for row in rows[2:]:  # in place, but a numpy scalar cannot be written
        out = op(out, row, out=out if np.ndim(out) else None)
    return out


def _as_points(cfg: FrontConfiguration, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != cfg.dimension:
        raise ValueError(f"points must have trailing dimension {cfg.dimension}, got {z.shape}")
    return z


def q_values(cfg: FrontConfiguration, t, z) -> np.ndarray:
    """q_i(t, z) = (z . e_i + tau_i) - c t, shape (..., n); the shift by c t
    comes last, so min_i q_i(t, z) is min_i q_i(0, z) - c t bit for bit."""
    z = _as_points(cfg, z)
    t = np.asarray(t, dtype=float)
    return (z @ cfg.directions.T + cfg.shifts) - cfg.speed * t[..., None]


def min_q(cfg: FrontConfiguration, t, z) -> np.ndarray:
    return _fold(np.minimum, q_values(cfg, t, z))


def subsolution_lower(cfg: FrontConfiguration, profile: WaveProfile, t, z) -> np.ndarray:
    """Pointwise maximum of the planar fronts: U(min_i q_i(t, z))."""
    return profile(min_q(cfg, t, z))


def _slab_weight(cfg: FrontConfiguration, t, z, v_rate: float) -> np.ndarray:
    """min{1, exp(-v * min_i q_i(t, z) / sin theta_i)}: 1 on the burned side,
    decaying ahead of the front.  t is one time or one per point."""
    q = q_values(cfg, t, z)
    return np.minimum(1.0, np.exp(-v_rate * _fold(np.minimum, q / np.sin(cfg.angles))))


def classify_region(cfg: FrontConfiguration, t, z) -> np.ndarray:
    """+1 ahead of the front (min q > REGION_TOL), -1 behind (min q < -REGION_TOL), else 0."""
    m = min_q(cfg, t, z)
    return np.where(m > REGION_TOL, 1, np.where(m < -REGION_TOL, -1, 0)).astype(int)


# -- polyhedral face projections ------------------------------------------


def polyhedron_face_distance(normals: np.ndarray, offsets: np.ndarray, points: np.ndarray,
                             min_active: int = 1) -> np.ndarray:
    """Distance from each point to the union of faces of {q >= 0} with at
    least min_active active constraints, where q_i(w) = normals[i].w +
    offsets[i].

    Candidate nearest points are orthogonal projections onto the affine
    hulls of constraint subsets; a candidate counts when it satisfies its
    defining equalities (consistency) and all remaining inequalities
    (feasibility).  The true nearest face point always appears among the
    candidates, so the minimum over them is exact.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    n = normals.shape[0]
    if min_active > n:
        raise ValueError(f"need at least {min_active} constraints, have {n}")

    best = np.full(pts.shape[0], np.inf)
    tol = FACE_FEAS_TOL * (1.0 + np.max(np.abs(pts)))
    for r in range(min_active, n + 1):
        for subset in combinations(range(n), r):
            b = normals[list(subset)]
            pinv = np.linalg.pinv(b)
            resid = pts @ b.T + offsets[list(subset)]  # (P, r)
            cand = pts - resid @ pinv.T
            consistent = _fold(np.maximum, np.abs(cand @ b.T + offsets[list(subset)])) <= tol
            feasible = _fold(np.minimum, cand @ normals.T + offsets) >= -tol
            ok = consistent & feasible
            if np.any(ok):
                dist = np.sqrt(_fold(np.add, (pts - cand) ** 2))  # np.linalg.norm's bits
                best = np.where(ok, np.minimum(best, dist), best)
    if np.any(~np.isfinite(best)):
        raise RuntimeError("no feasible face projection found; face set may be empty")
    return best[0] if single else best


def _spacetime_points(t, z, cfg) -> np.ndarray:
    z = _as_points(cfg, z)
    t = np.broadcast_to(np.asarray(t, dtype=float), z.shape[:-1])
    return np.concatenate([t[..., None], z], axis=-1)


def _face_distance(normals, offsets, pts, min_active: int) -> np.ndarray:
    """polyhedron_face_distance over the last axis of pts, in their leading shape."""
    flat = pts.reshape(-1, pts.shape[-1])
    return polyhedron_face_distance(normals, offsets, flat, min_active).reshape(pts.shape[:-1])


def boundary_distance(cfg: FrontConfiguration, t, z) -> np.ndarray:
    """Euclidean space-time distance from (t, z) to the moving interface
    {min_i q_i = 0}."""
    return _face_distance(cfg.spacetime_normals(), cfg.shifts, _spacetime_points(t, z, cfg), 1)


def ridge_distance(cfg: FrontConfiguration, t, z) -> np.ndarray:
    """Euclidean space-time distance from (t, z) to the ridge set (pairwise
    facet intersections)."""
    cfg.require_ridges()
    return _face_distance(cfg.spacetime_normals(), cfg.shifts, _spacetime_points(t, z, cfg), 2)


def interface_distance(cfg: FrontConfiguration, t: float, z) -> np.ndarray:
    """Spatial distance from z to the time-t interface slice."""
    return _face_distance(cfg.directions, cfg.shifts - cfg.speed * t, _as_points(cfg, z), 1)


def spatial_ridge_distance(cfg: FrontConfiguration, t: float, z) -> np.ndarray:
    """Spatial distance from z to the time-t ridge slice."""
    cfg.require_ridges()
    return _face_distance(cfg.directions, cfg.shifts - cfg.speed * t, _as_points(cfg, z), 2)
