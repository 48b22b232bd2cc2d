"""Ignition-type combustion source terms.

The reaction term f vanishes on [-sigma, theta] and at u = 1, is positive
on (theta, 1), negative on (1, 1 + sigma], and has f'(1) < 0.  The concrete
family implemented here is

    f(u) = amplitude * (u - theta)^exponent * (1 - u)   on (theta, 1 + sigma],
    f(u) = 0                                            on [-sigma, theta].

Evaluation outside [-sigma, 1 + sigma] clamps the argument to the nearest
endpoint, so f is globally defined and bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CombustionNonlinearity", "make_combustion", "gamma_star"]

GAMMA_TOL = 1e-10       # bisection width of gamma_star
SANDWICH_CHECKS = 2001  # samples of f' across the derivative window


@dataclass(frozen=True)
class CombustionNonlinearity:
    theta: float
    amplitude: float
    exponent: float
    sigma: float
    fprime_at_one: float = field(init=False)
    gamma_star: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"ignition threshold theta must lie in (0, 1), got {self.theta}")
        if self.amplitude <= 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if self.exponent < 2.0:
            raise ValueError(
                f"exponent must be >= 2 so that f' is continuous at theta, got {self.exponent}"
            )
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "fprime_at_one", -self.amplitude * (1.0 - self.theta) ** self.exponent)
        object.__setattr__(self, "gamma_star", gamma_star(self))

    # -- evaluation ---------------------------------------------------------

    def _clamp(self, u):
        # the bits of np.clip, NaN included, at less per-call overhead
        w = np.maximum(u, -self.sigma)
        return np.minimum(w, 1.0 + self.sigma, out=w if np.ndim(w) else None)

    def __call__(self, u):
        """f(u), vectorized; arguments are clamped to [-sigma, 1 + sigma].  An
        array takes two temporaries, w and 1 - w, and the scalar expression's
        operations in its order, in place, so the same bits."""
        uu = np.asarray(u, dtype=float)
        w = self._clamp(uu)
        if uu.ndim == 0:
            return float(self.amplitude * np.maximum(w - self.theta, 0.0) ** self.exponent * (1.0 - w))
        one_minus = 1.0 - w
        w -= self.theta
        np.maximum(w, 0.0, out=w)
        w **= self.exponent
        w *= self.amplitude
        w *= one_minus
        return w

    def derivative(self, u):
        """f'(u); zero on the clamped exterior and on [-sigma, theta]."""
        uu = np.asarray(u, dtype=float)
        w = self._clamp(uu)
        s = np.maximum(w - self.theta, 0.0)
        p = self.exponent
        out = self.amplitude * s ** (p - 1.0) * (p * (1.0 - w) - s)
        out = np.where((uu < -self.sigma) | (uu > 1.0 + self.sigma), 0.0, out)
        if uu.ndim == 0:
            return float(out)
        return out

    def max_abs_derivative(self, lo: float, hi: float) -> float:
        """sup |f'| over [lo, hi], the Lipschitz constant of explicit steps: the
        largest |f'| at lo, at hi, and, clamped into [lo, hi], at the one
        interior extremum of f' and at the clamp 1 + sigma, beyond which f' = 0."""
        p = self.exponent
        peak = self.theta + (p - 1.0) * (1.0 - self.theta) / (p + 1.0)  # f'' = 0
        u = np.clip(np.array([lo, hi, peak, 1.0 + self.sigma]), lo, hi)
        return float(np.max(np.abs(self.derivative(u))))


def _derivative_sandwich_holds(nl: CombustionNonlinearity, gamma: float) -> bool:
    if gamma <= 0.0:
        return True
    lo, hi = 1.0 - 2.0 * gamma, 1.0 + 2.0 * gamma
    fp = nl.derivative(np.linspace(lo, hi, SANDWICH_CHECKS))
    return bool(np.all(fp <= 0.5 * nl.fprime_at_one) and np.all(fp >= 1.5 * nl.fprime_at_one))


def gamma_star(nl: CombustionNonlinearity) -> float:
    """Largest gamma <= min{theta/4, (1-theta)/2, sigma/4} such that
    (3/2) f'(1) <= f'(u) <= (1/2) f'(1) on [1 - 2*gamma, 1 + 2*gamma].

    Found by bisection on the sampled predicate; the window keeps f'
    strictly negative, comparable to f'(1), around the burned state.
    """
    cap = min(nl.theta / 4.0, (1.0 - nl.theta) / 2.0, nl.sigma / 4.0)
    if _derivative_sandwich_holds(nl, cap):
        return cap
    lo, hi = 0.0, cap  # predicate true at 0+, false at cap
    while hi - lo > GAMMA_TOL:
        mid = 0.5 * (lo + hi)
        if _derivative_sandwich_holds(nl, mid):
            lo = mid
        else:
            hi = mid
    if lo <= 0.0:
        raise ValueError("no admissible gamma found; derivative window empty near u = 1")
    return lo


def make_combustion(theta: float = 0.3, amplitude: float = 1.0, exponent: float = 2.0,
                    sigma: float = 0.1) -> CombustionNonlinearity:
    return CombustionNonlinearity(theta=theta, amplitude=amplitude, exponent=exponent, sigma=sigma)
