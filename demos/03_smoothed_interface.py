"""Smoothing the polytope interface into a graph that moves by rigid motion.

The piecewise-linear support function psi = max over facets is replaced by the
solution phi of sum_i exp(-q_i) = 1, a smooth surface pinched between psi and
psi + ln(n) / min sin(theta_i).  The scaling parameter alpha trades smoothness
against clearance above the support.
"""

import math

import numpy as np

from curvedfronts import ScaledSurface, build_profile, fit_surface_constants, make_combustion, symmetric_v


def main():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    c = build_profile(nl).speed
    cfg = symmetric_v(math.pi / 3, c)

    surf = ScaledSurface(cfg, alpha=1.0)
    apex = surf.solve_phi(0.0, np.array([0.0]))[0]
    print(f"apex value phi(0, 0)      = {apex:.15f}")
    print(f"exact ln(2)/sin(pi/3)     = {math.log(2.0) / math.sin(math.pi / 3):.15f}")

    print("\n    x        psi        phi       gap")
    xs = np.array([-20.0, -8.0, -2.0, 0.0, 2.0, 8.0, 20.0])
    phi = surf.solve_phi(0.0, xs)
    psi = surf.psi(0.0, xs)
    for x, a, b in zip(xs, psi, phi):
        print(f"{x:7.1f}  {a:9.4f}  {b:9.4f}  {b - a:9.2e}")

    # The defining equation holds to round-off wherever phi is evaluated.
    rng = np.random.default_rng(5)
    x = rng.uniform(-60.0, 60.0, 4000)
    t = rng.uniform(-10.0, 10.0, 4000)
    res = np.max(np.abs(surf.residual(t, x, surf.solve_phi(t, x))))
    print(f"\nmax |sum exp(-q_i) - 1| at 4000 points: {res:.2e}")

    # phi is a rigid vertical translation: phi_t = c / sin(theta) everywhere.
    xs = np.array([-5.0, 0.0, 5.0])
    der = surf.derivatives(3.0, xs, surf.solve_phi(3.0, xs))
    print(f"phi_t values: {der.phi_t} (expect {c / math.sin(math.pi / 3):.12f})")

    # Smaller alpha smooths more; the physical surface is Y(alpha t, alpha x)/alpha,
    # so the apex clearance above the polytope grows like 1/alpha.
    for alpha in (1.0, 0.1, 0.025):
        s = ScaledSurface(cfg, alpha=alpha)
        y = s.solve_phi(0.0, np.array([0.0]))[0] / alpha
        print(f"alpha = {alpha:6.3f}: physical apex clearance {y:10.6f}")

    # Fitted comparison constants used by the barrier construction.
    fit = fit_surface_constants(surf)
    print(f"\nc_hat  (gap vs flatness)  = {fit.c_hat:.6f}")
    print(f"c1_hat (hessian bound)    = {fit.c1_hat:.6f}")
    print(f"max flatness h observed   = {fit.h_max:.6f} (apex value is 0.5)")


if __name__ == "__main__":
    main()
