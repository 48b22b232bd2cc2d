"""Planar traveling wave for the ignition nonlinearity.

Builds the profile U with U'' + c U' + f(U) = 0, U(-inf) = 1, U(+inf) = 0,
prints the selected speed and decay rates, and checks two exact relations:
the unburned tail is theta * exp(-c D), and scaling f by 4 doubles c while
mapping the profile to U(2 D).
"""

import numpy as np

from curvedfronts import (
    build_profile,
    decay_rate_into_burned,
    make_combustion,
    ode_residual_sup,
)


def main():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    profile = build_profile(nl)
    c = profile.speed

    print(f"ignition threshold theta = {nl.theta}")
    print(f"wave speed c_f           = {c:.12f}")
    print(f"decay into burned beta0  = {decay_rate_into_burned(nl, c):.12f}")
    print(f"relative ODE residual    = {ode_residual_sup(profile, nl):.3e}")

    d = np.linspace(-12.0, 12.0, 9)
    print("\n   D        U(D)        U'(D)")
    u, du, _ = profile.jet(d)
    for di, ui, dui in zip(d, u, du):
        print(f"{di:6.1f}  {ui:10.7f}  {dui:10.7f}")

    # Unburned tail: with the anchor U(0) = theta the ODE is linear there,
    # so U(D) = theta * exp(-c D) holds exactly for D >= 0.
    tail = np.linspace(0.0, 30.0, 200)
    err = np.max(np.abs(profile(tail) - nl.theta * np.exp(-c * tail)))
    print(f"\nsup |U - theta e^(-cD)| on D >= 0: {err:.3e}")

    # Speed scaling: f -> 4f doubles the speed and compresses the profile.
    nl4 = make_combustion(theta=0.3, amplitude=4.0, exponent=2.0, sigma=0.1)
    profile4 = build_profile(nl4)
    print(f"speed for 4f             = {profile4.speed:.12f}")
    print(f"ratio (expect 2)         = {profile4.speed / c:.9f}")
    dd = np.linspace(-10.0, 10.0, 401)
    print(f"sup |U_4(D) - U(2D)|     = {np.max(np.abs(profile4(dd) - profile(2.0 * dd))):.3e}")


if __name__ == "__main__":
    main()
