"""Monotone approximation of the entire solution for a V front.

Starts the solver at t = -n from the moving subsolution max_i U(q_i) for
increasing n and compares the runs on a common time window.  The runs
increase in n, stay below 1, and are sandwiched between the subsolution
and the upper barrier.
"""

import math

from curvedfronts import (
    BarrierSet,
    Grid,
    SolverConfig,
    auto_parameters,
    build_profile,
    entire_solution,
    make_combustion,
    sandwich_and_monotonicity,
    symmetric_v,
)


def main():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    profile = build_profile(nl)
    c = profile.speed
    cfg = symmetric_v(math.pi / 3, c)

    grid = Grid(counts=(64, 64), dx=0.5, origin=(-16.0, -20.0))
    config = SolverConfig()
    n_list = [2.0 / c, 4.0 / c, 8.0 / c]

    res = entire_solution(cfg, profile, nl, grid, config,
                          n_list=n_list, window_end=1.0 / c,
                          snapshot_dt=0.5 / c)

    rep = res.report
    print("sup |u_{n_k+1} - u_{n_k}| on the window (monotone increments):")
    for n_lo, n_hi, inc in zip(n_list, n_list[1:], rep["increments_sup"]):
        print(f"  n = {n_lo:7.3f} -> {n_hi:7.3f}: {inc:.6e}")

    print(f"\nmin (u - subsolution)      : {rep['lower_gap_min']:+.3e}")
    print(f"max value over all runs    : {rep['max_value']:.9f}")
    print(f"max off the saturated set  : {rep['max_below_saturation']:.9f} (stays under 1)")

    # Sandwich and time monotonicity of the deepest run, snapshot by snapshot.
    params = auto_parameters(cfg, profile, nl)
    barriers = BarrierSet(cfg, profile, nl, params)
    sandwich = sandwich_and_monotonicity(res.v_hat, cfg, profile, barriers=barriers)
    print(f"\nlower barrier violation    : {sandwich['lower_violation']:.3e}")
    print(f"upper barrier violation    : {sandwich['upper_violation']:.3e}")
    print(f"min discrete du/dt         : {sandwich['dudt_min']:+.3e}")
    print("ridge-tube growth floors (min du/dt within distance rho of the ridge):")
    for rho, floor in sandwich["tube_floors"].items():
        print(f"  rho = {rho}: {floor:.6e}")


if __name__ == "__main__":
    main()
