"""Decay of an admissible perturbation on top of the V-front subsolution.

Runs the perturbed and unperturbed solvers side by side from the same
subsolution start, prints the sup-norm gap per snapshot, and checks the
time-shifted upper barrier still dominates the perturbed run.
"""

import math

from curvedfronts import (
    BarrierSet,
    Grid,
    PerturbationSpec,
    SolverConfig,
    auto_parameters,
    build_profile,
    gamma_star,
    make_combustion,
    stability_run,
    symmetric_v,
)


def main():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    profile = build_profile(nl)
    c = profile.speed
    cfg = symmetric_v(math.pi / 3, c)

    params = auto_parameters(cfg, profile, nl)
    barriers = BarrierSet(cfg, profile, nl, params)
    grid = Grid(counts=(96, 96), dx=0.5, origin=(-24.0, -28.0))
    config = SolverConfig()

    # Bump of height gamma*/2 centered on the ridge, well inside the
    # admissible class; gamma* is the burned-plateau disturbance budget.
    g = gamma_star(nl)
    spec = PerturbationSpec(height=g / 2.0, radius=3.0 / c)
    print(f"bump height {g / 2.0} (gamma* = {g}), radius {3.0 / c:.3f}")

    res = stability_run(cfg, profile, nl, grid, config, spec,
                        t_end=12.0 / c, snapshot_dt=2.0 / c,
                        barriers=barriers)

    print("\n  t        sup |u_pert - u_twin|")
    for t, v in zip(res.times, res.curve):
        print(f"{t:7.2f}  {v:.6e}")
    rep = res.report
    print(f"\nfinal gap            : {rep['final_gap']:.6e}")
    print(f"eventually decreasing: {rep['eventually_decreasing']}")
    print(f"barrier domination   : min(W - u) = {rep['domination_min']:.3e}")
    print(f"envelope bound holds : {rep['envelope_ok']}")
    print(f"admissibility        : {rep['admissibility']['ok']} "
          f"(worst far ratio {rep['admissibility']['worst_far_ratio']:.3f})")

    # An inadmissible far-field bump is rejected before any time stepping.
    bad = PerturbationSpec(height=0.4, radius=5.0, center=(10.0, 12.0))
    try:
        stability_run(cfg, profile, nl, grid, config, bad,
                      t_end=1.0, snapshot_dt=0.5, rho0=5.0)
    except ValueError as err:
        print(f"\nfar-field bump rejected: {err}")


if __name__ == "__main__":
    main()
