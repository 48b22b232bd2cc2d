"""Numerical certificate for the supersolution barrier.

Builds the automatic parameter schedule for a V front, evaluates the
parabolic residual of the upper barrier on a stratified sample, and prints
the validation report, with the gap between the chain-rule residuals and
their finite-difference cross-check.  Re-running with a deliberately coarse smoothing
parameter (alpha = 10) shows the certificate failing, so the check has
teeth.
"""

import dataclasses
import math

from curvedfronts import (
    BarrierSampleSpec,
    BarrierSet,
    auto_parameters,
    build_profile,
    make_combustion,
    symmetric_v,
    validate_parameters,
)


def main():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    profile = build_profile(nl)
    cfg = symmetric_v(math.pi / 3, profile.speed)

    params = auto_parameters(cfg, profile, nl)
    print("automatic schedule:")
    for key, val in params.as_dict().items():
        print(f"  {key:12s} = {val:.12g}")

    spec = BarrierSampleSpec(n_samples=5000, seed=0)
    report = validate_parameters(cfg, profile, nl, params, spec)
    print(f"\npassed                     : {report.passed}")
    print(f"min residual, upper barrier: {report.min_residual_upper:+.6e}")
    print(f"min residual, time shifted : {report.min_residual_time:+.6e}")
    print(f"min (upper - lower)        : {report.sandwich_min:+.6e}")
    print(f"fitted decay constant      : {report.c_star_fit:.6f}")
    print(f"|FD - chain rule| residual : {report.fd_gap:.3e} (ok: {report.fd_ok})")

    barriers = BarrierSet(cfg, profile, nl, params)
    up0 = barriers.upper(0.0, [[0.0, 80.0]])[0]
    lo0 = barriers.lower(0.0, [[0.0, 80.0]])[0]
    print(f"\nfar unburned point (0, 80) : lower {lo0:.3e} < upper {up0:.3e} < 1")

    # alpha = 10 sharpens the smoothed surface too much for the chosen
    # epsilon, and the residual goes negative: the certificate rejects it.
    bad = dataclasses.replace(params, alpha=10.0)
    bad_report = validate_parameters(cfg, profile, nl, bad, spec)
    print(f"\nalpha = 10 passes?         : {bad_report.passed}")
    print(f"alpha = 10 min residual    : {bad_report.min_residual_upper:+.6e}")


if __name__ == "__main__":
    main()
