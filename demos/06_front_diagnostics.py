"""Interface width, mean speed, and the weighted gap to the subsolution.

Works on an exact planar wave sampled on a grid (no solve needed) plus the
analytic V-front barriers, so everything here runs in a few seconds.
"""

import math

import numpy as np

from curvedfronts import (
    BarrierSet,
    Field,
    FrontConfiguration,
    Grid,
    auto_parameters,
    build_profile,
    extract_interface_and_Meps,
    half_level_cross_check,
    make_combustion,
    mean_speed_estimate,
    subsolution_lower,
    symmetric_v,
    weighted_gap_report,
)


def main():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    profile = build_profile(nl)
    c = profile.speed

    # Exact planar wave on a grid: u(x, y) = U(y - c t).
    planar = FrontConfiguration(2, np.array([[1.0]]), np.array([math.pi / 2]),
                                np.zeros(1), c)
    grid = Grid(counts=(96, 96), dx=0.5, origin=(-24.0, -24.0))
    t0 = 2.0
    u = subsolution_lower(planar, profile, t0, grid.points().reshape(-1, 2))
    fld = Field(grid, u.reshape(grid.counts), time=t0)

    print("interface width M_eps (smallest half-width containing u in [eps, 1 - eps]):")
    print("  eps     M_eps   profile prediction")
    for row in extract_interface_and_Meps(fld, planar):
        pred = max(abs(profile.inverse(1.0 - row["eps"])), profile.inverse(row["eps"]))
        print(f"  {row['eps']:5.2f}  {row['m_eps']:6.2f}  {pred:8.3f}")

    half = half_level_cross_check(fld, planar, profile)
    print(f"\nhalf-level set vs interface: max discrepancy {half['discrepancy']:.3e}")
    print(f"median offset {half['median_offset']:+.4f} (expect U^-1(1/2) = "
          f"{profile.inverse(0.5):+.4f})")

    # The mean speed is the slope of the half-level position against time,
    # read here off exact planar snapshots at a few times.
    snaps = []
    for t in (0.0, 4.0, 8.0, 12.0):
        u = subsolution_lower(planar, profile, t, grid.points().reshape(-1, 2))
        snaps.append(Field(grid, u.reshape(grid.counts), time=t))
    ms = mean_speed_estimate(snaps, planar, profile, None)
    print(f"\nmean speed estimate: {ms['gamma_hat']:.9f} from {len(snaps)} snapshots "
          f"(rel err {abs(ms['gamma_hat'] - c) / c:.2e})")

    cfg = symmetric_v(math.pi / 3, c)

    # Weighted gap: sup |u - V_lower| / weight, binned by ridge distance.
    # The upper barrier itself decays toward the subsolution away from the
    # ridge, so its curve must fall below the certificate level far out.
    params = auto_parameters(cfg, profile, nl)
    barriers = BarrierSet(cfg, profile, nl, params)
    wide = Grid(counts=(160, 120), dx=4.0, origin=(-320.0, -140.0))
    pts = wide.points().reshape(-1, 2)
    traj = []
    for t in (0.0, 5.0, 10.0):
        vals = barriers.upper(np.full(pts.shape[0], t), pts).reshape(wide.counts)
        traj.append(Field(wide, np.clip(vals, 0.0, 1.0), time=t))
    rep = weighted_gap_report(traj, cfg, profile, v_rate=params.v_star)
    print("\nweighted gap per ridge-distance bin (upper barrier trajectory):")
    for lo, hi, val in zip(rep["bin_edges"], rep["bin_edges"][1:], rep["curve"]):
        print(f"  [{lo:7.1f}, {hi:7.1f}): {val:.3e}")
    print(f"farthest-bin sup {rep['farthest_bin_sup']:.3e}, decreasing: {rep['decreasing']}")


if __name__ == "__main__":
    main()
