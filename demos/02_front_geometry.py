"""Polytope front geometry: facets, ridges, and the moving interface.

Sets up a V-shaped front from two oblique planar waves and a pyramid from
three, classifies sample points as burned or unburned, and measures
distances to the interface and to the ridge set.
"""

import math

import numpy as np

from curvedfronts import (
    FrontConfiguration,
    build_profile,
    classify_region,
    interface_distance,
    make_combustion,
    min_q,
    ridge_distance,
    spatial_ridge_distance,
    symmetric_v,
)


def main():
    nl = make_combustion(theta=0.3, amplitude=1.0, exponent=2.0, sigma=0.1)
    c = build_profile(nl).speed

    # Two waves with unit normals at angle pi/3 from the x-axis.
    cfg = symmetric_v(math.pi / 3, c)
    print(f"V front: {cfg.n_waves} waves, speed {c:.6f}, apex speed {c / math.sin(math.pi / 3):.6f}")
    print("directions (rows):")
    print(cfg.directions)

    pts = np.array([[0.0, 5.0], [0.0, -5.0], [0.0, 0.0], [8.0, 1.0]])
    labels = {1: "unburned", -1: "burned", 0: "interface"}
    print("\n point            min_q      region")
    for p, q, s in zip(pts, min_q(cfg, 0.0, pts), classify_region(cfg, 0.0, pts)):
        print(f" {str(p):14s}  {q:9.4f}  {labels[int(s)]}")

    # The apex of {min_q = 0} rides upward at c / sin(theta_1).
    for t in (0.0, 4.0, 8.0):
        apex_y = c * t / math.sin(math.pi / 3)
        d = spatial_ridge_distance(cfg, t, np.array([[0.0, apex_y]]))[0]
        print(f"t = {t:4.1f}: spatial ridge at y = {apex_y:8.4f} (distance check {d:.2e})")

    d = interface_distance(cfg, 2.0, np.array([[0.0, 12.0], [0.0, -12.0]]))
    print(f"\ninterface distance at t = 2 from (0, 12) and (0, -12): {d[0]:.6f}, {d[1]:.6f}")

    # Three waves make a pyramid in two space dimensions plus time; its
    # spacetime ridge set is where two facets meet.
    s3 = math.sqrt(3.0) / 2.0
    pyramid = FrontConfiguration(
        dimension=3,
        nus=np.array([[1.0, 0.0], [-0.5, s3], [-0.5, -s3]]),
        angles=np.full(3, math.pi / 4),
        shifts=np.zeros(3),
        speed=c,
    )
    zq = np.array([[0.0, 0.0, 4.0], [3.0, 0.0, 4.0]])
    print(f"\npyramid min_q at two points: {min_q(pyramid, 0.0, zq)}")
    print(f"pyramid spacetime ridge distances: {ridge_distance(pyramid, 0.0, zq)}")


if __name__ == "__main__":
    main()
