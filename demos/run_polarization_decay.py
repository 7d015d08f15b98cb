#!/usr/bin/env python3
"""Convergence of the deformed Kahler polarizations to the angular limit.

At every interior point the anti-holomorphic frame of J_t is spanned by the
columns of [ (1/2) G_t^{-1} ; (i/2) Id ]; as t grows, G_t^{-1} collapses and
the frame tilts into the pure angular directions.  The largest principal
angle to the limit frame decays like 1/t, which this script tabulates along
a geometric t grid together with the fitted log-log slope, by the closed
form the `polarization` subcommand uses.
"""

import numpy as np

import toricflow as tf
from toricflow.flow import limit_angle, metric_hessians


def main():
    poly = tf.segment(2.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    ts = np.geomspace(1.0, 1000.0, 13)

    print("angle(t) between the time-t frame and the angular limit frame")
    header = "x \\ t " + " ".join(f"{t:9.4g}" for t in ts[::3])
    print(header)
    rng = np.random.default_rng(3)
    pts = tf.sample_interior(poly, 5, rng, margin=0.2)
    angles = limit_angle(np.linalg.eigvalsh(metric_hessians(g0, phi, ts, pts)))
    slopes = tf.fit_loglog_slope(ts, angles)
    for x, column in zip(pts, angles.T):
        print(f"{x[0]:5.3f} " + " ".join(f"{a:9.2e}" for a in column[::3]))
    print(f"\nfitted log-log slopes over the last decade: "
          f"{[round(s, 4) for s in slopes.tolist()]}  (expected: -1)")

    # the t = 0 angle at the midpoint reproduces arctan(1 / G_0)
    x = np.array([1.0])
    basis = tf.polarization_basis_t(g0, phi, 0.0, x)
    angle = tf.subspace_angle(basis, tf.mixed_polarization_basis(1))
    G0 = g0.hess(x)[0, 0]
    print(f"t=0 angle at x=1: {angle:.6f} vs arctan(1/G_0) = {np.arctan(1/G0):.6f}")


if __name__ == "__main__":
    main()
