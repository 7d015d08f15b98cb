#!/usr/bin/env python3
"""Flowing weight sections: two routes, two charts, and the bundle lift.

A weight-lam holomorphic section flows diagonally, by the multiplier
e^{-t f_lam(mu)}.  The same flow computed geometrically (pull the monomial
back along the time-t biholomorphism and multiply by the flowed frame) must
agree pointwise; the two invariant charts of the segment model must glue
with the transition e^{i a theta}; and the lifted flow on equivariant
functions must reproduce the multiplier.  This script prints the residuals
of all three cross-checks and the norm decay.
"""

import numpy as np

import toricflow as tf


def main():
    poly = tf.segment(2.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    rng = np.random.default_rng(5)
    xs = tf.sample_interior(poly, 25, rng, margin=0.1)

    print(f"{'lam':>4} {'t':>5} {'route resid':>12} {'gluing resid':>13} {'lift resid':>12}")
    for lam in [(0,), (1,), (2,)]:
        s0 = tf.WeightSection(lam, g0, phi)
        ts = (0.5, 2.0)
        route = tf.route_equality_residual(s0, ts, xs)
        glue = tf.gluing_check_cp1(s0, ts)
        lift = tf.lift_section_consistency(s0, ts, xs)
        for row in zip(ts, route, glue, lift):
            print(f"{lam[0]:>4} {row[0]:5.1f} {row[1]:12.2e} {row[2]:13.2e} {row[3]:12.2e}")

    corrupted = tf.gluing_check_cp1(tf.WeightSection((1,), g0, phi), [2.0], corrupt=True)[0]
    print(f"\nnegative control (corrupted transition): residual {corrupted:.2f}")

    print("\nnorm growth under the flow, lam = 1 (log norm is convex in t):")
    ts = (0.0, 1.0, 4.0, 16.0, 1600.0)
    sections = [tf.WeightSection((1,), g0, phi, t) for t in ts]
    for t, log_norm in zip(ts, tf.section_log_norms_sq(sections)):
        print(f"  t = {t:6.1f}  log |s_t|^2 = {log_norm:.6f}")


if __name__ == "__main__":
    main()
