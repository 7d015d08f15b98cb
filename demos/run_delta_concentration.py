#!/usr/bin/env python3
"""Delta-concentration of normalized flowed sections onto a moment fiber.

The density of the normalized flowed section on the polytope is a Laplace
family e^{-t f_lam} / Z_t with unique minimum of f_lam at lam, so the pairing
against any test profile H converges to H(lam) with a 1/t error envelope.
This script runs the weak-convergence experiment on the [0, 2] segment model,
with the log of the normalization constant C_t against its Laplace
asymptotic.
"""

import numpy as np

import toricflow as tf


def main():
    poly = tf.segment(2.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    spec = tf.QuadratureSpec(resolution=256)
    lam = np.array([1.0])

    bumps = [
        tf.BumpProfile((1.0,), 0.9, 1.0),
        tf.BumpProfile((1.2,), 0.75, 0.7),
        tf.BumpProfile((0.9,), 0.85, 1.2),
        tf.BumpProfile((1.7,), 0.25, 1.0),  # supported away from lam
    ]
    report = tf.convergence_experiment(
        lam, phi, g0, bumps, [10, 20, 40, 80, 160, 320], spec
    )
    print("weak convergence |pairing(t) - H(lam)| per bump:")
    print(f"{'t':>6} " + " ".join(f"bump{b.bump_id:>8}" for b in report.bumps))
    for i, t in enumerate(report.t_grid):
        print(f"{t:6.0f} " + " ".join(f"{b.abs_errors[i]:12.2e}" for b in report.bumps))
    print("\nlog C_t against its Laplace asymptotic "
          "-log(2 pi) - t phi(lam) - log(2 pi / t) / 2:")
    for t, log_C in zip(report.t_grid, report.log_C_t):
        log_asym = -np.log(2 * np.pi) - t * phi.value(lam) - 0.5 * np.log(2 * np.pi / t)
        print(f"{t:6.0f} {log_C:14.6f} {log_asym:14.6f} (gap {log_C - log_asym:.1e})")
    print("fitted slopes:",
          [None if b.slope is None else round(b.slope, 3) for b in report.bumps])
    for row in report.checks:
        print(f"{row.check:22s} residual {row.residual:10.3e} "
              f"tol {row.tolerance:.2e} {'PASS' if row.passed else 'FAIL'}")
    print("overall pass:", all(row.passed for row in report.checks))


if __name__ == "__main__":
    main()
