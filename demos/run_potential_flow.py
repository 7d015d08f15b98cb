#!/usr/bin/env python3
"""Deforming a toric Kahler structure by a convex Hamiltonian.

The script builds the segment and simplex models, adds t * phi to the
canonical symplectic potential, and verifies the two expressions for the
flowed Kahler potential against each other:

    rho_t = rho_0 + 2 t (x . grad phi - phi)       (additive formula)
    rho_t = 2 (x . grad g_t - g_t)                 (Legendre route)

It also checks the complex structure J_t in the action-angle frame and
prints the eigenvalues of G_t = Hess g_t, which grow monotonically in t.  These
are the functions the `potential-flow` and `polarization` subcommands run.
"""

import numpy as np

import toricflow as tf
from toricflow.flow import complex_structure_of, flowed_potentials, metric_hessians


def main():
    rng = np.random.default_rng(1)
    models = [
        ("CP^1, [0, 2]", tf.segment(2.0), tf.QuadraticPotential([[1.0]])),
        (
            "CP^2, size-2 simplex",
            tf.standard_simplex(2, 2.0),
            tf.QuadraticPotential([[2.0, 0.0], [0.0, 4.0]]),
        ),
    ]
    for name, poly, phi in models:
        g0 = tf.SymplecticPotential(poly)
        pts = tf.sample_interior(poly, 100, rng, margin=0.02)
        print(f"\n=== {name} with phi = {phi.describe()}")
        print(f"{'t':>6} {'max |rho_t(formula) - rho_t(Legendre)|':>42}")
        ts = (0.0, 0.5, 1.0, 5.0, 20.0)
        for t, (_, rho, rho_leg) in zip(ts, flowed_potentials(g0, phi, ts, pts)):
            resid = np.abs(rho - rho_leg).max()
            print(f"{t:6.1f} {resid:42.3e}")

        x = poly.chebyshev_center()[0]
        print(f"\nJ_t at the inscribed center x = {np.round(x, 3).tolist()}:")
        for t in (0.0, 2.0):
            G = metric_hessians(g0, phi, t, x)
            J = complex_structure_of(G)
            print(
                f"  t = {t:<4} J^2 + Id = "
                f"{np.max(np.abs(J @ J + np.eye(len(J)))):.1e}, "
                f"G_t eigenvalues {np.round(np.linalg.eigvalsh(G), 4).tolist()}"
            )


if __name__ == "__main__":
    main()
