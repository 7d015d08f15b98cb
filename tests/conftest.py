import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toricflow as tf
from toricflow.quadrature import integrate_many
from toricflow.sections import _laplace_moments

SRC = Path(__file__).resolve().parent.parent / "src"
# address-space cap of `run_capped`: numpy imports well within it, and an
# oversized grid overruns it at once
ADDRESS_SPACE_CAP = 1_500_000_000


def integrate(f, poly, spec=tf.QuadratureSpec(), peak=None):
    """One scalar field f over poly: the k = 1 `integrate_many` call, on the
    cones of `peak` = (apex, width) when given."""
    return integrate_many(lambda p: np.asarray(f(p), dtype=float)[:, None], 1, poly, spec,
                          peak=peak)[0]


# The tolerance of the tail-mass moment: its indicator is discontinuous at
# the radius, so its Gauss rule converges only algebraically, and at t = 1e4
# it misses 1e-8 at the default finest rung
# (test_unmet_moment_names_its_column).
TAIL_TOL = 1e-4


def concentration_moments(lam, phi, poly, t, spec=tf.QuadratureSpec()):
    """Mean, covariance and mass within 5/sqrt(t) of lam of the normalized
    density e^{-t f_lam} / |e^{-t f_lam}|_1: moment ratios of the Laplace
    kernel that `converge` calls, one column per moment function.  The mass
    within the radius comes from its own call, at rel_tol no finer than
    TAIL_TOL."""
    lam = np.asarray(lam, dtype=float)
    n = len(lam)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    fs = [lambda p, i=i: p[:, i] - lam[i] for i in range(n)]
    fs += [lambda p, i=i, j=j: (p[:, i] - lam[i]) * (p[:, j] - lam[j]) for i, j in pairs]
    _, (ratios,) = _laplace_moments(poly, phi, [lam], [t], spec, fs=fs)
    first = ratios[:n]
    cov = np.zeros((n, n))
    for (i, j), raw in zip(pairs, ratios[n:]):
        cov[i, j] = cov[j, i] = raw - first[i] * first[j]
    tail_spec = dataclasses.replace(spec, rel_tol=max(spec.rel_tol, TAIL_TOL))
    _, ((tail_mass,),) = _laplace_moments(poly, phi, [lam], [t], tail_spec,
                                          fs=[tail_indicator(lam, t)])
    return lam + first, cov, tail_mass


def tail_indicator(lam, t):
    """The indicator of the ball of radius 5/sqrt(t) about lam."""
    radius = 5.0 / np.sqrt(t) if t > 0 else np.inf
    return lambda p: (np.linalg.norm(p - lam, axis=-1) <= radius).astype(float)


def fiber_weight(poly, lam, mode):
    """The W_lambda that `converge` records for `mode` at the lattice point lam."""
    phi = tf.QuadraticPotential(np.eye(poly.dimension))
    spec = tf.QuadratureSpec(resolution=8)
    return tf.convergence_experiment(lam, phi, tf.SymplecticPotential(poly), [], [1.0], spec,
                                     mode).fiber_weight


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def cp1_unit():
    return tf.segment(1.0)


@pytest.fixture(scope="session")
def cp1_size2():
    return tf.segment(2.0)


@pytest.fixture(scope="session")
def cp2_size2():
    return tf.standard_simplex(2, 2.0)


@pytest.fixture(scope="session")
def phi_1d():
    return tf.QuadraticPotential([[1.0]])


@pytest.fixture(scope="session")
def phi_2d():
    return tf.QuadraticPotential(np.eye(2))


@pytest.fixture(scope="session")
def phi_aniso():
    return tf.QuadraticPotential([[2.0, 0.0], [0.0, 4.0]])


@pytest.fixture(scope="session")
def run_capped():
    """Run Python `code` in a child process that first caps its own address
    space, so an oversized allocation raises MemoryError there instead of
    exhausting the machine's memory."""

    def run(code: str) -> subprocess.CompletedProcess:
        cap = f"({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP})"
        capped = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, {cap})\n{code}"
        return subprocess.run(
            [sys.executable, "-c", capped], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )

    return run
