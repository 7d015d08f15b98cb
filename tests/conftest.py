import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toricflow as tf
from toricflow.quadrature import integrate_many

SRC = Path(__file__).resolve().parent.parent / "src"
# address-space cap of `run_capped`: numpy imports well within it, and an
# oversized grid overruns it at once
ADDRESS_SPACE_CAP = 1_500_000_000


def integrate(f, poly, spec=tf.QuadratureSpec()):
    """One scalar field f over poly: the k = 1 `integrate_many` call."""
    return integrate_many(lambda p: np.asarray(f(p), dtype=float)[:, None], 1, poly, spec)[0]


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
