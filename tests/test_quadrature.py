import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

import toricflow as tf
from toricflow.errors import QuadratureStagnation


def test_constant_exact(cp1_unit):
    value, est = tf.integrate(lambda p: np.ones(len(p)), cp1_unit)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_linear_exact(cp1_unit):
    value, _ = tf.integrate(lambda p: 1.0 - p[:, 0], cp1_unit)
    assert value == pytest.approx(0.5, abs=1e-10)


def test_gaussian_against_adaptive_oracle(cp1_unit):
    f = lambda p: np.exp(-100.0 * (p[:, 0] - 0.5) ** 2)
    spec = tf.QuadratureSpec(resolution=64, rel_tol=1e-10, max_refinements=4)
    value, _ = tf.integrate(f, cp1_unit, spec)
    oracle, _ = quad(lambda x: np.exp(-100.0 * (x - 0.5) ** 2), 0.0, 1.0, epsabs=1e-13)
    assert abs(value - oracle) < 1e-8
    assert oracle == pytest.approx(np.sqrt(np.pi / 100) * erf(5.0))


def test_boundary_singular_integrand(cp1_unit):
    # int_0^1 x log x dx = -1/4; the l log l boundary behavior must not bias
    spec = tf.QuadratureSpec(resolution=1024, rel_tol=1e-10, max_refinements=2)
    value, _ = tf.integrate(lambda p: p[:, 0] * np.log(p[:, 0]), cp1_unit, spec)
    assert abs(value + 0.25) < 1e-8


def test_smooth_convergence_order(cp1_unit):
    exact = np.sin(1.0)
    errs = []
    for res in (8, 16, 32):
        spec = tf.QuadratureSpec(resolution=res, rel_tol=1e-1, max_refinements=0)
        value, _ = tf.integrate(lambda p: np.cos(p[:, 0]), cp1_unit, spec)
        errs.append(abs(value - exact))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_error_estimate_conservative(cp1_unit):
    # on a corpus of integrands, true error <= 2x estimate in >= 95% of cases
    spec = tf.QuadratureSpec(resolution=64, rel_tol=1e-6, max_refinements=2)
    cusp = lambda p: np.exp(-np.abs(p[:, 0] - 0.37) / 0.01)
    cusp_exact = 0.01 * (2.0 - np.exp(-37.0) - np.exp(-63.0))
    narrow = lambda p: np.exp(-((p[:, 0] - 0.37) ** 2) / (2 * 0.004**2))
    narrow_exact = 0.004 * np.sqrt(2 * np.pi)
    cases = [
        (tf.integrate(lambda p: np.cos(3 * p[:, 0]), cp1_unit, spec), np.sin(3.0) / 3.0),
        (tf.integrate(lambda p: np.exp(p[:, 0]), cp1_unit, spec), np.e - 1.0),
        (tf.integrate(lambda p: p[:, 0] ** 4, cp1_unit, spec), 0.2),
        (
            tf.integrate(lambda p: 1.0 / (1.0 + p[:, 0] ** 2), cp1_unit, spec),
            np.arctan(1.0),
        ),
        (
            tf.integrate(lambda p: np.sqrt(np.maximum(p[:, 0], 0)) * p[:, 0], cp1_unit, spec),
            0.4,
        ),
        (
            tf.integrate(
                cusp, cp1_unit,
                tf.QuadratureSpec(resolution=16, rel_tol=1e-4, max_refinements=10),
            ),
            cusp_exact,
        ),
        (
            tf.integrate(
                narrow, cp1_unit,
                tf.QuadratureSpec(resolution=16, rel_tol=1e-6, max_refinements=9),
            ),
            narrow_exact,
        ),
    ]
    hits = sum(
        1 for (value, est), exact in cases if abs(value - exact) <= 2.0 * max(est, 1e-15)
    )
    assert hits / len(cases) >= 0.95


def test_stagnation_reported(cp1_unit):
    wild = lambda p: np.sin(1e7 * p[:, 0])
    spec = tf.QuadratureSpec(resolution=16, rel_tol=1e-12, max_refinements=5)
    with pytest.raises(QuadratureStagnation) as err:
        tf.integrate(wild, cp1_unit, spec)
    assert err.value.estimate > 0


def test_2d_simplex_area(cp2_size2):
    spec = tf.QuadratureSpec(resolution=64, rel_tol=1e-3, max_refinements=2)
    value, est = tf.integrate(lambda p: np.ones(len(p)), cp2_size2, spec)
    assert value == pytest.approx(2.0, abs=2e-3)


def test_2d_polynomial(cp2_size2):
    # int over the size-2 simplex of x y = 2^4 * 1!1!/(4!) = 16/24
    f = lambda p: p[:, 0] * p[:, 1]
    spec = tf.QuadratureSpec(resolution=128, rel_tol=1e-4, max_refinements=2)
    value, _ = tf.integrate(f, cp2_size2, spec)
    assert value == pytest.approx(16.0 / 24.0, rel=2e-4)
