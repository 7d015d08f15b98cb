import numpy as np
import pytest

import toricflow as tf
from toricflow.errors import NewtonError


def _fd_grad(f, x, h=1e-6):
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def test_isotropic_quadratic_triple():
    phi = tf.QuadraticPotential(np.eye(2))
    x = np.array([0.3, -0.4])
    assert phi.value(x) == pytest.approx(0.125)
    assert np.allclose(phi.grad(x), [0.3, -0.4])
    assert np.allclose(phi.hess(x), np.eye(2))


def test_anisotropic_quadratic_triple(phi_aniso):
    x = np.array([1.0, 1.0])
    assert phi_aniso.value(x) == pytest.approx(3.0)
    assert np.allclose(phi_aniso.grad(x), [2.0, 4.0])


def test_exponential_perturbation():
    phi = tf.QuadraticPotential([[1.0]], terms=[(0.1, (1.0,))])
    x = np.array([0.0])
    assert phi.value(x) == pytest.approx(0.1)
    assert phi.grad(x)[0] == pytest.approx(0.1)
    assert phi.hess(x)[0, 0] == pytest.approx(1.1)
    assert phi.describe() == "quadratic(Q=[[1.0]], b=[0.0], c=0.0) + 0.1*exp([1.0].x)"


@pytest.mark.parametrize(
    "phi",
    [
        tf.QuadraticPotential([[2.0, 0.5], [0.5, 4.0]], b=[0.1, -0.2], c=0.3),
        tf.QuadraticPotential(np.eye(2), terms=[(0.05, (1.0, -0.5))]),
        tf.LogSumExpPotential([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    ],
)
def test_grad_hess_consistent_with_finite_differences(phi, rng):
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, size=2)
        g = phi.grad(x)
        g_fd = _fd_grad(phi.value, x)
        assert np.max(np.abs(g - g_fd)) < 1e-6 * max(1.0, np.max(np.abs(g)))
        H = phi.hess(x)
        H_fd = np.column_stack(
            [_fd_grad(lambda q, i=i: phi.grad(q)[i], x) for i in range(2)]
        )
        assert np.max(np.abs(H - H_fd)) < 1e-6 * max(1.0, np.max(np.abs(H)))


def _three_operand_value(phi, x):
    # reference: the quadratic part as one three-operand x.Q.x contraction
    out = 0.5 * np.einsum("...i,ij,...j->...", x, phi.Q, x) + x @ phi.b + phi.c
    for a, k in phi.terms:
        out = out + a * np.exp(x @ k)
    return out


def test_quadratic_value_matches_three_operand_form(rng):
    x = rng.uniform(-1.5, 1.5, size=(4, 5, 2))
    for Q in (np.diag([2.0, 4.0]), np.eye(2), np.diag([0.3, 7.0])):
        phi = tf.QuadraticPotential(Q, b=[0.1, -0.2], c=0.3)
        assert np.array_equal(phi.value(x), _three_operand_value(phi, x))
        assert phi.value(x[0, 0]) == _three_operand_value(phi, x[0, 0])
    # off the diagonal the contraction order changes, so only rounding moves
    phi = tf.QuadraticPotential(
        [[1.0, 0.5], [0.5, 3.0]], b=[0.1, -0.2], c=0.3, terms=[(0.05, (1.0, -0.5))]
    )
    np.testing.assert_allclose(phi.value(x), _three_operand_value(phi, x), rtol=1e-15, atol=0)


def _size3_block():
    # a column-major 4,096-row block of the size-3 triangle's grid
    block, _ = next(tf.standard_simplex(2, 3.0).grid_cells(64).blocks(4096))
    assert block.flags.f_contiguous and len(block) == 4096
    return block


def test_quadratic_terms_added_column_by_column_are_bit_equal():
    terms = [(0.05, (1.0, -0.5)), (0.2, (-0.3, 0.7))]
    phi = tf.QuadraticPotential([[1.0, 0.5], [0.5, 3.0]], b=[0.1, -0.2], c=0.3, terms=terms)
    base = tf.QuadraticPotential(phi.Q, b=phi.b, c=phi.c)
    block = _size3_block()
    for x in (block, block[17]):
        # the row-major broadcast of each term, frozen
        value, grad = base.value(x), base.grad(x)
        for a, k in phi.terms:
            value = value + a * np.exp(x @ k)
            grad = grad + (a * np.exp(x @ k))[..., None] * k
        assert np.array_equal(phi.value(x), value)
        assert np.array_equal(phi.grad(x), grad)
    assert phi.grad(block).flags.f_contiguous


@pytest.mark.parametrize("weights", [None, (0.5, 2.0, 1.0)])
def test_log_sum_exp_matches_scipy(weights):
    # scipy is the oracle only; a gradient component can be near zero, so its
    # error is measured against the largest component
    from scipy.special import logsumexp

    phi = tf.LogSumExpPotential([(1, 0), (0, 1), (-1, -1)], weights)
    block = _size3_block()
    # one row away from the vertex (0, 0), where grad phi vanishes for equal
    # weights and a relative error measures only the cancellation of rounding
    for x in (block, np.ascontiguousarray(block), block[2100]):
        exponents = x @ phi.K.T + np.log(phi.weights)
        p = np.exp(exponents - logsumexp(exponents, axis=-1, keepdims=True))
        np.testing.assert_allclose(
            phi.value(x), logsumexp(exponents, axis=-1), rtol=1e-15, atol=0
        )
        grad = p @ phi.K
        assert np.abs(phi.grad(x) - grad).max() <= 1e-15 * np.abs(grad).max()
        mean = grad[..., :, None] * grad[..., None, :]
        hess = np.einsum("...k,ki,kj->...ij", p, phi.K, phi.K) - mean
        assert np.abs(phi.hess(x) - hess).max() <= 1e-15 * np.abs(hess).max()
    assert phi.grad(block).flags.f_contiguous


def test_batched_evaluation_matches_pointwise(phi_aniso, rng):
    xs = rng.uniform(-1, 1, size=(7, 2))
    vals = phi_aniso.value(xs)
    grads = phi_aniso.grad(xs)
    for i, x in enumerate(xs):
        assert vals[i] == pytest.approx(phi_aniso.value(x))
        assert np.allclose(grads[i], phi_aniso.grad(x))


# -- concentration rate f_lam -------------------------------------------------


def test_concentration_rate_values():
    phi = tf.QuadraticPotential([[1.0]])
    assert tf.concentration_rate(phi, [0.0], np.array([0.5])) == pytest.approx(0.125)
    assert tf.concentration_rate(phi, [0.5], np.array([0.5])) == pytest.approx(-0.125)
    # lam = 1 at x = 0.5: (x - 1) x - x^2/2 = -0.375
    assert tf.concentration_rate(phi, [1.0], np.array([0.5])) == pytest.approx(-0.375)


def test_concentration_rate_at_center_is_minus_phi(rng):
    phi = tf.QuadraticPotential([[2.0, 0.0], [0.0, 4.0]], b=[0.3, -0.1], c=0.7)
    for _ in range(5):
        lam = rng.uniform(-1, 1, size=2)
        assert tf.concentration_rate(phi, lam, lam) == pytest.approx(-phi.value(lam))


def test_concentration_rate_grad_identity(phi_aniso, rng):
    lam = np.array([0.2, 0.4])
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        # grad f_lam(x) = Hess phi(x) . (x - lam)
        g = phi_aniso.hess(x) @ (x - lam)
        g_fd = _fd_grad(lambda q: tf.concentration_rate(phi_aniso, lam, q), x)
        assert np.max(np.abs(g - g_fd)) < 1e-6


def test_constant_shift_of_phi_shifts_f_lambda_by_minus_c(rng):
    base = tf.QuadraticPotential([[1.0]])
    shifted = tf.QuadraticPotential([[1.0]], c=0.7)
    xs = rng.uniform(-1, 1, size=(6, 1))
    lam = np.array([0.3])
    d = tf.concentration_rate(shifted, lam, xs) - tf.concentration_rate(base, lam, xs)
    assert np.allclose(d, -0.7)


# -- Legendre utilities ----------------------------------------------------------


def test_legendre_inverse_quadratic():
    g = tf.QuadraticPotential([[1.0]])
    x = tf.legendre_inverse(g, np.array([0.7]), x0=np.array([0.0]))
    assert x[0] == pytest.approx(0.7, abs=1e-12)


def test_legendre_inverse_roundtrip(rng):
    g = tf.QuadraticPotential([[2.0, 0.3], [0.3, 1.0]])
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        y = g.grad(x)
        back = tf.legendre_inverse(g, y, x0=np.zeros(2))
        assert np.max(np.abs(back - x)) < 1e-10


def test_legendre_inverse_budget_exhaustion(cp1_unit):
    g0 = tf.SymplecticPotential(cp1_unit)
    with pytest.raises(NewtonError):
        tf.legendre_inverse(
            g0,
            np.array([40.0]),
            x0=np.array([0.5]),
            max_iter=3,
            domain=lambda q: bool(cp1_unit.facet_values(q).min() > 0),
        )


# -- strict convexity --------------------------------------------------------------


def test_strict_convexity_identity(cp1_unit):
    samples = cp1_unit.grid_cells(16).points
    phi2 = tf.QuadraticPotential(np.eye(1))
    report = tf.check_strict_convexity(phi2, samples)
    assert report.ok
    assert report.min_eigenvalue == pytest.approx(1.0)


def test_strict_convexity_anisotropic(phi_aniso):
    samples = np.array([[0.1, 0.2], [0.5, 0.1]])
    report = tf.check_strict_convexity(phi_aniso, samples)
    assert report.min_eigenvalue == pytest.approx(2.0)


def test_strict_convexity_failure_with_witness():
    cubic = tf.CallablePotential(
        1,
        lambda x: np.sum(x**3, axis=-1),
        lambda x: 3 * x**2,
        lambda x: (6 * x)[..., None],
        label="cubic",
    )
    samples = np.array([[0.0], [0.01], [0.5]])
    report = tf.check_strict_convexity(cubic, samples)
    assert not report.ok
    assert report.min_eigenvalue <= 0.0
    assert report.witness == (0.0,)


def test_strict_convexity_non_finite_hessian_is_nan_failure():
    # eigvalsh returns finite garbage on this matrix, and raises on others
    partly_nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    assert np.isfinite(np.linalg.eigvalsh(partly_nan)).all()

    def hess(x):
        out = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        out[x[..., 0] > 0.5] = partly_nan
        return out

    phi = tf.CallablePotential(2, lambda x: 0.0 * x[..., 0], lambda x: 0.0 * x, hess)
    samples = np.array([[0.1, 0.1], [0.7, 0.2], [0.2, 0.3], [0.9, 0.4]])
    report = tf.check_strict_convexity(phi, samples)
    assert not report.ok
    assert np.isnan(report.min_eigenvalue)
    assert report.witness == (0.7, 0.2)


def test_strict_convexity_finite_minimum_is_eigvalsh_minimum(phi_aniso, rng):
    samples = rng.uniform(0.1, 0.9, size=(50, 2))
    report = tf.check_strict_convexity(phi_aniso, samples)
    lows = np.linalg.eigvalsh(phi_aniso.hess(samples)).min(axis=-1)
    assert report.min_eigenvalue == lows.min()
    assert report.witness == tuple(samples[np.argmin(lows)])


def test_reflected_potential(phi_1d, rng):
    refl = tf.ReflectedPotential(phi_1d, [2.0])
    for _ in range(5):
        x = rng.uniform(0.1, 1.9, size=1)
        assert refl.value(x) == pytest.approx(phi_1d.value(2.0 - x))
        assert refl.grad(x)[0] == pytest.approx(-phi_1d.grad(2.0 - x)[0])
