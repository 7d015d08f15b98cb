import numpy as np
import pytest

import toricflow as tf
from toricflow.errors import DimensionMismatch, DomainError
from toricflow.flow import limit_angle, metric_hessians


def test_guillemin_values_interval(cp1_unit):
    g0 = tf.SymplecticPotential(cp1_unit)
    x = np.array([0.5])
    g, grad, hess = g0.value(x), g0.grad(x), g0.hess(x)
    assert g == pytest.approx(-0.5 * np.log(2))
    assert grad[0] == pytest.approx(0.0)
    assert hess[0, 0] == pytest.approx(2.0)


def test_guillemin_simplex_center():
    poly = tf.standard_simplex(2, 1.0)
    g = tf.SymplecticPotential(poly).value(np.array([1 / 3, 1 / 3]))
    assert g == pytest.approx(-0.5 * np.log(3))


def test_guillemin_rejects_boundary(cp1_unit):
    g0 = tf.SymplecticPotential(cp1_unit)
    with pytest.raises(DomainError):
        g0.value(np.array([0.0]))
    with pytest.raises(DomainError):
        g0.value(np.array([1.2]))


def test_guillemin_gradient_hessian_consistency(cp1_size2, rng):
    g0 = tf.SymplecticPotential(cp1_size2)
    h = 1e-6
    for _ in range(5):
        x = tf.sample_interior(cp1_size2, 1, rng, margin=0.1)[0]
        fd = (g0.value(x + h) - g0.value(x - h)) / (2 * h)
        assert fd == pytest.approx(g0.grad(x)[0], rel=1e-7)
        fd2 = (g0.grad(x + h)[0] - g0.grad(x - h)[0]) / (2 * h)
        assert fd2 == pytest.approx(g0.hess(x)[0, 0], rel=1e-6)


def test_flowed_potential_time_zero(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    state = tf.KahlerFlowState(g0, phi_1d, 0.0)
    x = np.array([0.3])
    g, y, G = state.potential(x), state.moment_dual(x), state.metric_hessian(x)
    assert g == pytest.approx(g0.value(x))
    assert np.allclose(y, g0.grad(x))
    assert np.allclose(G, g0.hess(x))


def test_flowed_potential_arithmetic(cp1_unit, phi_1d):
    state = tf.KahlerFlowState(tf.SymplecticPotential(cp1_unit), phi_1d, 2.0)
    x = np.array([0.5])
    g, G = state.potential(x), state.metric_hessian(x)
    assert g == pytest.approx(-0.5 * np.log(2) + 0.25)
    assert G[0, 0] == pytest.approx(4.0)


def test_metric_eigenvalues_increase_with_t(cp2_size2, phi_aniso, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    x = tf.sample_interior(cp2_size2, 1, rng, margin=0.2)[0]
    eigs = [
        np.linalg.eigvalsh(tf.KahlerFlowState(g0, phi_aniso, t).metric_hessian(x))
        for t in (0.0, 1.0, 5.0)
    ]
    assert (eigs[1] > eigs[0]).all() and (eigs[2] > eigs[1]).all()


def test_kahler_potential_formula(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    x = np.array([0.5])
    state0 = tf.KahlerFlowState(g0, phi_1d, 0.0)
    state2 = tf.KahlerFlowState(g0, phi_1d, 2.0)
    assert state0.kahler_potential(x) == pytest.approx(state0.kahler_potential_reference(x))
    # rho_t - rho_0 = 2 t f_0(x) = 2*2*(0.25 - 0.125)
    assert state2.kahler_potential(x) - state0.kahler_potential(x) == pytest.approx(0.5)


def test_kahler_potential_linear_hamiltonian_degenerate(cp1_unit):
    # phi = a x + c: grad is constant, so rho_t - rho_0 = -2 t c
    a, c = 0.7, 0.3
    linear = tf.CallablePotential(
        1,
        lambda x: a * x[..., 0] + c,
        lambda x: np.broadcast_to(np.array([a]), x.shape).copy(),
        lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        label="linear",
    )
    g0 = tf.SymplecticPotential(cp1_unit)
    x = np.array([0.4])
    for t in (0.5, 3.0):
        state = tf.KahlerFlowState(g0, linear, t)
        drop = state.kahler_potential(x) - state.kahler_potential_reference(x)
        assert drop == pytest.approx(-2 * t * c)


def test_duality_residual_is_machine_zero(cp1_unit, cp2_size2, phi_1d, phi_aniso, rng):
    g1 = tf.SymplecticPotential(cp1_unit)
    for t in (0.0, 1.0):
        state = tf.KahlerFlowState(g1, phi_1d, t)
        assert state.duality_residual(np.array([0.5])) < 1e-12
    g2 = tf.SymplecticPotential(cp2_size2)
    state = tf.KahlerFlowState(g2, phi_aniso, 5.0)
    pts = tf.sample_interior(cp2_size2, 20, rng, margin=0.05)
    resid = state.duality_residual(pts)
    assert resid.max() < 1e-10


def test_complex_structure_blocks(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    J = tf.complex_structure(tf.KahlerFlowState(g0, phi_1d, 2.0), np.array([0.5]))
    assert np.allclose(J, [[0.0, -0.25], [4.0, 0.0]])
    assert np.max(np.abs(J @ J + np.eye(2))) < 1e-12
    J0 = tf.complex_structure(tf.KahlerFlowState(g0, phi_1d, 0.0), np.array([0.5]))
    assert J0[1, 0] == pytest.approx(2.0)


def test_metric_positive_at_random_points(cp2_size2, phi_aniso, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    pts = tf.sample_interior(cp2_size2, 100, rng, margin=0.02)
    for t in (0.0, 3.0, 50.0):
        state = tf.KahlerFlowState(g0, phi_aniso, t)
        for x in pts[:25]:
            M = tf.metric_matrix(state, x)
            assert np.allclose(M, M.T)
            assert np.linalg.eigvalsh(M).min() > 0
            J = tf.complex_structure(state, x)
            assert np.max(np.abs(J @ J + np.eye(4))) < 1e-12


def test_polarization_basis_values(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    basis = tf.polarization_basis_t(tf.KahlerFlowState(g0, phi_1d, 0.0), np.array([0.5]))
    assert np.allclose(basis[:, 0], [0.25, 0.5j])
    # t -> infinity tilts the frame into the pure angular direction
    late = tf.polarization_basis_t(tf.KahlerFlowState(g0, phi_1d, 1e6), np.array([0.5]))
    assert abs(late[0, 0]) < 1e-6
    assert late[1, 0] == pytest.approx(0.5j)


def test_polarization_frame_full_rank(cp2_size2, phi_2d, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    pts = tf.sample_interior(cp2_size2, 10, rng, margin=0.1)
    for x in pts:
        basis = tf.polarization_basis_t(tf.KahlerFlowState(g0, phi_2d, 1.0), x)
        assert np.linalg.matrix_rank(basis) == 2


def test_subspace_angle_cases():
    a = np.array([[0.25], [0.5j]])
    b = np.array([[0.0], [1.0]])
    # arccos floors at sqrt(eps) for coincident spans
    assert tf.subspace_angle(a, a) == pytest.approx(0.0, abs=1e-7)
    assert tf.subspace_angle(a, b) == pytest.approx(np.arctan(0.5))
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert tf.subspace_angle(e1, e2) == pytest.approx(np.pi / 2)


def test_subspace_angle_rejects_rank_deficient():
    degenerate = np.zeros((4, 2), dtype=complex)
    degenerate[0, 0] = degenerate[0, 1] = 1.0
    with pytest.raises(ValueError):
        tf.subspace_angle(degenerate, np.eye(4, 2, dtype=complex))


_ANGLE_TIMES = np.concatenate([[0.0], np.geomspace(0.1, 1e4, 14)])


@pytest.mark.parametrize(
    "poly, phi",
    [
        (tf.segment(2.0), tf.QuadraticPotential([[1.5]])),
        (tf.segment(2.0), tf.LogSumExpPotential([[1.0], [-1.0], [2.0]])),
        (tf.standard_simplex(2, 2.0), tf.QuadraticPotential([[2.0, 0.5], [0.5, 1.0]])),
        (tf.standard_simplex(2, 2.0), tf.LogSumExpPotential([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])),
    ],
    ids=["segment-quadratic", "segment-logsumexp", "simplex-quadratic", "simplex-logsumexp"],
)
def test_polarization_angle_matches_svd_route(poly, phi, rng):
    # 12 points x 15 times per model, 720 (x, t) pairs in all
    g0 = tf.SymplecticPotential(poly)
    pts = tf.sample_interior(poly, 12, rng, margin=0.05)
    target = tf.mixed_polarization_basis(poly.dimension)
    for t in _ANGLE_TIMES:
        state = tf.KahlerFlowState(g0, phi, t)
        # what the polarization subcommand computes
        closed = limit_angle(np.linalg.eigvalsh(metric_hessians(g0, phi, t, pts)))
        reference = [tf.subspace_angle(tf.polarization_basis_t(state, x), target) for x in pts]
        assert closed.shape == (12,)
        assert np.abs(closed - reference).max() <= 2e-11


def test_batched_structure_matches_single_points(cp2_size2, phi_aniso, rng):
    state = tf.KahlerFlowState(tf.SymplecticPotential(cp2_size2), phi_aniso, 7.0)
    pts = tf.sample_interior(cp2_size2, 8, rng, margin=0.05)
    J = tf.complex_structure(state, pts)
    M = tf.metric_matrix(state, pts)
    assert J.shape == M.shape == (8, 4, 4)
    for x, Jx, Mx in zip(pts, J, M):
        assert np.array_equal(Jx, tf.complex_structure(state, x))
        assert np.array_equal(Mx, tf.metric_matrix(state, x))


def test_batched_structure_rejects_one_singular_point(cp2_size2, phi_aniso):
    # a facet value of 1e-13 makes G_0 ill-conditioned at the first point only
    state = tf.KahlerFlowState(tf.SymplecticPotential(cp2_size2), phi_aniso, 0.0)
    pts = np.array([[1e-13, 0.5], [0.5, 0.5]])
    tf.complex_structure(state, pts[1])
    for build in (tf.complex_structure, tf.metric_matrix):
        with pytest.raises(DomainError):
            build(state, pts)


def test_flow_map_identity_at_time_zero(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    q = tf.flow_map_psi_t(tf.KahlerFlowState(g0, phi_1d, 0.0), np.array([0.4]))
    assert q[0] == pytest.approx(0.4, abs=1e-12)


def test_flow_map_moves_moment_dual(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    state = tf.KahlerFlowState(g0, phi_1d, 1.0)
    x, theta = np.array([0.5]), np.array([0.7])
    image = tf.flow_map_psi_t(state, x)
    # y(image) = grad g_0(x) + t grad phi(x) = 0 + 0.5, so |w| = e^{0.5}
    state0 = tf.KahlerFlowState(g0, phi_1d, 0.0)
    w_log = state0.moment_dual(image) + 1j * theta
    assert np.exp(w_log.real[0]) == pytest.approx(np.exp(0.5))
    # J_t-coordinate at (x, theta) equals the J_0-coordinate at (image, theta)
    wt = state.moment_dual(x) + 1j * theta
    assert np.allclose(wt, w_log, atol=1e-12)


def test_flow_map_theta_unchanged_many(cp2_size2, phi_2d, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    state = tf.KahlerFlowState(g0, phi_2d, 0.5)
    # psi_t keeps the angles, so only the action coordinates are mapped
    for x in tf.sample_interior(cp2_size2, 5, rng, margin=0.2):
        image = tf.flow_map_psi_t(state, x)
        assert np.allclose(g0.grad(image), state.moment_dual(x), atol=1e-9)


def test_flow_map_reports_unresolvable_targets(cp2_size2, phi_aniso, rng):
    # strong anisotropic flow pushes image points exponentially close to the
    # boundary; the inverse-gradient lookup reports failure rather than lying
    g0 = tf.SymplecticPotential(cp2_size2)
    state = tf.KahlerFlowState(g0, phi_aniso, 4.0)
    with pytest.raises(tf.NewtonError):
        tf.flow_map_psi_t(state, np.array([0.9, 1.05]))


def test_polarization_decay_slope(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    ts = np.geomspace(10, 1000, 11)
    curve = tf.polarization_decay_curve(g0, phi_1d, np.array([0.5]), ts)
    assert -1.1 < curve.slope < -0.9
    assert (np.diff(curve.angles) < 0).all()
    assert curve.angles[-1] < curve.angles[0]


def test_decay_curve_time_zero_consistency(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    curve = tf.polarization_decay_curve(g0, phi_1d, np.array([0.5]), [0.0, 10.0, 100.0])
    assert curve.angles[0] == pytest.approx(np.arctan(0.5))


def test_decay_curve_is_the_per_t_angle(cp2_size2, phi_aniso, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    pts = tf.sample_interior(cp2_size2, 6, rng, margin=0.05)
    ts = np.concatenate([[0.0], np.geomspace(0.5, 2000, 12)])
    curve = tf.polarization_decay_curve(g0, phi_aniso, pts, ts)
    per_t = [limit_angle(np.linalg.eigvalsh(metric_hessians(g0, phi_aniso, t, pts))) for t in ts]
    assert np.array_equal(curve.angles, per_t)
    # the one G_t stack still refuses a negative time, as KahlerFlowState does
    with pytest.raises(ValueError, match="flow time must be nonnegative"):
        tf.polarization_decay_curve(g0, phi_aniso, pts, [-1.0, 10.0, 100.0])


@pytest.mark.parametrize("ts", [[0.0], [0.0, 10.0], [1.0, 2.0, 100.0]])
def test_decay_curve_without_a_fit_decade_raises(cp1_unit, phi_1d, ts):
    # fewer than two positive times in the trailing decade: no slope, not NaN
    g0 = tf.SymplecticPotential(cp1_unit)
    with pytest.raises(ValueError, match="log-log fit needs|fitting window"):
        tf.polarization_decay_curve(g0, phi_1d, np.array([0.5]), ts)


def test_beta_pairing_is_radial(cp1_size2, phi_1d, rng):
    x = tf.sample_interior(cp1_size2, 4, rng, margin=0.1)
    vals = tf.beta_of_hamiltonian_field(phi_1d, x)
    assert np.allclose(vals, x[:, 0] * phi_1d.grad(x)[:, 0])


def test_dimension_mismatch_rejected(cp1_unit, phi_2d):
    g0 = tf.SymplecticPotential(cp1_unit)
    with pytest.raises(DimensionMismatch):
        tf.KahlerFlowState(g0, phi_2d, 1.0)
