import numpy as np
import pytest

import toricflow as tf
from toricflow.errors import DimensionMismatch, DomainError
from toricflow.flow import complex_structure_of, flowed_potentials, limit_angle, metric_hessians


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


def _rho_0(g0, x):
    """rho_0 = 2 (x . grad g_0 - g_0), the time-zero normalization."""
    return 2.0 * (np.einsum("...i,...i->...", x, g0.grad(x)) - g0.value(x))


def test_flowed_potential_time_zero(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    x = np.array([0.3])
    ((g, _, _),) = flowed_potentials(g0, phi_1d, [0.0], x)
    # the moment dual grad g_t of the psi_t image
    y = g0.grad(tf.flow_map_psi_t(g0, phi_1d, 0.0, x))
    G = metric_hessians(g0, phi_1d, 0.0, x)
    assert g == pytest.approx(g0.value(x))
    assert np.allclose(y, g0.grad(x))
    assert np.allclose(G, g0.hess(x))


def test_flowed_potential_arithmetic(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    x = np.array([0.5])
    ((g, _, _),) = flowed_potentials(g0, phi_1d, [2.0], x)
    G = metric_hessians(g0, phi_1d, 2.0, x)
    assert g == pytest.approx(-0.5 * np.log(2) + 0.25)
    assert G[0, 0] == pytest.approx(4.0)


def test_metric_eigenvalues_increase_with_t(cp2_size2, phi_aniso, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    x = tf.sample_interior(cp2_size2, 1, rng, margin=0.2)[0]
    eigs = [
        np.linalg.eigvalsh(metric_hessians(g0, phi_aniso, t, x))
        for t in (0.0, 1.0, 5.0)
    ]
    assert (eigs[1] > eigs[0]).all() and (eigs[2] > eigs[1]).all()


def test_kahler_potential_formula(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    x = np.array([0.5])
    (_, rho0, _), (_, rho2, _) = flowed_potentials(g0, phi_1d, [0.0, 2.0], x)
    assert rho0 == pytest.approx(_rho_0(g0, x))
    # rho_t - rho_0 = 2 t f_0(x) = 2*2*(0.25 - 0.125)
    assert rho2 - rho0 == pytest.approx(0.5)


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
    ts = (0.5, 3.0)
    for t, (_, rho, _) in zip(ts, flowed_potentials(g0, linear, ts, x)):
        drop = rho - _rho_0(g0, x)
        assert drop == pytest.approx(-2 * t * c)


def test_duality_residual_is_machine_zero(cp1_unit, cp2_size2, phi_1d, phi_aniso, rng):
    g1 = tf.SymplecticPotential(cp1_unit)
    for _, rho, rho_leg in flowed_potentials(g1, phi_1d, (0.0, 1.0), np.array([0.5])):
        assert np.abs(rho - rho_leg) < 1e-12
    g2 = tf.SymplecticPotential(cp2_size2)
    pts = tf.sample_interior(cp2_size2, 20, rng, margin=0.05)
    ((_, rho, rho_leg),) = flowed_potentials(g2, phi_aniso, [5.0], pts)
    resid = np.abs(rho - rho_leg)
    assert resid.max() < 1e-10


def test_complex_structure_blocks(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    J = complex_structure_of(metric_hessians(g0, phi_1d, 2.0, np.array([0.5])))
    assert np.allclose(J, [[0.0, -0.25], [4.0, 0.0]])
    assert np.max(np.abs(J @ J + np.eye(2))) < 1e-12
    J0 = complex_structure_of(metric_hessians(g0, phi_1d, 0.0, np.array([0.5])))
    assert J0[1, 0] == pytest.approx(2.0)


def test_metric_positive_at_random_points(cp2_size2, phi_aniso, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    pts = tf.sample_interior(cp2_size2, 100, rng, margin=0.02)
    for t in (0.0, 3.0, 50.0):
        for x in pts[:25]:
            # the metric diag(G_t, G_t^{-1}) is positive exactly when G_t is
            G = metric_hessians(g0, phi_aniso, t, x)
            assert np.allclose(G, G.T)
            assert np.linalg.eigvalsh(G).min() > 0
            J = complex_structure_of(G)
            assert np.max(np.abs(J @ J + np.eye(4))) < 1e-12


def test_polarization_basis_values(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    basis = tf.polarization_basis_t(g0, phi_1d, 0.0, np.array([0.5]))
    assert np.allclose(basis[:, 0], [0.25, 0.5j])
    # t -> infinity tilts the frame into the pure angular direction
    late = tf.polarization_basis_t(g0, phi_1d, 1e6, np.array([0.5]))
    assert abs(late[0, 0]) < 1e-6
    assert late[1, 0] == pytest.approx(0.5j)


def test_polarization_frame_full_rank(cp2_size2, phi_2d, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    pts = tf.sample_interior(cp2_size2, 10, rng, margin=0.1)
    for x in pts:
        basis = tf.polarization_basis_t(g0, phi_2d, 1.0, x)
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
        # what the polarization subcommand computes
        closed = limit_angle(np.linalg.eigvalsh(metric_hessians(g0, phi, t, pts)))
        reference = [tf.subspace_angle(tf.polarization_basis_t(g0, phi, t, x), target) for x in pts]
        assert closed.shape == (12,)
        assert np.abs(closed - reference).max() <= 2e-11


def test_batched_structure_matches_single_points(cp2_size2, phi_aniso, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    pts = tf.sample_interior(cp2_size2, 8, rng, margin=0.05)
    G = metric_hessians(g0, phi_aniso, 7.0, pts)
    J = complex_structure_of(G)
    assert J.shape == (8, 4, 4)
    for x, Gx, Jx in zip(pts, G, J):
        assert np.array_equal(Gx, metric_hessians(g0, phi_aniso, 7.0, x))
        assert np.array_equal(Jx, complex_structure_of(metric_hessians(g0, phi_aniso, 7.0, x)))


def test_batched_structure_rejects_one_singular_point(cp2_size2, phi_aniso):
    # a facet value of 1e-13 makes G_0 ill-conditioned at the first point only
    g0 = tf.SymplecticPotential(cp2_size2)
    pts = np.array([[1e-13, 0.5], [0.5, 0.5]])
    complex_structure_of(metric_hessians(g0, phi_aniso, 0.0, pts[1]))
    with pytest.raises(DomainError):
        complex_structure_of(metric_hessians(g0, phi_aniso, 0.0, pts))


def test_flow_map_identity_at_time_zero(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    q = tf.flow_map_psi_t(g0, phi_1d, 0.0, np.array([0.4]))
    assert q[0] == pytest.approx(0.4, abs=1e-12)


def test_flow_map_moves_moment_dual(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    x, theta = np.array([0.5]), np.array([0.7])
    image = tf.flow_map_psi_t(g0, phi_1d, 1.0, x)
    # y(image) = grad g_0(x) + t grad phi(x) = 0 + 0.5, so |w| = e^{0.5}
    w_log = g0.grad(image) + 1j * theta
    assert np.exp(w_log.real[0]) == pytest.approx(np.exp(0.5))
    # J_t-coordinate at (x, theta) equals the J_0-coordinate at (image, theta)
    wt = g0.grad(x) + 1.0 * phi_1d.grad(x) + 1j * theta
    assert np.allclose(wt, w_log, atol=1e-12)


def test_flow_map_theta_unchanged_many(cp2_size2, phi_2d, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    # psi_t keeps the angles, so only the action coordinates are mapped
    for x in tf.sample_interior(cp2_size2, 5, rng, margin=0.2):
        image = tf.flow_map_psi_t(g0, phi_2d, 0.5, x)
        assert np.allclose(g0.grad(image), g0.grad(x) + 0.5 * phi_2d.grad(x), atol=1e-9)


def test_flow_map_reports_unresolvable_targets(cp2_size2, phi_aniso, rng):
    # strong anisotropic flow pushes image points exponentially close to the
    # boundary; the inverse-gradient lookup reports failure rather than lying
    g0 = tf.SymplecticPotential(cp2_size2)
    with pytest.raises(tf.NewtonError):
        tf.flow_map_psi_t(g0, phi_aniso, 4.0, np.array([0.9, 1.05]))


def _decay_angles(g0, phi, x, ts):
    # the polarization subcommand's angle stack, shape (len(ts), points)
    return limit_angle(np.linalg.eigvalsh(metric_hessians(g0, phi, ts, x)))


def test_polarization_decay_slope(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    ts = np.geomspace(10, 1000, 11)
    angles = _decay_angles(g0, phi_1d, np.array([0.5]), ts)
    assert -1.1 < tf.fit_loglog_slope(ts, angles) < -0.9
    assert (np.diff(angles) < 0).all()
    assert angles[-1] < angles[0]


def test_decay_curve_time_zero_consistency(cp1_unit, phi_1d):
    g0 = tf.SymplecticPotential(cp1_unit)
    angles = _decay_angles(g0, phi_1d, np.array([0.5]), [0.0, 10.0, 100.0])
    assert angles[0] == pytest.approx(np.arctan(0.5))


def test_decay_curve_is_the_per_t_angle(cp2_size2, phi_aniso, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    pts = tf.sample_interior(cp2_size2, 6, rng, margin=0.05)
    ts = np.concatenate([[0.0], np.geomspace(0.5, 2000, 12)])
    per_t = [limit_angle(np.linalg.eigvalsh(metric_hessians(g0, phi_aniso, t, pts))) for t in ts]
    assert np.array_equal(_decay_angles(g0, phi_aniso, pts, ts), per_t)


@pytest.mark.parametrize("ts", [[0.0], [0.0, 10.0], [1.0, 2.0, 100.0]])
def test_decay_curve_without_a_fit_decade_raises(cp1_unit, phi_1d, ts):
    # fewer than two positive times in the trailing decade: no slope, not NaN
    g0 = tf.SymplecticPotential(cp1_unit)
    ts = np.asarray(ts)
    positive = ts > 0
    angles = _decay_angles(g0, phi_1d, np.array([0.5]), ts)
    with pytest.raises(ValueError, match="log-log fit needs|fitting window"):
        tf.fit_loglog_slope(ts[positive], angles[positive])


def test_dimension_mismatch_rejected(cp1_unit, phi_2d):
    g0 = tf.SymplecticPotential(cp1_unit)
    x = np.array([0.5])
    with pytest.raises(DimensionMismatch):
        metric_hessians(g0, phi_2d, 1.0, x)
    with pytest.raises(DimensionMismatch):
        next(flowed_potentials(g0, phi_2d, [1.0], x))
    with pytest.raises(DimensionMismatch):
        tf.polarization_basis_t(g0, phi_2d, 1.0, x)
    with pytest.raises(DimensionMismatch):
        tf.flow_map_psi_t(g0, phi_2d, 1.0, x)


def test_negative_time_rejected(cp2_size2, phi_aniso):
    g0 = tf.SymplecticPotential(cp2_size2)
    x = np.array([[0.5, 0.5], [1.0, 0.5]])
    for ts in (-1.0, [-1.0, 10.0, 100.0]):
        with pytest.raises(ValueError, match="flow time must be nonnegative"):
            metric_hessians(g0, phi_aniso, ts, x)
    for ts in ([-1.0], [0.0, 1.0, -1.0]):
        with pytest.raises(ValueError, match="flow time must be nonnegative"):
            next(flowed_potentials(g0, phi_aniso, ts, x))
    with pytest.raises(ValueError, match="flow time must be nonnegative"):
        tf.polarization_basis_t(g0, phi_aniso, -1.0, x[0])
    with pytest.raises(ValueError, match="flow time must be nonnegative"):
        tf.frame_holomorphicity_residual(g0, phi_aniso, -1.0, x)


def test_polarization_basis_batch_is_the_per_point_frames(cp2_size2, phi_aniso):
    g0 = tf.SymplecticPotential(cp2_size2)
    pts = np.array([[0.5, 0.5], [1.0, 0.5], [0.2, 1.3]])
    frames = tf.polarization_basis_t(g0, phi_aniso, 1.0, pts)
    assert frames.shape == (3, 4, 2)
    for x, frame in zip(pts, frames):
        assert np.array_equal(frame, tf.polarization_basis_t(g0, phi_aniso, 1.0, x))
    stack = tf.polarization_basis_t(g0, phi_aniso, np.array([1.0, 10.0]), pts)
    assert stack.shape == (2, 3, 4, 2) and np.array_equal(stack[0], frames)
