import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad

import toricflow as tf
from toricflow.config import load_config
from toricflow.errors import (
    AliasingError,
    DomainError,
    QuadratureOverflow,
    QuadratureStagnation,
)
from toricflow.quadrature import integrate_many
from toricflow.sections import _density_kernel

CP2_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "cp2_size2.cfg"


@pytest.fixture(scope="module")
def model2():
    poly = tf.segment(2.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    return poly, g0, phi


@pytest.fixture(scope="module")
def sample_points(model2):
    poly, _, _ = model2
    rng = np.random.default_rng(11)
    xs = tf.sample_interior(poly, 20, rng, margin=0.1)
    thetas = rng.random((20, 1)) * 2 * np.pi
    return xs, thetas


# -- Kostant operator ---------------------------------------------------------


def test_kostant_invariant_section(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    check = tf.kostant_operator(np.array([1.0]), tf.WeightSection((0,), g0, phi), xs[:6])
    assert check.expected_eigenvalue == 0
    assert abs(check.measured_eigenvalue) < 1e-12
    assert check.residual < 1e-12


def test_kostant_weight_one(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    check = tf.kostant_operator(np.array([1.0]), tf.WeightSection((1,), g0, phi), xs[:6])
    assert check.expected_eigenvalue == 1j
    assert abs(check.measured_eigenvalue - 1j) < 1e-10
    assert check.residual < 1e-10


def test_kostant_linearity(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    s = tf.WeightSection((1,), g0, phi)
    one = tf.kostant_operator(np.array([1.0]), s, xs[:6])
    two = tf.kostant_operator(np.array([2.0]), s, xs[:6])
    assert two.measured_eigenvalue == pytest.approx(2 * one.measured_eigenvalue)


def test_kostant_detects_aliased_weight(model2, sample_points):
    # weight 2 on a 3-point theta grid aliases to -1: the check must fail
    _, g0, phi = model2
    xs, _ = sample_points
    check = tf.kostant_operator(
        np.array([1.0]), tf.WeightSection((2,), g0, phi), xs[:6], n_theta=3
    )
    assert check.expected_eigenvalue == 2j
    assert check.residual > 1
    assert abs(check.measured_eigenvalue - 2j) > 1


# -- quantum operator -----------------------------------------------------------


def test_quantum_operator_on_invariant_frame(model2):
    _, g0, phi = model2
    s0 = tf.WeightSection((0,), g0, phi)
    field = tf.evaluate_on_grid([s0], np.array([[0.5]]), 8)
    out = tf.quantum_operator(field, phi)
    # phihat sigma = (phi - beta(X_phi)) sigma = -f_0 sigma
    assert out.values[0, 0] / field.values[0, 0] == pytest.approx(-0.125)


def test_quantum_operator_weight_section_at_center(model2):
    _, g0, phi = model2
    s1 = tf.WeightSection((1,), g0, phi)
    field = tf.evaluate_on_grid([s1], np.array([[1.0]]), 8)
    out = tf.quantum_operator(field, phi)
    # coefficient -f_lam(lam) = +phi(lam)
    assert out.values[0, 0] / field.values[0, 0] == pytest.approx(phi.value(np.array([1.0])))


def test_quantum_operator_linearity(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    s0 = tf.WeightSection((0,), g0, phi)
    s1 = tf.WeightSection((1,), g0, phi)
    f0 = tf.evaluate_on_grid([s0], xs[:4], 8)
    f1 = tf.evaluate_on_grid([s1], xs[:4], 8)
    combined = tf.quantum_operator(f0 + 2.0 * f1, phi)
    separate = tf.quantum_operator(f0, phi) + 2.0 * tf.quantum_operator(f1, phi)
    assert np.max(np.abs(combined.values - separate.values)) < 1e-13


def test_lie_series_collapses_to_multiplier(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    s1 = tf.WeightSection((1,), g0, phi)
    field = tf.evaluate_on_grid([s1], xs[:4], 8)
    t = 0.2
    truncated = tf.apply_flow_truncated(field, phi, t, order=14)
    exact = tf.evaluate_on_grid([tf.flow_section(s1, t)], xs[:4], 8)
    rel = np.max(np.abs(truncated.values - exact.values)) / np.max(np.abs(exact.values))
    assert rel < 1e-13


# -- flow routes -----------------------------------------------------------------


def test_flow_section_time_zero_identity(model2, sample_points):
    _, g0, phi = model2
    xs, thetas = sample_points
    s = tf.WeightSection((1,), g0, phi)
    flowed = tf.flow_section(s, 0.0)
    assert np.allclose(
        flowed.sigma_representative(xs, thetas), s.sigma_representative(xs, thetas)
    )


def test_flow_section_multiplier(model2):
    _, g0, phi = model2
    s0 = tf.WeightSection((0,), g0, phi)
    x = np.array([0.5])
    th = np.array([0.9])
    ratio = tf.flow_section(s0, 1.0).sigma_representative(x, th) / s0.sigma_representative(x, th)
    assert ratio == pytest.approx(np.exp(-0.125))


def test_flow_section_semigroup(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    s = tf.WeightSection((1,), g0, phi)
    a = tf.flow_section(tf.flow_section(s, 0.7), 1.6)
    b = tf.flow_section(s, 2.3)
    assert np.max(np.abs(a.amplitude_log(xs) - b.amplitude_log(xs))) < 1e-12


def test_pullback_route_weight_zero_trivial(model2, sample_points):
    _, g0, phi = model2
    xs, thetas = sample_points
    s0 = tf.WeightSection((0,), g0, phi)
    assert tf.route_equality_residual(s0, 2.0, xs, thetas) < 1e-12


def test_pullback_route_factors(model2):
    # lam=1, x=0.5, t=1 on the unit segment: the pullback factor is
    # e^{t lam grad phi} = e^{0.5}, the frame ratio e^{-t f_0} = e^{-0.125},
    # and the product e^{0.375} = e^{-t f_1(0.5)} with f_1(0.5) = -0.375
    poly = tf.segment(1.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    x = np.array([0.5])
    t = 1.0
    pullback_factor = np.exp(t * phi.grad(x) @ np.array([1.0]))
    assert pullback_factor == pytest.approx(np.exp(0.5))
    state = tf.KahlerFlowState(g0, phi, t)
    frame_ratio = np.exp(-0.5 * (state.kahler_potential_legendre(x) - state.kahler_potential_reference(x)))
    assert frame_ratio == pytest.approx(np.exp(-0.125))
    f1 = tf.concentration_rate(phi, [1.0], x)
    assert f1 == pytest.approx(-0.375)
    assert pullback_factor * frame_ratio == pytest.approx(np.exp(-t * f1))


def test_route_equality_random_simplex(cp2_size2, phi_aniso, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    xs = tf.sample_interior(cp2_size2, 15, rng, margin=0.05)
    thetas = rng.random((15, 2)) * 2 * np.pi
    for lam in [(0, 0), (1, 1), (2, 0)]:
        s0 = tf.WeightSection(lam, g0, phi_aniso)
        for t in (0.5, 2.0, 10.0):
            assert tf.route_equality_residual(s0, t, xs, thetas) < 1e-12


def test_weight_preserved_by_flow(model2):
    _, g0, phi = model2
    s = tf.WeightSection((1,), g0, phi)
    assert tf.flow_section(s, 3.0).weight == s.weight
    assert tf.flow_section_pullback(s, 3.0).weight == s.weight


def test_pullback_route_semigroup(model2, sample_points):
    # advancing the pullback section by the multiplier matches the pullback
    # at the summed time
    _, g0, phi = model2
    xs, _ = sample_points
    s = tf.WeightSection((1,), g0, phi)
    direct = tf.flow_section_pullback(s, 2.3).amplitude_log(xs)
    staged = tf.flow_section_pullback(s, 0.7).amplitude_log(xs) + 1.6 * tf.concentration_rate(
        phi, s.lam, xs
    )
    assert np.max(np.abs(direct - staged)) < 1e-12


# -- norms --------------------------------------------------------------------------


def test_norm_beta_integral_unit_segment():
    poly = tf.segment(1.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    for lam in (0, 1):
        norm = tf.section_norm_sq(tf.WeightSection((lam,), g0, phi))
        assert norm == pytest.approx(np.pi, rel=1e-9)


@pytest.fixture(scope="module")
def cp2_model():
    # the shipped cp2_size2 config, with its quadrature spec
    exp = load_config(CP2_CONFIG).validate()
    return exp.poly, exp.g0, exp.phi, exp.spec


def test_norm_dirichlet_integral_cp2(cp2_model):
    # at t = 0 the density is prod_k l_k^{l_k(lam)} (sum l_k = 2 is constant),
    # so the norm is the Dirichlet integral (2 pi)^2 2^{a+b+c+2} a! b! c! / (a+b+c+2)!
    poly, g0, phi, spec = cp2_model
    for point in poly.lattice_points():
        a, b = point.coords
        c = 2 - a - b
        exact = (2 * np.pi) ** 2 * 2 ** (a + b + c + 2) * math.factorial(a) * math.factorial(
            b
        ) * math.factorial(c) / math.factorial(a + b + c + 2)
        norm = tf.section_norm_sq(tf.WeightSection(point.coords, g0, phi), spec)
        assert norm == pytest.approx(exact, rel=1e-12, abs=0)


def test_norm_against_dblquad_cp2(cp2_model):
    poly, g0, phi, spec = cp2_model
    s = tf.WeightSection((1, 1), g0, phi, 10.0)
    oracle, _ = dblquad(
        lambda y, x: float(s.density(np.array([[x, y]]))[0]),
        0.0, 2.0, 0.0, lambda x: 2.0 - x, epsabs=0.0, epsrel=1e-12,
    )
    norm = tf.section_norm_sq(s, spec)
    assert norm == pytest.approx((2 * np.pi) ** 2 * oracle, rel=1e-8, abs=0)


def test_norms_symmetric_under_flip(model2):
    _, g0, phi = model2
    # at t=0 the amplitude is symmetric under x -> 2 - x, lam -> 2 - lam
    n0 = tf.section_norm_sq(tf.WeightSection((0,), g0, phi))
    n2 = tf.section_norm_sq(tf.WeightSection((2,), g0, phi))
    assert n0 == pytest.approx(n2, rel=1e-9)


def test_norm_monotone_convex_after_weight_shift(model2):
    _, g0, phi = model2
    lam = np.array([1.0])
    ts = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    vals = []
    for t in ts:
        n = tf.section_norm_sq(tf.WeightSection((1,), g0, phi, float(t)))
        vals.append(np.log(n) - 2 * t * phi.value(lam))
    vals = np.array(vals)
    assert (np.diff(vals) < 1e-12).all()
    # convex in t: slopes are nondecreasing
    slopes = np.diff(vals) / np.diff(ts)
    assert (np.diff(slopes) > -1e-10).all()


def test_norm_beyond_float_range_raises(model2):
    # the norm is about e^800 at t = 800: the quadrature must not return nan
    _, g0, phi = model2
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureOverflow):
            tf.section_norm_sq(tf.WeightSection((1,), g0, phi, 800.0))


def test_density_extends_to_boundary(model2):
    _, g0, phi = model2
    s1 = tf.WeightSection((1,), g0, phi)
    edge = s1.density(np.array([[0.0], [2.0], [1.0]]))
    # e^{-2F} = x (2 - x): vanishes at both ends for the interior weight
    assert edge[0] == pytest.approx(0.0)
    assert edge[1] == pytest.approx(0.0)
    assert edge[2] == pytest.approx(1.0)
    s0 = tf.WeightSection((0,), g0, phi)
    # e^{-2F} = (2 - x)^2: bounded, nonzero at its own vertex
    assert s0.density(np.array([0.0])) == pytest.approx(4.0)


# -- batched norms -------------------------------------------------------------------


def _reference_density(s, x):
    # the elementwise formula: exp(E) * exp(-2 extra) * exp(-2 t f_lam), with
    # E = sum_k [l_k(lam) - l_k(x) + l_k(lam) log l_k(x)]
    poly = s.polytope
    lx = np.maximum(poly.facet_values(x), 0.0)
    llam = poly.facet_values(s.lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pow = np.where(llam > 0.0, llam * np.log(np.maximum(lx, 1e-300)), 0.0)
    out = np.exp(np.sum(llam - lx + log_pow, axis=-1))
    if s.g0.extra is not None:
        e = s.g0.extra
        amp = np.einsum("...i,...i->...", x - s.lam, e.grad(x)) - e.value(x)
        out = out * np.exp(-2.0 * amp)
    return out * np.exp(-2.0 * s.t * tf.concentration_rate(s.phi, s.lam, x))


def _assert_batch_matches_reference(sections, spec):
    poly = sections[0].polytope
    volume = (2 * np.pi) ** poly.dimension
    norms = tf.section_norms_sq(sections, spec)
    pts = poly.grid_cells(spec.resolution).points
    for s, norm in zip(sections, norms):
        np.testing.assert_allclose(s.density(pts), _reference_density(s, pts), rtol=1e-13, atol=0)
        ref = volume * tf.integrate(lambda x: _reference_density(s, x), poly, spec).value
        assert norm == pytest.approx(ref, rel=1e-13, abs=0)
        assert norm == pytest.approx(tf.section_norm_sq(s, spec), rel=1e-13, abs=0)


def test_batch_norms_match_reference_cp2():
    # all 12 (lam, t) norms of the shipped config, as section-flow batches them
    exp = load_config(CP2_CONFIG).validate()
    sections = [
        tf.WeightSection(lam, exp.g0, exp.phi, t)
        for lam in exp.weights
        for t in exp.section_t
    ]
    assert len(sections) == 12
    _assert_batch_matches_reference(sections, exp.spec)


def test_batch_freezes_each_column(model2):
    # lam = 1, t = 10 meets the tolerance at level 0, the others refine 3
    # times: the batch must equal one separate integration per column
    poly, g0, phi = model2
    spec = tf.QuadratureSpec()
    sections = [tf.WeightSection((lam,), g0, phi, t) for lam in (0, 1, 2) for t in (0.5, 2.0, 10.0)]
    kernel = _density_kernel(sections)
    batch = integrate_many(kernel, len(sections), poly, spec, independent=True)
    for j, s in enumerate(sections):
        points = []

        def column(x, j=j):
            points.append(len(x))
            return kernel(x)[:, [j]]

        assert batch[j] == integrate_many(column, 1, poly, spec)[0]
        levels = 2 if s.weight == (1,) and s.t == 10.0 else 5
        assert sum(points) == sum(512 * 2**i for i in range(levels))
    _assert_batch_matches_reference(sections, spec)


def test_batch_norms_with_extra_potential(cp2_size2):
    g0 = tf.SymplecticPotential(cp2_size2, extra=tf.QuadraticPotential([[0.6, 0.2], [0.2, 0.4]]))
    phi = tf.QuadraticPotential([[2.0, 0.0], [0.0, 4.0]])
    sections = [
        tf.WeightSection(lam, g0, phi, t) for lam in ((0, 0), (1, 1), (2, 0)) for t in (0.0, 3.0)
    ]
    _assert_batch_matches_reference(
        sections, tf.QuadratureSpec(resolution=32, rel_tol=1e-6, max_refinements=2)
    )


def test_batch_norms_3d_simplex():
    poly = tf.standard_simplex(3, 2.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential(np.diag([2.0, 3.0, 4.0]))
    sections = [
        tf.WeightSection(lam, g0, phi, t) for lam in ((0, 0, 0), (1, 0, 1)) for t in (0.5, 2.0)
    ]
    _assert_batch_matches_reference(
        sections, tf.QuadratureSpec(resolution=8, rel_tol=1e-3, max_refinements=1)
    )


def test_batch_stagnating_column_raises(model2):
    # at t = 400 the peak is far narrower than the coarse cells
    _, g0, phi = model2
    spec = tf.QuadratureSpec(resolution=4, rel_tol=1e-10, max_refinements=1)
    sections = [tf.WeightSection((1,), g0, phi, t) for t in (0.5, 400.0)]
    with pytest.raises(QuadratureStagnation, match="column 1"):
        tf.section_norms_sq(sections, spec)


def test_batch_overflow_names_column(model2):
    _, g0, phi = model2
    sections = [tf.WeightSection((1,), g0, phi, t) for t in (2.0, 800.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureOverflow, match="value nan in column 1"):
            tf.section_norms_sq(sections)


def test_batch_rejects_mixed_models(model2):
    _, g0, phi = model2
    other = tf.QuadraticPotential([[2.0]])
    sections = [tf.WeightSection((1,), g0, phi), tf.WeightSection((1,), g0, other)]
    with pytest.raises(ValueError, match="share one g0 and one phi"):
        tf.section_norms_sq(sections)


# -- gluing -----------------------------------------------------------------------


@pytest.mark.parametrize("lam", [(0,), (1,), (2,)])
@pytest.mark.parametrize("t", [1.0, 3.0])
def test_gluing_residual(model2, lam, t):
    _, g0, phi = model2
    check = tf.gluing_check_cp1(tf.WeightSection(lam, g0, phi), t)
    assert check.residual < 1e-10
    assert check.segment_length == 2


def test_gluing_time_zero_unit_segment():
    poly = tf.segment(1.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    check = tf.gluing_check_cp1(tf.WeightSection((0,), g0, phi), 0.0)
    assert check.residual < 1e-12


def test_gluing_corrupted_transition_flagged(model2):
    _, g0, phi = model2
    check = tf.gluing_check_cp1(tf.WeightSection((1,), g0, phi), 3.0, corrupt=True)
    assert check.residual > 0.1


def test_gluing_needs_integer_segment():
    poly = tf.DelzantPolytope([tf.Facet((1,), 0.0), tf.Facet((-1,), 1.5)])
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    with pytest.raises(DomainError):
        tf.gluing_check_cp1(tf.WeightSection((1,), g0, phi), 1.0)


# -- bundle lift ---------------------------------------------------------------------


def test_lift_scale_values(model2):
    _, _, phi = model2
    assert tf.lift_scale(phi, np.array([0.5]), 0.0) == pytest.approx(1.0)
    assert tf.lift_scale(phi, np.array([0.5]), 1.0) == pytest.approx(np.exp(-0.125))
    a = tf.lift_scale(phi, np.array([0.7]), 0.9)
    b = tf.lift_scale(phi, np.array([0.7]), 1.4)
    assert a * b == pytest.approx(tf.lift_scale(phi, np.array([0.7]), 2.3))


def test_lift_consistency(model2, sample_points, rng):
    _, g0, phi = model2
    xs, thetas = sample_points
    zetas = np.exp(1j * rng.random(len(xs)) * 2 * np.pi)
    for lam in [(0,), (1,)]:
        s0 = tf.WeightSection(lam, g0, phi)
        assert tf.lift_section_consistency(s0, 0.0, xs, thetas, zetas).residual < 1e-14
        for t in (0.5, 2.0):
            check = tf.lift_section_consistency(s0, t, xs, thetas, zetas)
            assert check.residual < 1e-10


# -- weight decomposition --------------------------------------------------------------


def test_weight_decompose_single(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    s1 = tf.WeightSection((1,), g0, phi)
    field = tf.evaluate_on_grid([s1], xs[:5], 8)
    comps = tf.weight_decompose(field)
    assert list(comps) == [(1,)]


def test_weight_decompose_commutes_with_flow(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    s0 = tf.WeightSection((0,), g0, phi)
    s1 = tf.WeightSection((1,), g0, phi)
    t = 2.0
    field = tf.evaluate_on_grid([s0, s1], xs[:5], 8)
    flowed_then_decomposed = tf.weight_decompose(
        tf.evaluate_on_grid([tf.flow_section(s0, t), tf.flow_section(s1, t)], xs[:5], 8)
    )
    decomposed_then_flowed = tf.flow_components(
        tf.weight_decompose(field), xs[:5], phi, t
    )
    for lam in ((0,), (1,)):
        diff = np.max(
            np.abs(flowed_then_decomposed[lam] - decomposed_then_flowed[lam])
        )
        assert diff < 1e-12


def test_weight_decompose_empty(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    zero = tf.GridSectionField(xs[:3], 8, np.zeros((3, 8), dtype=complex))
    assert tf.weight_decompose(zero) == {}


def test_weight_decompose_aliasing(model2, sample_points):
    _, g0, phi = model2
    xs, _ = sample_points
    s = tf.WeightSection((1,), g0, phi)
    field = tf.evaluate_on_grid([s], xs[:3], 8)
    with pytest.raises(AliasingError):
        tf.weight_decompose(field, expected=[(0,), (8,)])
    one_point = tf.evaluate_on_grid([s], xs[:3], 1)
    with pytest.raises(AliasingError):
        tf.weight_decompose(one_point, expected=[(0,), (1,)])


# -- frame holomorphicity ----------------------------------------------------------------


@pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
def test_frame_holomorphicity(model2, rng, t):
    _, g0, phi = model2
    pts = tf.sample_interior(g0.polytope, 15, rng, margin=0.25)
    resid = tf.frame_holomorphicity_residual(g0, phi, t, pts, spacing=1e-3)
    assert resid < 1e-8
