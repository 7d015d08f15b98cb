import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad

import toricflow as tf
from conftest import integrate
from toricflow.cli import FRAME_TOL
from toricflow.config import load_config
from toricflow.errors import (
    DomainError,
    QuadratureOverflow,
    QuadratureStagnation,
)
from toricflow import sections
from toricflow.flow import flowed_potentials
from toricflow.quadrature import integrate_many
from toricflow.sections import _laplace_integrand, _peak_width, gluing_points

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
    return tf.sample_interior(poly, 20, rng, margin=0.1)


# -- flow routes -----------------------------------------------------------------


@pytest.mark.parametrize("weight", [(1.7,), (0.9999999,)])
def test_weight_section_rejects_non_lattice_weight(model2, weight):
    _, g0, phi = model2
    with pytest.raises(DomainError, match="not a lattice point"):
        tf.WeightSection(weight, g0, phi)


def test_flow_section_multiplier(model2):
    _, g0, phi = model2
    s0 = tf.WeightSection((0,), g0, phi)
    x = np.array([0.5])
    flowed = tf.WeightSection(s0.weight, s0.g0, s0.phi, s0.t + 1.0)
    ratio = np.exp(s0.amplitude_log(x) - flowed.amplitude_log(x))
    assert ratio == pytest.approx(np.exp(-0.125))


def test_pullback_route_weight_zero_trivial(model2, sample_points):
    _, g0, phi = model2
    xs = sample_points
    s0 = tf.WeightSection((0,), g0, phi)
    assert tf.route_equality_residual(s0, [2.0], xs)[0] < 1e-12


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
    # e^{-(rho_t - rho_0)/2}, each rho by the Legendre expression 2 (x . grad g - g)
    rho_t = 2.0 * (x @ (g0.grad(x) + t * phi.grad(x)) - (g0.value(x) + t * phi.value(x)))
    rho_0 = 2.0 * (x @ g0.grad(x) - g0.value(x))
    frame_ratio = np.exp(-0.5 * (rho_t - rho_0))
    assert frame_ratio == pytest.approx(np.exp(-0.125))
    f1 = tf.concentration_rate(phi, [1.0], x)
    assert f1 == pytest.approx(-0.375)
    assert pullback_factor * frame_ratio == pytest.approx(np.exp(-t * f1))


def test_route_equality_random_simplex(cp2_size2, phi_aniso, rng):
    g0 = tf.SymplecticPotential(cp2_size2)
    xs = tf.sample_interior(cp2_size2, 15, rng, margin=0.05)
    for lam in [(0, 0), (1, 1), (2, 0)]:
        s0 = tf.WeightSection(lam, g0, phi_aniso)
        assert tf.route_equality_residual(s0, (0.5, 2.0, 10.0), xs).max() < 1e-12


def test_pullback_route_semigroup(model2, sample_points):
    # advancing the pullback amplitude by the multiplier matches the pullback
    # at the summed time
    _, g0, phi = model2
    xs = sample_points
    s = tf.WeightSection((1,), g0, phi)
    direct = tf.pullback_amplitude_log(s, 2.3, xs)
    staged = tf.pullback_amplitude_log(s, 0.7, xs) + 1.6 * tf.concentration_rate(
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
        a, b = point
        c = 2 - a - b
        exact = (2 * np.pi) ** 2 * 2 ** (a + b + c + 2) * math.factorial(a) * math.factorial(
            b
        ) * math.factorial(c) / math.factorial(a + b + c + 2)
        norm = tf.section_norm_sq(tf.WeightSection(point, g0, phi), spec)
        assert norm == pytest.approx(exact, rel=1e-12, abs=0)


def _density(s, x):
    # the pointwise squared h-norm e^{-2 A_{lam,t}}: the one-column Laplace
    # kernel of s, times its peak
    kernel, (log_peak,) = _laplace_integrand(s.phi, [s.lam], [s.t], s.g0)
    return kernel(np.asarray(x, dtype=float).reshape(-1, s.g0.dimension))[:, 0] * np.exp(log_peak)


def test_norm_against_dblquad_cp2(cp2_model):
    poly, g0, phi, spec = cp2_model
    s = tf.WeightSection((1, 1), g0, phi, 10.0)
    oracle, _ = dblquad(
        lambda y, x: float(_density(s, np.array([[x, y]]))[0]),
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


def test_norm_underflow_raises(cp2_model, monkeypatch):
    # at t = 1e11 the cones from weight (0, 0), graded down to the peak
    # width, resolve its density; one that underflows on every node has
    # norm 0, and that must not read as a log norm
    _, g0, phi, spec = cp2_model
    sections = [tf.WeightSection((0, 0), g0, phi, t) for t in (0.5, 1e11)]
    assert np.isfinite(tf.section_log_norms_sq(sections, spec)).all()
    original = _laplace_integrand

    def underflowing(*args, **kwargs):
        kernel, log_peaks = original(*args, **kwargs)
        return (lambda x: kernel(x) * [1.0, 0.0]), log_peaks

    monkeypatch.setattr("toricflow.sections._laplace_integrand", underflowing)
    with pytest.raises(QuadratureOverflow, match="density mass 0.0 at t = 1e\\+11: .* column 1"):
        tf.section_log_norms_sq(sections, spec)


def test_norm_beyond_float_range_raises(model2):
    # the norm is about e^800 at t = 800: the quadrature must not return nan
    _, g0, phi = model2
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureOverflow):
            tf.section_norm_sq(tf.WeightSection((1,), g0, phi, 800.0))


def test_density_extends_to_boundary(model2):
    _, g0, phi = model2
    s1 = tf.WeightSection((1,), g0, phi)
    edge = _density(s1, np.array([[0.0], [2.0], [1.0]]))
    # e^{-2F} = x (2 - x): vanishes at both ends for the interior weight
    assert edge[0] == pytest.approx(0.0)
    assert edge[1] == pytest.approx(0.0)
    assert edge[2] == pytest.approx(1.0)
    s0 = tf.WeightSection((0,), g0, phi)
    # e^{-2F} = (2 - x)^2: bounded, nonzero at its own vertex
    assert _density(s0, np.array([0.0])) == pytest.approx(4.0)


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


@pytest.fixture(scope="module")
def triangle3():
    # the benchmark's converge model: the size-3 triangle, phi = diag(2, 4)
    g0 = tf.SymplecticPotential(tf.standard_simplex(2, 3.0))
    spec = tf.QuadratureSpec(resolution=32, rel_tol=1e-4, max_refinements=2)
    return g0, tf.QuadraticPotential(np.diag([2.0, 4.0])), spec


def test_log_norms_match_unshifted_reference(triangle3):
    # near the float range the peak shift must not change the norm
    g0, phi, spec = triangle3
    sections = [tf.WeightSection((1, 1), g0, phi, t) for t in (80.0, 110.0)]
    for s, log_norm in zip(sections, tf.section_log_norms_sq(sections, spec)):
        ref = integrate(lambda x: _reference_density(s, x), g0.polytope, spec,
                        _peak(sections, s)).value
        assert log_norm == pytest.approx(np.log((2 * np.pi) ** 2 * ref), rel=1e-13, abs=0)


def test_log_norms_finite_beyond_float_range(triangle3):
    # e^{-2 A} peaks at e^{2 g_t(lam)}, beyond the float range from t = 120
    g0, phi, spec = triangle3
    sections = [tf.WeightSection((1, 1), g0, phi, t) for t in (120.0, 640.0)]
    log_norms = tf.section_log_norms_sq(sections, spec)
    assert np.isfinite(log_norms).all()
    assert log_norms.min() > np.log(np.finfo(float).max)


def _peak(sections, s):
    # the cones a batch integrates the weight of s on: from that weight,
    # graded down to the peak width at its largest time in the batch
    t = max(other.t for other in sections if other.weight == s.weight)
    return tuple(s.lam), _peak_width(s.phi, s.lam, t, 2.0)


def _assert_batch_matches_reference(sections, spec):
    poly = sections[0].polytope
    volume = (2 * np.pi) ** poly.dimension
    norms = np.exp(tf.section_log_norms_sq(sections, spec))
    pts = poly.grid_cells(spec.resolution).points
    for s, norm in zip(sections, norms):
        np.testing.assert_allclose(_density(s, pts), _reference_density(s, pts), rtol=1e-13, atol=0)
        ref = volume * integrate(lambda x: _reference_density(s, x), poly, spec, _peak(sections, s)).value
        assert norm == pytest.approx(ref, rel=1e-13, abs=0)
        # alone, the cones are graded down to the section's own peak width
        assert norm == pytest.approx(tf.section_norm_sq(s, spec), rel=spec.rel_tol, abs=0)


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
    # on one grid, the columns at t = 0.5 meet the tolerance at level 0, and
    # those at t = 2 and t = 10 refine once and twice: the batch must equal
    # one separate integration per column
    poly, g0, phi = model2
    spec = tf.QuadratureSpec(resolution=16)
    sections = [tf.WeightSection((lam,), g0, phi, t) for lam in (0, 1, 2) for t in (0.5, 2.0, 10.0)]
    kernel = _section_kernel(sections)
    batch = integrate_many(kernel, len(sections), poly, spec, group=1)
    for j, s in enumerate(sections):
        points = []

        def column(x, j=j):
            points.append(len(x))
            return kernel(x)[:, [j]]

        assert batch[j] == integrate_many(column, 1, poly, spec)[0]
        levels = {0.5: 2, 2.0: 3, 10.0: 4}[s.t]
        assert sum(points) == sum(8 * 2**i for i in range(levels))
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


def test_batch_stagnating_column_raises(model2, monkeypatch):
    # column 1's density, at t = 0.5 wide across the uniform panels, times an
    # oscillation far finer than any node spacing: its estimate never
    # settles, and the batch names the column
    _, g0, phi = model2
    spec = tf.QuadratureSpec(resolution=16, rel_tol=1e-10, max_refinements=5)
    sections = [tf.WeightSection((1,), g0, phi, t) for t in (400.0, 0.5)]
    original = _laplace_integrand

    def oscillating(*args, **kwargs):
        kernel, log_peaks = original(*args, **kwargs)

        def noisy(x):
            out = kernel(x)
            out[:, 1] *= 1.0 + 0.5 * np.sin(1e7 * x[:, 0])
            return out

        return noisy, log_peaks

    monkeypatch.setattr("toricflow.sections._laplace_integrand", oscillating)
    with pytest.raises(QuadratureStagnation, match="column 1"):
        tf.section_log_norms_sq(sections, spec)


def test_batch_overflow_names_column(model2):
    # the norm at t = 800 is about e^800: the batch's logs are finite, and
    # the norm of that section alone, as a value, is refused with its name
    _, g0, phi = model2
    sections = [tf.WeightSection((1,), g0, phi, t) for t in (2.0, 800.0)]
    log_norms = tf.section_log_norms_sq(sections)
    assert np.isfinite(log_norms).all()
    assert tf.section_norm_sq(sections[0]) == pytest.approx(np.exp(log_norms[0]), rel=1e-13, abs=0)
    with pytest.raises(QuadratureOverflow, match=r"norm inf of weight \(1,\) at t = 800"):
        tf.section_norm_sq(sections[1])


def test_batch_rejects_mixed_models(model2):
    _, g0, phi = model2
    other = tf.QuadraticPotential([[2.0]])
    sections = [tf.WeightSection((1,), g0, phi), tf.WeightSection((1,), g0, other)]
    with pytest.raises(ValueError, match="share one g0 and one phi"):
        tf.section_log_norms_sq(sections)


def _section_kernel(sections):
    # the section columns of the one Laplace kernel
    g0, phi = sections[0].g0, sections[0].phi
    return _laplace_integrand(phi, [s.lam for s in sections], [s.t for s in sections], g0)[0]


def _column_stack_kernel(sections):
    # reference: the section kernel as a list of feature arrays, joined by
    # `column_stack`, one product and `exp`, with the same log-peak shift
    # 2 g_t(lam); `_section_kernel` must match it bit for bit
    g0, phi = sections[0].g0, sections[0].phi
    poly = g0.polytope
    lams = np.array([s.lam for s in sections])
    ts = np.array([s.t for s in sections])
    llam = poly.facet_values(lams)
    rows = [llam.T, -np.ones_like(ts), -2.0 * ts, 2.0 * ts * lams.T]
    log_peaks = (llam * np.log(np.where(llam > 0.0, llam, 1.0))).sum(axis=1)
    log_peaks += 2.0 * (ts * phi.value(lams))
    if g0.extra is not None:
        rows += [np.full_like(ts, -2.0), 2.0 * lams.T]
        log_peaks += 2.0 * g0.extra.value(lams)
    coeffs = np.vstack(rows)
    const = llam.sum(axis=1) - log_peaks

    def affine_features(pot, x):
        grad = pot.grad(x)
        return [np.einsum("ij,ij->i", x, grad) - pot.value(x), grad]

    def kernel(x):
        lx = np.maximum(poly.facet_values(x), 0.0)
        feats = [np.log(np.maximum(lx, 1e-300)), lx.sum(axis=1)]
        feats += affine_features(phi, x)
        if g0.extra is not None:
            feats += affine_features(g0.extra, x)
        return np.exp(np.column_stack(feats) @ coeffs + const)

    return kernel


def _kernel_cases():
    exp = load_config(CP2_CONFIG).validate()
    yield [tf.WeightSection(lam, exp.g0, exp.phi, t) for lam in exp.weights for t in exp.section_t]
    poly = tf.standard_simplex(2, 2.0)
    g0 = tf.SymplecticPotential(poly, extra=tf.QuadraticPotential([[0.6, 0.2], [0.2, 0.4]]))
    phi = tf.QuadraticPotential([[2.0, 0.0], [0.0, 4.0]])
    yield [tf.WeightSection(lam, g0, phi, t) for lam in ((0, 0), (1, 1), (2, 0)) for t in (0.0, 3.0)]
    g0 = tf.SymplecticPotential(tf.segment(2.0))
    phi = tf.QuadraticPotential([[1.0]])
    yield [tf.WeightSection((lam,), g0, phi, t) for lam in (0, 1, 2) for t in (0.5, 2.0, 10.0)]


@pytest.mark.parametrize("case", range(3), ids=["cp2-config", "cp2-extra", "segment"])
def test_density_kernel_is_bit_identical_to_column_stack_form(case):
    sections = list(_kernel_cases())[case]
    poly = sections[0].polytope
    # a full block, an odd block, and the vertices, where log l_k hits _TINY
    for x in (poly.grid_cells(48).points, poly.grid_cells(5).points[:37], poly.vertices()):
        x = np.ascontiguousarray(x, dtype=float)
        assert np.array_equal(_section_kernel(sections)(x), _column_stack_kernel(sections)(x))


def _counting(pot, counts):
    # pot behind a CallablePotential that counts each method's calls
    def method(name):
        def call(x):
            counts[name] += 1
            return getattr(pot, name)(x)

        return call

    return tf.CallablePotential(pot.dimension, method("value"), method("grad"), method("hess"))


def test_density_kernel_calls_each_potential_once_per_block(cp2_size2):
    phi_counts = dict.fromkeys(("value", "grad", "hess"), 0)
    extra_counts = dict(phi_counts)
    g0 = tf.SymplecticPotential(
        cp2_size2, extra=_counting(tf.QuadraticPotential([[0.6, 0.2], [0.2, 0.4]]), extra_counts)
    )
    phi = _counting(tf.QuadraticPotential([[2.0, 0.0], [0.0, 4.0]]), phi_counts)
    kernel = _section_kernel([tf.WeightSection(lam, g0, phi, 1.0) for lam in ((0, 0), (1, 1))])
    # building the kernel evaluates each value once, at the weights, for the log-peaks
    assert phi_counts["value"] == extra_counts["value"] == 1
    phi_counts.update(value=0)
    extra_counts.update(value=0)
    blocks = []

    def counted_kernel(x):
        blocks.append(len(x))
        return kernel(x)

    spec = tf.QuadratureSpec(resolution=128, rel_tol=1e-6, max_refinements=1)
    integrate_many(counted_kernel, 2, cp2_size2, spec, group=1)
    assert len(blocks) > 2
    expected = {"value": len(blocks), "grad": len(blocks), "hess": 0}
    assert phi_counts == expected
    assert extra_counts == expected


# -- gluing -----------------------------------------------------------------------


@pytest.mark.parametrize("lam", [(0,), (1,), (2,)])
@pytest.mark.parametrize("t", [1.0, 3.0])
def test_gluing_residual(model2, lam, t):
    _, g0, phi = model2
    assert tf.gluing_check_cp1(tf.WeightSection(lam, g0, phi), [t])[0] < 1e-10


def test_gluing_time_zero_unit_segment():
    poly = tf.segment(1.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    assert tf.gluing_check_cp1(tf.WeightSection((0,), g0, phi), [0.0])[0] < 1e-12


def test_gluing_corrupted_transition_flagged(model2):
    _, g0, phi = model2
    assert tf.gluing_check_cp1(tf.WeightSection((1,), g0, phi), [3.0], corrupt=True)[0] > 0.1


def test_gluing_needs_integer_segment():
    poly = tf.DelzantPolytope([tf.Facet((1,), 0.0), tf.Facet((-1,), 1.5)])
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    with pytest.raises(DomainError):
        tf.gluing_check_cp1(tf.WeightSection((1,), g0, phi), [1.0])


@pytest.mark.parametrize("lam", [(0,), (1,), (2,)])
def test_checks_with_extra_potential(sample_points, lam):
    # g_0 with a smooth part that is not symmetric under x -> 2 - x: chart V
    # of the gluing must reflect it.  At lam = 1 an unreflected chart V
    # cancels, so the off-centre weights are the ones that can fail.
    g0 = tf.SymplecticPotential(tf.segment(2.0), extra=tf.QuadraticPotential([[0.3]], b=[0.1]))
    phi = tf.QuadraticPotential([[1.0]])
    xs = sample_points
    s0 = tf.WeightSection(lam, g0, phi)
    ts = (0.0, 1.0, 3.0)
    assert tf.route_equality_residual(s0, ts, xs).max() < 1e-12
    assert tf.gluing_check_cp1(s0, ts).max() < 1e-10
    for _, rho, rho_leg in flowed_potentials(g0, phi, ts, xs):
        assert np.max(np.abs(rho - rho_leg)) < 1e-12
    assert tf.frame_holomorphicity_residual(g0, phi, 1.0, xs[:5]) < 1e-8


# -- bundle lift ---------------------------------------------------------------------


def test_lift_consistency(model2, sample_points):
    _, g0, phi = model2
    xs = sample_points
    for lam in [(0,), (1,)]:
        s0 = tf.WeightSection(lam, g0, phi)
        resids = tf.lift_section_consistency(s0, (0.0, 0.5, 2.0), xs)
        assert resids[0] < 1e-14 and resids.max() < 1e-10


# -- the t-grid checks against their per-t references ---------------------------------


def _route_reference(s0, t, xs):
    """The route-equality residual at one time, from the two routes' amplitudes."""
    flowed = tf.WeightSection(s0.weight, s0.g0, s0.phi, s0.t + t)
    diff = flowed.amplitude_log(xs) - tf.pullback_amplitude_log(s0, t, xs)
    return float(np.max(np.abs(np.expm1(diff))))


def _gluing_reference(s, t, corrupt):
    """The gluing residual at one time, from the two charts' log amplitudes."""
    a = int(round(s.polytope.vertices()[-1, 0]))
    x = gluing_points(s.polytope)[..., None]
    theta = (2.0 * np.pi * np.arange(8) / 8).reshape(1, -1, 1)
    center = (float(a),)
    extra_v = None if s.g0.extra is None else tf.ReflectedPotential(s.g0.extra, center)
    s_v = tf.WeightSection((a - s.weight[0],), tf.SymplecticPotential(s.polytope, extra_v),
                           tf.ReflectedPotential(s.phi, center), t)
    s_u = tf.WeightSection(s.weight, s.g0, s.phi, s.t + t)
    u_chart = -s_u.amplitude_log(x) + 1j * (theta @ s_u.lam)
    v_chart = -s_v.amplitude_log(a - x) + 1j * (-theta @ s_v.lam)
    transition = (-1.0 if corrupt else 1.0) * 1j * a * theta[..., 0]
    return float(np.max(np.abs(np.expm1(v_chart + transition - u_chart))))


def _lift_reference(s0, t, xs):
    """The lift residual at one time, from the two sides' logs."""
    lam, g0, phi = s0.lam, s0.g0, s0.phi
    fiber_scale_log = -t * tf.concentration_rate(phi, np.zeros(len(lam)), xs)
    lhs = (g0.grad(xs) + t * phi.grad(xs)) @ lam + fiber_scale_log
    rhs = g0.grad(xs) @ lam - t * tf.concentration_rate(phi, lam, xs)
    return float(np.max(np.abs(np.expm1(lhs - rhs))))


T_GRID = (0.0, 0.5, 2.0, 10.0, 20.0)
CHECK_CONFIGS = {name: Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
                 for name in ("cp1_size2", "cp2_size2")}


@pytest.fixture(scope="module", params=list(CHECK_CONFIGS))
def check_model(request):
    exp = load_config(CHECK_CONFIGS[request.param]).validate()
    rng = np.random.default_rng(3)
    return exp, tf.sample_interior(exp.poly, 20, rng, margin=0.1)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_route_equality_grid_is_bit_equal_to_per_t(check_model):
    exp, xs = check_model
    for lam in exp.poly.lattice_points():
        s0 = tf.WeightSection(lam, exp.g0, exp.phi)
        expected = [_route_reference(s0, t, xs) for t in T_GRID]
        assert _bits(tf.route_equality_residual(s0, T_GRID, xs)) == _bits(expected)


def test_lift_grid_is_bit_equal_to_per_t(check_model):
    exp, xs = check_model
    for lam in exp.poly.lattice_points():
        s0 = tf.WeightSection(lam, exp.g0, exp.phi)
        expected = [_lift_reference(s0, t, xs) for t in T_GRID]
        assert _bits(tf.lift_section_consistency(s0, T_GRID, xs)) == _bits(expected)


@pytest.mark.parametrize("extra", [None, tf.QuadraticPotential([[0.3]], b=[0.1])])
@pytest.mark.parametrize("corrupt", [False, True])
def test_gluing_grid_is_bit_equal_to_per_t(extra, corrupt):
    exp = load_config(CHECK_CONFIGS["cp1_size2"]).validate()
    g0 = tf.SymplecticPotential(exp.poly, extra)
    for lam in exp.poly.lattice_points():
        s = tf.WeightSection(lam, g0, exp.phi)
        expected = [_gluing_reference(s, t, corrupt) for t in T_GRID]
        assert _bits(tf.gluing_check_cp1(s, T_GRID, corrupt)) == _bits(expected)


def test_t_grid_checks_refuse_a_negative_time(check_model):
    exp, xs = check_model
    checks = [lambda s, ts: tf.route_equality_residual(s, ts, xs),
              lambda s, ts: tf.lift_section_consistency(s, ts, xs)]
    if exp.poly.dimension == 1:
        checks.append(tf.gluing_check_cp1)
    s0 = tf.WeightSection(exp.poly.lattice_points()[0], exp.g0, exp.phi)
    for check in checks:
        assert check(s0, []).shape == (0,)
        with pytest.raises(ValueError, match="nonnegative"):
            check(s0, [1.0, -0.5])
        with pytest.raises(ValueError, match="time-zero section"):
            check(tf.WeightSection(s0.weight, s0.g0, s0.phi, s0.t + 1.0), [1.0])


# -- frame holomorphicity ----------------------------------------------------------------


@pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
def test_frame_holomorphicity(model2, rng, t):
    _, g0, phi = model2
    pts = tf.sample_interior(g0.polytope, 15, rng, margin=0.25)
    resid = tf.frame_holomorphicity_residual(g0, phi, t, pts)
    assert resid < 1e-8


def _pointwise_frame_residual(g0, phi, t, points):
    # reference: the frame check as a per-point loop, one Legendre
    # evaluation per point and per stencil point
    def frame(x):
        # e^{-rho_t/2}, rho_t = 2 (x . grad g_t - g_t)
        g_t, dg_t = g0.value(x) + t * phi.value(x), g0.grad(x) + t * phi.grad(x)
        return np.exp(-0.5 * (2.0 * (np.einsum("...i,...i->...", x, dg_t) - g_t)))

    n = points.shape[1]
    h = 1e-3
    worst = 0.0
    for x in points:
        u0 = frame(x)
        Ginv = np.linalg.inv(g0.hess(x) + t * phi.hess(x))
        grad_fd = np.zeros(n)
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            vals = [frame(x + m * e) for m in (-2, -1, 1, 2)]
            grad_fd[k] = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        coeff = 0.5 * (Ginv @ grad_fd) + 0.5 * x * u0
        worst = max(worst, float(np.max(np.abs(coeff)) / u0))
    return worst


def _frame_points(poly, seed, count=10):
    # the points section-flow samples for its frame check
    _, radius = poly.chebyshev_center()
    return tf.sample_interior(poly, count, np.random.default_rng(seed), margin=0.5 * radius)


@pytest.mark.parametrize("config", ["cp1_unit", "cp1_size2", "cp2_size2"])
def test_frame_residual_is_bit_identical_to_pointwise_loop(config):
    exp = load_config(CP2_CONFIG.parent / f"{config}.cfg").validate()
    for seed in range(4):
        pts = _frame_points(exp.poly, seed)
        for t in (0.0, 0.5, 1.0):
            batched = tf.frame_holomorphicity_residual(exp.g0, exp.phi, t, pts)
            assert batched == _pointwise_frame_residual(exp.g0, exp.phi, t, pts)


class _ScaledGradient(tf.SymplecticPotential):
    """g_0 whose gradient is planted 10% too large."""

    def grad(self, x):
        return 1.1 * super().grad(x)


@pytest.mark.parametrize("plant", ["phi.hess", "g0.grad"])
def test_frame_check_catches_planted_defect(plant):
    # negative control: the batched check must still see a wrong Hessian of
    # phi (the direction field) or a wrong gradient of g_0 (rho_t itself)
    exp = load_config(CP2_CONFIG).validate()
    g0, phi = exp.g0, exp.phi
    pts = _frame_points(exp.poly, 0)
    assert tf.frame_holomorphicity_residual(g0, phi, 1.0, pts) < FRAME_TOL
    if plant == "phi.hess":
        phi = tf.CallablePotential(2, phi.value, phi.grad, lambda x, hess=phi.hess: 1.1 * hess(x))
    else:
        g0 = _ScaledGradient(exp.poly)
    assert tf.frame_holomorphicity_residual(g0, phi, 1.0, pts) > FRAME_TOL


def test_frame_check_makes_two_legendre_calls(cp2_size2, monkeypatch):
    g0, phi = tf.SymplecticPotential(cp2_size2), tf.QuadraticPotential(np.diag([2.0, 4.0]))
    original = sections._legendre_rho
    calls = []

    def counted(x, *args):
        calls.append(np.shape(x))
        return original(x, *args)

    monkeypatch.setattr(sections, "_legendre_rho", counted)
    for count in (1, 10, 40):
        calls.clear()
        tf.frame_holomorphicity_residual(g0, phi, 1.0, _frame_points(cp2_size2, 3, count))
        assert sorted(calls) == [(count, 2), (count, 2, 4, 2)]
