from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import norm

import toricflow as tf
from toricflow.config import load_config, parse_t_grid
from toricflow.convergence import _density_moments
from toricflow.errors import FiberDegenerationError, QuadratureOverflow

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def model2():
    poly = tf.segment(2.0)
    return poly, tf.SymplecticPotential(poly), tf.QuadraticPotential([[1.0]])


@pytest.fixture(scope="module")
def spec():
    return tf.QuadratureSpec(resolution=256)


# -- normalization constant ----------------------------------------------------


def test_Ct_uniform_at_time_zero(spec):
    poly = tf.segment(1.0)
    phi = tf.QuadraticPotential([[1.0]])
    C0 = tf.normalization_Ct(np.array([0.5]), phi, poly, 0.0, spec)
    assert C0 == pytest.approx(1.0 / (2 * np.pi))


def test_Ct_matches_laplace_asymptotic(spec):
    # int_0^1 e^{-t f_{1/2}} ~ e^{t/8} sqrt(2 pi / t): within 3% at t = 200
    poly = tf.segment(1.0)
    phi = tf.QuadraticPotential([[1.0]])
    C = tf.normalization_Ct(np.array([0.5]), phi, poly, 200.0, spec)
    asym = 1.0 / (2 * np.pi * np.exp(200.0 / 8.0) * np.sqrt(2 * np.pi / 200.0))
    assert abs(C - asym) / asym < 0.03


def test_log_Ct_inverse_minus_drift_decreasing(model2, spec):
    # log C_t^{-1} - t phi(lam) ~ -log(t)/2 + const for large t
    poly, _, phi = model2
    lam = np.array([1.0])
    vals = []
    for t in (10.0, 20.0, 40.0, 80.0):
        C = tf.normalization_Ct(lam, phi, poly, t, spec)
        vals.append(-np.log(C) - t * phi.value(lam))
    assert (np.diff(vals) < 0).all()


def _truncated_gaussian_Ct(t):
    # phi = x^2/2 on [0, 2], lam = 1: e^{-t f_lam} = e^{t/2} e^{-t (x-1)^2 / 2}
    return 1.0 / (2 * np.pi * np.exp(t / 2) * np.sqrt(2 * np.pi / t) * erf(np.sqrt(t / 2)))


@pytest.mark.parametrize("t", [10.0, 320.0, 1280.0])
def test_Ct_matches_truncated_gaussian(model2, spec, t):
    # t phi(lam) = 640 at t = 1280: the peak rescale must not overflow
    poly, _, phi = model2
    C = tf.normalization_Ct(np.array([1.0]), phi, poly, t, spec)
    assert np.isfinite(C)
    assert C == pytest.approx(_truncated_gaussian_Ct(t), rel=1e-5, abs=0.0)


def test_Ct_meets_spec_tolerance_at_large_t(model2, spec):
    poly, _, phi = model2
    C = tf.normalization_Ct(np.array([1.0]), phi, poly, 1280.0, spec)
    assert C == pytest.approx(_truncated_gaussian_Ct(1280.0), rel=spec.rel_tol, abs=0.0)


def test_Ct_and_pairing_beyond_float_range_raise(model2, spec):
    # t phi(lam) = 1280 at t = 2560: e^{t phi(lam)} overflows, so C_t would
    # underflow to 0 and the pairing become 0 * inf
    poly, g0, phi = model2
    with pytest.raises(QuadratureOverflow):
        tf.normalization_Ct(np.array([1.0]), phi, poly, 2560.0, spec)
    s = tf.WeightSection((1,), g0, phi, 2560.0)
    with pytest.raises(QuadratureOverflow):
        tf.pairing_iota(s, tf.BumpProfile((1.0,), 0.9, 1.0), 0.0, spec)


# -- pairings ------------------------------------------------------------------


def test_pairing_matches_quad_oracle_at_large_t(model2, spec):
    # e^{-t f_lam} is proportional to e^{-t (x-1)^2 / 2}; quad integrates
    # the ratio independently of the midpoint grid
    poly, g0, phi = model2
    bump = tf.BumpProfile((1.0,), 0.9, 1.0)
    ts = [640.0, 1280.0]
    report = tf.convergence_experiment(np.array([1.0]), phi, g0, [bump], ts, spec)
    opts = dict(points=[1.0], epsabs=0.0, epsrel=1e-13, limit=200)
    for t, pairing in zip(ts, report.bumps[0].pairings):
        gauss = lambda x: np.exp(-t * (x - 1.0) ** 2 / 2.0)
        weighted = lambda x: gauss(x) * bump(np.array([x]))
        exact = quad(weighted, 0.0, 2.0, **opts)[0] / quad(gauss, 0.0, 2.0, **opts)[0]
        assert pairing == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_pairing_uniform_average_at_time_zero(model2, spec):
    poly, g0, phi = model2
    bump = tf.BumpProfile((1.2,), 0.5, 0.8)
    s0 = tf.WeightSection((1,), g0, phi, 0.0)
    C0 = tf.normalization_Ct(s0.lam, phi, poly, 0.0, spec)
    value = tf.pairing_iota(s0, bump, C0, spec)
    integral, _ = tf.integrate(bump, poly, spec)
    assert value == pytest.approx(integral / 2.0, rel=1e-8)


def test_pairing_plateau_bump_tends_to_height(model2, spec):
    # H identically 1 on a neighborhood of the peak: exponentially small error
    poly, g0, phi = model2
    bump = tf.BumpProfile((1.0,), 0.8, 1.0, plateau=0.5)
    s = tf.WeightSection((1,), g0, phi, 200.0)
    C = tf.normalization_Ct(s.lam, phi, poly, 200.0, spec)
    assert tf.pairing_iota(s, bump, C, spec) == pytest.approx(1.0, abs=1e-6)


def test_pairing_disjoint_bump_vanishes(model2, spec):
    poly, g0, phi = model2
    bump = tf.BumpProfile((1.7,), 0.25, 1.0)
    s = tf.WeightSection((1,), g0, phi, 320.0)
    C = tf.normalization_Ct(s.lam, phi, poly, 320.0, spec)
    assert abs(tf.pairing_iota(s, bump, C, spec)) < 1e-6


def test_Ct_route_matches_experiment_ratio(model2, spec):
    # the library route C_t kappa^n int e^{-t f} H against the experiment's
    # moment ratio int e^{-t f} H / int e^{-t f}, on the cp1_size2 bumps
    poly, g0, phi = model2
    bumps = [
        tf.BumpProfile((1.0,), 0.9, 1.0),
        tf.BumpProfile((1.2,), 0.75, 0.7),
        tf.BumpProfile((0.9,), 0.85, 1.2),
        tf.BumpProfile((1.7,), 0.25, 1.0),
    ]
    ts = [10.0, 20.0, 40.0, 80.0]
    report = tf.convergence_experiment(np.array([1.0]), phi, g0, bumps, ts, spec)
    # the fiber pairing is H(lam); the bump centered at lam = 1 gives its height
    for j, bump in enumerate(bumps):
        assert report.bumps[j].fiber_value == bump(np.array([1.0]))
    assert report.bumps[0].fiber_value == 1.0
    for k, t in enumerate(ts):
        s = tf.WeightSection((1,), g0, phi, t)
        C = tf.normalization_Ct(s.lam, phi, poly, t, spec)
        for j, bump in enumerate(bumps):
            expected = report.bumps[j].pairings[k]
            assert tf.pairing_iota(s, bump, C, spec) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_fiber_weight_modes_and_constancy():
    # the paper-form weight is the torus volume (2 pi)^n at every interior point
    paper = tf.FiberMeasureModel("paper-form")
    normalized = tf.FiberMeasureModel("normalized")
    for poly in (tf.segment(4.0), tf.standard_simplex(2, 3.0)):
        lams = [np.array(p, dtype=float) for p in poly.lattice_points() if poly.is_interior(p)]
        assert lams
        for lam in lams:
            assert paper.fiber_weight(poly, lam) == (2 * np.pi) ** poly.dimension
            assert normalized.fiber_weight(poly, lam) == 1.0


# -- concentration statistics -----------------------------------------------------


def test_concentration_large_time(spec):
    poly = tf.segment(1.0)
    phi = tf.QuadraticPotential([[1.0]])
    lam = np.array([0.5])
    s100 = tf.concentration_profile(lam, phi, poly, 100.0, spec)
    assert abs(s100.mean[0] - 0.5) < 1e-3
    s400 = tf.concentration_profile(lam, phi, poly, 400.0, spec)
    assert abs(400.0 * s400.covariance_matrix[0, 0] - 1.0) < 0.05
    assert s400.localized_mass >= 0.999
    assert s400.radius == pytest.approx(5.0 / np.sqrt(400.0))


def test_concentration_past_grid_resolution_raises():
    # at t = 1e10 the peak is far narrower than a cell, so the density
    # underflows to 0 on every cell and the mass cannot normalize anything
    phi = tf.QuadraticPotential([[1.0]])
    with pytest.raises(QuadratureOverflow, match=r"density mass 0.0 at t = 1e\+10: "):
        tf.concentration_profile(np.array([1.0]), phi, tf.segment(2.0), 1e10)


def test_concentration_uniform_at_time_zero(model2, spec):
    poly, _, phi = model2
    stats = tf.concentration_profile(np.array([1.0]), phi, poly, 0.0, spec)
    # the centroid of [0, 2]
    assert stats.mean[0] == pytest.approx(1.0, abs=1e-9)


def _truncated_normal_variance(sigma2, half_width):
    a = half_width / np.sqrt(sigma2)
    return sigma2 * (1.0 - 2.0 * a * norm.pdf(a) / (2.0 * norm.cdf(a) - 1.0))


def test_concentration_box_matches_truncated_normal(phi_aniso):
    # on a box the Gaussian e^{-t f_lam} factors into truncated normals on
    # [0, 2] around lam = 1 with variances 1 / (t Q_ii), and C_t into erfs
    poly = tf.box([2.0, 2.0])
    spec2 = tf.QuadratureSpec(resolution=32, rel_tol=1e-4, max_refinements=2)
    lam = np.array([1.0, 1.0])
    q = np.diag(phi_aniso.hess(lam))
    for t in (20.0, 40.0, 80.0):
        cov = tf.concentration_profile(lam, phi_aniso, poly, t, spec2).covariance_matrix
        exact = [_truncated_normal_variance(1.0 / (t * qi), 1.0) for qi in q]
        assert np.diag(cov) == pytest.approx(exact, rel=5e-6, abs=0.0)
        gauss = np.prod([np.sqrt(2 * np.pi / (t * qi)) * erf(np.sqrt(t * qi / 2)) for qi in q])
        exact_Ct = 1.0 / ((2 * np.pi) ** 2 * np.exp(t * phi_aniso.value(lam)) * gauss)
        C = tf.normalization_Ct(lam, phi_aniso, poly, t, spec2)
        assert C == pytest.approx(exact_Ct, rel=1e-10, abs=0.0)
    # t phi(lam) = 960: the moment ratios must not overflow
    cov = tf.concentration_profile(lam, phi_aniso, poly, 320.0, spec2).covariance_matrix
    assert np.isfinite(cov).all()


def test_concentration_2d_covariance(phi_aniso):
    poly = tf.standard_simplex(2, 2.0)
    spec2 = tf.QuadratureSpec(resolution=64, rel_tol=1e-6, max_refinements=2)
    lam = np.array([0.5, 0.5])
    stats = tf.concentration_profile(lam, phi_aniso, poly, 400.0, spec2)
    cov_t = 400.0 * stats.covariance_matrix
    target = np.linalg.inv(phi_aniso.hess(lam))
    assert np.max(np.abs(cov_t - target)) < 0.05 * np.max(np.abs(target))
    assert np.allclose(stats.mean, lam, atol=1e-3)


def test_concentration_3d_covariance():
    poly = tf.standard_simplex(3, 4.0)
    phi = tf.QuadraticPotential(np.diag([2.0, 3.0, 4.0]))
    spec = tf.QuadratureSpec(resolution=8, rel_tol=1e-6, max_refinements=1)
    stats = tf.concentration_profile(np.ones(3), phi, poly, 20.0, spec)
    cov_t = 20.0 * np.diag(stats.covariance_matrix)
    assert np.max(np.abs(cov_t - [0.5, 1.0 / 3.0, 0.25])) < 2e-3


# -- the experiment ------------------------------------------------------------------


def test_convergence_experiment_gates(model2, spec):
    poly, g0, phi = model2
    bumps = [
        tf.BumpProfile((1.0,), 0.9, 1.0),
        tf.BumpProfile((1.2,), 0.75, 0.7),
        tf.BumpProfile((0.9,), 0.85, 1.2),
        tf.BumpProfile((1.7,), 0.25, 1.0),
    ]
    report = tf.convergence_experiment(
        np.array([1.0]), phi, g0, bumps, [10, 20, 40, 80, 160, 320], spec
    )
    assert report.passed
    for b in report.bumps[:3]:
        assert b.overlaps_center
        assert b.final_error < 1e-2
        assert -1.15 <= b.slope <= -0.85
        assert b.error_decreasing
    control = report.bumps[3]
    assert not control.overlaps_center
    assert control.slope is None
    assert control.final_error < 1e-6
    d = report.to_dict()
    assert d["pass"] and len(d["bumps"]) == 4


def test_convergence_experiment_past_float_range(model2, spec):
    # t phi(lam) = 5120 at t = 10240: e^{t phi(lam)} overflows, the ratios must not
    poly, g0, phi = model2
    bumps = [tf.BumpProfile((1.0,), 0.9, 1.0), tf.BumpProfile((1.7,), 0.25, 1.0)]
    ts = 10.0 * 2.0 ** np.arange(11)
    report = tf.convergence_experiment(np.array([1.0]), phi, g0, bumps, ts, spec)
    assert report.passed
    assert np.isfinite(report.bumps[0].pairings).all()
    assert -1.15 <= report.bumps[0].slope <= -0.85


def test_convergence_requires_interior_weight(model2, spec):
    poly, g0, phi = model2
    with pytest.raises(FiberDegenerationError):
        tf.convergence_experiment(
            np.array([0.0]), phi, g0, [tf.BumpProfile((1.0,), 0.5, 1.0)], [1.0, 2.0], spec
        )


def test_batched_pairings_match_per_t_moments():
    # cp1_size2's large-t grid: t = 10 refines twice and every later t stops
    # at the first level; the one-pass pairings equal the per-t ratios
    exp = load_config(REPO / "configs" / "cp1_size2.cfg").validate()
    lam = np.asarray(exp.lam, dtype=float)
    ts = parse_t_grid("10:1280:2")
    report = tf.convergence_experiment(lam, exp.phi, exp.g0, exp.bumps, ts, exp.spec, exp.mode)
    levels = []
    for i, t in enumerate(ts):
        sizes = []

        def first_bump(p, sizes=sizes):
            sizes.append(len(p))
            return exp.bumps[0](p)

        fs = [first_bump, *exp.bumps[1:]]
        moments, _ = _density_moments(fs, exp.poly, exp.phi, lam, [t], exp.spec)
        levels.append(len(sizes))
        assert [b.pairings[i] for b in report.bumps] == list(moments[0, 1:] / moments[0, 0])
    assert levels == [4] + [2] * (len(ts) - 1)
