from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import norm

import toricflow as tf
from toricflow import sections
from conftest import concentration_moments, fiber_weight, integrate, tail_indicator
from toricflow.config import load_config, parse_t_grid
from toricflow.errors import FiberDegenerationError, QuadratureOverflow, QuadratureStagnation
from toricflow.quadrature import integrate_many
from toricflow.sections import _laplace_integrand, _laplace_moments, _peak_width

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def model2():
    poly = tf.segment(2.0)
    return poly, tf.SymplecticPotential(poly), tf.QuadraticPotential([[1.0]])


@pytest.fixture(scope="module")
def spec():
    return tf.QuadratureSpec(resolution=256)


# -- normalization constant ----------------------------------------------------


def _log_C_t(lam, phi, poly, ts, spec):
    # report.json's log C_t of a `converge` run without bumps
    g0 = tf.SymplecticPotential(poly)
    report = tf.convergence_experiment(np.asarray(lam, dtype=float), phi, g0, [], ts, spec)
    return np.array(report.log_C_t)


def _pairings(lam, phi, poly, t, bumps, spec):
    # the pairings of `converge` at one time, t = 0 included: the moment
    # ratios of the one Laplace kernel
    _, ratios = _laplace_moments(poly, phi, [lam], [t], spec, fs=bumps)
    return ratios[0]


def test_Ct_uniform_at_time_zero(spec):
    poly = tf.segment(1.0)
    phi = tf.QuadraticPotential([[1.0]])
    (log_C0,) = _log_C_t([0.5], phi, poly, [0.0], spec)
    assert log_C0 == pytest.approx(-np.log(2 * np.pi), rel=0.0, abs=1e-12)


def test_Ct_matches_laplace_asymptotic(spec):
    # int_0^1 e^{-t f_{1/2}} ~ e^{t/8} sqrt(2 pi / t): within 3% at t = 200
    poly = tf.segment(1.0)
    phi = tf.QuadraticPotential([[1.0]])
    (log_C,) = _log_C_t([0.5], phi, poly, [200.0], spec)
    log_asym = -np.log(2 * np.pi) - 200.0 / 8.0 - 0.5 * np.log(2 * np.pi / 200.0)
    assert abs(np.expm1(log_C - log_asym)) < 0.03


def test_log_Ct_inverse_minus_drift_decreasing(model2, spec):
    # log C_t^{-1} - t phi(lam) ~ -log(t)/2 + const for large t
    poly, _, phi = model2
    lam = np.array([1.0])
    ts = np.array([10.0, 20.0, 40.0, 80.0])
    vals = -_log_C_t(lam, phi, poly, ts, spec) - ts * phi.value(lam)
    assert (np.diff(vals) < 0).all()


def _truncated_gaussian_log_Ct(t):
    # phi = x^2/2 on [0, 2], lam = 1: e^{-t f_lam} = e^{t/2} e^{-t (x-1)^2 / 2}
    return -(np.log(2 * np.pi) + t / 2 + 0.5 * np.log(2 * np.pi / t) + np.log(erf(np.sqrt(t / 2))))


@pytest.mark.parametrize("t", [10.0, 320.0, 1280.0, 2560.0, 1e4])
def test_Ct_matches_truncated_gaussian(model2, spec, t):
    # C_t itself underflows from t phi(lam) = 709 on; its log stays exact
    poly, _, phi = model2
    (log_C,) = _log_C_t([1.0], phi, poly, [t], spec)
    assert log_C == pytest.approx(_truncated_gaussian_log_Ct(t), rel=0.0, abs=1e-10)


def test_Ct_meets_spec_tolerance_at_large_t(model2, spec):
    poly, _, phi = model2
    (log_C,) = _log_C_t([1.0], phi, poly, [1280.0], spec)
    assert log_C == pytest.approx(_truncated_gaussian_log_Ct(1280.0), rel=0.0, abs=spec.rel_tol)


def test_log_Ct_and_pairing_finite_beyond_float_range(model2, spec):
    # t phi(lam) = 1280 at t = 2560: e^{t phi(lam)} and C_t are beyond the
    # float range, log C_t and the pairing ratio are not
    poly, g0, phi = model2
    bump = tf.BumpProfile((1.0,), 0.9, 1.0)
    report = tf.convergence_experiment(np.array([1.0]), phi, g0, [bump], [256.0, 2560.0], spec)
    assert np.isfinite(report.log_C_t).all()
    assert report.log_C_t[1] < np.log(np.finfo(float).tiny)
    assert np.isfinite(report.bumps[0].pairings).all()


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
    poly, _, phi = model2
    bump = tf.BumpProfile((1.2,), 0.5, 0.8)
    (value,) = _pairings([1.0], phi, poly, 0.0, [bump], spec)
    integral, _ = integrate(bump, poly, spec)
    assert value == pytest.approx(integral / 2.0, rel=1e-8)


def test_pairing_plateau_bump_tends_to_height(model2, spec):
    # H identically 1 on a neighborhood of the peak: exponentially small error
    poly, _, phi = model2
    bump = tf.BumpProfile((1.0,), 0.8, 1.0, plateau=0.5)
    assert _pairings([1.0], phi, poly, 200.0, [bump], spec)[0] == pytest.approx(1.0, abs=1e-6)


def test_pairing_disjoint_bump_vanishes(model2, spec):
    poly, _, phi = model2
    bump = tf.BumpProfile((1.7,), 0.25, 1.0)
    assert abs(_pairings([1.0], phi, poly, 320.0, [bump], spec)[0]) < 1e-6


# -- test profiles --------------------------------------------------------------


def _norm_bump(bump, x):
    """The bump as it was evaluated before its support was used: the norm and
    the polynomial on every row."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x - np.asarray(bump.center), axis=-1) / bump.radius
    if bump.plateau == 0.0:
        s = np.clip(r**2, 0.0, 1.0)
        return np.where(r < 1.0, bump.height * (1 - s) ** 3 * (1 + 2 * s), 0.0)
    u = np.clip((r - bump.plateau) / (1.0 - bump.plateau), 0.0, 1.0)
    taper = 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
    return bump.height * np.where(r < 1.0, taper, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("plateau", [0.0, 0.4])
@pytest.mark.parametrize("height", [1.3, -0.7])
def test_bump_matches_norm_reference_bit_for_bit(n, plateau, height):
    rng = np.random.default_rng(n)
    # the first block of a grid is column-major, as converge passes it
    grid = tf.standard_simplex(n, 3.0).grid_cells((1024, 32, 16)[n - 1])
    block, _ = next(grid.blocks(2**12))
    assert block.flags.f_contiguous and block.shape[0] > 1000
    exact = tf.BumpProfile((0.5, 0.75, 1.0)[:n], 0.5, height, plateau)
    bumps = [
        exact,
        tf.BumpProfile(rng.uniform(0.5, 1.0, n), 0.9, height, plateau),
        tf.BumpProfile(np.full(n, 40.0), 0.5, height, plateau),  # misses the block
    ]
    # rows at r = 1 of `exact` exactly, just inside it, and NaN rows
    edge = exact.center + 0.5 * np.eye(n)
    inside = np.nextafter(edge, np.asarray(exact.center))
    assert (_norm_bump(exact, edge) == 0).all() and (_norm_bump(exact, inside) != 0).any()
    nan = np.full((2, n), np.nan)
    nan[1, 0] = 0.5
    rows = np.vstack([block[:996], edge, inside, nan])
    inputs = [block, rows, np.asfortranarray(rows), rows.reshape(2, -1, n), *rows[-12:]]
    for bump in bumps:
        for x in inputs:
            got, want = bump(x), _norm_bump(bump, x)
            assert np.shape(got) == np.shape(want) == x.shape[:-1]
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.signbit(bumps[2](block)).all() == (height < 0 and plateau > 0)


def test_Ct_route_matches_experiment_ratio(model2, spec):
    # one kernel call per t against the experiment's one call for the whole
    # t grid, on the cp1_size2 bumps: log C_t and the pairings agree
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
        (log_C,) = _log_C_t([1.0], phi, poly, [t], spec)
        assert log_C == pytest.approx(report.log_C_t[k], rel=1e-12, abs=0.0)
        for j, pairing in enumerate(_pairings([1.0], phi, poly, t, bumps, spec)):
            expected = report.bumps[j].pairings[k]
            assert pairing == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_fiber_weight_modes_and_constancy():
    # the paper-form weight is the torus volume (2 pi)^n at every interior point
    for poly in (tf.segment(4.0), tf.standard_simplex(2, 3.0)):
        lams = [np.array(p, dtype=float) for p in poly.lattice_points() if poly.is_interior(p)]
        assert lams
        for lam in lams:
            assert fiber_weight(poly, lam, "paper-form") == (2 * np.pi) ** poly.dimension
            assert fiber_weight(poly, lam, "normalized") == 1.0
        with pytest.raises(ValueError, match="mode must be 'normalized' or 'paper-form'"):
            fiber_weight(poly, lams[0], "bogus")


# -- concentration statistics -----------------------------------------------------


def test_concentration_large_time(spec):
    poly = tf.segment(1.0)
    phi = tf.QuadraticPotential([[1.0]])
    lam = np.array([0.5])
    mean, _, _ = concentration_moments(lam, phi, poly, 100.0, spec)
    assert abs(mean[0] - 0.5) < 1e-3
    _, cov, tail_mass = concentration_moments(lam, phi, poly, 400.0, spec)
    assert abs(400.0 * cov[0, 0] - 1.0) < 0.05
    assert tail_mass >= 0.999


def test_concentration_past_grid_resolution_raises(monkeypatch):
    # at t = 1e10 the cones from lam, graded down to the peak width 1e-5,
    # resolve the peak, but the exponent t f_lam rounds at about t * 1e-16,
    # so the mass carries noise near 1e-7 of itself: at rel_tol 1e-8 the
    # call names the mass's column; at 1e-6 the variance is 1 / t to the
    # Laplace correction
    phi = tf.QuadraticPotential([[1.0]])
    with pytest.raises(QuadratureStagnation, match="column 0 "):
        concentration_moments(np.array([1.0]), phi, tf.segment(2.0), 1e10)
    spec = tf.QuadratureSpec(rel_tol=1e-6)
    _, cov, tail_mass = concentration_moments(np.array([1.0]), phi, tf.segment(2.0), 1e10, spec)
    assert abs(1e10 * cov[0, 0] - 1.0) < 1e-6 and tail_mass > 0.999
    # a density that underflows on every node has mass 0: it cannot
    # normalize anything, and the guard of _laplace_moments refuses it
    original = sections._laplace_integrand

    def underflowing(*args, **kwargs):
        kernel, log_peaks = original(*args, **kwargs)
        return (lambda x: 0.0 * kernel(x)), log_peaks

    monkeypatch.setattr(sections, "_laplace_integrand", underflowing)
    with pytest.raises(QuadratureOverflow, match=r"density mass 0.0 at t = 1e\+10: "):
        concentration_moments(np.array([1.0]), phi, tf.segment(2.0), 1e10, spec)


def test_unmet_moment_names_its_column():
    # at t = 1e4 the mass meets rel_tol 1e-8, but the indicator of the ball
    # of radius 5/sqrt(t), discontinuous where the density is e^-12.5 of its
    # peak, misses it at the finest rung: the failure names the indicator's
    # column, not the mass's (a group judged on its mass alone returned it)
    phi = tf.QuadraticPotential([[1.0]])
    lam = np.array([1.0])
    fs = [lambda p: p[:, 0] - 1.0, tail_indicator(lam, 1e4)]
    with pytest.raises(QuadratureStagnation, match="column 2 "):
        _laplace_moments(tf.segment(2.0), phi, [lam], [1e4], tf.QuadratureSpec(), fs=fs)


def test_concentration_uniform_at_time_zero(model2, spec):
    poly, _, phi = model2
    mean, _, _ = concentration_moments(np.array([1.0]), phi, poly, 0.0, spec)
    # the centroid of [0, 2]
    assert mean[0] == pytest.approx(1.0, abs=1e-9)


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
        _, cov, _ = concentration_moments(lam, phi_aniso, poly, t, spec2)
        exact = [_truncated_normal_variance(1.0 / (t * qi), 1.0) for qi in q]
        assert np.diag(cov) == pytest.approx(exact, rel=5e-6, abs=0.0)
    # C_t factors into erfs: the same times in one converge run
    log_C = _log_C_t(lam, phi_aniso, poly, [20.0, 40.0, 80.0], spec2)
    for t, value in zip((20.0, 40.0, 80.0), log_C):
        gauss = np.prod([np.sqrt(2 * np.pi / (t * qi)) * erf(np.sqrt(t * qi / 2)) for qi in q])
        exact = -(2 * np.log(2 * np.pi) + t * phi_aniso.value(lam) + np.log(gauss))
        assert value == pytest.approx(exact, rel=0.0, abs=1e-10)
    # t phi(lam) = 960: the moment ratios must not overflow
    _, cov, _ = concentration_moments(lam, phi_aniso, poly, 320.0, spec2)
    assert np.isfinite(cov).all()


def test_concentration_2d_covariance(phi_aniso):
    poly = tf.standard_simplex(2, 2.0)
    spec2 = tf.QuadratureSpec(resolution=64, rel_tol=1e-6, max_refinements=2)
    lam = np.array([0.5, 0.5])
    mean, cov, _ = concentration_moments(lam, phi_aniso, poly, 400.0, spec2)
    target = np.linalg.inv(phi_aniso.hess(lam))
    assert np.max(np.abs(400.0 * cov - target)) < 0.05 * np.max(np.abs(target))
    assert np.allclose(mean, lam, atol=1e-3)


def test_concentration_3d_covariance():
    poly = tf.standard_simplex(3, 4.0)
    phi = tf.QuadraticPotential(np.diag([2.0, 3.0, 4.0]))
    spec = tf.QuadratureSpec(resolution=8, rel_tol=1e-6, max_refinements=2)
    _, cov, _ = concentration_moments(np.ones(3), phi, poly, 20.0, spec)
    cov_t = 20.0 * np.diag(cov)
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
    rows = {row.check: row for row in report.checks}
    assert all(row.passed for row in rows.values())
    for b in report.bumps[:3]:
        assert b.overlaps_center
        assert b.abs_errors[-1] < 1e-2
        assert -1.15 <= b.slope <= -0.85
        assert rows[f"error-decreasing-bump{b.bump_id}"].passed
        assert rows[f"slope-bump{b.bump_id}"].residual == abs(b.slope + 1.0)
    control = report.bumps[3]
    assert not control.overlaps_center
    assert control.slope is None
    assert control.abs_errors[-1] < 1e-6
    # a disjoint bump has no slope, so no slope row and no NaN
    assert rows["final-error-bump3"].tolerance == 1e-6 and "slope-bump3" not in rows
    assert len(rows) == 3 * 3 + 2
    d = report.to_dict()
    assert len(d["bumps"]) == 4 and "pass" not in d


def test_convergence_experiment_past_float_range(model2, spec):
    # t phi(lam) = 5120 at t = 10240: e^{t phi(lam)} overflows, the ratios must not
    poly, g0, phi = model2
    bumps = [tf.BumpProfile((1.0,), 0.9, 1.0), tf.BumpProfile((1.7,), 0.25, 1.0)]
    ts = 10.0 * 2.0 ** np.arange(11)
    report = tf.convergence_experiment(np.array([1.0]), phi, g0, bumps, ts, spec)
    assert all(row.passed for row in report.checks)
    assert np.isfinite(report.bumps[0].pairings).all()
    assert -1.15 <= report.bumps[0].slope <= -0.85


def test_one_time_grid_judges_the_final_error():
    # one time has no step to fall by: the row judges errors[-1], not -inf
    report = tf.convergence_experiment(
        [1.0], tf.QuadraticPotential([[1.0]]), tf.SymplecticPotential(tf.segment(2.0)),
        [tf.BumpProfile((1.7,), 0.25, 1.0)], [20.0],
    )
    rows = {row.check: row for row in report.checks}
    assert all(np.isfinite(row.residual) for row in rows.values())
    falling = rows["error-decreasing-bump0"]
    assert falling.residual == report.bumps[0].abs_errors[-1] and not falling.passed


@pytest.mark.parametrize("residual", [np.nan, -np.inf, np.inf])
def test_a_non_finite_residual_fails(residual):
    row = tf.Check("any", None, None, residual, 1.0)
    assert not row.passed and row.to_dict()["pass"] is False


def test_convergence_rejects_negative_time(model2, spec):
    poly, g0, phi = model2
    bump = tf.BumpProfile((1.0,), 0.5, 1.0)
    with pytest.raises(ValueError, match="flow time must be nonnegative"):
        tf.convergence_experiment(np.array([1.0]), phi, g0, [bump], [-1.0, 10.0, 100.0], spec)


def test_convergence_requires_interior_weight(model2, spec):
    poly, g0, phi = model2
    with pytest.raises(FiberDegenerationError):
        tf.convergence_experiment(
            np.array([0.0]), phi, g0, [tf.BumpProfile((1.0,), 0.5, 1.0)], [1.0, 2.0], spec
        )


def test_batched_pairings_match_per_t_moments():
    # cp1_size2's large-t grid: each t's group, integrated alone from the
    # same full-width kernel output on the same cones, gives the one-pass
    # pairings bit for bit
    exp = load_config(REPO / "configs" / "cp1_size2.cfg").validate()
    lam = np.asarray(exp.lam, dtype=float)
    ts = parse_t_grid("10:1280:2")
    report = tf.convergence_experiment(lam, exp.phi, exp.g0, exp.bumps, ts, exp.spec, exp.mode)
    lams = np.broadcast_to(lam, (len(ts), len(lam)))
    kernel, _ = _laplace_integrand(exp.phi, lams, ts, fs=exp.bumps)
    width = 1 + len(exp.bumps)
    peak = (tuple(lam), _peak_width(exp.phi, lam, ts[-1], 1.0))
    points = []
    for i in range(len(ts)):
        sizes = []

        def group(p, i=i, sizes=sizes):
            sizes.append(len(p))
            return kernel(p)[:, i * width : (i + 1) * width]

        results = integrate_many(group, width, exp.poly, exp.spec, peak=peak)
        moments = np.array([r.value for r in results])
        points.append(sum(sizes))
        assert [b.pairings[i] for b in report.bumps] == list(moments[1:] / moments[0])
    # resolution 256 starts at the coarsest rung, 16 against 32 nodes; the
    # C^2 bumps' moments converge algebraically, so the wide densities of t
    # = 10 to 40 take every rung up to 256, t = 80 up to 128 (the moment of
    # the bump at 1.7), and the rest stop at the first
    assert exp.spec.resolution == 256
    rungs = np.cumsum([len(exp.poly.cone_cells(*peak, n)) for n in (16, 32, 64, 128, 256)])
    assert points == [rungs[4]] * 3 + [rungs[3]] + [rungs[1]] * 4
