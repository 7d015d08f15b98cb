"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line, at the stated tolerances.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from pathlib import Path

import numpy as np
import pytest

import toricflow as tf
from toricflow.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
SEED = 20260810


def _report(number: int, title: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {number:2d}: {title}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {number}: {title} {detail}"


def _models():
    cp1 = tf.segment(2.0)
    cp2 = tf.standard_simplex(2, 2.0)
    return (
        (cp1, tf.SymplecticPotential(cp1), [
            tf.QuadraticPotential([[1.0]]),
            tf.QuadraticPotential([[2.0]], b=[0.3]),
        ]),
        (cp2, tf.SymplecticPotential(cp2), [
            tf.QuadraticPotential(np.eye(2)),
            tf.QuadraticPotential([[2.0, 0.0], [0.0, 4.0]]),
        ]),
    )


def test_criterion_01_potential_flow_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for poly, g0, phis in _models():
        pts = tf.sample_interior(poly, 200, rng, margin=1e-3)
        for phi in phis:
            for t in (0.0, 0.5, 1.0, 5.0, 20.0):
                state = tf.KahlerFlowState(g0, phi, t)
                worst = max(worst, float(state.duality_residual(pts).max()))
    _report(1, "potential-flow identity residual < 1e-10", worst < 1e-10,
            f"max residual {worst:.2e}")


def test_criterion_02_frame_holomorphicity():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for poly in (tf.segment(1.0), tf.standard_simplex(2, 1.0)):
        g0 = tf.SymplecticPotential(poly)
        phi = tf.QuadraticPotential(np.eye(poly.dimension))
        pts = tf.sample_interior(poly, 25, rng, margin=0.12)
        for t in (0.0, 1.0, 5.0):
            worst = max(worst, tf.frame_holomorphicity_residual(g0, phi, t, pts))
    _report(2, "frame holomorphicity FD residual < 1e-8 (spacing 1e-3)",
            worst < 1e-8, f"max residual {worst:.2e}")


def test_criterion_03_route_equality():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for poly, g0, phis in _models():
        xs = tf.sample_interior(poly, 30, rng, margin=0.05)
        for lam in poly.lattice_points():
            s0 = tf.WeightSection(lam, g0, phis[-1])
            worst = max(worst, *tf.route_equality_residual(s0, (0.5, 2.0, 10.0), xs))
    _report(3, "multiplier vs pullback route agreement < 1e-12 relative",
            worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_04_norm_oracle():
    from scipy.special import beta

    poly = tf.segment(1.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    worst = 0.0
    for lam in (0, 1):
        norm = tf.section_norm_sq(tf.WeightSection((lam,), g0, phi))
        oracle = 2 * np.pi * beta(lam + 1, 2 - lam)
        worst = max(worst, abs(norm - oracle) / oracle)
    _report(4, "norm oracle 2*pi*B(lam+1, 2-lam) within relative 1e-6",
            worst < 1e-6, f"max relative error {worst:.2e}")


def test_criterion_05_equivariance_and_weights():
    rng = np.random.default_rng(SEED + 3)
    poly = tf.segment(2.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    xs = tf.sample_interior(poly, 8, rng, margin=0.1)
    kostant_worst = 0.0
    for lam in poly.lattice_points():
        s = tf.WeightSection(lam, g0, phi)
        for xi in (np.array([1.0]), np.array([2.0])):
            check = tf.kostant_operator(xi, s, xs)
            kostant_worst = max(kostant_worst, check.residual)
    ok_kostant = kostant_worst < 1e-10

    t = 2.0
    s0 = tf.WeightSection((0,), g0, phi)
    s1 = tf.WeightSection((1,), g0, phi)
    flowed = tf.weight_decompose(
        tf.evaluate_on_grid([tf.flow_section(s0, t), tf.flow_section(s1, t)], xs, 8)
    )
    commuted = tf.flow_components(
        tf.weight_decompose(tf.evaluate_on_grid([s0, s1], xs, 8)), xs, phi, t
    )
    commute_worst = max(
        float(np.max(np.abs(flowed[k] - commuted[k]))) for k in ((0,), (1,))
    )
    ok_commute = commute_worst < 1e-12
    _report(5, "Kostant eigenvalue < 1e-10 and flow-equivariant weights",
            ok_kostant and ok_commute,
            f"kostant {kostant_worst:.2e}, commute {commute_worst:.2e}")


def test_criterion_06_gluing():
    poly = tf.segment(2.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    worst = 0.0
    for lam in ((0,), (1,), (2,)):
        worst = max(worst, *tf.gluing_check_cp1(tf.WeightSection(lam, g0, phi), (1.0, 3.0)))
    control = tf.gluing_check_cp1(tf.WeightSection((1,), g0, phi), [3.0], corrupt=True)[0]
    ok = worst < 1e-10 and control > 0.1
    _report(6, "two-chart gluing < 1e-10 with corrupted-transition control",
            ok, f"max residual {worst:.2e}, control {control:.2f}")


def test_criterion_07_bundle_lift():
    rng = np.random.default_rng(SEED + 4)
    poly = tf.segment(2.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    xs = tf.sample_interior(poly, 20, rng, margin=0.05)
    thetas = rng.random((20, 1)) * 2 * np.pi
    zetas = np.exp(1j * rng.random(20) * 2 * np.pi)
    worst = 0.0
    for lam in ((0,), (1,), (2,)):
        s0 = tf.WeightSection(lam, g0, phi)
        worst = max(worst, *tf.lift_section_consistency(s0, (0.5, 2.0), xs, thetas, zetas))
    _report(7, "bundle-lift consistency < 1e-10 at 20 random points",
            worst < 1e-10, f"max residual {worst:.2e}")


def test_criterion_08_concentration():
    poly = tf.segment(1.0)
    phi = tf.QuadraticPotential([[1.0]])
    spec = tf.QuadratureSpec(resolution=256)
    lam = np.array([0.5])
    s100 = tf.concentration_profile(lam, phi, poly, 100.0, spec)
    mean_err = abs(s100.mean[0] - 0.5)
    s400 = tf.concentration_profile(lam, phi, poly, 400.0, spec)
    cov_err = abs(400.0 * s400.covariance_matrix[0, 0] - 1.0)
    g0 = tf.SymplecticPotential(poly)
    (log_C,) = tf.convergence_experiment(lam, phi, g0, [], [200.0], spec).log_C_t
    log_asym = -np.log(2 * np.pi) - 200.0 / 8.0 - 0.5 * np.log(2 * np.pi / 200.0)
    laplace_err = abs(np.expm1(log_C - log_asym))
    ok = mean_err < 1e-3 and cov_err < 0.05 and laplace_err < 0.03
    _report(8, "concentration mean/covariance and C_t Laplace asymptotic",
            ok, f"mean {mean_err:.1e}, cov*t {cov_err:.1e}, C_t {laplace_err:.1e}")


def test_criterion_09_weak_convergence():
    poly = tf.segment(2.0)
    g0 = tf.SymplecticPotential(poly)
    phi = tf.QuadraticPotential([[1.0]])
    spec = tf.QuadratureSpec(resolution=256)
    bumps = [
        tf.BumpProfile((1.0,), 0.9, 1.0),
        tf.BumpProfile((1.2,), 0.75, 0.7),
        tf.BumpProfile((0.9,), 0.85, 1.2),
        tf.BumpProfile((1.7,), 0.25, 1.0),  # disjoint control
    ]
    report = tf.convergence_experiment(
        np.array([1.0]), phi, g0, bumps, [10, 20, 40, 80, 160, 320], spec
    )
    overlap = report.bumps[:3]
    ok_err = all(b.abs_errors[-1] < 1e-2 for b in overlap)
    ok_slope = all(-1.15 <= b.slope <= -0.85 for b in overlap)
    ok_control = report.bumps[3].abs_errors[-1] < 1e-6

    # the paper-form fiber weight is the torus volume (2 pi)^n at every
    # interior lattice point; the normalized mode gives unit mass
    interior = [
        (wpoly, np.array(p, dtype=float))
        for wpoly in (tf.segment(4.0), tf.standard_simplex(2, 3.0))
        for p in wpoly.lattice_points()
        if wpoly.is_interior(p)
    ]
    paper, normalized = tf.FiberMeasureModel("paper-form"), tf.FiberMeasureModel("normalized")
    ok_weights = len(interior) == 4 and all(
        paper.fiber_weight(wpoly, lam) == (2 * np.pi) ** wpoly.dimension
        and normalized.fiber_weight(wpoly, lam) == 1.0
        for wpoly, lam in interior
    )
    ok = ok_err and ok_slope and ok_control and ok_weights
    _report(9, "weak convergence to the fiber pairing with slope -1 +/- 0.15",
            ok,
            f"errors {[f'{b.abs_errors[-1]:.1e}' for b in overlap]}, "
            f"slopes {[f'{b.slope:.2f}' for b in overlap]}, fiber weights {ok_weights}")


def test_criterion_10_polarization_convergence():
    rng = np.random.default_rng(SEED + 5)
    ts = np.geomspace(10, 1000, 11)
    slopes = []
    j_worst = 0.0
    positive = True
    for poly, g0, phis in _models():
        phi = phis[-1]
        pts = tf.sample_interior(poly, 10, rng, margin=0.1)
        for x in pts:
            curve = tf.polarization_decay_curve(g0, phi, x, ts)
            slopes.append(curve.slope)
            for t in ts:
                state = tf.KahlerFlowState(g0, phi, t)
                J = tf.complex_structure(state, x)
                j_worst = max(
                    j_worst, float(np.max(np.abs(J @ J + np.eye(2 * poly.dimension))))
                )
                eigs = np.linalg.eigvalsh(tf.metric_matrix(state, x))
                positive = positive and bool(eigs.min() > 0)
    ok_slope = all(-1.1 <= s <= -0.9 for s in slopes)
    ok = ok_slope and j_worst < 1e-12 and positive
    _report(10, "polarization angle decay slope -1 +/- 0.1; J_t^2 = -Id; metric > 0",
            ok,
            f"slopes [{min(slopes):.3f}, {max(slopes):.3f}], J^2 {j_worst:.1e}, 20 points")


def test_criterion_11_determinism(tmp_path):
    cfg = str(REPO / "configs" / "cp1_size2.cfg")
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        for sub in ("potential-flow", "section-flow", "converge"):
            assert cli_main([sub, "--config", cfg, "--out", str(out)]) == 0
    identical = True
    for name in sorted(p.name for p in outs[0].iterdir()):
        identical = identical and (
            (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        )
    _report(11, "repeated runs produce byte-identical outputs", identical)
