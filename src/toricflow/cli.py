"""Experiment runner: parse a config, dispatch pipelines, write CSV/JSON.

Subcommands: validate, potential-flow, section-flow, polarization, gluing,
lift, converge, report.  Exit codes: 0 all checks pass, 1 configuration or
validation error, 2 numerical failure (tolerance breach).  Outputs are
deterministic: fixed float formatting, sorted keys, seeded sampling with the
seed recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import convergence as conv
from .config import ExperimentConfig, load_config
from .errors import ConfigError, FiberDegenerationError, ToricFlowError
from .flow import (
    KahlerFlowState,
    SymplecticPotential,
    complex_structure,
    fit_loglog_slope,
    polarization_angle,
)
from .polytopes import sample_interior
from .potentials import check_strict_convexity
from .sections import (
    WeightSection,
    frame_holomorphicity_residual,
    gluing_check_cp1,
    lift_section_consistency,
    route_equality_residual,
    section_norms_sq,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

ROUTE_TOL = 1e-12
GLUING_TOL = 1e-10
LIFT_TOL = 1e-10
POTENTIAL_TOL = 1e-10
SLOPE_BAND = (-1.1, -0.9)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    def cell(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return str(bool(v))
        if isinstance(v, (int, float, np.floating, np.integer)):
            return _fmt(v)
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sample_margin(poly) -> float:
    _, radius = poly.chebyshev_center()
    return 0.25 * radius


def _model(cfg: ExperimentConfig, poly):
    return SymplecticPotential(poly), cfg.build_phi(poly.dimension)


# -- subcommands ----------------------------------------------------------------


def cmd_validate(cfg: ExperimentConfig, poly, out: Path, args) -> int:
    phi = cfg.build_phi(poly.dimension)
    report = check_strict_convexity(phi, poly.grid_cells(32).points)
    issues = [] if report.ok else [
        f"phi is not strictly convex (min eig {report.min_eigenvalue:.3e} "
        f"at {list(report.witness)})"
    ]
    _write_json(
        out / "validation.json",
        {
            "polytope": poly.name,
            "valid": True,
            "issues": issues,
            "phi_strictly_convex": report.ok,
            "phi_min_hessian_eigenvalue": report.min_eigenvalue,
        },
    )
    print(f"validate: {'OK' if report.ok else 'FAIL'} ({poly.name or 'polytope'})")
    for issue in issues:
        print(f"  - {issue}")
    return EXIT_OK if report.ok else EXIT_CONFIG


def cmd_potential_flow(cfg: ExperimentConfig, poly, out: Path, args) -> int:
    g0, phi = _model(cfg, poly)
    ts = cfg.t_grid("flow.t_grid", default=[0.0, 0.5, 1.0, 5.0, 20.0])
    count = cfg._int("flow.sample_points", 20)
    rng = np.random.default_rng(args.seed)
    pts = sample_interior(poly, count, rng, margin=_sample_margin(poly))
    tol = POTENTIAL_TOL * args.tol_scale

    rows = []
    worst = 0.0
    for t in ts:
        state = KahlerFlowState(g0, phi, t)
        g_vals = state.potential(pts)
        rho_formula = state.kahler_potential(pts)
        rho_leg = state.kahler_potential_legendre(pts)
        resid = np.abs(rho_formula - rho_leg)
        worst = max(worst, float(resid.max()))
        for i, x in enumerate(pts):
            rows.append(
                [t, *x, g_vals[i], rho_formula[i], rho_leg[i], resid[i]]
            )
    header = (
        ["t"]
        + [f"x{i+1}" for i in range(poly.dimension)]
        + ["g_t", "rho_t", "rho_t_legendre", "residual"]
    )
    _write_csv(out / "potential_flow.csv", header, rows)
    passed = worst < tol
    _write_json(
        out / "potential_flow.json",
        {
            "max_residual": worst,
            "tolerance": tol,
            "pass": passed,
            "seed": args.seed,
            "points": count,
            "t_grid": list(ts),
        },
    )
    print(f"potential-flow: max duality residual {worst:.3e} (tol {tol:.1e}) "
          f"{'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_section_flow(cfg: ExperimentConfig, poly, out: Path, args) -> int:
    g0, phi = _model(cfg, poly)
    lams = cfg.section_lambdas() or [p.coords for p in poly.lattice_points()]
    ts = cfg.t_grid("section.t", default=[0.5, 2.0, 10.0])
    rng = np.random.default_rng(args.seed)
    pts = sample_interior(poly, 40, rng, margin=_sample_margin(poly))
    thetas = rng.random((40, poly.dimension)) * 2.0 * np.pi
    spec = cfg.quad_spec()

    rows = []
    pairs = []
    failures = 0
    for lam in lams:
        s0 = WeightSection(lam, g0, phi, 0.0)
        for t in ts:
            resid = route_equality_residual(s0, t, pts, thetas)
            tol = ROUTE_TOL * args.tol_scale
            ok = resid < tol
            failures += 0 if ok else 1
            rows.append(["route-equality", " ".join(map(str, lam)), t, resid, tol, ok])
            pairs.append((lam, t))
        if poly.dimension == 1:
            for t in ts:
                check = gluing_check_cp1(s0, t, corrupt=args.corrupt_transition)
                tol = GLUING_TOL * args.tol_scale
                ok = check.residual < tol
                failures += 0 if ok else 1
                rows.append(["gluing", " ".join(map(str, lam)), t, check.residual, tol, ok])

    norms = section_norms_sq([WeightSection(lam, g0, phi, t) for lam, t in pairs], spec)
    norm_rows = [[" ".join(map(str, lam)), t, norm] for (lam, t), norm in zip(pairs, norms)]

    # the FD truncation error scales like (grad rho_t / 2)^5 h^4, so this
    # check runs at moderate time and away from the boundary
    t_frame = min(1.0, ts[-1])
    _, radius = poly.chebyshev_center()
    frame_pts = sample_interior(poly, 10, rng, margin=0.5 * radius)
    frame_resid = frame_holomorphicity_residual(g0, phi, t_frame, frame_pts)
    frame_tol = cfg.gauge_tolerance() * args.tol_scale
    ok = frame_resid < frame_tol
    failures += 0 if ok else 1
    rows.append(["frame-holomorphicity", "-", t_frame, frame_resid, frame_tol, ok])

    _write_csv(
        out / "section_flow.csv",
        ["check", "lambda", "t", "residual", "tolerance", "pass"],
        rows,
    )
    _write_csv(out / "section_norms.csv", ["lambda", "t", "norm_sq"], norm_rows)
    passed = failures == 0
    _write_json(
        out / "section_flow.json",
        {"pass": passed, "failures": failures, "checks": len(rows), "seed": args.seed},
    )
    print(f"section-flow: {len(rows)} checks, {failures} failures "
          f"{'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_polarization(cfg: ExperimentConfig, poly, out: Path, args) -> int:
    g0, phi = _model(cfg, poly)
    default_grid = [float(t) for t in np.geomspace(10, 1000, 11)]
    ts = cfg.t_grid("flow.t_grid", default=default_grid)
    ts = [t for t in ts if t > 0]
    # the log-log fit needs a late-time decade; fall back when the flow grid
    # is a short potential-identity grid
    grid_source = "flow.t_grid"
    if len(ts) < 4 or max(ts) < 100 or max(ts) / min(ts) < 10:
        ts = default_grid
        grid_source = "default 10..1000 (flow.t_grid unsuitable for a decay fit)"
    count = cfg._int("flow.sample_points", 20)
    rng = np.random.default_rng(args.seed)
    pts = sample_interior(poly, count, rng, margin=_sample_margin(poly))

    angles = np.empty((len(ts), len(pts)))
    j_resid = 0.0
    positive = True
    for k, t in enumerate(ts):
        state = KahlerFlowState(g0, phi, t)
        angles[k] = polarization_angle(state, pts)
        # the metric diag(G_t, G_t^{-1}) is positive exactly when G_t is
        positive = positive and bool(np.linalg.eigvalsh(state.metric_hessian(pts)).min() > 0)
        J = complex_structure(state, pts)
        j_resid = max(j_resid, float(np.max(np.abs(J @ J + np.eye(2 * poly.dimension)))))
    slopes = fit_loglog_slope(ts, angles).tolist()
    rows = [
        [t, *x, a, slope]
        for x, column, slope in zip(pts, angles.T, slopes)
        for t, a in zip(ts, column)
    ]
    _write_csv(
        out / "polarization.csv",
        ["t"] + [f"x{i+1}" for i in range(poly.dimension)] + ["angle", "slope_window"],
        rows,
    )
    slope_ok = all(SLOPE_BAND[0] <= s <= SLOPE_BAND[1] for s in slopes)
    j_ok = j_resid < 1e-12 * args.tol_scale
    passed = slope_ok and j_ok and positive
    _write_json(
        out / "polarization.json",
        {
            "pass": passed,
            "slopes": slopes,
            "slope_band": list(SLOPE_BAND),
            "max_J_squared_residual": j_resid,
            "metric_positive": positive,
            "t_grid": list(ts),
            "t_grid_source": grid_source,
            "seed": args.seed,
        },
    )
    print(f"polarization: slopes in [{min(slopes):.3f}, {max(slopes):.3f}], "
          f"J^2 residual {j_resid:.2e} {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_gluing(cfg: ExperimentConfig, poly, out: Path, args) -> int:
    g0, phi = _model(cfg, poly)
    if poly.dimension != 1:
        print("gluing: the two-chart model needs a one-dimensional polytope")
        return EXIT_CONFIG
    lams = cfg.section_lambdas() or [p.coords for p in poly.lattice_points()]
    ts = cfg.t_grid("section.t", default=[1.0, 3.0])
    rows = []
    failures = 0
    for lam in lams:
        s0 = WeightSection(lam, g0, phi, 0.0)
        for t in ts:
            check = gluing_check_cp1(s0, t, corrupt=args.corrupt_transition)
            tol = GLUING_TOL * args.tol_scale
            ok = check.residual < tol
            failures += 0 if ok else 1
            rows.append(["gluing", " ".join(map(str, lam)), t, check.residual, tol, ok])
    _write_csv(
        out / "gluing.csv", ["check", "lambda", "t", "residual", "tolerance", "pass"], rows
    )
    passed = failures == 0
    _write_json(out / "gluing.json", {"pass": passed, "failures": failures})
    print(f"gluing: {len(rows)} checks, {failures} failures {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_lift(cfg: ExperimentConfig, poly, out: Path, args) -> int:
    g0, phi = _model(cfg, poly)
    lams = cfg.section_lambdas() or [p.coords for p in poly.lattice_points()]
    ts = cfg.t_grid("section.t", default=[0.5, 2.0])
    rng = np.random.default_rng(args.seed)
    pts = sample_interior(poly, 20, rng, margin=_sample_margin(poly))
    thetas = rng.random((20, poly.dimension)) * 2.0 * np.pi
    zetas = np.exp(1j * rng.random(20) * 2.0 * np.pi)
    rows = []
    failures = 0
    for lam in lams:
        s0 = WeightSection(lam, g0, phi, 0.0)
        for t in ts:
            check = lift_section_consistency(s0, t, pts, thetas, zetas)
            tol = LIFT_TOL * args.tol_scale
            ok = check.residual < tol
            failures += 0 if ok else 1
            rows.append(["lift", " ".join(map(str, lam)), t, check.residual, tol, ok])
    _write_csv(
        out / "lift.csv", ["check", "lambda", "t", "residual", "tolerance", "pass"], rows
    )
    passed = failures == 0
    _write_json(out / "lift.json", {"pass": passed, "failures": failures, "seed": args.seed})
    print(f"lift: {len(rows)} checks, {failures} failures {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_converge(cfg: ExperimentConfig, poly, out: Path, args) -> int:
    g0, phi = _model(cfg, poly)
    lam = cfg.experiment_lambda()
    lam_arr = np.asarray(lam, dtype=float)
    if not poly.contains(lam_arr).inside:
        print(f"converge: lambda {lam} lies outside the moment polytope")
        return EXIT_CONFIG
    if not poly.is_interior(lam_arr):
        print(
            f"converge: lambda {lam} lies on the polytope boundary; the fiber "
            "degenerates there.  Convergence requires a regular integral value "
            "of the moment map (lambda in t*_{Z,reg}, i.e. interior to P)."
        )
        return EXIT_CONFIG
    bumps = cfg.experiment_bumps()
    ts = cfg.t_grid("experiment.t_grid", default=[10, 20, 40, 80, 160, 320])
    mode = cfg.experiment_mode()
    spec = cfg.quad_spec()

    report = conv.convergence_experiment(
        lam_arr, phi, g0, bumps, ts, spec, mode,
        final_error_tol=conv.FINAL_ERROR_TOL * args.tol_scale,
        threads=max(1, args.threads),
    )
    rows = []
    for b in report.bumps:
        for t, pairing, err in zip(report.t_grid, b.pairings, b.abs_errors):
            rows.append(
                [" ".join(map(str, lam)), b.bump_id, t, pairing, b.fiber_value, err]
            )
    _write_csv(
        out / "convergence.csv",
        ["lambda", "bump_id", "t", "pairing", "fiber_value", "abs_error"],
        rows,
    )
    payload = report.to_dict()
    payload["slope"] = [b.slope for b in report.bumps]
    payload["final_error"] = max(b.final_error for b in report.bumps)
    payload["threads"] = args.threads
    payload["seed"] = args.seed
    _write_json(out / "report.json", payload)
    print(
        f"converge: lambda={lam} final errors "
        + ", ".join(f"{b.final_error:.2e}" for b in report.bumps)
        + f" {'PASS' if report.passed else 'FAIL'}"
    )
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_report(cfg: ExperimentConfig, poly, out: Path, args) -> int:
    merged = {}
    ok = True
    for path in sorted(out.glob("*.json")):
        if path.name == "summary.json":
            continue
        with open(path, "r", encoding="utf-8") as fh:
            content = json.load(fh)
        merged[path.name] = content
        verdict = content.get("pass", content.get("valid"))
        if verdict is not None:
            ok = ok and bool(verdict)
            print(f"{path.name:28s} {'PASS' if verdict else 'FAIL'}")
    _write_json(out / "summary.json", {"pass": ok, "reports": merged})
    print(f"report: overall {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERICAL


_COMMANDS = {
    "validate": cmd_validate,
    "potential-flow": cmd_potential_flow,
    "section-flow": cmd_section_flow,
    "polarization": cmd_polarization,
    "gluing": cmd_gluing,
    "lift": cmd_lift,
    "converge": cmd_converge,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricflow",
        description="Run toric Kahler flow experiments from a config file.",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0,
                        help="sample-point selection seed (recorded in outputs)")
    parser.add_argument("--tol-scale", type=float, default=1.0, dest="tol_scale")
    parser.add_argument("--corrupt-transition", action="store_true",
                        dest="corrupt_transition",
                        help="test hook: flip the two-chart transition sign")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = load_config(args.config)
        poly = cfg.validate()
    except (ConfigError, OSError, ToricFlowError) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.subcommand](cfg, poly, out, args)
    except (ConfigError, FiberDegenerationError) as exc:
        print(f"error: {exc}")
        return EXIT_CONFIG
    except ToricFlowError as exc:
        print(f"numerical failure: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
