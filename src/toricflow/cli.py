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
from .config import Experiment, load_config
from .errors import ConfigError, FiberDegenerationError, ToricFlowError
from .flow import (
    FIT_DECADE,
    complex_structure_of,
    fit_loglog_slope,
    fit_window,
    flowed_potentials,
    limit_angle,
    metric_hessians,
)
from .polytopes import sample_interior
from .potentials import _min_eigenvalues, check_strict_convexity
from .sections import (
    WeightSection,
    frame_holomorphicity_residual,
    gluing_check_cp1,
    gluing_points,
    lift_section_consistency,
    route_equality_residual,
    section_log_norms_sq,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

ROUTE_TOL = 1e-12
GLUING_TOL = 1e-10
LIFT_TOL = 1e-10
POTENTIAL_TOL = 1e-10
FRAME_TOL = 1e-8
J_SQUARED_TOL = 1e-12
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


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write a float64 table in `_write_csv`'s number format, one "%.17g"
    row format per row instead of one call per cell."""
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header), *(row % tuple(values) for values in table.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sample_margin(poly) -> float:
    _, radius = poly.chebyshev_center()
    return 0.25 * radius


def _weights(exp: Experiment):
    """The `section.lambda` weights, or every lattice point of P without them."""
    return exp.weights or exp.poly.lattice_points()


def _row(check: str, lam, t, residual, tol) -> list:
    """One `check,lambda,t,residual,tolerance,pass` row; lam=() prints '-'."""
    return [check, " ".join(map(str, lam)) or "-", t, residual, tol, residual < tol]


def _require_kahler(exp: Experiment, ts, pts) -> None:
    """Raise ToricFlowError (exit 2) unless G_t = Hess g_t is positive definite
    at every point and time a check evaluates; elsewhere J_t is not Kahler."""
    lows = _min_eigenvalues(metric_hessians(exp.g0, exp.phi, ts, pts))
    for t, low in zip(ts, lows):
        i = int(np.argmin(low))  # a NaN minimum is picked first
        if not low[i] > 0:
            raise ToricFlowError(f"G_t is not positive definite at t = {t:g}, "
                                 f"x = {pts[i].tolist()} (min eigenvalue {low[i]:.3e})")


def _gluing_rows(lam, s0: WeightSection, ts, args) -> list[list]:
    """The two-chart gluing rows of one weight, for section-flow and gluing."""
    resids = (gluing_check_cp1(s0, t, corrupt=args.corrupt_transition) for t in ts)
    return [_row("gluing", lam, t, resid, GLUING_TOL) for t, resid in zip(ts, resids)]


def _finish(command: str, out: Path, rows: list[list], **payload) -> int:
    """Write the rows to <command>.csv and the verdict to <command>.json,
    print the verdict line and return the exit code."""
    failures = sum(not row[-1] for row in rows)
    passed = failures == 0
    stem = command.replace("-", "_")
    _write_csv(out / f"{stem}.csv", ["check", "lambda", "t", "residual", "tolerance", "pass"], rows)
    _write_json(out / f"{stem}.json", {"pass": passed, "failures": failures, **payload})
    print(f"{command}: {len(rows)} checks, {failures} failures {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


# -- subcommands ----------------------------------------------------------------


def cmd_validate(exp: Experiment, out: Path, args) -> int:
    poly = exp.poly
    # block by block, keeping the first minimum that an argmin over the whole
    # grid would give (a NaN first), so no Hessian stack of the grid is held
    blocks = [check_strict_convexity(exp.phi, pts)
              for pts, _ in poly.grid_cells(32).blocks(2**14)]
    report = blocks[int(np.argmin([b.min_eigenvalue for b in blocks]))]
    issues = [] if report.ok else [
        f"phi is not strictly convex (min eig {report.min_eigenvalue:.3e} "
        f"at {list(report.witness)})"
    ]
    _write_json(
        out / "validation.json",
        {
            "polytope": poly.name,
            "valid": report.ok,
            "issues": issues,
            "phi_strictly_convex": report.ok,
            "phi_min_hessian_eigenvalue": report.min_eigenvalue,
        },
    )
    print(f"validate: {'OK' if report.ok else 'FAIL'} ({poly.name or 'polytope'})")
    for issue in issues:
        print(f"  - {issue}")
    return EXIT_OK if report.ok else EXIT_CONFIG


def cmd_potential_flow(exp: Experiment, out: Path, args) -> int:
    poly = exp.poly
    ts = exp.flow_t_grid or [0.0, 0.5, 1.0, 5.0, 20.0]
    rng = np.random.default_rng(args.seed)
    pts = sample_interior(poly, exp.sample_points, rng, margin=_sample_margin(poly))
    _require_kahler(exp, ts, pts)

    table = np.vstack([
        np.column_stack([np.full(len(pts), t), pts, g_t, rho, rho_leg, np.abs(rho - rho_leg)])
        for t, (g_t, rho, rho_leg) in zip(ts, flowed_potentials(exp.g0, exp.phi, ts, pts))
    ])
    # np.max, unlike Python's max, keeps a NaN residual, which then fails
    worst = float(np.max(table[:, -1]))
    header = (
        ["t"]
        + [f"x{i+1}" for i in range(poly.dimension)]
        + ["g_t", "rho_t", "rho_t_legendre", "residual"]
    )
    _write_table(out / "potential_flow.csv", header, table)
    passed = worst < POTENTIAL_TOL
    _write_json(
        out / "potential_flow.json",
        {
            "max_residual": worst,
            "tolerance": POTENTIAL_TOL,
            "pass": passed,
            "seed": args.seed,
            "points": exp.sample_points,
            "t_grid": list(ts),
        },
    )
    print(f"potential-flow: max duality residual {worst:.3e} (tol {POTENTIAL_TOL:.1e}) "
          f"{'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_section_flow(exp: Experiment, out: Path, args) -> int:
    poly, g0, phi = exp.poly, exp.g0, exp.phi
    ts = exp.section_t or [0.5, 2.0, 10.0]
    rng = np.random.default_rng(args.seed)
    pts = sample_interior(poly, 40, rng, margin=_sample_margin(poly))
    # the FD truncation error scales like (grad rho_t / 2)^5 h^4, so the
    # frame check runs at moderate time and away from the boundary
    t_frame = min(1.0, ts[-1])
    _, radius = poly.chebyshev_center()
    frame_pts = sample_interior(poly, 10, rng, margin=0.5 * radius)
    _require_kahler(exp, ts, pts)
    _require_kahler(exp, [t_frame], frame_pts)
    if poly.dimension == 1:
        _require_kahler(exp, ts, gluing_points(poly))

    rows = []
    pairs = []
    for lam in _weights(exp):
        s0 = WeightSection(lam, g0, phi, 0.0)
        for t in ts:
            resid = route_equality_residual(s0, t, pts)
            rows.append(_row("route-equality", lam, t, resid, ROUTE_TOL))
            pairs.append((lam, t))
        if poly.dimension == 1:
            rows += _gluing_rows(lam, s0, ts, args)

    sections = [WeightSection(lam, g0, phi, t) for lam, t in pairs]
    log_norms = section_log_norms_sq(sections, exp.spec)
    norm_rows = [[" ".join(map(str, lam)), t, v] for (lam, t), v in zip(pairs, log_norms)]

    frame_resid = frame_holomorphicity_residual(g0, phi, t_frame, frame_pts)
    rows.append(_row("frame-holomorphicity", (), t_frame, frame_resid, FRAME_TOL))

    _write_csv(out / "section_norms.csv", ["lambda", "t", "log_norm_sq"], norm_rows)
    return _finish("section-flow", out, rows, checks=len(rows), seed=args.seed)


def cmd_polarization(exp: Experiment, out: Path, args) -> int:
    poly = exp.poly
    default_grid = [float(t) for t in np.geomspace(10, 1000, 11)]
    ts = [t for t in exp.flow_t_grid or default_grid if t > 0]
    # the log-log fit needs a late-time decade; fall back when the flow grid
    # is a short potential-identity grid or leaves the fit window too few times
    grid_source = "flow.t_grid" if exp.flow_t_grid else "default 10..1000 (no flow.t_grid)"
    try:
        if len(ts) < 4 or max(ts) < 100 or max(ts) / min(ts) < FIT_DECADE:
            raise ValueError("short grid")
        fit_window(ts)
    except ValueError:
        ts = default_grid
        grid_source = "default 10..1000 (flow.t_grid unsuitable for a decay fit)"
    rng = np.random.default_rng(args.seed)
    pts = sample_interior(poly, exp.sample_points, rng, margin=_sample_margin(poly))

    G = metric_hessians(exp.g0, exp.phi, ts, pts)
    bad = np.argwhere(~np.isfinite(G).all(axis=(-2, -1)))
    if len(bad):  # eigvalsh and J_t's inverse would raise or return garbage
        k, i = bad[0]
        raise ToricFlowError(f"G_t is not finite at t = {ts[k]:g}, x = {pts[i].tolist()}")
    eigs = np.linalg.eigvalsh(G)
    angles = limit_angle(eigs)
    slopes = fit_loglog_slope(ts, angles).tolist()
    # the metric diag(G_t, G_t^{-1}) is positive exactly when G_t is
    positive = bool(eigs.min() > 0)
    J = complex_structure_of(G)
    # np.max, unlike Python's max, keeps a NaN residual, which then fails
    j_resid = float(np.max(np.abs(J @ J + np.eye(2 * poly.dimension))))
    table = np.column_stack([np.tile(ts, len(pts)), np.repeat(pts, len(ts), axis=0),
                             angles.T.ravel(), np.repeat(slopes, len(ts))])
    _write_table(
        out / "polarization.csv",
        ["t"] + [f"x{i+1}" for i in range(poly.dimension)] + ["angle", "slope_window"],
        table,
    )
    slope_ok = all(SLOPE_BAND[0] <= s <= SLOPE_BAND[1] for s in slopes)
    passed = slope_ok and j_resid < J_SQUARED_TOL and positive
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


def cmd_gluing(exp: Experiment, out: Path, args) -> int:
    if exp.poly.dimension != 1:
        print("gluing: the two-chart model needs a one-dimensional polytope")
        return EXIT_CONFIG
    ts = exp.section_t or [1.0, 3.0]
    _require_kahler(exp, ts, gluing_points(exp.poly))
    rows = []
    for lam in _weights(exp):
        rows += _gluing_rows(lam, WeightSection(lam, exp.g0, exp.phi, 0.0), ts, args)
    return _finish("gluing", out, rows)


def cmd_lift(exp: Experiment, out: Path, args) -> int:
    poly = exp.poly
    ts = exp.section_t or [0.5, 2.0]
    rng = np.random.default_rng(args.seed)
    pts = sample_interior(poly, 20, rng, margin=_sample_margin(poly))
    thetas = rng.random((20, poly.dimension)) * 2.0 * np.pi
    zetas = np.exp(1j * rng.random(20) * 2.0 * np.pi)
    _require_kahler(exp, ts, pts)
    rows = []
    for lam in _weights(exp):
        s0 = WeightSection(lam, exp.g0, exp.phi, 0.0)
        for t in ts:
            resid = lift_section_consistency(s0, t, pts, thetas, zetas)
            rows.append(_row("lift", lam, t, resid, LIFT_TOL))
    return _finish("lift", out, rows, seed=args.seed)


def cmd_converge(exp: Experiment, out: Path, args) -> int:
    poly, lam = exp.poly, exp.lam
    if lam is None:
        raise ConfigError("missing required config key 'experiment.lambda'")
    lam_arr = np.asarray(lam, dtype=float)
    if not poly.contains(lam_arr):
        print(f"converge: lambda {lam} lies outside the moment polytope")
        return EXIT_CONFIG
    if not poly.is_interior(lam_arr):
        print(
            f"converge: lambda {lam} lies on the polytope boundary; the fiber "
            "degenerates there.  Convergence requires a regular integral value "
            "of the moment map (lambda in t*_{Z,reg}, i.e. interior to P)."
        )
        return EXIT_CONFIG
    if not exp.bumps:
        raise ConfigError("experiment.bumps lines are required for convergence runs")

    report = conv.convergence_experiment(
        lam_arr, exp.phi, exp.g0, exp.bumps,
        exp.experiment_t_grid or [10, 20, 40, 80, 160, 320], exp.spec, exp.mode,
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


def cmd_report(exp: Experiment, out: Path, args) -> int:
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
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored; recorded in converge's report.json")
    parser.add_argument("--seed", type=int, default=0,
                        help="sample-point selection seed (recorded in outputs)")
    parser.add_argument("--corrupt-transition", action="store_true",
                        dest="corrupt_transition",
                        help="test hook: flip the two-chart transition sign")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        exp = load_config(args.config).validate()
    except (ConfigError, OSError, ToricFlowError) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.subcommand](exp, out, args)
    except (ConfigError, FiberDegenerationError) as exc:
        print(f"error: {exc}")
        return EXIT_CONFIG
    except ToricFlowError as exc:
        print(f"numerical failure: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
