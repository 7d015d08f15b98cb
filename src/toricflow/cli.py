"""Experiment runner: parse a config, dispatch pipelines, write CSV/JSON.

Subcommands: validate, potential-flow, section-flow, polarization, gluing,
lift, converge, report.  Each subcommand but `report` judges its checks as
`Check` rows and writes them to `<subcommand>.json` (dashes as underscores),
with a top-level `pass`; `report` merges those files into `summary.json`.
Exit codes: 0 all checks pass, 1 configuration or validation error (a failed
`validate` row included), 2 numerical failure (any other failed row).
Outputs are deterministic: fixed float formatting, sorted keys, seeded
sampling with the seed recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import convergence as conv
from .config import Experiment, load_config
from .errors import Check, ConfigError, FiberDegenerationError, ToricFlowError
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


def _cell_format(kind: type) -> str:
    """A number prints as "%.17g" of its float; a bool, str or other cell as str."""
    number = issubclass(kind, (int, float, np.integer, np.floating))
    return "%.17g" if number and not issubclass(kind, (bool, np.bool_)) else "%s"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write the rows with one %-format per row, built from its cells' types."""
    formats: dict[tuple, str] = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(formats[kinds] % tuple(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write a float64 table in `_write_csv`'s number format, one "%.17g"
    row format per row instead of one call per cell."""
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header), *(row % tuple(values) for values in table.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    """One line with sorted keys: without `indent`, json encodes in C."""
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _sample_margin(poly) -> float:
    _, radius = poly.chebyshev_center()
    return 0.25 * radius


def _weights(exp: Experiment):
    """The `section.lambda` weights, or every lattice point of P without them."""
    return exp.weights or exp.poly.lattice_points()


def _require_kahler(exp: Experiment, ts, pts) -> None:
    """Raise ToricFlowError (exit 2) unless G_t = Hess g_t is positive definite
    at every point and time a check evaluates; elsewhere J_t is not Kahler."""
    lows = _min_eigenvalues(metric_hessians(exp.g0, exp.phi, ts, pts))
    for t, low in zip(ts, lows):
        i = int(np.argmin(low))  # a NaN minimum is picked first
        if not low[i] > 0:
            raise ToricFlowError(f"G_t is not positive definite at t = {t:g}, "
                                 f"x = {pts[i].tolist()} (min eigenvalue {low[i]:.3e})")


def _rows(check: str, lam, ts, resids, tols) -> list[Check]:
    """The rows of one weight's residuals over the t grid; `tols` is one
    tolerance, or one per time."""
    return [Check(check, lam, t, r, tol)
            for t, r, tol in zip(ts, resids.tolist(), np.broadcast_to(tols, len(ts)).tolist())]


def _gluing_rows(lam, s0: WeightSection, ts, args) -> list[Check]:
    """The two-chart gluing rows of one weight, for section-flow and gluing."""
    return _rows("gluing", lam, ts, gluing_check_cp1(s0, ts, args.corrupt_transition), GLUING_TOL)


def _finish(command: str, out: Path, rows: list[Check], fail_code: int = EXIT_NUMERICAL,
            **payload) -> int:
    """Write the rows and the payload to <command>.json, print the verdict
    line and return the exit code: `fail_code` if any row fails."""
    failures = sum(not row.passed for row in rows)
    checks = [row.to_dict() for row in rows]
    _write_json(out / f"{command.replace('-', '_')}.json",
                {"pass": failures == 0, "failures": failures, "checks": checks, **payload})
    print(f"{command}: {len(rows)} checks, {failures} failures {'FAIL' if failures else 'PASS'}")
    return fail_code if failures else EXIT_OK


# -- subcommands ----------------------------------------------------------------


def cmd_validate(exp: Experiment, out: Path, args) -> int:
    poly = exp.poly
    # block by block, keeping the first minimum that an argmin over the whole
    # grid would give (a NaN first), so no Hessian stack of the grid is held;
    # a Hessian that overflows is reported as not finite, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [check_strict_convexity(exp.phi, pts)
                  for pts, _ in poly.grid_cells(32).blocks(2**14)]
    report = blocks[int(np.argmin([b.min_eigenvalue for b in blocks]))]
    issues = [] if report.ok else [
        f"phi's Hessian is not finite at {list(report.witness)}"
        if np.isnan(report.min_eigenvalue) else
        f"phi is not strictly convex (min eig {report.min_eigenvalue:.3e} "
        f"at {list(report.witness)})"
    ]
    row = Check("strict-convexity", None, None, -report.min_eigenvalue, 0.0)
    code = _finish("validate", out, [row], EXIT_CONFIG, polytope=poly.name, issues=issues)
    for issue in issues:
        print(f"  - {issue}")
    return code


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
    header = (
        ["t"]
        + [f"x{i+1}" for i in range(poly.dimension)]
        + ["g_t", "rho_t", "rho_t_legendre", "residual"]
    )
    _write_table(out / "potential_flow.csv", header, table)
    # np.max, unlike Python's max, keeps a NaN residual, which then fails
    worst = np.max(table[:, -1].reshape(len(ts), len(pts)), axis=1)
    rows = _rows("duality", None, ts, worst, POTENTIAL_TOL)
    return _finish("potential-flow", out, rows, seed=args.seed, points=exp.sample_points,
                   t_grid=list(ts))


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

    # route equality compares two log amplitudes summed from terms of size
    # t |x . grad phi|, t |lam . grad phi| and t |phi|: its rounding grows like t
    dp = phi.grad(pts)
    sizes = np.abs(np.einsum("ij,ij->i", pts, dp)) + np.abs(phi.value(pts))
    rows = []
    pairs = []
    for lam in _weights(exp):
        s0 = WeightSection(lam, g0, phi, 0.0)
        tols = ROUTE_TOL * np.maximum(1.0, np.multiply(ts, np.max(sizes + np.abs(dp @ lam))))
        rows += _rows("route-equality", lam, ts, route_equality_residual(s0, ts, pts), tols)
        pairs += [(lam, t) for t in ts]
        if poly.dimension == 1:
            rows += _gluing_rows(lam, s0, ts, args)

    sections = [WeightSection(lam, g0, phi, t) for lam, t in pairs]
    log_norms = section_log_norms_sq(sections, exp.spec)
    norm_rows = [[" ".join(map(str, lam)), t, v] for (lam, t), v in zip(pairs, log_norms)]

    frame_resid = frame_holomorphicity_residual(g0, phi, t_frame, frame_pts)
    rows.append(Check("frame-holomorphicity", None, t_frame, frame_resid, FRAME_TOL))

    _write_csv(out / "section_norms.csv", ["lambda", "t", "log_norm_sq"], norm_rows)
    return _finish("section-flow", out, rows, seed=args.seed)


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
    rows = [Check.within("slope", s, SLOPE_BAND) for s in slopes] + [
        Check("J-squared", None, None, j_resid, J_SQUARED_TOL),
        # the metric diag(G_t, G_t^{-1}) is positive exactly when G_t is
        Check("metric-positive", None, None, -eigs.min(), 0.0),
    ]
    return _finish("polarization", out, rows, slope_band=list(SLOPE_BAND), t_grid=list(ts),
                   t_grid_source=grid_source, seed=args.seed)


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
        rows += _rows("lift", lam, ts, lift_section_consistency(s0, ts, pts, thetas, zetas), LIFT_TOL)
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
    return _finish("converge", out, report.checks, **report.to_dict(), seed=args.seed)


def cmd_report(exp: Experiment, out: Path, args) -> int:
    merged = {}
    ok = True
    for path in sorted(out.glob("*.json")):
        if path.name == "summary.json":
            continue
        with open(path, "r", encoding="utf-8") as fh:
            content = json.load(fh)
        merged[path.name] = content
        verdict = content.get("pass")
        if verdict is not None:
            ok = ok and bool(verdict)
            rows = content.get("checks", [])
            failed = ", ".join(dict.fromkeys(row["check"] for row in rows if not row["pass"]))
            print(f"{path.name:28s} {'PASS' if verdict else 'FAIL ' + failed}")
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
                        help="ignored; accepted for callers that pass it")
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
