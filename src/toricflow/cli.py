"""Experiment runner: parse a config, dispatch pipelines, write CSV/JSON.

Subcommands: validate, potential-flow, section-flow, polarization, gluing,
lift, converge, report.  Each subcommand but `report` judges its checks as
`Check` rows and writes them to `<subcommand>.json` (dashes as underscores),
with a top-level `pass`; `report` merges those files into `summary.json`.
Exit codes: 0 all checks pass, 1 usage, configuration or validation error (a
failed `validate` row included), 2 numerical failure (any other failed row).
Outputs are deterministic: fixed float formatting, sorted keys, seeded
sampling with the seed recorded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import convergence as conv
from .config import Experiment, load_config
from .errors import Check, ConfigError, FiberDegenerationError, GridSizeError, ToricFlowError
from .flow import (
    complex_structure_of,
    fit_loglog_slope,
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
FRAME_TOL = 1e-8
J_SQUARED_TOL = 1e-12
SLOPE_BAND = (-1.1, -0.9)

# the times polarization fits its principal-angle decay over: a late decade
POLARIZATION_T = tuple(float(t) for t in np.geomspace(10, 1000, 11))


def _write_csv(path: Path, header: list[str], table, labels=None) -> None:
    """Write a 2D float table with "%.17g" cells, after an optional first
    column of strings, `labels`."""
    table = np.asarray(table, dtype=float)
    row_format = ",".join(["%.17g"] * table.shape[1])
    lines = [row_format % tuple(row) for row in table.tolist()]
    if labels is not None:
        lines = [f"{label},{line}" for label, line in zip(labels, lines)]
    path.write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    """One line with sorted keys: without `indent`, json encodes in C."""
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _sample(exp: Experiment, count: int, rng, share: float = 0.25) -> np.ndarray:
    """`count` points of P, each at least `share` of P's inscribed radius
    inside every facet."""
    _, radius = exp.poly.chebyshev_center()
    return sample_interior(exp.poly, count, rng, margin=share * radius)


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


def _rounding_tols(phi, pts, ts, lams) -> np.ndarray:
    """The tolerances of a two-route residual at `pts`, one row per weight of
    `lams` and one column per time: the two logs sum terms of size
    t |x . grad phi|, t |phi| and t |grad phi . lam|, so their rounding grows
    like t, and the tolerance is ROUTE_TOL max(1, t max_x of that sum).  Past
    the float range it is inf, and the residual, NaN there, still fails."""
    dp = phi.grad(pts)
    sizes = np.abs(np.einsum("ij,ij->i", pts, dp)) + np.abs(phi.value(pts))
    scales = [np.max(sizes + np.abs(dp @ lam)) for lam in lams]
    with np.errstate(over="ignore"):
        return ROUTE_TOL * np.maximum(1.0, np.multiply.outer(scales, ts))


def _weight_rows(check: str, residual, exp: Experiment, lams, ts, pts) -> list[list[Check]]:
    """Each weight's rows of a two-route check: `residual(s0, ts, pts)` of
    the weight's time-zero section against the rounding tolerances at `pts`."""
    return [_rows(check, lam, ts, residual(WeightSection(lam, exp.g0, exp.phi, 0.0), ts, pts), tols)
            for lam, tols in zip(lams, _rounding_tols(exp.phi, pts, ts, lams))]


def _gluing_rows(exp: Experiment, lams, ts, args) -> list[list[Check]]:
    """The two-chart gluing rows of each weight, for section-flow and gluing."""
    return _weight_rows("gluing", lambda s0, ts, _: gluing_check_cp1(s0, ts, args.corrupt_transition),
                        exp, lams, ts, gluing_points(exp.poly))


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
    # 32 nodes per axis per unit of P's widest extent, block by block,
    # keeping the first minimum that an argmin over the whole grid would give
    # (a NaN first), so no Hessian stack of the grid is held; a Hessian that
    # overflows is reported as not finite, without a warning
    grid = poly.grid_cells(32 * math.ceil(np.ptp(poly.vertices(), axis=0).max() - 1e-9))
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [check_strict_convexity(exp.phi, pts) for pts, _ in grid.blocks(2**14)]
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
    ts = exp.flow_t_grid
    pts = _sample(exp, exp.sample_points, np.random.default_rng(args.seed))
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
    _write_csv(out / "potential_flow.csv", header, table)
    # np.max, unlike Python's max, keeps a NaN residual, which then fails
    worst = np.max(table[:, -1].reshape(len(ts), len(pts)), axis=1)
    tols = _rounding_tols(exp.phi, pts, ts, [np.zeros(poly.dimension)])[0]
    rows = _rows("duality", None, ts, worst, tols)
    return _finish("potential-flow", out, rows, seed=args.seed, points=exp.sample_points,
                   t_grid=list(ts))


def cmd_section_flow(exp: Experiment, out: Path, args) -> int:
    poly, g0, phi = exp.poly, exp.g0, exp.phi
    ts = exp.section_t
    rng = np.random.default_rng(args.seed)
    pts = _sample(exp, 40, rng)
    # the FD truncation error scales like (grad rho_t / 2)^5 h^4, so the
    # frame check runs at moderate time and away from the boundary
    t_frame = min(1.0, ts[-1])
    frame_pts = _sample(exp, 10, rng, share=0.5)
    _require_kahler(exp, ts, pts)
    _require_kahler(exp, [t_frame], frame_pts)
    if poly.dimension == 1:
        _require_kahler(exp, ts, gluing_points(poly))

    lams = _weights(exp)
    route = _weight_rows("route-equality", route_equality_residual, exp, lams, ts, pts)
    gluing = _gluing_rows(exp, lams, ts, args) if poly.dimension == 1 else [[]] * len(lams)
    rows = [row for route_rows, gluing_rows in zip(route, gluing) for row in route_rows + gluing_rows]
    frame_resid = frame_holomorphicity_residual(g0, phi, t_frame, frame_pts)
    rows.append(Check("frame-holomorphicity", None, t_frame, frame_resid, FRAME_TOL))

    pairs = [(lam, t) for lam in lams for t in ts]
    log_norms = section_log_norms_sq([WeightSection(lam, g0, phi, t) for lam, t in pairs], exp.spec)
    _write_csv(out / "section_norms.csv", ["lambda", "t", "log_norm_sq"],
               np.column_stack([[t for _, t in pairs], log_norms]),
               [" ".join(map(str, lam)) for lam, _ in pairs])
    return _finish("section-flow", out, rows, seed=args.seed)


def cmd_polarization(exp: Experiment, out: Path, args) -> int:
    poly = exp.poly
    ts = POLARIZATION_T
    pts = _sample(exp, exp.sample_points, np.random.default_rng(args.seed))

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
    _write_csv(
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
                   seed=args.seed)


def cmd_gluing(exp: Experiment, out: Path, args) -> int:
    if exp.poly.dimension != 1:
        raise ConfigError("gluing: the two-chart model needs a one-dimensional polytope")
    ts = exp.section_t
    _require_kahler(exp, ts, gluing_points(exp.poly))
    return _finish("gluing", out, sum(_gluing_rows(exp, _weights(exp), ts, args), []))


def cmd_lift(exp: Experiment, out: Path, args) -> int:
    ts = exp.section_t
    pts = _sample(exp, 20, np.random.default_rng(args.seed))
    _require_kahler(exp, ts, pts)
    rows = _weight_rows("lift", lift_section_consistency, exp, _weights(exp), ts, pts)
    return _finish("lift", out, sum(rows, []), seed=args.seed)


def cmd_converge(exp: Experiment, out: Path, args) -> int:
    if exp.lam is None:
        raise ConfigError("missing required config key 'experiment.lambda'")
    if not exp.bumps:
        raise ConfigError("experiment.bumps lines are required for convergence runs")
    # convergence_experiment refuses a lambda that is not interior to P
    report = conv.convergence_experiment(
        exp.lam, exp.phi, exp.g0, exp.bumps,
        exp.experiment_t_grid, exp.spec, exp.mode,
    )
    table = [[b.bump_id, t, pairing, b.fiber_value, err] for b in report.bumps
             for t, pairing, err in zip(report.t_grid, b.pairings, b.abs_errors)]
    _write_csv(out / "convergence.csv",
               ["lambda", "bump_id", "t", "pairing", "fiber_value", "abs_error"],
               table, [" ".join(map(str, exp.lam))] * len(table))
    return _finish("converge", out, report.checks, **report.to_dict(), seed=args.seed)


def cmd_report(exp: Experiment, out: Path, args) -> int:
    merged = {}
    ok = True
    for path in sorted(out.glob("*.json")):
        if path.name == "summary.json":
            continue
        try:
            content = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"report: {path.name} is not JSON: {exc}") from exc
        if not isinstance(content, dict):
            raise ConfigError(f"report: {path.name} holds no JSON object")
        merged[path.name] = content
        verdict = content.get("pass")
        if verdict is not None:
            ok = ok and bool(verdict)
            rows = content.get("checks", [])
            if not (isinstance(rows, list) and all(
                    isinstance(row, dict) and {"check", "pass"} <= row.keys() for row in rows)):
                raise ConfigError(f"report: the checks of {path.name} are not "
                                  "a list of rows with 'check' and 'pass'")
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


def _usage_error(message: str):
    """The parser's error hook: a usage error exits 1 through `main`, as a
    config error does, instead of argparse's exit 2."""
    raise ConfigError(message)


def _seed(text: str) -> int:
    """A `--seed`: numpy's generators take a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricflow",
        description="Run toric Kahler flow experiments from a config file.",
    )
    parser.error = _usage_error
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored; accepted for callers that pass it")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="sample-point selection seed (recorded in outputs)")
    parser.add_argument("--corrupt-transition", action="store_true",
                        dest="corrupt_transition",
                        help="test hook: flip the two-chart transition sign")
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  A usage error, a config
    that does not validate, a file that cannot be read or written, and a
    ConfigError, FiberDegenerationError or GridSizeError (a `quad.*` spec too
    fine for the run's plans) from the subcommand exit 1; any other
    ToricFlowError is a numerical failure and exits 2."""
    try:
        args = build_parser().parse_args(argv)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        exp = load_config(args.config).validate()
        return _COMMANDS[args.subcommand](exp, out, args)
    except (ConfigError, FiberDegenerationError, GridSizeError, OSError) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    except ToricFlowError as exc:
        print(f"numerical failure: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
