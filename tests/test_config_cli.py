import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import toricflow as tf
from toricflow import polytopes, potentials, sections
from toricflow.cli import main
from toricflow.config import parse_config, parse_t_grid
from toricflow.errors import ConfigError

from test_surface import LSE_CFG

REPO = Path(__file__).resolve().parent.parent
CP1_CFG = REPO / "configs" / "cp1_size2.cfg"
CP1_UNIT_CFG = REPO / "configs" / "cp1_unit.cfg"
CP2_CFG = REPO / "configs" / "cp2_size2.cfg"


def _verdict(out: Path, stem: str) -> dict:
    return json.loads((out / f"{stem}.json").read_text())


def _rows(out: Path, stem: str, check: str) -> list[dict]:
    """The rows of one check in <stem>.json."""
    return [row for row in _verdict(out, stem)["checks"] if row["check"] == check]

MINIMAL = """
polytope.dim = 1
polytope.facet = 1 ; 0
polytope.facet = -1 ; 2
phi.kind = quadratic
phi.Q = 1
section.lambda = 1
"""


def test_parse_and_build():
    exp = parse_config(MINIMAL).validate()
    poly = exp.poly
    assert poly.dimension == 1
    assert tf.validate_delzant(poly).ok
    phi = exp.phi
    assert phi.value(np.array([1.0])) == pytest.approx(0.5)
    assert list(exp.weights) == [(1,)]


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\nbogus.key = 3\n")


def test_duplicate_scalar_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\nphi.kind = quadratic\n")


def test_facet_dimension_mismatch():
    cfg = parse_config(MINIMAL.replace("polytope.facet = 1 ; 0", "polytope.facet = 1 2 ; 0"))
    with pytest.raises(ConfigError, match="has dimension 2, expected 1"):
        cfg.validate()


def test_lambda_outside_polytope_rejected():
    cfg = parse_config(MINIMAL.replace("section.lambda = 1", "section.lambda = 7"))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_t_grid_formats():
    assert parse_t_grid("0,0.5,1") == [0.0, 0.5, 1.0]
    geo = parse_t_grid("10:320:2")
    assert geo == [10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
    with pytest.raises(ConfigError):
        parse_t_grid("10:5:2")


def test_bump_parsing():
    cfg = parse_config(MINIMAL + "\nexperiment.bumps = 1.0 ; 0.5 ; 0.8 ; 0.3\n")
    bumps = cfg.validate().bumps
    assert bumps[0].center == (1.0,)
    assert bumps[0].plateau == pytest.approx(0.3)


def test_cli_validate_ok(tmp_path):
    assert main(["validate", "--config", str(CP1_CFG), "--out", str(tmp_path)]) == 0
    payload = _verdict(tmp_path, "validate")
    assert payload["pass"] and payload["checks"][0]["check"] == "strict-convexity"
    assert payload["checks"][0]["pass"] and payload["checks"][0]["residual"] < 0


def test_cli_validate_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "\nnot.a.key = 1\n")
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path)]) == 1


def test_cli_converge_boundary_lambda(tmp_path, capsys):
    cfg = tmp_path / "boundary.cfg"
    cfg.write_text(
        CP1_CFG.read_text().replace("experiment.lambda = 1", "experiment.lambda = 0")
    )
    code = main(["converge", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "t*_{Z,reg}" in out


def test_cli_converge_lambda_outside_polytope(tmp_path, capsys):
    cfg = tmp_path / "outside.cfg"
    cfg.write_text(_with_values(CP1_CFG, "experiment.lambda = 5"))
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("config error: lambda [5.0] is not interior") and "t*_{Z,reg}" in out
    assert list((tmp_path / "out").iterdir()) == []


def test_cli_gluing_on_a_triangle_is_config_error(tmp_path, capsys):
    assert main(["gluing", "--config", str(CP2_CFG), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        "config error: gluing: the two-chart model needs a one-dimensional polytope\n")
    assert not (tmp_path / "gluing.json").exists()


@pytest.mark.parametrize("case", ["unknown-subcommand", "missing-config", "seed-not-a-number",
                                  "negative-seed", "out-is-a-file", "config-not-utf8",
                                  "report-over-bad-json", "report-over-json-list",
                                  "report-over-rows-without-pass", "report-over-checks-not-a-list"])
def test_cli_input_error_exits_1_with_one_line(tmp_path, capsys, case):
    # exit 2 means a numerical failure, so a usage error exits 1 like any
    # other input error, with one line and no traceback
    cfg, out = tmp_path / "cp1.cfg", tmp_path / "out"
    cfg.write_bytes(CP1_CFG.read_bytes() + (b"# caf\xe9\n" if case == "config-not-utf8" else b""))
    sub = "bogus" if case == "unknown-subcommand" else "report" if "report" in case else "potential-flow"
    argv = [sub, "--out", str(out)] + ([] if case == "missing-config" else ["--config", str(cfg)])
    argv += {"seed-not-a-number": ["--seed", "x"], "negative-seed": ["--seed", "-1"]}.get(case, [])
    if case == "out-is-a-file":
        out.write_text("")
    if "report" in case:
        out.mkdir()
        (out / "gluing.json").write_text({
            "report-over-bad-json": "{", "report-over-json-list": "[1]",
            "report-over-rows-without-pass": '{"pass": false, "checks": [{"x": 1}]}',
            "report-over-checks-not-a-list": '{"pass": false, "checks": 5}',
        }[case])
    assert main(argv) == 1
    said = capsys.readouterr()
    assert said.out.startswith("config error: ") and said.out.count("\n") == 1 and said.err == ""


def test_cli_gluing_and_corruption(tmp_path):
    assert main(["gluing", "--config", str(CP1_CFG), "--out", str(tmp_path)]) == 0
    code = main(
        ["gluing", "--config", str(CP1_CFG), "--out", str(tmp_path), "--corrupt-transition"]
    )
    assert code == 2
    rows = _verdict(tmp_path, "gluing")["checks"]
    assert all(set(row) == {"check", "lambda", "t", "residual", "tolerance", "pass"} for row in rows)
    assert any(not row["pass"] for row in rows)
    assert not (tmp_path / "gluing.csv").exists()


def test_cli_lift_and_potential_flow(tmp_path):
    assert main(["potential-flow", "--config", str(CP1_CFG), "--out", str(tmp_path)]) == 0
    assert main(["lift", "--config", str(CP1_CFG), "--out", str(tmp_path)]) == 0
    verdict = _verdict(tmp_path, "potential_flow")
    assert verdict["pass"] and max(row["residual"] for row in verdict["checks"]) < 1e-10
    assert [row["t"] for row in _rows(tmp_path, "potential_flow", "duality")] == verdict["t_grid"]


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["potential-flow", "--config", str(CP1_CFG), "--out", str(out)]) == 0
        assert main(["gluing", "--config", str(CP1_CFG), "--out", str(out)]) == 0
        assert main(["converge", "--config", str(CP1_CFG), "--out", str(out)]) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_report_merges(tmp_path):
    assert main(["potential-flow", "--config", str(CP1_CFG), "--out", str(tmp_path)]) == 0
    assert main(["report", "--config", str(CP1_CFG), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"]
    assert "potential_flow.json" in summary["reports"]


def test_cli_section_flow_cp2(tmp_path):
    assert main(["section-flow", "--config", str(CP2_CFG), "--out", str(tmp_path)]) == 0
    rows = _verdict(tmp_path, "section_flow")["checks"]
    assert rows and all(row["pass"] for row in rows)


def test_cli_section_flow_large_t_log_norms(tmp_path):
    # at t = 200 two amplitudes underflow at some sample points and the
    # (1, 1) norm is about e^1198: the log-domain checks and norms stay finite
    cfg = tmp_path / "large_t.cfg"
    cfg.write_text(_with_values(CP2_CFG, "section.t = 0.5,2,200"))
    assert main(["section-flow", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "section_norms.csv").read_text().splitlines()
    assert rows[0] == "lambda,t,log_norm_sq"
    log_norms = [float(row.split(",")[2]) for row in rows[1:]]
    assert len(log_norms) == 12 and np.isfinite(log_norms).all()


def test_cli_route_equality_passes_at_large_t(tmp_path):
    # at t = 1000 the residuals read 0.9e-12 to 1.8e-12, the rounding of
    # summands of size t |x . grad phi| ~ 1e4: a fixed 1e-12 failed them
    cfg = tmp_path / "t1000.cfg"
    cfg.write_text(_with_values(CP2_CFG, "section.t = 0.5,2,1000"))
    assert main(["section-flow", "--config", str(cfg), "--out", str(tmp_path), "--seed", "0"]) == 0
    rows = _rows(tmp_path, "section_flow", "route-equality")
    assert len(rows) == 12 and all(row["pass"] for row in rows)
    assert max(row["residual"] for row in rows if row["t"] == 1000) > 1e-12


@pytest.mark.parametrize("base", [CP1_CFG, CP1_UNIT_CFG, CP2_CFG], ids=lambda p: p.stem)
def test_cli_section_checks_pass_at_large_t(tmp_path, base):
    # e^{-A_{lam,t}} overflows at t = 400 on the segments: gluing and lift
    # compare log amplitudes, and the rounding of every two-route residual
    # grows like t, so do their tolerances: a correct program passes up to
    # t = 1e6.  The section norms of the triangle resolve their peaks on the
    # cones from each weight, graded down to the peak width at t = 1e6
    times = {0.5, 2.0, 10.0, 400.0, 1000.0, 1e4, 1e5, 1e6}
    grid = ",".join("%g" % t for t in sorted(times))
    cfg = tmp_path / "large_t.cfg"
    cfg.write_text(_with_values(base, f"section.t = {grid}", f"flow.t_grid = {grid}"))
    runs = [("potential-flow", ("duality",)), ("lift", ("lift",))]
    if base == CP2_CFG:
        runs += [("section-flow", ("route-equality",))]
    else:
        runs += [("section-flow", ("route-equality", "gluing")), ("gluing", ("gluing",))]
    for sub, checks in runs:
        out = tmp_path / sub
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0, sub
        stem = sub.replace("-", "_")
        for check in checks:
            rows = _rows(out, stem, check)
            assert {row["t"] for row in rows} == times
            residuals = [row["residual"] for row in rows]
            assert np.isfinite(residuals).all(), (sub, check)
            assert all(row["residual"] < row["tolerance"] for row in rows), (sub, check)
    if base != CP2_CFG:
        control = tmp_path / "control"
        argv = ["gluing", "--config", str(cfg), "--out", str(control), "--corrupt-transition"]
        assert main(argv) == 2


def test_cli_converge_reaches_the_laplace_correction_at_large_t(tmp_path, monkeypatch):
    # the benchmark's size-3 triangle out to t = 1e5: bump 0 covers
    # lam = (1, 1), and its pairing follows H(lam) + c1 / t, with the first
    # Laplace correction c1 = 1/2 tr(Q^{-1} Hess H(lam)) = -0.520833
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    cfg = tmp_path / "cp2_size3.cfg"
    cfg.write_text("\n".join(
        "experiment.t_grid = 1280,10000,100000" if line.startswith("experiment.t_grid") else line
        for line in workloads.CP2_CONVERGE_CFG.splitlines()) + "\n")
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = _verdict(tmp_path, "converge")
    assert report["t_grid"] == [1280.0, 1e4, 1e5]
    bump = report["bumps"][0]
    c1 = 0.5 * np.trace(np.linalg.inv(np.diag([2.0, 4.0])) * (-2.0 / bump["radius"] ** 2))
    assert c1 == pytest.approx(-0.520833, abs=1e-6)
    assert abs(1e5 * (bump["pairings"][-1] - bump["fiber_value"]) - c1) < 1e-3


def test_cli_route_equality_fails_a_scaled_phi_term(tmp_path, monkeypatch):
    # the concentration rate with its phi term x 0.9, (x - lam) . grad phi - 0.9 phi,
    # in potentials and in the t-grid route of sections, which calls it directly
    rate = potentials._rate

    def planted(x, lam, grad, value):
        return rate(x, lam, grad, 0.9 * value)

    monkeypatch.setattr(potentials, "_rate", planted)
    monkeypatch.setattr(sections, "_rate", planted)
    # f_lam(x) = (x - lam) phi'(x) - 0.9 phi(x) = 2 - 1.8 for phi = x^2 / 2, x = 2, lam = 1
    assert tf.concentration_rate(tf.QuadraticPotential([[1.0]]), [1.0], [2.0]) == pytest.approx(0.2)
    for t_grid, name in (("0.5,2,10", "shipped"), ("0.5,2,1000", "t1000")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(_with_values(CP2_CFG, f"section.t = {t_grid}"))
        out = tmp_path / name
        assert main(["section-flow", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == 2
        assert not any(row["pass"] for row in _rows(out, "section_flow", "route-equality"))


def test_cli_polarization(tmp_path):
    out = tmp_path / "cp2"
    assert main(["polarization", "--config", str(CP2_CFG), "--out", str(out)]) == 0
    assert "nan" not in (out / "polarization.csv").read_text().lower()
    verdict = _verdict(out, "polarization")
    assert verdict["pass"] and np.isfinite([row["residual"] for row in verdict["checks"]]).all()
    # negative control: phi flat in x2 stops the decay along one direction,
    # so the largest angle stalls (slopes near 0) and the run must fail
    flat = tmp_path / "flat.cfg"
    flat.write_text(CP2_CFG.read_text().replace("phi.Q = 2 0 0 4", "phi.Q = 1 0 0 0"))
    assert main(["polarization", "--config", str(flat), "--out", str(tmp_path / "flat")]) == 2
    slopes = np.loadtxt(tmp_path / "flat" / "polarization.csv", delimiter=",", skiprows=1)[:, -1]
    assert max(slopes) > -0.9
    assert not all(row["pass"] for row in _rows(tmp_path / "flat", "polarization", "slope"))


def test_cli_polarization_fits_on_its_own_grid(tmp_path):
    # a flow.t_grid that would suit a decay fit still leaves the fit on the
    # 11 fixed times: flow.t_grid is potential-flow's grid only
    cfg = tmp_path / "long.cfg"
    cfg.write_text(_with_values(CP1_CFG, "flow.t_grid = 1:3000:1.5"))
    assert main(["polarization", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "polarization.json").read_text())
    assert verdict["t_grid"] == pytest.approx(np.geomspace(10, 1000, 11))


def test_cli_polarization_falls_back_when_fit_window_is_short(tmp_path):
    # a grid that leaves one time in the fit's trailing decade does not reach
    # the fit at all: the run uses the fixed times, not crash
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text(_with_values(CP1_CFG, "flow.t_grid = 1,10,100,1e308"))
    assert main(["polarization", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "polarization.json").read_text())
    assert "t_grid_source" not in verdict
    assert verdict["t_grid"] == pytest.approx(np.geomspace(10, 1000, 11))


def test_cli_polarization_without_flow_grid_labels_the_default(tmp_path):
    cfg = tmp_path / "nogrid.cfg"
    cfg.write_text("".join(
        line for line in CP1_CFG.read_text().splitlines(keepends=True)
        if not line.startswith("flow.t_grid")
    ))
    assert main(["polarization", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "polarization.json").read_text())
    assert "t_grid_source" not in verdict
    assert verdict["t_grid"] == pytest.approx(np.geomspace(10, 1000, 11))


def test_cli_report_flags_failures(tmp_path):
    assert main(
        ["gluing", "--config", str(CP1_CFG), "--out", str(tmp_path), "--corrupt-transition"]
    ) == 2
    assert main(["report", "--config", str(CP1_CFG), "--out", str(tmp_path)]) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert not summary["pass"]


def test_cli_experiment_lambda_dimension_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "lambda2d.cfg"
    cfg.write_text(
        CP1_CFG.read_text().replace("experiment.lambda = 1", "experiment.lambda = 1 1")
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "experiment.lambda (1, 1) has dimension 2" in capsys.readouterr().out


def test_cli_bump_center_dimension_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bump2d.cfg"
    cfg.write_text(
        CP1_CFG.read_text().replace(
            "experiment.bumps = 1.7 ; 0.25 ; 1.0", "experiment.bumps = 1.7 0.2 ; 0.25 ; 1.0"
        )
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "experiment.bumps center (1.7, 0.2) has dimension 2" in capsys.readouterr().out


def test_cli_validate_non_delzant_is_config_error(tmp_path, capsys):
    # at the vertex (1, 0) the normals (0, 1) and (-2, -1) have determinant 2
    cfg = tmp_path / "non_delzant.cfg"
    cfg.write_text(
        "polytope.dim = 2\n"
        "polytope.facet = 1 0 ; 0\n"
        "polytope.facet = 0 1 ; 0\n"
        "polytope.facet = -2 -1 ; 2\n"
    )
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "vertex (1.0, 0.0)" in capsys.readouterr().out
    assert not (out / "validate.json").exists()


def test_cli_validate_empty_interior_is_config_error(tmp_path, capsys):
    # x >= 1 and x <= 0: bounded but empty, with inscribed radius -1/2
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("polytope.dim = 1\npolytope.facet = 1 ; -1\npolytope.facet = -1 ; 0\n")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "interior is empty (inscribed radius -5.000e-01)" in capsys.readouterr().out
    assert not (out / "validate.json").exists()


# The Hirzebruch surface F_1 as a trapezoid, vertices (0,0), (4,0), (2,2), (0,2)
F1_CFG = """\
polytope.dim = 2
polytope.name = hirzebruch-f1
polytope.facet = 1 0 ; 0
polytope.facet = 0 1 ; 0
polytope.facet = 0 -1 ; 2
polytope.facet = -1 -1 ; 4

phi.kind = quadratic
phi.Q = 2 0 0 4

section.t = 0.5,2,10

experiment.lambda = 1 1
experiment.bumps = 1 1 ; 1.2 ; 1.0
experiment.bumps = 2.2 0.4 ; 0.3 ; 1.0
experiment.t_grid = 20:80:2

quad.resolution = 32
quad.tol = 0.0001
quad.max_depth = 2
"""


def test_cli_path_solves_no_lp_and_imports_no_scipy(tmp_path, monkeypatch):
    # boundedness and the Chebyshev radius are closed-form vertex
    # enumerations, every plan is a set of cones over the pulled boundary of
    # P, a non-simplex too, and log-sum-exp is a numpy max shift, so a CLI
    # call neither solves an LP nor imports scipy
    lse = tmp_path / "lse.cfg"
    lse.write_text(LSE_CFG, encoding="utf-8")
    f1 = tmp_path / "f1.cfg"
    f1.write_text(F1_CFG, encoding="utf-8")
    script = f"""
import sys
from toricflow.cli import load_config, main
load_config({str(CP2_CFG)!r}).validate()
for command in ("section-flow", "converge"):
    assert main([command, "--config", {str(CP1_CFG)!r}, "--out", {str(tmp_path)!r}]) == 0
# the log-sum-exp converge errors are not asymptotic by t = 80 (test_surface.py)
for command, code in (("potential-flow", 0), ("section-flow", 0), ("converge", 2)):
    assert main([command, "--config", {str(lse)!r}, "--out", {str(tmp_path / "lse")!r}]) == code
for command in ("validate", "section-flow", "converge"):
    assert main([command, "--config", {str(f1)!r}, "--out", {str(tmp_path / "f1")!r}]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"

    calls = []

    def counting(*a, **kw):
        calls.append(1)
        return linprog(*a, **kw)

    monkeypatch.setattr(polytopes, "linprog", counting)
    argv = ["section-flow", "--config", str(CP2_CFG), "--out", str(tmp_path / "cp2")]
    assert main(argv) == 0
    assert tf.standard_simplex(2, 2.0).validate().ok
    assert calls == []


def test_bad_bump_line_is_config_error():
    # validate() parses the bumps, so a bad radius must be a ConfigError
    cfg = parse_config(MINIMAL + "\nexperiment.bumps = 1.0 ; 0 ; 0.8\n")
    with pytest.raises(ConfigError, match="bump radius must be positive"):
        cfg.validate()


def _key(line: str) -> str:
    return line.split("=", 1)[0].strip()


def _with_values(base: Path, *settings: str) -> str:
    """The config text of `base` with the `key = value` settings appended.
    The settings of a key replace all of its lines in `base`, except for
    phi.perturbation and phi.wavevector, whose settings are added."""
    replaced = {_key(s) for s in settings} - {"phi.perturbation", "phi.wavevector"}
    lines = [line for line in base.read_text().splitlines() if _key(line) not in replaced]
    return "\n".join(lines + list(settings)) + "\n"


def _case_id(v) -> str:
    if isinstance(v, Path):
        return v.name
    if isinstance(v, list):
        return "+".join(s.replace(" = ", "=").replace(" ", "_") for s in v)
    return v


@pytest.mark.parametrize(
    "base,settings,command",
    [
        (CP1_CFG, ["quad.resolution = 2"], "section-flow"),
        (CP1_CFG, ["quad.tol = 0"], "converge"),
        (CP1_CFG, ["quad.max_depth = -1"], "converge"),
        (CP1_CFG, ["section.t = -1,2"], "section-flow"),
        (CP1_CFG, ["flow.t_grid = -1,0,1"], "potential-flow"),
        (CP1_CFG, ["experiment.t_grid = a:b:2"], "converge"),
        (CP2_CFG, ["phi.Q = 1 2 3 4"], "potential-flow"),
        (CP1_CFG, ["phi.perturbation = x ; 1"], "potential-flow"),
        (CP1_CFG, ["flow.sample_points = 0"], "potential-flow"),
        # sample_interior makes at most 100,000 draws
        (CP1_CFG, ["flow.sample_points = 100001"], "potential-flow"),
        (
            CP1_CFG,
            ["phi.kind = log-sum-exp", "phi.wavevector = 1 2", "phi.wavevector = -1 0"],
            "section-flow",
        ),
        (CP1_CFG, ["section.t ="], "section-flow"),
        (CP1_CFG, ["experiment.t_grid ="], "converge"),
        (CP1_CFG, ["experiment.t_grid = 10:nan:2"], "converge"),
        (CP1_CFG, ["flow.t_grid = 0,inf"], "potential-flow"),
        (CP1_CFG, ["experiment.t_grid = 10:inf:2"], "converge"),
        (CP1_CFG, ["experiment.t_grid = 10:20:1.0000000000000002"], "converge"),
        (CP1_CFG, ["experiment.t_grid = 10:1000:1.000001"], "converge"),
        (CP1_CFG, ["quad.tol = nan"], "section-flow"),
        (CP1_CFG, ["experiment.t_grid = 10"], "converge"),
        (CP1_CFG, ["experiment.t_grid = 1,100"], "converge"),
        (
            CP1_CFG,
            [
                "phi.kind = log-sum-exp", "phi.weights = 1 2 3",
                "phi.wavevector = 1", "phi.wavevector = -1",
            ],
            "section-flow",
        ),
        (CP1_CFG, ["experiment.mode = bogus"], "converge"),
        (CP1_CFG, ["polytope.facet = 2 ; 0", "polytope.facet = -1 ; 2"], "section-flow"),
        (CP1_CFG, ["polytope.facet = 0 ; 0", "polytope.facet = -1 ; 2"], "section-flow"),
        (CP1_CFG, ["polytope.facet = 1 ; 0", "polytope.facet = -1 ; nan"], "section-flow"),
        (CP1_CFG, ["polytope.facet = 1 ; 0", "polytope.facet = -1 ; inf"], "section-flow"),
        (CP1_CFG, ["experiment.bumps = nan ; 1 ; 1"], "converge"),
        (CP1_CFG, ["experiment.bumps = 1 ; nan ; 1"], "converge"),
        (CP1_CFG, ["experiment.bumps = 1 ; 1 ; inf"], "converge"),
        (CP1_CFG, ["phi.c = nan"], "potential-flow"),
        (CP1_CFG, ["phi.b = inf"], "potential-flow"),
        (CP1_CFG, ["phi.Q = inf"], "potential-flow"),
        (CP1_CFG, ["phi.perturbation = 1 ; nan"], "potential-flow"),
        (CP1_CFG, ["section.lambda = 1 1"], "section-flow"),
        (CP1_CFG, ["experiment.lambda = 1.5"], "converge"),
        (CP1_CFG, ["phi.b = 1 2"], "potential-flow"),
        (CP1_CFG, ["phi.perturbation = 1 ; 1 2"], "potential-flow"),
        (
            CP1_CFG,
            ["phi.kind = log-sum-exp", "phi.wavevector = 1", "phi.wavevector = 1 2"],
            "section-flow",
        ),
        (CP1_CFG, ["polytope.facet = 1 ; 0", "polytope.facet = -1 ; 2 ; 3"], "section-flow"),
        (CP1_CFG, ["experiment.bumps = 1 ; 0.5 ; 1 ; 0.2 ; 3"], "converge"),
        # no prequantum line bundle: a lattice polytope has integer offsets
        (CP1_CFG, ["polytope.facet = 1 ; 0", "polytope.facet = -1 ; 2.5"], "section-flow"),
    ],
    ids=_case_id,
)
def test_cli_malformed_value_is_config_error(tmp_path, capsys, base, settings, command):
    # every malformed value is caught by validate() before any artifact is written
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with_values(base, *settings))
    for sub in ("validate", command):
        out = tmp_path / sub
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().out.startswith("config error:")
        assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_cli_potential_flow_nan_residual_fails(tmp_path, capsys):
    # at t = 1e308 the flowed potentials overflow; the NaN residual rows must
    # fail the run, not vanish from its maximum
    cfg = tmp_path / "huge_t.cfg"
    cfg.write_text(_with_values(CP1_CFG, "flow.t_grid = 0,1e308"))
    assert main(["potential-flow", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out.endswith("FAIL\n")
    assert "nan" in (tmp_path / "potential_flow.csv").read_text()
    verdict = _verdict(tmp_path, "potential_flow")
    assert not verdict["pass"] and np.isnan(verdict["checks"][-1]["residual"])


def test_cli_converge_past_grid_resolution_is_numerical_failure(tmp_path, capsys):
    # at t = 1e11 the exponent t f_lam of the density rounds at about
    # t * 1e-16: the masses carry noise near 1e-6, and refinement stagnates
    cfg = tmp_path / "huge_t.cfg"
    cfg.write_text(_with_values(CP1_CFG, "experiment.t_grid = 1e11,1e12"))
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out.startswith("numerical failure:")


@pytest.mark.parametrize("sub", ["validate", "section-flow"])
def test_cli_oversized_grid_is_config_error(tmp_path, run_capped, sub):
    # 2.5e7 nodes at the first level and 4e8 at depth 2: every subcommand
    # refuses the config before it allocates a grid, as `validate` does
    cfg = tmp_path / "huge_grid.cfg"
    cfg.write_text(_with_values(CP2_CFG, "quad.resolution = 5000"))
    argv = [sub, "--config", str(cfg), "--out", str(tmp_path)]
    done = run_capped(f"import sys\nfrom toricflow.cli import main\nsys.exit(main({argv!r}))")
    assert done.returncode == 1, done.stderr
    assert done.stdout.startswith("config error: quad: the finest grid")
    assert "a grid of 400000000 nodes exceeds the cap of 16777216" in done.stdout


def test_cli_plan_over_the_cap_is_config_error(tmp_path, capsys, monkeypatch):
    # config sizes P's plain grid, 64^2 nodes at max_depth 0, which meets the
    # lowered cap; the run's cones from each weight hold more, and that too
    # is a quad spec too fine for the run: one config error line, no artifact
    monkeypatch.setattr(polytopes, "_MAX_GRID_NODES", 64**2)
    cfg = tmp_path / "cap.cfg"
    cfg.write_text(_with_values(CP2_CFG, "quad.resolution = 64", "quad.max_depth = 0"))
    out = tmp_path / "out"
    assert main(["section-flow", "--config", str(cfg), "--out", str(out)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 and printed[0].startswith("config error: a grid of ")
    assert printed[0].endswith(" nodes exceeds the cap of 4096")
    assert list(out.iterdir()) == []


def test_cli_validate_witness_is_plain_floats(tmp_path):
    cfg = tmp_path / "concave.cfg"
    cfg.write_text(_with_values(CP1_CFG, "phi.Q = -1"))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    issues = _verdict(tmp_path, "validate")["issues"]
    # the first node that validate scans, 2 * 0.0198550717512319 / 8
    assert issues == ["phi is not strictly convex (min eig -1.000e+00 at [0.004963767937807978])"]


@pytest.mark.parametrize("sub", ["potential-flow", "section-flow", "gluing", "lift"])
def test_cli_indefinite_metric_is_numerical_failure(tmp_path, capsys, sub):
    # G_t = G_0 - t is indefinite near x = 1 once t > 1, so J_t is no Kahler
    # structure there; every check evaluated at such a point must refuse
    cfg = tmp_path / "concave.cfg"
    cfg.write_text(_with_values(CP1_CFG, "phi.Q = -1"))
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("numerical failure: G_t is not positive definite at t = ")
    assert not list(out.iterdir())


# exp(250 x3) overflows for x3 > 2.84, so phi's Hessian is inf - inf = NaN there
NAN_HESSIAN_3D = """
polytope.dim = 3
polytope.facet = 1 0 0 ; 0
polytope.facet = 0 1 0 ; 0
polytope.facet = 0 0 1 ; 0
polytope.facet = -1 -1 -1 ; 4
phi.kind = quadratic
phi.Q = 2 0 0 0 3 0 0 0 4
phi.perturbation = -1 ; 0 0 250
phi.perturbation = 1 ; 0 0 250
quad.resolution = 8
quad.max_depth = 2
"""


def test_cli_validate_non_finite_hessian_is_a_failure(tmp_path, capsys):
    # no RuntimeWarning is filtered here: the overflow of the scan must not warn
    cfg = tmp_path / "nan3d.cfg"
    cfg.write_text(NAN_HESSIAN_3D)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    report = _verdict(tmp_path, "validate")
    assert not report["pass"] and np.isnan(report["checks"][0]["residual"])
    assert capsys.readouterr().err == ""
    # the witness is the first grid point, in validate's scan order, whose
    # Hessian is not finite: 32 nodes per axis per unit of the size-4 simplex
    exp = parse_config(NAN_HESSIAN_3D).validate()
    blocks = (pts for pts, _ in exp.poly.grid_cells(32 * 4).blocks(2**14))
    with np.errstate(over="ignore", invalid="ignore"):
        first = next(pts[bad][0] for pts in blocks
                     if (bad := ~np.isfinite(exp.phi.hess(pts)).all(axis=(-2, -1))).any())
    assert report["issues"] == [f"phi's Hessian is not finite at {first.tolist()}"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "sub", ["potential-flow", "section-flow", "gluing", "lift", "polarization"]
)
def test_cli_non_finite_metric_is_numerical_failure(tmp_path, capsys, sub):
    # exp(800 x) overflows for x > 0.89, where G_t is inf - inf = NaN
    cfg = tmp_path / "nan1d.cfg"
    cfg.write_text(_with_values(
        CP1_CFG, "phi.perturbation = -1 ; 800", "phi.perturbation = 1 ; 800"
    ))
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
    said = capsys.readouterr().out
    if sub == "polarization":
        assert said.startswith("numerical failure: G_t is not finite at t = 10, x = [")
    else:
        assert said.startswith("numerical failure: G_t is not positive definite at t = ")
        assert said.endswith("(min eigenvalue nan)\n")
    assert not list(out.iterdir())


def test_cli_report_fails_after_failed_validate(tmp_path):
    # a validate FAIL is recorded in validate.json, so the report fails too
    cfg = tmp_path / "concave.cfg"
    cfg.write_text(_with_values(CP1_CFG, "phi.Q = -1"))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert _verdict(tmp_path, "validate")["pass"] is False
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert json.loads((tmp_path / "summary.json").read_text())["pass"] is False


def test_cli_paper_form_rows_are_consistent(tmp_path):
    # paper-form only records the torus weight W = 2 pi; every row still
    # compares the pairing with the fiber value H(lambda) it prints
    cfg = tmp_path / "paper.cfg"
    cfg.write_text(_with_values(CP1_CFG, "experiment.mode = paper-form"))
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert rows[0] == "lambda,bump_id,t,pairing,fiber_value,abs_error"
    for row in rows[1:]:
        pairing, fiber_value, abs_error = (float(v) for v in row.split(",")[3:])
        assert abs_error == abs(pairing - fiber_value)
    assert rows[1].split(",")[4] == "1"
    report = _verdict(tmp_path, "converge")
    assert report["mode"] == "paper-form"
    assert report["W_lambda"] == 2 * np.pi
