"""The short subcommands against reference copies of their per-cell CSV
writer and per-t loops: the same bytes, one G_t stack per call."""

import json
from pathlib import Path

import numpy as np
import pytest

import toricflow as tf
from toricflow import cli
from toricflow.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CP1_CFG = CONFIGS / "cp1_size2.cfg"
CP2_CFG = CONFIGS / "cp2_size2.cfg"
SHIPPED = sorted(CONFIGS.glob("*.cfg"))


def _args(command, cfg, out, seed=0):
    return cli.build_parser().parse_args(
        [command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
    )


def _points(exp, seed):
    rng = np.random.default_rng(seed)
    return tf.sample_interior(exp.poly, exp.sample_points, rng, margin=cli._sample_margin(exp.poly))


def _reference_potential_flow_rows(exp, seed):
    """The per-t, per-point rows that potential-flow wrote cell by cell."""
    pts = _points(exp, seed)
    rows = []
    for t in exp.flow_t_grid or [0.0, 0.5, 1.0, 5.0, 20.0]:
        state = tf.KahlerFlowState(exp.g0, exp.phi, t)
        g_vals = state.potential(pts)
        rho = state.kahler_potential(pts)
        rho_leg = state.kahler_potential_legendre(pts)
        resid = np.abs(rho - rho_leg)
        rows += [[t, *x, g_vals[i], rho[i], rho_leg[i], resid[i]] for i, x in enumerate(pts)]
    return rows


def _reference_polarization(exp, seed, ts):
    """Rows, positivity and J^2 residual of polarization's per-t loop."""
    pts = _points(exp, seed)
    n = exp.poly.dimension
    angles, positive, j_resid = [], True, 0.0
    for t in ts:
        G = exp.g0.hess(pts) + t * exp.phi.hess(pts)
        angles.append(np.arctan2(1.0, np.abs(np.linalg.eigvalsh(G)).min(-1)))
        positive = positive and bool(np.linalg.eigvalsh(G).min() > 0)
        J = np.zeros(G.shape[:-2] + (2 * n, 2 * n))
        J[..., :n, n:] = -np.linalg.inv(G)
        J[..., n:, :n] = G
        j_resid = max(j_resid, float(np.max(np.abs(J @ J + np.eye(2 * n)))))
    angles = np.array(angles)
    slopes = tf.fit_loglog_slope(ts, angles).tolist()
    rows = [
        [t, *x, a, slope]
        for x, column, slope in zip(pts, angles.T, slopes)
        for t, a in zip(ts, column)
    ]
    return rows, slopes, positive, j_resid


def test_write_table_matches_csv_cell_rule(tmp_path):
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
               1.0, -3.0, 2.0**53, 1e16, 0.1, 1 / 3, 2.5e-308]
    bits = np.random.default_rng(0).integers(0, 2**64, size=4 * len(special), dtype=np.uint64)
    table = np.concatenate([special, bits.view(np.float64)]).reshape(-1, 4)
    header = ["a", "b", "c", "d"]
    cli._write_table(tmp_path / "table.csv", header, table)
    as_floats = table.tolist()
    # np.float64 cells beside float cells in every row
    mixed = [[v if j % 2 else np.float64(v) for j, v in enumerate(row)] for row in as_floats]
    for name, rows in (("floats", as_floats), ("mixed", mixed)):
        cli._write_csv(tmp_path / f"{name}.csv", header, rows)
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / f"{name}.csv").read_bytes()
    assert (tmp_path / "table.csv").read_text().startswith("a,b,c,d\n-0,0,nan,inf\n-inf,")


def _per_cell_csv(header, rows) -> str:
    """The CSV text of the per-cell writer that `_write_csv`'s row formats replace."""
    def fmt(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return str(bool(v))
        if isinstance(v, (int, float, np.floating, np.integer)):
            return format(float(v), ".17g")
        return str(v)

    return "\n".join([",".join(header), *(",".join(map(fmt, row)) for row in rows)]) + "\n"


def test_write_csv_matches_per_cell_writer(tmp_path):
    floats = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1 / 3, 0.1, 1e308, 2.0**53 + 2]
    cells = [
        True, False, np.True_, np.False_,
        0, -7, 2**53 + 1, 10**20, np.int64(-3), np.uint8(255), np.int32(7),
        *floats, *map(np.float64, floats), np.float32(0.1), np.float16(-0.0), np.float32(np.nan),
        "route-equality", "1 0", "", "-", "%s %d 100%",
    ]
    # every rotation gives another row of cell types; the repeats reuse a format
    rows = [cells[i:] + cells[:i] for i in range(len(cells))] * 2
    rows += [[True, 1, 0.5, "a"], [np.True_, np.int64(1), np.float64(0.5), "a"], ["x"], []]
    header = [f"c{i}" for i in range(len(cells))]
    cli._write_csv(tmp_path / "rows.csv", header, rows)
    assert (tmp_path / "rows.csv").read_text(encoding="utf-8") == _per_cell_csv(header, rows)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cfg", SHIPPED, ids=[c.stem for c in SHIPPED])
def test_potential_flow_csv_matches_per_cell_writer(tmp_path, cfg, seed):
    exp = load_config(cfg).validate()
    assert cli.cmd_potential_flow(exp, tmp_path, _args("potential-flow", cfg, tmp_path, seed)) == 0
    header = (tmp_path / "potential_flow.csv").read_text().splitlines()[0].split(",")
    cli._write_csv(tmp_path / "reference.csv", header, _reference_potential_flow_rows(exp, seed))
    assert (tmp_path / "potential_flow.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cfg", SHIPPED, ids=[c.stem for c in SHIPPED])
def test_polarization_matches_per_t_loop(tmp_path, cfg, seed):
    exp = load_config(cfg).validate()
    assert cli.cmd_polarization(exp, tmp_path, _args("polarization", cfg, tmp_path, seed)) == 0
    verdict = json.loads((tmp_path / "polarization.json").read_text())
    rows, slopes, positive, j_resid = _reference_polarization(exp, seed, verdict["t_grid"])
    header = (tmp_path / "polarization.csv").read_text().splitlines()[0].split(",")
    cli._write_csv(tmp_path / "reference.csv", header, rows)
    assert (tmp_path / "polarization.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    rows = {row["check"]: row for row in verdict["checks"]}
    expected = [tf.Check.within("slope", s, cli.SLOPE_BAND).to_dict() for s in slopes]
    assert [row for row in verdict["checks"] if row["check"] == "slope"] == expected
    assert rows["metric-positive"]["pass"] is positive is True
    assert rows["J-squared"]["residual"] == j_resid


@pytest.fixture
def hess_calls(monkeypatch):
    """Count g0.hess and phi.hess calls (phi of the shipped quadratic kind)."""
    calls = {"g0": 0, "phi": 0}

    def counting(key, hess):
        def wrapped(self, x):
            calls[key] += 1
            return hess(self, x)
        return wrapped

    monkeypatch.setattr(tf.SymplecticPotential, "hess", counting("g0", tf.SymplecticPotential.hess))
    monkeypatch.setattr(tf.QuadraticPotential, "hess", counting("phi", tf.QuadraticPotential.hess))
    return calls


@pytest.mark.parametrize("grid", ["0,0.5,1,5,20", "1:3000:1.5", "2,20,200,2000"])
def test_polarization_evaluates_each_hessian_once(tmp_path, hess_calls, grid):
    # the shipped grid falls back on the 11-time default; the others are fitted
    cfg = tmp_path / "cp2.cfg"
    cfg.write_text(CP2_CFG.read_text().replace("flow.t_grid = 0,0.5,1,5,20", f"flow.t_grid = {grid}"))
    exp = load_config(cfg).validate()
    hess_calls.update(g0=0, phi=0)
    assert cli.cmd_polarization(exp, tmp_path, _args("polarization", cfg, tmp_path)) == 0
    assert len(json.loads((tmp_path / "polarization.json").read_text())["t_grid"]) >= 4
    assert hess_calls == {"g0": 1, "phi": 1}


def test_require_kahler_evaluates_each_hessian_once_per_point_set(hess_calls):
    exp = load_config(CP2_CFG).validate()
    pts = _points(exp, 0)
    for ts in ([1.0], [0.0, 0.5, 2.0], list(np.geomspace(0.1, 1e4, 20))):
        hess_calls.update(g0=0, phi=0)
        cli._require_kahler(exp, ts, pts)
        assert hess_calls == {"g0": 1, "phi": 1}


def test_require_kahler_names_the_first_non_finite_metric(monkeypatch):
    # eigvalsh gives [0, -0] on [[nan, 0], [0, 1]]: the check must see the NaN
    exp = load_config(CP2_CFG).validate()
    pts = _points(exp, 0)
    build = cli.metric_hessians
    cli._require_kahler(exp, [1.0, 2.0], pts)

    def planted(g0, phi, ts, x):
        G = build(g0, phi, ts, x)
        G[-1, [7, 9]] = [[np.nan, 0.0], [0.0, 1.0]]
        return G

    monkeypatch.setattr(cli, "metric_hessians", planted)
    with pytest.raises(tf.ToricFlowError) as err:
        cli._require_kahler(exp, [1.0, 2.0], pts)
    assert str(err.value) == (f"G_t is not positive definite at t = 2, "
                              f"x = {pts[7].tolist()} (min eigenvalue nan)")


@pytest.mark.parametrize("cfg", SHIPPED, ids=[c.stem for c in SHIPPED])
def test_potential_flow_evaluates_values_and_gradients_once(tmp_path, monkeypatch, cfg):
    # 15 value and 10 grad calls on each of g_0 and phi on a 5-time grid before;
    # phi is called twice, once more through concentration_rate for f_0
    calls = {}

    def counting(cls, method):
        original = getattr(cls, method)

        def wrapped(self, x):
            key = f"{cls.__name__}.{method}"
            calls[key] = calls.get(key, 0) + 1
            return original(self, x)

        monkeypatch.setattr(cls, method, wrapped)

    for cls in (tf.SymplecticPotential, tf.QuadraticPotential):
        for method in ("value", "grad"):
            counting(cls, method)
    exp = load_config(cfg).validate()
    assert len(exp.flow_t_grid) == 5
    assert cli.cmd_potential_flow(exp, tmp_path, _args("potential-flow", cfg, tmp_path)) == 0
    assert calls == {
        "SymplecticPotential.value": 1, "SymplecticPotential.grad": 1,
        "QuadraticPotential.value": 2, "QuadraticPotential.grad": 2,
    }


@pytest.mark.parametrize("cfg", [CP1_CFG, CP2_CFG], ids=["cp1", "cp2"])
def test_polarization_nan_in_one_j_fails(tmp_path, monkeypatch, capsys, cfg):
    # a NaN J^2 residual at one time must fail the run, not vanish from a max
    assert cli.main(["polarization", "--config", str(cfg), "--out", str(tmp_path / "clean")]) == 0
    build = cli.complex_structure_of

    def planted(G):
        J = build(G)
        J[3] = np.nan
        return J

    monkeypatch.setattr(cli, "complex_structure_of", planted)
    assert cli.main(["polarization", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out.endswith("1 failures FAIL\n")
    verdict = json.loads((tmp_path / "polarization.json").read_text())
    (j_squared,) = [row for row in verdict["checks"] if row["check"] == "J-squared"]
    assert not verdict["pass"] and not j_squared["pass"] and np.isnan(j_squared["residual"])
