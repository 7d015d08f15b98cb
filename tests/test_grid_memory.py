"""Peak memory of the grid paths: grids are built one block at a time, so an
integral, or validate's convexity scan, holds about one block of points,
never the whole grid.

numpy reports its buffers to tracemalloc, so the traced peak counts every
array the call allocates.  The bounds are 2x to 5x the streamed peaks of
0.98, 2.1 and 4.2 MB; a whole-grid build of the largest plan reads 1.6 MB,
8.3 MB and 201 MB here, on top of the rest."""

import tracemalloc
from pathlib import Path

import numpy as np

import toricflow as tf
from toricflow.cli import main
from toricflow.config import load_config, parse_t_grid

CP2_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "cp2_size2.cfg"


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_section_norms_peak_memory():
    # the 12 sections of the shipped cp2_size2 section-flow: the largest
    # plan is the 36,864-node one of the cones from (1, 1) at resolution 96
    exp = load_config(CP2_CONFIG).validate()
    weights, ts = ((0, 0), (1, 0), (0, 1), (1, 1)), (0.5, 2.0, 10.0)
    lams, pair_ts = [lam for lam in weights for _ in ts], [t for _ in weights for t in ts]
    log_norms, peak = _traced_peak_mb(
        lambda: tf.section_log_norms_sq(exp.g0, exp.phi, lams, pair_ts, exp.spec))
    assert np.isfinite(log_norms).all()
    assert peak < 2.0


def test_converge_3d_peak_memory():
    # the size-4 3-simplex at t <= 80: the finest plan, of the cones from
    # (1, 1, 1) at resolution 16, has 172,032 nodes
    poly = tf.standard_simplex(3, 4.0)
    phi = tf.QuadraticPotential(np.diag([2.0, 3.0, 4.0]))
    bumps = [
        tf.BumpProfile((1.0, 1.0, 1.0), 1.2, 1.0),
        tf.BumpProfile((2.5, 0.4, 0.4), 0.3, 1.0),
    ]
    spec = tf.QuadratureSpec(resolution=8, max_refinements=2, rel_tol=1e-4)
    report, peak = _traced_peak_mb(
        lambda: tf.convergence_experiment(
            np.ones(3), phi, tf.SymplecticPotential(poly), bumps, parse_t_grid("10:80:2"), spec
        )
    )
    assert all(row.passed for row in report.checks)
    assert peak < 10.0


CP3_CFG = """\
polytope.dim = 3
polytope.facet = 1 0 0 ; 0
polytope.facet = 0 1 0 ; 0
polytope.facet = 0 0 1 ; 0
polytope.facet = -1 -1 -1 ; 4
phi.Q = 2 0 0 0 3 0 0 0 4
quad.resolution = 8
quad.max_depth = 2
"""


def test_validate_3d_peak_memory(tmp_path):
    # validate checks phi's convexity on the resolution-128 grid of the
    # size-4 3-simplex, 2,097,152 nodes, one block of 2^14 points at a time
    cfg = tmp_path / "cp3_size4.cfg"
    cfg.write_text(CP3_CFG)
    code, peak = _traced_peak_mb(lambda: main(["validate", "--config", str(cfg), "--out", str(tmp_path)]))
    assert code == 0
    assert peak < 10.0
