"""Peak memory of the quadrature path: grids are built one block at a time, so
an integral holds about one block of points, never the whole grid.

numpy reports its buffers to tracemalloc, so the traced peak counts every
array the call allocates.  The bounds are about 3x the streamed peaks; a
whole-grid build reads 9.2 MB and 133 MB here."""

import tracemalloc
from pathlib import Path

import numpy as np

import toricflow as tf
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
    # the 12 sections of the shipped cp2_size2 section-flow: the finest
    # grid is the 147,456-cell one of resolution 192
    exp = load_config(CP2_CONFIG).validate()
    sections = [
        tf.WeightSection(lam, exp.g0, exp.phi, t)
        for lam in ((0, 0), (1, 0), (0, 1), (1, 1))
        for t in (0.5, 2.0, 10.0)
    ]
    log_norms, peak = _traced_peak_mb(lambda: tf.section_log_norms_sq(sections, exp.spec))
    assert np.isfinite(log_norms).all()
    assert peak < 3.0


def test_converge_3d_peak_memory():
    # the size-4 3-simplex at t <= 80: the finest grid has 128^3 = 2,097,152 cells
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
    assert report.passed
    assert peak < 10.0
