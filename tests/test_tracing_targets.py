"""The benchmark's tracer binds package functions, methods and parameters by
name; a deletion that breaks one of them must fail here, not only under
`perfbench/run.py --trace 1`."""

from pathlib import Path

import toricflow as tf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        # the grid wrapper binds `clip_depth` by name
        grid = tf.standard_simplex(2).grid_cells(4)
    assert len(grid) == 16
    assert tracer.missing() == []
    assert any(span.name == tracing.GRID for span in tracer.take())
