"""The CLI's numbers do not depend on the memory layout of the grid points:
every `--out` file is the same, byte for byte, on the column-major grid
blocks and on row-major copies of them."""

from pathlib import Path

import numpy as np
import pytest

from toricflow import cli, polytopes

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def cp2_size3_cfg(tmp_path, monkeypatch):
    """The benchmark's generated size-3 CP^2 `converge` config."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    path = tmp_path / "cp2_size3.cfg"
    path.write_text(workloads.CP2_CONVERGE_CFG)
    return path


def _run_all(cfgs, out):
    codes = []
    for cfg in cfgs:
        for sub in ("section-flow", "converge"):
            codes.append(cli.main([sub, "--config", str(cfg), "--out", str(out / cfg.stem)]))
    files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return codes, files


def test_out_files_do_not_depend_on_grid_layout(tmp_path, monkeypatch, capsys, cp2_size3_cfg):
    cfgs = [ROOT / "configs" / "cp2_size2.cfg", ROOT / "configs" / "cp1_size2.cfg", cp2_size3_cfg]
    column_major = _run_all(cfgs, tmp_path / "column_major")
    stdout = capsys.readouterr().out

    blocks = polytopes.Grid.blocks
    layouts = []

    def row_major(grid, rows):
        for points, volumes in blocks(grid, rows):
            points = np.ascontiguousarray(points)
            layouts.append(points.shape[1] == 1 or not points.flags.f_contiguous)
            yield points, volumes

    monkeypatch.setattr(polytopes.Grid, "blocks", row_major)
    row_major_run = _run_all(cfgs, tmp_path / "row_major")
    assert layouts and all(layouts)
    # cp2_size2 has no experiment section, so its converge is a config error
    assert column_major[0] == row_major_run[0] == [0, 1, 0, 0, 0, 0]
    assert len(column_major[1]) >= 10
    assert column_major[1] == row_major_run[1]
    assert capsys.readouterr().out == stdout.replace("column_major", "row_major")
