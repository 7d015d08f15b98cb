"""The benchmark's set-up probe loads and validates every config it times;
a change to `validate()`'s contract must fail here, not only as a missing
`setup_s` sample under `perfbench/run.py`."""

from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"


def test_setup_probe_validates_benchmark_configs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import setup_probe
    import workloads

    generated = tmp_path / "cp2_size3_converge.cfg"
    generated.write_text(workloads.CP2_CONVERGE_CFG, encoding="utf-8")
    shipped = [str(REPO / "configs" / f"{c}.cfg") for c in ("cp1_unit", "cp1_size2", "cp2_size2")]
    assert setup_probe.main([*shipped, str(generated)]) == 0
