"""The benchmark's workloads: which CLI invocations one pass makes.

An operation is one `toricflow.cli.main(argv)` call.  Operations of a group
share one `--out` directory, so a group's `report` merges that group's
verdicts.  Configs that are not shipped in `configs/` are generated into the
run directory; their text is recorded with every result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# The size-3 simplex with three bumps: two cover lambda = (1, 1), one is
# disjoint.  The t grid stops at 80 to keep a pass short; large t is
# exercised by the check-sweep control instead.
CP2_CONVERGE_CFG = """\
# CP^2 model on the 2-simplex of size 3, interior weight (1, 1).
polytope.dim = 2
polytope.name = cp2-size3
polytope.facet = 1 0 ; 0
polytope.facet = 0 1 ; 0
polytope.facet = -1 -1 ; 3

phi.kind = quadratic
phi.Q = 2 0 0 4

experiment.lambda = 1 1
experiment.bumps = 1 1 ; 1.2 ; 1.0
experiment.bumps = 1.1 0.9 ; 1.4 ; 0.8
experiment.bumps = 2.2 0.4 ; 0.3 ; 1.0
experiment.t_grid = 20:80:2
experiment.mode = normalized

quad.resolution = 32
quad.tol = 0.0001
quad.max_depth = 2
"""

LARGE_T_GRID = "experiment.t_grid = 10:1280:2"

WHY = {
    "cp2-section-flow": (
        "CP^2 section-flow on the shipped config: most of a pass builds cut-cell "
        "grids on the plain, non-peaked quadrature path, and the grid lists set "
        "peak memory"
    ),
    "cp2-converge": (
        "CP^2 converge with three bumps: most of a pass is Laplace peak-ring "
        "quadrature inside integrate_many, and grids are a small share"
    ),
    "check-sweep": (
        "every subcommand on every shipped config plus three controls: short "
        "calls where config parsing, LP validation, pointwise kernels and "
        "principal-angle SVDs dominate"
    ),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the exit code a correct program gives."""

    subcommand: str
    config: str
    group: str
    expect_exit: int = 0
    flags: tuple[str, ...] = ()

    def argv(self, out_root: Path, seed: int, threads: int) -> list[str]:
        return [
            self.subcommand,
            "--config", self.config,
            "--out", str(out_root / self.group),
            "--seed", str(seed),
            "--threads", str(threads),
            *self.flags,
        ]

    def label(self) -> str:
        return " ".join([self.subcommand, self.config, *self.flags])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    generated: dict[str, str]

    def configs(self) -> list[str]:
        """Distinct config paths, in first-use order."""
        return list(dict.fromkeys(op.config for op in self.ops))


NAMES = tuple(WHY)

_ONE_D = ("validate", "potential-flow", "section-flow", "polarization", "gluing", "lift")
_TWO_D = ("validate", "potential-flow", "polarization", "lift")


def _large_t_config(root: Path) -> str:
    """cp1_size2 with its experiment grid extended to t = 1280."""
    lines = (root / "configs" / "cp1_size2.cfg").read_text(encoding="utf-8").splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith("experiment.t_grid")]
    if len(hits) != 1:
        raise ValueError("configs/cp1_size2.cfg needs exactly one experiment.t_grid line")
    lines[hits[0]] = LARGE_T_GRID
    return "\n".join(lines) + "\n"


def build(name: str, root: Path, gen_dir: Path) -> Workload:
    """The workload `name`.  Generated configs are written under `gen_dir`,
    a path relative to the checkout root `root`, as all config paths are."""
    if name == "cp2-section-flow":
        ops = (Op("section-flow", "configs/cp2_size2.cfg", "cp2_size2"),)
        generated = {}
    elif name == "cp2-converge":
        path = str(gen_dir / "cp2_size3_converge.cfg")
        ops = (Op("converge", path, "cp2_size3"),)
        generated = {path: CP2_CONVERGE_CFG}
    elif name == "check-sweep":
        large_t = str(gen_dir / "cp1_size2_large_t.cfg")
        generated = {large_t: _large_t_config(root)}
        cp1_unit, cp1_size2, cp2_size2 = (
            f"configs/{c}.cfg" for c in ("cp1_unit", "cp1_size2", "cp2_size2")
        )
        ops = (
            *(Op(sub, cp1_unit, "cp1_unit") for sub in _ONE_D + ("report",)),
            *(Op(sub, cp1_size2, "cp1_size2") for sub in _ONE_D + ("converge", "report")),
            *(Op(sub, cp2_size2, "cp2_size2") for sub in _TWO_D + ("report",)),
            # planted fault: the flipped transition must be caught (exit 2)
            Op("gluing", cp1_size2, "control_corrupt", 2, ("--corrupt-transition",)),
            # the two-chart model needs a segment: a 2D polytope is a config error
            Op("gluing", cp2_size2, "control_gluing_2d", 1),
            # large t must converge or fail loudly; a correct program passes
            Op("converge", large_t, "control_large_t"),
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    for path, text in generated.items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return Workload(name, WHY[name], ops, generated)
