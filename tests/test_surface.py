"""The product surface: every public function, method and property defined in
src/toricflow is reached by a CLI run, or is allowlisted with the one reason
it stays and the file that needs it.

The probe runs `cli.main` in-process under `sys.setprofile` for every
subcommand on each shipped config, on the benchmark's converge config, on
two generated configs (a log-sum-exp phi, and cp2_size2 without its
`section.lambda` lines), runs `converge` on two cp1_size2 variants (the
benchmark's large-t grid, and `experiment.mode = paper-form`), the four
two-route checks on a third (flow and section times up to t = 1e6) and the
`--corrupt-transition` control, repeats the benchmark's runs among these at
its seed 1, and records the code objects that ran.  A function is reached
when its own `__code__` ran: a comprehension or a nested function is a code
object of its own, so it never counts for the function around it.

`python tests/test_surface.py` prints every unreached function with its line
count and allowlist reason, then the unreached total beside the line count of
src/, and exits 1 on any audit problem or when the unreached lines exceed
UNREACHED_CEILING.

The same runs pin the verdict contract (every verdict is the `checks` rows of
the run's one JSON file) and the artifact manifest: the sha256 of every
`--out` file, committed in `artifact_manifest.json` with the numpy version and
platform it was made on.  `python tests/test_surface.py --write-manifest`
regenerates it, and prints each artifact whose hash was added, removed or
changed.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import io
import json
import platform
import pkgutil
import re
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

import toricflow
from toricflow import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
MANIFEST = Path(__file__).resolve().parent / "artifact_manifest.json"
# the data tables; every verdict is a row of the run's JSON, never a CSV
DATA_TABLES = {"potential_flow.csv", "polarization.csv", "section_norms.csv", "convergence.csv"}
ROW_KEYS = {"check", "lambda", "t", "residual", "tolerance", "pass"}

# A log-sum-exp phi on the size-3 triangle, with the benchmark's converge
# experiment.  Hess phi decays exponentially toward the vertices, so the
# polarization slopes and the converge errors are not yet asymptotic at these
# times: both exit 2 (CHANGES.md, FOUND).
LSE_CFG = """\
polytope.dim = 2
polytope.name = cp2-size3-lse
polytope.facet = 1 0 ; 0
polytope.facet = 0 1 ; 0
polytope.facet = -1 -1 ; 3

phi.kind = log-sum-exp
phi.wavevector = 1 0
phi.wavevector = 0 1
phi.wavevector = -1 -1

experiment.lambda = 1 1
experiment.bumps = 1 1 ; 1.2 ; 1.0
experiment.bumps = 2.2 0.4 ; 0.3 ; 1.0
experiment.t_grid = 20:80:2

quad.resolution = 32
quad.tol = 0.0001
quad.max_depth = 2
"""


LARGE_SECTION_T = "section.t = 0.5,2,10,400,1000,10000,100000,1000000"
LARGE_FLOW_T = "flow.t_grid = 0,0.5,2,10,400,1000,10000,100000,1000000"
# the runs of the large-t variant: the two-route checks
LARGE_T_RUNS = ("potential-flow", "section-flow", "gluing", "lift")


class Run(NamedTuple):
    subcommand: str
    config: str
    flags: tuple[str, ...] = ()


def probe(out: Path, converge_cfg: str, large_t_grid: str) -> tuple[set, dict[Run, int]]:
    """Run every subcommand, `report` last, on every probe config, `converge`
    on the two converge variants, the two-route checks on the large-t
    variant, and the `--corrupt-transition` control,
    then the benchmark's runs among these again with `--seed 1`; return the
    code objects that ran and the exit code of each run."""
    shipped = {p.stem: p.read_text(encoding="utf-8") for p in sorted((ROOT / "configs").glob("*.cfg"))}
    configs = {
        **shipped,
        "cp2_size3_converge": converge_cfg,
        "cp2_size3_lse": LSE_CFG,
        # without section.lambda every subcommand runs over all lattice points of P
        "cp2_size2_all_weights": re.sub(r"(?m)^section\.lambda.*\n", "", shipped["cp2_size2"]),
    }
    # cp1_size2 with the benchmark's large-t grid and with the paper-form fiber
    # weight, both for converge, and with flow and section times where
    # e^{-A_{lam,t}} overflows, for the two-route checks
    variants = {
        "cp1_size2_large_t": re.sub(r"(?m)^experiment\.t_grid.*$", large_t_grid, shipped["cp1_size2"]),
        "cp1_size2_paper_form": re.sub(r"(?m)^experiment\.mode.*$", "experiment.mode = paper-form",
                                       shipped["cp1_size2"]),
        "cp1_size2_large_section_t": re.sub(
            r"(?m)^flow\.t_grid.*$", LARGE_FLOW_T,
            re.sub(r"(?m)^section\.t.*$", LARGE_SECTION_T, shipped["cp1_size2"])),
    }
    runs = []
    for name, text in {**configs, **variants}.items():
        (out / f"{name}.cfg").write_text(text, encoding="utf-8")
        subcommands = (cli._COMMANDS if name in configs
                       else LARGE_T_RUNS if name == "cp1_size2_large_section_t" else ["converge"])
        runs += [Run(sub, name) for sub in subcommands]
    runs.append(Run("gluing", "cp1_size2", ("--corrupt-transition",)))
    # the benchmark's runs again at its seed, 1: the shipped configs, the two
    # converge configs and the control
    benchmark_converge = ("cp2_size3_converge", "cp1_size2_large_t")
    seeded = [run for run in runs if run.config in shipped
              or (run.config in benchmark_converge and run.subcommand == "converge")]
    runs += [run._replace(flags=(*run.flags, "--seed", "1")) for run in seeded]

    reached: set = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    exits = {}
    for run in runs:
        argv = [run.subcommand, "--config", str(out / f"{run.config}.cfg"),
                "--out", str(run_dir(out, run)), *run.flags]
        with redirect_stdout(io.StringIO()):
            sys.setprofile(record)
            try:
                exits[run] = cli.main(argv)
            finally:
                sys.setprofile(None)
    return reached, exits


def run_dir(out: Path, run: Run) -> Path:
    return out / "-".join((run.config, *run.flags))


def artifact_hashes(out: Path) -> dict[str, str]:
    """sha256 of every file the probe's runs wrote under `out`, by relative path."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*/*"))
    }


def build_info() -> dict[str, str]:
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def manifest_problems(out: Path, manifest: dict) -> list[str]:
    """Every artifact whose sha256 differs from the manifest's, or that only
    one side has."""
    got, want = artifact_hashes(out), manifest["sha256"]
    problems = []
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            problems.append(f"{name}: " + ("new" if name not in want else
                                           "missing" if name not in got else "differs"))
    return problems


def public_functions() -> dict[str, object]:
    """Qualified name -> function of every public function, method and
    property getter defined in src/toricflow, module-level hooks such as
    `__getattr__` included."""
    found = {}
    for info in pkgutil.iter_modules(toricflow.__path__):
        mod = importlib.import_module(f"toricflow.{info.name}")
        for attr, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value) and (not attr.startswith("_") or attr.endswith("__")):
                found[f"{info.name}.{attr}"] = value
            elif inspect.isclass(value):
                for mname, member in vars(value).items():
                    fn = member.fget if isinstance(member, property) else member
                    if not mname.startswith("_") and inspect.isfunction(fn):
                        found[f"{info.name}.{attr}.{mname}"] = fn
    return found


# -- the allowlist ------------------------------------------------------------

TRACER = "perfbench/tracing.py binds it (goes with ROADMAP item 1)"
REFERENCE = "a named test compares a CLI-reached function against it"
SUPPORT = "test support"
INTERFACE = "the ConvexPotential interface"


class Keep(NamedTuple):
    """Why an unreached name stays: one reason and the file that needs it,
    `path` or `path::test`; that file must name `token` (default: the last
    part of the allowlisted name)."""

    reason: str
    needed_by: str
    token: Optional[str] = None


# A key is a qualified name, or a class, which covers every public member
# of that class.
ALLOWLIST: dict[str, Keep] = {
    "polytopes.__getattr__": Keep(TRACER, "perfbench/tracing.py", "linprog"),
    "polytopes.validate_delzant": Keep(TRACER, "perfbench/tracing.py"),
    "sections.section_norm_sq": Keep(TRACER, "perfbench/tracing.py"),
    "flow.subspace_angle": Keep(TRACER, "perfbench/tracing.py"),
    "flow.polarization_basis_t": Keep(
        REFERENCE, "tests/test_flow.py::test_polarization_angle_matches_svd_route"),
    "flow.mixed_polarization_basis": Keep(
        REFERENCE, "tests/test_flow.py::test_polarization_angle_matches_svd_route"),
    "flow.flow_map_psi_t": Keep(REFERENCE, "tests/test_flow.py::test_flow_map_theta_unchanged_many"),
    "potentials.legendre_inverse": Keep(REFERENCE, "tests/test_potentials.py::test_legendre_inverse_roundtrip"),
    "sections.pullback_amplitude_log": Keep(
        REFERENCE, "tests/test_sections.py::test_route_equality_grid_is_bit_equal_to_per_t"),
    "sections.WeightSection.amplitude_log": Keep(
        REFERENCE, "tests/test_sections.py::test_route_equality_grid_is_bit_equal_to_per_t"),
    "polytopes.segment": Keep(SUPPORT, "tests/conftest.py"),
    "polytopes.standard_simplex": Keep(SUPPORT, "tests/conftest.py"),
    "polytopes.box": Keep(SUPPORT, "tests/test_polytopes.py::test_vertices_of_box"),
    "polytopes.Grid.points": Keep(SUPPORT, "tests/test_polytopes.py::test_interior_grid_gauss_nodes"),
    "polytopes.Grid.weights": Keep(SUPPORT, "tests/test_polytopes.py::test_interior_grid_gauss_nodes"),
    "polytopes.DelzantPolytope.offsets": Keep(
        SUPPORT, "tests/test_polytopes.py::test_chebyshev_radius_matches_lp_reference"),
    "potentials.CallablePotential": Keep(SUPPORT, "tests/test_sections.py"),
    "potentials.ConvexPotential": Keep(INTERFACE, "src/toricflow/potentials.py"),
    "potentials.ReflectedPotential.hess": Keep(INTERFACE, "src/toricflow/potentials.py"),
    "potentials.ReflectedPotential.describe": Keep(INTERFACE, "src/toricflow/potentials.py"),
}


# Lines of unreached function bodies; lower it when the surface shrinks.
UNREACHED_CEILING = 180


def _covers(key: str, name: str) -> bool:
    return name == key or name.startswith(key + ".")


def _entry(name: str, allowlist: dict[str, Keep]) -> Optional[str]:
    """The allowlist key that covers `name`, or None."""
    return next((key for key in allowlist if _covers(key, name)), None)


def audit(functions: dict, reached: set, allowlist: dict[str, Keep] = ALLOWLIST) -> list[str]:
    """Every unreached public function outside the allowlist, and every
    stale allowlist entry: one that is not defined, is reached, or whose
    named file no longer names it."""
    unreached = {name for name, fn in functions.items() if fn.__code__ not in reached}
    problems = [
        f"{name}: reached by no CLI run and not allowlisted"
        for name in sorted(unreached)
        if _entry(name, allowlist) is None
    ]
    for key, keep in allowlist.items():
        covered = [name for name in functions if _covers(key, name)]
        path, _, test = keep.needed_by.partition("::")
        text = (ROOT / path).read_text(encoding="utf-8") if (ROOT / path).is_file() else ""
        token = keep.token or key.rsplit(".", 1)[-1]
        if not covered:
            problems.append(f"{key}: allowlisted but not defined in src/toricflow")
        elif not unreached.issuperset(covered):
            problems.append(f"{key}: allowlisted but reached by a CLI run")
        if not re.search(rf"(?<!\w){re.escape(token)}(?!\w)", text) or (
            test and not re.search(rf"def {re.escape(test)}\(", text)
        ):
            problems.append(f"{key}: {keep.needed_by} no longer names {token!r}")
    return problems


def unreached_lines(functions: dict, reached: set) -> dict[str, int]:
    """Source line count of every unreached public function, by name."""
    return {name: len(inspect.getsourcelines(fn)[0])
            for name, fn in sorted(functions.items()) if fn.__code__ not in reached}


def ceiling_problems(lines: dict[str, int]) -> list[str]:
    total = sum(lines.values())
    return [f"{total} unreached lines exceed the ceiling of {UNREACHED_CEILING}"
            ] if total > UNREACHED_CEILING else []


# -- tests ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def probe_out(tmp_path_factory):
    return tmp_path_factory.mktemp("surface")


@pytest.fixture(scope="module")
def surface(probe_out):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    return probe(probe_out, workloads.CP2_CONVERGE_CFG, workloads.LARGE_T_GRID)


def test_every_public_function_is_reached_or_allowlisted(surface):
    reached, _ = surface
    assert audit(public_functions(), reached) == []


def test_unreached_lines_stay_under_ceiling(surface):
    reached, _ = surface
    assert ceiling_problems(unreached_lines(public_functions(), reached)) == []


def test_probe_exit_codes(surface):
    _, exits = surface
    assert exits[Run("gluing", "cp1_size2", ("--corrupt-transition",))] == 2
    # the lse slopes and converge errors are not asymptotic by t = 1000 and
    # t = 80, and a 2D polytope has no two-chart gluing model
    expected = {
        "cp2_size3_lse": [0, 0, 0, 2, 1, 0, 2, 2],
        # no experiment.lambda: converge is a config error
        "cp2_size2_all_weights": [0, 0, 0, 0, 1, 0, 1, 0],
    }
    for config, codes in expected.items():
        assert [exits[Run(sub, config)] for sub in cli._COMMANDS] == codes, config
    assert exits[Run("converge", "cp1_size2_large_t")] == 0
    assert exits[Run("converge", "cp1_size2_paper_form")] == 0
    # large times: the checks compare logs, and their tolerances grow with
    # the rounding, like t, so they pass
    for sub in LARGE_T_RUNS:
        assert exits[Run(sub, "cp1_size2_large_section_t")] == 0, sub
    seeded = {run: code for run, code in exits.items() if run.flags[-2:] == ("--seed", "1")}
    assert len(seeded) == 3 * len(cli._COMMANDS) + 3
    for run, code in seeded.items():
        assert code == exits[run._replace(flags=run.flags[:-2])], run


def test_every_verdict_is_the_rows_of_one_json(surface, probe_out):
    _, exits = surface
    for run, code in exits.items():
        stem = "summary" if run.subcommand == "report" else run.subcommand.replace("-", "_")
        path = run_dir(probe_out, run) / f"{stem}.json"
        if code == 1 and run.subcommand != "validate":
            # a configuration error stops the run before any check is judged
            assert not path.exists(), run
            continue
        verdict = json.loads(path.read_text(encoding="utf-8"))
        if run.subcommand == "report":
            assert verdict["pass"] == (code == 0), run
            continue
        assert verdict["pass"] == (verdict["failures"] == 0) == (code == 0), run
        assert verdict["failures"] == sum(not row["pass"] for row in verdict["checks"]), run
        assert verdict["checks"] and all(set(row) == ROW_KEYS for row in verdict["checks"]), run
    tables = {path.name for path in probe_out.glob("*/*.csv")}
    assert tables <= DATA_TABLES and "section_norms.csv" in tables


def test_report_names_the_failing_check(surface, probe_out, tmp_path, capsys):
    control = Run("gluing", "cp1_size2", ("--corrupt-transition",))
    out = tmp_path / "control"
    shutil.copytree(run_dir(probe_out, control), out)
    capsys.readouterr()
    assert cli.main(["report", "--config", str(probe_out / "cp1_size2.cfg"), "--out", str(out)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"{'gluing.json':28s} FAIL gluing", "report: overall FAIL"
    ]


def test_artifacts_match_the_manifest(surface, probe_out):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    pinned, running = manifest["built_with"], build_info()
    if pinned != running:
        pytest.skip(f"manifest made with numpy {pinned['numpy']} on {pinned['platform']}, "
                    f"running numpy {running['numpy']} on {running['platform']}")
    assert manifest_problems(probe_out, manifest) == []


def test_a_one_ulp_edit_fails_the_manifest(surface, probe_out, tmp_path):
    manifest = {"sha256": artifact_hashes(probe_out)}
    copy = tmp_path / "copy"
    shutil.copytree(probe_out, copy)
    table = copy / "cp1_size2" / "potential_flow.csv"
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[1] = "%.17g" % np.nextafter(float(cells[1]), np.inf)
    lines[1] = ",".join(cells)
    table.write_text("".join(lines), encoding="utf-8")
    assert manifest_problems(copy, manifest) == ["cp1_size2/potential_flow.csv: differs"]


def test_a_planted_public_function_fails_the_audit(surface, monkeypatch):
    reached, _ = surface
    sections = importlib.import_module("toricflow.sections")

    def planted(x):
        return x

    planted.__module__ = sections.__name__
    monkeypatch.setattr(sections, "planted", planted, raising=False)
    assert audit(public_functions(), reached) == [
        "sections.planted: reached by no CLI run and not allowlisted"
    ]


def test_a_reached_allowlisted_name_fails_the_audit(surface):
    reached, _ = surface
    allowlist = {**ALLOWLIST, "cli.main": Keep(SUPPORT, "tests/test_surface.py")}
    assert audit(public_functions(), reached, allowlist) == [
        "cli.main: allowlisted but reached by a CLI run"
    ]


@pytest.mark.parametrize("key, keep, problem", [
    ("flow.no_such_function", Keep(SUPPORT, "tests/test_flow.py", "limit_angle"), "not defined"),
    ("polytopes.box", Keep(SUPPORT, "tests/test_flow.py"), "tests/test_flow.py no longer names 'box'"),
    ("polytopes.box", Keep(SUPPORT, "tests/test_polytopes.py::test_gone"), "no longer names"),
])
def test_a_stale_allowlist_entry_fails_the_audit(surface, key, keep, problem):
    reached, _ = surface
    problems = audit(public_functions(), reached, {**ALLOWLIST, key: keep})
    assert len(problems) == 1 and problem in problems[0]


if __name__ == "__main__":
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        reached, exits = probe(Path(tmp), workloads.CP2_CONVERGE_CFG, workloads.LARGE_T_GRID)
        if sys.argv[1:] == ["--write-manifest"]:
            # every artifact whose hash is new, gone or changed, before writing
            old = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.is_file() else {}
            words = {"new": "added", "missing": "removed", "differs": "changed"}
            for problem in manifest_problems(Path(tmp), {"sha256": old.get("sha256", {})}):
                name, _, kind = problem.rpartition(": ")
                print(f"{name}: {words[kind]}")
            manifest = {"built_with": build_info(), "sha256": artifact_hashes(Path(tmp))}
            MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {len(manifest['sha256'])} hashes to {MANIFEST.name}")
            sys.exit(0)
    functions = public_functions()
    lines = unreached_lines(functions, reached)
    for name, count in lines.items():
        key = _entry(name, ALLOWLIST)
        why = f"{ALLOWLIST[key].reason} ({ALLOWLIST[key].needed_by})" if key else "NOT ALLOWLISTED"
        print(f"{name:58s} {count:4d}  {why}")
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((ROOT / "src").rglob("*.py")))
    print(f"{sum(lines.values())} lines of unreached function bodies, of {src_lines} lines in src/")
    problems = audit(functions, reached) + ceiling_problems(lines)
    for problem in problems:
        print("problem:", problem)
    sys.exit(1 if problems else 0)
