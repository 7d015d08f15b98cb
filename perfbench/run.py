"""Benchmark toricflow's CLI end to end and, with --trace 1, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a toricflow checkout.  Workloads and why each was
chosen are in `workloads.py`; metric names and units in `BENCHMARK.json`.

One process runs one workload from one thread.  An operation is one
in-process `toricflow.cli.main(argv)` call, and every call gets `--seed N`.
Every call rebuilds its polytope, so each pass pays the cache-cold grid cost
a user pays.  A run:

1. runs the planted-defect self-checks of the output checks and span maths;
2. times fresh interpreters that import `toricflow.cli` and load and
   validate the workload's configs (`setup_s`, median of SETUP_REPEATS);
3. makes one untimed warm-up pass, whose artifacts are the reference every
   later pass must reproduce byte for byte;
4. makes timed passes until S seconds are spent, checking every operation;
   every pass and set-up probe is bracketed by the calibration in
   `speed.py`, and the reported times are scaled to its reference speed;
5. with --trace 1, also makes two traced passes and one traced pass at
   `--threads 2`, and reports per-layer metrics from the traced passes.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics, or with
--trace 1 the per-layer ones).  `failed / attempted` is `failed_frac`.
`correct` is false when an operation failed silently (see `checks.py`) or
when the two traced passes disagree on a work count.  A failed self-check
or a directory that is not a toricflow checkout exits non-zero with no
result.  `--workload all` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.name
OUT = Path(".perfbench_out")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
REQUIRED = (
    "BENCHMARK.json",
    "src/toricflow/cli.py",
    "configs/cp1_unit.cfg",
    "configs/cp1_size2.cfg",
    "configs/cp2_size2.cfg",
)


@dataclass
class Pass:
    label: str
    threads: int
    results: list[checks.OpResult]
    spans: list[tracing.Span]
    slowdown: float  # calibration time around the pass over its reference, see speed.py

    @property
    def wall(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def cpu(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def scaled_wall(self) -> float:
        return self.wall / self.slowdown

    @property
    def scaled_cpu(self) -> float:
        return self.cpu / self.slowdown

    @property
    def artifact_bytes(self) -> int:
        return sum(len(data) for r in self.results for data in r.artifacts.values())


def _snapshot(out: Path) -> dict[str, tuple[int, int]]:
    if not out.is_dir():
        return {}
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in out.iterdir() if p.is_file()}


class Runner:
    """Runs passes of one workload's operations in this process."""

    def __init__(self, cli, workload: workloads.Workload, seed: int, run_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self._op_ids = 0
        self._bracket = speed.Bracket()

    def run_pass(self, label: str, threads: int = 1, tracer=None) -> Pass:
        out_root = self.run_dir / label
        results, slowdown = self._bracket.factor(lambda: self._run_ops(out_root, threads, tracer))
        shutil.rmtree(out_root, ignore_errors=True)
        recorded = tracer.take() if tracer is not None else []
        return Pass(label, threads, results, recorded, slowdown)

    def _run_ops(self, out_root: Path, threads: int, tracer) -> list[checks.OpResult]:
        results = []
        for op in self.workload.ops:
            out = out_root / op.group
            before = _snapshot(out)
            if tracer is not None:
                tracer.begin_op(self._op_ids)
            self._op_ids += 1
            exit_code, error = None, ""
            sink = io.StringIO()
            cpu0, wall0 = process_time(), perf_counter()
            try:
                with redirect_stdout(sink):
                    exit_code = self.cli.main(op.argv(out_root, self.seed, threads))
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed operation, not a harness error
                error = f"{type(exc).__name__}: {exc}"
            wall, cpu = perf_counter() - wall0, process_time() - cpu0
            after = _snapshot(out)
            artifacts = {
                name: (out / name).read_bytes()
                for name, stamp in after.items()
                if before.get(name) != stamp
            }
            results.append(checks.OpResult(op, exit_code, error, artifacts, wall, cpu))
        return results

    def timed_passes(self, seconds: float) -> list[Pass]:
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(self.run_pass(f"pass{len(passes) + 1}"))
        return passes


# -- set-up time -------------------------------------------------------------------


def measure_setup(workload: workloads.Workload) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled wall seconds of fresh interpreters that import
    toricflow.cli and load and validate every config of the workload."""
    argv = [sys.executable, str(Path(PERFBENCH) / "setup_probe.py"), *workload.configs()]

    def probe() -> float:
        start = perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
        return perf_counter() - start

    bracket = speed.Bracket()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        elapsed, slowdown = bracket.factor(probe)
        raw.append(elapsed)
        scaled.append(elapsed / slowdown)
    return raw, scaled


# -- reporting --------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def summary(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); quartiles as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def print_sampled(name: str, scaled: list[float], raw: list[float], unit: str) -> float:
    """Print the median of the speed-scaled samples, with quartiles and the
    raw median; return the scaled median."""
    q1, med, q3 = summary(scaled)
    print_metric(name, med, unit, f"median of n={len(scaled)}; q1 {q1:.6g}, q3 {q3:.6g}; "
                 f"raw median {statistics.median(raw):.6g}")
    return med


def load_contract() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def contract_metrics(contract: dict, key: str, values: dict[str, float]) -> dict:
    declared = {m["name"]: m["unit"] for m in contract[key]}
    if set(declared) != set(values):
        raise SystemExit(
            f"metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json {key}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


# -- the run ------------------------------------------------------------------------


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import toricflow.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"toricflow imported from {cli.__file__}, not from this checkout")
    return cli


def check_passes(passes: list[Pass], reference: Pass) -> list[checks.OpResult]:
    """Check every operation; the --threads 2 pass records the thread count
    in its artifacts, so it skips the comparison with the reference."""
    results = []
    for p in passes:
        for result, ref in zip(p.results, reference.results):
            checks.check(result, ref.artifacts if p.threads == 1 else None)
            results.append(result)
    return results


def report_failures(results: list[checks.OpResult]) -> None:
    """One line per distinct failure, with how many operations had it."""
    seen: dict[tuple, int] = {}
    for r in results:
        if r.reasons:
            key = (r.op.label(), r.silent, tuple(r.reasons))
            seen[key] = seen.get(key, 0) + 1
    for (label, silent, reasons), times in seen.items():
        kind = "silent" if silent else "loud"
        print(f"failed op ({kind}, {times}x): {label}: " + "; ".join(reasons))


def per_layer_values(traced: list[Pass], threads2: Pass, untraced_wall: float):
    """Per-layer metrics averaged over the traced single-thread passes, and
    whether their work counts agree exactly."""
    layer = [tracing.layer_metrics(p.spans, p.artifact_bytes) for p in traced]
    counts_repeat = True
    for name in tracing.COUNT_METRICS:
        if len({m[name] for m in layer}) > 1:
            print(f"count differs between traced passes: {name} {[m[name] for m in layer]}")
            counts_repeat = False
    values = {name: statistics.mean(m[name] for m in layer) for name in layer[0]}
    traced_wall = statistics.mean(p.scaled_wall for p in traced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["convergence.threads2_speedup"] = traced_wall / threads2.scaled_wall
    return values, counts_repeat


def run(args, contract: dict) -> dict:
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, ROOT, run_dir / "gen")
        setup_raw, setup = measure_setup(workload) if not args.trace else ([], [])
        cli = import_cli()

        print(f"perfbench workload={workload.name} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("why: " + workload.why)
        print("env: " + json.dumps(environment(), sort_keys=True))
        for path, text in workload.generated.items():
            print(f"generated config {path}:")
            for line in text.splitlines():
                print("  | " + line)

        runner = Runner(cli, workload, args.seed, run_dir)
        warmup = runner.run_pass("warmup")
        timed = runner.timed_passes(args.seconds)
        checked = list(timed)
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = [runner.run_pass(f"traced{i}", 1, tracer) for i in (1, 2)]
                threads2 = runner.run_pass("traced-threads2", 2, tracer)
            checked += [*traced, threads2]
            missing = tracer.missing()
            if missing:
                print("warning: traced functions not found, reported as 0: " + ", ".join(missing))
        results = check_passes(checked, warmup)
        attempted = len(results)
        failed = sum(bool(r.reasons) for r in results)
        silent = sum(r.silent for r in results)
        report_failures(results)

        wall = print_sampled("wall_s", [p.scaled_wall for p in timed], [p.wall for p in timed], "s")
        cpu = print_sampled("cpu_s", [p.scaled_cpu for p in timed], [p.cpu for p in timed], "s")
        print("machine slowdown per pass: " + " ".join(f"{p.slowdown:.3f}" for p in timed))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print_metric("peak_rss_mb", peak, "MB", "peak resident memory of this process")
        print_metric("failed_frac", failed / attempted, "ratio",
                     f"{failed} of {attempted} operations; {silent} silent")
        correct = silent == 0

        if not args.trace:
            setup_s = print_sampled("setup_s", setup, setup_raw, "s")
            values = {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak}
            metrics = contract_metrics(contract, "end_to_end", values)
        else:
            values, counts_repeat = per_layer_values(traced, threads2, wall)
            correct = correct and counts_repeat
            metrics = contract_metrics(contract, "per_layer", values)
            for name, entry in metrics.items():
                print_metric(name, entry["value"], entry["unit"])
            write_spans(args, traced + [threads2])
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def write_spans(args, passes: list[Pass]) -> None:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    origin = min((s.start for p in passes for s in p.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for p in passes:
            for s in p.spans:
                row = s._asdict()
                row["start"] -= origin
                row["end"] -= origin
                row["pass"] = p.label
                fh.write(json.dumps(row) + "\n")
    print(f"spans: {sum(len(p.spans) for p in passes)} written to {path}")


def run_all(args) -> int:
    """Run every workload in its own fresh process, so each has its own
    peak memory; the last line maps each workload to its result."""
    combined = {}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(PERFBENCH) / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        if child.returncode != 0:
            print(f"perfbench: workload {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode
        combined[name] = json.loads(child.stdout.splitlines()[-1])
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"),
                        help="one workload, or all of them, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print("perfbench: not a toricflow checkout, missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    problems = checks.planted_defects() + tracing.self_time_check()
    if problems:
        print("perfbench: self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    result = run(args, load_contract())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
