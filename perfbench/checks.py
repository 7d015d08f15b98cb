"""Output checks for one CLI operation, and planted defects they must catch.

An operation fails when any of these holds:

* its exit code is not the one a correct program gives;
* a top-level `pass` or `valid` verdict in a JSON artifact disagrees with the
  expected exit code (true for exit 0, false for a planted fault);
* a CSV cell or JSON number in an artifact is NaN or infinite;
* an artifact differs from the same operation's artifact in the run's first
  pass (criterion 11: same seed, byte-identical `--out` files).

A failure is *silent* when the program claimed the expected outcome by its
exit code, or claimed success where a fault was planted, or when output is
not reproducible.  Loud failures (the program reports an error it should not
have) count as failed operations; silent ones also make the run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from workloads import Op


@dataclass
class OpResult:
    op: Op
    exit_code: Optional[int]  # None when the CLI raised
    error: str
    artifacts: dict[str, bytes]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    reasons: list[str] = field(default_factory=list)
    silent: bool = False


def _nonfinite_json(value) -> int:
    if isinstance(value, float):
        return 0 if math.isfinite(value) else 1
    if isinstance(value, dict):
        return sum(_nonfinite_json(v) for v in value.values())
    if isinstance(value, list):
        return sum(_nonfinite_json(v) for v in value)
    return 0


def _nonfinite_csv(text: str) -> int:
    bad = 0
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                bad += not math.isfinite(float(cell))
            except ValueError:
                pass
    return bad


def artifact_problems(name: str, data: bytes, expect_pass: bool) -> list[str]:
    """Verdict and finiteness problems of one artifact."""
    problems = []
    text = data.decode("utf-8", errors="replace")
    if name.endswith(".json"):
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return [f"{name}: not JSON ({exc})"]
        if isinstance(payload, dict):
            for key in ("pass", "valid"):
                if key in payload and bool(payload[key]) != expect_pass:
                    problems.append(f"{name}: {key}={payload[key]}")
        bad = _nonfinite_json(payload)
    elif name.endswith(".csv"):
        bad = _nonfinite_csv(text)
    else:
        bad = 0
    if bad:
        problems.append(f"{name}: {bad} non-finite values")
    return problems


def check(result: OpResult, reference: Optional[dict[str, bytes]]) -> OpResult:
    """Fill in `reasons` and `silent`; `reference` is the first pass's
    artifacts of the same operation, or None to skip the determinism check."""
    op = result.op
    reasons = []
    exit_ok = result.exit_code == op.expect_exit
    if result.exit_code is None:
        reasons.append(f"raised {result.error}")
    elif not exit_ok:
        reasons.append(f"exit {result.exit_code} (expected {op.expect_exit})")
    for name in sorted(result.artifacts):
        reasons.extend(artifact_problems(name, result.artifacts[name], op.expect_exit == 0))
    differs = False
    if reference is not None:
        changed = sorted(
            name
            for name in set(reference) | set(result.artifacts)
            if reference.get(name) != result.artifacts.get(name)
        )
        if changed:
            differs = True
            reasons.append("differs from first pass: " + ", ".join(changed))
    result.reasons = reasons
    result.silent = bool(reasons) and (
        exit_ok or differs or (result.exit_code == 0 and op.expect_exit != 0)
    )
    return result


def planted_defects() -> list[str]:
    """Run the checks on planted defects; returns what they failed to catch."""
    op = Op("lift", "x.cfg", "g")
    good = {"lift.json": b'{"pass": true, "max": 1.5}\n', "lift.csv": b"t,r\n0.5,1e-12\n"}
    # label, result, reference, whether it must fail, whether silently
    cases = [
        ("clean", OpResult(op, 0, "", dict(good)), good, False, False),
        ("wrong exit code", OpResult(op, 2, "", dict(good)), good, True, False),
        ("NaN in a CSV", OpResult(op, 0, "", {**good, "lift.csv": b"t,r\n0.5,nan\n"}),
         None, True, True),
        ("NaN in a JSON", OpResult(op, 0, "", {**good, "lift.json": b'{"max": NaN}\n'}),
         None, True, True),
        ("false verdict", OpResult(op, 0, "", {**good, "lift.json": b'{"pass": false}\n'}),
         None, True, True),
        ("artifact difference", OpResult(op, 0, "", {**good, "lift.csv": b"t,r\n0.5,2e-12\n"}),
         good, True, True),
        ("planted fault passed", OpResult(Op("gluing", "x.cfg", "g", 2), 0, "", {}),
         {}, True, True),
    ]
    problems = []
    for label, result, reference, must_fail, silent in cases:
        check(result, reference)
        if bool(result.reasons) != must_fail or result.silent != silent:
            problems.append(
                f"check misjudged the {label} case: {result.reasons}, silent={result.silent}"
            )
    failed = sum(bool(case[1].reasons) for case in cases)
    if failed != len(cases) - 1:
        problems.append(f"planted defects raised the failed count to {failed}, not {len(cases) - 1}")
    return problems
