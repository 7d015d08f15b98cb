"""Plain-text experiment configuration.

Grammar: one `dotted.key = value` per line, `#` comments, blank lines
ignored.  Unknown keys are rejected.  Multi-valued keys (one entry per line,
order preserved):

    polytope.facet     = n1 n2 ... nk ; c        integer normal, real offset
    phi.perturbation   = a ; k1 k2 ... kn        a * exp(k.x) added to phi
    phi.wavevector     = k1 k2 ... kn            log-sum-exp summand
    section.lambda     = l1 l2 ... ln            weight lattice point
    experiment.bumps   = c1 .. cn ; r ; h [; p]  bump center/radius/height[/plateau]

Scalar keys:

    polytope.dim, polytope.name
    phi.kind (quadratic | log-sum-exp), phi.Q (row-major), phi.b, phi.c,
    phi.weights
    flow.t_grid, flow.sample_points
    section.t
    gauge.check_tolerance
    experiment.lambda, experiment.t_grid, experiment.mode
    quad.resolution, quad.tol, quad.max_depth

t-grids are either comma lists `0,0.5,1` or geometric `start:stop:factor`;
every time is finite and a grid holds at least one; a geometric grid holds at
most 10,000.

`ExperimentConfig.validate()` is the only parser: it reads every key once,
checks it, and returns a frozen `Experiment` that every subcommand reads.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .convergence import BumpProfile, FiberMeasureModel
from .errors import ConfigError
from .flow import SymplecticPotential, fit_window
from .polytopes import DelzantPolytope, Facet
from .potentials import (
    ConvexPotential,
    ExponentialTerm,
    LogSumExpPotential,
    PerturbedQuadratic,
    QuadraticPotential,
)
from .quadrature import QuadratureSpec

_SCALAR_KEYS = {
    "polytope.dim",
    "polytope.name",
    "phi.kind",
    "phi.Q",
    "phi.b",
    "phi.c",
    "phi.weights",
    "flow.t_grid",
    "flow.sample_points",
    "section.t",
    "gauge.check_tolerance",
    "experiment.lambda",
    "experiment.t_grid",
    "experiment.mode",
    "quad.resolution",
    "quad.tol",
    "quad.max_depth",
}
_MULTI_KEYS = {
    "polytope.facet",
    "phi.perturbation",
    "phi.wavevector",
    "section.lambda",
    "experiment.bumps",
}


@dataclass(frozen=True)
class Experiment:
    """The model and settings of one CLI call, parsed and checked once.

    A t grid is None when its key is absent, so each subcommand keeps its own
    default.  `weights` holds the `section.lambda` lines (empty when there
    are none), `lam` is None without `experiment.lambda`, and `bumps` is
    empty without `experiment.bumps` lines."""

    poly: DelzantPolytope
    g0: SymplecticPotential
    phi: ConvexPotential
    spec: QuadratureSpec
    flow_t_grid: Optional[tuple[float, ...]]
    section_t: Optional[tuple[float, ...]]
    experiment_t_grid: Optional[tuple[float, ...]]
    sample_points: int
    weights: tuple[tuple[int, ...], ...]
    gauge_tol: float
    lam: Optional[tuple[int, ...]]
    bumps: tuple[BumpProfile, ...]
    mode: FiberMeasureModel


@dataclass
class ExperimentConfig:
    scalars: dict[str, str] = field(default_factory=dict)
    multis: dict[str, list[str]] = field(default_factory=dict)

    # -- primitive accessors --------------------------------------------------

    def _scalar(self, key: str, default=None) -> Optional[str]:
        return self.scalars.get(key, default)

    def _int(self, key: str, default=None) -> Optional[int]:
        raw = self._scalar(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc

    def _float(self, key: str, default=None) -> Optional[float]:
        raw = self._scalar(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number, got {raw!r}") from exc

    def _floats(self, raw: str, key: str) -> list[float]:
        try:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(f"{key} must be a list of numbers, got {raw!r}") from exc

    def _ints(self, raw: str, what: str) -> tuple[int, ...]:
        try:
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"bad {what} {raw!r}") from exc

    # -- parsers ----------------------------------------------------------------

    def _polytope(self) -> DelzantPolytope:
        dim = self._int("polytope.dim")
        if dim is None:
            raise ConfigError("polytope.dim is required")
        lines = self.multis.get("polytope.facet", [])
        if not lines:
            raise ConfigError("at least one polytope.facet line is required")
        facets = []
        for raw in lines:
            if ";" not in raw:
                raise ConfigError(f"facet line {raw!r} needs 'normal ; offset'")
            normal_part, offset_part = raw.split(";", 1)
            try:
                normal = tuple(int(tok) for tok in normal_part.split())
                offset = float(offset_part.strip())
            except ValueError as exc:
                raise ConfigError(f"bad facet line {raw!r}") from exc
            if len(normal) != dim:
                raise ConfigError(
                    f"facet normal {normal} has dimension {len(normal)}, expected {dim}"
                )
            facets.append(Facet(normal, offset))
        return DelzantPolytope(facets, name=self._scalar("polytope.name", ""))

    def _phi(self, dim: int) -> ConvexPotential:
        kind = self._scalar("phi.kind", "quadratic")
        if kind == "quadratic":
            q_raw = self._scalar("phi.Q")
            if q_raw is None:
                Q = np.eye(dim)
            else:
                flat = self._floats(q_raw, "phi.Q")
                if len(flat) != dim * dim:
                    raise ConfigError(
                        f"phi.Q needs {dim * dim} entries (row-major), got {len(flat)}"
                    )
                Q = np.array(flat).reshape(dim, dim)
            b_raw = self._scalar("phi.b")
            b = None if b_raw is None else np.array(self._floats(b_raw, "phi.b"))
            terms = []
            for raw in self.multis.get("phi.perturbation", []):
                if ";" not in raw:
                    raise ConfigError(
                        f"perturbation line {raw!r} needs 'coefficient ; wavevector'"
                    )
                a_part, k_part = raw.split(";", 1)
                with _as_config_error(f"perturbation line {raw!r}"):
                    k = tuple(self._floats(k_part, "phi.perturbation"))
                    terms.append(ExponentialTerm(float(a_part), k))
            with _as_config_error("phi"):
                base = QuadraticPotential(Q, b, self._float("phi.c", 0.0))
                return PerturbedQuadratic(base, terms) if terms else base
        if kind == "log-sum-exp":
            wavevectors = [
                self._floats(raw, "phi.wavevector")
                for raw in self.multis.get("phi.wavevector", [])
            ]
            if not wavevectors:
                raise ConfigError("log-sum-exp phi needs phi.wavevector lines")
            if any(len(k) != dim for k in wavevectors):
                raise ConfigError(f"every phi.wavevector needs {dim} entries")
            w_raw = self._scalar("phi.weights")
            weights = None if w_raw is None else self._floats(w_raw, "phi.weights")
            with _as_config_error("phi"):
                return LogSumExpPotential(wavevectors, weights)
        raise ConfigError(f"unknown phi.kind {kind!r}")

    def _bumps(self) -> tuple[BumpProfile, ...]:
        bumps = []
        for raw in self.multis.get("experiment.bumps", []):
            parts = [p.strip() for p in raw.split(";")]
            if len(parts) not in (3, 4):
                raise ConfigError(
                    f"bump line {raw!r} needs 'center ; radius ; height [; plateau]'"
                )
            center = tuple(self._floats(parts[0], "experiment.bumps"))
            try:
                shape = [float(v) for v in parts[1:]]
                bumps.append(BumpProfile(center, *shape))
            except ValueError as exc:
                raise ConfigError(f"bad experiment.bumps line {raw!r}: {exc}") from exc
        return tuple(bumps)

    def _t_grid(self, key: str) -> Optional[tuple[float, ...]]:
        raw = self._scalar(key)
        if raw is None:
            return None
        ts = parse_t_grid(raw, key)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ConfigError(f"{key} must be strictly increasing")
        if ts[0] < 0:
            raise ConfigError(f"{key} holds the negative time {ts[0]}")
        return tuple(ts)

    def validate(self) -> Experiment:
        """Parse and check every key once, and return the `Experiment` that
        every subcommand of a CLI call reads.

        Checks: the polytope is Delzant, referenced lattice points lie in P,
        every weight and bump center has the polytope's dimension, t grids
        are finite, non-empty and rising and hold no negative time, the
        experiment grid leaves a log-log fit two times, the sample count is
        positive, phi and the quadrature spec build, the fiber mode is known
        and the gauge tolerance is positive and finite."""
        poly = self._polytope()
        poly.require_valid()
        lines = self.multis.get("section.lambda", [])
        weights = tuple(self._ints(raw, "section.lambda line") for raw in lines)
        for lam in weights:
            if len(lam) != poly.dimension:
                raise ConfigError(f"section.lambda {lam} has the wrong dimension")
            if not poly.contains(np.asarray(lam, dtype=float)).inside:
                raise ConfigError(f"section.lambda {lam} lies outside the polytope")
        raw = self._scalar("experiment.lambda")
        lam = None if raw is None else self._ints(raw, "experiment.lambda")
        if lam is not None and len(lam) != poly.dimension:
            raise ConfigError(
                f"experiment.lambda {lam} has dimension {len(lam)}, "
                f"polytope has {poly.dimension}"
            )
        bumps = self._bumps()
        for bump in bumps:
            if len(bump.center) != poly.dimension:
                raise ConfigError(
                    f"experiment.bumps center {bump.center} has dimension "
                    f"{len(bump.center)}, polytope has {poly.dimension}"
                )
        flow_ts = self._t_grid("flow.t_grid")
        experiment_ts = self._t_grid("experiment.t_grid")
        section_ts = self._t_grid("section.t")
        if experiment_ts is not None:
            with _as_config_error("experiment.t_grid"):
                fit_window(experiment_ts)
        sample_points = self._int("flow.sample_points", 20)
        if sample_points < 1:
            raise ConfigError("flow.sample_points must be at least 1")
        phi = self._phi(poly.dimension)
        with _as_config_error("quad"):
            spec = QuadratureSpec(
                resolution=self._int("quad.resolution", 256),
                rel_tol=self._float("quad.tol", 1e-8),
                max_refinements=self._int("quad.max_depth", 3),
            )
        try:
            mode = FiberMeasureModel(self._scalar("experiment.mode", "normalized"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # residual gate of the finite-difference frame-holomorphicity check
        gauge_tol = self._float("gauge.check_tolerance", 1e-8)
        if not (np.isfinite(gauge_tol) and gauge_tol > 0):
            raise ConfigError(
                f"gauge.check_tolerance must be positive and finite, got {gauge_tol}"
            )
        return Experiment(
            poly=poly, g0=SymplecticPotential(poly), phi=phi, spec=spec,
            flow_t_grid=flow_ts, section_t=section_ts, experiment_t_grid=experiment_ts,
            sample_points=sample_points, weights=weights, gauge_tol=gauge_tol,
            lam=lam, bumps=bumps, mode=mode,
        )


@contextmanager
def _as_config_error(section: str):
    """Re-raise a ValueError from parsing or a constructor as a ConfigError
    on `section`; a ConfigError passes through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


_MAX_GRID_TIMES = 10_000


def parse_t_grid(raw: str, key: str = "t_grid") -> list[float]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{key}: geometric grids are 'start:stop:factor'")
        try:
            start, stop, factor = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"{key}: bad geometric grid {raw!r}") from exc
        if not np.isfinite([start, stop, factor]).all():
            raise ConfigError(f"{key}: geometric grid {raw!r} is not finite")
        if start <= 0 or stop < start or factor <= 1:
            raise ConfigError(f"{key}: need 0 < start <= stop and factor > 1")
        # count the times first: a factor a few ulps above 1 never ends in practice
        if (np.log(stop) - np.log(start)) / np.log(factor) >= _MAX_GRID_TIMES:
            raise ConfigError(f"{key}: geometric grid {raw!r} holds over {_MAX_GRID_TIMES} times")
        ts = []
        t = start
        while t <= stop * (1 + 1e-12):
            ts.append(t)
            t *= factor
        return ts
    try:
        ts = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}: bad list {raw!r}") from exc
    if not ts:
        raise ConfigError(f"{key}: the grid holds no time")
    if not np.isfinite(ts).all():
        raise ConfigError(f"{key}: times must be finite, got {raw!r}")
    return ts


def parse_config(text: str) -> ExperimentConfig:
    scalars: dict[str, str] = {}
    multis: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in _MULTI_KEYS:
            multis.setdefault(key, []).append(value)
        elif key in _SCALAR_KEYS:
            if key in scalars:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            scalars[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return ExperimentConfig(scalars, multis)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
