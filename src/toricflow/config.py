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

t-grids are either comma lists `0,0.5,1` or geometric `start:stop:factor`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .convergence import BumpProfile, FiberMeasureModel
from .errors import ConfigError
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


@dataclass
class ExperimentConfig:
    scalars: dict[str, str] = field(default_factory=dict)
    multis: dict[str, list[str]] = field(default_factory=dict)

    # -- primitive accessors --------------------------------------------------

    def _scalar(self, key: str, default=None) -> Optional[str]:
        return self.scalars.get(key, default)

    def _require(self, key: str) -> str:
        if key not in self.scalars:
            raise ConfigError(f"missing required config key {key!r}")
        return self.scalars[key]

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

    # -- builders ---------------------------------------------------------------

    def build_polytope(self) -> DelzantPolytope:
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

    def build_phi(self, dim: Optional[int] = None) -> ConvexPotential:
        kind = self._scalar("phi.kind", "quadratic")
        dim = dim if dim is not None else self._int("polytope.dim")
        if dim is None:
            raise ConfigError("cannot infer dimension for phi")
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

    def quad_spec(self) -> QuadratureSpec:
        with _as_config_error("quad"):
            return QuadratureSpec(
                resolution=self._int("quad.resolution", 256),
                rel_tol=self._float("quad.tol", 1e-8),
                max_refinements=self._int("quad.max_depth", 3),
            )

    def t_grid(self, key: str, default=None) -> list[float]:
        raw = self._scalar(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing t grid {key!r}")
            return list(default)
        return parse_t_grid(raw, key)

    def section_lambdas(self) -> list[tuple[int, ...]]:
        out = []
        for raw in self.multis.get("section.lambda", []):
            try:
                out.append(tuple(int(tok) for tok in raw.replace(",", " ").split()))
            except ValueError as exc:
                raise ConfigError(f"bad section.lambda line {raw!r}") from exc
        return out

    def experiment_lambda(self) -> tuple[int, ...]:
        raw = self._require("experiment.lambda")
        try:
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"bad experiment.lambda {raw!r}") from exc

    def experiment_bumps(self) -> list[BumpProfile]:
        lines = self.multis.get("experiment.bumps", [])
        if not lines:
            raise ConfigError("experiment.bumps lines are required for convergence runs")
        bumps = []
        for raw in lines:
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
        return bumps

    def experiment_mode(self) -> FiberMeasureModel:
        mode = self._scalar("experiment.mode", "normalized")
        try:
            return FiberMeasureModel(mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def gauge_tolerance(self) -> float:
        """Residual gate for the finite-difference frame-holomorphicity check."""
        return self._float("gauge.check_tolerance", 1e-8)

    def validate(self) -> DelzantPolytope:
        """Build the polytope and check it is Delzant, then cross-field
        checks: referenced lattice points lie in P, every weight and bump
        center has the polytope's dimension, t grids rise and hold no
        negative time, sample counts are positive, and phi and the quadrature
        spec build.  Returns the validated polytope, the one every
        subcommand of a CLI call uses."""
        poly = self.build_polytope()
        poly.require_valid()
        for lam in self.section_lambdas():
            if len(lam) != poly.dimension:
                raise ConfigError(f"section.lambda {lam} has the wrong dimension")
            if not poly.contains(np.asarray(lam, dtype=float)).inside:
                raise ConfigError(f"section.lambda {lam} lies outside the polytope")
        if self._scalar("experiment.lambda") is not None:
            lam = self.experiment_lambda()
            if len(lam) != poly.dimension:
                raise ConfigError(
                    f"experiment.lambda {lam} has dimension {len(lam)}, "
                    f"polytope has {poly.dimension}"
                )
        for bump in self.experiment_bumps() if "experiment.bumps" in self.multis else ():
            if len(bump.center) != poly.dimension:
                raise ConfigError(
                    f"experiment.bumps center {bump.center} has dimension "
                    f"{len(bump.center)}, polytope has {poly.dimension}"
                )
        for key in ("flow.t_grid", "experiment.t_grid", "section.t"):
            if self._scalar(key) is not None:
                ts = self.t_grid(key)
                if any(b <= a for a, b in zip(ts, ts[1:])):
                    raise ConfigError(f"{key} must be strictly increasing")
                if ts and ts[0] < 0:
                    raise ConfigError(f"{key} holds the negative time {ts[0]}")
        if self._int("flow.sample_points", 20) < 1:
            raise ConfigError("flow.sample_points must be at least 1")
        self.build_phi(poly.dimension)
        self.quad_spec()
        return poly


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
        if start <= 0 or stop < start or factor <= 1:
            raise ConfigError(f"{key}: need 0 < start <= stop and factor > 1")
        ts = []
        t = start
        while t <= stop * (1 + 1e-12):
            ts.append(t)
            t *= factor
        return ts
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}: bad list {raw!r}") from exc


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
