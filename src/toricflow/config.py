"""Plain-text experiment configuration.

Grammar: one `dotted.key = value` per line, `#` comments, blank lines
ignored.  Unknown keys are rejected, and so is a second line of a scalar
key.  Multi-valued keys (one entry per line, order preserved):

    polytope.facet     = n1 n2 ... nk ; c        integer normal, integer offset
    phi.perturbation   = a ; k1 k2 ... kn        a * exp(k.x) added to phi
    phi.wavevector     = k1 k2 ... kn            log-sum-exp summand
    section.lambda     = l1 l2 ... ln            weight lattice point
    experiment.bumps   = c1 .. cn ; r ; h [; p]  bump center/radius/height[/plateau]

Scalar keys, with the value an absent key takes:

    polytope.dim (required), polytope.name (empty)
    phi.kind (quadratic | log-sum-exp; quadratic), phi.Q (row-major; the
    identity), phi.b (zero), phi.c (0), phi.weights (all 1)
    flow.t_grid (0,0.5,1,5,20), flow.sample_points (20)
    section.t (0.5,2,10)
    experiment.lambda (none; converge needs it), experiment.t_grid
    (10:320:2), experiment.mode (normalized | paper-form; normalized)
    quad.resolution (256), quad.tol (1e-8), quad.max_depth (3): QuadratureSpec,
    whose finest rung has resolution * 2^max_depth Gauss nodes per axis

The numbers of a value are separated by whitespace or commas, and every
real number is finite.  Facet offsets are integers: the prequantum line
bundle L exists only on a lattice polytope.  t-grids are either comma
lists `0,0.5,1` or geometric `start:stop:factor`; a grid holds at least
one time and a geometric grid at most 10,000.

`ExperimentConfig.validate()` is the only parser: it reads every key once,
checks it, and returns a frozen `Experiment` that every subcommand reads.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .convergence import FIBER_WEIGHTS, BumpProfile
from .errors import ConfigError
from .flow import SymplecticPotential, fit_window
from .polytopes import MAX_SAMPLE_DRAWS, DelzantPolytope, Facet
from .potentials import ConvexPotential, LogSumExpPotential, QuadraticPotential
from .quadrature import QuadratureSpec

# Every key: True when it takes one entry per line, False when it takes one line.
_KEYS = {
    "polytope.dim": False, "polytope.name": False, "polytope.facet": True,
    "phi.kind": False, "phi.Q": False, "phi.b": False, "phi.c": False,
    "phi.weights": False, "phi.perturbation": True, "phi.wavevector": True,
    "flow.t_grid": False, "flow.sample_points": False,
    "section.t": False, "section.lambda": True,
    "experiment.lambda": False, "experiment.t_grid": False, "experiment.mode": False,
    "experiment.bumps": True,
    "quad.resolution": False, "quad.tol": False, "quad.max_depth": False,
}
# The keys that Experiment and QuadratureSpec take only when present, so
# that each default is stated once, in their fields.
_T_GRIDS = {"flow.t_grid": "flow_t_grid", "section.t": "section_t",
            "experiment.t_grid": "experiment_t_grid"}
_QUAD = {"quad.resolution": ("resolution", int), "quad.tol": ("rel_tol", float),
         "quad.max_depth": ("max_refinements", int)}


@dataclass(frozen=True)
class Experiment:
    """The model and settings of one CLI call, parsed and checked once.

    `weights` holds the `section.lambda` lines, `lam` is None without
    `experiment.lambda`, and the t grids are potential-flow's, section-flow's
    (also gluing's and lift's) and converge's, each a default without its key."""

    poly: DelzantPolytope
    g0: SymplecticPotential
    phi: ConvexPotential
    spec: QuadratureSpec
    sample_points: int
    weights: tuple[tuple[int, ...], ...]
    lam: Optional[tuple[int, ...]]
    bumps: tuple[BumpProfile, ...]
    mode: str
    flow_t_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 5.0, 20.0)
    section_t: tuple[float, ...] = (0.5, 2.0, 10.0)
    experiment_t_grid: tuple[float, ...] = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)


def _numbers(raw: str, key: str, kind: type = float, count: Optional[int] = None) -> tuple:
    """Every number of `raw` as `kind` (int or float): the one place that
    rejects a malformed, non-finite or miscounted entry."""
    try:
        values = tuple(kind(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{key} must hold {kind.__name__}s, got {raw!r}") from exc
    if kind is float and not np.isfinite(values).all():
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    if count is not None and len(values) != count:
        raise ConfigError(f"{key} {values} has dimension {len(values)}, expected {count}")
    return values


def _fields(raw: str, key: str, shape: str, counts: tuple[int, ...]) -> list[str]:
    """The `;`-separated fields of one line of `key`, as many as one of `counts`."""
    fields = [part.strip() for part in raw.split(";")]
    if len(fields) not in counts:
        raise ConfigError(f"{key} line {raw!r} needs '{shape}'")
    return fields


@dataclass
class ExperimentConfig:
    """The lines of every key of a config, in file order."""

    lines: dict[str, list[str]] = field(default_factory=dict)

    def _get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """The line of the scalar `key`, or `default` without one."""
        return self.lines.get(key, [default])[0]

    def _polytope(self) -> DelzantPolytope:
        raw = self._get("polytope.dim")
        if raw is None:
            raise ConfigError("polytope.dim is required")
        (dim,) = _numbers(raw, "polytope.dim", int, 1)
        lines = self.lines.get("polytope.facet", [])
        if not lines:
            raise ConfigError("at least one polytope.facet line is required")
        facets = []
        for raw in lines:
            normal, offset = _fields(raw, "polytope.facet", "normal ; offset", (2,))
            normal = _numbers(normal, "polytope.facet normal", int, dim)
            (offset,) = _numbers(offset, "polytope.facet offset", float, 1)
            if not offset.is_integer():  # L is prequantum only on a lattice polytope
                raise ConfigError(f"polytope.facet offset {offset:g} is not an integer")
            with _as_config_error(f"polytope.facet {raw!r}"):
                facets.append(Facet(normal, offset))
        return DelzantPolytope(facets, name=self._get("polytope.name", ""))

    def _phi(self, dim: int) -> ConvexPotential:
        kind = self._get("phi.kind", "quadratic")
        if kind == "quadratic":
            raw = self._get("phi.Q")
            Q = np.eye(dim) if raw is None else np.reshape(
                _numbers(raw, "phi.Q", float, dim * dim), (dim, dim))
            raw = self._get("phi.b")
            b = None if raw is None else np.array(_numbers(raw, "phi.b", float, dim))
            (c,) = _numbers(self._get("phi.c", "0"), "phi.c", float, 1)
            terms = []
            for raw in self.lines.get("phi.perturbation", []):
                a, k = _fields(raw, "phi.perturbation", "coefficient ; wavevector", (2,))
                terms.append((_numbers(a, "phi.perturbation", float, 1)[0],
                              _numbers(k, "phi.perturbation wavevector", float, dim)))
            with _as_config_error("phi"):
                return QuadraticPotential(Q, b, c, terms)
        if kind == "log-sum-exp":
            wavevectors = [_numbers(raw, "phi.wavevector", float, dim)
                           for raw in self.lines.get("phi.wavevector", [])]
            if not wavevectors:
                raise ConfigError("log-sum-exp phi needs phi.wavevector lines")
            raw = self._get("phi.weights")
            weights = None if raw is None else _numbers(raw, "phi.weights")
            with _as_config_error("phi"):
                return LogSumExpPotential(wavevectors, weights)
        raise ConfigError(f"unknown phi.kind {kind!r}")

    def _bumps(self, dim: int) -> tuple[BumpProfile, ...]:
        bumps = []
        for raw in self.lines.get("experiment.bumps", []):
            center, *shape = _fields(raw, "experiment.bumps",
                                     "center ; radius ; height [; plateau]", (3, 4))
            center = _numbers(center, "experiment.bumps center", float, dim)
            shape = [_numbers(v, "experiment.bumps", float, 1)[0] for v in shape]
            with _as_config_error(f"experiment.bumps {raw!r}"):
                bumps.append(BumpProfile(center, *shape))
        return tuple(bumps)

    def validate(self) -> Experiment:
        """Parse and check every key once, and return the `Experiment` that
        every subcommand of a CLI call reads.

        Checks: the polytope is Delzant with integer facet offsets,
        referenced lattice points lie in P, every weight and bump center has
        the polytope's dimension, t grids are finite, non-empty and rising
        and hold no negative time, the experiment grid leaves a log-log fit
        two times, the sample count lies in [1, MAX_SAMPLE_DRAWS], every
        real number is finite, phi and the quadrature spec build, and the
        fiber mode is known.  A plan over the grid-size cap is refused where
        a run builds it (cli.main exits 1), not here."""
        poly = self._polytope()
        with _as_config_error("polytope.facet"):
            poly.validate()
        dim = poly.dimension
        weights = tuple(_numbers(raw, "section.lambda", int, dim)
                        for raw in self.lines.get("section.lambda", []))
        for lam in weights:
            if not poly.contains(np.asarray(lam, dtype=float)):
                raise ConfigError(f"section.lambda {lam} lies outside the polytope")
        raw = self._get("experiment.lambda")
        lam = None if raw is None else _numbers(raw, "experiment.lambda", int, dim)
        bumps = self._bumps(dim)
        grids = {name: tuple(parse_t_grid(self.lines[key][0], key))
                 for key, name in _T_GRIDS.items() if key in self.lines}
        if "experiment_t_grid" in grids:
            with _as_config_error("experiment.t_grid"):
                fit_window(grids["experiment_t_grid"])
        (sample_points,) = _numbers(self._get("flow.sample_points", "20"),
                                    "flow.sample_points", int, 1)
        if not 1 <= sample_points <= MAX_SAMPLE_DRAWS:  # sample_interior draws no more
            raise ConfigError(f"flow.sample_points must lie in [1, {MAX_SAMPLE_DRAWS}], "
                              f"got {sample_points}")
        phi = self._phi(dim)
        with _as_config_error("quad"):
            spec = QuadratureSpec(**{name: _numbers(self.lines[key][0], key, kind, 1)[0]
                                     for key, (name, kind) in _QUAD.items() if key in self.lines})
        mode = self._get("experiment.mode", "normalized")
        if mode not in FIBER_WEIGHTS:
            raise ConfigError(f"experiment.mode must be {' or '.join(map(repr, FIBER_WEIGHTS))}")
        return Experiment(
            poly=poly, g0=SymplecticPotential(poly), phi=phi, spec=spec,
            sample_points=sample_points, weights=weights, lam=lam, bumps=bumps, mode=mode,
            **grids,
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
    """The times of a t grid: finite, rising, nonnegative and at least one."""
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{key}: geometric grids are 'start:stop:factor'")
        start, stop, factor = (_numbers(part, key, float, 1)[0] for part in parts)
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
    ts = [_numbers(tok, key, float, 1)[0] for tok in raw.split(",") if tok.strip()]
    if not ts:
        raise ConfigError(f"{key}: the grid holds no time")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConfigError(f"{key} must be strictly increasing")
    if ts[0] < 0:
        raise ConfigError(f"{key} holds the negative time {ts[0]}")
    return ts


def parse_config(text: str) -> ExperimentConfig:
    lines: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines and not _KEYS[key]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        lines.setdefault(key, []).append(value)
    return ExperimentConfig(lines)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
