"""Delta-concentration of flowed sections onto moment-map fibers.

For an interior lattice weight lam, the flowed section density on the
polytope is proportional to e^{-t f_lam}, with f_lam strictly convex and
minimized exactly at lam.  Normalized by the constant

    C_t = [ (2 pi)^n  int_P e^{-t f_lam(x)} dx ]^{-1}

(the inverse L^1 norm over the manifold, whose Liouville measure pushes
forward to (2 pi)^n times Lebesgue measure on P for a full-rank torus), the
pairing of C_t s_t against a test object with orbit profile H(mu) is

    C_t (2 pi)^n int_P e^{-t f_lam} H dx  -->  H(lam)   as t -> infinity,

a Laplace limit with first correction of order 1/t.  C_t itself leaves the
float range near t phi(lam) = 709, so the experiment reports its log,

    log C_t = -log (2 pi)^n - log m_t - t phi(lam),
    m_t = int_P e^{-t f_lam(x) - t phi(lam)} dx,

with the density scaled by its peak value e^{t phi(lam)} (f_lam >= -phi(lam)),
and each pairing as the ratio int e^{-t f_lam} H / int e^{-t f_lam}, in
which C_t cancels.  The limiting functional is the fiber pairing: the
torus-average of the integrand over the fiber mu^{-1}(lam), with unit mass
per fiber, which is the limit the C_t normalization produces.  The
experiment compares every pairing with H(lam) in either fiber mode; the mode
only sets the fiber weight W recorded in the report: 1 for `normalized`, and
for `paper-form` the total weight W = (2 pi)^n of the angular volume form on
the fiber, the same for every interior lattice point.

This module also computes concentration statistics of the normalized density
(mean -> lam, covariance ~ (t Hess phi(lam))^{-1}), fitted log-log decay
rates, and assembles reports with verdict rows for one (lam, phi, t-grid)
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import Check, DimensionMismatch, FiberDegenerationError
from .flow import FIT_DECADE, SymplecticPotential, fit_loglog_slope
from .polytopes import DelzantPolytope
from .potentials import ConvexPotential
from .quadrature import QuadratureSpec
from .sections import _laplace_moments, torus_volume


# -- test profiles ------------------------------------------------------------


@dataclass(frozen=True)
class BumpProfile:
    """Compactly supported C^2 piecewise-polynomial bump H on the polytope.

    With plateau = 0:  H = height (1 - s)^3 (1 + 2s), s = |x-center|^2/radius^2,
    so H(center) = height and Hess H(center) = -(2 height / radius^2) Id.
    With plateau = p in (0, 1): H equals height inside radius p*radius and
    tapers to zero through the C^2 quintic step.
    """

    center: tuple[float, ...]
    radius: float
    height: float = 1.0
    plateau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        if self.radius <= 0:
            raise ValueError("bump radius must be positive")
        if not (0.0 <= self.plateau < 1.0):
            raise ValueError("plateau must lie in [0, 1)")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != len(self.center):
            raise DimensionMismatch("bump center dimension mismatch")
        # |x - center|^2 column by column, summed in np.linalg.norm's order
        d2 = np.square(x[..., 0] - self.center[0])
        for i in range(1, len(self.center)):
            d2 = d2 + np.square(x[..., i] - self.center[i])
        r = np.sqrt(d2) / self.radius
        # H only on rows with r < 1; one point keeps numpy's scalar powers' bits
        inside = r < 1.0
        rin = r[inside] if np.ndim(r) else r
        if self.plateau == 0.0:
            s = np.clip(rin**2, 0.0, 1.0)
            value, outside = self.height * (1 - s) ** 3 * (1 + 2 * s), 0.0
        else:
            u = np.clip((rin - self.plateau) / (1.0 - self.plateau), 0.0, 1.0)
            value = self.height * (1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2))
            outside = self.height * 0.0  # -0.0 for a negative height
        out = np.full(np.shape(r), outside)
        out[inside] = value
        return out


# -- fiber measures -------------------------------------------------------------


@dataclass(frozen=True)
class FiberMeasureModel:
    """Fiber normalization: `normalized` gives every fiber unit mass;
    `paper-form` uses the angular volume form, whose per-fiber weight is the
    torus volume."""

    mode: str = "normalized"

    def __post_init__(self):
        if self.mode not in ("normalized", "paper-form"):
            raise ValueError("mode must be 'normalized' or 'paper-form'")

    def fiber_weight(self, poly: DelzantPolytope, lam) -> float:
        lam = np.asarray(lam, dtype=float)
        if not poly.is_interior(lam):
            raise FiberDegenerationError(
                f"fiber over {lam.tolist()} degenerates on the boundary"
            )
        if self.mode == "normalized":
            return 1.0
        return torus_volume(poly.dimension)


# -- concentration statistics -------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationStats:
    t: float
    mean: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]
    localized_mass: float       # mass within `radius` = 5/sqrt(t) of the center
    radius: float

    @property
    def covariance_matrix(self) -> np.ndarray:
        return np.asarray(self.covariance)


def concentration_profile(
    lam,
    phi: ConvexPotential,
    poly: DelzantPolytope,
    t: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ConcentrationStats:
    """Moments of the normalized density e^{-t f_lam} / |e^{-t f_lam}|_1.

    All moments share one uniform grid, refined by resolution doubling until
    the mass meets the tolerance; mean -> lam and covariance ~
    (t Hess phi(lam))^{-1}.
    """
    lam = np.asarray(lam, dtype=float)
    if not poly.is_interior(lam):
        raise FiberDegenerationError("concentration center must be interior")
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    n = poly.dimension
    radius = 5.0 / np.sqrt(t) if t > 0 else float("inf")

    # one shared grid: first moments, second moments about lam, tail mass
    fs = [lambda p, i=i: p[:, i] - lam[i] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    fs += [lambda p, i=i, j=j: (p[:, i] - lam[i]) * (p[:, j] - lam[j]) for i, j in pairs]
    if np.isfinite(radius):
        fs.append(lambda p: (np.linalg.norm(p - lam, axis=-1) <= radius).astype(float))
    _, (ratios,) = _laplace_moments(poly, phi, [lam], [t], spec, fs=fs)
    first = ratios[:n]
    mean = lam + first
    cov = np.zeros((n, n))
    for (i, j), raw in zip(pairs, ratios[n : n + len(pairs)]):
        cov[i, j] = cov[j, i] = raw - first[i] * first[j]
    localized = ratios[-1] if np.isfinite(radius) else 1.0
    return ConcentrationStats(
        t=float(t),
        mean=tuple(mean),
        covariance=tuple(tuple(row) for row in cov),
        localized_mass=float(localized),
        radius=float(radius),
    )


# -- the full experiment --------------------------------------------------------------


# the converge.json name of each report field that is named differently there
_JSON_NAMES = {"lam": "lambda", "phi_descriptor": "phi", "fiber_weight": "W_lambda"}


def _json_fields(report) -> dict:
    """Every field of a report dataclass under its converge.json name."""
    return {_JSON_NAMES.get(f.name, f.name): getattr(report, f.name) for f in fields(report)}


@dataclass(frozen=True)
class BumpReport:
    bump_id: int
    center: tuple[float, ...]
    radius: float
    height: float
    plateau: float
    fiber_value: float
    pairings: tuple[float, ...]
    abs_errors: tuple[float, ...]
    slope: Optional[float]
    overlaps_center: bool


@dataclass(frozen=True)
class ConvergenceReport:
    lam: tuple[float, ...]
    phi_descriptor: str
    mode: str
    t_grid: tuple[float, ...]
    log_C_t: tuple[float, ...]
    slope_window: tuple[float, float]
    fiber_weight: float
    bumps: tuple[BumpReport, ...]

    @property
    def checks(self) -> list[Check]:
        """Per bump: the final error below its tolerance, errors that fall (or
        end) within the noise floor, and, for a bump that covers lam, the
        log-log slope inside SLOPE_WINDOW."""
        rows = []
        for b in self.bumps:
            errors, tag = np.asarray(b.abs_errors), f"-bump{b.bump_id}"
            # np.minimum and np.max, unlike Python's min and max, keep a NaN, which then fails
            falling = np.minimum(np.max(np.diff(errors), initial=-np.inf), errors[-1])
            tol = FINAL_ERROR_TOL if b.overlaps_center else DISJOINT_ERROR_TOL
            rows += [Check("final-error" + tag, self.lam, self.t_grid[-1], errors[-1], tol),
                     Check("error-decreasing" + tag, self.lam, None, falling, NOISE_FLOOR)]
            if b.overlaps_center:
                rows.append(Check.within("slope" + tag, b.slope, SLOPE_WINDOW, self.lam))
        return rows

    def to_dict(self) -> dict:
        """Every field of the report and of its bumps, under its JSON name."""
        return {**_json_fields(self), "bumps": [_json_fields(b) for b in self.bumps]}


SLOPE_WINDOW = (-1.15, -0.85)
FINAL_ERROR_TOL = 1e-2
DISJOINT_ERROR_TOL = 1e-6
NOISE_FLOOR = 1e-11


def convergence_experiment(
    lam,
    phi: ConvexPotential,
    g0: SymplecticPotential,
    bumps: Sequence[BumpProfile],
    t_grid: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
    mode: FiberMeasureModel = FiberMeasureModel(),
) -> ConvergenceReport:
    """Run the weak-convergence experiment for one interior lattice weight.

    For every bump the pairing iota(C_t s_t)(tau) is tracked along the
    increasing t grid against the fiber value; bumps containing lam must show
    errors decreasing to below tolerance with a log-log slope of -1 (first
    Laplace correction), while bumps supported away from lam must vanish.
    Every pairing and log C_t at every t comes from one pass over the grid,
    which evaluates phi and the bumps once per block.
    """
    poly = g0.polytope
    lam = np.asarray(lam, dtype=float)
    if not poly.is_interior(lam):
        raise FiberDegenerationError(
            "convergence requires an interior (regular) lattice weight"
        )
    ts = np.asarray(t_grid, dtype=float)
    if not (np.diff(ts) > 0).all():
        raise ValueError("t grid must be strictly increasing")
    if (ts < 0).any():
        raise ValueError("flow time must be nonnegative")
    window = (float(ts.max() / FIT_DECADE), float(ts.max()))

    weight = mode.fiber_weight(poly, lam)

    lams = np.broadcast_to(lam, (len(ts), len(lam)))
    log_masses, pairing_matrix = _laplace_moments(poly, phi, lams, ts, spec, fs=bumps)

    bump_reports = []
    for bump_id, bump in enumerate(bumps):
        fiber_value = float(bump(lam))  # the fiber pairing H(lam)
        pairings = pairing_matrix[:, bump_id]
        errors = np.abs(pairings - fiber_value)
        overlaps = fiber_value != 0.0
        # the floor keeps an error that the quadrature resolves as 0 on the log scale
        slope = fit_loglog_slope(ts, np.maximum(errors, NOISE_FLOOR * 1e-3)) if overlaps else None
        bump_reports.append(
            BumpReport(
                bump_id=bump_id,
                center=bump.center,
                radius=bump.radius,
                height=bump.height,
                plateau=bump.plateau,
                fiber_value=fiber_value,
                pairings=tuple(float(v) for v in pairings),
                abs_errors=tuple(float(v) for v in errors),
                slope=slope,
                overlaps_center=overlaps,
            )
        )

    return ConvergenceReport(
        lam=tuple(lam),
        phi_descriptor=phi.describe(),
        mode=mode.mode,
        t_grid=tuple(float(t) for t in ts),
        log_C_t=tuple(float(v) for v in -np.log(torus_volume(poly.dimension)) - log_masses),
        slope_window=window,
        fiber_weight=float(weight),
        bumps=tuple(bump_reports),
    )

