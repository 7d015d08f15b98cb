"""Delta-concentration of flowed sections onto moment-map fibers.

For an interior lattice weight lam, the flowed section density on the
polytope is proportional to e^{-t f_lam}, with f_lam strictly convex and
minimized exactly at lam.  Normalized by the constant

    C_t = [ (2 pi)^n  int_P e^{-t f_lam(x)} dx ]^{-1}

(the inverse L^1 norm over the manifold, whose Liouville measure pushes
forward to (2 pi)^n times Lebesgue measure on P for a full-rank torus), the
pairing of C_t s_t against a test object with orbit profile H(mu) is

    C_t (2 pi)^n int_P e^{-t f_lam} H dx  -->  H(lam)   as t -> infinity,

a Laplace limit with first correction of order 1/t.  The limiting functional
is the fiber pairing: the torus-average of the integrand over the fiber
mu^{-1}(lam), with unit mass per fiber, which is the limit the C_t
normalization produces.  The experiment compares every pairing with H(lam)
in either fiber mode; the mode only sets the fiber weight W recorded in the
report: 1 for `normalized`, and for `paper-form` the total weight
W = (2 pi)^n of the angular volume form on the fiber, the same for every
interior lattice point.

This module also computes concentration statistics of the normalized density
(mean -> lam, covariance ~ (t Hess phi(lam))^{-1}), fitted log-log decay
rates, and assembles pass/fail reports for one (lam, phi, t-grid) experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, FiberDegenerationError, QuadratureOverflow
from .flow import FIT_DECADE, SymplecticPotential, fit_loglog_slope
from .polytopes import DelzantPolytope
from .potentials import ConvexPotential, concentration_rate
from .quadrature import QuadratureSpec, integrate_many
from .sections import WeightSection, torus_volume


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
        c = np.asarray(self.center)
        if x.shape[-1] != len(c):
            raise DimensionMismatch("bump center dimension mismatch")
        r = np.linalg.norm(x - c, axis=-1) / self.radius
        if self.plateau == 0.0:
            s = np.clip(r**2, 0.0, 1.0)
            return np.where(r < 1.0, self.height * (1 - s) ** 3 * (1 + 2 * s), 0.0)
        u = np.clip((r - self.plateau) / (1.0 - self.plateau), 0.0, 1.0)
        taper = 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
        return self.height * np.where(r < 1.0, taper, 0.0)


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


# -- normalization constant and pairings ------------------------------------------


def _density_moments(
    fs: Sequence,
    poly: DelzantPolytope,
    phi: ConvexPotential,
    lam,
    ts: Sequence[float],
    spec: QuadratureSpec,
) -> tuple[np.ndarray, list[float]]:
    """Integrals of e^{-t f_lam - shift_t} f_i over P for every t of `ts`, in
    one pass over the grid, and the shifts shift_t = -t f_lam(lam) that put
    each peak value at 1.

    Row r of the moments belongs to ts[r]: the bare density's mass, then one
    moment per f_i.  f_lam and the f_i do not depend on t, so each grid block
    evaluates them once and then writes the density and its moments for
    every t.  Each t's columns form one quadrature group whose mass is the
    reference driving its refinement, so every t gets the value it gets on
    its own.  Ratios of the moments need no rescaling back, so they stay
    finite at any t; the unscaled integrals are the moments times e^{shift}.
    Raises QuadratureOverflow when a mass is not positive and finite, as
    when the peak is so narrow that the density underflows on every cell.
    """
    lam = np.asarray(lam, dtype=float)
    ts = [float(t) for t in ts]
    shifts = [t * phi.value(lam) for t in ts]
    width = 1 + len(fs)

    def matrix(pts):
        f = concentration_rate(phi, lam, pts)
        hs = [h(pts) for h in fs]
        # column-major, so every column is written in place, contiguously
        out = np.empty((len(pts), len(ts) * width), order="F")
        for r, (t, shift) in enumerate(zip(ts, shifts)):
            density = np.exp(-t * f - shift, out=out[:, r * width])
            for j, h in enumerate(hs, start=r * width + 1):
                np.multiply(density, h, out=out[:, j])
        return out

    results = integrate_many(matrix, len(ts) * width, poly, spec, group=width)
    moments = np.array([r.value for r in results]).reshape(len(ts), width)
    for t, mass in zip(ts, moments[:, 0]):
        if not 0.0 < mass < np.inf:
            raise QuadratureOverflow(
                f"density mass {mass} at t = {t:g}: the grid does not resolve its peak"
            )
    return moments, shifts


def normalization_Ct(
    lam,
    phi: ConvexPotential,
    poly: DelzantPolytope,
    t: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """C_t = [ (2 pi)^n int_P e^{-t f_lam} dx ]^{-1}; (2 pi)^n is the
    Liouville pushforward density for full toric rank."""
    kappa = torus_volume(poly.dimension)
    ((mass,),), (shift,) = _density_moments([], poly, phi, lam, [t], spec)
    with np.errstate(over="ignore", divide="ignore"):
        C_t = 1.0 / (kappa * (mass * np.exp(shift)))
    if not 0.0 < C_t < np.inf:
        raise QuadratureOverflow(
            f"C_t = {C_t} at t = {t}: e^(t phi(lam)) = e^{shift:.6g} is beyond the float range"
        )
    return C_t


def pairing_iota(
    s_t: WeightSection,
    bump: BumpProfile,
    C_t: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """iota(C_t s_t)(tau) = C_t (2 pi)^n int_P e^{-t f_lam} H dx for the test
    object with orbit profile H."""
    poly = s_t.polytope
    kappa = torus_volume(poly.dimension)
    ((_, moment),), (shift,) = _density_moments([bump], poly, s_t.phi, s_t.lam, [s_t.t], spec)
    with np.errstate(over="ignore", invalid="ignore"):
        value = C_t * kappa * (moment * np.exp(shift))
    if not np.isfinite(value):
        raise QuadratureOverflow(
            f"pairing = {value} at t = {s_t.t}: e^(t phi(lam)) = e^{shift:.6g} "
            "is beyond the float range"
        )
    return value


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
    n = poly.dimension
    radius = 5.0 / np.sqrt(t) if t > 0 else float("inf")

    # one shared grid: first moments, second moments about lam, tail mass
    fs = [lambda p, i=i: p[:, i] - lam[i] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    fs += [lambda p, i=i, j=j: (p[:, i] - lam[i]) * (p[:, j] - lam[j]) for i, j in pairs]
    if np.isfinite(radius):
        fs.append(lambda p: (np.linalg.norm(p - lam, axis=-1) <= radius).astype(float))
    (moments,), _ = _density_moments(fs, poly, phi, lam, [t], spec)
    Z = moments[0]
    first = np.array(moments[1 : 1 + n]) / Z
    mean = lam + first
    cov = np.zeros((n, n))
    for (i, j), raw in zip(pairs, moments[1 + n : 1 + n + len(pairs)]):
        centered = raw / Z - first[i] * first[j]
        cov[i, j] = cov[j, i] = centered
    localized = moments[-1] / Z if np.isfinite(radius) else 1.0
    return ConcentrationStats(
        t=float(t),
        mean=tuple(mean),
        covariance=tuple(tuple(row) for row in cov),
        localized_mass=float(localized),
        radius=float(radius),
    )


# -- the full experiment --------------------------------------------------------------


# the report.json name of each report field that is named differently there
_JSON_NAMES = {
    "lam": "lambda", "phi_descriptor": "phi", "fiber_weight": "W_lambda", "passed": "pass"
}


def _json_fields(report) -> dict:
    """Every field of a report dataclass under its report.json name."""
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
    final_error: float
    slope: Optional[float]
    overlaps_center: bool
    error_decreasing: bool
    slope_ok: bool
    passed: bool


@dataclass(frozen=True)
class ConvergenceReport:
    lam: tuple[float, ...]
    phi_descriptor: str
    mode: str
    t_grid: tuple[float, ...]
    slope_window: tuple[float, float]
    fiber_weight: float
    bumps: tuple[BumpReport, ...]
    passed: bool

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
    Every pairing at every t comes from one pass over the grid, which
    evaluates f_lam and the bumps once per block.
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
    window = (float(ts.max() / FIT_DECADE), float(ts.max()))

    weight = mode.fiber_weight(poly, lam)

    moments, _ = _density_moments(list(bumps), poly, phi, lam, ts, spec)
    pairing_matrix = moments[:, 1:] / moments[:, :1]  # (len(ts), len(bumps))

    bump_reports = []
    for bump_id, bump in enumerate(bumps):
        fiber_value = float(bump(lam))  # the fiber pairing H(lam)
        pairings = pairing_matrix[:, bump_id]
        errors = np.abs(pairings - fiber_value)
        overlaps = fiber_value != 0.0
        decreasing = bool(
            np.all(np.diff(errors) < NOISE_FLOOR) or errors[-1] < NOISE_FLOOR
        )
        slope = None
        slope_ok = True
        if overlaps:
            safe = np.maximum(errors, NOISE_FLOOR * 1e-3)
            slope = fit_loglog_slope(ts, safe)
            slope_ok = SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
            tol = FINAL_ERROR_TOL
        else:
            tol = DISJOINT_ERROR_TOL
        final_error = float(errors[-1])
        passed = bool(final_error < tol and decreasing and slope_ok)
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
                final_error=final_error,
                slope=slope,
                overlaps_center=overlaps,
                error_decreasing=decreasing,
                slope_ok=slope_ok,
                passed=passed,
            )
        )

    return ConvergenceReport(
        lam=tuple(lam),
        phi_descriptor=phi.describe(),
        mode=mode.mode,
        t_grid=tuple(float(t) for t in ts),
        slope_window=window,
        fiber_weight=float(weight),
        bumps=tuple(bump_reports),
        passed=all(b.passed for b in bump_reports),
    )

