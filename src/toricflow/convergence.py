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

This module also fits the log-log decay rates and assembles the report, with
its verdict rows, of one (lam, phi, t-grid) experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import Check, DimensionMismatch, FiberDegenerationError
from .flow import FIT_DECADE, SymplecticPotential, _times, fit_loglog_slope
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


# -- the full experiment --------------------------------------------------------------


# the fiber weight W of each `experiment.mode`, by the polytope's dimension n
FIBER_WEIGHTS = {"normalized": lambda n: 1.0, "paper-form": torus_volume}

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
            # np.minimum and np.max, unlike Python's min and max, keep a NaN, which
            # then fails; one time has no steps, so its final error is judged alone
            falling = (np.minimum(np.max(np.diff(errors)), errors[-1]) if errors.size > 1
                       else errors[-1])
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
    mode: str = "normalized",
) -> ConvergenceReport:
    """Run the weak-convergence experiment for one interior lattice weight.

    For every bump the pairing iota(C_t s_t)(tau) is tracked along the
    increasing t grid against the fiber value; bumps containing lam must show
    errors decreasing to below tolerance with a log-log slope of -1 (first
    Laplace correction), while bumps supported away from lam must vanish.
    Every pairing and log C_t at every t comes from one pass over the grid,
    which evaluates phi and the bumps once per block.  `mode` is a key of
    FIBER_WEIGHTS.
    """
    poly = g0.polytope
    lam = np.asarray(lam, dtype=float)
    if not poly.is_interior(lam):
        raise FiberDegenerationError(
            f"lambda {lam.tolist()} is not interior to the polytope; convergence needs a "
            "regular integral value of the moment map (lambda in t*_{Z,reg})")
    ts = _times(t_grid)
    if not (np.diff(ts) > 0).all():
        raise ValueError("t grid must be strictly increasing")
    if mode not in FIBER_WEIGHTS:
        raise ValueError(f"mode must be {' or '.join(map(repr, FIBER_WEIGHTS))}")
    window = (float(ts.max() / FIT_DECADE), float(ts.max()))

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
        mode=mode,
        t_grid=tuple(float(t) for t in ts),
        log_C_t=tuple(float(v) for v in -np.log(torus_volume(poly.dimension)) - log_masses),
        slope_window=window,
        fiber_weight=float(FIBER_WEIGHTS[mode](poly.dimension)),
        bumps=tuple(bump_reports),
    )

