"""Error-controlled integration over polytope interiors.

Composite midpoint rule on the clipped cell decomposition, with one level of
Richardson extrapolation and refinement by resolution doubling.  The open
(midpoint) rule matters here: the integrands of interest are continuous up to
the boundary but not smooth there (Guillemin-type l log l behavior), so
integrands are never evaluated on the boundary itself.

The grid comes from `DelzantPolytope.grid_cells` as arrays, uniform at each
resolution with boundary cells clipped.  Sharply peaked integrands (the
Laplace densities e^{-t f_lam}) use the same grid: once the cells resolve
the peak width, resolution doubling converges on them like on any smooth
integrand, and the difference of two resolutions is the error estimate.

Accumulation uses pairwise summation in a fixed tree order so repeated runs
are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureOverflow, QuadratureStagnation
from .polytopes import DelzantPolytope


@dataclass(frozen=True)
class QuadratureSpec:
    """Base resolution (cells per unit length), number of refinement
    doublings allowed, and target relative tolerance."""

    resolution: int = 256
    max_refinements: int = 3
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.resolution < 4:
            raise ValueError("resolution must be at least 4")
        if self.rel_tol <= 0:
            raise ValueError("tolerance must be positive")


class QuadratureResult(NamedTuple):
    value: float
    estimate: float


def _pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise tree summation."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    while v.size > 1:
        n = v.size
        half = n // 2
        head = v[: 2 * half : 2] + v[1 : 2 * half : 2]
        v = np.concatenate([head, v[2 * half :]])
    return float(v[0])


def integrate_many(
    matrix_f,
    k: int,
    poly: DelzantPolytope,
    spec: QuadratureSpec = QuadratureSpec(),
) -> list[QuadratureResult]:
    """Integrate k scalar fields sharing one evaluation grid.

    `matrix_f` maps (m, n) points to (m, k) values.  Refinement and the
    stagnation judgment are driven by the first field (the reference, e.g. a
    density all other fields are moments of); every field gets its own
    Richardson value and estimate.
    """
    res = spec.resolution

    def sums(resolution: int) -> np.ndarray:
        grid = poly.grid_cells(resolution)
        vals = np.asarray(matrix_f(grid.points), dtype=float)
        if vals.shape != (len(grid), k):
            raise ValueError(f"integrand must map (m, n) points to (m, {k}) values")
        return np.array([_pairwise_sum(vals[:, j] * grid.volumes) for j in range(k)])

    def richardson(coarse: np.ndarray, fine: np.ndarray):
        values, estimates = (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse)
        if not np.isfinite([values, estimates]).all():
            raise QuadratureOverflow(
                f"non-finite quadrature value {values[0]:.3e} (estimate {estimates[0]:.3e})"
            )
        return values, estimates

    coarse, fine = sums(res), sums(2 * res)
    values, estimates = richardson(coarse, fine)

    def good(v, e):
        return e <= spec.rel_tol * max(abs(v), 1e-300)

    first_estimate = estimates[0]
    refinements = 0
    while not good(values[0], estimates[0]) and refinements < spec.max_refinements:
        refinements += 1
        res *= 2
        coarse, fine = fine, sums(2 * res)
        values, estimates = richardson(coarse, fine)

    # transient growth is normal while a narrow feature is still unresolved,
    # so stagnation is judged over the whole refinement history: anything
    # converging at least first-order shrinks by 2x per round
    if refinements == spec.max_refinements and not good(values[0], estimates[0]):
        if estimates[0] > first_estimate * 0.6**refinements:
            raise QuadratureStagnation(
                f"error estimate stagnated at {estimates[0]:.3e} "
                f"(value {values[0]:.12e})",
                values[0],
                estimates[0],
            )
    return [QuadratureResult(float(v), float(e)) for v, e in zip(values, estimates)]


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    poly: DelzantPolytope,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """Integrate a vectorized scalar field over the polytope.

    Returns the Richardson-extrapolated midpoint value and an error estimate
    from the difference of successive refinements.  Raises
    QuadratureStagnation when refinement stops improving the estimate while
    the tolerance is still unmet, and QuadratureOverflow on a non-finite
    value or estimate.
    """

    def matrix_f(pts):
        return np.asarray(f(pts), dtype=float)[:, None]

    return integrate_many(matrix_f, 1, poly, spec)[0]
