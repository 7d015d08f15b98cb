"""Error-controlled integration over polytope interiors.

Composite midpoint rule on the simplicial cell decomposition, with one level
of Richardson extrapolation and refinement by resolution doubling.  The open
(midpoint) rule matters here: the integrands of interest are continuous up to
the boundary but not smooth there (Guillemin-type l log l behavior), so
integrands are never evaluated on the boundary itself.

The grid comes from `DelzantPolytope.grid_cells` as a plan: the congruent
sub-simplices of a Kuhn-subdivided triangulation of P, with exact volumes.
On such a grid the midpoint error of a smooth integrand expands in powers of
h (Lyness-Puri), led by the h^2 term that Richardson's (4 fine - coarse)/3
removes; measured on the 2-simplex, the extrapolated error falls 16x per
doubling.  Sharply peaked integrands (the Laplace densities e^{-t f_lam})
use the same grid: once the cells resolve the peak width, resolution
doubling converges on them like on any smooth integrand, and the difference
of two resolutions is the error estimate.

The integrand is evaluated on consecutive blocks of grid points, each built
by `Grid.blocks` when it is reached and dropped once it is summed, so no
whole grid is ever held: 2^14 column-major points for up to 4 fields, and
fewer, a power of two, for more, so a k-field integrand never holds more
than 2^16 values at once.  Each block is reduced by pairwise summation and
the block sums by the same tree; with a power-of-two block this is exactly
one pairwise tree over the whole grid, in a fixed order, so repeated runs
are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import QuadratureOverflow, QuadratureStagnation
from .polytopes import DelzantPolytope, Grid


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
        if not np.isfinite(self.rel_tol):
            raise ValueError("tolerance must be finite")
        if self.rel_tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be nonnegative")


class QuadratureResult(NamedTuple):
    value: float
    estimate: float


def _pairwise_sum(values: np.ndarray):
    """Deterministic pairwise tree summation along axis 0: a scalar for a
    vector, one sum per column for an (m, k) array."""
    v = np.asarray(values, dtype=float)
    if len(v) == 0:
        return np.zeros(v.shape[1:])
    while len(v) > 1:
        half = len(v) // 2
        head = v[: 2 * half : 2] + v[1 : 2 * half : 2]
        v = np.concatenate([head, v[2 * half :]]) if len(v) % 2 else head
    return v[0]


# Most points, and most values, per integrand call.  Blocks are powers of
# two, so the per-block trees and the tree over the block sums make up
# exactly one _pairwise_sum over the column.
_BLOCK = 2**14
_BLOCK_VALUES = 2**16


def _weighted_sums(matrix_f, k: int, grid: Grid) -> np.ndarray:
    """Column sums of f(points) * volumes over the grid, evaluating f on each
    block of at most _BLOCK points and _BLOCK_VALUES values as soon as it is
    built, so neither the grid nor the (m, k) value matrix is held whole."""
    block = _BLOCK
    while block > 1 and block * k > _BLOCK_VALUES:
        block //= 2
    block_sums = []
    for pts, vol in grid.blocks(block):
        vals = np.asarray(matrix_f(pts), dtype=float)
        if vals.shape != (len(pts), k):
            raise ValueError(f"integrand must map (m, n) points to (m, {k}) values")
        block_sums.append(_pairwise_sum(vals * vol[:, None]))
    return _pairwise_sum(np.array(block_sums))


def integrate_many(
    matrix_f,
    k: int,
    poly: DelzantPolytope,
    spec: QuadratureSpec = QuadratureSpec(),
    group: Optional[int] = None,
) -> list[QuadratureResult]:
    """Integrate k scalar fields sharing one evaluation grid.

    `matrix_f` maps (m, n) points to (m, k) values; it is called on blocks of
    at most _BLOCK points and _BLOCK_VALUES values.  Every field gets its own
    Richardson value and estimate.  The fields come in consecutive groups of
    `group` (default k, one group), and the first field of each group is its
    reference (e.g. a density the others are moments of): a group is frozen
    at the first level where its reference meets the tolerance, only groups
    still refining are checked for finiteness, and stagnation is judged on
    the references.  The results are those of k / group separate calls, one
    per group; `group=1` judges every field on its own.
    """
    group = k if group is None else group
    if group < 1 or k % group:
        raise ValueError(f"group size {group} does not divide {k} fields")
    res = spec.resolution
    # column j is judged by column judge[j], the first column of its group
    judge = np.arange(k) // group * group

    def sums(resolution: int) -> np.ndarray:
        return _weighted_sums(matrix_f, k, poly.grid_cells(resolution))

    def richardson(coarse: np.ndarray, fine: np.ndarray, refining: np.ndarray):
        values, estimates = (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse)
        bad = refining & ~(np.isfinite(values) & np.isfinite(estimates))
        if bad.any():
            j = int(np.argmax(bad))
            raise QuadratureOverflow(
                f"non-finite quadrature value {values[j]:.3e} in column {j} "
                f"(estimate {estimates[j]:.3e})"
            )
        return values, estimates

    def good(v, e):
        return (e <= spec.rel_tol * np.maximum(np.abs(v), 1e-300))[judge]

    coarse, fine = sums(res), sums(2 * res)
    values, estimates = richardson(coarse, fine, np.ones(k, dtype=bool))
    done = good(values, estimates)

    first_estimates = estimates.copy()
    refinements = 0
    while not done.all() and refinements < spec.max_refinements:
        refinements += 1
        res *= 2
        coarse, fine = fine, sums(2 * res)
        new_values, new_estimates = richardson(coarse, fine, ~done)
        values[~done], estimates[~done] = new_values[~done], new_estimates[~done]
        done |= good(values, estimates)

    # transient growth is normal while a narrow feature is still unresolved,
    # so stagnation is judged over the whole refinement history: anything
    # converging at least first-order shrinks by 2x per round
    stagnated = ~done & (judge == np.arange(k))
    stagnated &= estimates > first_estimates * 0.6**refinements
    if stagnated.any():
        j = int(np.argmax(stagnated))
        raise QuadratureStagnation(
            f"error estimate of column {j} stagnated at {estimates[j]:.3e} "
            f"(value {values[j]:.12e})",
            values[j],
            estimates[j],
        )
    return [QuadratureResult(float(v), float(e)) for v, e in zip(values, estimates)]

