"""Error-controlled integration over polytope interiors.

One rule: a Gauss-Legendre product rule in collapsed (Duffy) coordinates on
the cones from one point over a pulling triangulation of the boundary of P:
from its first vertex (`grid_cells`) or, for a density peaked at a point,
from the peak with the radial axis graded down to the peak width (`cone_cells`).
Each axis holds panels of about 8 nodes, exact to degree 15, and nodes are
strictly interior, so an integrand that is continuous but not smooth at the
boundary (l log l terms) is never evaluated there.  `integrate_many`
compares the rule at N/2 with the rule at N and doubles N until the
difference, the error estimate, meets the tolerance.

The integrand is evaluated on consecutive blocks of at most 2^12 points,
each built by `Grid.blocks` when reached and dropped once summed, whatever
the number of fields.  Each column of weighted values, and then each column
of block sums, is reduced by numpy's pairwise sum over its own contiguous
memory, so a field's integral does not depend on the fields beside it, and
repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import QuadratureOverflow, QuadratureStagnation
from .polytopes import DelzantPolytope, Grid


@dataclass(frozen=True)
class QuadratureSpec:
    """Base resolution (Gauss nodes per axis on each simplex), number of
    refinement doublings allowed, and target relative tolerance."""

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


# Points per integrand call, whatever the number of fields.
_BLOCK = 2**12


def _weighted_sums(matrix_f, k: int, grid: Grid) -> np.ndarray:
    """Column sums of f(points) * weights over the grid, evaluating f on each
    block of at most _BLOCK points as soon as it is built, so neither the grid
    nor the (m, k) value matrix is held whole."""
    block_sums = []
    for pts, weights in grid.blocks(_BLOCK):
        vals = np.asfortranarray(matrix_f(pts), dtype=float)
        if vals.shape != (len(pts), k):
            raise ValueError(f"integrand must map (m, n) points to (m, {k}) values")
        weighted = np.multiply(vals, weights[:, None], out=np.empty_like(vals, order="F"))
        block_sums.append(np.add.reduce(weighted, axis=0))
    return np.add.reduce(np.asfortranarray(block_sums), axis=0)


def integrate_many(
    matrix_f,
    k: int,
    poly: DelzantPolytope,
    spec: QuadratureSpec = QuadratureSpec(),
    group: Optional[int] = None,
    peak: Optional[tuple] = None,
) -> list[QuadratureResult]:
    """Integrate k scalar fields sharing one evaluation grid.

    `matrix_f` maps (m, n) points to (m, k) values; it is called on blocks of
    at most _BLOCK points of `poly.grid_cells`, or with `peak = (apex,
    width)` of `poly.cone_cells`.  Every field gets its own value, the rule
    at the finest N, and estimate, its distance from the rule at N/2.  The
    fields come in consecutive groups of `group` (default k, one group), and
    the first field of each group is its reference (e.g. a density the
    others are moments of): a group is frozen at the first level where its
    reference meets the tolerance, only groups still refining are checked
    for finiteness, and stagnation is judged on the references.  The results
    are those of k / group separate calls; `group=1` judges every field on
    its own.
    """
    group = k if group is None else group
    if group < 1 or k % group:
        raise ValueError(f"group size {group} does not divide {k} fields")
    # column j is judged by column judge[j], the first column of its group
    judge = np.arange(k) // group * group

    def sums(resolution: int) -> np.ndarray:
        grid = (poly.grid_cells(resolution) if peak is None
                else poly.cone_cells(*peak, resolution))
        return _weighted_sums(matrix_f, k, grid)

    def compare(coarse: np.ndarray, fine: np.ndarray, refining: np.ndarray):
        estimates = np.abs(fine - coarse)
        bad = refining & ~(np.isfinite(fine) & np.isfinite(estimates))
        if bad.any():
            j = int(np.argmax(bad))
            raise QuadratureOverflow(
                f"non-finite quadrature value {fine[j]:.3e} in column {j} "
                f"(estimate {estimates[j]:.3e})"
            )
        return fine.copy(), estimates

    def good(v, e):
        return (e <= spec.rel_tol * np.maximum(np.abs(v), 1e-300))[judge]

    res = spec.resolution
    coarse, fine = sums(res // 2), sums(res)
    values, estimates = compare(coarse, fine, np.ones(k, dtype=bool))
    done = good(values, estimates)

    first_estimates, previous = estimates.copy(), estimates.copy()
    refinements = 0
    while not done.all() and refinements < spec.max_refinements:
        refinements += 1
        res *= 2
        coarse, fine = fine, sums(res)
        new_values, new_estimates = compare(coarse, fine, ~done)
        previous = estimates.copy()
        values[~done], estimates[~done] = new_values[~done], new_estimates[~done]
        done |= good(values, estimates)

    # judged against the first estimate, as an unresolved feature may grow at
    # first: the rule converges second-order even on a kink or an l log l
    # term, 4x per round, but noise such as an unresolved oscillation only
    # 1.4x, and may drop by chance in one round, so the last two must hold
    bound = first_estimates * 0.4**refinements
    stagnated = ~done & (judge == np.arange(k))
    stagnated &= (estimates > bound) | (previous > bound / 0.4)
    if stagnated.any():
        j = int(np.argmax(stagnated))
        raise QuadratureStagnation(
            f"error estimate of column {j} stagnated at {estimates[j]:.3e} "
            f"(value {values[j]:.12e})",
            values[j],
            estimates[j],
        )
    return [QuadratureResult(float(v), float(e)) for v, e in zip(values, estimates)]
