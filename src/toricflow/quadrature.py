"""Error-controlled integration over polytope interiors.

One rule: a Gauss-Legendre product rule in collapsed (Duffy) coordinates on
the cones from one point over a pulling triangulation of the boundary of P:
from its first vertex (`grid_cells`) or, for a density peaked at a point,
from the peak with the radial axis graded down to the peak width (`cone_cells`).
Each axis holds panels of about 8 nodes, exact to degree 15, and nodes are
strictly interior, so an integrand that is continuous but not smooth at the
boundary (l log l terms) is never evaluated there.  `integrate_many`
compares the rule at each rung N with the rule at the rung before and
doubles N until the difference, the error estimate, meets the tolerance.
The ladder starts at two panels, 16 nodes, per axis (fewer only when the
resolution is below 32) and ends at the finest rung the spec allows: the
rule converges geometrically on an analytic integrand, so the estimate is
checked where it is cheap, and an integrand that needs more nodes takes
more doublings up to the same finest N.

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
    refinement doublings allowed past it, and target relative tolerance.
    Together they set only the finest rule, resolution * 2^max_refinements
    nodes per axis; the first comparison is 16 against 32 nodes, or
    resolution // 2 against twice that below 32 (see `integrate_many`)."""

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
# Gauss nodes per axis on the coarse side of the first comparison, two
# panels of 8, unless resolution/2 is fewer.
_MIN_NODES = 16


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
    width)` of `poly.cone_cells`.  The rungs N double from
    min(_MIN_NODES, resolution // 2), made one at a time, up to the finest,
    resolution * 2^max_refinements, which is the last: resolution 96 at
    depth 2 takes 16, 32, 64, 128, 256 and 384, 256 at depth 3 takes 16 up
    to 2048, and 16 compares 8 against 16.  Every field gets its own value,
    the rule at the rung where its group stops, and estimate, its distance
    from the rule at the rung before.  The fields come in consecutive
    groups of `group` (default k, one group), and the first field of each
    group is its reference (e.g. a density the others are moments of):
    field j meets the tolerance when e_j <= rel_tol * max(|v_j|, |v_ref|),
    so a moment's ratio to its reference is known to rel_tol * max(|ratio|,
    1), and a group is frozen at the first rung where all its fields meet
    it.  Only groups still refining are checked for finiteness.  A field
    that misses the tolerance at the finest rung raises
    QuadratureStagnation naming its column.  The results are those of
    k / group separate calls; `group=1` judges every field on its own.
    """
    group = k if group is None else group
    if group < 1 or k % group:
        raise ValueError(f"group size {group} does not divide {k} fields")
    # column j is also judged against column ref[j], the first of its group
    ref = np.arange(k) // group * group

    def sums(resolution: int) -> np.ndarray:
        grid = (poly.grid_cells(resolution) if peak is None
                else poly.cone_cells(*peak, resolution))
        return _weighted_sums(matrix_f, k, grid)

    # a rung past 2^24 nodes per axis exceeds the grid cap, as resolution << 25
    # does, so capping the exponent changes no rung that can be built
    finest = spec.resolution << min(spec.max_refinements, 25)
    res = min(_MIN_NODES, spec.resolution // 2)
    values, estimates, done = np.empty(k), np.empty(k), np.zeros(k, dtype=bool)
    fine = sums(res)
    while res < finest:
        res = min(2 * res, finest)
        coarse, fine = fine, sums(res)
        refining = ~done
        values[refining], estimates[refining] = fine[refining], np.abs(fine - coarse)[refining]
        bad = refining & ~(np.isfinite(values) & np.isfinite(estimates))
        if bad.any():
            j = int(np.argmax(bad))
            raise QuadratureOverflow(
                f"non-finite quadrature value {values[j]:.3e} in column {j} "
                f"(estimate {estimates[j]:.3e})"
            )
        met = estimates <= spec.rel_tol * np.maximum(np.abs(values), np.abs(values[ref]))
        done = met.reshape(-1, group).all(axis=1).repeat(group)
        if done.all():
            return [QuadratureResult(float(v), float(e)) for v, e in zip(values, estimates)]
    j = int(np.argmin(met))
    raise QuadratureStagnation(
        f"error estimate of column {j} is {estimates[j]:.3e} at resolution {finest}, "
        f"above rel_tol {spec.rel_tol:g} (value {values[j]:.12e})",
        values[j],
        estimates[j],
    )
