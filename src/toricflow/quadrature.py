"""Error-controlled integration over polytope interiors.

Composite midpoint rule on the clipped cell decomposition, with one level of
Richardson extrapolation and refinement by resolution doubling.  The open
(midpoint) rule matters here: the integrands of interest are continuous up to
the boundary but not smooth there (Guillemin-type l log l behavior), so
integrands are never evaluated on the boundary itself.

The grid comes from `DelzantPolytope.grid_cells` as arrays.  Sharply peaked
integrands (the Laplace densities e^{-t f_lam}) are handled by local
subdivision around declared peak centers: a boolean mask picks the cells near
a peak, which are split in geometric rings down to a cell size of width/8 near
the peak at the base resolution.  The leaves halve with the base cells at
every refinement, so one Richardson rule covers the whole grid.  Ring leaves
descended from a boundary cell are clipped again by the same batched clipper
the grid uses, one call per ring level.

Accumulation uses pairwise summation in a fixed tree order so repeated runs
are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, QuadratureOverflow, QuadratureStagnation
from .polytopes import DelzantPolytope, Grid, _clip_straddlers, _corner_offsets


@dataclass(frozen=True)
class PeakHint:
    center: tuple[float, ...]
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("peak width must be positive")


@dataclass(frozen=True)
class QuadratureSpec:
    """Base resolution (cells per unit length), number of refinement
    doublings allowed, target relative tolerance, and peak hints."""

    resolution: int = 256
    max_refinements: int = 3
    rel_tol: float = 1e-8
    abs_tol: float = 0.0
    clip_depth: int = 6
    peaks: tuple[PeakHint, ...] = ()

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


def _near_peaks(grid: Grid, peaks: Sequence[PeakHint]) -> np.ndarray:
    """Mask of the grid cells that the rings around some peak reach."""
    centers = np.array([p.center for p in peaks])
    widths = np.array([p.width for p in peaks])
    mids = grid.lo + 0.5 * grid.size
    diag = grid.size * np.sqrt(grid.lo.shape[1])
    dists = np.linalg.norm(mids[:, None, :] - centers[None, :, :], axis=-1)
    return (dists <= 8.0 * widths[None, :] + diag).any(axis=1)


def _peak_leaves(
    poly: DelzantPolytope,
    grid: Grid,
    near: np.ndarray,
    peaks: Sequence[PeakHint],
    margin: float,
    clip_depth: int,
    scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Split the `near` cells of `grid` in geometric rings down to leaf size
    scale * max(width/8, distance/12), re-clipping boundary descendants.

    The dyadic splitting proceeds level by level, vectorized over all boxes;
    the boxes of one level share one size.  Returns (points, volumes).
    """
    n = poly.dimension
    offsets = _corner_offsets(n)
    centers = np.array([p.center for p in peaks])
    widths = np.array([p.width for p in peaks])

    def targets(mids: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(mids[:, None, :] - centers[None, :, :], axis=-1)
        return scale * np.min(np.maximum(widths[None, :] / 8.0, d / 12.0), axis=1)

    los, clipped, size = grid.lo[near], grid.clipped[near], grid.size
    pts_parts: list[np.ndarray] = []
    vol_parts: list[np.ndarray] = []
    while len(los):
        mids = los + 0.5 * size
        done = size <= targets(mids)
        plain = done & ~clipped
        pts_parts.append(mids[plain])
        vol_parts.append(np.full(np.count_nonzero(plain), size**n))
        vols, reps = _clip_straddlers(poly, los[done & clipped], size, margin, clip_depth, offsets)
        pts_parts.append(reps[vols > 0.0])
        vol_parts.append(vols[vols > 0.0])
        half = 0.5 * size
        los = (los[~done][:, None, :] + offsets[None, :, :] * half).reshape(-1, n)
        clipped = np.repeat(clipped[~done], len(offsets))
        size = half
    if not pts_parts:
        return np.zeros((0, n)), np.zeros(0)
    return np.concatenate(pts_parts), np.concatenate(vol_parts)


def _quantized_peaks(peaks: Sequence[PeakHint]) -> tuple[PeakHint, ...]:
    """Snap widths to powers of two so nearby hints share cached geometry."""
    return tuple(
        PeakHint(p.center, float(2.0 ** np.round(np.log2(p.width)))) for p in peaks
    )


def _assembled_arrays(
    poly: DelzantPolytope,
    resolution: int,
    peaks: tuple[PeakHint, ...],
    clip_depth: int,
    margin: float,
    leaf_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(points, volumes) of the base grid with near-peak cells replaced by
    ring leaves of `_peak_leaves` scale `leaf_scale`; memoized on the
    polytope."""
    key = ("peakgrid", resolution, float(margin), clip_depth, peaks, leaf_scale)
    cache = poly._cache
    if key in cache:
        return cache[key]
    grid = poly.grid_cells(resolution, margin, clip_depth)
    if peaks:
        near = _near_peaks(grid, peaks)
        leaf_pts, leaf_vols = _peak_leaves(poly, grid, near, peaks, margin, clip_depth, leaf_scale)
        pts = np.concatenate([grid.points[~near], leaf_pts])
        vols = np.concatenate([grid.volumes[~near], leaf_vols])
    else:
        pts, vols = grid.points, grid.volumes
    cache[key] = (pts, vols)
    return pts, vols


def _matrix_sums(matrix_f, k: int, pts: np.ndarray, vols: np.ndarray) -> np.ndarray:
    if len(pts) == 0:
        return np.zeros(k)
    vals = np.asarray(matrix_f(pts), dtype=float)
    if vals.shape != (len(pts), k):
        raise ValueError(f"integrand must map (m, n) points to (m, {k}) values")
    return np.array([_pairwise_sum(vals[:, j] * vols) for j in range(k)])


def integrate_many(
    matrix_f,
    k: int,
    poly: DelzantPolytope,
    spec: QuadratureSpec = QuadratureSpec(),
    margin: float = 0.0,
) -> list[QuadratureResult]:
    """Integrate k scalar fields sharing one evaluation grid.

    `matrix_f` maps (m, n) points to (m, k) values.  Refinement and the
    stagnation judgment are driven by the first field (the reference, e.g. a
    density all other fields are moments of); every field gets its own
    Richardson value and estimate.
    """
    res = spec.resolution
    peaks = _quantized_peaks(spec.peaks)

    def sums(resolution: int) -> np.ndarray:
        # ring leaves shrink with the base cells, so one Richardson rule
        # covers the whole assembled grid
        pts, vols = _assembled_arrays(
            poly, resolution, peaks, spec.clip_depth, margin, spec.resolution / resolution
        )
        return _matrix_sums(matrix_f, k, pts, vols)

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
        return e <= max(spec.abs_tol, spec.rel_tol * max(abs(v), 1e-300))

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
    margin: float = 0.0,
) -> QuadratureResult:
    """Integrate a vectorized scalar field over the polytope.

    Returns the Richardson-extrapolated midpoint value and an error estimate
    from the difference of successive refinements.  Peak-hinted regions are
    handled on ring-refined leaves that halve with the base cells.  Raises
    QuadratureStagnation when refinement stops improving the estimate while
    the tolerance is still unmet, and QuadratureOverflow on a non-finite
    value or estimate.
    """

    def matrix_f(pts):
        return np.asarray(f(pts), dtype=float)[:, None]

    return integrate_many(matrix_f, 1, poly, spec, margin)[0]


def integrate_peaked(
    f: Callable[[np.ndarray], np.ndarray],
    poly: DelzantPolytope,
    center,
    width: float,
    spec: QuadratureSpec = QuadratureSpec(),
    margin: float = 0.0,
) -> QuadratureResult:
    """Integrate with geometric refinement rings around a known peak."""
    center = np.asarray(center, dtype=float)
    if width <= 0:
        raise ValueError("peak width must be positive")
    if not poly.is_interior(center):
        raise DomainError(
            f"peak center {center.tolist()} is not strictly interior to {poly.name}"
        )
    hinted = replace(spec, peaks=spec.peaks + (PeakHint(tuple(center), float(width)),))
    return integrate(f, poly, hinted, margin)


def count_evaluations(f):
    """Wrap an integrand to count point evaluations (for efficiency tests)."""
    counter = {"n": 0}

    def wrapped(pts):
        counter["n"] += len(pts)
        return f(pts)

    return wrapped, counter
