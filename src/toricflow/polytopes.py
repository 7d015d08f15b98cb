"""Delzant moment polytopes given by facet data.

A compact toric Kahler 2n-manifold is encoded combinatorially by its moment
polytope

    P = { x in R^n : l_k(x) >= 0 for all k },    l_k(x) = <nu_k, x> + c_k,

where the inward normals nu_k are primitive integer vectors.  P must be
bounded with nonempty interior, and at every vertex exactly n facets meet
with normals forming a Z-basis of Z^n (the Delzant condition).  Polytopes are
specified by facets, not vertices: the facet functions l_k feed the canonical
symplectic potential directly, and vertices are derived.

Besides validation, this module enumerates the lattice points of P (the index
set of the torus-weight basis) and builds midpoint-rule evaluation grids,
stored as arrays (`Grid`).  Boxes cut by the boundary are clipped by one
routine, `_clip_straddlers`, which bisects all boxes of one size together,
level by level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import DimensionMismatch, DomainError, EmptyGridError

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class Facet:
    """One affine halfspace l(x) = <normal, x> + offset >= 0.

    The normal must be a nonzero primitive integer vector (gcd of the
    entries equal to 1).
    """

    normal: tuple[int, ...]
    offset: float

    def __post_init__(self):
        normal = tuple(int(v) for v in self.normal)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))
        if all(v == 0 for v in normal):
            raise ValueError("facet normal must be nonzero")
        if math.gcd(*(abs(v) for v in normal)) != 1:
            raise ValueError(f"facet normal {normal} is not primitive")

    def value(self, x) -> np.ndarray:
        """Evaluate l(x); broadcasts over a leading batch axis."""
        x = np.asarray(x, dtype=float)
        return x @ np.asarray(self.normal, dtype=float) + self.offset


class ContainsResult(NamedTuple):
    inside: bool
    boundary: bool


class ValidationIssue(NamedTuple):
    kind: str       # "unbounded" | "empty-interior" | "non-delzant-vertex" | "non-simple-vertex"
    message: str
    witness: Optional[tuple]


class DelzantValidation(NamedTuple):
    ok: bool
    issues: tuple[ValidationIssue, ...]


@dataclass(frozen=True)
class LatticePoint:
    """An integer point of the moment polytope, indexing a torus weight."""

    coords: tuple[int, ...]

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class Grid:
    """Midpoint-rule cells of a polytope, one row per cell: evaluation point,
    clipped Lebesgue volume, lower corner and whether the boundary cuts the
    cell.  All cells share the side length `size`; `len` is the cell count."""

    points: np.ndarray   # (m, n)
    volumes: np.ndarray  # (m,)
    lo: np.ndarray       # (m, n)
    size: float
    clipped: np.ndarray  # (m,) bool

    def __len__(self) -> int:
        return len(self.volumes)


class DelzantPolytope:
    """Moment polytope from an ordered facet list.

    Values are immutable after construction; derived data (vertices,
    validation, grids) is memoized.
    """

    def __init__(self, facets: Sequence[Facet], name: str = ""):
        if not facets:
            raise ValueError("facet list must be nonempty")
        self.facets = tuple(facets)
        self.name = name
        dims = {len(f.normal) for f in self.facets}
        if len(dims) != 1:
            raise DimensionMismatch("facet normals have inconsistent dimensions")
        self.dimension = dims.pop()
        self._normals = np.array([f.normal for f in self.facets], dtype=float)
        self._offsets = np.array([f.offset for f in self.facets], dtype=float)
        self._cache: dict = {}

    # -- basic geometry -----------------------------------------------------

    @property
    def normals(self) -> np.ndarray:
        return self._normals

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    def facet_values(self, x) -> np.ndarray:
        """All l_k(x) at once; batch axis allowed in front."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"point has dimension {x.shape[-1]}, polytope has {self.dimension}"
            )
        return x @ self._normals.T + self._offsets

    def contains(self, x, tol: float = _FEAS_TOL) -> ContainsResult:
        vals = self.facet_values(x)
        return ContainsResult(bool(vals.min() >= -tol), bool(vals.min() <= tol))

    def is_interior(self, x, margin: float = 0.0) -> bool:
        return bool(self.facet_values(x).min() > margin)

    def vertices(self) -> np.ndarray:
        """Vertices of P, derived from all feasible n-fold facet intersections."""
        if "vertices" in self._cache:
            return self._cache["vertices"]
        n = self.dimension
        found = []
        for combo in itertools.combinations(range(len(self.facets)), n):
            A = self._normals[list(combo)]
            if abs(np.linalg.det(A)) < 1e-12:
                continue
            v = np.linalg.solve(A, -self._offsets[list(combo)])
            if self.facet_values(v).min() >= -1e-8:
                found.append(v)
        if found:
            uniq = []
            for v in found:
                if not any(np.max(np.abs(v - u)) < 1e-8 for u in uniq):
                    uniq.append(v)
            verts = np.array(sorted(uniq, key=tuple))
        else:
            verts = np.zeros((0, n))
        self._cache["vertices"] = verts
        return verts

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        verts = self.vertices()
        if verts.shape[0] == 0:
            raise DomainError("polytope has no vertices; cannot bound it")
        return verts.min(axis=0), verts.max(axis=0)

    def chebyshev_center(self) -> tuple[np.ndarray, float]:
        """Center and radius of the largest inscribed ball (an LP)."""
        n = self.dimension
        norms = np.linalg.norm(self._normals, axis=1)
        A_ub = np.hstack([-self._normals, norms[:, None]])
        res = linprog(
            c=np.concatenate([np.zeros(n), [-1.0]]),
            A_ub=A_ub,
            b_ub=self._offsets,
            bounds=[(None, None)] * n + [(None, None)],
            method="highs",
        )
        if not res.success:
            raise DomainError(f"Chebyshev-center LP failed: {res.message}")
        return res.x[:n], float(res.x[n])

    # -- validation ----------------------------------------------------------

    def _unbounded_direction(self) -> Optional[np.ndarray]:
        """A nonzero recession direction d with <nu_k, d> >= 0 for all k,
        or None when the polytope is bounded."""
        n = self.dimension
        for i in range(n):
            for sign in (1.0, -1.0):
                c = np.zeros(n)
                c[i] = -sign
                res = linprog(
                    c=c,
                    A_ub=-self._normals,
                    b_ub=np.zeros(len(self.facets)),
                    bounds=[(-1.0, 1.0)] * n,
                    method="highs",
                )
                if res.success and -res.fun > 1e-7:
                    return res.x
        return None

    def validate(self) -> DelzantValidation:
        if "validation" in self._cache:
            return self._cache["validation"]
        issues: list[ValidationIssue] = []

        direction = self._unbounded_direction()
        if direction is not None:
            issues.append(
                ValidationIssue(
                    "unbounded",
                    f"polytope is unbounded along direction {tuple(direction)}",
                    tuple(direction),
                )
            )
        else:
            _, radius = self.chebyshev_center()
            if radius <= 1e-9:
                issues.append(
                    ValidationIssue(
                        "empty-interior",
                        f"polytope interior is empty (inscribed radius {radius:.3e})",
                        None,
                    )
                )
            else:
                issues.extend(self._vertex_issues())

        result = DelzantValidation(not issues, tuple(issues))
        self._cache["validation"] = result
        return result

    def _vertex_issues(self) -> list[ValidationIssue]:
        issues = []
        n = self.dimension
        seen = set()
        for v in self.vertices():
            key = tuple(np.round(v, 8))
            if key in seen:
                continue
            seen.add(key)
            active = np.where(np.abs(self.facet_values(v)) <= 1e-8)[0]
            if len(active) != n:
                issues.append(
                    ValidationIssue(
                        "non-simple-vertex",
                        f"vertex {key} meets {len(active)} facets, expected {n}",
                        key,
                    )
                )
                continue
            det = round(np.linalg.det(self._normals[active]))
            if abs(det) != 1:
                issues.append(
                    ValidationIssue(
                        "non-delzant-vertex",
                        f"vertex {key}: meeting normals have determinant {det}, "
                        "not a Z-basis",
                        key,
                    )
                )
        return issues

    def require_valid(self):
        result = self.validate()
        if not result.ok:
            raise DomainError(
                "polytope is not Delzant: " + "; ".join(i.message for i in result.issues)
            )

    # -- lattice points and grids ---------------------------------------------

    def lattice_points(self) -> list[LatticePoint]:
        if "lattice" in self._cache:
            return self._cache["lattice"]
        self.require_valid()
        lo, hi = self.bounding_box()
        ranges = [
            range(math.ceil(l - 1e-9), math.floor(h + 1e-9) + 1)
            for l, h in zip(lo, hi)
        ]
        pts = []
        for coords in itertools.product(*ranges):
            if self.facet_values(np.array(coords, dtype=float)).min() >= -_FEAS_TOL:
                pts.append(LatticePoint(coords))
        pts.sort(key=lambda p: p.coords)
        self._cache["lattice"] = pts
        return pts

    def grid_cells(
        self, resolution: int, margin: float = 0.0, clip_depth: int = 6
    ) -> Grid:
        """Axis-aligned cell decomposition at `resolution` cells per unit
        length, clipped to {x : l_k(x) >= margin}, as one `Grid` of arrays in
        lexicographic cell order.  Cells cut by the boundary get their clipped
        volumes by dyadic bisection to `clip_depth` (`_clip_straddlers`);
        their point is the center of the largest inside sub-box."""
        key = ("grid", resolution, float(margin), clip_depth)
        if key in self._cache:
            return self._cache[key]
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        self.require_valid()
        grid = _build_cells(self, resolution, margin, clip_depth)
        if not len(grid):
            raise EmptyGridError(
                f"no grid cells: margin {margin} leaves an empty region"
            )
        self._cache[key] = grid
        return grid


# -- module-level operation surface -------------------------------------------


def validate_delzant(poly: DelzantPolytope) -> DelzantValidation:
    """Check boundedness, nonempty interior and the vertex Z-basis condition.

    On failure the result names the violated condition and a witness vertex
    or direction.
    """
    return poly.validate()


def contains(poly: DelzantPolytope, x, tol: float = _FEAS_TOL) -> ContainsResult:
    """Inside iff all l_k(x) >= -tol; boundary flag iff some l_k(x) <= tol."""
    return poly.contains(x, tol)


def lattice_points(poly: DelzantPolytope) -> list[LatticePoint]:
    """The integer points of P in deterministic lexicographic order."""
    return poly.lattice_points()


def interior_grid(
    poly: DelzantPolytope, resolution: int, margin: float = 0.0, clip_depth: int = 6
) -> list[tuple[np.ndarray, float]]:
    """Midpoint-rule sample points with clipped cell volumes.

    Parameters
    ----------
    resolution : cells per unit length.
    margin : clip to the shrunk region {x : l_k(x) >= margin}.
    clip_depth : bisection depth for boundary cells.

    Returns
    -------
    List of (point, volume) pairs; the point always lies inside the region.
    """
    grid = poly.grid_cells(resolution, margin, clip_depth)
    return list(zip(grid.points, grid.volumes.tolist()))


# -- convenience constructors --------------------------------------------------


def segment(length: float = 1.0, name: str = "") -> DelzantPolytope:
    """The interval [0, length]; the moment polytope of a weighted CP^1
    when length is a positive integer."""
    return DelzantPolytope(
        [Facet((1,), 0.0), Facet((-1,), float(length))],
        name=name or f"segment[0,{length:g}]",
    )


def standard_simplex(dimension: int, size: float = 1.0, name: str = "") -> DelzantPolytope:
    """{x_i >= 0, size - sum x_i >= 0}: the CP^n moment polytope."""
    facets = [
        Facet(tuple(1 if j == i else 0 for j in range(dimension)), 0.0)
        for i in range(dimension)
    ]
    facets.append(Facet(tuple(-1 for _ in range(dimension)), float(size)))
    return DelzantPolytope(facets, name=name or f"simplex{dimension}d(size={size:g})")


def box(sides: Sequence[float], name: str = "") -> DelzantPolytope:
    """Product of intervals [0, sides_i] (a product of CP^1's)."""
    n = len(sides)
    facets = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        me = tuple(-v for v in e)
        facets.append(Facet(e, 0.0))
        facets.append(Facet(me, float(sides[i])))
    return DelzantPolytope(facets, name=name or "box")


def sample_interior(
    poly: DelzantPolytope,
    count: int,
    rng: np.random.Generator,
    margin: float = 0.0,
    max_tries: int = 100000,
) -> np.ndarray:
    """Rejection-sample `count` points with all l_k > margin."""
    lo, hi = poly.bounding_box()
    pts = []
    tries = 0
    while len(pts) < count:
        tries += 1
        if tries > max_tries:
            raise EmptyGridError(
                f"could not sample {count} interior points at margin {margin}"
            )
        x = lo + rng.random(poly.dimension) * (hi - lo)
        if poly.facet_values(x).min() > margin:
            pts.append(x)
    return np.array(pts)


# -- grid construction ---------------------------------------------------------


def _corner_offsets(n: int) -> np.ndarray:
    return np.array(list(itertools.product((0.0, 1.0), repeat=n)))


def _classify_boxes(poly, los, size, margin, offsets):
    """Vectorized (inside, straddle) masks of equal boxes; the rest are outside."""
    corner_pts = los[:, None, :] + offsets[None, :, :] * size  # (B, 2^n, n)
    vals = corner_pts @ poly.normals.T + poly.offsets - margin  # (B, 2^n, K)
    inside = (vals >= 0.0).all(axis=(1, 2))
    outside = (vals.max(axis=1) < 0.0).any(axis=1)
    return inside, ~inside & ~outside


def _clip_straddlers(poly, los, size, margin, clip_depth, offsets):
    """Clipped volumes and representative interior points of the boxes
    [lo, lo + size]^n, by level-synchronous dyadic bisection to `clip_depth`
    (vectorized over boxes).  At the last level a straddling box counts iff
    its center is inside.

    Returns (volumes, points) aligned with `los`.  The representative is the
    center of the largest fully-inside descendant (the first such box in
    deterministic level/lexicographic order); a box of zero volume has none.
    """
    n = poly.dimension
    vols = np.zeros(len(los))
    reps = np.zeros((len(los), n))
    boxes = los
    parents = np.arange(len(los))
    for depth in range(clip_depth, -1, -1):
        inside, straddle = _classify_boxes(poly, boxes, size, margin, offsets)
        if depth == 0:
            centers = boxes + 0.5 * size
            center_in = (centers @ poly.normals.T + poly.offsets - margin).min(axis=1) >= 0.0
            inside = inside | (straddle & center_in)
        hit = parents[inside]
        # a parent without volume yet has no representative: take its first box
        first, at = np.unique(hit, return_index=True)
        new = vols[first] == 0.0
        reps[first[new]] = boxes[inside][at[new]] + 0.5 * size
        np.add.at(vols, hit, size**n)
        if depth == 0 or not straddle.any():
            break
        half = 0.5 * size
        boxes = (boxes[straddle][:, None, :] + offsets[None, :, :] * half).reshape(-1, n)
        parents = np.repeat(parents[straddle], len(offsets))
        size = half
    return vols, reps


def _build_cells(poly, resolution, margin, clip_depth) -> Grid:
    n = poly.dimension
    lo, hi = poly.bounding_box()
    h = 1.0 / resolution
    anchor = np.floor(lo * resolution) / resolution
    counts = [int(math.ceil((hi[i] - anchor[i]) * resolution - 1e-12)) for i in range(n)]
    offsets = _corner_offsets(n)

    index_lists = [np.arange(c) for c in counts]
    mesh = np.meshgrid(*index_lists, indexing="ij")
    los = anchor + np.stack([m.ravel() for m in mesh], axis=-1) * h  # (M, n), lex order

    inside, clipped = _classify_boxes(poly, los, h, margin, offsets)
    points = los + 0.5 * h
    volumes = np.where(inside, h**n, 0.0)
    volumes[clipped], points[clipped] = _clip_straddlers(
        poly, los[clipped], h, margin, clip_depth, offsets
    )
    keep = volumes > 0.0
    return Grid(points[keep], volumes[keep], los[keep], h, clipped[keep])
