"""Delzant moment polytopes given by facet data.

A compact toric Kahler 2n-manifold is encoded combinatorially by its moment
polytope

    P = { x in R^n : l_k(x) >= 0 for all k },    l_k(x) = <nu_k, x> + c_k,

where the inward normals nu_k are primitive integer vectors.  P must be
bounded with nonempty interior, and at every vertex exactly n facets meet
with normals forming a Z-basis of Z^n (the Delzant condition).  Polytopes are
specified by facets, not vertices: the facet functions l_k feed the canonical
symplectic potential directly, and vertices are derived.

Validation solves no linear program.  Boundedness and the inscribed
(Chebyshev) radius are both read off closed-form vertex enumerations: of the
recession cone, and of the polyhedron of inscribed balls one dimension up.
scipy is imported only when a grid triangulates a non-simplex (Delaunay).

Besides validation, this module enumerates the lattice points of P (the index
set of the torus-weight basis) and plans midpoint-rule evaluation grids
(`Grid`): a triangulation of P whose simplices are split by the
Freudenthal-Kuhn edgewise subdivision, so every cell lies inside P and the
cell volumes add up to vol(P) exactly.  A grid is built block by block when
it is iterated, so memory holds about one block, whatever the cell count.
Grid points are column-major, as a ufunc over row-major (m, n) points loops
over only n <= 3 entries per row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyGridError, GridSizeError

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


class ValidationIssue(NamedTuple):
    kind: str       # "unbounded" | "empty-interior" | "non-delzant-vertex" | "non-simple-vertex"
    message: str
    witness: Optional[tuple[float, ...]]


class DelzantValidation(NamedTuple):
    ok: bool
    issues: tuple[ValidationIssue, ...]


def _matmul_columns(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """x @ matrix, bit for bit, column-major for a column-major (m, n) batch
    such as a block of grid points, so ufuncs on it run along its columns."""
    if x.ndim != 2 or x.strides[0] >= x.strides[1]:  # one point, a stack, or row-major
        return x @ matrix
    return np.matmul(x, matrix, out=np.empty((len(x), matrix.shape[1]), order="F"))


def _plain(v) -> tuple[float, ...]:
    """A witness point as Python floats, with -0.0 written as 0.0."""
    return tuple(float(c) + 0.0 for c in v)


@dataclass(frozen=True)
class Grid:
    """Midpoint-rule cells of a polytope, as a plan: a triangulation whose
    simplex i is Kuhn-subdivided into ks[i]^n cells of volume
    cell_volumes[i].  `len` is the cell count; no cell is built until
    `blocks` is iterated.  Cell j has an evaluation point (the centroid) and
    a Lebesgue volume, and the cells come in a fixed order."""

    simplices: np.ndarray     # (s, n + 1, n)
    ks: tuple[int, ...]
    cell_volumes: np.ndarray  # (s,)
    cells: int

    def __len__(self) -> int:
        return self.cells

    def blocks(self, rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The cells in order as (points, volumes) blocks of `rows` rows, the
        last one possibly shorter; points are column-major (m, n).  Each
        block is built when it is requested, so only one is held at a time."""
        n = self.simplices.shape[2]
        chunks = (
            (chunk, simplex[0], np.diff(simplex, axis=0) / k, volume)
            for simplex, k, volume in zip(self.simplices, self.ks, self.cell_volumes)
            for chunk in _kuhn_centroid_chunks(n, k, rows)
        )
        chunk, used = np.empty((0, n)), 0
        for start in range(0, self.cells, rows):
            points = np.empty((min(rows, self.cells - start), n), order="F")
            volumes = np.empty(len(points))
            filled = 0
            while filled < len(points):
                if used == len(chunk):
                    (chunk, origin, steps, volume), used = next(chunks), 0
                take = min(len(points) - filled, len(chunk) - used)
                out = points[filled : filled + take]
                np.matmul(chunk[used : used + take], steps, out=out)
                out += origin
                volumes[filled : filled + take] = volume
                filled, used = filled + take, used + take
            yield points, volumes

    @property
    def points(self) -> np.ndarray:
        """All cell centroids, (len, n) column-major: one block of the whole grid."""
        return next(self.blocks(self.cells))[0]

    @property
    def volumes(self) -> np.ndarray:
        """All cell volumes, (len,)."""
        return np.repeat(self.cell_volumes, np.array(self.ks) ** self.simplices.shape[2])


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
        """All l_k(x) at once, column-major for column-major x; batch axis allowed."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"point has dimension {x.shape[-1]}, polytope has {self.dimension}"
            )
        return _matmul_columns(x, self._normals.T) + self._offsets

    def contains(self, x) -> bool:
        """True iff all l_k(x) >= -_FEAS_TOL (the closed polytope)."""
        return bool(self.facet_values(x).min() >= -_FEAS_TOL)

    def is_interior(self, x) -> bool:
        return bool(self.facet_values(x).min() > 0.0)

    def vertices(self) -> np.ndarray:
        """Vertices of P, derived from all feasible n-fold facet intersections."""
        if "vertices" not in self._cache:
            self._cache["vertices"] = _intersection_vertices(self._normals, self._offsets)
        return self._cache["vertices"]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        verts = self.vertices()
        if verts.shape[0] == 0:
            raise DomainError("polytope has no vertices; cannot bound it")
        return verts.min(axis=0), verts.max(axis=0)

    def chebyshev_center(self) -> tuple[np.ndarray, float]:
        """Center and radius of the largest inscribed ball (memoized).

        The pairs (x, r) with l_k(x) >= r |nu_k| form a polyhedron on which r
        is bounded above when P is bounded, so the largest r is attained at
        one of its vertices, which `_intersection_vertices` enumerates in
        n + 1 dimensions.  Ties go to the first such vertex in lexicographic
        order.  The radius is negative when P is empty; an unbounded P raises
        DomainError."""
        if "chebyshev" not in self._cache:
            if self._unbounded_direction() is not None:
                raise DomainError("polytope is unbounded; it has no Chebyshev center")
            norms = np.linalg.norm(self._normals, axis=1)
            lifted = _intersection_vertices(
                np.hstack([self._normals, -norms[:, None]]), self._offsets
            )
            best = lifted[np.argmax(lifted[:, -1])]
            self._cache["chebyshev"] = (best[:-1], float(best[-1]))
        return self._cache["chebyshev"]

    # -- validation ----------------------------------------------------------

    def _unbounded_direction(self) -> Optional[np.ndarray]:
        """A recession direction d != 0 (<nu_k, d> >= 0, |d_i| <= 1), or None
        when P is bounded: P is bounded iff 0 is the only vertex of its
        recession cone cut by the box |d_i| <= 1 (memoized)."""
        if "unbounded" not in self._cache:
            n = self.dimension
            eye = np.eye(n)
            verts = _intersection_vertices(
                np.vstack([self._normals, eye, -eye]),
                np.concatenate([np.zeros(len(self.facets)), np.ones(2 * n)]),
            )
            far = verts[np.abs(verts).max(axis=1) > 1e-7]
            self._cache["unbounded"] = far[0] if len(far) else None
        return self._cache["unbounded"]

    def validate(self) -> DelzantValidation:
        if "validation" in self._cache:
            return self._cache["validation"]
        issues: list[ValidationIssue] = []

        direction = self._unbounded_direction()
        if direction is not None:
            witness = _plain(direction)
            issues.append(
                ValidationIssue(
                    "unbounded",
                    f"polytope is unbounded along direction {witness}",
                    witness,
                )
            )
        else:
            _, radius = self.chebyshev_center()
            if radius <= 1e-9:
                issues.append(
                    ValidationIssue(
                        "empty-interior",
                        f"polytope interior is empty (inscribed radius {radius + 0.0:.3e})",
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
            key = _plain(np.round(v, 8))
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

    def lattice_points(self) -> list[tuple[int, ...]]:
        """The integer points of P as int tuples, in lexicographic order."""
        if "lattice" in self._cache:
            return self._cache["lattice"]
        self.require_valid()
        lo, hi = self.bounding_box()
        ranges = [
            range(math.ceil(l - 1e-9), math.floor(h + 1e-9) + 1)
            for l, h in zip(lo, hi)
        ]
        # the product of ascending ranges is already in lexicographic order
        pts = [coords for coords in itertools.product(*ranges) if self.contains(coords)]
        self._cache["lattice"] = pts
        return pts

    def grid_cells(
        self, resolution: int, margin: float = 0.0, clip_depth: int = 6
    ) -> Grid:
        """Midpoint-rule cells of {x : l_k(x) >= margin} as a `Grid` plan,
        whose points are built block by block when `Grid.blocks` is iterated.

        The region is triangulated from its vertices (a simplex is its
        own triangulation, anything else goes through Delaunay), and each
        simplex is split by the Freudenthal-Kuhn edgewise subdivision into
        k^n congruent simplices, k = resolution * ceil(longest sup-norm
        edge); doubling `resolution` doubles every k.  Points are the
        sub-simplex centroids, so they are strictly interior, and the volumes
        are exact.  `clip_depth` is unused; it stays because
        perfbench/tracing.py binds it by name in its grid cache key, and goes
        with that key (ROADMAP item 1).  Raises EmptyGridError when the region
        has no interior."""
        key = ("grid", resolution, float(margin))
        if key in self._cache:
            return self._cache[key]
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        self.require_valid()
        verts = (self.vertices() if margin == 0
                 else _intersection_vertices(self._normals, self._offsets - margin))
        simplices, simplex_volumes, ks, cells = _kuhn_plan(verts, resolution)
        counts = np.array(ks) ** self.dimension
        grid = self._cache[key] = Grid(simplices, tuple(ks), simplex_volumes / counts, cells)
        return grid

    def grid_cell_count(self, resolution: int) -> int:
        """The number of cells of `grid_cells(resolution)`, counted without
        building the grid.  Raises GridSizeError where `grid_cells` would."""
        self.require_valid()
        return _kuhn_plan(self.vertices(), resolution)[3]


# -- module-level operation surface -------------------------------------------


def __getattr__(name):
    # `polytopes.linprog` is kept for perfbench/tracing.py, which wraps it by
    # name; nothing in this package calls it, so scipy loads only on request
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def validate_delzant(poly: DelzantPolytope) -> DelzantValidation:
    """Check boundedness, nonempty interior and the vertex Z-basis condition.

    On failure the result names the violated condition and a witness vertex
    or direction.
    """
    return poly.validate()


# -- convenience constructors --------------------------------------------------


def segment(length: float = 1.0) -> DelzantPolytope:
    """The interval [0, length]; the moment polytope of a weighted CP^1
    when length is a positive integer."""
    return DelzantPolytope(
        [Facet((1,), 0.0), Facet((-1,), float(length))], name=f"segment[0,{length:g}]"
    )


def standard_simplex(dimension: int, size: float = 1.0) -> DelzantPolytope:
    """{x_i >= 0, size - sum x_i >= 0}: the CP^n moment polytope."""
    facets = [
        Facet(tuple(1 if j == i else 0 for j in range(dimension)), 0.0)
        for i in range(dimension)
    ]
    facets.append(Facet(tuple(-1 for _ in range(dimension)), float(size)))
    return DelzantPolytope(facets, name=f"simplex{dimension}d(size={size:g})")


def box(sides: Sequence[float]) -> DelzantPolytope:
    """Product of intervals [0, sides_i] (a product of CP^1's)."""
    n = len(sides)
    facets = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        me = tuple(-v for v in e)
        facets.append(Facet(e, 0.0))
        facets.append(Facet(me, float(sides[i])))
    return DelzantPolytope(facets, name="box")


def sample_interior(
    poly: DelzantPolytope,
    count: int,
    rng: np.random.Generator,
    margin: float = 0.0,
) -> np.ndarray:
    """Rejection-sample `count` points with all l_k > margin, in at most
    100,000 draws.

    Each round draws the missing rows at once; it can accept no more than it
    draws, so it makes the draws of a one-at-a-time loop, in the same order.
    """
    lo, hi = poly.bounding_box()
    pts = np.empty((0, poly.dimension))
    tries = 0
    while len(pts) < count:
        need = min(count - len(pts), 100_000 - tries)
        if need == 0:
            raise EmptyGridError(
                f"could not sample {count} interior points at margin {margin}"
            )
        tries += need
        x = lo + rng.random((need, poly.dimension)) * (hi - lo)
        pts = np.concatenate([pts, x[poly.facet_values(x).min(axis=1) > margin]])
    return pts


# -- grid construction ---------------------------------------------------------


def _intersection_vertices(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vertices of {x : normals x + offsets >= 0}: the feasible n-fold facet
    intersections, deduplicated, in lexicographic order; (0, n) if none."""
    n = normals.shape[1]
    found = []
    for combo in itertools.combinations(range(len(normals)), n):
        A = normals[list(combo)]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        v = np.linalg.solve(A, -offsets[list(combo)])
        if (normals @ v + offsets).min() >= -1e-8:
            found.append(v)
    uniq = []
    for v in found:
        if not any(np.max(np.abs(v - u)) < 1e-8 for u in uniq):
            uniq.append(v)
    return np.array(sorted(uniq, key=tuple)).reshape(-1, n)


def _triangulate(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-dimensional simplices (s, n + 1, n) covering the convex hull of
    `verts`, with their volumes; a simplex is its own triangulation."""
    n = verts.shape[1]
    if len(verts) <= n:
        raise EmptyGridError(f"region has {len(verts)} vertices, no interior")
    if len(verts) == n + 1:
        simplices = verts[None]
    else:
        from scipy.spatial import Delaunay, QhullError

        try:
            simplices = verts[Delaunay(verts).simplices]
        except QhullError as exc:
            raise EmptyGridError(f"region has no interior: {exc}") from exc
    volumes = np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1])) / math.factorial(n)
    extent = float(np.ptp(verts, axis=0).max())
    keep = volumes > 1e-12 * extent**n
    if not keep.any():
        raise EmptyGridError("region has zero volume")
    return simplices[keep], volumes[keep]


def _decreasing_sequences(n: int, top: int, lo: int, hi: int) -> list[np.ndarray]:
    """The columns c_1, ..., c_n of the integer rows top >= c_1 >= ... >= c_n
    >= 0 with lo <= c_n < hi, built column by column from the last.  The rows
    come in order of c_n, so consecutive ranges [lo, hi) tile the full set."""
    cols = [np.arange(lo, hi)]
    for _ in range(n - 1):
        counts = top + 1 - cols[0]
        rows = np.repeat(np.arange(len(cols[0])), counts)
        step = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = [cols[0][rows] + step] + [c[rows] for c in cols]
    return cols


def _kuhn_centroid_chunks(n: int, k: int, rows: int) -> Iterator[np.ndarray]:
    """Centroids of the k^n congruent simplices of the Kuhn subdivision of the
    dilated order simplex {k >= z_1 >= ... >= z_n >= 0}, in column-major
    chunks of at most `rows` rows, or of one value of the last anchor
    coordinate where that alone has more.

    The sub-simplex with integer anchor a and permutation p has vertices
    a, a + e_p(1), a + e_p(1) + e_p(2), ..., so its centroid is a + w with
    w_p(m) = (n + 1 - m)/(n + 1).  It lies in the order simplex iff
    k - 1 >= a_1 >= ... >= a_n >= 0 with a_i > a_{i+1} wherever p takes
    axis i + 1 before axis i; those anchors are enumerated directly, in
    order of a_n.  The C(top - v + n - 1, n - 1) anchors with a_n = v come
    together, so a chunk is a range of a_n.
    """
    for perm in itertools.permutations(range(n)):
        rank = np.argsort(perm)
        strict = (rank[1:] < rank[:-1]).astype(int)
        top = k - 1 - strict.sum()
        if top < 0:
            continue
        shift = np.append(np.cumsum(strict[::-1])[::-1], 0)
        counts = np.ones(top + 1, dtype=np.int64)
        for j in range(1, n):  # C(top - v + j, j) from C(top - v + j - 1, j - 1)
            counts = counts * (top - np.arange(top + 1) + j) // j
        ends = np.cumsum(counts)
        lo = 0
        while lo <= top:
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + rows, side="right")))
            base = _decreasing_sequences(n, top, lo, hi)
            chunk = np.empty((len(base[0]), n), order="F")
            for i, col in enumerate(base):
                np.add(col + shift[i], (n - rank[i]) / (n + 1), out=chunk[:, i])
            yield chunk
            lo = hi


# The most cells one grid may hold.  The largest grid a known run needs is
# 256^3 = 2^24: `converge` on the size-4 3-simplex at t <= 320, quadrature
# resolution 8 and depth 2.  Grids are built block by block, so the cap bounds
# the work of one integral (2^24 integrand rows per field), not its memory.
_MAX_GRID_CELLS = 2**24


def _kuhn_plan(verts: np.ndarray, resolution: int):
    """A triangulation of conv(verts), its simplex volumes, the subdivision
    k = resolution * ceil(longest sup-norm edge) of each simplex, and the
    cell count sum k^n.  Raises GridSizeError above _MAX_GRID_CELLS cells."""
    n = verts.shape[1]
    simplices, simplex_volumes = _triangulate(verts)
    longest = np.abs(simplices[:, :, None] - simplices[:, None]).max(axis=(1, 2, 3))
    ks = [resolution * max(1, math.ceil(e - 1e-9)) for e in longest]
    cells = sum(k**n for k in ks)
    if cells > _MAX_GRID_CELLS:
        raise GridSizeError(f"a grid of {cells} cells exceeds the cap of {_MAX_GRID_CELLS}")
    return simplices, simplex_volumes, ks, cells
