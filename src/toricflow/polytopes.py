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
Nothing here imports scipy but the `linprog` shim kept for perfbench.

Besides validation, this module enumerates the lattice points of P (the index
set of the torus-weight basis) and plans quadrature grids (`Grid`): a
Gauss-Legendre product rule in collapsed (Duffy) coordinates on the cones
from one point over a pulling triangulation of the boundary of P: from the
first vertex, or from a peak point with the radial axis graded toward it.
Nodes are strictly interior.  A grid is built block by block when it is
iterated, so memory holds about one block, whatever the node count.  Grid
points are column-major, as a ufunc over row-major (m, n) points loops over
only n <= 3 entries per row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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
    """A Gauss product rule on simplices, as a plan.  Simplex i, with apex
    v_0 = simplices[i, 0], is the image of the unit cube under the collapsed
    (Duffy) map x = v_0 + sum_k (u_1 ... u_k)(v_k - v_{k-1}), and axis k of
    the cube carries the rule axes[i][k] of nodes and weights, with the
    Jacobian scales[i] u_1^{n-1} u_2^{n-2} ... u_{n-1} folded into the
    weights.  No node is built until `blocks` is iterated."""

    simplices: np.ndarray  # (s, n + 1, n)
    axes: tuple            # per simplex, n (nodes, weights) pairs
    scales: np.ndarray     # (s,), n! times the volumes

    def __len__(self) -> int:
        return sum(math.prod(len(u) for u, _ in axes) for axes in self.axes)

    def blocks(self, rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The nodes in a fixed order as (points, weights) blocks of at most
        `rows` rows, points column-major (m, n); a block never crosses a
        simplex, and only the block requested is held."""
        n = self.simplices.shape[2]
        for simplex, axes, scale in zip(self.simplices, self.axes, self.scales):
            shape = tuple(len(u) for u, _ in axes)
            steps, total = np.diff(simplex, axis=0), math.prod(shape)
            for start in range(0, total, rows):
                index = np.unravel_index(np.arange(start, min(start + rows, total)), shape)
                points = np.empty((len(index[0]), n), order="F")
                points[:] = simplex[0]
                weights, scaled = np.full(len(points), float(scale)), np.ones(len(points))
                for (u, w), i, step in zip(axes, index, steps):
                    scaled *= u[i]
                    weights *= w[i]
                    for j in range(n):
                        points[:, j] += scaled * step[j]
                yield points, weights

    @property
    def points(self) -> np.ndarray:
        """All nodes, (len, n) column-major."""
        return np.concatenate([points for points, _ in self.blocks(len(self))])

    @property
    def weights(self) -> np.ndarray:
        """All weights, (len,)."""
        return np.concatenate([weights for _, weights in self.blocks(len(self))])


class DelzantPolytope:
    """Moment polytope from an ordered facet list.

    Values are immutable after construction; derived data (vertices, the
    reasons `validate` raises on, the boundary triangulation, cones) is
    memoized.  Lattice points and grids exist only on a Delzant P: they call
    `validate` first, which raises DomainError otherwise.
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

    def validate(self) -> None:
        """Raise DomainError naming every reason P is not Delzant: unbounded
        (with a recession direction), an empty interior (with the inscribed
        radius), or a vertex that is not simple or whose normals are not a
        Z-basis (with the vertex).  The reasons are memoized."""
        if "reasons" not in self._cache:
            direction = self._unbounded_direction()
            if direction is not None:
                reasons = [f"polytope is unbounded along direction {_plain(direction)}"]
            elif (radius := self.chebyshev_center()[1]) <= 1e-9:
                reasons = [f"polytope interior is empty (inscribed radius {radius + 0.0:.3e})"]
            else:
                reasons = self._vertex_issues()
            self._cache["reasons"] = reasons
        if self._cache["reasons"]:
            raise DomainError("polytope is not Delzant: " + "; ".join(self._cache["reasons"]))

    def _vertex_issues(self) -> list[str]:
        """Non-simple and non-unimodular vertices, in vertex order, from one
        `facet_values` call and one stacked det over the simple vertices."""
        n = self.dimension
        keys = [_plain(np.round(v, 8)) for v in self.vertices()]
        first = [i for i, key in enumerate(keys) if keys.index(key) == i]
        active = np.abs(self.facet_values(self.vertices()[first])) <= 1e-8
        simple = active.sum(axis=1) == n
        dets = iter(np.linalg.det(self._normals[np.nonzero(active[simple])[1].reshape(-1, n)]))
        issues = []
        for i, meets, ok in zip(first, active.sum(axis=1), simple):
            if not ok:
                issues.append(f"vertex {keys[i]} meets {meets} facets, expected {n}")
            elif abs(det := round(next(dets))) != 1:
                issues.append(f"vertex {keys[i]}: meeting normals have determinant {det}, not a Z-basis")
        return issues

    # -- lattice points and grids ---------------------------------------------

    def lattice_points(self) -> list[tuple[int, ...]]:
        """The integer points of P as int tuples, in lexicographic order."""
        self.validate()
        lo, hi = self.bounding_box()
        ranges = [
            range(math.ceil(l - 1e-9), math.floor(h + 1e-9) + 1)
            for l, h in zip(lo, hi)
        ]
        # the product of ascending ranges is already in lexicographic order
        return [coords for coords in itertools.product(*ranges) if self.contains(coords)]

    def grid_cells(self, resolution: int, margin: float = 0.0, clip_depth: int = 6) -> Grid:
        """The Gauss plan of P, `resolution` nodes per axis on each of the
        unpeaked `cone_cells` from the first vertex (a simplex is its own
        cone).  `margin` must be 0 and `clip_depth` is unused; both stay
        because perfbench/tracing.py binds them by name in its grid cache
        key, and go with that key (ROADMAP item 1)."""
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        if margin:
            raise ValueError("a grid covers all of P; margin must be 0")
        self.validate()
        return self.cone_cells(self.vertices()[0], np.inf, resolution)

    def cone_cells(self, apex, width: float, resolution: int) -> Grid:
        """The Gauss plan of P on the cones from `apex`, a point of P, over
        the `_boundary` simplices on facets that miss `apex`.  For a finite
        `width`, a peak width, each simplex is split at the foot of `apex`,
        and each radial axis grades its first panel toward the apex down to
        `width`, so a density peaked there is resolved at every scale; the
        next axis, across the face from the foot, grades down to the foot's
        distance from the apex, the width of the peak across it.  For width
        inf the cones are the plain pulling triangulation from `apex`."""
        peaked = width < np.inf
        key = ("cones", tuple(float(v) for v in apex), peaked)
        if key not in self._cache:
            lam, (faces, facets) = np.array(key[1]), self._boundary()
            self._cache[key] = np.array([
                np.vstack([lam, part]) for face in faces[self.facet_values(lam)[facets] > 1e-9]
                for part in (_split_at_foot(face, lam) if peaked else [face])])
        cones = self._cache[key]
        edges = cones[:, 1:] - cones[:, :1]
        floors = np.full(edges.shape[:2], np.inf)
        floors[:, 0] = width / np.linalg.norm(edges, axis=2).max(axis=1)
        if peaked and self.dimension > 1:
            across = np.linalg.norm(cones[:, 2:] - cones[:, 1:2], axis=2).max(axis=1)
            floors[:, 1] = np.linalg.norm(edges[:, 0], axis=1) / across
        return _plan(cones, np.abs(np.linalg.det(edges)), resolution, floors)

    def _boundary(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n-1)-simplices (b, n, n) of `_pulling`'s triangulation of the
        boundary of P, and the facet of each (b,), once per polytope.  They
        come in descending order of their vertex indices, so on a simplex the
        face opposite vertex 0 comes first."""
        if "boundary" not in self._cache:
            self.validate()
            verts = self.vertices()
            faces, facets = zip(*sorted(_pulling(np.abs(self.facet_values(verts)) <= 1e-8), reverse=True))
            self._cache["boundary"] = verts[np.array(faces)], np.array(facets)
        return self._cache["boundary"]


# -- module-level operation surface -------------------------------------------


def __getattr__(name):
    # `polytopes.linprog` is kept for perfbench/tracing.py and the tests; no
    # package code calls it, so scipy (a test extra) loads only on request
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def validate_delzant(poly: DelzantPolytope) -> None:
    """`poly.validate()`: raise DomainError unless P is bounded with nonempty
    interior and the normals at every vertex form a Z-basis, naming each
    violated condition with its witness direction, radius or vertex.
    """
    poly.validate()


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


MAX_SAMPLE_DRAWS = 100_000


def sample_interior(
    poly: DelzantPolytope,
    count: int,
    rng: np.random.Generator,
    margin: float = 0.0,
) -> np.ndarray:
    """Rejection-sample `count` points with all l_k > margin, in at most
    MAX_SAMPLE_DRAWS draws.

    Each round draws the missing rows at once; it can accept no more than it
    draws, so it makes the draws of a one-at-a-time loop, in the same order.
    """
    lo, hi = poly.bounding_box()
    pts = np.empty((0, poly.dimension))
    tries = 0
    while len(pts) < count:
        need = min(count - len(pts), MAX_SAMPLE_DRAWS - tries)
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
    intersections, deduplicated, in lexicographic order; (0, n) if none.
    All combinations go through one stacked det and one stacked solve, which
    give each system's per-matrix result bit for bit."""
    n = normals.shape[1]
    combos = itertools.combinations(range(len(normals)), n)
    combos = np.array(list(combos), dtype=int).reshape(-1, n)
    systems = normals[combos]
    regular = np.abs(np.linalg.det(systems)) >= 1e-12
    found = np.linalg.solve(systems[regular], -offsets[combos[regular]][..., None])[..., 0]
    found = found[(found @ normals.T + offsets).min(axis=1) >= -1e-8]
    close = (np.abs(found[:, None] - found[None]) < 1e-8).all(axis=2).tolist()
    uniq = []
    for i, row in enumerate(close):  # first come, as each was compared with those kept
        if not any(row[j] for j in uniq):
            uniq.append(i)
    return np.array(sorted(found[uniq].tolist())).reshape(-1, n)


def _pulling(incidence: np.ndarray) -> list[tuple[tuple[int, ...], int]]:
    """The pulling triangulation of the boundary of a simple polytope, from
    its (vertices, facets) incidence table: each facet is coned from its
    first vertex over the pulled faces of the facet that miss that vertex,
    recursively down to vertices (De Loera, Rambau and Santos,
    Triangulations, 2010).  In a simple polytope the face on the facets S
    and k is a facet of the face on S whenever it holds a vertex, so the
    faces of a face are its nonempty meets with the other facets.  Returns
    the vertex indices, ascending, and the facet of each (n-1)-simplex."""

    def pull(face: np.ndarray) -> list[tuple[int, ...]]:
        first = int(np.argmax(face))
        if face.sum() == 1:
            return [(first,)]
        return [(first, *simplex) for k in np.flatnonzero(~incidence[first])
                if (sub := face & incidence[:, k]).any() for simplex in pull(sub)]

    return [(simplex, k) for k in range(incidence.shape[1]) for simplex in pull(incidence[:, k])]


def _split_at_foot(face: np.ndarray, point: np.ndarray) -> list[np.ndarray]:
    """The parts (foot, face minus one vertex) of the simplex `face` split at
    the foot of `point` on its affine hull, when the foot lies in the face,
    else the face.  Seen from `point`, a density peaked there peaks across
    the face at the foot, so each part holds that peak at a corner."""
    coef = np.linalg.lstsq((face[1:] - face[0]).T, point - face[0], rcond=None)[0]
    bary = np.concatenate([[1.0 - coef.sum()], coef])
    if bary.min() < -1e-12:
        return [face]
    foot = bary @ face
    return [np.vstack([foot, np.delete(face, i, axis=0)]) for i in np.flatnonzero(bary > 1e-12)]


# The most nodes one plan may hold: plans are built block by block, so the
# cap bounds the work of one integral, 2^24 integrand rows per field.
_MAX_GRID_NODES = 2**24


@functools.lru_cache(maxsize=None)
def _gauss(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q-point Gauss-Legendre rule on [0, 1] by Golub-Welsch: the
    eigenvalues and first eigenvector components of the Jacobi matrix."""
    k = np.arange(1.0, q)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return (nodes + 1.0) / 2.0, vectors[0] ** 2


def _panels(resolution: int) -> tuple[int, int]:
    """ceil(resolution / 8) uniform panels and the Gauss nodes of each, at
    most 8: 8 nodes integrate polynomials of degree 15 exactly."""
    panels = -(-resolution // 8)
    return panels, -(-resolution // panels)


def _graded(panels: int, floor: float) -> int:
    """The graded panels that replace the first of `panels` uniform panels:
    they shrink toward 0 by 2^{-2/panels}, the first by 2^{-3/(2 panels)},
    panels/2 of them per halving of the radius, until the last ends at most
    a quarter step, 2^{1/(2 panels)}, beyond `floor`.  They grow in number
    with the resolution like the uniform panels, so the two rungs of a
    refinement differ near the apex too (see `_axis_rule`)."""
    return math.ceil(math.log2(1.0 / (panels * floor)) * panels / 2) if panels * floor < 1.0 else 0


@functools.lru_cache(maxsize=256)
def _axis_rule(resolution: int, power: int, graded: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the composite Gauss rule of
    `_panels(resolution)`, the first panel replaced by `graded` panels of
    `_graded`, with the weights multiplied by u^power.  The graded
    breakpoints are 2^{-(2k - 1/2)/panels} / panels, k = 1 .. graded.
    Counted down from 2/panels in factors of 2^{-1/panels}, they lie on
    half-integers, those of the rung with panels/2 panels on odd integers,
    and both rungs' uniform breakpoints on even ones, so the two rungs of a
    refinement share no panel, the innermost included."""
    panels, q = _panels(resolution)
    uniform = np.linspace(0.0, 1.0, panels + 1)
    inner = uniform[1] * 2.0 ** (-2.0 / panels * (np.arange(graded, 0, -1) - 0.25))
    breaks = np.concatenate([[0.0], inner, uniform[1:]])
    x, w = _gauss(q)
    widths = np.diff(breaks)[:, None]
    nodes = (breaks[:-1, None] + widths * x).ravel()
    weights = (widths * w).ravel() * nodes**power
    nodes.flags.writeable = weights.flags.writeable = False  # shared by the cache
    return nodes, weights


def _plan(simplices: np.ndarray, scales: np.ndarray, resolution: int, floors=None) -> Grid:
    """The Grid of `resolution` nodes per axis on each simplex, axis k of
    simplex i graded toward 0 down to floors[i, k] (none by default).
    Raises GridSizeError above _MAX_GRID_NODES nodes, before building any."""
    n = simplices.shape[2]
    panels, q = _panels(resolution)
    floors = np.full((len(simplices), n), np.inf) if floors is None else floors
    graded = [[_graded(panels, f) for f in row] for row in floors]
    nodes = sum(math.prod(q * (panels + g) for g in row) for row in graded)
    if nodes > _MAX_GRID_NODES:
        raise GridSizeError(f"a grid of {nodes} nodes exceeds the cap of {_MAX_GRID_NODES}")
    return Grid(simplices, tuple(tuple(_axis_rule(resolution, n - 1 - k, g) for k, g in enumerate(row))
                                 for row in graded), scales)
