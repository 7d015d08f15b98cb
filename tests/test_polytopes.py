import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import toricflow as tf
from toricflow import polytopes
from toricflow.config import load_config
from toricflow.errors import DomainError, EmptyGridError


def test_unit_interval_is_delzant(cp1_unit):
    assert tf.validate_delzant(cp1_unit).ok


def test_standard_simplex_is_delzant():
    assert tf.validate_delzant(tf.standard_simplex(2, 1.0)).ok


def test_non_unimodular_vertex_reported():
    # triangle with vertices (0,0), (1,0), (0,2): at (1,0) the meeting
    # normals (0,1) and (-2,-1) have determinant 2
    poly = tf.DelzantPolytope(
        [tf.Facet((1, 0), 0.0), tf.Facet((0, 1), 0.0), tf.Facet((-2, -1), 2.0)]
    )
    result = tf.validate_delzant(poly)
    assert not result.ok
    kinds = {issue.kind for issue in result.issues}
    assert "non-delzant-vertex" in kinds
    witness = next(i.witness for i in result.issues if i.kind == "non-delzant-vertex")
    assert np.allclose(witness, (1.0, 0.0))


def test_unbounded_polytope_reported():
    poly = tf.DelzantPolytope([tf.Facet((1,), 0.0)])
    result = tf.validate_delzant(poly)
    assert not result.ok
    assert result.issues[0].kind == "unbounded"


def test_empty_interior_reported():
    poly = tf.DelzantPolytope([tf.Facet((1,), 0.0), tf.Facet((-1,), 0.0)])
    result = tf.validate_delzant(poly)
    assert not result.ok
    assert result.issues[0].kind == "empty-interior"
    # the radius of the point x = 0 is written 0, not -0
    assert "inscribed radius 0.000e+00" in result.issues[0].message


def test_facet_normal_must_be_primitive():
    with pytest.raises(ValueError):
        tf.Facet((2, 4), 1.0)
    with pytest.raises(ValueError):
        tf.Facet((0, 0), 1.0)


@pytest.mark.parametrize(
    "x,inside,boundary",
    [(0.5, True, False), (0.0, True, True), (1.1, False, True)],
)
def test_contains_interval(cp1_unit, x, inside, boundary):
    # boundary: x lies on a facet or beyond one, so it is not interior
    assert cp1_unit.contains(np.array([x])) == inside
    assert cp1_unit.is_interior(np.array([x])) == (not boundary)


def test_contains_consistent_with_facet_values(cp1_size2, rng):
    for _ in range(50):
        x = rng.uniform(-0.5, 2.5, size=1)
        vals = cp1_size2.facet_values(x)
        assert cp1_size2.contains(x) == (vals.min() >= -1e-9)


def test_lattice_points_interval(cp1_unit):
    assert cp1_unit.lattice_points() == [(0,), (1,)]


def test_lattice_points_simplices():
    small = tf.standard_simplex(2, 1.0)
    assert small.lattice_points() == [(0, 0), (0, 1), (1, 0)]
    size2 = tf.standard_simplex(2, 2.0)
    assert size2.lattice_points() == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    ]


def test_lattice_points_invariant_under_facet_relabeling():
    a = tf.standard_simplex(2, 2.0)
    shuffled = tf.DelzantPolytope(list(a.facets)[::-1])
    assert a.lattice_points() == shuffled.lattice_points()


def test_interior_grid_gauss_nodes(cp1_unit):
    grid = cp1_unit.grid_cells(4)
    nodes, weights = np.polynomial.legendre.leggauss(4)
    assert np.allclose(grid.points[:, 0], (nodes + 1) / 2, rtol=0, atol=1e-15)
    assert np.allclose(grid.weights, weights / 2, rtol=0, atol=1e-15)


def test_interior_grid_simplex_volume():
    grid = tf.standard_simplex(2, 1.0).grid_cells(128)
    assert abs(grid.weights.sum() - 0.5) < 1e-14


def _hirzebruch_f1():
    # trapezoid with vertices (0,0), (3,0), (2,1), (0,1)
    return tf.DelzantPolytope(
        [tf.Facet((1, 0), 0.0), tf.Facet((0, 1), 0.0), tf.Facet((0, -1), 1.0),
         tf.Facet((-1, -1), 3.0)]
    )


@pytest.mark.parametrize(
    "poly,volume,simplices",
    [
        (tf.segment(2.0), 2.0, 1),
        (tf.standard_simplex(2, 2.0), 2.0, 1),
        (tf.standard_simplex(3, 3.0), 4.5, 1),
        # the cones from (0,0) over the two edges that miss it split the
        # square along its diagonal
        (tf.box([2.0, 2.0]), 4.0, 2),
        # the cones from (0,0): triangles (0,0),(0,1),(2,1) and (0,0),(2,1),(3,0)
        (_hirzebruch_f1(), 2.5, 2),
    ],
    ids=["segment", "simplex2d", "simplex3d", "box", "hirzebruch-f1"],
)
@pytest.mark.parametrize("resolution", [4, 32])
def test_grid_volumes_exact(poly, volume, simplices, resolution):
    grid = poly.grid_cells(resolution)
    assert grid.weights.sum() == pytest.approx(volume, rel=1e-14, abs=0)
    assert (poly.facet_values(grid.points).min(axis=1) > 0).all()
    assert len(grid) == simplices * resolution**poly.dimension


def test_grid_takes_no_margin(cp1_unit):
    # a grid covers all of P; margin and clip_depth stay in the signature
    # only for the tracer's grid cache key
    with pytest.raises(ValueError, match="margin must be 0"):
        cp1_unit.grid_cells(8, margin=0.25)
    assert len(cp1_unit.grid_cells(8, margin=0.0, clip_depth=3)) == 8


def _hexagon():
    # the Delzant hexagon |x|, |y|, |x + y| <= 1: CP^2 blown up at three points
    return tf.DelzantPolytope([tf.Facet((sign * a, sign * b), 1.0)
                               for a, b in ((1, 0), (0, 1), (1, 1)) for sign in (1, -1)])


# name: (polytope, volume, exponents of a cubic monomial, its integral over P)
ORACLE_POLYTOPES = {
    # int_0^2 x^2 dx int_0^3 y dy = 8/3 * 9/2
    "box23": (lambda: tf.box([2.0, 3.0]), 6.0, (2, 1), 12.0),
    # 1/2 * 4/2 * 9/2
    "box123": (lambda: tf.box([1.0, 2.0, 3.0]), 6.0, (1, 1, 1), 4.5),
    # int_0^1 y (3 - y)^3 / 3 dy
    "hirzebruch-f1": (_hirzebruch_f1, 2.5, (2, 1), 131 / 60),
    # the square [-1, 1]^2 less two corners; x^2 y is odd under (x, y) -> (-x, -y)
    "hexagon": (_hexagon, 3.0, (2, 1), 0.0),
    # s^(n + 3) / (n + 3)! on the size-s standard n-simplex
    "simplex3d-size4": (lambda: tf.standard_simplex(3, 4.0), 32 / 3, (1, 1, 1), 4.0**6 / 720),
}


@pytest.mark.parametrize("name", ORACLE_POLYTOPES)
def test_pulled_cones_integrate_cubics_exactly(name):
    # from every vertex, the Chebyshev centre and every lattice point, peaked
    # or not, the cones hold P's volume and integrate a cubic exactly, the
    # degree-15 panels being exact on it and its Duffy Jacobian
    make, volume, exponents, integral = ORACLE_POLYTOPES[name]
    poly = make()
    extent = np.abs(poly.vertices()).max()
    apexes = [*poly.vertices(), poly.chebyshev_center()[0], *poly.lattice_points()]
    for apex in apexes:
        for width in (np.inf, 1e-3):
            grid = poly.cone_cells(apex, width, 8)
            points, weights = grid.points, grid.weights
            assert weights.sum() == pytest.approx(volume, rel=1e-13, abs=0)
            got = weights @ np.prod(points**np.array(exponents), axis=1)
            assert abs(got - integral) <= 1e-13 * volume * extent**3
            assert (poly.facet_values(points).min(axis=1) > 0).all()


CONE_POLYTOPES = {
    "segment": (lambda: tf.segment(2.0), [(0.0,), (1.0,), (0.5,)]),
    "simplex2d": (lambda: tf.standard_simplex(2, 2.0), [(0, 0), (1, 0), (1, 1), (0.5, 0.25)]),
    "simplex3d": (lambda: tf.standard_simplex(3, 2.0), [(0, 0, 0), (1, 0, 1), (0.5, 0.5, 0.5)]),
    "hirzebruch-f1": (_hirzebruch_f1, [(0, 0), (1, 0), (2, 1), (1, 0.5)]),
    "box3d": (lambda: tf.box([1.0, 2.0, 3.0]), [(0, 0, 0), (1, 1, 1), (0.5, 1, 1)]),
}


@pytest.mark.parametrize("name", CONE_POLYTOPES)
def test_cone_plan_covers_the_polytope(name):
    # the cones from any point of P over the boundary faces that miss it
    # tile P: their weights add up to vol(P), and every node is interior
    make, apexes = CONE_POLYTOPES[name]
    poly = make()
    volume = poly.grid_cells(4).weights.sum()
    for apex in apexes:
        for width in (np.inf, 1e-3):
            grid = poly.cone_cells(apex, width, 8)
            assert grid.weights.sum() == pytest.approx(volume, rel=1e-13, abs=0)
            assert (poly.facet_values(grid.points).min(axis=1) > 0).all()
            assert (grid.simplices[:, 0] == apex).all()


def test_cone_radial_axis_is_graded_down_to_the_width():
    # the size-3 triangle from (1, 1) at the width of the benchmark's
    # converge (t = 80): each face splits at the foot of (1, 1) into two
    # cones, and each radial axis grades its first uniform panel down to
    # width / reach, reach the cone's farthest vertex from the apex, in
    # panels/2 panels per halving of the radius
    poly = tf.standard_simplex(2, 3.0)
    width = 80.0**-0.5 / np.sqrt(2.0)
    # unpeaked, the cones over the three edges are not split
    assert len(poly.cone_cells((1, 1), np.inf, 32)) == 3 * 32 * 32
    first = {}
    for resolution, panels in ((32, 4), (64, 8)):
        grid = poly.cone_cells((1, 1), width, resolution)
        assert len(grid.simplices) == 6
        for cone, ((radial, _), (angular, _)) in zip(grid.simplices, grid.axes):
            floor = width / np.linalg.norm(cone[1:] - cone[0], axis=1).max()
            assert len(angular) == resolution and len(radial) % 8 == 0
            assert radial[7] < floor
            extra = len(radial) // 8 - panels
            assert extra == math.ceil(np.log2(1 / (panels * floor)) * panels / 2)
            first.setdefault(tuple(cone.ravel()), []).append(radial[radial < 0.25])
    # the two levels of a refinement differ near the peak too, inside the
    # coarse level's first uniform panel
    assert all(len(coarse) != len(fine) or not np.array_equal(coarse, fine)
               for coarse, fine in first.values())
    # across a face, the axis from the foot grades down to the foot's
    # distance from the apex over the part's reach: at resolution 16 (2
    # panels), 1/sqrt(2) over 3/sqrt(2) on the hypotenuse halves, 1 over 1
    # and 1 over 2 on the other faces' parts
    grid = poly.cone_cells((1, 1), width, 16)
    hypotenuse = np.isclose(grid.simplices[:, 1].sum(axis=1), 3.0)
    assert [len(angular) for (_, (angular, _)) in grid.axes] == [
        24 if on else 16 for on in hypotenuse]


def test_oversized_grid_raises_before_allocating(run_capped):
    # 8192^2 = 6.7e7 nodes, four times the cap: the points alone would
    # overrun the address-space cap
    done = run_capped("""
import toricflow as tf
try:
    tf.standard_simplex(2, 3.0).grid_cells(8192)
except tf.ToricFlowError as exc:
    print(type(exc).__name__, exc)
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("GridSizeError a grid of 67108864 nodes exceeds the cap of 16777216")


def test_sample_interior_respects_margin(cp2_size2, rng):
    pts = tf.sample_interior(cp2_size2, 30, rng, margin=0.2)
    assert (cp2_size2.facet_values(pts).min(axis=1) > 0.2).all()


def test_vertices_of_box():
    b = tf.box([1.0, 2.0])
    verts = b.vertices()
    assert verts.shape == (4, 2)
    assert tf.validate_delzant(b).ok


def _lp_unbounded_direction(poly):
    """Reference boundedness check: maximize +-d_i by LP over the recession
    cone {d : N d >= 0} cut by the box |d_i| <= 1 (2n solves)."""
    n = poly.dimension
    for i in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = -sign
            res = linprog(
                c=c,
                A_ub=-poly.normals,
                b_ub=np.zeros(len(poly.facets)),
                bounds=[(-1.0, 1.0)] * n,
                method="highs",
            )
            if res.success and -res.fun > 1e-7:
                return res.x
    return None


@pytest.mark.parametrize(
    "poly,unbounded",
    [
        (tf.DelzantPolytope([tf.Facet((1,), 0.0)]), True),
        (tf.DelzantPolytope([tf.Facet((1, 0), 0.0), tf.Facet((0, 1), 0.0)]), True),
        # the recession cone of a strip contains the line x1 = 0
        (tf.DelzantPolytope([tf.Facet((1, 0), 0.0), tf.Facet((-1, 0), 1.0)]), True),
        (tf.DelzantPolytope([tf.Facet((1, 0), 0.0), tf.Facet((-1, 2), 0.0)]), True),
        (tf.segment(2.0), False),
        (tf.standard_simplex(3, 4.0), False),
        (tf.box([1.0, 2.0, 3.0]), False),
        (_hirzebruch_f1(), False),
    ],
    ids=["half-line", "quadrant", "strip", "wedge", "segment", "simplex3d", "box3d",
         "hirzebruch-f1"],
)
def test_boundedness_matches_lp_reference(poly, unbounded):
    reference = _lp_unbounded_direction(poly)
    issues = [i for i in poly.validate().issues if i.kind == "unbounded"]
    assert bool(issues) == (reference is not None) == unbounded
    witnesses = [reference] + [i.witness for i in issues] if unbounded else []
    for d in witnesses:
        d = np.asarray(d)
        assert (poly.normals @ d).min() >= -1e-9
        assert np.abs(d).max() > 1e-7
    for issue in issues:
        assert all(type(c) is float for c in issue.witness)


def _lp_chebyshev_center(poly):
    """Reference inscribed ball: maximize r subject to l_k(x) >= r |nu_k| by
    LP over (x, r)."""
    n = poly.dimension
    norms = np.linalg.norm(poly.normals, axis=1)
    res = linprog(
        c=np.concatenate([np.zeros(n), [-1.0]]),
        A_ub=np.hstack([-poly.normals, norms[:, None]]),
        b_ub=poly.offsets,
        bounds=[(None, None)] * (n + 1),
        method="highs",
    )
    assert res.success, res.message
    return res.x[:n], float(res.x[n])


@pytest.mark.parametrize(
    "poly,closed_form",
    [
        (tf.segment(1.0), 0.5),
        (tf.segment(2.0), 1.0),
        # s / (n + sqrt(n)) for the size-s standard n-simplex
        (tf.standard_simplex(2, 2.0), 2.0 / (2 + np.sqrt(2))),
        (tf.standard_simplex(2, 3.0), 3.0 / (2 + np.sqrt(2))),
        (tf.standard_simplex(3, 4.0), 4.0 / (3 + np.sqrt(3))),
        (tf.box([1.0, 2.0, 3.0]), 0.5),
        (_hirzebruch_f1(), None),
        # empty: x >= 1 and x <= 0 leave a negative radius
        (tf.DelzantPolytope([tf.Facet((1,), -1.0), tf.Facet((-1,), 0.0)]), -0.5),
        # degenerate: the single point x = 0
        (tf.DelzantPolytope([tf.Facet((1,), 0.0), tf.Facet((-1,), 0.0)]), 0.0),
    ],
    ids=["segment1", "segment2", "simplex2d-2", "simplex2d-3", "simplex3d-4", "box3d",
         "hirzebruch-f1", "empty", "degenerate"],
)
def test_chebyshev_radius_matches_lp_reference(poly, closed_form):
    center, radius = poly.chebyshev_center()
    _, reference = _lp_chebyshev_center(poly)
    assert abs(radius - reference) <= 1e-12
    if closed_form is not None:
        assert abs(radius - closed_form) <= 1e-12
    norms = np.linalg.norm(poly.normals, axis=1)
    assert (poly.facet_values(center) >= radius * norms - 1e-9).all()


def test_chebyshev_center_of_box_is_first_vertex_of_tie():
    # every x1 = 1/2, x2 in [1/2, 3/2], x3 in [1/2, 5/2] is a center; the
    # lexicographically first optimal vertex is returned every time
    for _ in range(3):
        poly = tf.box([1.0, 2.0, 3.0])
        for _ in range(2):
            center, radius = poly.chebyshev_center()
            assert center.tolist() == [0.5, 0.5, 0.5] and radius == 0.5


def test_chebyshev_center_of_unbounded_polytope_raises():
    # a naive vertex maximum would return radius 0.707 on this wedge
    wedge = tf.DelzantPolytope(
        [tf.Facet((1, 0), 0.0), tf.Facet((0, 1), 0.0), tf.Facet((1, -1), 1.0)]
    )
    with pytest.raises(DomainError, match="unbounded"):
        wedge.chebyshev_center()


def _sample_one_at_a_time(poly, count, rng, margin):
    """The one-draw rejection loop that `sample_interior` batches."""
    lo, hi = poly.bounding_box()
    pts = []
    tries = 0
    while len(pts) < count:
        tries += 1
        if tries > 100_000:
            raise EmptyGridError(f"could not sample {count} interior points at margin {margin}")
        x = lo + rng.random(poly.dimension) * (hi - lo)
        if poly.facet_values(x).min() > margin:
            pts.append(x)
    return np.array(pts)


_SAMPLED = [tf.segment(2.0), tf.standard_simplex(2, 2.0), tf.box((1.0, 2.0))]
_SAMPLED_IDS = ["segment", "simplex", "box"]


@pytest.mark.parametrize("poly", _SAMPLED, ids=_SAMPLED_IDS)
@pytest.mark.parametrize("margin", ["0", "0.1", "half-radius"])
def test_sample_interior_matches_one_draw_loop(poly, margin):
    m = {"0": 0.0, "0.1": 0.1, "half-radius": 0.5 * poly.chebyshev_center()[1]}[margin]
    for seed, count in ((0, 1), (1, 40), (2, 500)):
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        pts = tf.sample_interior(poly, count, batched, margin=m)
        assert pts.shape == (count, poly.dimension)
        assert np.array_equal(pts, _sample_one_at_a_time(poly, count, single, m))
        assert batched.bit_generator.state == single.bit_generator.state


def test_sample_interior_cap_raises_like_one_draw_loop():
    # above twice the Chebyshev radius no point qualifies; both loops stop
    # after exactly 100,000 draws with the same message
    poly = tf.box((1.0, 2.0))
    margin = 2.0 * poly.chebyshev_center()[1]
    batched, single = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(EmptyGridError) as got:
        tf.sample_interior(poly, 3, batched, margin=margin)
    with pytest.raises(EmptyGridError) as want:
        _sample_one_at_a_time(poly, 3, single, margin)
    assert str(got.value) == str(want.value) == f"could not sample 3 interior points at margin {margin}"
    assert batched.bit_generator.state == single.bit_generator.state


def test_sample_interior_cap_cuts_the_last_round():
    # min l_k > 0.66 holds on a small triangle around (2/3, 2/3) only, so a
    # few of the 100,000 draws are accepted and the last round is cut short
    poly = tf.standard_simplex(2, 2.0)
    batched, single = np.random.default_rng(6), np.random.default_rng(6)
    with pytest.raises(EmptyGridError):
        tf.sample_interior(poly, 50, batched, margin=0.66)
    with pytest.raises(EmptyGridError):
        _sample_one_at_a_time(poly, 50, single, 0.66)
    assert batched.bit_generator.state == single.bit_generator.state
    # the same margin with a count the draws can meet returns the same points
    batched, single = np.random.default_rng(6), np.random.default_rng(6)
    pts = tf.sample_interior(poly, 2, batched, margin=0.66)
    assert np.array_equal(pts, _sample_one_at_a_time(poly, 2, single, 0.66))
    assert batched.bit_generator.state == single.bit_generator.state


def _row_major_nodes_reference(grid):
    """Points and weights of a plan built whole and row-major, simplex by
    simplex: the collapsed map on the product of its axis rules."""
    points, weights = [], []
    for simplex, axes, scale in zip(grid.simplices, grid.axes, grid.scales):
        mesh = np.meshgrid(*[u for u, _ in axes], indexing="ij")
        wmesh = np.meshgrid(*[w for _, w in axes], indexing="ij")
        x, scaled, weight = np.tile(simplex[0], (mesh[0].size, 1)), 1.0, float(scale)
        for u, w, step in zip(mesh, wmesh, np.diff(simplex, axis=0)):
            scaled = scaled * u.ravel()
            weight = weight * w.ravel()
            x = x + scaled[:, None] * step
        points.append(x)
        weights.append(weight)
    return np.concatenate(points), np.concatenate(weights)


LAYOUT_POLYTOPES = {
    "segment": lambda: tf.segment(2.0),
    "simplex2d-size3": lambda: tf.standard_simplex(2, 3.0),
    "simplex3d": lambda: tf.standard_simplex(3, 2.0),
    "box2d": lambda: tf.box([2.0, 3.0]),
    "box3d": lambda: tf.box([1.0, 2.0, 3.0]),
    "hirzebruch-f1": _hirzebruch_f1,
}


@pytest.mark.parametrize("resolution", [3, 8])
@pytest.mark.parametrize("name", LAYOUT_POLYTOPES)
def test_column_major_grid_is_bit_equal_to_row_major_build(name, resolution):
    poly = LAYOUT_POLYTOPES[name]()
    grid = poly.grid_cells(resolution)
    points, weights = _row_major_nodes_reference(grid)
    assert grid.points.flags.f_contiguous
    assert grid.points.shape == points.shape and grid.weights.shape == weights.shape
    assert np.ascontiguousarray(grid.points).tobytes() == points.tobytes()
    assert grid.weights.tobytes() == weights.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 4096, None])
@pytest.mark.parametrize("resolution", [3, 8])
@pytest.mark.parametrize("name", LAYOUT_POLYTOPES)
def test_grid_blocks_are_bit_equal_to_row_major_build(name, resolution, rows):
    # the boxes and F1 triangulate into several simplices, and a block stops
    # at each simplex's last node; rows=None asks for more rows than the grid has
    poly = LAYOUT_POLYTOPES[name]()
    grid = poly.grid_cells(resolution)
    rows = rows or len(grid) + 5
    points, weights = _row_major_nodes_reference(grid)
    blocks = list(grid.blocks(rows))
    assert all(1 <= len(p) == len(w) <= rows for p, w in blocks)
    assert all(p.flags.f_contiguous and p.shape[1] == poly.dimension for p, _ in blocks)
    assert np.concatenate([p for p, _ in blocks]).tobytes() == points.tobytes()
    assert np.concatenate([w for _, w in blocks]).tobytes() == weights.tobytes()
    # block ends include every simplex end, and a block is short only there
    ends = np.cumsum([len(p) for p, _ in blocks])
    simplex_ends = np.cumsum([resolution**poly.dimension] * len(grid.simplices))
    assert np.isin(simplex_ends, ends).all()
    assert all(len(p) == rows or end in simplex_ends for (p, _), end in zip(blocks, ends))
    if name in ("box2d", "box3d", "hirzebruch-f1"):
        assert len(simplex_ends) > 1


@pytest.mark.parametrize("name", ["simplex2d-size3", "box3d", "hirzebruch-f1"])
def test_facet_values_on_column_major_block_is_bit_equal(name):
    poly = LAYOUT_POLYTOPES[name]()
    block = poly.grid_cells(8).points[37:4133]
    assert not block.flags.c_contiguous and block[:, 0].flags.c_contiguous
    values = poly.facet_values(block)
    rows = np.ascontiguousarray(block)
    reference = (rows @ poly.normals.T + poly.offsets).tobytes()
    assert values.flags.f_contiguous
    assert np.ascontiguousarray(values).tobytes() == reference
    assert poly.facet_values(rows).tobytes() == reference


# -- batched validation against its per-combination and per-vertex loops ---------


def _intersection_vertices_reference(normals, offsets):
    """The per-combination vertex enumeration that `_intersection_vertices` batches."""
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


def _vertex_systems(poly):
    """The vertex, box-cut recession cone and Chebyshev-lift systems of P."""
    normals, offsets, n = poly.normals, poly.offsets, poly.dimension
    eye = np.eye(n)
    return {
        "vertices": (normals, offsets),
        "recession": (np.vstack([normals, eye, -eye]),
                      np.concatenate([np.zeros(len(normals)), np.ones(2 * n)])),
        "chebyshev": (np.hstack([normals, -np.linalg.norm(normals, axis=1)[:, None]]), offsets),
    }


F = tf.Facet
# validate()'s issues on each of these, as the per-vertex loop reported them
ISSUE_POLYTOPES = {
    "unbounded-wedge": ([F((1, 0), 0.0), F((0, 1), 0.0)], [
        ("unbounded", "polytope is unbounded along direction (0.0, 1.0)", (0.0, 1.0))]),
    "vertex-free-strip": ([F((0, 1), 0.0), F((0, -1), 1.0)], [
        ("unbounded", "polytope is unbounded along direction (-1.0, 0.0)", (-1.0, 0.0))]),
    "empty": ([F((1,), 0.0), F((-1,), -1.0)], [
        ("empty-interior", "polytope interior is empty (inscribed radius -5.000e-01)", None)]),
    "non-simple-pyramid": ([F((0, 0, 1), 0.0), F((1, 0, -1), 0.0), F((0, 1, -1), 0.0),
                            F((-1, 0, -1), 2.0), F((0, -1, -1), 2.0)], [
        ("non-simple-vertex", "vertex (1.0, 1.0, 1.0) meets 4 facets, expected 3", (1.0, 1.0, 1.0))]),
    "non-unimodular-triangle": ([F((1, 0), 0.0), F((0, 1), 0.0), F((-2, -1), 2.0)], [
        ("non-delzant-vertex",
         "vertex (1.0, 0.0): meeting normals have determinant 2, not a Z-basis", (1.0, 0.0))]),
    "steep-pyramid": ([F((0, 0, 1), 0.0), F((2, 0, -1), 0.0), F((0, 2, -1), 0.0),
                       F((-2, 0, -1), 4.0), F((0, -2, -1), 4.0)], [
        ("non-delzant-vertex",
         "vertex (0.0, 0.0, 0.0): meeting normals have determinant 4, not a Z-basis", (0.0, 0.0, 0.0)),
        ("non-delzant-vertex",
         "vertex (0.0, 2.0, 0.0): meeting normals have determinant -4, not a Z-basis", (0.0, 2.0, 0.0)),
        ("non-simple-vertex", "vertex (1.0, 1.0, 2.0) meets 4 facets, expected 3", (1.0, 1.0, 2.0)),
        ("non-delzant-vertex",
         "vertex (2.0, 0.0, 0.0): meeting normals have determinant 4, not a Z-basis", (2.0, 0.0, 0.0)),
        ("non-delzant-vertex",
         "vertex (2.0, 2.0, 0.0): meeting normals have determinant 4, not a Z-basis", (2.0, 2.0, 0.0))]),
}

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
VERTEX_POLYTOPES = {
    **{path.stem: (lambda path=path: load_config(path).validate().poly) for path in sorted(CONFIG_DIR.glob("*.cfg"))},
    "simplex2d-size3": lambda: tf.standard_simplex(2, 3.0),
    "simplex3d-size4": lambda: tf.standard_simplex(3, 4.0),
    "box123": lambda: tf.box([1.0, 2.0, 3.0]),
    "hirzebruch-f1": _hirzebruch_f1,
    **{name: (lambda facets=facets: tf.DelzantPolytope(facets))
       for name, (facets, _) in ISSUE_POLYTOPES.items()},
}


@pytest.mark.parametrize("name", VERTEX_POLYTOPES)
def test_batched_vertices_are_bit_equal_to_per_combination_loop(name):
    poly = VERTEX_POLYTOPES[name]()
    for system, (normals, offsets) in _vertex_systems(poly).items():
        batched = polytopes._intersection_vertices(normals, offsets)
        expected = _intersection_vertices_reference(normals, offsets)
        assert batched.shape == expected.shape, system
        assert batched.tobytes() == expected.tobytes(), system


@pytest.mark.parametrize("margin", [0.05, 0.25, 1 / 3, 0.6, 0.7])
def test_batched_vertices_of_margin_shrunk_simplex(margin):
    # past margin 2/3 the shrunk triangle {x, y >= m, x + y <= 2 - m} is
    # empty, and both enumerations find no vertex
    poly = tf.standard_simplex(2, 2.0)
    batched = polytopes._intersection_vertices(poly.normals, poly.offsets - margin)
    expected = _intersection_vertices_reference(poly.normals, poly.offsets - margin)
    assert batched.shape == expected.shape and batched.tobytes() == expected.tobytes()


def test_vertex_free_system_has_no_vertices():
    assert polytopes._intersection_vertices(np.array([[0.0, 1.0], [0.0, -1.0]]),
                                            np.array([0.0, 1.0])).shape == (0, 2)
    assert polytopes._intersection_vertices(np.array([[1.0, 0.0]]), np.array([0.0])).shape == (0, 2)


@pytest.mark.parametrize("name", ISSUE_POLYTOPES)
def test_validate_issues_unchanged(name):
    facets, expected = ISSUE_POLYTOPES[name]
    result = tf.DelzantPolytope(facets).validate()
    assert not result.ok
    assert [tuple(issue) for issue in result.issues] == expected


@pytest.mark.parametrize("make", [lambda: tf.standard_simplex(2, 2.0), _hirzebruch_f1,
                                  lambda: tf.box([1.0, 2.0, 3.0])],
                         ids=["simplex", "hirzebruch-f1", "box123"])
def test_validate_and_grids_triangulate_once(monkeypatch, make):
    # validation, grids at three resolutions and peaked and plain cones from
    # every vertex share one pulling triangulation of the boundary
    calls = []
    original = polytopes._pulling

    def counted(incidence):
        calls.append(incidence.shape)
        return original(incidence)

    monkeypatch.setattr(polytopes, "_pulling", counted)
    poly = make()
    assert poly.validate().ok
    for resolution in (4, 8, 16):
        assert poly.grid_cell_count(resolution) == len(poly.grid_cells(resolution))
    for apex in poly.vertices():
        for width in (np.inf, 1e-3):
            poly.cone_cells(apex, width, 8)
    assert calls == [(len(poly.vertices()), len(poly.facets))]
