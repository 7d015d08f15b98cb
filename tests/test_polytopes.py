import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import toricflow as tf
from toricflow.errors import DomainError, EmptyGridError
from toricflow.polytopes import _kuhn_centroids


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
    result = tf.contains(cp1_unit, np.array([x]))
    assert result.inside == inside
    assert result.boundary == boundary


def test_contains_consistent_with_facet_values(cp1_size2, rng):
    for _ in range(50):
        x = rng.uniform(-0.5, 2.5, size=1)
        vals = cp1_size2.facet_values(x)
        assert tf.contains(cp1_size2, x).inside == (vals.min() >= -1e-9)


def test_lattice_points_interval(cp1_unit):
    assert [p.coords for p in tf.lattice_points(cp1_unit)] == [(0,), (1,)]


def test_lattice_points_simplices():
    small = tf.standard_simplex(2, 1.0)
    assert [p.coords for p in tf.lattice_points(small)] == [(0, 0), (0, 1), (1, 0)]
    size2 = tf.standard_simplex(2, 2.0)
    assert [p.coords for p in tf.lattice_points(size2)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    ]


def test_lattice_points_invariant_under_facet_relabeling():
    a = tf.standard_simplex(2, 2.0)
    shuffled = tf.DelzantPolytope(list(a.facets)[::-1])
    assert [p.coords for p in tf.lattice_points(a)] == [
        p.coords for p in tf.lattice_points(shuffled)
    ]


def test_interior_grid_midpoints(cp1_unit):
    grid = cp1_unit.grid_cells(4)
    assert np.allclose(sorted(grid.points[:, 0]), [0.125, 0.375, 0.625, 0.875])
    assert all(abs(v - 0.25) < 1e-15 for v in grid.volumes)


def test_interior_grid_simplex_volume():
    grid = tf.standard_simplex(2, 1.0).grid_cells(128)
    assert abs(grid.volumes.sum() - 0.5) < 1e-3


def _hirzebruch_f1():
    # trapezoid with vertices (0,0), (3,0), (2,1), (0,1)
    return tf.DelzantPolytope(
        [tf.Facet((1, 0), 0.0), tf.Facet((0, 1), 0.0), tf.Facet((0, -1), 1.0),
         tf.Facet((-1, -1), 3.0)]
    )


@pytest.mark.parametrize(
    "poly,margin,volume,ks",
    [
        (tf.segment(2.0), 0.0, 2.0, [2]),
        (tf.standard_simplex(2, 2.0), 0.0, 2.0, [2]),
        (tf.standard_simplex(3, 3.0), 0.0, 4.5, [3]),
        # Delaunay splits the square along a diagonal into two triangles
        (tf.box([2.0, 2.0]), 0.0, 4.0, [2, 2]),
        # Delaunay triangles (0,0),(0,1),(2,1) and (0,0),(2,1),(3,0)
        (_hirzebruch_f1(), 0.0, 2.5, [2, 3]),
        # the shrunk simplex {x_i >= 1/4, 2 - x1 - x2 >= 1/4}, legs 5/4
        (tf.standard_simplex(2, 2.0), 0.25, 0.5 * 1.25**2, [2]),
    ],
    ids=["segment", "simplex2d", "simplex3d", "box", "hirzebruch-f1", "simplex2d-margin"],
)
@pytest.mark.parametrize("resolution", [4, 32])
def test_grid_volumes_exact(poly, margin, volume, ks, resolution):
    grid = poly.grid_cells(resolution, margin=margin)
    assert grid.volumes.sum() == pytest.approx(volume, rel=1e-14, abs=0)
    assert (poly.facet_values(grid.points).min(axis=1) > margin).all()
    assert len(grid) == sum((k * resolution) ** poly.dimension for k in ks)


def _kuhn_reference(n, k):
    """Every Kuhn simplex of the cube grid on [0, k]^n whose vertices all lie
    in {k >= z_1 >= ... >= z_n >= 0}, one at a time: centroids, sorted."""
    centroids = []
    for anchor in itertools.product(range(k), repeat=n):
        for perm in itertools.permutations(range(n)):
            verts = [np.array(anchor, dtype=float)]
            for axis in perm:
                verts.append(verts[-1] + np.eye(n)[axis])
            verts = np.array(verts)
            if (np.diff(verts, axis=1) <= 0).all() and verts.max() <= k and verts.min() >= 0:
                centroids.append(verts.mean(axis=0))
    return np.array(sorted(map(tuple, centroids)))


@pytest.mark.parametrize("n,k", [(1, 3), (2, 1), (2, 4), (3, 1), (3, 2), (3, 5)])
def test_kuhn_centroids_match_reference(n, k):
    direct = _kuhn_centroids(n, k)
    assert len(direct) == k**n
    assert np.allclose(np.array(sorted(map(tuple, direct))), _kuhn_reference(n, k), atol=1e-12)


def test_interior_grid_margin_too_large(cp1_unit):
    with pytest.raises(EmptyGridError):
        cp1_unit.grid_cells(8, margin=0.6)


def test_interior_grid_points_inside_margin(cp1_size2):
    for p in cp1_size2.grid_cells(16, margin=0.25).points:
        assert cp1_size2.facet_values(p).min() >= 0.25 - 1e-12


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
