import itertools

import numpy as np
import pytest

import toricflow as tf
from toricflow.errors import EmptyGridError
from toricflow.polytopes import _clip_straddlers, _corner_offsets


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
    grid = tf.interior_grid(cp1_unit, 4)
    points = sorted(float(p[0]) for p, _ in grid)
    assert np.allclose(points, [0.125, 0.375, 0.625, 0.875])
    assert all(abs(v - 0.25) < 1e-15 for _, v in grid)


def test_interior_grid_simplex_volume():
    grid = tf.interior_grid(tf.standard_simplex(2, 1.0), 128)
    assert abs(sum(v for _, v in grid) - 0.5) < 1e-3


def test_interior_grid_volume_order():
    # clipped-cell volume error decays at least linearly in 1/resolution
    poly = tf.standard_simplex(2, 1.0)
    errors = [
        abs(sum(v for _, v in tf.interior_grid(poly, r)) - 0.5) for r in (16, 64, 256)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[2] >= (256 / 16) ** 0.9


def test_interior_grid_margin_too_large(cp1_unit):
    with pytest.raises(EmptyGridError):
        tf.interior_grid(cp1_unit, 8, margin=0.6)


def test_interior_grid_points_inside_margin(cp1_size2):
    for p, _ in tf.interior_grid(cp1_size2, 16, margin=0.25):
        assert cp1_size2.facet_values(p).min() >= 0.25 - 1e-12


def _clip_reference(poly, lo, size, margin, depth):
    """Depth-first, one box at a time: (volume, point or None, point box size)."""
    n = len(lo)
    corners = lo + _corner_offsets(n) * size
    vals = corners @ poly.normals.T + poly.offsets - margin
    center = lo + 0.5 * size
    if (vals.max(axis=0) < 0.0).any():
        return 0.0, None, 0.0
    if vals.min() >= 0.0 or (depth == 0 and poly.facet_values(center).min() >= margin):
        return size**n, center, size
    if depth == 0:
        return 0.0, None, 0.0
    volume, best, best_size = 0.0, None, 0.0
    for shift in _corner_offsets(n):
        v, p, s = _clip_reference(poly, lo + shift * size / 2, size / 2, margin, depth - 1)
        volume += v
        if s > best_size:
            best, best_size = p, s
    return volume, best, best_size


@pytest.mark.parametrize("dim,depth", [(2, 6), (3, 3)])
def test_batched_clip_matches_depth_first_reference(dim, depth):
    # dyadic sizes keep every partial volume exact, so the two orders agree bit for bit
    poly, size, margin = tf.standard_simplex(dim, 1.0), 0.25, 0.05
    los = np.array(list(itertools.product(np.arange(-1, 5) * size, repeat=dim)))
    vols, reps = _clip_straddlers(poly, los, size, margin, depth, _corner_offsets(dim))
    cut = 0
    for lo, vol, rep in zip(los, vols, reps):
        ref_vol, ref_rep, ref_size = _clip_reference(poly, lo, size, margin, depth)
        assert vol == ref_vol
        if ref_rep is not None:
            assert np.array_equal(rep, ref_rep)
        cut += 0.0 < ref_size < size
    assert cut > 0


def test_sample_interior_respects_margin(cp2_size2, rng):
    pts = tf.sample_interior(cp2_size2, 30, rng, margin=0.2)
    assert (cp2_size2.facet_values(pts).min(axis=1) > 0.2).all()


def test_vertices_of_box():
    b = tf.box([1.0, 2.0])
    verts = b.vertices()
    assert verts.shape == (4, 2)
    assert tf.validate_delzant(b).ok
