import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import toricflow as tf
from toricflow import polytopes
from toricflow.config import load_config
from toricflow.errors import DomainError, EmptyGridError
from toricflow.polytopes import _kuhn_centroid_chunks, _kuhn_plan


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
    direct = np.concatenate(list(_kuhn_centroid_chunks(n, k, 5)))
    assert len(direct) == k**n
    assert np.allclose(np.array(sorted(map(tuple, direct))), _kuhn_reference(n, k), atol=1e-12)


def test_interior_grid_margin_too_large(cp1_unit):
    with pytest.raises(EmptyGridError):
        cp1_unit.grid_cells(8, margin=0.6)


def test_interior_grid_points_inside_margin(cp1_size2):
    for p in cp1_size2.grid_cells(16, margin=0.25).points:
        assert cp1_size2.facet_values(p).min() >= 0.25 - 1e-12


def test_oversized_grid_raises_before_allocating(run_capped):
    # about 1.5e8 cells: the points alone would overrun the address-space cap
    done = run_capped("""
import toricflow as tf
try:
    tf.standard_simplex(2, 3.0).grid_cells(4096)
except tf.ToricFlowError as exc:
    print(type(exc).__name__, exc)
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("GridSizeError a grid of 150994944 cells")


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


def _decreasing_rows_reference(n, top):
    """The row-major `_decreasing_sequences` of the row-major grid builder."""
    seqs = np.arange(top + 1)[:, None]
    for _ in range(n - 1):
        counts = top + 1 - seqs[:, 0]
        rows = np.repeat(np.arange(len(seqs)), counts)
        step = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        seqs = np.column_stack([seqs[rows, 0] + step, seqs[rows]])
    return seqs


def _row_major_cells_reference(poly, resolution):
    """Points and volumes of the row-major grid builder, frozen: centroid rows
    per permutation, concatenated, then mapped onto each simplex."""
    n = poly.dimension
    simplices, simplex_volumes, ks, _ = _kuhn_plan(poly._triangulation(0.0), resolution)
    points, volumes = [], []
    for simplex, volume, k in zip(simplices, simplex_volumes, ks):
        blocks = []
        for perm in itertools.permutations(range(n)):
            rank = np.argsort(perm)
            strict = (rank[1:] < rank[:-1]).astype(int)
            if strict.sum() > k - 1:
                continue
            shift = np.append(np.cumsum(strict[::-1])[::-1], 0)
            base = _decreasing_rows_reference(n, k - 1 - strict.sum())
            blocks.append(base + shift + (n - rank) / (n + 1))
        steps = np.diff(simplex, axis=0) / k
        points.append(simplex[0] + np.concatenate(blocks) @ steps)
        volumes.append(np.full(k**n, volume / k**n))
    return np.concatenate(points), np.concatenate(volumes)


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
    points, volumes = _row_major_cells_reference(poly, resolution)
    assert grid.points.flags.f_contiguous
    assert grid.points.shape == points.shape and grid.volumes.shape == volumes.shape
    assert np.ascontiguousarray(grid.points).tobytes() == points.tobytes()
    assert grid.volumes.tobytes() == volumes.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 4096, None])
@pytest.mark.parametrize("resolution", [3, 8])
@pytest.mark.parametrize("name", LAYOUT_POLYTOPES)
def test_grid_blocks_are_bit_equal_to_row_major_build(name, resolution, rows):
    # the boxes and F1 triangulate into several simplices, and a block stops
    # at each simplex's last cell; rows=None asks for more rows than the grid has
    poly = LAYOUT_POLYTOPES[name]()
    grid = poly.grid_cells(resolution)
    rows = rows or len(grid) + 5
    points, volumes = _row_major_cells_reference(poly, resolution)
    blocks = list(grid.blocks(rows))
    assert all(1 <= len(p) <= rows and isinstance(v, float) for p, v in blocks)
    assert all(p.flags.f_contiguous and p.shape[1] == poly.dimension for p, _ in blocks)
    assert np.concatenate([p for p, _ in blocks]).tobytes() == points.tobytes()
    repeated = np.concatenate([np.full(len(p), v) for p, v in blocks])
    assert repeated.tobytes() == volumes.tobytes()
    # block ends include every simplex end, and a block is short only there
    ends = np.cumsum([len(p) for p, _ in blocks])
    simplex_ends = np.cumsum(np.array(grid.ks) ** poly.dimension)
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


def test_margin_zero_grid_reuses_memoized_vertices(monkeypatch):
    poly = _hirzebruch_f1()
    poly.validate()
    poly.vertices()
    calls = []
    original = polytopes._intersection_vertices

    def counted(normals, offsets):
        calls.append(len(normals))
        return original(normals, offsets)

    monkeypatch.setattr(polytopes, "_intersection_vertices", counted)
    poly.grid_cells(4)
    assert calls == []
    poly.grid_cells(4, margin=0.1)
    assert calls == [4]


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
    calls = []
    original = polytopes._triangulate

    def counted(verts):
        calls.append(len(verts))
        return original(verts)

    monkeypatch.setattr(polytopes, "_triangulate", counted)
    poly = make()
    assert poly.validate().ok
    for resolution in (4, 8, 16):
        assert poly.grid_cell_count(resolution) == len(poly.grid_cells(resolution))
    assert len(calls) == 1
    poly.grid_cells(4, margin=0.1)
    poly.grid_cells(8, margin=0.1)
    assert len(calls) == 2
