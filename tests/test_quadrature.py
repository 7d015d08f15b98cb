import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

import toricflow as tf
from conftest import integrate
from toricflow.errors import QuadratureOverflow, QuadratureStagnation
from toricflow.quadrature import _BLOCK, _weighted_sums, integrate_many


def test_constant_exact(cp1_unit):
    value, est = integrate(lambda p: np.ones(len(p)), cp1_unit)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_linear_exact(cp1_unit):
    value, _ = integrate(lambda p: 1.0 - p[:, 0], cp1_unit)
    assert value == pytest.approx(0.5, abs=1e-10)


def test_gaussian_against_adaptive_oracle(cp1_unit):
    f = lambda p: np.exp(-100.0 * (p[:, 0] - 0.5) ** 2)
    spec = tf.QuadratureSpec(resolution=64, rel_tol=1e-10, max_refinements=4)
    value, _ = integrate(f, cp1_unit, spec)
    oracle, _ = quad(lambda x: np.exp(-100.0 * (x - 0.5) ** 2), 0.0, 1.0, epsabs=1e-13)
    assert abs(value - oracle) < 1e-8
    assert oracle == pytest.approx(np.sqrt(np.pi / 100) * erf(5.0))


def test_boundary_singular_integrand(cp1_unit):
    # int_0^1 x log x dx = -1/4; the l log l boundary behavior must not bias
    spec = tf.QuadratureSpec(resolution=1024, rel_tol=1e-10, max_refinements=2)
    value, _ = integrate(lambda p: p[:, 0] * np.log(p[:, 0]), cp1_unit, spec)
    assert abs(value + 0.25) < 1e-8


def test_error_estimate_conservative(cp1_unit):
    # on a corpus of integrands, true error <= 2x estimate in >= 95% of cases
    spec = tf.QuadratureSpec(resolution=64, rel_tol=1e-6, max_refinements=2)
    cusp = lambda p: np.exp(-np.abs(p[:, 0] - 0.37) / 0.01)
    cusp_exact = 0.01 * (2.0 - np.exp(-37.0) - np.exp(-63.0))
    narrow = lambda p: np.exp(-((p[:, 0] - 0.37) ** 2) / (2 * 0.004**2))
    narrow_exact = 0.004 * np.sqrt(2 * np.pi)
    cases = [
        (integrate(lambda p: np.cos(3 * p[:, 0]), cp1_unit, spec), np.sin(3.0) / 3.0),
        (integrate(lambda p: np.exp(p[:, 0]), cp1_unit, spec), np.e - 1.0),
        (integrate(lambda p: p[:, 0] ** 4, cp1_unit, spec), 0.2),
        (
            integrate(lambda p: 1.0 / (1.0 + p[:, 0] ** 2), cp1_unit, spec),
            np.arctan(1.0),
        ),
        (
            integrate(lambda p: np.sqrt(np.maximum(p[:, 0], 0)) * p[:, 0], cp1_unit, spec),
            0.4,
        ),
        (
            integrate(
                cusp, cp1_unit,
                tf.QuadratureSpec(resolution=16, rel_tol=1e-4, max_refinements=10),
            ),
            cusp_exact,
        ),
        (
            integrate(
                narrow, cp1_unit,
                tf.QuadratureSpec(resolution=16, rel_tol=1e-6, max_refinements=9),
            ),
            narrow_exact,
        ),
    ]
    hits = sum(
        1 for (value, est), exact in cases if abs(value - exact) <= 2.0 * max(est, 1e-15)
    )
    assert hits / len(cases) >= 0.95


def test_stagnation_reported(cp1_unit):
    wild = lambda p: np.sin(1e7 * p[:, 0])
    spec = tf.QuadratureSpec(resolution=16, rel_tol=1e-12, max_refinements=5)
    with pytest.raises(QuadratureStagnation) as err:
        integrate(wild, cp1_unit, spec)
    assert err.value.estimate > 0


def test_2d_simplex_area(cp2_size2):
    spec = tf.QuadratureSpec(resolution=64, rel_tol=1e-3, max_refinements=2)
    value, est = integrate(lambda p: np.ones(len(p)), cp2_size2, spec)
    assert value == pytest.approx(2.0, abs=2e-3)


def test_2d_polynomial(cp2_size2):
    # int over the size-2 simplex of x y = 2^4 * 1!1!/(4!) = 16/24
    f = lambda p: p[:, 0] * p[:, 1]
    spec = tf.QuadratureSpec(resolution=128, rel_tol=1e-4, max_refinements=2)
    value, _ = integrate(f, cp2_size2, spec)
    assert value == pytest.approx(16.0 / 24.0, rel=2e-4)


def _simplex_monomial(a):
    # int over the unit n-simplex of x^a = prod a_i! / (n + |a|)!
    return math.prod(math.factorial(k) for k in a) / math.factorial(len(a) + sum(a))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collapsed_rule_exact_to_degree_15(n):
    # at N = 8 each axis is one panel of 8 Gauss nodes, exact to degree 15 in
    # each collapsed coordinate u_k.  x^a of degree d has degree d + n - 1 in
    # u_1, Jacobian u_1^{n-1} included, and at most d in the others: exact
    # for d <= 16 - n, and not for x_1^{17 - n}, of degree 16 in u_1
    grid = tf.standard_simplex(n).grid_cells(8)
    x, w = grid.points, grid.weights
    top = 16 - n
    for a in itertools.product(range(top + 1), repeat=n):
        if sum(a) <= top:
            value = math.fsum(w * np.prod(x**np.array(a), axis=1))
            assert value == pytest.approx(_simplex_monomial(a), rel=1e-13, abs=0), a
    a = (top + 1,) + (0,) * (n - 1)
    assert abs(math.fsum(w * x[:, 0] ** (top + 1)) / _simplex_monomial(a) - 1) > 1e-10


def test_2d_error_falls_100x_per_doubling(cp2_size2):
    # int over the size-2 simplex of exp(x1 + 2 x2) = (e^2 - 1)^2 / 2: the
    # rule at N nodes per axis converges spectrally, then at 2^16 per
    # doubling, until it reaches rounding
    exact = 0.5 * (np.e**2 - 1.0) ** 2
    errors = []
    for res in (4, 8, 16, 32, 64):
        spec = tf.QuadratureSpec(resolution=res, max_refinements=0)
        value, est = integrate(lambda p: np.exp(p[:, 0] + 2.0 * p[:, 1]), cp2_size2, spec)
        errors.append(abs(value - exact))
    floor = 1e-14 * exact
    assert errors[0] > 1e-4 and errors[-1] < floor
    for a, b in zip(errors, errors[1:]):
        assert b <= a / 100 or b < floor, errors


class _ArrayGrid:
    """Nodes of one weight given as a whole array, served in blocks like
    `Grid.blocks`."""

    def __init__(self, points, weight):
        self.points, self.weight = points, weight

    def blocks(self, rows):
        for start in range(0, len(self.points), rows):
            points = self.points[start : start + rows]
            yield points, np.full(len(points), self.weight)


SUM_SIZES = [1, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 5]


def _signed_values(m, k, seed):
    # rows scaled over 17 decades, so a sum in another order reads differently
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)) * np.exp(rng.uniform(-20.0, 20.0, (m, 1)))


def _block_sums(vals, weight=0.37):
    def f(p):
        return vals[p[:, 0].astype(int)]

    points = np.arange(len(vals), dtype=float)[:, None]
    return _weighted_sums(f, vals.shape[1], _ArrayGrid(points, weight))


@pytest.mark.parametrize("m", SUM_SIZES)
def test_column_sum_does_not_depend_on_other_columns(m):
    for k in (1, 2, 12, 40):
        vals = _signed_values(m, k, m + k)
        sums = _block_sums(vals)
        for j in range(k):
            assert sums[j] == _block_sums(vals[:, j : j + 1].copy())[0]


@pytest.mark.parametrize("m", SUM_SIZES)
def test_column_sums_match_exact_sum(m):
    # signed values cancel, so the error is measured against the sum of |v|
    vals = _signed_values(m, 12, m)
    sums = _block_sums(vals)
    for j in range(12):
        exact = math.fsum(vals[:, j] * 0.37)
        assert abs(sums[j] - exact) <= 1e-13 * math.fsum(np.abs(vals[:, j]) * 0.37)


def test_integrand_blocks_bounded():
    # the fine level is the 32,768-node grid of resolution 32
    poly = tf.standard_simplex(3, 3.0)
    sizes = []

    def ones(p):
        sizes.append(len(p))
        return np.ones((len(p), 1))

    spec = tf.QuadratureSpec(resolution=32, max_refinements=0)
    (value, _), = integrate_many(ones, 1, poly, spec)
    assert sum(sizes) == 4_096 + 32_768
    assert max(sizes) == _BLOCK == 2**12
    assert value == pytest.approx(4.5, rel=1e-12)


def test_overflow_names_column(cp1_unit):
    f = lambda p: np.column_stack([np.ones(len(p)), np.where(p[:, 0] > 0.5, np.inf, 1.0)])
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureOverflow, match="column 1"):
        integrate_many(f, 2, cp1_unit)


def test_stagnation_names_column(cp1_unit):
    f = lambda p: np.column_stack([np.ones(len(p)), np.sin(1e7 * p[:, 0])])
    spec = tf.QuadratureSpec(resolution=16, rel_tol=1e-12, max_refinements=5)
    # column 0 judges every column by default and meets the tolerance at once
    assert integrate_many(f, 2, cp1_unit, spec)[0].value == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(QuadratureStagnation, match="column 1") as err:
        integrate_many(f, 2, cp1_unit, spec, group=1)
    with pytest.raises(QuadratureStagnation) as alone:
        integrate(lambda p: np.sin(1e7 * p[:, 0]), cp1_unit, spec)
    assert (err.value.value, err.value.estimate) == (alone.value.value, alone.value.estimate)


def test_independent_columns_freeze(cp1_unit):
    # column 0 meets the tolerance at level 0 and is then frozen: its value
    # on finer grids (here inf) is never judged nor reported, while a column
    # refined along with the reference is
    def f(p):
        first = np.full(len(p), np.inf if len(p) > 32 else 1.0)
        return np.column_stack([first, np.cos(30.0 * p[:, 0])])

    spec = tf.QuadratureSpec(resolution=16, rel_tol=1e-10, max_refinements=3)
    with np.errstate(invalid="ignore"):
        frozen, refined = integrate_many(f, 2, cp1_unit, spec, group=1)
    assert frozen.value == pytest.approx(1.0, rel=0, abs=1e-15) and frozen.estimate < 1e-15
    assert refined == integrate_many(lambda p: f(p)[:, [1]], 1, cp1_unit, spec)[0]
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureOverflow, match="column 1"):
        integrate_many(lambda p: f(p)[:, ::-1], 2, cp1_unit, spec)


def _three_groups(p):
    # three (reference, moment) groups whose references meet rel_tol 1e-4
    # after 0, 2 and 1 refinements, on grids of 8, 16, 32 and 64 points
    x = p[:, 0]
    refs = [1.0 + 0.5 * np.cos(w * x) for w in (1.0, 48.0, 24.0)]
    return np.column_stack([c for r in refs for c in (r, r * x**2)])


GROUP_SPEC = tf.QuadratureSpec(resolution=16, rel_tol=1e-4, max_refinements=5)


def test_groups_match_separate_calls(cp1_unit):
    grouped = integrate_many(_three_groups, 6, cp1_unit, GROUP_SPEC, group=2)
    for g, levels in enumerate((2, 4, 3)):
        sizes = []

        def alone(p, g=g):
            sizes.append(len(p))
            return _three_groups(p)[:, 2 * g : 2 * g + 2]

        assert grouped[2 * g : 2 * g + 2] == integrate_many(alone, 2, cp1_unit, GROUP_SPEC)
        assert sizes == [8 * 2**i for i in range(levels)]
    with pytest.raises(ValueError, match="does not divide"):
        integrate_many(_three_groups, 6, cp1_unit, GROUP_SPEC, group=4)


def test_later_group_names_its_column(cp1_unit):
    # past its group's last level a column is neither judged nor reported
    # (columns 1 and 5); one whose group still refines is (column 3)
    def overflow(p):
        vals = _three_groups(p)
        for j in (1, 3, 5):
            vals[:, j] = np.inf if len(p) > 32 else 1.0
        return vals

    with pytest.raises(QuadratureOverflow, match="column 3"):
        integrate_many(overflow, 6, cp1_unit, GROUP_SPEC, group=2)

    def stagnates(p):
        vals = _three_groups(p)
        vals[:, 4] = np.sin(1e7 * p[:, 0])
        return vals

    with pytest.raises(QuadratureStagnation, match="column 4") as err:
        integrate_many(stagnates, 6, cp1_unit, GROUP_SPEC, group=2)
    with pytest.raises(QuadratureStagnation) as alone:
        integrate(lambda p: np.sin(1e7 * p[:, 0]), cp1_unit, GROUP_SPEC)
    assert (err.value.value, err.value.estimate) == (alone.value.value, alone.value.estimate)
