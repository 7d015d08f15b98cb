import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

import toricflow as tf
from conftest import integrate
from toricflow.errors import QuadratureOverflow, QuadratureStagnation
from toricflow.quadrature import (
    _BLOCK, _BLOCK_VALUES, _pairwise_sum, _weighted_sums, integrate_many,
)


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


def test_smooth_convergence_order(cp1_unit):
    exact = np.sin(1.0)
    errs = []
    for res in (8, 16, 32):
        spec = tf.QuadratureSpec(resolution=res, rel_tol=1e-1, max_refinements=0)
        value, _ = integrate(lambda p: np.cos(p[:, 0]), cp1_unit, spec)
        errs.append(abs(value - exact))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


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


def test_2d_richardson_h2_expansion(cp2_size2):
    # int over the size-2 simplex of exp(x1 + 2 x2) = (e^2 - 1)^2 / 2; the
    # midpoint error is c h^2 + O(h^4), so Richardson's error falls ~16x per
    # doubling and the difference of the two levels bounds it
    exact = 0.5 * (np.e**2 - 1.0) ** 2
    errors = []
    for res in (16, 32, 64, 128):
        spec = tf.QuadratureSpec(resolution=res, max_refinements=0)
        value, est = integrate(lambda p: np.exp(p[:, 0] + 2.0 * p[:, 1]), cp2_size2, spec)
        errors.append(abs(value - exact))
        assert est >= errors[-1]
    assert all(a >= 12.0 * b for a, b in zip(errors, errors[1:]))


def test_2d_quadratic_extrapolates_exactly(cp2_size2):
    # for a quadratic the h^2 term is the whole midpoint error, so one
    # Richardson step is exact up to rounding
    spec = tf.QuadratureSpec(resolution=16, rel_tol=1e-10)
    value, _ = integrate(lambda p: p[:, 0] * p[:, 1], cp2_size2, spec)
    assert abs(value - 2.0 / 3.0) <= 1e-14


class _ArrayGrid:
    """Cells given as whole arrays, served in blocks like `Grid.blocks`."""

    def __init__(self, points, volumes):
        self.points, self.volumes = points, volumes

    def blocks(self, rows):
        for start in range(0, len(self.volumes), rows):
            yield self.points[start : start + rows], self.volumes[start : start + rows]


@pytest.mark.parametrize("m", [1, 2**14 - 1, 2**14, 3 * 2**14 + 5])
def test_block_sums_are_one_pairwise_tree(m):
    # a power-of-two block keeps the summation tree of the whole column; a
    # wide matrix gets fewer points per block, never more than _BLOCK_VALUES
    rng = np.random.default_rng(m)
    volumes = rng.random(m)
    points = np.arange(m, dtype=float)[:, None]
    for k, block in ((2, 2**14), (12, 2**12)):
        vals = rng.standard_normal((m, k)) * np.exp(rng.uniform(-20.0, 20.0, (m, 1)))
        sizes = []

        def f(p):
            sizes.append(len(p))
            return vals[p[:, 0].astype(int)]

        sums = _weighted_sums(f, k, _ArrayGrid(points, volumes))
        assert max(sizes) == min(m, block) and block * k <= _BLOCK_VALUES
        for j in range(k):
            assert sums[j] == _pairwise_sum(vals[:, j] * volumes)


def test_integrand_blocks_bounded():
    # the fine level is the 884,736-cell grid of resolution 32
    poly = tf.standard_simplex(3, 3.0)
    sizes = []

    def ones(p):
        sizes.append(len(p))
        return np.ones((len(p), 1))

    spec = tf.QuadratureSpec(resolution=16, max_refinements=0)
    (value, _), = integrate_many(ones, 1, poly, spec)
    assert sum(sizes) == 110_592 + 884_736
    assert max(sizes) == _BLOCK == 2**14
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
    assert frozen == (1.0, 0.0)
    assert refined == integrate_many(lambda p: f(p)[:, [1]], 1, cp1_unit, spec)[0]
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureOverflow, match="column 1"):
        integrate_many(lambda p: f(p)[:, ::-1], 2, cp1_unit, spec)


def _three_groups(p):
    # three (reference, moment) groups whose references meet rel_tol 1e-4
    # after 0, 2 and 1 refinements, on grids of 16, 32, 64 and 128 points
    x = p[:, 0]
    refs = [1.0 + 0.5 * np.cos(w * x) for w in (1.0, 8.0, 4.0)]
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
        assert sizes == [16 * 2**i for i in range(levels)]
    with pytest.raises(ValueError, match="does not divide"):
        integrate_many(_three_groups, 6, cp1_unit, GROUP_SPEC, group=4)


def test_later_group_names_its_column(cp1_unit):
    # past its group's last level a column is neither judged nor reported
    # (columns 1 and 5); one whose group still refines is (column 3)
    def overflow(p):
        vals = _three_groups(p)
        for j in (1, 3, 5):
            vals[:, j] = np.inf if len(p) > 64 else 1.0
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
