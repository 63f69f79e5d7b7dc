"""Quadrature tests: exactness, error honesty, determinism, mirroring."""

import math

import numpy as np
import pytest

from sylvester import quad
from sylvester.errors import DomainError, NonConvergenceError
from sylvester.quad import (
    CumulativeIntegral,
    DecayEnvelope,
    QuadratureConfig,
    integrate_line,
    truncation_point,
)
from sylvester.verification import known_integral_suite

SQRT_2PI = math.sqrt(2.0 * math.pi)

GAUSS_ENV = DecayEnvelope("gaussian", 1.0)


def test_gaussian_integral():
    res = integrate_line(lambda x: np.exp(-0.5 * x * x), GAUSS_ENV)
    assert abs(res.value - SQRT_2PI) <= 1e-12
    assert res.method == "quadrature"
    assert res.nodes_used > 0


def test_odd_integrand_vanishes():
    res = integrate_line(lambda x: x * np.exp(-0.5 * x * x),
                         DecayEnvelope("gaussian", 1.0, poly_degree=1))
    assert abs(res.value) <= 1e-12


def test_sech_squared():
    env = DecayEnvelope("exponential", 0.5, log_amplitude=math.log(4.0))
    res = integrate_line(lambda x: 1.0 / np.cosh(x) ** 2, env)
    assert abs(res.value - 2.0) <= 1e-10


def test_kinked_exponential():
    # the |x| kink sits at 0, where both half lines end, so the rule still converges
    env = DecayEnvelope("exponential", 0.5)
    res = integrate_line(lambda x: np.exp(-2.0 * np.abs(x)), env)
    assert abs(res.value - 1.0) <= 3.0 * res.abs_error_estimate
    assert abs(res.value - 1.0) <= 1e-10


@pytest.mark.parametrize("name,f,envelope,exact", known_integral_suite(),
                         ids=[case[0] for case in known_integral_suite()])
def test_error_honesty(name, f, envelope, exact):
    res = integrate_line(f, envelope)
    assert abs(res.value - exact) <= 3.0 * res.abs_error_estimate
    assert abs(res.value - exact) <= 1e-9


@pytest.mark.parametrize("name,f,envelope,exact", known_integral_suite()[:8],
                         ids=[case[0] for case in known_integral_suite()[:8]])
def test_refinement_monotonicity(name, f, envelope, exact):
    previous_error = None
    previous_estimate = None
    for rel_tol in (1e-6, 5e-7, 2.5e-7, 1e-8, 1e-10):
        res = integrate_line(f, envelope, QuadratureConfig(rel_tol=rel_tol, abs_tol=1e-13))
        error = abs(res.value - exact)
        if previous_error is not None:
            assert error <= previous_error + previous_estimate
        previous_error, previous_estimate = error, res.abs_error_estimate


def test_negligible_integrand_keeps_a_node():
    # the cutoff falls below 1 when the whole integrand is under the tail target
    env = DecayEnvelope("gaussian", 1.0, 0, math.log(1e-18))
    res = integrate_line(lambda x: 1e-18 * np.exp(-0.5 * x * x), env)
    assert res.nodes_used > 0
    assert abs(res.value - 1e-18 * SQRT_2PI) <= 3.0 * res.abs_error_estimate


def test_determinism():
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-11)
    f = lambda x: np.cos(x) * np.exp(-0.5 * x * x)
    first = integrate_line(f, GAUSS_ENV, cfg)
    second = integrate_line(f, GAUSS_ENV, cfg)
    assert first == second


@pytest.mark.parametrize(
    "f,envelope",
    [
        (lambda x: np.exp(-0.5 * x * x), GAUSS_ENV),
        (lambda x: 1.0 / np.cosh(x) ** 2,
         DecayEnvelope("exponential", 0.5, log_amplitude=math.log(4.0))),
        (lambda x: x * x * np.exp(-0.5 * x * x), DecayEnvelope("gaussian", 1.0, 2)),
    ],
)
def test_mirroring_even_integrands(f, envelope):
    full = integrate_line(f, envelope)
    halved = integrate_line(f, envelope, symmetric=True)
    assert halved.value == pytest.approx(full.value, rel=1e-13)


def test_nonconvergence_carries_best_result(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_REFINEMENTS", 3)
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-18)
    with pytest.raises(NonConvergenceError) as info:
        integrate_line(lambda x: np.exp(-0.5 * x * x) / (1.0 + 1e4 * (x - 1.0) ** 2),
                       DecayEnvelope("exponential", 1.0, 0, math.log(2.0)), cfg)
    assert "after 3 refinements" in str(info.value)
    best = info.value.best
    assert best is not None
    # the integral to 16 digits, from mpmath
    assert abs(best.value - 0.01898573669998938) <= best.abs_error_estimate
    assert best.abs_error_estimate > 0.0


def _ripple(x):  # a 1e-6 ripple at frequency 1e6 keeps the halving estimate from falling
    return np.exp(-0.5 * x * x) * (1.0 + 1e-6 * np.cos(1e6 * x))


def test_stalled_estimate_carries_best_result():
    with pytest.raises(NonConvergenceError, match="error estimate stalled") as info:
        integrate_line(_ripple, GAUSS_ENV, QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14))
    best = info.value.best
    assert best.nodes_used == 10_164
    assert best.value == pytest.approx(SQRT_2PI, rel=1e-6)
    assert best.abs_error_estimate > 1e-12 * SQRT_2PI


def test_stall_stops_two_levels_after_the_best_estimate():
    # the estimate wobbles without rising twice in a row; two levels in a row
    # without a new best stop it where 20 levels would evaluate 2e7 nodes
    evaluated = []

    def f(x):
        evaluated.append(x.size)
        return _ripple(x)

    with pytest.raises(NonConvergenceError, match="error estimate stalled") as info:
        integrate_line(f, GAUSS_ENV, QuadratureConfig(rel_tol=1e-12, abs_tol=1e-12))
    assert info.value.best.nodes_used < 2_000
    assert sum(evaluated) < 10_000


def test_non_finite_integrand_rejected():
    with pytest.raises(DomainError, match="non-finite"):
        integrate_line(lambda x: np.where(x > 1.0, np.nan, np.exp(-0.5 * x * x)), GAUSS_ENV)


def test_wrongly_shaped_integrand_rejected():
    with pytest.raises(DomainError, match="integrand returned shape"):
        integrate_line(lambda x: np.exp(-0.5 * x * x).sum(axis=0), GAUSS_ENV)


def test_on_refinement_sees_all_nodes():
    seen, evaluated = [], []

    def f(x):
        evaluated.append(x.copy())
        return np.exp(-0.5 * x * x)

    integrate_line(
        f, GAUSS_ENV, QuadratureConfig(rel_tol=1e-6, abs_tol=1e-8),
        on_refinement=lambda nodes: seen.append(nodes.copy()),
    )
    assert seen
    assert len(seen) == len(evaluated)
    assert all(np.array_equal(a, b) for a, b in zip(seen, evaluated))


def _recorded_levels(monkeypatch):
    """The levels integrate_line reads, as (x, weights), and its (t_lo, t_hi), through quad._levels."""
    levels, spans = [], []
    make_levels = quad._levels

    def recording(t_lo, t_hi):
        spans.append((t_lo, t_hi))
        for level in make_levels(t_lo, t_hi):
            levels.append(level)
            yield level

    monkeypatch.setattr(quad, "_levels", recording)
    return levels, spans


def test_one_call_per_level_on_its_own_grid(monkeypatch):
    levels, spans = _recorded_levels(monkeypatch)
    blocks, refinements = [], []

    def f(x):
        blocks.append(x.copy())
        return np.exp(-0.5 * x * x) / (1.0 + 100.0 * (x - 1.0) ** 2)

    res = integrate_line(
        f, GAUSS_ENV, QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12),
        on_refinement=lambda nodes: refinements.append(nodes.size),
    )
    (t_lo, t_hi), = spans
    assert len(levels) > 1
    assert len(blocks) == len(refinements) == len(levels)
    # level k has the nodes x(t_hi - m*h), h = _FIRST_STEP / 2^k, m = ceil((t_hi - t_lo)/h) .. 0
    for k, ((x, _), block) in enumerate(zip(levels, blocks)):
        h = quad._FIRST_STEP / 2**k
        t = t_hi - h * np.arange(math.ceil((t_hi - t_lo) / h), -1, -1)
        assert np.array_equal(x, np.exp(0.5 * math.pi * np.sinh(t)))
        assert block.shape == (2, x.size)
        assert np.array_equal(block[0], x) and np.array_equal(block[1], -x)
    assert sum(x.size for x in blocks) == res.nodes_used

    # an amplitude this large puts the smallest node at its 1e-150 floor
    spans.clear()
    integrate_line(lambda x: np.exp(-np.abs(x)), DecayEnvelope("exponential", 1.0, 4, 400.0),
                   QuadratureConfig(rel_tol=1e-10, abs_tol=1e-40))
    (t_lo, _), = spans
    assert math.exp(0.5 * math.pi * math.sinh(t_lo)) == pytest.approx(1e-150, rel=1e-12)


def test_value_is_the_finest_level_evaluated(monkeypatch):
    levels, _ = _recorded_levels(monkeypatch)
    blocks = []

    def f(x):
        blocks.append(x.copy())
        return np.exp(-0.5 * x * x)

    res = integrate_line(f, GAUSS_ENV, QuadratureConfig(rel_tol=1e-3))
    (block,) = blocks
    (x, weights), = levels
    assert np.array_equal(block[0], x)
    # the first level's own trapezoid sum, not that of the coarser level it is checked against
    assert res.value == float((np.exp(-0.5 * block * block) * weights).sum())
    assert abs(res.value - SQRT_2PI) <= res.abs_error_estimate


def test_truncation_point_meets_target():
    for envelope in (GAUSS_ENV, DecayEnvelope("exponential", 0.25, 3, 2.0)):
        cut = truncation_point(envelope, math.log(1e-13))
        assert envelope.log_tail_bound(cut) <= math.log(1e-13)


def test_envelope_too_large_to_truncate():
    # the tail bound stays above the target at every cutoff the search doubles to
    with pytest.raises(DomainError, match="decays too slowly"):
        truncation_point(DecayEnvelope("gaussian", 1.0, log_amplitude=1e300), math.log(1e-13))


def test_envelope_validation():
    with pytest.raises(DomainError):
        DecayEnvelope("rational", 1.0)
    with pytest.raises(DomainError):
        DecayEnvelope("gaussian", 0.0)
    with pytest.raises(DomainError):
        DecayEnvelope("gaussian", 1.0, -1)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    # a tolerance that accepts any value is refused like a nonpositive one
    for rel_tol, abs_tol in ((math.inf, 1e-12), (math.nan, 1e-12), (1.0, 1e-12),
                             (1e-8, math.inf), (1e-8, math.nan), (1e-8, 0.0)):
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=rel_tol, abs_tol=abs_tol)
    QuadratureConfig(rel_tol=0.999, abs_tol=1e300)


class TestCumulativeIntegral:
    def test_sinh_antiderivative(self):
        evaluator = CumulativeIntegral(np.cosh, np.linspace(-3.0, 3.0, 61))
        assert evaluator(1.0) == pytest.approx(math.sinh(1.0), abs=1e-10)
        assert evaluator(-2.5) == pytest.approx(math.sinh(-2.5), abs=1e-10)

    def test_constant_is_exact_at_nodes(self):
        grid = np.linspace(-2.0, 2.0, 9)
        evaluator = CumulativeIntegral(np.ones_like, grid)
        for x in grid:
            assert evaluator(float(x)) == pytest.approx(float(x), abs=1e-15)

    def test_cosh_squared(self):
        evaluator = CumulativeIntegral(lambda y: np.cosh(y) ** 2, np.linspace(-5.0, 5.0, 101))
        exact = (math.sinh(2.0) * math.cosh(2.0) + 2.0) / 2.0
        assert evaluator(2.0) == pytest.approx(exact, abs=1e-9)

    def test_zero_anchor(self):
        evaluator = CumulativeIntegral(np.cosh, np.linspace(-1.0, 1.0, 11))
        assert evaluator(0.0) == 0.0

    def test_between_node_queries(self):
        evaluator = CumulativeIntegral(np.cosh, np.linspace(-3.0, 3.0, 13))
        assert evaluator(0.123456) == pytest.approx(math.sinh(0.123456), abs=1e-12)

    def test_even_integrand_mirroring_is_exact(self):
        grid = np.concatenate(([0.0], np.linspace(0.1, 4.0, 40)))
        evaluator = CumulativeIntegral(lambda y: np.cosh(y) ** 2, grid, even_integrand=True)
        for x in (0.05, 0.7, 2.3, 3.9):
            assert evaluator(-x) == -evaluator(x)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            CumulativeIntegral(np.cosh, [1.0, 0.5, 2.0])
        with pytest.raises(DomainError):
            CumulativeIntegral(np.cosh, [0.5, 1.0, 2.0])
        with pytest.raises(DomainError):
            CumulativeIntegral(np.cosh, [0.0])
        with pytest.raises(DomainError, match="points above 0"):
            CumulativeIntegral(np.cosh, [-1.0, -0.5, 0.0], even_integrand=True)

    def test_array_queries_match_scalar_queries(self):
        evaluator = CumulativeIntegral(np.cosh, np.linspace(-3.0, 3.0, 13))
        queries = np.array([[-2.9, -0.5, 0.0], [0.123456, 1.0, 3.0]])
        values = evaluator(queries)
        assert values.shape == queries.shape
        assert all(values.flat[i] == evaluator(float(queries.flat[i])) for i in range(queries.size))

    def test_grid_spanning_several_build_blocks(self):
        block = quad._BLOCK_CELLS
        cells = 2 * block + block // 2
        grid = np.linspace(-3.0, 3.0, cells + 1)
        seen = []

        def g(y):
            seen.append(y.shape)
            return np.cosh(y)

        evaluator = CumulativeIntegral(g, grid)
        assert len(seen) == 3
        assert all(rows <= block and width == 7 for rows, width in seen)
        for boundary in (block, 2 * block):
            nodes = grid[boundary - 2 : boundary + 3]
            between = 0.5 * (nodes[:-1] + nodes[1:])
            for x in np.concatenate((nodes, between)):
                assert evaluator(float(x)) == pytest.approx(math.sinh(x), abs=1e-10)

    def test_node_queries_are_answered_from_the_prefix(self):
        grid = np.linspace(-3.0, 3.0, 13)
        cells = []

        def g(y):
            cells.append(y.shape[0])
            return np.cosh(y)

        evaluator = CumulativeIntegral(g, grid)
        cells.clear()
        values = evaluator(grid)
        assert cells == []
        assert values[6] == 0.0
        assert np.array_equal(values, np.array([evaluator(float(x)) for x in grid]))

    @pytest.mark.parametrize("even", [False, True])
    def test_mixed_queries_pass_only_the_between_node_ones_to_g(self, even):
        grid = np.linspace(-3.0 * (not even), 3.0, 13)
        cells = []

        def g(y):
            cells.append(y.shape[0])
            return np.cosh(y)

        evaluator = CumulativeIntegral(g, grid, even_integrand=even)
        between = np.concatenate(([-2.9, -0.123456, 0.7, 2.2], np.random.default_rng(7).uniform(-3.0, 3.0, 60)))
        queries = np.concatenate((grid[::3], between, -grid[1:3] if even else grid[1:3]))
        cells.clear()
        values = evaluator(queries)
        assert sum(cells) == between.size
        assert np.array_equal(values, np.array([evaluator(float(x)) for x in queries]))

    def test_query_outside_hull(self):
        evaluator = CumulativeIntegral(np.cosh, np.linspace(-1.0, 1.0, 11))
        with pytest.raises(DomainError):
            evaluator(1.5)

    @pytest.mark.parametrize("even", [False, True])
    def test_a_query_between_nodes_equals_a_build_with_it_as_a_node(self, even):
        # the grid starts at 0, as the cosh-kernel grids do, so the prefix is
        # the running sum of the cells itself: a lookup adds its partial cell
        # as the build adds a whole one, to the same bits
        rng = np.random.default_rng(3)
        grid = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 4.0, 40))))

        def g(y):
            return np.cosh(y) ** 3

        evaluator = CumulativeIntegral(g, grid, even_integrand=even)
        for q in rng.uniform(grid[1], grid[-1], 25):
            with_node = CumulativeIntegral(g, np.sort(np.append(grid, q)), even_integrand=even)
            assert evaluator(q) == with_node(q)


def test_gl_integrals_sum_each_cell_in_one_fixed_order():
    """A cell's integral has the same bits alone, among other cells and across blocks."""
    lo = np.array([2.5, 0.0, 0.5, 2.0])
    hi = np.array([2.9, 0.123456, 0.7, 2.2])
    four = quad._gl_integrals(np.cosh, lo, hi)
    assert four.tolist() == [quad._gl_integrals(np.cosh, lo[i : i + 1], hi[i : i + 1])[0] for i in range(4)]

    # the weighted values are added node by node, left to right
    def g(y):
        return y * y * y - 3.0 * y

    for a, b, value in zip(lo, hi, quad._gl_integrals(g, lo, hi)):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        weighted = g(mid + half * quad._GL_NODES) * quad._GL_WEIGHTS
        total = weighted[0]
        for term in weighted[1:]:
            total += term
        assert value == half * total

    block = quad._BLOCK_CELLS
    edges = np.linspace(0.0, 3.0, block + 4)
    cells = quad._gl_integrals(np.cosh, edges[:-1], edges[1:])
    for i in range(block - 3, block + 3):
        assert cells[i] == quad._gl_integrals(np.cosh, edges[i : i + 1], edges[i + 1 : i + 2])[0]
