"""Monte Carlo oracle tests: sampling laws, hull tests, reproducibility."""

import math

import numpy as np
import pytest
from scipy import stats

from sylvester.errors import DegenerateGeometryError, DomainError
from sylvester.geomc import (
    BLOCK_TRIALS,
    McConfig,
    SimplicialCone,
    _barycentric_batch,
    _block_generator,
    _lift,
    _sample_lifted,
    _sample_points,
    _sign_rule,
    estimate_cone_angle,
    estimate_sylvester,
    is_inside_simplex,
    projection_experiment,
    sample_point,
    simplex_indicators,
)
from sylvester.probability import Distribution

J4_REGULAR = 0.5 - (3.0 / math.pi) * math.asin(1.0 / 3.0)
J5_REGULAR = 0.25 - (5.0 / (2.0 * math.pi)) * math.asin(0.25)

# two-sided asymptotic Kolmogorov-Smirnov critical value at the 0.1% level
KS_CRITICAL = 1.9495


def _rng(seed=123):
    return _block_generator(seed, 0)


class TestSampling:
    def test_beta_support(self):
        pts = _sample_points(Distribution("beta", 3, 0.5), _rng(), 100_000)
        assert (np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12).all()

    def test_sphere_limit_radius(self):
        pts = _sample_points(Distribution("beta", 3, -1.0), _rng(), 10_000)
        assert np.linalg.norm(pts, axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_beta_mean_square_radius(self):
        # E|X|^2 = 1/2 for the uniform disk: R^2 ~ BetaLaw(1, 1)
        r2 = np.sum(_sample_points(Distribution("beta", 2, 0.0), _rng(), 200_000) ** 2, axis=1)
        tolerance = 4.0 * r2.std() / math.sqrt(r2.size)
        assert abs(r2.mean() - 0.5) <= tolerance

    def test_beta_prime_mean_square_radius(self):
        # E[V/(1-V)] = 1 for V ~ BetaLaw(1, 2)
        r2 = np.sum(_sample_points(Distribution("beta_prime", 2, 3.0), _rng(), 200_000) ** 2, axis=1)
        tolerance = 4.0 * r2.std() / math.sqrt(r2.size)
        assert abs(r2.mean() - 1.0) <= tolerance

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0])
    def test_radial_law(self, d, beta):
        n = 100_000
        pts = _sample_points(Distribution("beta", d, beta), _rng(), n)
        r2 = np.sum(pts * pts, axis=1)
        statistic = stats.kstest(r2, stats.beta(0.5 * d, beta + 1.0).cdf).statistic
        assert statistic < KS_CRITICAL / math.sqrt(n)

    def test_gaussian_moments(self):
        pts = _sample_points(Distribution("gaussian", 3, None), _rng(), 200_000)
        assert abs(pts.mean()) <= 4.0 / math.sqrt(pts.size)
        assert pts.var() == pytest.approx(1.0, abs=0.02)

    def test_single_point_surface(self):
        point = sample_point(Distribution("beta", 4, 2.0), _rng())
        assert point.shape == (4,)
        assert np.linalg.norm(point) <= 1.0

    def test_beta_prime_lifted_rows_stay_finite_at_the_threshold(self):
        # s^2 = 2 Gamma(1e-6) underflows to 0 for most draws: points at infinity, no inf or NaN
        lifted = _sample_lifted(Distribution("beta_prime", 2, 1.0 + 1e-6), _rng(), 10_000)
        assert lifted.shape == (10_000, 3)
        assert np.isfinite(lifted).all() and (lifted[:, 2] >= 0.0).all()
        assert (lifted[:, 2] == 0.0).any()

    def test_directions_are_uniform(self):
        pts = _sample_points(Distribution("beta", 2, -1.0), _rng(), 100_000)
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        statistic = stats.kstest(angles, stats.uniform(-math.pi, 2 * math.pi).cdf).statistic
        assert statistic < KS_CRITICAL / math.sqrt(pts.shape[0])


class TestInsideSimplex:
    TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

    def test_interior(self):
        assert is_inside_simplex((0.25, 0.25), self.TRIANGLE)

    def test_exterior(self):
        assert not is_inside_simplex((1.0, 1.0), self.TRIANGLE)

    def test_vertex_counts_as_inside(self):
        assert is_inside_simplex((0.0, 0.0), self.TRIANGLE)

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            is_inside_simplex((0.5, 0.5), [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            is_inside_simplex((0.5, 0.5), [(0.0, 0.0), (1.0, 0.0)])


class TestEstimateSylvester:
    def test_line_is_certain(self):
        res = estimate_sylvester(Distribution("beta", 1, 0.0), McConfig(trials=10_000, seed=5))
        assert res.estimate == 1.0
        assert res.successes == res.trials == 10_000
        assert res.stderr == 0.0

    def test_gaussian_plane(self):
        exact = 1.0 - (6.0 / math.pi) * math.asin(1.0 / 3.0)
        res = estimate_sylvester(Distribution("gaussian", 2), McConfig(trials=200_000, seed=11))
        assert abs(res.estimate - exact) <= 4.0 * res.stderr

    def test_uniform_ball_plane(self):
        exact = 35.0 / (12.0 * math.pi**2)
        res = estimate_sylvester(Distribution("beta", 2, 0.0), McConfig(trials=200_000, seed=12))
        assert abs(res.estimate - exact) <= 4.0 * res.stderr

    def test_sphere_points_never_succeed(self):
        res = estimate_sylvester(Distribution("beta", 2, -1.0), McConfig(trials=100_000, seed=3))
        assert res.successes == 0

    def test_deterministic_given_seed(self):
        mc = McConfig(trials=30_000, seed=77)
        first = estimate_sylvester(Distribution("beta", 3, 1.0), mc)
        second = estimate_sylvester(Distribution("beta", 3, 1.0), mc)
        assert first == second

    def test_worker_count_invariance(self):
        trials = 2 * BLOCK_TRIALS + 4321  # straddles block boundaries
        counts = {
            workers: estimate_sylvester(
                Distribution("gaussian", 2), McConfig(trials=trials, seed=9, workers=workers)
            ).successes
            for workers in (1, 2, 8)
        }
        assert len(set(counts.values())) == 1

    def test_estimate_consistency_fields(self):
        res = estimate_sylvester(Distribution("beta_prime", 2, 2.0), McConfig(trials=50_000, seed=4))
        assert res.estimate == res.successes / res.trials
        assert res.stderr == pytest.approx(
            math.sqrt(res.estimate * (1.0 - res.estimate) / res.trials)
        )
        assert res.seed == 4


class TestIndicators:
    def test_matches_pointwise_hull_tests(self):
        rng = _rng(42)
        clouds = _sample_points(Distribution("gaussian", 2, None), rng, 100 * 4).reshape(100, 4, 2)
        indicators = simplex_indicators(clouds)
        for cloud, flag in zip(clouds, indicators):
            inside = [
                is_inside_simplex(cloud[k], np.delete(cloud, k, axis=0)) for k in range(4)
            ]
            assert sum(inside) <= 1
            assert flag == any(inside)

    def test_affine_invariance(self):
        rng = _rng(43)
        d = 2
        clouds = _sample_points(Distribution("beta", d, 0.0), rng, 10_000 * (d + 2)).reshape(
            10_000, d + 2, d
        )
        base = simplex_indicators(clouds)
        map_rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(3):
            while True:
                matrix = map_rng.standard_normal((d, d))
                if abs(np.linalg.det(matrix)) > 0.1:
                    break
            shift = map_rng.standard_normal(d)
            transformed = clouds @ matrix.T + shift
            assert (simplex_indicators(transformed) == base).all()

    def test_degenerate_cloud_raises(self):
        cloud = np.zeros((1, 4, 2))
        cloud[0] = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        with pytest.raises(DegenerateGeometryError):
            simplex_indicators(cloud)

    def test_repeated_point_is_undecided(self):
        # the last point equals the first: coordinates (1, 0, 0) tie at zero
        cloud = np.array([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]])
        with pytest.raises(DegenerateGeometryError):
            simplex_indicators(cloud)

    def test_positive_rescale_keeps_decided_indicators(self):
        rng = _rng(44)
        d = 3
        lifted = _lift(_sample_points(Distribution("gaussian", d), rng, 1_000 * (d + 2)))
        lifted = lifted.reshape(1_000, d + 2, d + 1)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(1_000, d + 2, 1))
        base, base_undecided = _sign_rule(*_barycentric_batch(lifted))
        scaled, scaled_undecided = _sign_rule(*_barycentric_batch(lifted * scales))
        decided = ~base_undecided & ~scaled_undecided
        assert decided.sum() >= 990
        assert (base[decided] == scaled[decided]).all()


class TestConeAngle:
    def test_quarter_plane(self):
        res = estimate_cone_angle(SimplicialCone(np.eye(2)), McConfig(trials=100_000, seed=21))
        assert abs(res.estimate - 0.25) <= 4.0 * res.stderr

    def test_eighth_wedge(self):
        cone = SimplicialCone(np.array([[1.0, 0.0], [1.0, 1.0]]))
        res = estimate_cone_angle(cone, McConfig(trials=100_000, seed=22))
        assert abs(res.estimate - 0.125) <= 4.0 * res.stderr

    def test_regular_simplex_vertex_cone(self):
        e = np.eye(4)
        cone = SimplicialCone(e[1:] - e[0])
        res = estimate_cone_angle(cone, McConfig(trials=200_000, seed=23))
        assert abs(res.estimate - J4_REGULAR / 4.0) <= 4.0 * res.stderr

    def test_degenerate_generators(self):
        cone = SimplicialCone(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(DegenerateGeometryError):
            estimate_cone_angle(cone, McConfig(trials=100, seed=1))

    def test_generator_validation(self):
        with pytest.raises(DomainError):
            SimplicialCone(np.ones((3, 2)))


class TestProjectionExperiment:
    def test_triangle_in_three_dimensions(self):
        res = projection_experiment(np.eye(3), McConfig(trials=200_000, seed=31))
        assert abs(res.estimate - 1.0 / 3.0) <= 4.0 * res.stderr

    def test_four_dimensional_simplex(self):
        res = projection_experiment(np.eye(5), McConfig(trials=200_000, seed=32))
        assert abs(res.estimate - 2.0 * J5_REGULAR / 5.0) <= 4.0 * res.stderr

    def test_agrees_with_cone_angle(self):
        vertices = np.eye(4)
        proj = projection_experiment(vertices, McConfig(trials=150_000, seed=33))
        cone = SimplicialCone(vertices[:3] - vertices[3])
        angle = estimate_cone_angle(cone, McConfig(trials=150_000, seed=34))
        combined = 4.0 * math.hypot(proj.stderr, 2.0 * angle.stderr)
        assert abs(proj.estimate - 2.0 * angle.estimate) <= combined

    def test_line_rejected(self):
        with pytest.raises(DomainError):
            projection_experiment(np.array([[0.0], [1.0]]), McConfig(trials=10, seed=1))

    def test_general_position_required(self):
        vertices = np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]  # collinear triangle in R^2
        )
        with pytest.raises(DegenerateGeometryError):
            projection_experiment(vertices, McConfig(trials=10, seed=1))


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            McConfig(trials=0, seed=1)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=-1)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=2**64)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=1, workers=0)
