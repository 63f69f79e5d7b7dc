"""Angle-sum evaluator tests against closed forms and frozen references."""

import inspect
import math

import numpy as np
import pytest

from sylvester import anglesums, cli
from sylvester.anglesums import (
    beta_angle_sum,
    beta_prime_angle_sum,
    gaussian_angle_sum,
)
from sylvester.errors import DomainError, OverflowBoundError
from sylvester.quad import CumulativeIntegral
from sylvester.specfun import h_imag_cdf

# angle sums of the regular simplex on 4 and 5 vertices
J4_REGULAR = 0.5 - (3.0 / math.pi) * math.asin(1.0 / 3.0)
J5_REGULAR = 0.25 - (5.0 / (2.0 * math.pi)) * math.asin(0.25)

# mpmath dps=40 value of the n=4 beta angle sum at parameter 1/2
# (equals half the d=2 linear-weight probability)
J4_BETA_HALF = 0.16127558165355681


class TestGaussianAngleSum:
    def test_segment(self):
        res = gaussian_angle_sum(2)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_triangle(self):
        assert gaussian_angle_sum(3).value == pytest.approx(0.5, abs=1e-10)

    def test_tetrahedron(self):
        res = gaussian_angle_sum(4)
        assert res.value == pytest.approx(J4_REGULAR, abs=1e-9)
        assert abs(res.value - J4_REGULAR) <= 3.0 * res.abs_error_estimate

    def test_four_dimensional_simplex(self):
        res = gaussian_angle_sum(5)
        assert res.value == pytest.approx(J5_REGULAR, abs=1e-9)

    def test_large_n_carries_inflated_estimate(self):
        res = gaussian_angle_sum(25)
        assert 0.0 < res.value < 12.5
        assert res.abs_error_estimate > 0.0

    def test_n_bounds(self):
        with pytest.raises(DomainError):
            gaussian_angle_sum(1)
        with pytest.raises(DomainError):
            gaussian_angle_sum(41)

    @pytest.mark.parametrize("n", [4.0, "4", None])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(DomainError, match="must be an integer"):
            gaussian_angle_sum(n)


class TestBetaAngleSum:
    def test_uniform_ball_case(self):
        # equals half of Kingman's d=2 value, 35/(24*pi^2)
        res = beta_angle_sum(4, -0.5)
        assert res.value == pytest.approx(35.0 / (24.0 * math.pi**2), abs=1e-8)

    def test_arcsine_case(self):
        assert beta_angle_sum(4, -1.0).value == pytest.approx(0.125, abs=1e-8)

    def test_linear_weight_case(self):
        assert beta_angle_sum(4, 0.5).value == pytest.approx(J4_BETA_HALF, abs=1e-7)

    def test_sphere_limit_vanishes(self):
        # continuation endpoint: the integral is evaluated as written and
        # comes out zero without special-casing
        res = beta_angle_sum(4, -1.5)
        assert abs(res.value) <= 1e-8

    @pytest.mark.parametrize("beta", [-1.0, -0.5, 0.0, 1.0, 5.0])
    def test_triangle_identity(self, beta):
        # internal angles of any triangle sum to a half-sphere
        assert beta_angle_sum(3, beta).value == pytest.approx(0.5, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_angle_sum(3, -1.0001)
        with pytest.raises(DomainError):
            beta_angle_sum(4, -1.5001)
        with pytest.raises(DomainError):
            beta_angle_sum(2, 0.0)


class TestBetaPrimeAngleSum:
    def test_heavy_tail_special_n4(self):
        assert beta_prime_angle_sum(4, 2.5).value == pytest.approx(0.2, abs=1e-8)

    def test_heavy_tail_special_n5(self):
        assert beta_prime_angle_sum(5, 3.0).value == pytest.approx(1.0 / 14.0, abs=1e-8)

    def test_segment(self):
        assert beta_prime_angle_sum(2, 2.0).value == pytest.approx(1.0, abs=1e-9)

    def test_approaches_regular_simplex(self):
        res = beta_prime_angle_sum(4, 100.0)
        assert abs(res.value - J4_REGULAR) < 0.01

    def test_convergence_threshold(self):
        threshold = 1.5 + 0.125  # (n-1)/2 + 1/(2n) at n = 4
        with pytest.raises(DomainError, match="does not converge"):
            beta_prime_angle_sum(4, threshold)
        assert beta_prime_angle_sum(4, threshold + 0.05).value > 0.0


class TestSharedProperties:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_gaussian_limit_gap_shrinks(self, n):
        target = gaussian_angle_sum(n).value
        # at beta = 1000 the envelope's 2^rate amplitude sets the smallest node
        beta_gaps = [abs(beta_angle_sum(n, b).value - target) for b in (1.0, 10.0, 100.0, 1000.0)]
        # the beta-prime parameter grid starts above its validity threshold
        prime_gaps = [
            abs(beta_prime_angle_sum(n, b).value - target) for b in (3.0, 10.0, 100.0, 1000.0)
        ]
        if n == 3:
            # every triangle has angle sum exactly 1/2, so the gaps are
            # roundoff noise rather than a decreasing sequence
            assert all(gap <= 1e-9 for gap in beta_gaps + prime_gaps)
        else:
            assert beta_gaps[0] > beta_gaps[1] > beta_gaps[2] > beta_gaps[3]
            assert prime_gaps[0] > prime_gaps[1] > prime_gaps[2] > prime_gaps[3]

    @pytest.mark.parametrize(
        "angle_sum, n, args",
        [
            (gaussian_angle_sum, 4, ()),
            (beta_angle_sum, 4, (0.5,)),
            (beta_angle_sum, 5, (-0.5,)),
            (beta_prime_angle_sum, 4, (2.5,)),
        ],
        ids=["gaussian", "beta", "beta-kingman", "beta-prime"],
    )
    def test_value_lies_in_angle_sum_range(self, angle_sum, n, args):
        """The half-line real-part integral is a valid angle sum, in [0, n/2].

        Only the real part is integrated: the imaginary part cancels exactly
        because the inner functions are exactly odd, which
        test_specfun::test_exactly_odd and
        test_quad::test_even_integrand_mirroring_is_exact check.
        """
        result = angle_sum(n, *args)
        assert -result.abs_error_estimate <= result.value <= n / 2 + result.abs_error_estimate

    def test_substitution_round_trip(self):
        # the cosh-kernel parameter alpha = 2*beta + n - 1 round-trips
        n = 4
        for alpha in (2.0, 5.0, 9.0):
            beta = 0.5 * (alpha - n + 1)
            direct = beta_angle_sum(n, beta)
            again = beta_angle_sum(n, 0.5 * (2.0 * beta + n - 1.0) - 0.5 * (n - 1.0))
            assert direct == again



class TestNodeArrays:
    """term(-x) == conj(term(x)) on the node set: the inner functions are exactly odd there.

    The integrands see the positive half-line node arrays of integrate_line;
    their mirrors -x are the nodes the integral never evaluates.
    """

    @pytest.fixture
    def recorded(self, monkeypatch):
        blocks, inners = [], []
        integrate_line = anglesums.integrate_line

        def recording_integrate_line(f, *args, **kwargs):
            def recording_f(x):
                blocks.append(x.copy())
                return f(x)

            return integrate_line(recording_f, *args, **kwargs)

        def recording_inner(g, grid, even_integrand=False):
            inner = CumulativeIntegral(g, grid, even_integrand=even_integrand)
            inners.append(inner)
            return inner

        monkeypatch.setattr(anglesums, "integrate_line", recording_integrate_line)
        monkeypatch.setattr(anglesums, "CumulativeIntegral", recording_inner)
        return blocks, inners

    def test_gaussian_inner_function_is_exactly_odd(self, recorded):
        blocks, _ = recorded
        gaussian_angle_sum(6)
        assert blocks and all(b.ndim == 1 and b.min() > 0.0 for b in blocks)
        for nodes in blocks:
            assert np.array_equal(h_imag_cdf(-nodes), -h_imag_cdf(nodes))

    @pytest.mark.parametrize("angle_sum, args", [(beta_angle_sum, (6, 0.5)), (beta_prime_angle_sum, (5, 3.7))])
    def test_cumulative_inner_integral_is_exactly_odd(self, recorded, angle_sum, args):
        blocks, inners = recorded
        angle_sum(*args)
        assert inners and len(blocks) == len(inners)
        for nodes, inner in zip(blocks, inners):
            assert np.array_equal(inner(-nodes), -inner(nodes))


class _Stop(Exception):
    """Raised by the recording integrate_line once it has seen its arguments."""


class TestIntegrandNeedsNoCallback:
    """The integrands are pure functions of their nodes, and the cosh kernel derives its decay rate."""

    @pytest.fixture
    def calls(self, monkeypatch):
        recorded = []
        signature = inspect.signature(anglesums.integrate_line)

        def recording_integrate_line(*args, **kwargs):
            recorded.append(signature.bind(*args, **kwargs).arguments)
            raise _Stop

        monkeypatch.setattr(anglesums, "integrate_line", recording_integrate_line)

        def envelope_of(angle_sum, *args):
            with pytest.raises(_Stop):
                angle_sum(*args)
            return recorded[-1]["envelope"]

        return recorded, envelope_of

    @pytest.mark.parametrize(
        "angle_sum, args",
        [(gaussian_angle_sum, (6,)), (beta_angle_sum, (6, 0.5)), (beta_prime_angle_sum, (5, 3.7))],
        ids=["gaussian", "beta", "beta-prime"],
    )
    def test_no_route_passes_on_refinement(self, calls, angle_sum, args):
        recorded, envelope_of = calls
        envelope_of(angle_sum, *args)
        assert recorded and all("on_refinement" not in arguments for arguments in recorded)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_beta_rate_is_alpha_plus_two(self, calls, n):
        _, envelope_of = calls
        for beta in (-1.0 if n == 3 else -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6):
            alpha = 2.0 * beta + n - 1.0
            rate = 1.0 / envelope_of(beta_angle_sum, n, beta).scale
            assert rate == pytest.approx(alpha + 2.0, rel=1e-12, abs=0.0), beta

    @pytest.mark.parametrize("n", range(3, 41))
    def test_beta_prime_rate_follows_both_branches(self, calls, n):
        _, envelope_of = calls
        threshold = 0.5 * (n - 1) + 0.5 / n
        # alpha = 2*beta - n + 1 crosses 1 at beta = n/2
        betas = (threshold + 1e-4, threshold + 1e-2, 0.5 * n - 1e-3, 0.5 * n, 0.5 * n + 1e-3,
                 0.5 * n + 3.3, 3.0 * n, 1e3, 1e6)
        for beta in betas:
            alpha = 2.0 * beta - n + 1.0
            expected = alpha + n - 2.0 if alpha >= 1.0 else alpha * n - 1.0
            rate = 1.0 / envelope_of(beta_prime_angle_sum, n, beta).scale
            assert rate == pytest.approx(expected, rel=1e-12, abs=0.0), beta


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [1e306, 1e307, 1e308])
@pytest.mark.parametrize("n", [4, 40])
def test_huge_beta_is_a_typed_overflow(n, beta):
    with pytest.raises(OverflowBoundError, match="overflows double precision"):
        beta_angle_sum(n, beta)
    with pytest.raises(OverflowBoundError, match="overflows double precision"):
        beta_prime_angle_sum(n, beta)


class TestOneCallPerIntegration:
    """A tol-1e-10 query that converges within the first call's levels evaluates once.

    The calls are counted at the names the benchmark's trace hooks patch:
    ``anglesums.integrate_line`` (wrapping the integrand it is given),
    ``anglesums.CumulativeIntegral`` and ``anglesums.h_imag_cdf``.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"integrand": 0, "builds": 0, "h_imag_cdf": 0}
        integrate_line, h = anglesums.integrate_line, anglesums.h_imag_cdf

        def counting_integrate_line(f, *args, **kwargs):
            def counting_f(x):
                counts["integrand"] += 1
                return f(x)

            return integrate_line(counting_f, *args, **kwargs)

        def counting_inner(*args, **kwargs):
            counts["builds"] += 1
            return CumulativeIntegral(*args, **kwargs)

        def counting_h(y):
            counts["h_imag_cdf"] += 1
            return h(y)

        monkeypatch.setattr(anglesums, "integrate_line", counting_integrate_line)
        monkeypatch.setattr(anglesums, "CumulativeIntegral", counting_inner)
        monkeypatch.setattr(anglesums, "h_imag_cdf", counting_h)
        return counts

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--family", "beta", "--dim", "12", "--beta", "2"], {"integrand": 1, "builds": 1, "h_imag_cdf": 0}),
            (["--family", "gauss", "--dim", "12"], {"integrand": 1, "builds": 0, "h_imag_cdf": 1}),
        ],
        ids=["beta", "gaussian"],
    )
    def test_compute_calls_each_layer_once(self, counts, capsys, argv, expected):
        code = cli.main(["compute", *argv, "--method", "quadrature", "--tol", "1e-10"])
        capsys.readouterr()
        assert code == 0
        assert counts == expected
