"""Special-function tests against independent high-precision references.

Frozen reference values were computed with mpmath at 40 significant digits
(series / quadrature definitions, not this package's code paths).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from sylvester import specfun
from sylvester.errors import DomainError, OverflowBoundError
from sylvester.specfun import (
    Y_MAX,
    h_imag_cdf,
    log_gamma_half_ratio,
    log_gen_binomial,
    log_half_line_beta_const,
    log_half_line_beta_prime_const,
)

# y -> (1/sqrt(2pi)) * int_0^y exp(t^2/2) dt, mpmath dps=40
H_REFERENCE = {
    0.25: 0.10078429500204446,
    0.5: 0.20810361751992018,
    1.0: 0.47671913462563042,
    2.0: 1.8865612557995097,
    3.5: 58.295683803574159,
    4.0: 321.56343476581723,
    6.0: 4498913.1990553601,
    8.0: 4002372858145.8749,
    8.5: 232602357124216.55,
    8.74: 1789122164683370.5,
    8.76: 2126282889664839.6,
    9.0: 17423375841122767.0,
    12.0: 6.2230272087526717e+29,
    15.0: 1.9270818055602737e+47,
    20.0: 1.4450040292735109e+85,
    25.0: 8.330926919377959e+133,
    30.0: 3.6040396879032817e+193,
    35.0: 1.1549613198777992e+264,
    37.4: 5.8240387967250826e+301,
}

# the nonzero anchors y_j = j/32 of h_imag_cdf's table
ANCHORS = np.arange(1, round(Y_MAX * 32) + 1) / 32.0


def beta_const(beta):
    return math.exp(log_half_line_beta_const(beta))


def beta_prime_const(beta):
    return math.exp(log_half_line_beta_prime_const(beta))


def gen_binomial(n, k):
    return math.exp(log_gen_binomial(n, k))


class TestNormalizingConstants:
    # c (1 - x^2)^beta on [-1, 1] and c (1 + x^2)^(-beta) on the line; the
    # one-dimensional marginal of the d-dimensional law has parameter
    # beta + (d-1)/2 (beta family) or beta - (d-1)/2 (beta-prime family)

    def test_beta_values(self):
        assert beta_const(0.0) == pytest.approx(0.5, rel=1e-14)
        assert beta_const(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert beta_const(1.0) == pytest.approx(0.75, rel=1e-14)

    def test_beta_prime_values(self):
        assert beta_prime_const(1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert beta_prime_const(1.5) == pytest.approx(0.5, rel=1e-14)
        assert beta_prime_const(2.0) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_domains(self):
        with pytest.raises(DomainError):
            log_half_line_beta_const(-1.0)
        with pytest.raises(DomainError):
            log_half_line_beta_prime_const(0.5)
        with pytest.raises(DomainError):
            log_half_line_beta_prime_const(0.25)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [1e306, 1e307, 1e308, math.inf])
    def test_overflow_is_typed(self, beta):
        # lgamma overflows from about 2.5e305; at inf the ratio would be nan
        with pytest.raises(OverflowBoundError, match="overflows double precision"):
            log_half_line_beta_const(beta)
        with pytest.raises(OverflowBoundError, match="overflows double precision"):
            log_half_line_beta_prime_const(beta)

    @pytest.mark.parametrize("k", range(16))
    def test_half_ratio_matches_mpmath(self, k):
        # the lgamma difference loses 1.8e-13 at x = 1e3 and 7e-2 at 1e15; the Stirling difference keeps 4 eps
        x = 10.0**k
        with mpmath.workdps(40):
            exact = mpmath.loggamma(mpmath.mpf(x) + 0.5) - mpmath.loggamma(x)
        assert log_gamma_half_ratio(x) == pytest.approx(float(exact), rel=1e-15, abs=5e-16)

    def test_half_ratio_is_continuous_where_it_switches_to_stirling(self):
        below, at = math.nextafter(specfun._STIRLING_FROM, 0.0), specfun._STIRLING_FROM
        assert log_gamma_half_ratio(at) == pytest.approx(log_gamma_half_ratio(below), rel=1e-14)

    @pytest.mark.parametrize("beta", [30.0, 500.0, 1e5, 1e12])
    def test_large_beta_constants_match_mpmath(self, beta):
        # as lgamma differences these were off by 7.6e-14 at beta = 500 and 5.3e-11 at 1e5
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            exact_beta = mpmath.loggamma(b + 1.5) - mpmath.loggamma(b + 1) - mpmath.log(mpmath.pi) / 2
            exact_prime = mpmath.loggamma(b) - mpmath.loggamma(b - 0.5) - mpmath.log(mpmath.pi) / 2
        assert log_half_line_beta_const(beta) == pytest.approx(float(exact_beta), rel=1e-15)
        assert log_half_line_beta_prime_const(beta) == pytest.approx(float(exact_prime), rel=1e-15)

    def test_finite_below_the_overflow_limit(self):
        assert math.isfinite(log_half_line_beta_const(2.4e305))
        assert math.isfinite(log_half_line_beta_prime_const(2.4e305))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_density_integrates_to_one(self, d, beta):
        # the marginal of the beta law, and a beta-prime density at b + 1 > 1/2
        b = beta + 0.5 * (d - 1)
        mass, _ = integrate.quad(lambda x: beta_const(b) * (1.0 - x * x) ** b, -1.0, 1.0)
        assert mass == pytest.approx(1.0, abs=1e-8)
        mass, _ = integrate.quad(
            lambda x: beta_prime_const(b + 1.0) * (1.0 + x * x) ** -(b + 1.0), -np.inf, np.inf
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_beta_const_dominates_uniform(self, d, beta):
        # the marginal density peaks at 0, so peak times the length of [-1, 1] is >= 1
        assert 2.0 * beta_const(beta + 0.5 * (d - 1)) >= 1.0 - 1e-12


class TestGenBinomial:
    def test_values(self):
        assert gen_binomial(4, 2) == pytest.approx(6.0, rel=1e-14)
        assert gen_binomial(3, 1.5) == pytest.approx(3.3953054526271005, rel=1e-13)
        assert gen_binomial(9, 4.5) == pytest.approx(132.44924889486289, rel=1e-13)

    @given(
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, n, frac):
        k = frac * n
        assert gen_binomial(n, k) == pytest.approx(gen_binomial(n, n - k), rel=1e-13)

    def test_domains(self):
        with pytest.raises(DomainError):
            gen_binomial(-1.0, 0.0)
        with pytest.raises(DomainError):
            gen_binomial(3.0, 4.5)
        with pytest.raises(DomainError):
            gen_binomial(3.0, -1.0)


class TestImaginaryCdf:
    def test_zero(self):
        assert h_imag_cdf(0.0) == 0.0

    @pytest.mark.parametrize("y,expected", sorted(H_REFERENCE.items()))
    def test_reference_values(self, y, expected):
        assert h_imag_cdf(y) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("y", np.linspace(0.1, 30.0, 40))
    def test_matches_erfi(self, y):
        # h(y) = erfi(y/sqrt(2)) / 2; scipy's erfi itself drifts ~1e-13
        # relative at large arguments, hence the looser bound here
        assert h_imag_cdf(y) == pytest.approx(0.5 * float(special.erfi(y / math.sqrt(2.0))),
                                              rel=5e-13)

    @given(st.floats(min_value=-37.4, max_value=37.4))
    @settings(max_examples=300, deadline=None)
    def test_exactly_odd(self, y):
        assert h_imag_cdf(-y) == -h_imag_cdf(y)

    def test_anchor_boundaries_monotone_and_odd(self):
        # the float just below an anchor is where the lower anchor's polynomial ends
        below = np.nextafter(ANCHORS, 0.0)
        assert np.all(h_imag_cdf(below) <= h_imag_cdf(ANCHORS))
        for y in (ANCHORS, below):
            assert np.array_equal(h_imag_cdf(-y), -h_imag_cdf(y))

    def test_accuracy_against_mpmath(self):
        # max relative error <= 4 ulp over a dense grid, every anchor and the
        # float just below each; h'(y) = exp(y^2/2)/sqrt(2*pi) carries the
        # anchor's reference down by the one-ulp step, whose second-order
        # term is below 1e-25 relative
        below = np.nextafter(ANCHORS, 0.0)
        grid = np.linspace(0.0, Y_MAX, 2003)[1:]
        with mpmath.workdps(30):
            root2, root2pi = mpmath.sqrt(2), mpmath.sqrt(2 * mpmath.pi)

            def reference(y):
                return mpmath.erfi(mpmath.mpf(y) / root2) / 2

            at_anchor = [reference(y) for y in ANCHORS]
            expected = [float(reference(y)) for y in grid] + [float(r) for r in at_anchor] + [
                float(r - mpmath.mpf(a - b) * mpmath.exp(mpmath.mpf(a) ** 2 / 2) / root2pi)
                for r, a, b in zip(at_anchor, ANCHORS, below)
            ]
        values = h_imag_cdf(np.concatenate((grid, ANCHORS, below)))
        relative = np.abs(values - expected) / np.array(expected)
        assert relative.max() <= 4 * np.finfo(float).eps

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(-Y_MAX, Y_MAX, 1001)
        values = [h_imag_cdf(float(y)) for y in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_derivative_matches_integrand(self):
        # h'(y) = exp(y^2/2)/sqrt(2*pi), checked by central differences
        step = 1e-5
        for y in np.linspace(-3.0, 3.0, 61):
            derivative = (h_imag_cdf(y + step) - h_imag_cdf(y - step)) / (2.0 * step)
            exact = math.exp(0.5 * y * y) / math.sqrt(2.0 * math.pi)
            assert derivative == pytest.approx(exact, rel=1e-6)

    def test_overflow_bound(self):
        assert Y_MAX >= 35.0
        assert math.isfinite(h_imag_cdf(Y_MAX))
        with pytest.raises(OverflowBoundError):
            h_imag_cdf(Y_MAX + 1e-9)
        with pytest.raises(OverflowBoundError):
            h_imag_cdf(-Y_MAX - 1.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            h_imag_cdf(float("nan"))

    def test_array_across_many_anchors_matches_erfi(self):
        # one call spans anchors 16..448, whose values are running sums over 16..448 steps
        y = np.linspace(0.5, 14.0, 271)
        assert np.any(y < 8.75) and np.any(y > 8.75)
        values = h_imag_cdf(y)
        assert values.shape == y.shape
        np.testing.assert_allclose(values, 0.5 * special.erfi(y / math.sqrt(2.0)), rtol=1e-12)

    def test_array_matches_scalar_calls(self):
        y = np.linspace(-20.0, 20.0, 81).reshape(9, 9)
        values = h_imag_cdf(y)
        assert values.shape == (9, 9)
        assert all(values.flat[i] == h_imag_cdf(float(y.flat[i])) for i in range(y.size))

    def test_array_is_one_horner_pass_over_the_table(self):
        # every anchor and the float below it, both signs, and more arguments
        # than one gather takes
        values, coeffs = specfun._anchor_table()
        assert coeffs.shape == (ANCHORS.size + 1, 20)
        dense = np.linspace(0.0, Y_MAX, 3 * specfun._GATHER_ROWS + 7)
        y = np.concatenate((ANCHORS, np.nextafter(ANCHORS, 0.0), dense))
        y = np.concatenate((y, -y))
        scaled = np.abs(y) * 32.0
        j = scaled.astype(np.intp)
        u = scaled - j
        acc = coeffs[j, 19]
        for m in range(18, -1, -1):
            acc = acc * u + coeffs[j, m]
        expected = np.minimum(values[j] + u * acc, values[j + 1])
        expected = np.where(y < 0.0, -expected, expected)
        assert np.array_equal(h_imag_cdf(y).view(np.int64), expected.view(np.int64))

    def test_array_with_nan_rejected(self):
        y = np.linspace(0.0, 3.0, 15)
        y[7] = float("nan")
        with pytest.raises(DomainError):
            h_imag_cdf(y)

    def test_array_beyond_overflow_bound_rejected(self):
        y = np.linspace(0.0, 30.0, 15)
        y[3] = Y_MAX + 0.5
        with pytest.raises(OverflowBoundError):
            h_imag_cdf(y)
