"""Special-function tests against independent high-precision references.

Frozen reference values were computed with mpmath at 40 significant digits
(series / quadrature definitions, not this package's code paths).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from sylvester.errors import DomainError, OverflowBoundError
from sylvester.specfun import (
    Y_MAX,
    beta_const,
    beta_prime_const,
    gen_binomial,
    h_imag_cdf,
    log_gamma,
    phi_imaginary,
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
    8.74: 1789122164683370.5,  # just below the series/asymptotic crossover
    8.76: 2126282889664839.6,  # just above it
    9.0: 17423375841122767.0,
    12.0: 6.2230272087526717e+29,
    15.0: 1.9270818055602737e+47,
    20.0: 1.4450040292735109e+85,
    25.0: 8.330926919377959e+133,
    30.0: 3.6040396879032817e+193,
    35.0: 1.1549613198777992e+264,
    37.4: 5.8240387967250826e+301,
}


class TestLogGamma:
    def test_classical_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.5, 10.0, 1e3, 1e6])
    def test_matches_scipy(self, x):
        assert log_gamma(x) == pytest.approx(float(special.gammaln(x)), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestNormalizingConstants:
    def test_beta_values(self):
        assert beta_const(2, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert beta_const(1, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert beta_const(1, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_beta_prime_values(self):
        assert beta_prime_const(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert beta_prime_const(2, 2.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert beta_prime_const(1, 1.5) == pytest.approx(0.5, rel=1e-14)

    def test_domains(self):
        with pytest.raises(DomainError):
            beta_const(2, -1.0)
        with pytest.raises(DomainError):
            beta_prime_const(2, 1.0)
        with pytest.raises(DomainError):
            beta_prime_const(3, 1.5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_density_integrates_to_one(self, d, beta):
        # radial form: c * surface(S^{d-1}) * int_0^1 r^{d-1} (1-r^2)^beta dr
        surface = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
        c = beta_const(d, beta)
        mass, _ = integrate.quad(
            lambda r: c * surface * r ** (d - 1) * (1.0 - r * r) ** beta, 0.0, 1.0
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_beta_const_dominates_uniform(self, d, beta):
        ball_volume = math.pi ** (0.5 * d) / math.gamma(0.5 * d + 1.0)
        assert beta_const(d, beta) * ball_volume >= 1.0 - 1e-12


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

    def test_array_across_crossover_matches_erfi(self):
        # one call covers the series (< 8.75) and the asymptotic (> 8.75) branches
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


class TestPhiImaginary:
    def test_values(self):
        assert phi_imaginary(0.0) == 0.5 + 0.0j
        z = phi_imaginary(1.0)
        assert z.real == 0.5
        assert z.imag == pytest.approx(0.47671913462563042, rel=1e-12)
        assert phi_imaginary(2.0).imag == pytest.approx(1.8865612557995097, rel=1e-12)

    def test_conjugate_symmetry(self):
        for y in (0.3, 1.7, 5.0):
            assert phi_imaginary(-y) == phi_imaginary(y).conjugate()
