"""Front-end and registry tests.

Reference decimals were frozen from mpmath (dps=40) evaluations of the
exact expressions; the quadrature cross-checks below are independent of
them.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sylvester.errors import DomainError, NotInRegistryError
from sylvester.probability import (
    Distribution,
    cauchy_asymptotic,
    closed_form_lookup,
    quadrature_probability,
    sylvester_probability,
)
from sylvester.quad import QuadratureConfig

UNIFORM_BALL = {  # beta = 0
    2: 0.2955201189568185,
    3: 0.062937062937062937,
    4: 0.010710191940547135,
    5: 0.0015426767246103758,
    6: 0.00019489830175202557,
    7: 2.2117877924712864e-05,
    8: 2.2930773950753478e-06,
}
LINEAR_WEIGHT = {  # beta = 1
    2: 0.32255116330711361,
    3: 0.076918639309270619,
    4: 0.014688133503829155,
    5: 0.0023616241224742987,
    6: 0.00033064559259747896,
}
INVERSE_SQRT = {  # beta = -1/2
    2: 0.25,
    3: 0.045917485994583742,
    4: 0.0069239480154854911,
    5: 0.00090213865554167448,
}
SQRT_WEIGHT = {  # beta = 1/2
    2: 0.31328125,
    3: 0.071653918641376251,
    4: 0.013075859067365192,
}
HEAVY_TAIL_SPECIAL = {  # beta = d/2 + 1
    2: 0.4,
    3: 0.14285714285714286,
    4: 0.047619047619047619,
    5: 0.015151515151515152,
    6: 0.004662004662004662,
    7: 0.0013986013986013986,
    8: 0.00041135335252982312,
}
GAUSSIAN = {
    2: 0.35095931218364362,
    3: 0.097846883724168781,
}

FAST_CFG = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)


class TestDistribution:
    def test_valid(self):
        Distribution("gaussian", 3)
        Distribution("beta", 2, -1.0)
        Distribution("beta_prime", 4, 2.5)

    def test_invalid(self):
        with pytest.raises(DomainError):
            Distribution("poisson", 2, 1.0)
        with pytest.raises(DomainError):
            Distribution("gaussian", 0)
        with pytest.raises(DomainError):
            Distribution("gaussian", 2, 1.0)
        with pytest.raises(DomainError):
            Distribution("beta", 2, -1.5)
        with pytest.raises(DomainError):
            Distribution("beta", 2)
        with pytest.raises(DomainError):
            Distribution("beta", 1, -1.0)  # atomic sphere limit on the line
        with pytest.raises(DomainError):
            Distribution("beta_prime", 4, 2.0)
        # not a real number, or beyond the float range
        for beta, message in (("1", "real number"), (1j, "real number"), (True, "real number"),
                              (10**400, "float range")):
            with pytest.raises(DomainError, match=message):
                Distribution("beta", 2, beta)

    def test_real_beta_is_stored_as_float(self):
        for beta in (np.float64(0.5), np.int64(2), Fraction(1, 2), 2):
            dist = Distribution("beta", 2, beta)
            assert type(dist.beta) is float and dist == Distribution("beta", 2, float(beta))

    def test_numpy_dimension_is_stored_as_int(self):
        for d in np.arange(1, 4):
            dist = Distribution("gaussian", d)
            assert type(dist.d) is int and dist == Distribution("gaussian", int(d))
        assert json.loads(json.dumps(dataclasses.asdict(Distribution("beta", np.int64(3), 0.0))))["d"] == 3
        assert sylvester_probability(Distribution("gaussian", np.int64(3))).value == (
            sylvester_probability(Distribution("gaussian", 3)).value
        )

    @pytest.mark.parametrize("d", [True, False, 3.0, "3", None])
    def test_bool_and_non_integer_dimension_rejected(self, d):
        with pytest.raises(DomainError, match="must be an integer"):
            Distribution("gaussian", d)


class TestClosedFormLookup:
    @pytest.mark.parametrize("d,expected", sorted(UNIFORM_BALL.items()))
    def test_uniform_ball(self, d, expected):
        res = closed_form_lookup(Distribution("beta", d, 0.0))
        assert res.method == "closed_form"
        assert res.value == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("d,expected", sorted(LINEAR_WEIGHT.items()))
    def test_linear_weight(self, d, expected):
        res = closed_form_lookup(Distribution("beta", d, 1.0))
        assert res.value == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("d,expected", sorted(INVERSE_SQRT.items()))
    def test_inverse_sqrt_weight(self, d, expected):
        res = closed_form_lookup(Distribution("beta", d, -0.5))
        assert res.value == pytest.approx(expected, rel=1e-13)

    def test_inverse_sqrt_exact_rationals(self):
        assert closed_form_lookup(Distribution("beta", 2, -0.5)).value == 0.25
        assert closed_form_lookup(Distribution("beta", 3, -0.5)).value == pytest.approx(
            539.0 / (144.0 * math.pi**2) - 1.0 / 3.0, rel=1e-15
        )
        assert closed_form_lookup(Distribution("beta", 4, -0.5)).value == 25411.0 / 3670016.0

    @pytest.mark.parametrize("d,expected", sorted(SQRT_WEIGHT.items()))
    def test_sqrt_weight(self, d, expected):
        res = closed_form_lookup(Distribution("beta", d, 0.5))
        assert res.value == pytest.approx(expected, rel=1e-13)

    def test_sqrt_weight_exact_rationals(self):
        assert closed_form_lookup(Distribution("beta", 2, 0.5)).value == 401.0 / 1280.0
        assert (
            closed_form_lookup(Distribution("beta", 4, 0.5)).value
            == 112433094897.0 / 8598524526592.0
        )

    @pytest.mark.parametrize("d,expected", sorted(HEAVY_TAIL_SPECIAL.items()))
    def test_heavy_tail_special(self, d, expected):
        res = closed_form_lookup(Distribution("beta_prime", d, 0.5 * d + 1.0))
        assert res.value == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("d,expected", sorted(GAUSSIAN.items()))
    def test_gaussian(self, d, expected):
        res = closed_form_lookup(Distribution("gaussian", d))
        assert res.value == pytest.approx(expected, rel=1e-15)

    def test_sphere_limit(self):
        for d in (2, 3, 7):
            assert closed_form_lookup(Distribution("beta", d, -1.0)).value == 0.0

    def test_line_is_always_one(self):
        assert closed_form_lookup(Distribution("gaussian", 1)).value == 1.0
        assert closed_form_lookup(Distribution("beta", 1, 0.7)).value == 1.0
        assert closed_form_lookup(Distribution("beta_prime", 1, 2.0)).value == 1.0

    def test_misses(self):
        assert closed_form_lookup(Distribution("beta", 2, 0.3)) is None
        assert closed_form_lookup(Distribution("gaussian", 4)) is None
        assert closed_form_lookup(Distribution("beta_prime", 3, 3.0)) is None


def _mp_binomial(mp, n, k):
    return mp.exp(mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1))


def _mp_every_dimension(mp, key, d):
    """The every-dimension closed forms, evaluated in mpmath."""
    if key == "uniform ball":
        m = d + 1
        return (d + 2) / mp.mpf(2) ** d * _mp_binomial(mp, m, mp.mpf(m) / 2) ** m / _mp_binomial(
            mp, m * m, mp.mpf(m * m) / 2
        )
    if key == "linear weight":
        m = d + 2
        return (
            2 * mp.pi * m * (m * m + 1) * (m * m + d + 4) / ((d + 5) * mp.mpf(2) ** (m * (2 * d + 5)))
            * _mp_binomial(mp, d + 3, mp.mpf(d + 3) / 2) ** (d + 1)
            * _mp_binomial(mp, m * m, mp.mpf(m * m) / 2)
        )
    return 4 * (2 * d + 3) / _mp_binomial(mp, 2 * d + 4, d + 2)


def _mp_few_dimensions(mp):
    """(family, beta, d) -> the few-dimension closed forms, evaluated in mpmath."""
    pi, third = mp.pi, mp.mpf(1) / 3
    return {
        ("gaussian", None, 2): 1 - 6 / pi * mp.asin(third),
        ("gaussian", None, 3): mp.mpf(1) / 2 - 5 / pi * mp.asin(mp.mpf(1) / 4),
        ("beta", -0.5, 2): mp.mpf(1) / 4,
        ("beta", -0.5, 3): 539 / (144 * pi**2) - third,
        ("beta", -0.5, 4): mp.mpf(25411) / 3670016,
        ("beta", -0.5, 5): third + 113537407 / (24192000 * pi**4) - 2144238917 / (570810240 * pi**2),
        ("beta", 0.5, 2): mp.mpf(401) / 1280,
        ("beta", 0.5, 3): 1692197 / (423360 * pi**2) - third,
        ("beta", 0.5, 4): mp.mpf(112433094897) / 8598524526592,
    }


ERROR_BAR_DIMS = list(range(2, 40)) + [50, 60, 80, 100, 120, 150, 180, 200, 250, 300]
EVERY_DIMENSION_KEYS = {
    "uniform ball": lambda d: Distribution("beta", d, 0.0),
    "linear weight": lambda d: Distribution("beta", d, 1.0),
    "heavy tail": lambda d: Distribution("beta_prime", d, 0.5 * d + 1.0),
}


class TestClosedFormErrorBars:
    """Each closed form's error bar covers its float against a 60-digit evaluation."""

    @pytest.mark.parametrize("key", sorted(EVERY_DIMENSION_KEYS))
    def test_every_dimension_forms(self, key):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(60):
            for d in ERROR_BAR_DIMS:
                res = closed_form_lookup(EVERY_DIMENSION_KEYS[key](d))
                exact = _mp_every_dimension(mp, key, d)
                assert abs(mp.mpf(res.value) - exact) <= res.abs_error_estimate, (key, d)
                if d <= 200:
                    assert 0.0 < res.abs_error_estimate <= 1e-9 * res.value, (key, d)

    def test_few_dimension_forms(self):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(60):
            for (family, beta, d), exact in _mp_few_dimensions(mp).items():
                res = closed_form_lookup(Distribution(family, d, beta))
                assert abs(mp.mpf(res.value) - exact) <= res.abs_error_estimate, (family, beta, d)
                assert 0.0 < res.abs_error_estimate <= 1e-11 * res.value, (family, beta, d)

    def test_exact_rows_keep_a_zero_bar(self):
        assert closed_form_lookup(Distribution("gaussian", 1)).abs_error_estimate == 0.0
        for d in (2, 3, 300):
            res = closed_form_lookup(Distribution("beta", d, -1.0))
            assert (res.value, res.abs_error_estimate) == (0.0, 0.0)

    def test_underflow_keeps_a_positive_bar(self):
        # the uniform ball at d = 300 is positive but below the smallest subnormal
        res = closed_form_lookup(Distribution("beta", 300, 0.0))
        assert (res.value, res.abs_error_estimate) == (0.0, math.ulp(0.0))


class TestSylvesterProbability:
    def test_auto_prefers_closed_form(self):
        res = sylvester_probability(Distribution("beta", 2, 0.0))
        assert res.method == "closed_form"
        assert res.value == pytest.approx(35.0 / (12.0 * math.pi**2), rel=1e-14)

    def test_auto_falls_back_to_quadrature(self):
        res = sylvester_probability(Distribution("beta", 2, 0.25), cfg=FAST_CFG)
        assert res.method == "quadrature"
        assert 0.25 < res.value < 0.33

    def test_closed_form_miss_raises(self):
        with pytest.raises(NotInRegistryError):
            sylvester_probability(Distribution("beta", 2, 0.25), method="closed_form")

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            sylvester_probability(Distribution("gaussian", 2), method="simulation")

    @pytest.mark.parametrize("d,expected", sorted(GAUSSIAN.items()))
    def test_gaussian_quadrature_matches_arcsin_forms(self, d, expected):
        res = sylvester_probability(Distribution("gaussian", d), method="quadrature", cfg=FAST_CFG)
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_line_universality_by_quadrature(self):
        dists = (
            [Distribution("gaussian", 1)]
            + [Distribution("beta", 1, b) for b in (-0.5, 0.0, 0.7, 2.0, 10.0)]
            + [Distribution("beta_prime", 1, b) for b in (0.7, 1.5, 4.0)]
        )
        for dist in dists:
            res = quadrature_probability(dist, FAST_CFG)
            assert res.value == pytest.approx(1.0, abs=1e-8), dist

    def test_line_beta_below_identity_region_needs_closed_form(self):
        dist = Distribution("beta", 1, -0.8)
        with pytest.raises(DomainError):
            quadrature_probability(dist)
        assert sylvester_probability(dist).value == 1.0

    def test_sphere_limit_by_quadrature(self):
        for d in (2, 3):
            res = quadrature_probability(Distribution("beta", d, -1.0), FAST_CFG)
            assert abs(res.value) <= 1e-6

    def test_heavy_tail_threshold_names_condition(self):
        with pytest.raises(DomainError, match=r"2\*beta > d \+ 1/\(d\+2\)"):
            quadrature_probability(Distribution("beta_prime", 2, 1.01))

    def test_probability_range(self):
        for beta in (-0.9, -0.3, 0.25, 2.0, 7.0):
            res = sylvester_probability(Distribution("beta", 2, beta), cfg=FAST_CFG)
            assert -res.abs_error_estimate <= res.value <= 1.0 + res.abs_error_estimate

    def test_generic_parameters_match_independent_quadrature(self):
        # frozen from mpmath (dps=30) evaluations of the angle-sum integrals
        # at parameters no closed form covers
        cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14)
        cases = [
            (Distribution("beta", 3, 0.25), 6.790652478139e-02),
            (Distribution("beta", 2, -0.8), 1.673784425146e-01),  # continuation region
            (Distribution("beta_prime", 2, 1.5), 4.317084074161e-01),  # Cauchy
        ]
        for dist, expected in cases:
            res = quadrature_probability(dist, cfg)
            assert res.value == pytest.approx(expected, rel=1e-11), dist

    def test_gaussian_double_limit(self):
        target = GAUSSIAN[2]
        gaps = {}
        for b in (10.0, 100.0):
            beta_val = sylvester_probability(Distribution("beta", 2, b), cfg=FAST_CFG).value
            prime_val = sylvester_probability(Distribution("beta_prime", 2, b), cfg=FAST_CFG).value
            gaps[b] = (abs(beta_val - target), abs(prime_val - target))
        assert gaps[100.0][0] < 0.02 and gaps[100.0][1] < 0.02
        assert gaps[100.0][0] < gaps[10.0][0]
        assert gaps[100.0][1] < gaps[10.0][1]


class TestPrecisionEnvelope:
    @pytest.mark.parametrize(
        "d,beta,rel_tol,abs_tol,below_noise",
        [
            (10, 0.0, 1e-9, 1e-15, False),
            (14, 0.0, 1e-9, 1e-15, False),
            (18, 0.0, 1e-9, 1e-15, True),
            (24, 0.0, 1e-6, 1e-16, True),
            # the CLI's tolerances, abs_tol = tol * 1e-4: the error is 5.1e-14,
            # 9.9e-14, 3.6e-13 and 4.4e-12 times the estimate
            (24, 0.0, 1e-3, 1e-7, True),
            (25, 1.0, 1e-3, 1e-7, True),
            (38, 0.0, 1e-7, 1e-11, True),
            (35, 1.0, 1e-7, 1e-11, True),
        ],
        ids=["d10-beta0-tol1e-9", "d14-beta0-tol1e-9", "d18-beta0-tol1e-9", "d24-beta0-tol1e-6",
             "d24-beta0-cli1e-3", "d25-beta1-cli1e-3", "d38-beta0-cli1e-7", "d35-beta1-cli1e-7"],
    )
    def test_error_estimates_stay_honest(self, d, beta, rel_tol, abs_tol, below_noise):
        # values shrink toward the roundoff floor and then below it: at n = 26
        # the closed form is ~4e-25 while cancellation leaves ~1e-21 of noise
        # or more.  The estimate covers the true error throughout, and where
        # the value is lost in that noise it must admit so
        cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=abs_tol)
        res = quadrature_probability(Distribution("beta", d, beta), cfg)
        truth = closed_form_lookup(Distribution("beta", d, beta)).value
        assert abs(res.value - truth) <= 3.0 * res.abs_error_estimate
        if below_noise:
            assert res.abs_error_estimate > truth

    def test_dimension_ceiling(self):
        with pytest.raises(DomainError):
            quadrature_probability(Distribution("beta", 39, 0.0))


class TestCauchyAsymptotic:
    def test_values(self):
        assert cauchy_asymptotic(2) == pytest.approx(0.22344518504143451, rel=1e-15)
        assert cauchy_asymptotic(3) == pytest.approx(0.1066872171282826, rel=1e-15)
        assert cauchy_asymptotic(10) == pytest.approx(1.1774487782302074e-04, rel=1e-15)

    def test_never_replaces_probability(self):
        # the Cauchy parameter beta = (d+1)/2 has no registry entry; auto
        # dispatch must go to quadrature, not the asymptote
        res = sylvester_probability(Distribution("beta_prime", 2, 1.5), cfg=FAST_CFG)
        assert res.method == "quadrature"
        assert abs(res.value - cauchy_asymptotic(2)) > 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            cauchy_asymptotic(0)
        with pytest.raises(DomainError, match="must be an integer"):
            cauchy_asymptotic(True)
        assert cauchy_asymptotic(np.int64(2)) == cauchy_asymptotic(2)

    @pytest.mark.parametrize("d, message", [(0, ">= 1"), (10**6 + 1, "at most 10"), (10**400, "at most 10"),
                                            (True, "must be an integer"), (2.0, "must be an integer")],
                             ids=["zero", "above-ceiling", "beyond-float", "bool", "float"])
    def test_dimension_rule_is_the_distributions(self, d, message):
        for call in (cauchy_asymptotic, lambda d: Distribution("gaussian", d)):
            with pytest.raises(DomainError, match=message):
                call(d)
