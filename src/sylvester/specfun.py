"""Special functions behind the simplex-probability formulas.

Everything here is a pure function of its arguments: the logs of
generalized binomial coefficients and of the normalizing constants of the
one-dimensional beta and beta-prime densities (all of floats), and the
restriction of the standard normal CDF to the imaginary axis,
``Phi(iy) = 1/2 + i*h(y)`` with

    h(y) = (1 / sqrt(2*pi)) * integral_0^y exp(t^2/2) dt.

``h_imag_cdf`` maps an ndarray to an ndarray of the same shape (a float to
a float) in one piecewise pass: the power series below the crossover, the
asymptotic expansion above it.  ``h`` grows like ``exp(y^2/2)``, so it
carries an explicit overflow bound ``Y_MAX``; callers are expected to
rescale their integrals instead of asking for larger arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, OverflowBoundError

# exp(y^2/2) must stay ~700x below the float64 maximum at y = Y_MAX
Y_MAX = 37.5

# Below the crossover h uses its (all-positive) power series; above, the
# optimally truncated asymptotic expansion, whose smallest term is about
# exp(-y^2/2) relative, i.e. ~2e-17 at the crossover.
_H_CROSSOVER = 8.75

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def log_half_line_beta_const(beta: float) -> float:
    """log of c_(1,beta) = Gamma(beta + 3/2) / (sqrt(pi) * Gamma(beta + 1))."""
    if not beta > -1.0:
        raise DomainError(f"one-dimensional beta constant requires beta > -1, got {beta}")
    return math.lgamma(beta + 1.5) - math.lgamma(beta + 1.0) - _LOG_SQRT_PI


def log_half_line_beta_prime_const(beta: float) -> float:
    """log of ctilde_(1,beta) = Gamma(beta) / (sqrt(pi) * Gamma(beta - 1/2))."""
    if not beta > 0.5:
        raise DomainError(f"one-dimensional beta-prime constant requires beta > 1/2, got {beta}")
    return math.lgamma(beta) - math.lgamma(beta - 0.5) - _LOG_SQRT_PI


def log_gen_binomial(n: float, k: float) -> float:
    """log of Gamma(n+1) / (Gamma(k+1) * Gamma(n-k+1))."""
    if not n > -1.0:
        raise DomainError(f"log_gen_binomial requires n > -1, got n={n}")
    if not (-1.0 < k < n + 1.0):
        raise DomainError(f"log_gen_binomial requires -1 < k < n+1, got n={n}, k={k}")
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def _h_series(y: np.ndarray) -> np.ndarray:
    # sum_k y^(2k+1) / ((2k+1) * 2^k * k!), all terms positive: no cancellation;
    # once an element's term drops below 1e-17 of its total, later terms are
    # below half an ulp and leave it unchanged
    term = y.copy()
    total = y.copy()
    y2 = y * y
    for k in range(400):
        term *= y2 * (2 * k + 1) / (2.0 * (k + 1) * (2 * k + 3))
        total += term
        if np.all(term <= 1e-17 * total):
            break
    return total / _SQRT_2PI


def _h_asymptotic(y: np.ndarray) -> np.ndarray:
    # exp(y^2/2)/(y*sqrt(2pi)) * sum_k (2k-1)!!/y^(2k), truncated per element
    # at the smallest term or at 1e-17 relative; valid only past the crossover
    y2 = y * y
    term = np.ones_like(y)
    total = np.ones_like(y)
    active = np.ones(y.shape, dtype=bool)
    for k in range(1, 60):
        nxt = term * (2 * k - 1) / y2
        active &= nxt < term
        if not active.any():
            break
        term = np.where(active, nxt, term)
        total = np.where(active, total + term, total)
        active &= term >= 1e-17 * total
    return np.exp(0.5 * y2) / (y * _SQRT_2PI) * total


def h_imag_cdf(y):
    """Imaginary part of Phi(iy): (1/sqrt(2*pi)) * integral_0^y exp(t^2/2) dt.

    Takes an ndarray (returning one of the same shape) or a float
    (returning a float).  Odd in y, exactly: h(-y) == -h(y) bitwise;
    strictly increasing.  Raises DomainError for nan and
    OverflowBoundError for |y| > Y_MAX, where exp(y^2/2) would approach
    the float64 range.
    """
    y = np.asarray(y, dtype=float)
    a = np.abs(y).ravel()
    if np.isnan(a).any():
        raise DomainError("h_imag_cdf requires a finite argument, got nan")
    if a.size and a.max() > Y_MAX:
        raise OverflowBoundError(
            f"h_imag_cdf overflows beyond |y| = {Y_MAX}, got {y.ravel()[a.argmax()]};"
            " rescale the integral"
        )
    value = np.empty_like(a)
    series = a <= _H_CROSSOVER
    value[series] = _h_series(a[series])
    value[~series] = _h_asymptotic(a[~series])
    value = np.where(y.ravel() < 0.0, -value, value)
    return float(value[0]) if y.ndim == 0 else value.reshape(y.shape)
