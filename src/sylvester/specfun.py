"""Special functions behind the simplex-probability formulas.

Everything here is a pure function of its arguments: the logs of
generalized binomial coefficients and of the normalizing constants of the
one-dimensional beta and beta-prime densities (all of floats), and the
restriction of the standard normal CDF to the imaginary axis,
``Phi(iy) = 1/2 + i*h(y)`` with

    h(y) = (1 / sqrt(2*pi)) * integral_0^y exp(t^2/2) dt.

``h_imag_cdf`` maps an ndarray to an ndarray of the same shape (a float to
a float) from a table built once at import: anchors y_j = j/32 on
[0, Y_MAX], each with its value h(y_j) and the 20 positive Taylor
coefficients of the increment towards the next anchor.  A call finds
each argument's anchor and runs one 20-step Horner pass over the whole
array, with no convergence loop.  Its relative error is at most 6 ulp
against mpmath over [0, Y_MAX].  The table holds 1,201 anchors of 22
floats (206 KiB) and takes about 1.5 ms to build.  ``h`` grows like
``exp(y^2/2)``, so it carries an explicit overflow bound ``Y_MAX``;
callers are expected to rescale their integrals instead of asking for
larger arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, OverflowBoundError

# exp(y^2/2) must stay ~700x below the float64 maximum at y = Y_MAX
Y_MAX = 37.5

# h_imag_cdf's table: anchors y_j = j/32, each with 20 Taylor coefficients
_ANCHORS_PER_UNIT = 32
_TERMS = 20
# anchors 0..280, y <= 8.75, take their value from the power series
_SERIES_ANCHORS = 281

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# math.lgamma(x) ~ x*(log(x) - 1) passes the float64 maximum near x = 2.556e305
_LGAMMA_ARG_MAX = 2.5e305


def log_half_line_beta_const(beta: float) -> float:
    """log of c_(1,beta) = Gamma(beta + 3/2) / (sqrt(pi) * Gamma(beta + 1))."""
    if not beta > -1.0:
        raise DomainError(f"one-dimensional beta constant requires beta > -1, got {beta}")
    if not beta < _LGAMMA_ARG_MAX:
        raise OverflowBoundError(f"beta constant c_(1,{beta:g}) overflows double precision")
    return math.lgamma(beta + 1.5) - math.lgamma(beta + 1.0) - _LOG_SQRT_PI


def log_half_line_beta_prime_const(beta: float) -> float:
    """log of ctilde_(1,beta) = Gamma(beta) / (sqrt(pi) * Gamma(beta - 1/2))."""
    if not beta > 0.5:
        raise DomainError(f"one-dimensional beta-prime constant requires beta > 1/2, got {beta}")
    if not beta < _LGAMMA_ARG_MAX:
        raise OverflowBoundError(f"beta-prime constant ctilde_(1,{beta:g}) overflows double precision")
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


def _anchor_table() -> np.ndarray:
    """Column j: H_j = h(y_j), H_(j+1), then the increment's coefficients.

    With y_j = j/32 and u = 32*s in [0, 1),

        h(y_j + s) - H_j = exp(y_j^2/2)/sqrt(2*pi) * integral_0^s exp(y_j*t + t^2/2) dt
                         = sum_(m=1..20) C_(m,j) * u^m,

    where exp(y*t + t^2/2) = sum_k a_k t^k with (k+1)*a_(k+1) = y*a_k + a_(k-1)
    and C_(m,j) = exp(y_j^2/2)/sqrt(2*pi) * a_(m-1) / (m * 32^m).  Every
    coefficient is positive, and the 21st term is below 1e-17 of the sum at
    y = Y_MAX.  The series gives H_j up to y = 8.75 (about 100 terms there);
    above, H_j is the running sum of whole-step increments, which grow
    geometrically, so rounding does not pile up.
    """
    step = 1.0 / _ANCHORS_PER_UNIT
    y = np.arange(round(Y_MAX * _ANCHORS_PER_UNIT) + 1) * step
    table = np.empty((_TERMS + 2, y.size))
    # b_k = a_k * step^k stays below 2 where a_k alone would reach 7e12
    b = table[2:]
    b[0] = 1.0
    b[1] = y * step
    for k in range(1, _TERMS - 1):
        b[k + 1] = (y * step * b[k] + step * step * b[k - 1]) / (k + 1)
    # y_j^2 is exact, so exp(y_j^2/2) is rounded once
    b *= np.exp(0.5 * y * y) * (step / _SQRT_2PI)
    b /= np.arange(1, _TERMS + 1)[:, None]
    values = np.empty(y.size + 1)
    values[:_SERIES_ANCHORS] = _h_series(y[:_SERIES_ANCHORS])
    last = _SERIES_ANCHORS - 1
    values[last:] = np.cumsum(np.concatenate(([values[last]], b[:, last:].sum(axis=0))))
    table[0] = values[:-1]
    table[1] = values[1:]
    return table


_TABLE = _anchor_table()


def h_imag_cdf(y):
    """Imaginary part of Phi(iy): (1/sqrt(2*pi)) * integral_0^y exp(t^2/2) dt.

    Takes an ndarray (returning one of the same shape) or a float
    (returning a float).  Odd in y, exactly: h(-y) == -h(y) bitwise.
    Nondecreasing in floating point as well (strictly increasing in exact
    arithmetic): each anchor's polynomial has positive coefficients, so its
    rounded value never falls as u grows, and it is capped at the next
    anchor's value.  Raises DomainError for nan and OverflowBoundError for
    |y| > Y_MAX, where exp(y^2/2) would approach the float64 range.
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
    scaled = a * _ANCHORS_PER_UNIT
    j = scaled.astype(np.intp)
    u = scaled - j
    # one take per coefficient row: faster than one 2-D gather, and never
    # holds 22 copies of the argument array
    acc = _TABLE[-1].take(j)
    for coef in _TABLE[-2:1:-1]:
        acc *= u
        acc += coef.take(j)
    value = np.minimum(_TABLE[0].take(j) + u * acc, _TABLE[1].take(j))
    value = np.where(y.ravel() < 0.0, -value, value)
    return float(value[0]) if y.ndim == 0 else value.reshape(y.shape)
