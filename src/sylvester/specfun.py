"""Special functions behind the simplex-probability formulas.

Everything here is a pure function of its arguments: the logs of
generalized binomial coefficients and of the normalizing constants of the
one-dimensional beta and beta-prime densities (all of floats), and the
restriction of the standard normal CDF to the imaginary axis,
``Phi(iy) = 1/2 + i*h(y)`` with

    h(y) = (1 / sqrt(2*pi)) * integral_0^y exp(t^2/2) dt.

``h_imag_cdf`` maps an ndarray to an ndarray of the same shape (a float to
a float) from a table built once at import: anchors y_j = j/32 on
[0, Y_MAX], each with a row of the 20 positive Taylor coefficients of the
increment towards the next anchor, and the anchor values h(y_j), which are
the running sums of those increments from h(0) = 0.  A call finds each
argument's anchor, gathers its row once (in chunks of ``_GATHER_ROWS``
arguments) and runs one 20-step Horner pass over the whole array, with no
convergence loop.  Its relative error measures at most 2.6 eps against
mpmath over [0, Y_MAX].  The table holds 1,201 anchors of 20 coefficients
and 1,202 values (197 KiB) and takes about 0.2 ms to build.
``h`` grows like ``exp(y^2/2)``, so it carries an explicit overflow bound
``Y_MAX``; callers are expected to rescale their integrals instead of
asking for larger arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, OverflowBoundError, real_array

# exp(y^2/2) must stay ~700x below the float64 maximum at y = Y_MAX
Y_MAX = 37.5

# h_imag_cdf's table: anchors y_j = j/32, each with 20 Taylor coefficients
_ANCHORS_PER_UNIT = 32
_TERMS = 20
# arguments per gather: bounds the gathered (rows, 20) copy at 640 KiB
_GATHER_ROWS = 4096

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# math.lgamma(x) ~ x*(log(x) - 1) passes the float64 maximum near x = 2.556e305
_LGAMMA_ARG_MAX = 2.5e305
# log_gamma_half_ratio's switch from the lgamma difference to the Stirling difference
_STIRLING_FROM = 10.0


def log_gamma_half_ratio(x: float) -> float:
    """log Gamma(x + 1/2) - log Gamma(x) for x > 0, without the cancellation of two large lgammas.

    Below x = 10 it is the lgamma difference, within 3.2e-15 there.  From
    x = 10 on it is the difference of the two Stirling series (DLMF 5.11.1)
    with six terms each, x*log1p(1/(2x)) + log(x)/2 - 1/2 + S(x+1/2) - S(x),
    within 3e-16 (relative) up to the float range, where the lgamma
    difference drifts to 1.8e-13 at x = 1e3 and 7e-2 at x = 1e15.
    """
    if x < _STIRLING_FROM:
        return math.lgamma(x + 0.5) - math.lgamma(x)
    return x * math.log1p(0.5 / x) + 0.5 * math.log(x) - 0.5 + (_stirling_tail(x + 0.5) - _stirling_tail(x))


def _stirling_tail(z: float) -> float:
    """S(z) = log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), six terms of DLMF 5.11.1, in powers of 1/z."""
    r = 1.0 / z
    r2 = r * r
    return r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 * (
        1.0 / 1680.0 - r2 * (1.0 / 1188.0 - r2 * (691.0 / 360360.0))))))


def log_half_line_beta_const(beta: float) -> float:
    """log of c_(1,beta) = Gamma(beta + 3/2) / (sqrt(pi) * Gamma(beta + 1))."""
    if not beta > -1.0:
        raise DomainError(f"one-dimensional beta constant requires beta > -1, got {beta}")
    if not beta < _LGAMMA_ARG_MAX:
        raise OverflowBoundError(f"beta constant c_(1,{beta:g}) overflows double precision")
    return log_gamma_half_ratio(beta + 1.0) - _LOG_SQRT_PI


def log_half_line_beta_prime_const(beta: float) -> float:
    """log of ctilde_(1,beta) = Gamma(beta) / (sqrt(pi) * Gamma(beta - 1/2))."""
    if not beta > 0.5:
        raise DomainError(f"one-dimensional beta-prime constant requires beta > 1/2, got {beta}")
    if not beta < _LGAMMA_ARG_MAX:
        raise OverflowBoundError(f"beta-prime constant ctilde_(1,{beta:g}) overflows double precision")
    return log_gamma_half_ratio(beta - 0.5) - _LOG_SQRT_PI


def log_gen_binomial(n: float, k: float) -> float:
    """log of Gamma(n+1) / (Gamma(k+1) * Gamma(n-k+1))."""
    if not n > -1.0:
        raise DomainError(f"log_gen_binomial requires n > -1, got n={n}")
    if not (-1.0 < k < n + 1.0):
        raise DomainError(f"log_gen_binomial requires -1 < k < n+1, got n={n}, k={k}")
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def _anchor_table() -> tuple[np.ndarray, np.ndarray]:
    """The anchor values H (one past the last anchor) and the coefficient table C.

    With y_j = j/32 and u = 32*s in [0, 1),

        h(y_j + s) - H_j = exp(y_j^2/2)/sqrt(2*pi) * integral_0^s exp(y_j*t + t^2/2) dt
                         = sum_(m=1..20) C_(j,m-1) * u^m,

    where exp(y*t + t^2/2) = sum_k a_k t^k with (k+1)*a_(k+1) = y*a_k + a_(k-1)
    and C_(j,m-1) = exp(y_j^2/2)/sqrt(2*pi) * a_(m-1) / (m * 32^m).  Row j of
    C holds anchor j's 20 coefficients, so one gather fetches an argument's
    polynomial.  Every coefficient is positive, and the 21st term is below
    1e-17 of the sum at y = Y_MAX.  One rule gives every anchor value:
    H_0 = h(0) = 0, and H_j is the running sum of the whole-step increments
    sum_m C_(i,m-1), i < j.  The increments are positive and grow, so
    rounding does not pile up.
    """
    step = 1.0 / _ANCHORS_PER_UNIT
    y = np.arange(round(Y_MAX * _ANCHORS_PER_UNIT) + 1) * step
    # b_k = a_k * step^k stays below 2 where a_k alone would reach 7e12
    b = np.empty((_TERMS, y.size))
    b[0] = 1.0
    b[1] = y * step
    for k in range(1, _TERMS - 1):
        b[k + 1] = (y * step * b[k] + step * step * b[k - 1]) / (k + 1)
    # y_j^2 is exact, so exp(y_j^2/2) is rounded once
    b *= np.exp(0.5 * y * y) * (step / _SQRT_2PI)
    b /= np.arange(1, _TERMS + 1)[:, None]
    return np.concatenate(([0.0], np.cumsum(b.sum(axis=0)))), np.ascontiguousarray(b.T)


_H, _COEFFS = _anchor_table()


def h_imag_cdf(y):
    """Imaginary part of Phi(iy): (1/sqrt(2*pi)) * integral_0^y exp(t^2/2) dt.

    Takes an ndarray (returning one of the same shape) or a float
    (returning a float).  Odd in y, exactly: h(-y) == -h(y) bitwise.
    Nondecreasing in floating point as well (strictly increasing in exact
    arithmetic): each anchor's polynomial has positive coefficients, so its
    rounded value never falls as u grows, and it is capped at the next
    anchor's value.  Raises DomainError for nan or a y that is not real
    (``errors.real_array``) and OverflowBoundError for |y| > Y_MAX.
    """
    y = real_array(y, "h_imag_cdf requires real numbers")
    a = np.abs(y).ravel()
    # one pass: the maximum is nan if any argument is
    top = a.max(initial=0.0)
    if not top <= Y_MAX:
        if math.isnan(top):
            raise DomainError("h_imag_cdf requires a finite argument, got nan")
        raise OverflowBoundError(
            f"h_imag_cdf overflows beyond |y| = {Y_MAX}, got {y.ravel()[a.argmax()]};"
            " rescale the integral"
        )
    scaled = a * _ANCHORS_PER_UNIT
    j = scaled.astype(np.intp)
    u = scaled - j
    acc = np.empty_like(u)
    for start in range(0, a.size, _GATHER_ROWS):
        rows = slice(start, start + _GATHER_ROWS)
        # one gather of each argument's 20 coefficients, read a column at a time
        coeffs = _COEFFS.take(j[rows], axis=0).T
        part, step = acc[rows], u[rows]
        part[...] = coeffs[-1]
        for coef in coeffs[-2::-1]:
            part *= step
            part += coef
    acc *= u
    acc += _H.take(j)
    value = np.minimum(acc, _H[1:].take(j), out=acc)
    np.negative(value, out=value, where=y.ravel() < 0.0)
    return float(value[0]) if y.ndim == 0 else value.reshape(y.shape)
