"""Expected internal-angle sums of random simplices, by quadrature.

Three quantities are evaluated, all for a simplex with ``n`` vertices in
dimension n-1 and all normalized so a full sphere is 1:

* the angle sum of the regular simplex (the common limit of the random
  families), via the contour formula

      (n / sqrt(2*pi)) * integral  Phi(ix/sqrt(n))^(n-1) * exp(-x^2/2) dx;

* the expected angle sum of the beta simplex with vertex density
  proportional to (1-|x|^2)^beta, via the cosh-kernel formula with
  substitution parameter  alpha = 2*beta + n - 1:

      n * integral  c_(alpha*n/2) * cosh(x)^(-alpha*n-2)
                    * (1/2 + i * I(x))^(n-1) dx,
      I(x) = integral_0^x  c_((alpha-1)/2) * cosh(y)^alpha dy;

* the beta-prime analogue (vertex density proportional to
  (1+|x|^2)^(-beta)) with  alpha = 2*beta - n + 1, outer kernel
  cosh(x)^(-(alpha*n-1)) and inner kernel
  ctilde_((alpha+1)/2) * cosh(y)^(alpha-1).

The integrands are real because the imaginary part is odd in x.  The inner
functions are exactly odd (h_imag_cdf by sign mirroring, the cumulative
inner integral by mirroring), so the term at -x is the exact conjugate of the
term at x; only its real part, which is even, is integrated, over the half
line.  All powers are combined in log space: (1/2 + i*I)^(n-1) overflows
directly once n is moderately large while the full integrand stays tame.

Every integrand here is a numpy expression: it maps the array of quadrature
nodes to the array of its values, so one call covers all the positive
half-line nodes of integrate_line's first five levels, and each further
refinement is one more call on all of that level's nodes.  The cosh-kernel
integrand builds I from the nodes it is handed (each gap split
_INNER_GRID_FACTOR ways) and answers them in one lookup, so it is a pure
function of its argument: the first five levels share one I, built on the
finest of their grids, and each later level builds its own on a finer
grid, so the inner error shrinks with the finest outer step evaluated.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, OverflowBoundError
from .quad import (
    DEFAULT_CONFIG,
    CumulativeIntegral,
    DecayEnvelope,
    EvalResult,
    QuadratureConfig,
    integrate_line,
)
from .specfun import (
    h_imag_cdf,
    log_half_line_beta_const,
    log_half_line_beta_prime_const,
)

# Tolerances are guaranteed for n <= 20.  Up to n = 40 the near-cancellation
# of (1/2 + i*I)^(n-1) erodes double precision, so error estimates carry an
# inflation factor; beyond 40 evaluation is refused.
N_GUARANTEED = 20
N_MAX = 40
_ESTIMATE_INFLATION = 8.0

# each gap of the outer nodes is split this many ways for the inner integral
_INNER_GRID_FACTOR = 4

_LOG_HALF = math.log(0.5)
_LN2 = math.log(2.0)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    a = np.abs(x)
    return a + np.log1p(np.exp(-2.0 * a)) - _LN2


def _real_part(log_weight: np.ndarray, inner: np.ndarray, n: int) -> np.ndarray:
    """Re[exp(log_weight) * (1/2 + i*inner)^(n-1)], the power taken in log space."""
    log_modulus = log_weight + (n - 1) * np.log(np.hypot(0.5, inner))
    return np.exp(log_modulus) * np.cos((n - 1) * np.arctan2(inner, 0.5))


def _check_n(n: int, minimum: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"vertex count n must be an integer, got {n!r}")
    if n < minimum:
        raise DomainError(f"vertex count n must be >= {minimum}, got {n}")
    if n > N_MAX:
        raise DomainError(
            f"vertex count n = {n} exceeds the double-precision ceiling {N_MAX}"
        )


def _integrate_real_part(
    integrand: Callable[[np.ndarray], np.ndarray],
    envelope: DecayEnvelope,
    cfg: QuadratureConfig,
    n: int,
    exponent: float,
) -> EvalResult:
    """Integrate the real part of a term with term(-x) == conj(term(x)) exactly.

    That real part, ``integrand``, is then even and the imaginary part
    cancels, so only the half line is evaluated.  ``exponent`` is the kernel
    power named when the integrand overflows; numpy overflow raises here
    instead of warning, so it takes the same path as a Python OverflowError.
    """
    try:
        with np.errstate(over="raise"):
            result = integrate_line(integrand, envelope, cfg, symmetric=True)
    except (OverflowError, FloatingPointError) as exc:
        raise OverflowBoundError(
            f"angle-sum integrand at n = {n} overflows double precision"
            f" (kernel exponent {exponent:g})"
        ) from exc
    if n > N_GUARANTEED:
        result = EvalResult(
            result.value, result.abs_error_estimate * _ESTIMATE_INFLATION, "quadrature", result.nodes_used
        )
    return result


def gaussian_angle_sum(n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> EvalResult:
    """Angle sum of the regular simplex with n vertices."""
    _check_n(n, minimum=2)
    # substitution u = x / sqrt(n); prefactor n*sqrt(n)/sqrt(2*pi)
    log_pref = 1.5 * math.log(n) - 0.5 * math.log(2.0 * math.pi)

    def integrand(u: np.ndarray) -> np.ndarray:
        return _real_part(log_pref - 0.5 * n * u * u, h_imag_cdf(u), n)

    # |Phi(iu)| <= (1/2)*(1+u)*exp(u^2/2), giving a sigma=1 Gaussian envelope
    envelope = DecayEnvelope(
        kind="gaussian",
        scale=1.0,
        poly_degree=n - 1,
        log_amplitude=log_pref + (n - 1) * _LOG_HALF,
    )
    return _integrate_real_part(integrand, envelope, cfg, n, exponent=n - 1)


def _subdivided_grid(nodes: np.ndarray) -> np.ndarray:
    """Grid through 0 and the increasing positive nodes, each gap split _INNER_GRID_FACTOR ways."""
    base = np.concatenate(([0.0], nodes))
    lo, hi = base[:-1], base[1:]
    # row i holds lo[i] + k*(hi[i]-lo[i])/factor, k < factor, the points
    # np.linspace(lo[i], hi[i], factor + 1)[:-1] gives
    factor = _INNER_GRID_FACTOR
    points = lo[:, None] + np.arange(factor) * ((hi - lo) / factor)[:, None]
    return np.concatenate((points.ravel(), base[-1:]))


def _cosh_kernel_evaluation(
    n: int,
    log_c_out: float,
    outer_exponent: float,
    log_c_in: float,
    inner_exponent: float,
    cfg: QuadratureConfig,
) -> EvalResult:
    def g(y: np.ndarray) -> np.ndarray:
        return np.exp(log_c_in + inner_exponent * _log_cosh(y))

    log_pref = math.log(n) + log_c_out

    def integrand(x: np.ndarray) -> np.ndarray:
        inner = CumulativeIntegral(g, _subdivided_grid(x), even_integrand=True)
        return _real_part(log_pref - outer_exponent * _log_cosh(x), inner(x), n)

    # |I(x)| <= c_in * x * cosh(x)^max(inner_exponent, 0) bounds the integrand
    # by a degree n-1 polynomial times cosh(x)^-rate <= 2^rate * exp(-rate * x)
    rate = outer_exponent - (n - 1) * max(inner_exponent, 0.0)
    log_amp = (
        log_pref
        + (n - 1) * np.logaddexp(_LOG_HALF, log_c_in)
        + rate * _LN2
    )
    envelope = DecayEnvelope(
        kind="exponential", scale=1.0 / rate, poly_degree=n - 1, log_amplitude=float(log_amp)
    )
    return _integrate_real_part(integrand, envelope, cfg, n, exponent=inner_exponent)


def beta_angle_sum(n: int, beta: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> EvalResult:
    """Expected angle sum of the beta simplex with n vertices."""
    _check_n(n, minimum=3)
    if n == 3:
        if not beta >= -1.0:
            raise DomainError(
                f"beta angle sum at n = 3 requires beta >= -1, got {beta}"
            )
    elif not beta >= -1.5:
        raise DomainError(
            f"beta angle sum requires beta >= -3/2 (the continuation region), got {beta}"
        )
    alpha = 2.0 * beta + n - 1.0
    return _cosh_kernel_evaluation(
        n,
        log_c_out=log_half_line_beta_const(0.5 * alpha * n),
        outer_exponent=alpha * n + 2.0,
        log_c_in=log_half_line_beta_const(0.5 * (alpha - 1.0)),
        inner_exponent=alpha,
        cfg=cfg,
    )


def beta_prime_angle_sum(
    n: int, beta: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Expected angle sum of the beta-prime simplex with n vertices."""
    _check_n(n, minimum=2)
    threshold = 0.5 * (n - 1) + 0.5 / n
    if not beta > threshold:
        raise DomainError(
            f"beta-prime angle sum requires beta > (n-1)/2 + 1/(2n) = {threshold}"
            f" (else the integral does not converge), got {beta}"
        )
    alpha = 2.0 * beta - n + 1.0
    return _cosh_kernel_evaluation(
        n,
        log_c_out=log_half_line_beta_prime_const(0.5 * alpha * n),
        outer_exponent=alpha * n - 1.0,
        log_c_in=log_half_line_beta_prime_const(0.5 * (alpha + 1.0)),
        inner_exponent=alpha - 1.0,
        cfg=cfg,
    )
