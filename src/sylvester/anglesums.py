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
nodes to the array of its values, so each of integrate_line's levels is one
call on all of its positive half-line nodes.  The cosh-kernel integrand
builds I on 0 and the nodes it is handed and reads I at those nodes
straight from its prefix sums, so it is a pure function of its argument:
each level builds its own I, and the inner error shrinks with the outer
step.

Every n <= N_MAX reports integrate_line's own error estimate.  Near n = 40
the probabilities (1e-36 for the Gaussian) lie below the noise that the
cancellation in (1/2 + i*I)^(n-1) leaves: such values are often unresolved
(|value| <= estimate), but the estimate still covers the true error.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError, OverflowBoundError, integer_count, real_number
from .quad import (
    DEFAULT_CONFIG,
    CumulativeIntegral,
    DecayEnvelope,
    EvalResult,
    QuadratureConfig,
    integrate_line,
)
from .specfun import (
    Y_MAX,
    h_imag_cdf,
    log_half_line_beta_const,
    log_half_line_beta_prime_const,
)

# The advertised domain; larger n are refused until a roundoff bound derives it
N_MAX = 40

_LOG_HALF = math.log(0.5)
_LN2 = math.log(2.0)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # |x| + log1p(exp(-2|x|)) - log 2, in place in one new array
    a = np.abs(x)
    out = -2.0 * a
    np.log1p(np.exp(out, out=out), out=out)
    out += a
    out -= _LN2
    return out


def _real_part(log_weight: np.ndarray, inner: np.ndarray, n: int) -> np.ndarray:
    """Re[exp(log_weight) * (1/2 + i*inner)^(n-1)], the power taken in log space."""
    log_modulus = np.hypot(0.5, inner)
    np.log(log_modulus, out=log_modulus)
    log_modulus *= n - 1
    log_modulus += log_weight
    phase = np.arctan2(inner, 0.5)
    phase *= n - 1
    np.exp(log_modulus, out=log_modulus)
    log_modulus *= np.cos(phase, out=phase)
    return log_modulus


def _check_n(n: int, minimum: int) -> int:
    """n as a plain int, once it lies in [minimum, N_MAX]."""
    n = integer_count(n, "vertex count n")
    if n < minimum:
        raise DomainError(f"vertex count n must be >= {minimum}, got {n}")
    if n > N_MAX:
        raise DomainError(
            f"vertex count n = {n} exceeds the double-precision ceiling {N_MAX}"
        )
    return n


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
    The integrator's result is returned unchanged, whatever n is.
    """
    try:
        with np.errstate(over="raise"):
            return integrate_line(integrand, envelope, cfg, symmetric=True)
    except (OverflowError, FloatingPointError) as exc:
        raise OverflowBoundError(
            f"angle-sum integrand at n = {n} overflows double precision"
            f" (kernel exponent {exponent:g})"
        ) from exc


def gaussian_angle_sum(n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> EvalResult:
    """Angle sum of the regular simplex with n vertices.

    A tolerance whose cutoff would pass ``Y_MAX``, where h_imag_cdf's table
    ends, raises NonConvergenceError as below the floor (``--tol 1e-300``).
    """
    n = _check_n(n, minimum=2)
    # substitution u = x / sqrt(n); prefactor n*sqrt(n)/sqrt(2*pi)
    log_pref = 1.5 * math.log(n) - 0.5 * math.log(2.0 * math.pi)

    def integrand(u: np.ndarray) -> np.ndarray:
        try:
            inner = h_imag_cdf(u)
        except OverflowBoundError:
            # the nodes run to the envelope's cutoff, so the tolerance asks for
            # a tail past the table's end, where no level can reach it
            raise NonConvergenceError(
                f"requested tolerance {cfg.abs_tol:.3e} lies below the roundoff/truncation floor for"
                f" this integrand: its cutoff passes |u| = {Y_MAX}, where h_imag_cdf ends"
            ) from None
        return _real_part(log_pref - 0.5 * n * u * u, inner, n)

    # |Phi(iu)| <= (1/2)*(1+u)*exp(u^2/2), giving a sigma=1 Gaussian envelope
    envelope = DecayEnvelope(
        kind="gaussian",
        scale=1.0,
        poly_degree=n - 1,
        log_amplitude=log_pref + (n - 1) * _LOG_HALF,
    )
    return _integrate_real_part(integrand, envelope, cfg, n, exponent=n - 1)


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
        inner = CumulativeIntegral(g, np.concatenate(([0.0], x)), even_integrand=True)
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
    n = _check_n(n, minimum=3)
    beta = real_number(beta, "beta")
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
    n = _check_n(n, minimum=2)
    beta = real_number(beta, "beta")
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
