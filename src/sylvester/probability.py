"""Front-end: the probability that d+2 i.i.d. points form a simplex.

For each supported family the probability equals twice an expected
angle sum of an (d+1)-dimensional random simplex:

    gaussian:    2 * (regular-simplex angle sum for n = d+2 vertices)
    beta:        2 * (beta angle sum at parameter beta - 1/2)
    beta_prime:  2 * (beta-prime angle sum at parameter beta + 1/2)

Dispatch is between the closed-form registry (exact expressions) and the
deterministic quadrature route.  The registry is the one source of exact
values: every method reads it on the line (d = 1, where the probability is
1 for every law), and otherwise ``auto`` and ``closed_form`` read it first.
``quadrature_probability`` is the pure integral route, so the two stay
independent cross-checks of each other.  A closed-form result carries the
registry's error bar, which the registry works out from each row's own
terms; this module asserts no precision of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Tuple

import numpy as np

from . import registry
from .anglesums import beta_angle_sum, beta_prime_angle_sum, gaussian_angle_sum
from .errors import DomainError, NotInRegistryError, integer_count, real_number
from .quad import DEFAULT_CONFIG, EvalResult, QuadratureConfig

Family = Literal["gaussian", "beta", "beta_prime"]

FAMILIES = ("gaussian", "beta", "beta_prime")

# the largest dimension any route accepts: at d = 10**6 every closed form has
# underflowed to 0, and past it the log-space forms lose their error bars
MAX_DIMENSION = 10**6


def _dimension(d) -> int:
    """d as a plain int, once it lies in [1, MAX_DIMENSION]."""
    d = integer_count(d, "dimension d")
    if d < 1:
        raise DomainError(f"dimension d must be an integer >= 1, got {d!r}")
    if d > MAX_DIMENSION:
        raise DomainError("dimension d must be at most 10**6: no route keeps its error bar beyond it")
    return d


@dataclass(frozen=True)
class Distribution:
    """One of the three supported point distributions on R^d.

    beta family: density prop. to (1-|x|^2)^beta on the unit ball,
    beta > -1; beta = -1 denotes the uniform-on-sphere limit and needs
    d >= 2 (on the line that limit is two atoms and the simplex event
    degenerates).  beta_prime family: density prop. to (1+|x|^2)^(-beta),
    beta > d/2.  Every family takes 1 <= d <= MAX_DIMENSION = 10**6.
    """

    family: Family
    d: int
    beta: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "d", _dimension(self.d))
        if self.family == "gaussian":
            if self.beta is not None:
                raise DomainError("gaussian distribution takes no beta parameter")
            return
        if self.beta is not None:
            object.__setattr__(self, "beta", real_number(self.beta, "beta"))
        if self.beta is None or not math.isfinite(self.beta):
            raise DomainError(f"{self.family} distribution requires a finite beta parameter")
        if self.family == "beta":
            if not self.beta >= -1.0:
                raise DomainError(f"beta family requires beta >= -1, got {self.beta}")
            if self.beta == -1.0 and self.d < 2:
                raise DomainError(
                    "beta = -1 (uniform on the sphere) requires d >= 2; "
                    "on the line this limit is atomic and the simplex event degenerates"
                )
        else:
            if not self.beta > 0.5 * self.d:
                raise DomainError(
                    f"beta_prime family requires beta > d/2 = {0.5 * self.d}, got {self.beta}"
                )


def closed_form_lookup(dist: Distribution) -> Optional[EvalResult]:
    """Exact registry value for dist, or None when not covered."""
    entry = registry.lookup(dist.family, dist.d, dist.beta)
    if entry is None:
        return None
    return EvalResult(entry.value, entry.abs_error, "closed_form", nodes_used=0)


def quadrature_probability(
    dist: Distribution, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Probability through the angle-sum integral formulas."""
    n = dist.d + 2
    if dist.family == "gaussian":
        angle = gaussian_angle_sum(n, cfg)
    elif dist.family == "beta":
        angle = beta_angle_sum(n, dist.beta - 0.5, cfg)
    else:
        threshold = dist.d + 1.0 / (dist.d + 2)
        if not 2.0 * dist.beta > threshold:
            raise DomainError(
                f"quadrature for the beta_prime family requires 2*beta > d + 1/(d+2): "
                f"2*{dist.beta} = {2 * dist.beta} <= {threshold} "
                "(the angle-sum integral does not converge)"
            )
        angle = beta_prime_angle_sum(n, dist.beta + 0.5, cfg)
    return EvalResult(
        2.0 * angle.value,
        2.0 * angle.abs_error_estimate,
        "quadrature",
        angle.nodes_used,
    )


def sylvester_probability(
    dist: Distribution,
    method: Literal["auto", "quadrature", "closed_form"] = "auto",
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Probability that d+2 i.i.d. points from dist form a simplex.

    method='auto' prefers the exact closed form when the registry has the
    key and falls back to quadrature; the explicit methods force one route
    (closed_form raises NotInRegistryError when absent), except on the line,
    which every method answers from the registry.
    """
    if method not in ("auto", "quadrature", "closed_form"):
        raise DomainError(f"unknown method {method!r}")
    # the line is 1 for every law: of three points one lies between the others
    if method != "quadrature" or dist.d == 1:
        result = closed_form_lookup(dist)
        if result is not None:
            return result
        if method == "closed_form":
            raise NotInRegistryError(
                f"no closed form registered for {dist.family} d={dist.d} beta={dist.beta}"
            )
    return quadrature_probability(dist, cfg)


def cauchy_asymptotic(d: int) -> float:
    """Large-d approximation 2*sqrt(3)*d*pi^(-d-1) for the Cauchy case.

    The Cauchy case is the beta_prime family at beta = (d+1)/2.  This is an
    approximation, not an exact value, and it is never substituted for a
    probability; the quadrature route serves exact queries.
    """
    d = _dimension(d)
    return 2.0 * math.sqrt(3.0) * d * math.pi ** (-d - 1)


def conjecture_trend(family, values) -> Tuple[bool, str, str]:
    """The monotonicity conjecture on values along an increasing beta grid.

    p is conjectured non-decreasing in beta for the beta family and non-increasing
    for beta-prime, here up to 1e-9 a step.  Returns (holds, trend, nearest): the
    verdict, the trend's name, and the step nearest to breaking it as "min step …"
    or "max step …".
    """
    rising = family == "beta"
    sign, trend, extreme = (1.0, "non-decreasing", "min") if rising else (-1.0, "non-increasing", "max")
    nearest = float((sign * np.diff(values)).min(initial=math.inf))
    return nearest >= -1e-9, trend, f"{extreme} step {sign * nearest:.2e}"
