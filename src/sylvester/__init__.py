"""Simplex probabilities for beta-type point distributions.

Computes the probability that the convex hull of d+2 i.i.d. points in R^d
is a simplex, for the standard Gaussian, the beta family (density
proportional to (1-|x|^2)^beta on the unit ball), and the beta-prime
family (density proportional to (1+|x|^2)^(-beta)).  Three independent
routes cross-validate each other: contour-integral quadrature, a registry
of exact closed forms, and a Monte Carlo convex-hull oracle.

The Monte Carlo names (`McConfig`, `McResult`, `SimplicialCone`,
`estimate_cone_angle`, `estimate_sylvester`, `is_inside_simplex`,
`projection_experiment`, `sample_point`, `simplex_indicators`) and the
`geomc` submodule that holds them load on first access, so a process that
only runs quadrature never imports them.
"""

import importlib

from .anglesums import beta_angle_sum, beta_prime_angle_sum, gaussian_angle_sum
from .errors import (
    DegenerateGeometryError,
    DomainError,
    NonConvergenceError,
    NotInRegistryError,
    OverflowBoundError,
    SylvesterError,
)
from .probability import (
    Distribution,
    cauchy_asymptotic,
    closed_form_lookup,
    quadrature_probability,
    sylvester_probability,
)
from .quad import (
    CumulativeIntegral,
    DecayEnvelope,
    EvalResult,
    QuadratureConfig,
    integrate_line,
)
from .specfun import Y_MAX, h_imag_cdf

__version__ = "0.1.0"

__all__ = [
    "CumulativeIntegral",
    "DecayEnvelope",
    "DegenerateGeometryError",
    "Distribution",
    "DomainError",
    "EvalResult",
    "McConfig",
    "McResult",
    "NonConvergenceError",
    "NotInRegistryError",
    "OverflowBoundError",
    "QuadratureConfig",
    "SimplicialCone",
    "SylvesterError",
    "Y_MAX",
    "beta_angle_sum",
    "beta_prime_angle_sum",
    "cauchy_asymptotic",
    "closed_form_lookup",
    "estimate_cone_angle",
    "estimate_sylvester",
    "gaussian_angle_sum",
    "h_imag_cdf",
    "integrate_line",
    "is_inside_simplex",
    "projection_experiment",
    "quadrature_probability",
    "sample_point",
    "simplex_indicators",
    "sylvester_probability",
]

_GEOMC_NAMES = frozenset({
    "McConfig",
    "McResult",
    "SimplicialCone",
    "estimate_cone_angle",
    "estimate_sylvester",
    "is_inside_simplex",
    "projection_experiment",
    "sample_point",
    "simplex_indicators",
})


def __getattr__(name):
    # importing the submodule binds `geomc` here; each name read is bound too,
    # so this runs at most once per name
    if name == "geomc" or name in _GEOMC_NAMES:
        geomc = importlib.import_module(".geomc", __name__)
        value = geomc if name == "geomc" else getattr(geomc, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | {"geomc"})
