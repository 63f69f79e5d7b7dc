"""Closed-form simplex probabilities.

Each exact expression is written once, as one row that holds its text and
its value: the every-dimension forms are one function of d each, the
few-dimension forms one table keyed by (family, beta) and then d.  Values
come from the exact expression (rational numbers, powers of pi, generalized
binomials through the Gamma function), never from a pre-rounded decimal;
large binomial powers are combined in log space and exponentiated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .specfun import log_gen_binomial

_PI2 = math.pi * math.pi


def _sphere(d: int) -> tuple[str, float]:
    """beta = -1, the uniform-on-sphere limit: no point lies inside the others' hull."""
    return "0  (uniform-on-sphere limit)", 0.0


def _uniform_ball(d: int) -> tuple[str, float]:
    """beta = 0, the uniform distribution on the unit ball.

    Binomials with half-integer lower indices are read through the Gamma
    function.
    """
    m = d + 1
    log_p = (
        math.log(d + 2)
        - d * math.log(2.0)
        + m * log_gen_binomial(m, 0.5 * m)
        - log_gen_binomial(m * m, 0.5 * m * m)
    )
    text = f"(d+2)/2^d * binom({m},{m / 2})^{m} / binom({m ** 2},{m ** 2 / 2})"
    return text, math.exp(log_p)


def _linear_weight(d: int) -> tuple[str, float]:
    """beta = 1, ball density proportional to (1 - |x|^2)."""
    m = d + 2
    log_p = (
        math.log(2.0 * math.pi)
        + math.log(m)
        + math.log(m * m + 1.0)
        + math.log(m * m + d + 4.0)
        - math.log(d + 5.0)
        - m * (2 * d + 5) * math.log(2.0)
        + (d + 1) * log_gen_binomial(d + 3, 0.5 * (d + 3))
        + log_gen_binomial(m * m, 0.5 * m * m)
    )
    text = (
        f"2*pi*{m}*{m * m + 1}*{m * m + d + 4}/({d + 5}*2^{m * (2 * d + 5)})"
        f" * binom({d + 3},{(d + 3) / 2})^{d + 1} * binom({m * m},{m * m / 2})"
    )
    return text, math.exp(log_p)


def _heavy_tail(d: int) -> tuple[str, float]:
    """beta-prime at beta = d/2 + 1, density proportional to (1+|x|^2)^(-(d+2)/2)."""
    value = math.exp(math.log(4.0 * (2 * d + 3)) - log_gen_binomial(2 * d + 4, d + 2))
    return f"4*{2 * d + 3}/binom({2 * d + 4},{d + 2})", value


_EVERY_DIMENSION = {("beta", -1.0): _sphere, ("beta", 0.0): _uniform_ball, ("beta", 1.0): _linear_weight}

# (family, beta) -> {d: (expression, value)}
_FEW_DIMENSIONS = {
    ("gaussian", None): {
        2: ("1 - (6/pi)*arcsin(1/3)", 1.0 - (6.0 / math.pi) * math.asin(1.0 / 3.0)),
        3: ("1/2 - (5/pi)*arcsin(1/4)", 0.5 - (5.0 / math.pi) * math.asin(0.25)),
    },
    # ball density proportional to 1/sqrt(1 - |x|^2)
    ("beta", -0.5): {
        2: ("1/4", 0.25),
        3: ("539/(144*pi^2) - 1/3", 539.0 / (144.0 * _PI2) - 1.0 / 3.0),
        4: ("25411/3670016", 25411.0 / 3670016.0),
        5: (
            "1/3 + 113537407/(24192000*pi^4) - 2144238917/(570810240*pi^2)",
            1.0 / 3.0 + 113537407.0 / (24192000.0 * _PI2 * _PI2) - 2144238917.0 / (570810240.0 * _PI2),
        ),
    },
    # ball density proportional to sqrt(1 - |x|^2)
    ("beta", 0.5): {
        2: ("401/1280", 401.0 / 1280.0),
        3: ("1692197/(423360*pi^2) - 1/3", 1692197.0 / (423360.0 * _PI2) - 1.0 / 3.0),
        4: ("112433094897/8598524526592", 112433094897.0 / 8598524526592.0),
    },
}


@dataclass(frozen=True)
class ClosedFormEntry:
    """An exact registry value with its human-readable expression."""

    family: str
    d: int
    beta: Optional[float]
    description: str
    value: float


def lookup(family: str, d: int, beta: Optional[float]) -> Optional[ClosedFormEntry]:
    """Exact value for (family, d, beta), or None when the registry has no row."""
    if d == 1:
        # three points on a line always leave the middle one inside
        return ClosedFormEntry(family, d, beta, "1", 1.0)
    if family == "beta_prime" and beta == 0.5 * d + 1.0:
        # the one every-dimension form whose beta moves with d
        return ClosedFormEntry(family, d, beta, *_heavy_tail(d))
    form = _EVERY_DIMENSION.get((family, beta))
    row = form(d) if form is not None else _FEW_DIMENSIONS.get((family, beta), {}).get(d)
    return None if row is None else ClosedFormEntry(family, d, beta, *row)


# presets for tabulated output; (family, d, beta) triples per preset
TABLE_PRESETS = {
    "gauss": [("gaussian", d, None) for d in _FEW_DIMENSIONS[("gaussian", None)]],
    "kingman": [("beta", d, 0.0) for d in range(1, 9)],
    "arcsine": [("beta", d, -0.5) for d in _FEW_DIMENSIONS[("beta", -0.5)]],
    "semispherical": [("beta", d, 0.5) for d in _FEW_DIMENSIONS[("beta", 0.5)]],
    "betaprime-special": [("beta_prime", d, 0.5 * d + 1.0) for d in range(2, 9)],
}
