"""Closed-form simplex probabilities.

Each exact expression is written once, as one row that holds its text and
the terms it adds: the every-dimension forms are one function of d each,
summing log terms, the few-dimension forms one table keyed by (family,
beta) and then d.  Values come from the exact expression (rational numbers,
powers of pi, generalized binomials through the Gamma function), never from
a pre-rounded decimal.  ``lookup`` is the one place that turns a row into a
value and an error bar: it exponentiates the log-space forms once, and it
works out each row's error bar from the magnitude of the terms that row
rounds and sums, so no precision is asserted for all rows at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .specfun import log_gen_binomial

_PI2 = math.pi * math.pi
_EPS = sys.float_info.epsilon


def _total(terms) -> tuple[float, float]:
    """Left-to-right float sum of terms, and the sum of their magnitudes.

    A term is a float, or a ``(value, magnitude)`` pair when the float is
    itself a sum of rounded parts (see ``_binomial``).
    """
    total = size = 0.0
    for term in terms:
        value, magnitude = term if isinstance(term, tuple) else (term, abs(term))
        total += value
        size += magnitude
    return total, size


def _binomial(n: float, k: float, power: float = 1.0) -> tuple[float, float]:
    """power * log binom(n, k), with a bound on the magnitude of its lgamma terms."""
    # for 0 <= k <= n the two lower terms sum to at most lgamma(n+1), since the
    # binomial is >= 1, and each is above -1/8
    return power * log_gen_binomial(n, k), abs(power) * (2.0 * math.lgamma(n + 1.0) + 1.0)


# The every-dimension forms return (expression, log p, size), where size bounds
# the summed magnitude of the log terms the form combines; ``lookup``
# exponentiates.

def _sphere(d: int) -> tuple[str, float, float]:
    """beta = -1, the uniform-on-sphere limit: no point lies inside the others' hull."""
    return "0  (uniform-on-sphere limit)", -math.inf, 0.0


def _uniform_ball(d: int) -> tuple[str, float, float]:
    """beta = 0, the uniform distribution on the unit ball.

    Binomials with half-integer lower indices are read through the Gamma
    function.
    """
    m = d + 1
    log_p, size = _total((
        math.log(d + 2),
        -d * math.log(2.0),
        _binomial(m, 0.5 * m, m),
        _binomial(m * m, 0.5 * m * m, -1.0),
    ))
    text = f"(d+2)/2^d * binom({m},{m / 2})^{m} / binom({m ** 2},{m ** 2 / 2})"
    return text, log_p, size


def _linear_weight(d: int) -> tuple[str, float, float]:
    """beta = 1, ball density proportional to (1 - |x|^2)."""
    m = d + 2
    log_p, size = _total((
        math.log(2.0 * math.pi),
        math.log(m),
        math.log(m * m + 1.0),
        math.log(m * m + d + 4.0),
        -math.log(d + 5.0),
        -m * (2 * d + 5) * math.log(2.0),
        _binomial(d + 3, 0.5 * (d + 3), d + 1),
        _binomial(m * m, 0.5 * m * m),
    ))
    text = (
        f"2*pi*{m}*{m * m + 1}*{m * m + d + 4}/({d + 5}*2^{m * (2 * d + 5)})"
        f" * binom({d + 3},{(d + 3) / 2})^{d + 1} * binom({m * m},{m * m / 2})"
    )
    return text, log_p, size


def _heavy_tail(d: int) -> tuple[str, float, float]:
    """beta-prime at beta = d/2 + 1, density proportional to (1+|x|^2)^(-(d+2)/2)."""
    log_p, size = _total((math.log(4.0 * (2 * d + 3)), _binomial(2 * d + 4, d + 2, -1.0)))
    return f"4*{2 * d + 3}/binom({2 * d + 4},{d + 2})", log_p, size


_EVERY_DIMENSION = {("beta", -1.0): _sphere, ("beta", 0.0): _uniform_ball, ("beta", 1.0): _linear_weight}

# (family, beta) -> {d: (expression, the terms it adds in order)}
_FEW_DIMENSIONS = {
    ("gaussian", None): {
        2: ("1 - (6/pi)*arcsin(1/3)", (1.0, -(6.0 / math.pi) * math.asin(1.0 / 3.0))),
        3: ("1/2 - (5/pi)*arcsin(1/4)", (0.5, -(5.0 / math.pi) * math.asin(0.25))),
    },
    # ball density proportional to 1/sqrt(1 - |x|^2)
    ("beta", -0.5): {
        2: ("1/4", (0.25,)),
        3: ("539/(144*pi^2) - 1/3", (539.0 / (144.0 * _PI2), -1.0 / 3.0)),
        4: ("25411/3670016", (25411.0 / 3670016.0,)),
        5: (
            "1/3 + 113537407/(24192000*pi^4) - 2144238917/(570810240*pi^2)",
            (1.0 / 3.0, 113537407.0 / (24192000.0 * _PI2 * _PI2), -2144238917.0 / (570810240.0 * _PI2)),
        ),
    },
    # ball density proportional to sqrt(1 - |x|^2)
    ("beta", 0.5): {
        2: ("401/1280", (401.0 / 1280.0,)),
        3: ("1692197/(423360*pi^2) - 1/3", (1692197.0 / (423360.0 * _PI2), -1.0 / 3.0)),
        4: ("112433094897/8598524526592", (112433094897.0 / 8598524526592.0,)),
    },
}


@dataclass(frozen=True)
class ClosedFormEntry:
    """An exact registry value with its human-readable expression.

    ``abs_error`` bounds the distance from ``value`` to the exact number:
    the rounding of the float evaluation, 0 where the float is exact.
    """

    family: str
    d: int
    beta: Optional[float]
    description: str
    value: float
    abs_error: float = 0.0


def lookup(family: str, d: int, beta: Optional[float]) -> Optional[ClosedFormEntry]:
    """Exact value for (family, d, beta) with its error bar, or None when the registry has no row."""
    if d == 1:
        # three points on a line always leave the middle one inside
        return ClosedFormEntry(family, d, beta, "1", 1.0)
    # beta-prime's form is the one every-dimension form whose beta moves with d
    heavy_tail = family == "beta_prime" and beta == 0.5 * d + 1.0
    form = _heavy_tail if heavy_tail else _EVERY_DIMENSION.get((family, beta))
    if form is not None:
        text, log_p, size = form(d)
        value = math.exp(log_p)
        # each log term carries its rounding into log p, and exp adds one more;
        # ulp(0.0) covers a value that is subnormal or has underflowed to 0
        error = value * _EPS * (size + 1.0) + (math.ulp(0.0) if math.isfinite(log_p) else 0.0)
        return ClosedFormEntry(family, d, beta, text, value, error)
    row = _FEW_DIMENSIONS.get((family, beta), {}).get(d)
    if row is None:
        return None
    text, terms = row
    value, size = _total(terms)
    # each term is a few roundings from its exact value, and so is their sum
    return ClosedFormEntry(family, d, beta, text, value, 4.0 * _EPS * size)


# presets for tabulated output; (family, d, beta) triples per preset
TABLE_PRESETS = {
    "gauss": [("gaussian", d, None) for d in _FEW_DIMENSIONS[("gaussian", None)]],
    "kingman": [("beta", d, 0.0) for d in range(1, 9)],
    "arcsine": [("beta", d, -0.5) for d in _FEW_DIMENSIONS[("beta", -0.5)]],
    "semispherical": [("beta", d, 0.5) for d in _FEW_DIMENSIONS[("beta", 0.5)]],
    "betaprime-special": [("beta_prime", d, 0.5 * d + 1.0) for d in range(2, 9)],
}
