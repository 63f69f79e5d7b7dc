"""Deterministic one-dimensional quadrature over the real line.

Two pieces:

* :func:`integrate_line` — the exp-sinh map x = exp((pi/2) sinh t) of
  each half line with the trapezoid rule in t (Takahasi & Mori's
  double-exponential formula), refined by halving the step until the
  combined discretization + truncation + roundoff estimate meets the
  requested tolerance.  The infinite domain is cut where a caller-supplied
  decay envelope certifies that the remaining tail mass is negligible; the
  envelope is a required input, never inferred from samples.

* :class:`CumulativeIntegral` — a queryable evaluator for I(x) =
  integral_0^x g, built from 7-point Gauss-Legendre cells on a fixed grid.
  A query at a node reads the prefix sum alone; only queries between nodes
  evaluate g, on their partial cells.

Integrands work on arrays: ``f`` and ``g`` map an ndarray of nodes to an
ndarray of the same shape.  ``integrate_line`` calls ``f`` once per step
level on all of that level's nodes;
``CumulativeIntegral`` calls ``g`` on ``(cells, 7)`` blocks of at most
``_BLOCK_CELLS`` cells and answers an array of queries in one call, each
query's value the same as when asked alone.

Every weighted sum has one fixed order and calls no BLAS: a Gauss-Legendre
cell adds its seven weighted values left to right, a trapezoid level is one
numpy sum.  So no result depends on the BLAS kernel, its threads or how cells
are batched into calls of ``g``: identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError

_EPS = float(np.finfo(np.float64).eps)

# 7-point Gauss-Legendre abscissae and weights on [-1, 1], for the cumulative
# evaluator; tabulated rather than computed so every build is bit-reproducible
_GL_NODES_HALF = (
    0.949107912342758524526189684047851,
    0.741531185599394439863864773280788,
    0.405845151377397166906606412076961,
    0.000000000000000000000000000000000,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_GL_NODES = np.array([-x for x in _GL_NODES_HALF[:-1]] + [0.0] + list(reversed(_GL_NODES_HALF[:-1])))
_GL_WEIGHTS = np.array(_WG_HALF + tuple(reversed(_WG_HALF[:-1])))

# Cells per call of a CumulativeIntegral integrand: bounds the (cells, 7)
# temporaries of a build, whose grid can hold hundreds of thousands of cells.
_BLOCK_CELLS = 4096

# The line is cut where the envelope's tail mass falls to abs_tol / margin.
_TRUNCATION_MARGIN = 10.0

# Step in t of the first exp-sinh trapezoid level; each refinement halves it.
_FIRST_STEP = 1.0 / 32.0

# Step levels tried before NonConvergenceError: 16 levels, of steps 1/32 ... 2^-20.
_MAX_REFINEMENTS = 16

# The nodes start near x_min, chosen so that the envelope's bound at 0 caps
# the skipped head [0, x_min] at this share of the tail target.  That bound is
# loose when the amplitude is large (a cosh kernel's 2^rate at high beta), so
# x_min stays above a floor that keeps the nodes, and the inner cells between
# them, distinct; the estimate counts the head by f at the smallest node.
_HEAD_SHARE = 1e-4
_LOG_X_MIN_FLOOR = math.log(1e-150)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances; they fully determine a result."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        # rel_tol >= 1 or an infinite abs_tol would accept any value, a negative one too
        if not (0.0 < self.rel_tol < 1.0 and 0.0 < self.abs_tol < math.inf):
            raise DomainError("rel_tol must lie in (0, 1) and abs_tol be finite and positive")


DEFAULT_CONFIG = QuadratureConfig()

Method = Literal["quadrature", "closed_form"]


@dataclass(frozen=True)
class EvalResult:
    """A computed value with an absolute error estimate and provenance.

    ``nodes_used`` counts the nodes evaluated to reach the value, the sizes of
    the integrand's calls summed; a closed form evaluates none.
    """

    value: float
    abs_error_estimate: float
    method: Method
    nodes_used: int = 0

    def __post_init__(self):
        if not self.abs_error_estimate >= 0.0:
            raise DomainError("abs_error_estimate must be nonnegative")


@dataclass(frozen=True)
class DecayEnvelope:
    """Certified pointwise bound |f(x)| <= amplitude * (1+|x|)^p * decay(|x|).

    ``kind='gaussian'`` uses decay exp(-x^2 / (2*scale^2));
    ``kind='exponential'`` uses decay exp(-x / scale).  The amplitude is
    carried in log form so envelopes for strongly scaled integrands stay
    representable.
    """

    kind: Literal["gaussian", "exponential"]
    scale: float
    poly_degree: int = 0
    log_amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "exponential"):
            raise DomainError(f"unknown envelope kind {self.kind!r}")
        if not self.scale > 0.0:
            raise DomainError("envelope scale must be positive")
        if self.poly_degree < 0:
            raise DomainError("envelope poly_degree must be >= 0")

    def log_value(self, x: float) -> float:
        a = abs(x)
        decay = (a * a) / (2.0 * self.scale**2) if self.kind == "gaussian" else a / self.scale
        return self.log_amplitude + self.poly_degree * math.log1p(a) - decay

    def log_tail_bound(self, x: float) -> float:
        """log of a rigorous upper bound for integral_x^infinity of the envelope.

        Uses (1+t)^p <= (1+x)^p * exp(p*(t-x)/(1+x)) for t >= x, leaving a
        pure exponential tail.  Returns +inf where the bound is not yet
        valid (x too small relative to the polynomial growth).
        """
        a = abs(x)
        if self.kind == "gaussian":
            rate = a / self.scale**2 - self.poly_degree / (1.0 + a)
        else:
            rate = 1.0 / self.scale - self.poly_degree / (1.0 + a)
        if rate <= 0.0:
            return math.inf
        return self.log_value(a) - math.log(rate)


def truncation_point(envelope: DecayEnvelope, log_target: float) -> float:
    """Smallest cutoff X (to ~1%) with envelope tail mass <= exp(log_target)."""
    lo = 0.0
    hi = max(envelope.scale, 1.0)
    for _ in range(200):
        if envelope.log_tail_bound(hi) <= log_target:
            break
        lo = hi
        hi *= 2.0
    else:
        raise DomainError("envelope decays too slowly to truncate; check its parameters")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if envelope.log_tail_bound(mid) <= log_target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 0.01 * hi:
            break
    return hi


def _levels(t_lo: float, t_hi: float):
    """The trapezoid levels in t, of steps h = _FIRST_STEP / 2^k, k < _MAX_REFINEMENTS.

    A level's nodes are t = t_hi - m*h for m = ceil((t_hi - t_lo)/h) down to 0,
    mapped to x = exp((pi/2) sinh t), so x increases.  Each level is yielded as
    ``(x, weights)``, its nodes and their trapezoid weights, on a grid of its own.
    """
    h = _FIRST_STEP
    for _ in range(_MAX_REFINEMENTS):
        t = t_hi - h * np.arange(math.ceil((t_hi - t_lo) / h), -1, -1)
        x = np.exp(0.5 * math.pi * np.sinh(t))
        yield x, h * 0.5 * math.pi * np.cosh(t) * x
        h *= 0.5


def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    envelope: DecayEnvelope,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    symmetric: bool = False,
    on_refinement: Optional[Callable[[np.ndarray], None]] = None,
) -> EvalResult:
    """Integrate f over the whole real line.

    Each half line is mapped by x = exp((pi/2) sinh t) and integrated by the
    trapezoid rule in t, from step ``_FIRST_STEP`` and halving the step on
    each refinement; the discretization estimate is |S_h - S_2h|, where the
    first level's S_2h is its sum over every other one of its own nodes.  This
    halving estimate (Trefethen & Weideman, SIAM Review 2014) assumes f is
    analytic in a strip about the real line: an interior kink or singularity
    can make it come out small by chance.  The
    envelope certifies the decay of |f|: it sets the last node, the cutoff
    whose tail mass joins the estimate, and the smallest node.

    ``f`` maps an array of nodes to the array of its values.  It is called
    once per level on the ``(2, m)`` array of the level's nodes x and their
    mirrors -x, or, with ``symmetric=True`` (the caller asserts f is even), on
    x alone, the result then doubled.  ``on_refinement``, called with the same
    array before each call, has no caller in the package; only
    ``perfbench/layers.py`` still passes it.

    Raises NonConvergenceError (carrying the best result) if the tolerance
    is not met within ``_MAX_REFINEMENTS`` levels, if it lies below the
    truncation + roundoff floor, or if two levels in a row bring no new best
    estimate.
    """
    log_target = math.log(cfg.abs_tol) - math.log(_TRUNCATION_MARGIN)
    cutoff = truncation_point(envelope, log_target)
    # both half-line tails are missing regardless of the symmetric shortcut
    tail = 2.0 * math.exp(envelope.log_tail_bound(cutoff))
    # |f| <= envelope(0) * 2^p on [0, x_min] with x_min <= 1; x_min <= cutoff
    # keeps a node even when f is negligible everywhere
    log_head_bound = envelope.log_value(0.0) + envelope.poly_degree * math.log(2.0)
    log_x_min = min(
        0.0, math.log(cutoff), max(_LOG_X_MIN_FLOOR, math.log(_HEAD_SHARE) + log_target - log_head_bound)
    )
    t_lo = math.asinh(log_x_min / (0.5 * math.pi))
    t_hi = math.asinh(math.log(cutoff) / (0.5 * math.pi))
    factor = 2.0 if symmetric else 1.0

    nodes_used = 0
    best: Optional[EvalResult] = None
    stalled = 0  # levels in a row without a new best estimate
    previous_value = None
    for x, weights in _levels(t_lo, t_hi):
        points = x if symmetric else np.stack((x, -x))
        if on_refinement is not None:
            on_refinement(points)
        values = np.asarray(f(points), dtype=float)
        if values.shape != points.shape:
            raise DomainError(f"integrand returned shape {values.shape} for nodes of shape {points.shape}")
        if not np.isfinite(values).all():
            raise DomainError("integrand returned a non-finite value inside the truncated domain")
        nodes_used += points.size
        weighted = values * weights
        value = factor * float(weighted.sum())
        if previous_value is None:
            # the first level is checked against every other one of its own
            # nodes (t = t_hi - m*h, m even): the level of twice its step
            every_other = slice((x.size - 1) % 2, None, 2)
            previous_value = 2.0 * factor * float(weighted[..., every_other].sum())
        disc = abs(value - previous_value)
        roundoff = 50.0 * _EPS * factor * float(np.abs(weighted).sum())
        # the skipped heads [0, x_0] on both sides, f taken at its value at the first node x_0
        head = factor * float(x[0] * np.abs(values[..., 0]).sum())
        floor = tail + head + roundoff
        estimate = disc + floor
        result = EvalResult(value, estimate, "quadrature", nodes_used)
        if best is None or estimate < best.abs_error_estimate:
            best, stalled = result, 0
        else:
            stalled += 1
        target = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if estimate <= target:
            return result
        if disc < floor and floor > target:
            # discretization is already below the truncation + roundoff
            # floor; further refinement cannot reach the target
            raise NonConvergenceError(
                f"requested tolerance {target:.3e} lies below the roundoff/truncation "
                f"floor {floor:.3e} for this integrand",
                best=best,
            )
        if stalled >= 2:
            raise NonConvergenceError(
                f"error estimate stalled at {estimate:.3e} (target {target:.3e})",
                best=best,
            )
        previous_value = value
    raise NonConvergenceError(
        f"tolerance not met after {_MAX_REFINEMENTS} refinements "
        f"(best estimate {best.abs_error_estimate:.3e} for value {best.value:.6e})",
        best=best,
    )


def _gl_integrals(g: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """7-point Gauss-Legendre integrals of g over the cells [lo[i], hi[i]].

    g sees at most ``_BLOCK_CELLS`` cells, as one ``(cells, 7)`` array, per
    call.  A cell adds its weighted values left to right, so its integral is
    the same in any call, alone or among other cells.
    """
    out = np.empty(lo.size)
    for start in range(0, lo.size, _BLOCK_CELLS):
        a = lo[start : start + _BLOCK_CELLS]
        b = hi[start : start + _BLOCK_CELLS]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        # built node-major and transposed, so each node's column is contiguous
        weighted = np.asarray(g((mid + half * _GL_NODES[:, None]).T), dtype=float) * _GL_WEIGHTS
        sums = weighted[:, 0] + weighted[:, 1]
        for k in range(2, _GL_WEIGHTS.size):
            sums += weighted[:, k]
        out[start : start + a.size] = half * sums
    return out


class CumulativeIntegral:
    """Evaluator for I(x) = integral_0^x g on a fixed grid.

    Prefix sums over 7-point Gauss-Legendre cells give node values exact to
    the rule's order; queries between nodes integrate the partial cell with
    the same rule.  With ``even_integrand=True`` only the nonnegative part
    of the grid is used and I(-x) = -I(x) is enforced by mirroring, making
    I exactly odd.  ``g`` maps an array of points to an array of the same
    shape; a call takes an array of queries (or one float, giving a float).
    """

    def __init__(
        self,
        g: Callable[[np.ndarray], np.ndarray],
        x_points: Sequence[float],
        even_integrand: bool = False,
    ):
        grid = np.asarray(x_points, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("CumulativeIntegral needs a 1-d grid with at least two points")
        if not (grid[1:] > grid[:-1]).all():
            raise DomainError("CumulativeIntegral grid must be strictly increasing")
        zero_pos = grid.searchsorted(0.0)
        if zero_pos >= grid.size or grid[zero_pos] != 0.0:
            raise DomainError("CumulativeIntegral grid must contain 0")
        if even_integrand:
            grid = grid[zero_pos:]
            if grid.size < 2:
                raise DomainError("even-integrand grid needs points above 0")
            zero_pos = 0
        self._g = g
        self._grid = grid
        self._even = even_integrand
        prefix = np.concatenate(([0.0], np.cumsum(_gl_integrals(g, grid[:-1], grid[1:]))))
        self._prefix = prefix - prefix[zero_pos]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        queries = x.ravel()
        if self._even:
            value = self._lookup(np.abs(queries))
            np.negative(value, out=value, where=queries < 0.0)
        else:
            value = self._lookup(queries)
        return float(value[0]) if x.ndim == 0 else value.reshape(x.shape)

    def _lookup(self, x: np.ndarray) -> np.ndarray:
        grid = self._grid
        inside = (x >= grid[0]) & (x <= grid[-1])
        if not inside.all():
            raise DomainError(f"query {x[~inside][0]} outside the grid hull [{grid[0]}, {grid[-1]}]")
        j = grid.searchsorted(x, side="right") - 1
        value = self._prefix[j]
        between = x != grid[j]
        # a query at a node is answered by its prefix alone, one between nodes
        # adds its partial cell, summed as the build sums a whole one
        if between.any():
            value[between] += _gl_integrals(self._g, grid[j[between]], x[between])
        return value
