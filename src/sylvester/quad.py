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
  integral_0^x g, built from 7-point Gauss-Legendre cells on a fixed grid
  with partial-cell evaluation between nodes.

Integrands work on arrays: ``f`` and ``g`` map an ndarray of nodes to an
ndarray of the same shape.  ``integrate_line`` calls ``f`` once for its
first five step levels, each a strided view of the finest one's nodes, and
then once per further refinement on all of that level's nodes;
``CumulativeIntegral`` calls ``g`` on ``(cells, 7)`` blocks of at most
``_BLOCK_CELLS`` cells and answers an array of queries in one call.

Everything is a pure function of its arguments: identical inputs produce
bit-identical results.
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
_FIRST_STEP = 0.5

# The first integrand call covers this many levels: it evaluates the grid of
# the finest of them, and each of them is a strided view of that grid.
_FIRST_CALL_LEVELS = 5

# Step levels tried before NonConvergenceError, the last with step 2^-20; the
# first level has no estimate, since the estimate compares two levels.
_MAX_REFINEMENTS = 20

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
    ``(x, view, weights)``: ``x`` is the grid it reads, ``x[view]`` its nodes and
    ``weights`` their trapezoid weights.  The first ``_FIRST_CALL_LEVELS`` levels
    read one grid, of the finest one's step, reaching down to the coarsest one's
    last node; each later level has a grid of its own.  Since the steps are
    powers of two apart, t_hi - m*h holds exactly on every grid, and the nodes
    and weights do not depend on which grid a level reads.
    """
    h = _FIRST_STEP
    for level in range(_MAX_REFINEMENTS):
        count = math.ceil((t_hi - t_lo) / h)
        stride = 2 ** max(_FIRST_CALL_LEVELS - 1 - level, 0)
        if level == 0 or level >= _FIRST_CALL_LEVELS:
            t = t_hi - (h / stride) * np.arange(count * stride, -1, -1)
            x = np.exp(0.5 * math.pi * np.sinh(t))
            cosh_t = np.cosh(t)
        view = slice(x.size - 1 - count * stride, None, stride)
        yield x, view, h * 0.5 * math.pi * cosh_t[view] * x[view]
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
    trapezoid rule in t, halving the step on each refinement; the
    discretization estimate is |S_h - S_2h|.  The envelope certifies the
    decay of |f|: it sets the last node, the cutoff whose tail mass joins
    the estimate, and the smallest node.

    ``f`` maps an array of nodes to the array of its values.  It is called
    on the ``(2, m)`` array of the nodes x and their mirrors -x, or, with
    ``symmetric=True`` (the caller asserts f is even), on x alone, the result
    then doubled.  The first call evaluates the grid of the fifth level,
    reaching down to the first level's last node, and the first five levels
    read their nodes from it (see ``_levels``); each later level is one call
    on all of its own nodes.  ``on_refinement``, called with the same array
    before each call, has no caller in the package; only
    ``perfbench/layers.py`` still passes it.

    Raises NonConvergenceError (carrying the best result) if the tolerance
    is not met within ``_MAX_REFINEMENTS`` refinements, if it lies below the
    truncation + roundoff floor, or if two levels in a row bring no new best
    estimate once a further level would cost a new call.
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
    previous_value = math.inf
    grid = None
    for level, (x, view, weights) in enumerate(_levels(t_lo, t_hi)):
        if x is not grid:
            grid = x
            points = x if symmetric else np.stack((x, -x))
            if on_refinement is not None:
                on_refinement(points)
            values = np.asarray(f(points), dtype=float)
            if values.shape != points.shape:
                raise DomainError(
                    f"integrand returned shape {values.shape} for nodes of shape {points.shape}"
                )
            if not np.all(np.isfinite(values)):
                raise DomainError("integrand returned a non-finite value inside the truncated domain")
            nodes_used += points.size
        # a contiguous copy is summed in the order a level's own grid would be,
        # so each level's value is bitwise the same from either grid
        fv = np.ascontiguousarray(values[..., view])
        value = factor * float(np.sum(fv @ weights))
        disc = abs(value - previous_value)
        roundoff = 50.0 * _EPS * factor * float(np.sum(np.abs(fv) @ weights))
        # the skipped heads [0, x_0] on both sides, f taken at its value at the level's first node x_0
        head = factor * float(x[view.start] * np.sum(np.abs(fv[..., 0])))
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
        # a stall stops only what would cost a new call: the first call's
        # levels are already evaluated, and the estimates of its coarse levels
        # can come out small by chance
        if stalled >= 2 and level >= _FIRST_CALL_LEVELS - 1:
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

    g sees at most ``_BLOCK_CELLS`` cells, as one ``(cells, 7)`` array, per call.
    """
    out = np.empty(lo.size)
    for start in range(0, lo.size, _BLOCK_CELLS):
        a = lo[start : start + _BLOCK_CELLS]
        b = hi[start : start + _BLOCK_CELLS]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        values = np.asarray(g(mid[:, None] + half[:, None] * _GL_NODES), dtype=float)
        out[start : start + a.size] = half * (values @ _GL_WEIGHTS)
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
        if not np.all(np.diff(grid) > 0.0):
            raise DomainError("CumulativeIntegral grid must be strictly increasing")
        zero_pos = np.searchsorted(grid, 0.0)
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
            value = np.where(queries < 0.0, -value, value)
        else:
            value = self._lookup(queries)
        return float(value[0]) if x.ndim == 0 else value.reshape(x.shape)

    def _lookup(self, x: np.ndarray) -> np.ndarray:
        grid = self._grid
        inside = (x >= grid[0]) & (x <= grid[-1])
        if not np.all(inside):
            raise DomainError(f"query {x[~inside][0]} outside the grid hull [{grid[0]}, {grid[-1]}]")
        j = np.searchsorted(grid, x, side="right") - 1
        value = self._prefix[j]
        between = x != grid[j]
        value[between] += _gl_integrals(self._g, grid[j[between]], x[between])
        return value
