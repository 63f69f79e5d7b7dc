"""Deterministic one-dimensional quadrature over the real line.

Two pieces:

* :func:`integrate_line` — composite Gauss-Kronrod (7, 15) panels on a
  truncated interval, refined by doubling the panel count until the
  combined discretization + truncation + roundoff estimate meets the
  requested tolerance.  The infinite domain is cut where a caller-supplied
  decay envelope certifies that the remaining tail mass is negligible; the
  envelope is a required input, never inferred from samples.

* :class:`CumulativeIntegral` — a queryable evaluator for I(x) =
  integral_0^x g, built from 7-point Gauss-Legendre cells on a fixed grid
  with partial-cell evaluation between nodes.

Integrands work on arrays: ``f`` and ``g`` map an ndarray of nodes to an
ndarray of the same shape.  ``integrate_line`` calls ``f`` once per
refinement on the whole ``(panels, 15)`` node block; ``CumulativeIntegral``
calls ``g`` on ``(cells, 7)`` blocks of at most ``_BLOCK_CELLS`` cells and
answers an array of queries in one call.

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

# Gauss-Kronrod (7, 15) abscissae and weights on [-1, 1]; the odd-index
# abscissae form the embedded 7-point Gauss rule.
_GK_NODES_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _build_rules():
    nodes = [-x for x in _GK_NODES_HALF[:-1]] + [0.0] + [x for x in reversed(_GK_NODES_HALF[:-1])]
    wgk = list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1]))
    wg = [0.0] * 15
    for i, w in enumerate(_WG_HALF[:-1]):
        wg[2 * i + 1] = w
        wg[13 - 2 * i] = w
    wg[7] = _WG_HALF[-1]
    return np.array(nodes), np.array(wgk), np.array(wg)


_GK_NODES, _GK_WEIGHTS, _G_WEIGHTS = _build_rules()

# 7-point Gauss-Legendre rule reused for the cumulative evaluator
_GL_NODES = _GK_NODES[1::2].copy()
_GL_WEIGHTS = np.array(_WG_HALF[:-1] + (_WG_HALF[-1],) + tuple(reversed(_WG_HALF[:-1])))

# Cells per call of a CumulativeIntegral integrand: bounds the (cells, 7)
# temporaries of a build, whose grid can hold hundreds of thousands of cells.
_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and refinement policy; fully determines a result."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_refinements: int = 20
    truncation_margin: float = 10.0
    inner_grid_factor: int = 4

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("rel_tol and abs_tol must be positive")
        if self.max_refinements < 1:
            raise DomainError("max_refinements must be >= 1")
        if self.inner_grid_factor < 1:
            raise DomainError("inner_grid_factor must be >= 1")
        if self.truncation_margin <= 0.0:
            raise DomainError("truncation_margin must be positive")


DEFAULT_CONFIG = QuadratureConfig()

Method = Literal["quadrature", "closed_form", "asymptotic"]


@dataclass(frozen=True)
class EvalResult:
    """A computed value with an absolute error estimate and provenance."""

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


def _panel_points(a: float, b: float, panels: int):
    """Evaluation points of the composite rule as a (panels, 15) array."""
    width = (b - a) / panels
    mids = a + (np.arange(panels) + 0.5) * width
    return mids[:, None] + 0.5 * width * _GK_NODES[None, :], 0.5 * width


def _composite_gk(f: Callable[[np.ndarray], np.ndarray], points: np.ndarray, half_width: float):
    """One composite GK(7,15) pass: (kronrod_sum, sum |K15-G7|, sum resabs)."""
    fv = np.asarray(f(points), dtype=float)
    if fv.shape != points.shape:
        raise DomainError(
            f"integrand returned shape {fv.shape} for nodes of shape {points.shape}"
        )
    if not np.all(np.isfinite(fv)):
        raise DomainError("integrand returned a non-finite value inside the truncated domain")
    k15 = half_width * (fv @ _GK_WEIGHTS)
    g7 = half_width * (fv @ _G_WEIGHTS)
    resabs = half_width * (np.abs(fv) @ _GK_WEIGHTS)
    return float(k15.sum()), float(np.abs(k15 - g7).sum()), float(resabs.sum())


def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    envelope: DecayEnvelope,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    symmetric: bool = False,
    on_refinement: Optional[Callable[[np.ndarray], None]] = None,
) -> EvalResult:
    """Integrate f over the whole real line.

    ``f`` maps a ``(panels, 15)`` array of nodes to the array of its values
    and is called once per refinement.  The envelope certifies the decay of
    |f| and determines where the line is cut; its tail mass is folded into
    the error estimate.  With ``symmetric=True`` the caller asserts f is
    even and only [0, X] is evaluated (then doubled).  ``on_refinement`` is
    invoked with the full node array before each refinement's integrand
    evaluation, letting callers rebuild cached inner quantities at matching
    resolution.

    Raises NonConvergenceError (carrying the best result) if the tolerance
    is not met within ``cfg.max_refinements`` refinements.
    """
    log_target = math.log(cfg.abs_tol) - math.log(cfg.truncation_margin)
    cutoff = truncation_point(envelope, log_target)
    # both half-line tails are missing regardless of the symmetric shortcut
    tail = 2.0 * math.exp(envelope.log_tail_bound(cutoff))
    a, b, factor = (0.0, cutoff, 2.0) if symmetric else (-cutoff, cutoff, 1.0)

    panels = 8
    nodes_used = 0
    best: Optional[EvalResult] = None
    stalled = 0
    previous_estimate = math.inf
    for _ in range(cfg.max_refinements):
        points, half_width = _panel_points(a, b, panels)
        if on_refinement is not None:
            on_refinement(points.ravel())
        total, disc, resabs = _composite_gk(f, points, half_width)
        nodes_used += 15 * panels
        value = factor * total
        roundoff = 50.0 * _EPS * factor * resabs
        estimate = factor * disc + tail + roundoff
        result = EvalResult(value, estimate, "quadrature", nodes_used)
        if best is None or estimate < best.abs_error_estimate:
            best = result
        target = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if estimate <= target:
            return result
        if factor * disc < roundoff + tail and roundoff + tail > target:
            # discretization is already below the truncation + roundoff
            # floor; further refinement cannot reach the target
            raise NonConvergenceError(
                f"requested tolerance {target:.3e} lies below the roundoff/truncation "
                f"floor {roundoff + tail:.3e} for this integrand",
                best=best,
            )
        stalled = stalled + 1 if estimate >= previous_estimate else 0
        if stalled >= 2:
            raise NonConvergenceError(
                f"error estimate stalled at {estimate:.3e} (target {target:.3e})",
                best=best,
            )
        previous_estimate = estimate
        panels *= 2
    raise NonConvergenceError(
        f"tolerance not met after {cfg.max_refinements} refinements "
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
