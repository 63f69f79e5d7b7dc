"""Monte Carlo geometric oracle for simplex probabilities.

Independent of the quadrature route: points are sampled by radial
decomposition, simplex-ness is decided by barycentric coordinates, and
solid angles of cones are estimated by uniform directions in the cone's
linear hull.  A trial cloud of d+2 points is a simplex exactly when one
point lies in the convex hull of the other d+1, which the sign pattern of
a single barycentric solve decides (the two-block partition of the unique
affine dependence has a singleton side).

Reproducibility contract: trials are processed in fixed-size blocks and
block i draws from a counter-based generator keyed by (seed, i), so the
estimate is a pure function of (trials, seed) no matter how many workers
partition the blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateGeometryError, DomainError, SylvesterError
from .probability import Distribution

# trials per RNG block; fixed so results never depend on worker count
BLOCK_TRIALS = 1 << 14

# rank / conditioning guard: condition estimates above 1/TAU_RANK reject
TAU_RANK = 1e-12

_MAX_RETRIES = 100


@dataclass(frozen=True)
class McConfig:
    """Trial budget, seed, and worker count for one estimate."""

    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise DomainError(f"workers must be a positive integer, got {self.workers!r}")


@dataclass(frozen=True)
class McResult:
    """Binomial estimate with its standard error."""

    estimate: float
    stderr: float
    successes: int
    trials: int
    seed: int


def _mc_result(successes: int, mc: McConfig) -> McResult:
    estimate = successes / mc.trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / mc.trials)
    return McResult(estimate, stderr, successes, mc.trials, mc.seed)


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    # disjoint 2^128-state windows of one Philox stream per block
    return np.random.Generator(np.random.Philox(key=seed, counter=block_index << 128))


def _run_blocks(mc: McConfig, block_fn: Callable[[int, int], int]) -> int:
    sizes = [
        (i, min(BLOCK_TRIALS, mc.trials - i * BLOCK_TRIALS))
        for i in range((mc.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)
    ]
    if mc.workers == 1:
        return sum(block_fn(i, size) for i, size in sizes)
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        counts = pool.map(lambda pair: block_fn(*pair), sizes)
        return sum(counts)


def _sample_points(dist: Distribution, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` points from dist as a (count, d) array.

    Radial decomposition: a uniform direction times a radius R with
    R^2 ~ BetaLaw(d/2, beta+1) for the beta family and R^2 = V/(1-V),
    V ~ BetaLaw(d/2, beta-d/2), for beta_prime.
    """
    d = dist.d
    if dist.family == "gaussian":
        return rng.standard_normal((count, d))
    directions = rng.standard_normal((count, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    if dist.family == "beta":
        if dist.beta == -1.0:
            return directions
        radii = np.sqrt(rng.beta(0.5 * d, dist.beta + 1.0, size=count))
    else:
        v = rng.beta(0.5 * d, dist.beta - 0.5 * d, size=count)
        radii = np.sqrt(v / (1.0 - v))
    return directions * radii[:, None]


def sample_point(dist: Distribution, rng: np.random.Generator) -> np.ndarray:
    """One draw from dist using the supplied generator state."""
    return _sample_points(dist, rng, 1)[0]


def _guarded_solve(a: np.ndarray, rhs: np.ndarray, norm1) -> tuple[np.ndarray, np.ndarray]:
    """Solve the batch a @ x = rhs; returns (x, bad).

    a: (N, k, k); rhs: (N, k), or (1, k) for one right-hand side shared by
    all systems; norm1: the 1-norm of each a, or one bound for all.  bad
    marks systems that are singular, whose condition estimate
    norm1 * |inv(a)|_1 exceeds 1/TAU_RANK, or whose solution is not finite.
    """
    singular = np.zeros(a.shape[0], dtype=bool)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # invert one by one; exactly singular systems keep NaN inverses
        inv = np.full_like(a, np.nan)
        for i in range(a.shape[0]):
            try:
                inv[i] = np.linalg.inv(a[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    cond = norm1 * np.abs(inv).sum(axis=1).max(axis=1)
    x = (inv @ rhs[..., None])[..., 0]
    bad = singular | ~np.isfinite(cond) | (cond > 1.0 / TAU_RANK)
    bad |= ~np.isfinite(x).all(axis=1)
    return x, bad


def _barycentric_batch(points: np.ndarray):
    """Barycentric coordinates of the last point w.r.t. the first d+1.

    points: (N, d+2, d).  Returns (lam (N, d+1), degenerate (N,), tau (N,)).
    """
    n_trials, m, d = points.shape
    if m != d + 2:
        raise DomainError(f"expected d+2 = {d + 2} points per trial, got {m}")
    a = np.empty((n_trials, d + 1, d + 1))
    a[:, :d, :] = points[:, : d + 1, :].transpose(0, 2, 1)
    a[:, d, :] = 1.0
    rhs = np.empty((n_trials, d + 1))
    rhs[:, :d] = points[:, d + 1, :]
    rhs[:, d] = 1.0
    norm1 = np.abs(a).sum(axis=1).max(axis=1)
    lam, degenerate = _guarded_solve(a, rhs, norm1)
    tau = 1e-12 * (1.0 + norm1)
    return lam, degenerate, tau


def simplex_indicators(points: np.ndarray) -> np.ndarray:
    """Per-trial indicator that the d+2 points form a simplex.

    points: (N, d+2, d).  Raises DegenerateGeometryError when any trial is
    numerically rank-deficient (callers doing Monte Carlo resample instead;
    this surface is for fixed, well-posed clouds).
    """
    points = np.asarray(points, dtype=float)
    lam, degenerate, tau = _barycentric_batch(points)
    if degenerate.any():
        raise DegenerateGeometryError(
            f"{int(degenerate.sum())} of {points.shape[0]} trials are numerically degenerate"
        )
    return _classify(lam, tau)


def _classify(lam: np.ndarray, tau: np.ndarray) -> np.ndarray:
    # last point inside the others' hull: all coordinates nonnegative;
    # point k inside: its coordinate is the only positive one (at most one can be)
    inside_last = (lam >= -tau[:, None]).all(axis=1)
    inside_one = (lam > tau[:, None]).sum(axis=1) == 1
    if (inside_last & inside_one).any():
        raise SylvesterError("two points claimed to be inside the hull of the others")
    return inside_last | inside_one


def is_inside_simplex(x: Sequence[float], vertices: Sequence[Sequence[float]]) -> bool:
    """Whether x lies in the closed simplex spanned by d+1 vertices in R^d.

    Solves the barycentric system; boundary points count as inside.  Raises
    DegenerateGeometryError when the vertices are affinely dependent up to
    the conditioning tolerance.
    """
    x = np.asarray(x, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
    d = x.shape[0]
    if vertices.shape != (d + 1, d):
        raise DomainError(f"need {d + 1} vertices in R^{d}, got shape {vertices.shape}")
    lam, degenerate, tau = _barycentric_batch(np.vstack((vertices, x))[None])
    if degenerate[0]:
        raise DegenerateGeometryError(
            f"vertices are affinely dependent up to the condition bound {1.0 / TAU_RANK:.1e}"
        )
    return bool((lam[0] >= -tau[0]).all())


def estimate_sylvester(dist: Distribution, mc: McConfig) -> McResult:
    """Monte Carlo estimate of the simplex probability for dist.

    Per trial: draw d+2 points, succeed iff some point lies inside the
    convex hull of the other d+1 (at most one can, which is asserted).
    Deterministic given (seed, trials), independent of workers.
    """
    d = dist.d

    def block(block_index: int, size: int) -> int:
        rng = _block_generator(mc.seed, block_index)
        pts = _sample_points(dist, rng, size * (d + 2)).reshape(size, d + 2, d)
        lam, degenerate, tau = _barycentric_batch(pts)
        for _ in range(_MAX_RETRIES):
            if not degenerate.any():
                break
            redo = np.flatnonzero(degenerate)
            pts[redo] = _sample_points(dist, rng, redo.size * (d + 2)).reshape(
                redo.size, d + 2, d
            )
            lam[redo], degenerate[redo], tau[redo] = _barycentric_batch(pts[redo])
        else:
            raise DegenerateGeometryError(
                f"trials stayed degenerate after {_MAX_RETRIES} resampling rounds"
            )
        return int(_classify(lam, tau).sum())

    return _mc_result(_run_blocks(mc, block), mc)


@dataclass(frozen=True, eq=False)
class SimplicialCone:
    """Positive hull of k linearly independent generators in R^m."""

    generators: np.ndarray

    def __post_init__(self):
        generators = np.asarray(self.generators, dtype=float)
        if generators.ndim != 2:
            raise DomainError("generators must form a (k, m) array")
        k, m = generators.shape
        if not 1 <= k <= m:
            raise DomainError(f"need 1 <= k <= m generators, got k={k}, m={m}")
        if not np.isfinite(generators).all():
            raise DomainError("generators must be finite")
        object.__setattr__(self, "generators", generators)


def estimate_cone_angle(cone: SimplicialCone, mc: McConfig) -> McResult:
    """Monte Carlo estimate of the solid angle of a simplicial cone.

    The angle is the fraction of the unit ball of the cone's linear hull
    covered by the cone: sample uniform directions in that hull and test
    membership through the generator coordinates.
    """
    gens = cone.generators
    k = gens.shape[0]
    # orthonormal basis of the linear hull; R holds generator coordinates
    _, r = np.linalg.qr(gens.T)
    diag = np.abs(np.diag(r))
    if diag.min() <= TAU_RANK * max(diag.max(), 1.0):
        raise DegenerateGeometryError("cone generators are numerically dependent")
    tau = 1e-12 * (1.0 + np.abs(r).sum(axis=0).max())

    def block(block_index: int, size: int) -> int:
        rng = _block_generator(mc.seed, block_index)
        directions = rng.standard_normal((size, k))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        coords = np.linalg.solve(r, directions.T).T
        return int(((coords >= -tau).all(axis=1)).sum())

    return _mc_result(_run_blocks(mc, block), mc)


def projection_experiment(vertices: Sequence[Sequence[float]], mc: McConfig) -> McResult:
    """Probability that a uniform projection maps the last vertex inside.

    vertices: the n+1 points of an n-dimensional simplex (n >= 2), possibly
    embedded in a higher-dimensional space; the experiment runs inside the
    simplex's affine hull, where the identity is non-trivial.  Per trial,
    draw U uniform on the hull's unit sphere, project everything onto the
    hyperplane orthogonal to U, and test whether the projected last vertex
    lands in the convex hull of the projected others.  The limit is twice
    the solid angle of the simplex at that vertex.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[0] < 2 or not np.isfinite(vertices).all():
        raise DomainError(f"need a 2-d array of simplex vertices, got shape {vertices.shape}")
    n = vertices.shape[0] - 1  # intrinsic simplex dimension
    if n < 2:
        raise DomainError("a 1-dimensional simplex would project onto a point; need n >= 2")
    if vertices.shape[1] < n:
        raise DomainError(f"{n + 1} vertices cannot span an {n}-simplex in R^{vertices.shape[1]}")
    edges = vertices[:n] - vertices[n]
    singular_values = np.linalg.svd(edges, compute_uv=False)
    if singular_values.min() <= TAU_RANK * max(singular_values.max(), 1.0):
        raise DegenerateGeometryError("vertices are not in general position")
    # intrinsic coordinates of the vertices; the last one sits at the origin
    q, _ = np.linalg.qr(edges.T)
    coords = edges @ q  # (n, n)

    base = np.zeros((n + 1, n + 1))
    base[:n, :n] = coords.T
    base[n, :n] = 1.0
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    norm1 = np.abs(base).sum(axis=0).max() + 1.0  # +1 covers the unit direction column
    tau = 1e-12 * (1.0 + norm1)

    def block(block_index: int, size: int) -> int:
        rng = _block_generator(mc.seed, block_index)
        successes = 0
        remaining = np.arange(size)
        matrices = np.broadcast_to(base, (size, n + 1, n + 1)).copy()
        for _ in range(_MAX_RETRIES):
            directions = rng.standard_normal((remaining.size, n))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            matrices[remaining, :n, n] = directions
            solution, bad = _guarded_solve(matrices[remaining], rhs[None, :], norm1)
            lam = solution[:, :n]
            successes += int(((lam >= -tau).all(axis=1) & ~bad).sum())
            remaining = remaining[bad]
            if remaining.size == 0:
                return successes
        raise DegenerateGeometryError(
            f"projections stayed degenerate after {_MAX_RETRIES} resampling rounds"
        )

    return _mc_result(_run_blocks(mc, block), mc)
