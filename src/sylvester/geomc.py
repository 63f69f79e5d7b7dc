"""Monte Carlo geometric oracle for simplex probabilities.

Independent of the quadrature route.  Every family samples its points in
homogeneous coordinates: a point x is carried as a positive multiple
(z, s) of its lifted vector (x, 1), with z standard normal and a scale s
that sets the law, so no coordinate is ever divided by a small number.
A trial cloud of d+2 points is a simplex exactly when one point lies in
the convex hull of the other d+1.  That is the sign pattern of the one
linear dependence among the d+2 lifted vectors in R^(d+1) (a singleton
side), which one batched solve gives and which positive rescales keep
(Stolfi, "Oriented Projective Geometry", 1991).  Solid angles of cones
are estimated by uniform directions in the cone's linear hull.

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

from .errors import DegenerateGeometryError, DomainError
from .probability import Distribution

# trials per RNG block; fixed so results never depend on worker count
BLOCK_TRIALS = 1 << 14

# rank / conditioning guard: condition estimates above 1/TAU_RANK reject a
# solve, and coefficients within TAU_RANK of the largest decide no sign
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


def _run_blocks(mc: McConfig, block_fn: Callable[[int, int], object]):
    """Sum of block_fn(index, size) over the blocks; the summands may be arrays of counts."""
    sizes = [
        (i, min(BLOCK_TRIALS, mc.trials - i * BLOCK_TRIALS))
        for i in range((mc.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)
    ]
    if mc.workers == 1:
        return sum(block_fn(i, size) for i, size in sizes)
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        counts = pool.map(lambda pair: block_fn(*pair), sizes)
        return sum(counts)


def _sample_lifted(dist: Distribution, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` points from dist as (count, d+1) rows (z, s); the point is z/s.

    z ~ N(0, I_d) and s >= 0: s = 1 for the Gaussian; s^2 = |z|^2 + 2G with
    G ~ Gamma(beta+1) for the beta family, so |x|^2 ~ BetaLaw(d/2, beta+1)
    (Gamma(0) is 0, so beta = -1 gives s = |z|, the sphere); s^2 = 2G with
    G ~ Gamma(beta-d/2) for beta_prime, so |x|^2 = V/(1-V) with
    V ~ BetaLaw(d/2, beta-d/2).  Nothing is divided, so a heavy tail gives
    a small s, or s = 0 (a point at infinity), never an infinite coordinate.
    """
    d = dist.d
    lifted = np.ones((count, d + 1))
    lifted[:, :d] = z = rng.standard_normal((count, d))
    if dist.family == "beta":
        gamma = rng.standard_gamma(dist.beta + 1.0, size=count)
        lifted[:, d] = np.sqrt((z * z).sum(axis=1) + 2.0 * gamma)
    elif dist.family == "beta_prime":
        lifted[:, d] = np.sqrt(2.0 * rng.standard_gamma(dist.beta - 0.5 * d, size=count))
    return lifted


def _sample_points(dist: Distribution, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` points from dist as a (count, d) array: z/s of `_sample_lifted`."""
    lifted = _sample_lifted(dist, rng, count)
    return lifted[:, :-1] / lifted[:, -1:]


def sample_point(dist: Distribution, rng: np.random.Generator) -> np.ndarray:
    """One draw from dist using the supplied generator state (z/s, see `_sample_lifted`)."""
    return _sample_points(dist, rng, 1)[0]


def _lift(points) -> np.ndarray:
    """Affine points (..., d) as the lifted vectors (..., d+1) = (x, 1)."""
    points = np.asarray(points, dtype=float)
    return np.concatenate((points, np.ones(points.shape[:-1] + (1,))), axis=-1)


def _barycentric_batch(lifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients lam of the last lifted vector in the first d+1; the one batched solve.

    lifted: (N, d+2, d+1).  Returns (lam (N, d+1), degenerate (N,)), where
    degenerate marks systems that are singular, whose condition estimate
    |a|_1 |inv(a)|_1 exceeds 1/TAU_RANK, or whose solution is not finite.
    """
    n_trials, m, k = lifted.shape
    if m != k + 1:
        raise DomainError(f"expected d+2 = {k + 1} points per trial, got {m}")
    a = lifted[:, :k, :].transpose(0, 2, 1)
    singular = np.zeros(n_trials, dtype=bool)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # invert one by one; exactly singular systems keep NaN inverses
        inv = np.full_like(a, np.nan)
        for i in range(n_trials):
            try:
                inv[i] = np.linalg.inv(a[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    cond = np.abs(a).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)
    lam = (inv @ lifted[:, k, :, None])[..., 0]
    degenerate = singular | ~np.isfinite(cond) | (cond > 1.0 / TAU_RANK)
    return lam, degenerate | ~np.isfinite(lam).all(axis=1)


def _closed_inside(lam: np.ndarray) -> np.ndarray:
    """Whether barycentric coordinates lam (..., k) lie in the closed simplex."""
    return (lam >= -TAU_RANK * np.abs(lam).max(axis=-1, keepdims=True)).all(axis=-1)


def _sign_rule(lam: np.ndarray, degenerate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trial (simplex, undecided) from the signs of sum_i lam_i v_i = v_last.

    A simplex has a singleton side: exactly one lam_i is positive (point i is
    inside the others' hull) or all are (the last point is).  A trial is
    decided only when every |lam_i| exceeds TAU_RANK times the largest.
    """
    size = np.abs(lam)
    undecided = degenerate | (size <= TAU_RANK * size.max(axis=1, keepdims=True)).any(axis=1)
    positive = (lam > 0).sum(axis=1)
    return (positive == 1) | (positive == lam.shape[1]), undecided


def simplex_indicators(points: np.ndarray) -> np.ndarray:
    """Per-trial indicator that the d+2 points form a simplex.

    points: (N, d+2, d).  Raises DegenerateGeometryError when any trial is
    undecided: numerically rank-deficient, or with a point on a facet of
    the others' hull (callers doing Monte Carlo resample instead; this
    surface is for fixed, well-posed clouds).
    """
    simplex, undecided = _sign_rule(*_barycentric_batch(_lift(points)))
    if undecided.any():
        raise DegenerateGeometryError(
            f"{int(undecided.sum())} of {simplex.size} trials are numerically degenerate"
        )
    return simplex


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
    (lam,), (degenerate,) = _barycentric_batch(_lift(np.vstack((vertices, x)))[None])
    if degenerate:
        raise DegenerateGeometryError(
            f"vertices are affinely dependent up to the condition bound {1.0 / TAU_RANK:.1e}"
        )
    return bool(_closed_inside(lam))


def estimate_sylvester(dist: Distribution, mc: McConfig) -> McResult:
    """Monte Carlo estimate of the simplex probability for dist.

    Per trial: draw d+2 lifted points and apply the sign rule; an undecided
    trial is resampled.  That can move the estimate by the share resampled,
    so more than sqrt(trials)/2 (trials times the largest binomial stderr)
    raises DegenerateGeometryError.  Deterministic given (seed, trials) at any
    worker count.
    """
    d = dist.d
    limit = 0.5 * math.sqrt(mc.trials)

    def draw(rng: np.random.Generator, size: int):
        lifted = _sample_lifted(dist, rng, size * (d + 2)).reshape(size, d + 2, d + 1)
        return _sign_rule(*_barycentric_batch(lifted))

    def block(block_index: int, size: int) -> np.ndarray:
        rng = _block_generator(mc.seed, block_index)
        simplex, undecided = draw(rng, size)
        resampled = undecided.sum()
        while undecided.any() and resampled <= limit:
            redo = np.flatnonzero(undecided)
            simplex[redo], undecided[redo] = draw(rng, redo.size)
            resampled += undecided.sum()
        return np.array([simplex.sum(), resampled])

    successes, resampled = _run_blocks(mc, block)
    if resampled > limit:
        raise DegenerateGeometryError(
            f"{resampled} numerically undecided trials to resample, more than sqrt(trials)/2 = "
            f"{limit:.1f} of {mc.trials}: resampling could bias the estimate by over one stderr"
        )
    return _mc_result(int(successes), mc)


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

    # per trial the lifted vertices (coords, 1), a direction (u, 0), and the
    # last vertex (0, 1): the projected last vertex is inside when the
    # coefficients of the vertices lie in the closed simplex
    template = np.zeros((n + 2, n + 1))
    template[:n, :n] = coords
    template[:n, n] = template[n + 1, n] = 1.0

    def block(block_index: int, size: int) -> int:
        rng = _block_generator(mc.seed, block_index)
        trials = np.repeat(template[None], size, axis=0)
        successes = 0
        for _ in range(_MAX_RETRIES):
            trials[:, n, :n] = rng.standard_normal((trials.shape[0], n))
            lam, bad = _barycentric_batch(trials)
            successes += int((_closed_inside(lam[:, :n]) & ~bad).sum())
            trials = trials[bad]
            if trials.shape[0] == 0:
                return successes
        raise DegenerateGeometryError(
            f"projections stayed degenerate after {_MAX_RETRIES} resampling rounds"
        )

    return _mc_result(_run_blocks(mc, block), mc)
