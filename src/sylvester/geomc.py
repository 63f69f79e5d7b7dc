"""Monte Carlo geometric oracle for simplex probabilities.

Independent of the quadrature route.  Every family samples its points in
homogeneous coordinates: a point x is carried as a positive multiple
(z, s) of its lifted vector (x, 1), with z standard normal and a scale s
that sets the law, so no coordinate is ever divided by a small number.
A trial cloud of d+2 points is a simplex exactly when one point lies in
the convex hull of the other d+1.  That is the sign pattern of the one
linear dependence among the d+2 lifted vectors in R^(d+1) (a singleton
side), which positive rescales keep (Stolfi, "Oriented Projective
Geometry", 1991).  Each trial is decided by one equilibrated Householder QR,
`_solve`, run across a whole block at once with the trials on the last
axis: every step is one numpy operation over all trials, and no step mixes
two trials.  `_sample` draws a block straight into the QR's work arrays,
one contiguous (coordinate, vector, trial) array per sub-block, in the same
stream order as a row of (z, s) per point, so the layout changes no seeded
count.  Undecided trials are resampled by one loop, `_estimate`.  Solid
angles of cones are estimated by uniform directions.

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

from .errors import DegenerateGeometryError, DomainError, OverflowBoundError, integer_count
from .probability import Distribution

# trials per RNG block; fixed so results never depend on worker count
BLOCK_TRIALS = 1 << 14

# values in one row of the batched QR's work array, d+3 per trial, so a
# sub-block holds _QR_ROW_VALUES // (d+3) trials: each QR step works on a few
# such 384 KB rows, which stay in a 2 MB L2 cache, and rows this long keep
# numpy's per-call cost, and the GIL hand-offs between workers, small
_QR_ROW_VALUES = 49152

# largest dimension d (simplex dimension for projection_experiment) Monte
# Carlo accepts: one block's work arrays hold BLOCK_TRIALS*(d+1)*(d+3)
# floats, 210 MB at d = 38 but 5.3 GB at d = 200, and the whole block must be
# resident, since its gammas follow all its normals in the stream; nor does
# Monte Carlo see a single success past d ~ 12 at any practical budget
_MAX_DIMENSION = 38

# rank / conditioning guard: a |diag R| within TAU_RANK of the largest rejects
# a solve or a frame, an equilibrated condition estimate above 1/TAU_RANK
# rejects a solve, and coefficients within TAU_RANK of the largest decide no sign
TAU_RANK = 1e-12


@dataclass(frozen=True)
class McConfig:
    """Trial budget, seed, and worker count for one estimate."""

    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        for name in ("trials", "seed", "workers"):
            object.__setattr__(self, name, integer_count(getattr(self, name), name))
        if self.trials < 1:
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.workers < 1:
            raise DomainError(f"workers must be a positive integer, got {self.workers!r}")


@dataclass(frozen=True)
class McResult:
    """Binomial estimate with its standard error."""

    estimate: float
    stderr: float
    successes: int
    trials: int
    seed: int


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    # disjoint 2^128-state windows of one Philox stream per block
    return np.random.Generator(np.random.Philox(key=seed, counter=block_index << 128))


def _check_dimension(d: int, what: str) -> None:
    if d > _MAX_DIMENSION:
        raise DomainError(
            f"Monte Carlo accepts {what} <= {_MAX_DIMENSION}, got {d}: a block of {BLOCK_TRIALS}"
            f" trials would take {BLOCK_TRIALS * (d + 1) * (d + 3) * 8 / 1e9:.3g} GB"
        )


def _run_blocks(mc: McConfig, block_fn: Callable[[int, int], object]):
    """Sum of the count arrays block_fn(index, size) over the blocks."""
    sizes = [
        (i, min(BLOCK_TRIALS, mc.trials - i * BLOCK_TRIALS))
        for i in range((mc.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)
    ]
    if mc.workers == 1:
        return sum(block_fn(i, size) for i, size in sizes)
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        counts = pool.map(lambda pair: block_fn(*pair), sizes)
        return sum(counts)


def _sub_blocks(k: int, size: int) -> list[np.ndarray]:
    """Empty work arrays of `_qr_solve` for `size` trials of k coordinates.

    One contiguous (coordinate, vector, trial) array (k, k+2, n) per sub-block
    of _QR_ROW_VALUES // (k+2) trials, in trial order (one empty block for no
    trials).  All are cut from one allocation, which the allocator keeps
    and reuses from block to block; separate sub-block arrays were handed
    back to the system and paged in afresh for every block.
    """
    step = _QR_ROW_VALUES // (k + 2)
    buffer = np.empty((size, k, k + 2))
    return [buffer[start:start + step].reshape(k, k + 2, -1) for start in range(0, max(size, 1), step)]


def _spans(blocks: list[np.ndarray]):
    """Each sub-block with the slice of the trials it holds."""
    start = 0
    for w in blocks:
        yield w, slice(start, start + w.shape[-1])
        start += w.shape[-1]


def _sample(dist: Distribution, rng: np.random.Generator, blocks: list[np.ndarray], vectors: int) -> None:
    """Draw `vectors` points of dist per trial into the columns w[:d+1, :vectors] of each block w.

    A point is written as the column (z, s), coordinates first and trials on
    the last axis, and the point is z/s.  z ~ N(0, I_d) and s >= 0: s = 1
    for the Gaussian; s^2 = |z|^2 + 2G with G ~ Gamma(beta+1) for the beta
    family, so |x|^2 ~ BetaLaw(d/2, beta+1) (Gamma(0) is 0, so beta = -1
    gives s = |z|, the sphere); s^2 = 2G with G ~ Gamma(beta-d/2) for
    beta_prime, so |x|^2 = V/(1-V) with V ~ BetaLaw(d/2, beta-d/2).  Nothing
    is divided, so a heavy tail gives a small s, or s = 0 (a point at
    infinity), never an infinite coordinate.

    The layout leaves the stream, and so every seeded count, as it was:
    first the normals, point j of trial t in row t*vectors + j, drawn one
    sub-block at a time into one reused buffer, then every gamma; |z|^2 is
    summed in the order of numpy's row sum.
    """
    d = dist.d
    normals = np.empty(max(w.shape[-1] for w in blocks) * vectors * d)
    for w in blocks:
        z = normals[: w.shape[-1] * vectors * d].reshape(-1, vectors, d)
        rng.standard_normal(out=z)
        points = w[: d + 1, :vectors]
        for j in range(vectors):  # 2-D transposes: 1.4 to 2.5 times as fast as one 3-D transpose at d >= 8
            points[:d, j] = z[:, j].T
        s = points[d]
        if dist.family == "gaussian":
            s[...] = 1.0
        elif dist.family == "beta":  # |z|^2 now, 2G once every normal is drawn
            _sum_of_squares(points[:d], s)
    if dist.family == "gaussian":
        return
    shape = _gamma_shape(dist)
    size = sum(w.shape[-1] for w in blocks)
    twice_gamma = rng.standard_gamma(shape, size=size * vectors).reshape(size, vectors)
    twice_gamma *= 2.0
    for w, trials in _spans(blocks):
        s = w[d, :vectors]
        if dist.family == "beta":
            s += twice_gamma[trials].T
            np.sqrt(s, out=s)
        else:
            np.sqrt(twice_gamma[trials].T, out=s)


def _gamma_shape(dist: Distribution) -> float:
    """The shape of `_sample`'s gamma draws G; OverflowBoundError where 2G overflows.

    A draw at a shape near the largest double equals the shape to double precision.
    """
    shape = dist.beta + 1.0 if dist.family == "beta" else dist.beta - 0.5 * dist.d
    if not math.isfinite(2.0 * shape):
        raise OverflowBoundError(f"Monte Carlo at beta = {dist.beta:g}: 2*Gamma({shape:g}) overflows double precision")
    return shape


def _sum_of_squares(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the sum of rows[i]**2 over the first axis to out, in numpy's pairwise order.

    numpy sums a contiguous axis of fewer than 8 terms in turn, up to 128
    terms as 8 interleaved partial sums, and longer ones as two halves, so
    out equals (z * z).sum(axis=-1) of the columns z, bit for bit, at every
    length, with the trials kept on the last axis.
    """
    n = len(rows)
    if n < 8:
        np.multiply(rows[0], rows[0], out=out)
        for row in rows[1:]:
            out += row * row
    elif n <= 128:
        partial = rows[:8] * rows[:8]
        for start in range(8, n - n % 8, 8):
            partial += rows[start:start + 8] * rows[start:start + 8]
        np.add((partial[0] + partial[1]) + (partial[2] + partial[3]),
               (partial[4] + partial[5]) + (partial[6] + partial[7]), out=out)
        for row in rows[n - n % 8:]:
            out += row * row
    else:
        half = n // 2 - n // 2 % 8
        np.add(_sum_of_squares(rows[:half], np.empty_like(out)),
               _sum_of_squares(rows[half:], np.empty_like(out)), out=out)
    return out


def _sample_lifted(dist: Distribution, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` points from dist as (count, d+1) rows (z, s) of `_sample`; the point is z/s."""
    columns = np.empty((dist.d + 1, 1, count))
    _sample(dist, rng, [columns], 1)
    return columns[:, 0].T


def _sample_points(dist: Distribution, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` points from dist as a (count, d) array: z/s of `_sample_lifted`."""
    lifted = _sample_lifted(dist, rng, count)
    return lifted[:, :-1] / lifted[:, -1:]


def sample_point(dist: Distribution, rng: np.random.Generator) -> np.ndarray:
    """One draw from dist using the supplied generator state (z/s, see `_sample`)."""
    return _sample_points(dist, rng, 1)[0]


def _lift(points) -> np.ndarray:
    """Affine points (..., d) as the lifted vectors (..., d+1) = (x, 1), in a fresh array."""
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise DomainError("point coordinates must be finite")
    return np.concatenate((points, np.ones(points.shape[:-1] + (1,))), axis=-1)


def _barycentric_batch(lifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients lam of the last lifted vector in the first d+1, by `_solve`.

    lifted: finite (N, d+2, d+1), left unchanged; it is copied one sub-block
    at a time into one work array of `_sub_blocks`, so a large batch costs
    no second copy of itself.  Returns (lam (N, d+1), degenerate (N,)).
    """
    n_trials, m, k = lifted.shape
    step = _QR_ROW_VALUES // (k + 2)
    lam = np.empty((k, n_trials))
    degenerate = np.empty(n_trials, dtype=bool)
    (work,) = _sub_blocks(k, min(step, n_trials))
    for start in range(0, n_trials, step):
        trials = slice(start, start + step)
        w = work[:, :, : min(step, n_trials - start)]
        for j in range(m):  # 2-D transposes: about twice as fast as one 3-D transpose at d = 20
            w[:, j] = lifted[trials, j].T
        lam[:, trials], degenerate[trials] = _solve([w])
    return lam.T, degenerate


def _solve(blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The one per-trial solve of every Monte Carlo caller, over the work arrays of `_sub_blocks`.

    Each block w holds, per trial, the first d+1 lifted vectors (the matrix a)
    and the last vector b as its first k+1 columns; it is overwritten.  Each
    coordinate is divided by its largest |value| in the trial, a positive
    diagonal map that keeps lam in a lam = b.  One Householder QR per trial
    then solves for lam and for a second right-hand side, a p = 1, which
    gives the condition estimate |a|_1 |p|_1 / (d+1).  Every step is one
    numpy operation along the trial axis and no step mixes two trials.
    Returns (lam (d+1, N), degenerate (N,)): rank-deficient (some |r_jj|
    within TAU_RANK of the largest, as in `_frame`), estimate above
    1/TAU_RANK, or lam not finite.
    """
    k = blocks[0].shape[0]
    size = sum(w.shape[-1] for w in blocks)
    lam = np.empty((k, size))
    degenerate = np.empty(size, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for w, trials in _spans(blocks):
            degenerate[trials] = _qr_solve(w, lam[:, trials])
    return lam, degenerate


def _qr_solve(w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Solve a lam = b and a p = 1 for w = [a | b | .], (k, k+2, trials), in place.

    Fills the last column with the ones, writes lam (k, trials) and returns
    the degenerate flags of `_solve`.  Sums over the short axes are
    accumulated row by row, in the same order for every trial.
    """
    k, _, size = w.shape
    w[:, k + 1] = 1.0
    scratch = np.empty((k + 1, size))
    # equilibrate each coordinate over the d+2 vectors; sum |a| down each column
    col_sums = np.zeros((k, size))
    for row in w:
        mag = np.abs(row[: k + 1], out=scratch)
        scale = np.maximum(mag.max(axis=0), np.finfo(float).tiny)
        row[: k + 1] /= scale
        mag[:k] /= scale
        col_sums += mag[:k]
    # d reflections: column j onto -alpha e_j, with v = x + alpha e_j in place of x
    diag = np.empty((k, size))
    for j in range(k - 1):
        x, rest = w[j:, j], w[j:, j + 1:]
        squares = x[0] * x[0]
        for xi in x[1:]:
            squares += xi * xi
        alpha = np.copysign(np.sqrt(squares), x[0])
        np.negative(alpha, out=diag[j])
        x[0] += alpha
        alpha *= x[0]  # v.v / 2
        product = scratch[: rest.shape[1]]
        dot = x[0] * rest[0]
        for xi, row in zip(x[1:], rest[1:]):
            dot += np.multiply(xi, row, out=product)
        dot /= alpha
        for xi, row in zip(x, rest):
            row -= np.multiply(xi, dot, out=product)
    diag[k - 1] = w[k - 1, k - 1]
    # back substitution, column by column, for both right-hand sides
    solution = w[:, k:]
    for i in range(k - 1, -1, -1):
        solution[i] /= diag[i]
        solution[:i] -= w[:i, i, None] * solution[i]
    lam[...] = solution[:, 0]
    p_sum = np.abs(solution[0, 1])
    for p_i in solution[1:, 1]:
        p_sum += np.abs(p_i)
    cond = col_sums.max(axis=0) * p_sum / k
    diag_size = np.abs(diag)
    rank_deficient = (diag_size <= TAU_RANK * diag_size.max(axis=0)).any(axis=0)
    return rank_deficient | ~np.isfinite(cond) | (cond > 1.0 / TAU_RANK) | ~np.isfinite(lam).all(axis=0)


def _closed_inside(coords: np.ndarray) -> np.ndarray:
    """Whether barycentric coordinates (k, ...), trials last, lie in the closed simplex."""
    return (coords >= -TAU_RANK * np.abs(coords).max(axis=0)).all(axis=0)


def _sign_rule(lam: np.ndarray, degenerate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trial (simplex, undecided) from the signs of sum_i lam_i v_i = v_last.

    A simplex has a singleton side: exactly one lam_i is positive (point i is
    inside the others' hull) or all are (the last point is).  A trial is
    decided only when every |lam_i| exceeds TAU_RANK times the largest.
    """
    coords = lam.T  # (d+1, N): trials on the last axis
    size = np.abs(coords)
    undecided = degenerate | (size <= TAU_RANK * size.max(axis=0)).any(axis=0)
    positive = np.count_nonzero(coords > 0, axis=0)
    return (positive == 1) | (positive == coords.shape[0]), undecided


def simplex_indicators(points: np.ndarray) -> np.ndarray:
    """Per-trial indicator that the d+2 points form a simplex.

    points: (N, d+2, d) with d >= 1; any other shape raises DomainError.  Raises
    DegenerateGeometryError when any trial is undecided: numerically
    rank-deficient, or with a point on a facet of the others' hull (callers
    doing Monte Carlo resample instead; this surface is for fixed, well-posed
    clouds).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] < 1 or points.shape[1] != points.shape[2] + 2:
        raise DomainError(f"expected clouds of shape (N, d+2, d), got {points.shape}")
    simplex, undecided = _sign_rule(*_barycentric_batch(_lift(points)))
    if undecided.any():
        raise DegenerateGeometryError(
            f"{int(undecided.sum())} of {simplex.size} trials are numerically degenerate"
        )
    return simplex


def is_inside_simplex(x: Sequence[float], vertices: Sequence[Sequence[float]]) -> bool:
    """Whether x lies in the closed simplex spanned by d+1 vertices in R^d.

    Boundary points count as inside, and a common positive scale of x and the
    vertices keeps the answer.  Raises DomainError for non-finite input and
    DegenerateGeometryError when `_barycentric_batch` finds the vertices degenerate.
    """
    x = np.asarray(x, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
    if x.ndim != 1 or vertices.shape != (x.size + 1, x.size):
        raise DomainError(f"need {x.size + 1} vertices in R^{x.size}, got shape {vertices.shape}")
    (lam,), (degenerate,) = _barycentric_batch(_lift(np.vstack((vertices, x)))[None])
    if degenerate:
        raise DegenerateGeometryError(
            f"vertices are affinely dependent: singular, or condition estimate above {1.0 / TAU_RANK:.1e}"
        )
    return bool(_closed_inside(lam))


def _estimate(mc: McConfig, draw: Callable[[np.random.Generator, int], tuple]) -> McResult:
    """Binomial estimate from draw(rng, size) -> per-trial (success, undecided).

    Undecided trials are resampled, which can move the estimate by the share
    resampled: more than sqrt(trials)/2 of them (trials times the largest binomial
    stderr) raises DegenerateGeometryError.  A pure function of (seed, trials).
    """
    limit = 0.5 * math.sqrt(mc.trials)

    def block(block_index: int, size: int) -> np.ndarray:
        rng = _block_generator(mc.seed, block_index)
        success, undecided = draw(rng, size)
        resampled = undecided.sum()
        while undecided.any() and resampled <= limit:
            redo = np.flatnonzero(undecided)
            success[redo], undecided[redo] = draw(rng, redo.size)
            resampled += undecided.sum()
        return np.array([success.sum(), resampled])

    successes, resampled = map(int, _run_blocks(mc, block))
    if resampled > limit:
        raise DegenerateGeometryError(
            f"{resampled} numerically undecided trials to resample, more than sqrt(trials)/2 = "
            f"{limit:.1f} of {mc.trials}: resampling could bias the estimate by over one stderr"
        )
    estimate = successes / mc.trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / mc.trials)
    return McResult(estimate, stderr, successes, mc.trials, mc.seed)


def estimate_sylvester(dist: Distribution, mc: McConfig) -> McResult:
    """Monte Carlo estimate of the simplex probability for dist: the sign rule on d+2 lifted points.

    Raises DomainError for d > 38, and OverflowBoundError where the point
    scale overflows, before any array exists.
    """
    d = dist.d
    _check_dimension(d, "dimension d")
    if dist.family != "gaussian":
        _gamma_shape(dist)

    def draw(rng: np.random.Generator, size: int):
        blocks = _sub_blocks(d + 1, size)
        _sample(dist, rng, blocks, d + 2)
        lam, degenerate = _solve(blocks)
        return _sign_rule(lam.T, degenerate)

    return _estimate(mc, draw)


def _frame(vectors: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """QR of vectors.T, q spanning the k rows; a |diag r| within TAU_RANK of the largest raises."""
    q, r = np.linalg.qr(vectors.T)
    diag = np.abs(np.diag(r))
    if diag.min() <= TAU_RANK * diag.max():
        raise DegenerateGeometryError(f"{what} are numerically dependent")
    return q, r


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
    # generator coordinates in a basis of the hull: one triangular solve per block
    _, r = _frame(cone.generators, "cone generators")
    k = r.shape[0]

    def draw(rng: np.random.Generator, size: int):
        directions = rng.standard_normal((size, k)).T
        norms = np.sqrt(_sum_of_squares(directions, np.empty(size)))
        coords = np.linalg.solve(r, directions / norms)
        return _closed_inside(coords), np.zeros(size, dtype=bool)

    return _estimate(mc, draw)


def projection_experiment(vertices: Sequence[Sequence[float]], mc: McConfig) -> McResult:
    """Probability that a uniform projection maps the last vertex inside.

    vertices: the n+1 points of an n-dimensional simplex (2 <= n <= 38), possibly
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
    _check_dimension(n, "simplex dimension n")
    if vertices.shape[1] < n:
        raise DomainError(f"{n + 1} vertices cannot span an {n}-simplex in R^{vertices.shape[1]}")
    edges = vertices[:n] - vertices[n]
    # intrinsic coordinates of the vertices; the last one sits at the origin
    q, _ = _frame(edges, "simplex vertices")
    coords = edges @ q  # (n, n)

    # per trial the lifted vertices (coords, 1), a direction (u, 0), and the
    # last vertex (0, 1), as the (coordinate, vector) columns of `_solve`: the
    # projected last vertex is inside when the coefficients of the vertices
    # lie in the closed simplex; only the direction is drawn per trial
    template = np.zeros((n + 1, n + 2, 1))
    template[:n, :n, 0] = coords.T
    template[n, :n, 0] = template[n, n + 1, 0] = 1.0

    def draw(rng: np.random.Generator, size: int):
        directions = rng.standard_normal((size, n))
        blocks = _sub_blocks(n + 1, size)
        for w, trials in _spans(blocks):
            w[:, : n + 2] = template
            w[:n, n] = directions[trials].T
        lam, degenerate = _solve(blocks)
        return _closed_inside(lam[:n]), degenerate

    return _estimate(mc, draw)
