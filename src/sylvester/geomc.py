"""Monte Carlo geometric oracle for simplex probabilities.

Independent of the quadrature route.  Every family samples its points in
homogeneous coordinates: a point x is carried as a positive multiple
(z, s) of its lifted vector (x, 1), with z standard normal and a scale s
that sets the law, so no coordinate is ever divided by a small number.
A trial cloud of d+2 points is a simplex exactly when one point lies in
the convex hull of the other d+1.  That is the sign pattern of the one
linear dependence among the d+2 lifted vectors in R^(d+1) (a singleton
side), which positive rescales keep (Stolfi, "Oriented Projective
Geometry", 1991).  With a = (Z; s_a) the first d+1 lifted vectors and
b = (z_b, s_b) the last, only s sets the law, so `_factor` factors a
trial's normals once for all its laws: it equilibrates them and factors Z
by one Householder QR along the vector axis, into its pivots, the min-norm
lam0 and p0 of Z lam0 = z_b and Z p0 = 1, and the unit null vector n of Z.
A law then costs O(d) in `_solve`: lam = lam0 + ((s_b - s_a.lam0)/t) n with
t = s_a.n.  Both run over a sub-block of trials at once, trials last, one
numpy operation per step and no step mixing two trials, for the simplex
test, its resample batches and the one-cloud surfaces; `estimate_sylvester`
is the one-law case of `estimate_sylvester_laws`.  The two lemma
estimators, the solid angle of a cone by uniform directions and the random
projection of a simplex, have one fixed matrix each (the cone's R^-1, the
simplex's lifted vertices); it is factored once per call, and each block's
directions go through it by one BLAS-free map, `_fixed_map`.  Undecided
trials are resampled by one loop, `_estimate`.

Three rules hold throughout.  A per-trial sum adds its terms left to right,
the same order for every trial.  A tolerance is TAU_RANK times the largest
|entry| of what it is compared with.  Each lemma estimator divides its input
by its largest |value| once, before any arithmetic (`_unit_scale`), so any
scaled copy of the input, from subnormals to the largest double, gets the
same answer.

Reproducibility contract: trials are processed in fixed-size blocks, and
block i draws its normals from Philox counters i << 128 on and its gammas
from (i << 128) + 2**127 on, keyed by the seed, so the estimate is a pure
function of (trials, seed), whatever the workers or sub-blocks that cut it.
Every law of one dimension reads the same normals; each law that draws
gammas (beta, beta-prime) opens its own copy of the gamma window, and no
other draw opens one.

Ownership rule: a call owns one sub-block per worker.  Before any of its
min(workers, blocks) workers runs, the calling thread allocates each one's
work slot (for the simplex test, one flat `_slot` of one sub-block for any
number of laws).  Each worker pulls blocks one at a time and runs each
block and resample batch one sub-block at a time: it draws, factors, solves
and classifies the sub-block in its slot and keeps only its success and
undecided flags.  The slots are freed when the call returns; nothing a draw
returns is a view of its slot.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DomainError,
    OverflowBoundError,
    SylvesterError,
    integer_count,
    real_array,
)
from .probability import Distribution

# trials per RNG block; fixed so results never depend on worker count
BLOCK_TRIALS = 1 << 14

# most trials a call can run: block i draws from Philox counters i << 128 on,
# and Philox counters stop below 2^256
MAX_TRIALS = BLOCK_TRIALS << 128

# block i's gammas start halfway through its Philox window, at (i << 128) + _SCALES_WINDOW
_SCALES_WINDOW = 1 << 127

# most worker threads a call starts: each holds one sub-block's work slot,
# allocated before any worker runs, 17 MB at d = 38
MAX_WORKERS = 64

# a sub-block holds _QR_ROW_VALUES // (d+3) trials, so a few rows of a worker's
# slot (`_rows`) fill a 2 MB L2 cache, and rows this long keep numpy's per-call
# cost, and the GIL hand-offs between workers, small; `_normals` and `_scales`
# stage their draws in at most _QR_ROW_VALUES values
_QR_ROW_VALUES = 49152

# largest dimension Monte Carlo accepts: it sees no success past d ~ 12 at any
# practical budget, and d+2 = 40 points is where quadrature stops too.
# projection_experiment keeps the same cap on n to match
_MAX_DIMENSION = 38

# rank / conditioning guard: a pivot within TAU_RANK of the largest rejects
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
        if self.trials > MAX_TRIALS:
            raise DomainError(
                "trials must be at most 2**142 (BLOCK_TRIALS << 128): block i draws from Philox "
                "counters i << 128 onwards, and Philox counters end at 2**256"
            )
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise DomainError(f"workers must be an integer in [1, {MAX_WORKERS}], got {self.workers!r}")


@dataclass(frozen=True)
class McResult:
    """Binomial estimate with its standard error."""

    estimate: float
    stderr: float
    successes: int
    trials: int
    seed: int


def _block_generator(seed: int, block_index: int, window: int = 0) -> np.random.Generator:
    # disjoint 2^128-state windows of one Philox stream per block, read from `window` on
    return np.random.Generator(np.random.Philox(key=seed, counter=(block_index << 128) + window))


def _check_dimension(d: int, what: str, reason: str) -> None:
    if d > _MAX_DIMENSION:
        raise DomainError(f"Monte Carlo accepts {what} <= {_MAX_DIMENSION}, got {d}: {reason}")


def _run_blocks(mc: McConfig, new_block: Callable[[], Callable[[int, int], object]]):
    """Sum of the count arrays block(index, size) over the blocks, one block function per worker.

    The calling thread calls new_block() once per worker, min(workers, blocks)
    times, before any worker starts, so a work slot it allocates lives outside
    the worker threads' arenas.  Each worker then pulls (index, size) pairs one
    at a time from one shared lazy iterator and adds up its own counts: the
    call holds at most one block's flags per worker, and no per-block list or future.
    """
    blocks = (mc.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    pairs = ((i, min(BLOCK_TRIALS, mc.trials - i * BLOCK_TRIALS)) for i in range(blocks))
    lock = threading.Lock()

    def work(block: Callable[[int, int], object]):
        total = 0
        while True:
            with lock:
                pair = next(pairs, None)
            if pair is None:
                return total
            total = total + block(*pair)

    workers = [new_block() for _ in range(min(mc.workers, blocks))]
    if len(workers) == 1:
        return work(workers[0])
    with ThreadPoolExecutor(max_workers=len(workers)) as pool:
        return sum(pool.map(work, workers))


def _rows(d: int) -> tuple[int, ...]:
    """Rows per trial of the parts of a `_Cloud` of dimension d, in slot order."""
    return max(d * (d + 2), 3 * d + 7), d + 2, d + 1, 3 * (d + 1), 2, max(2 * d - 1, d + 2, 6)


def _slot(d: int, size: int) -> np.ndarray:
    """One worker's empty flat work buffer for one sub-block of dimension d, or `size` trials if fewer."""
    return np.empty(min(_QR_ROW_VALUES // (d + 3), size) * sum(_rows(d)))


class _Cloud:
    """One sub-block of n trials in a slot's leading values, trials last: the arrays of `_factor` and `_solve`.

    z (d+2, d, n), the normals, points first, until `_factor` is done with them; then each law's s,
    coefficients (lam and p) and dots reuse its values.  squares: |z|^2; zsum: each point's sum of
    |z|; basis (d+1, 3, n): lam0, p0 and n; extremes: the least and largest pivot size.
    """

    def __init__(self, slot: np.ndarray, d: int, n: int):
        law, self.squares, self.zsum, basis, self.extremes, self.scratch = (
            slot[(end - size) * n: end * n].reshape(size, n) for size, end in zip(_rows(d), accumulate(_rows(d))))
        self.z, self.basis, self.s = law[: d * (d + 2)].reshape(d + 2, d, n), basis.reshape(d + 1, 3, n), law[: d + 2]
        self.coefficients, self.dots = law[d + 2: 3 * d + 4].reshape(d + 1, 2, n), law[3 * d + 4: 3 * d + 7]


def _work(slot: np.ndarray, d: int, size: int) -> Iterator[tuple[_Cloud, slice]]:
    """The `_Cloud`s of `size` trials, one of at most _QR_ROW_VALUES // (d+3) trials at a time, each until the next."""
    step = _QR_ROW_VALUES // (d + 3)
    for start in range(0, size, step):
        stop = min(start + step, size)
        yield _Cloud(slot, d, stop - start), slice(start, stop)


def _normals(normals: np.random.Generator, z: np.ndarray) -> None:
    """Fill z (vectors, d, trials) with standard normals: point j of trial t in row t*vectors + j of the stream.

    The rows go through one staging buffer of at most _QR_ROW_VALUES values
    (or one trial's).
    """
    vectors, d, size = z.shape
    chunk = max(1, _QR_ROW_VALUES // (vectors * d))  # trials per normal draw
    stage = np.empty(min(chunk, size) * vectors * d)
    for start in range(0, size, chunk):
        rows = stage[: min(chunk, size - start) * vectors * d].reshape(-1, vectors, d)
        normals.standard_normal(out=rows)
        for j in range(vectors):  # 2-D transposes: 1.4 to 2.5 times as fast as one 3-D transpose at d >= 8
            z[j, :, start:start + chunk] = rows[:, j].T


def _scales(dist: Distribution, scales: np.random.Generator | None, s: np.ndarray,
            squares: np.ndarray | None) -> None:
    """Fill s (vectors, trials) with the scales of points whose normals z have |z|^2 = squares (beta only).

    z ~ N(0, I_d) and s >= 0: s = 1 for the Gaussian; s^2 = |z|^2 + 2G with
    G ~ Gamma(beta+1) for the beta family, so |x|^2 ~ BetaLaw(d/2, beta+1)
    (Gamma(0) is 0, so beta = -1 gives s = |z|, the sphere); s^2 = 2G with
    G ~ Gamma(beta-d/2) for beta_prime, so |x|^2 = V/(1-V) with
    V ~ BetaLaw(d/2, beta-d/2).  Nothing is divided, so a heavy tail gives a
    small s, or s = 0 (a point at infinity), never an infinite coordinate.
    The gammas come from `scales` (None for the Gaussian, which reads none),
    one per point in the order of the normals, through one staging buffer of
    at most _QR_ROW_VALUES values (or one trial's), so the values depend only
    on where the two streams stand, not on how the trials are cut.
    """
    if dist.family == "gaussian":
        s[...] = 1.0
        return
    vectors, size = s.shape
    shape = _gamma_shape(dist)
    chunk = max(1, _QR_ROW_VALUES // vectors)  # trials per gamma draw
    stage = np.empty(min(chunk, size) * vectors)
    for start in range(0, size, chunk):
        twice_gamma = stage[: min(chunk, size - start) * vectors].reshape(-1, vectors)
        scales.standard_gamma(shape, out=twice_gamma)
        twice_gamma *= 2.0
        if dist.family == "beta":
            np.add(squares[:, start:start + chunk], twice_gamma.T, out=s[:, start:start + chunk])
        else:
            s[:, start:start + chunk] = twice_gamma.T
    np.sqrt(s, out=s)


def _gamma_shape(dist: Distribution) -> float:
    """The shape of `_scales`'s gamma draws G; OverflowBoundError where 2G overflows.

    A draw at a shape near the largest double equals the shape to double precision.
    """
    shape = dist.beta + 1.0 if dist.family == "beta" else dist.beta - 0.5 * dist.d
    if not math.isfinite(2.0 * shape):
        raise OverflowBoundError(f"Monte Carlo at beta = {dist.beta:g}: 2*Gamma({shape:g}) overflows double precision")
    return shape


def _sample_lifted(dist: Distribution, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` points from dist as (count, d+1) rows (z, s), every normal then every gamma; the point is z/s."""
    lifted = np.empty((dist.d + 1, count))
    _normals(rng, z := lifted[None, : dist.d])
    _scales(dist, rng, lifted[None, dist.d], np.cumsum(z * z, axis=1)[:, -1])
    return lifted.T


def _sample_points(dist: Distribution, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` points from dist as a (count, d) array: z/s of `_sample_lifted`.

    Raises OverflowBoundError where a coordinate is not finite: near the
    beta-prime threshold the scale s underflows to 0.
    """
    lifted = _sample_lifted(dist, rng, count)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        points = lifted[:, :-1] / lifted[:, -1:]
    if not np.isfinite(points).all():
        raise OverflowBoundError(
            f"{dist.family} point at beta = {dist.beta!r}: its scale s underflows to 0, "
            "so a coordinate z/s is not finite"
        )
    return points


def sample_point(dist: Distribution, rng: np.random.Generator) -> np.ndarray:
    """One draw from dist using the supplied generator state (z/s, see `_scales`)."""
    if not isinstance(rng, np.random.Generator):
        raise DomainError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    return _sample_points(dist, rng, 1)[0]


def _finite_array(values, what: str) -> np.ndarray:
    """values as a float array; DomainError, naming `what`, if they are ragged, not numbers or not finite."""
    message = f"need {what}: a rectangular array of finite numbers"
    array = real_array(values, message)
    if not np.isfinite(array).all():
        raise DomainError(message)
    return array


def _lift(points: np.ndarray) -> np.ndarray:
    """Affine points (..., d) as the lifted vectors (..., d+1) = (x, 1), in a fresh array."""
    return np.concatenate((points, np.ones(points.shape[:-1] + (1,))), axis=-1)


def _barycentric_batch(lifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients lam (N, d+1) of the last lifted vector in the first d+1, and degenerate (N,).

    lifted: finite (N, d+2, d+1) with last coordinates s >= 0, left unchanged; it goes one sub-block
    at a time through one slot of a sub-block, so a large batch costs no second copy of itself.
    """
    n_trials, _, k = lifted.shape
    lam, degenerate = np.empty((k, n_trials)), np.empty(n_trials, dtype=bool)
    for cloud, trials in _work(_slot(k - 1, n_trials), k - 1, n_trials):
        cloud.z[...] = lifted[trials, :, :-1].transpose(1, 2, 0)
        _factor(cloud, squares=False)
        cloud.s[...] = lifted[trials, :, -1].T
        lam[:, trials], degenerate[trials] = _solve(cloud)
    return lam.T, degenerate


def _dot(a: np.ndarray, v: np.ndarray, out: np.ndarray, product: np.ndarray) -> np.ndarray:
    """out = the sum over l of v[l] * a[l], its terms added left to right; product has out's shape."""
    np.multiply(a[0], v[0], out=out)
    for a_l, v_l in zip(a[1:], v[1:]):
        out += np.multiply(a_l, v_l, out=product)
    return out


def _reflect(a: np.ndarray, v: np.ndarray, half: np.ndarray, dot: np.ndarray, product: np.ndarray) -> None:
    """Apply I - v v^T / half, half = v.v / 2, to a (m, r, n) along its first axis, in place; dot is (r, n)."""
    _dot(a, v, dot, product)
    dot /= half
    for a_l, v_l in zip(a, v):
        a_l -= np.multiply(v_l, dot, out=product)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _factor(cloud: _Cloud, squares: bool) -> None:
    """The part of the solve that a cloud's laws share: its normals z, factored once (|z|^2 first if `squares`).

    Each coordinate is divided by its largest |value| over the d+2 points.  Householder reflections
    H_j along the vector axis factor Z, the first d+1 points: Z H_0 ... H_{d-1} = (L 0), with v_j
    over row j of Z, L below it, and v_j.v_j / 2 over z_b once z_b is in cloud.basis.  L y = z_b and
    L y = 1 are solved as L's columns come, and H_0 ... H_{d-1} applied to (y, 0) for both and to
    e_d give cloud.basis: lam0, p0 and the unit null vector n of Z.
    """
    z, basis, scratch, (low, high) = cloud.z, cloud.basis, cloud.scratch, cloud.extremes
    d, n = z.shape[1:]
    free = basis.reshape(-1, n)  # scratch until the basis is set up
    if squares:
        _dot(z.swapaxes(0, 1), z.swapaxes(0, 1), cloud.squares, free[: d + 2])
    top, bottom = np.max(z, axis=0, out=free[:d]), np.min(z, axis=0, out=free[d: 2 * d])
    z /= np.maximum(np.maximum(top, np.negative(bottom, out=bottom), out=top), np.finfo(float).tiny, out=top)
    np.abs(z[: d + 1, 0], out=cloud.zsum)
    for c in range(1, d):
        cloud.zsum += np.abs(z[: d + 1, c], out=free[: d + 1])
    basis[...], low[...], high[...] = 0.0, np.inf, 0.0
    basis[:d, 0], basis[:d, 1], basis[d, 2] = z[d + 1], 1.0, 1.0
    alpha, half = scratch[-1], z[d + 1]
    for j in range(d):
        x, r = z[j: d + 1, j], d - 1 - j
        np.sqrt(_dot(x, x, alpha, scratch[0]), out=alpha)  # |L_jj|
        np.minimum(low, alpha, out=low)
        np.maximum(high, alpha, out=high)
        np.copysign(alpha, x[0], out=alpha)  # x goes onto -alpha e_0, so L_jj = -alpha
        x[0] += alpha  # v_j = x + alpha e_0
        np.multiply(alpha, x[0], out=half[j])
        y = np.divide(basis[j, :2], np.negative(alpha, out=alpha), out=basis[j, :2])
        if r:
            _reflect(z[j: d + 1, j + 1:], x, half[j], scratch[:r], scratch[r: 2 * r])  # column j of L in row j of z
            basis[j + 1: d, :2] -= np.multiply(z[j, j + 1:, None], y, out=scratch[: 2 * r].reshape(r, 2, n))
    for j in range(d - 1, -1, -1):
        _reflect(basis[j:], z[j: d + 1, j], half[j], scratch[:3], scratch[3:6])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _solve(cloud: _Cloud) -> tuple[np.ndarray, np.ndarray]:
    """One law's solve after `_factor`, O(d) a trial: (lam (d+1, N), a view of the cloud, degenerate (N,)).

    cloud.s holds the law's scales s >= 0, each point a positive multiple of its lifted vector (or at
    infinity); it is divided by its largest value.  With t = s_a.n, lam = lam0 + ((s_b - s_a.lam0)/t) n
    solves a lam = b, and p = p0 + ((1 - s_a.p0)/t) n solves a p = 1.  A trial is degenerate when some
    pivot of a (diag L and t) is within TAU_RANK of the largest in size, as in `_frame`, when its
    condition estimate |a|_1 |p|_1 / (d+1) is above 1/TAU_RANK, or when lam is not finite.
    """
    s, basis, scratch, (low, high) = cloud.s, cloud.basis, cloud.scratch, cloud.extremes
    k, norm = len(basis), scratch[-1]
    s /= np.maximum(np.max(s, axis=0, out=norm), np.finfo(float).tiny, out=norm)
    np.max(np.add(s[:k], cloud.zsum, out=scratch[:k]), axis=0, out=norm)  # |a|_1
    dots = _dot(basis, s[:k], cloud.dots, scratch[:3])  # s_a.lam0, s_a.p0, t
    np.subtract(s[k], dots[0], out=dots[0])
    np.subtract(1.0, dots[1], out=dots[1])
    dots[:2] /= dots[2]
    coefficients = np.multiply(basis[:, 2:], dots[:2], out=cloud.coefficients)
    coefficients += basis[:, :2]
    lam, p = coefficients[:, 0], np.abs(coefficients[:, 1], out=coefficients[:, 1])
    for p_i in p[1:]:
        p[0] += p_i
    size = np.abs(dots[2], out=scratch[0])  # the pivots of a are diag L and t
    rank_deficient = np.minimum(low, size, out=scratch[1]) <= TAU_RANK * np.maximum(high, size, out=scratch[2])
    cond = norm * p[0] / k  # >= 0 or NaN: it passes only when finite and at most 1/TAU_RANK
    return lam, rank_deficient | ~(cond <= 1.0 / TAU_RANK) | ~np.isfinite(lam).all(axis=0)


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

    points: finite (N, d+2, d) with d >= 1; anything else raises
    DomainError.  Raises DegenerateGeometryError when any trial is undecided:
    numerically rank-deficient, or with a point on a facet of the others'
    hull (callers doing Monte Carlo resample instead; this surface is for
    fixed, well-posed clouds).
    """
    points = _finite_array(points, "clouds of shape (N, d+2, d)")
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
    vertices keeps the answer.  Raises DomainError for ragged, non-numeric or
    non-finite input and for d < 1, and DegenerateGeometryError when
    `_barycentric_batch` finds the vertices degenerate.
    """
    x = _finite_array(x, "a point x in R^d")
    vertices = _finite_array(vertices, "d+1 vertices in R^d")
    if x.ndim != 1 or x.size < 1:
        raise DomainError(f"x must be a point in R^d with d >= 1, got shape {x.shape}")
    if vertices.shape != (x.size + 1, x.size):
        raise DomainError(f"need {x.size + 1} vertices in R^{x.size}, got shape {vertices.shape}")
    (lam,), (degenerate,) = _barycentric_batch(_lift(np.vstack((vertices, x)))[None])
    if degenerate:
        raise DegenerateGeometryError(
            f"vertices are affinely dependent: singular, or condition estimate above {1.0 / TAU_RANK:.1e}"
        )
    return bool(_closed_inside(lam))


def _estimate(mc: McConfig, new_draw: Callable[[], Callable[..., list]], gammas: Sequence[bool] = (False,)) -> list:
    """Binomial estimates of one or more laws that read one normals stream: an McResult or its error per law.

    draw(normals, laws, size) runs the (law, scales) pairs of `laws` on `size`
    trials and gives each its fresh (success, undecided) arrays; new_draw()
    gives one worker its draw, and `_run_blocks` calls it in the calling
    thread, once per worker.  Block i reads its normals window, and law j's
    scales window if gammas[j] says that law draws gammas (else its scales are
    None).  Each law resamples its own undecided trials from its own scales
    and from the normals where the block's pass left them, so its count is the
    one it gets alone.  More than sqrt(trials)/2 resampled trials of a law
    (trials times the largest binomial stderr) make its result a
    DegenerateGeometryError.  A pure function of (seed, trials).
    """
    limit = 0.5 * math.sqrt(mc.trials)

    def new_block():
        draw = new_draw()

        def block(block_index: int, size: int) -> np.ndarray:
            normals = _block_generator(mc.seed, block_index)
            laws = [(law, _block_generator(mc.seed, block_index, _SCALES_WINDOW) if gamma else None)
                    for law, gamma in enumerate(gammas)]
            flags = draw(normals, laws, size)
            after = normals.bit_generator.state if len(laws) > 1 else None
            counts = np.empty((len(laws), 2), dtype=np.int64)
            for (law, scales), (success, undecided) in zip(laws, flags):
                resampled = undecided.sum()
                if after is not None and undecided.any():
                    normals = _block_generator(mc.seed, block_index)
                    normals.bit_generator.state = after
                while undecided.any() and resampled <= limit:
                    redo = np.flatnonzero(undecided)
                    (success[redo], undecided[redo]), = draw(normals, [(law, scales)], redo.size)
                    resampled += undecided.sum()
                counts[law] = success.sum(), resampled
            return counts

        return block

    results = []
    for successes, resampled in _run_blocks(mc, new_block).tolist():
        if resampled > limit:
            results.append(DegenerateGeometryError(
                f"{resampled} numerically undecided trials to resample, more than sqrt(trials)/2 = "
                f"{limit:.1f} of {mc.trials}: resampling could bias the estimate by over one stderr"
            ))
            continue
        estimate = successes / mc.trials
        stderr = math.sqrt(estimate * (1.0 - estimate) / mc.trials)
        results.append(McResult(estimate, stderr, successes, mc.trials, mc.seed))
    return results


def _only(results: list) -> McResult:
    """The one law's McResult, or its error raised."""
    (result,) = results
    if isinstance(result, SylvesterError):
        raise result
    return result


def estimate_sylvester(dist: Distribution, mc: McConfig) -> McResult:
    """Monte Carlo estimate of the simplex probability for dist: the sign rule on d+2 lifted points.

    Raises DomainError for d > 38, and OverflowBoundError where the point
    scale overflows, before any array exists.  The one-law case of
    `estimate_sylvester_laws`.
    """
    return _only(estimate_sylvester_laws([dist], mc))


def estimate_sylvester_laws(dists: Sequence[Distribution], mc: McConfig) -> list:
    """`estimate_sylvester` for laws of one dimension d, from one draw of their normals.

    Returns one entry per law, in order: its McResult, or the typed error
    that `estimate_sylvester` would raise for it alone (OverflowBoundError for
    its scale, DegenerateGeometryError past its resample limit); each count is
    bit for bit the one `estimate_sylvester` gives.  Raises DomainError for
    no laws, laws of two dimensions, or d > 38.  Each sub-block's normals are
    drawn and factored once in a worker's one `_slot` (|z|^2 first if a beta
    law needs it); each law then draws its scales there and solves in O(d).
    """
    dims = {dist.d for dist in dists}
    if len(dims) != 1:
        raise DomainError(f"need laws of one dimension, got dimensions {sorted(dims)}")
    (d,) = dims
    _check_dimension(d, "dimension d", "it sees no success past d ~ 12 at any practical budget, "
                     "and quadrature stops at d+2 = 40 points")
    results, live = [], []
    for dist in dists:
        try:
            if dist.family != "gaussian":
                _gamma_shape(dist)
        except OverflowBoundError as exc:
            results.append(exc)
        else:
            results.append(None)
            live.append(dist)

    def new_draw():
        slot = _slot(d, mc.trials)

        def draw(normals: np.random.Generator, laws: list, size: int) -> list:
            flags = [(np.empty(size, dtype=bool), np.empty(size, dtype=bool)) for _ in laws]
            for cloud, trials in _work(slot, d, size):
                _normals(normals, cloud.z)
                _factor(cloud, squares=any(live[law].family == "beta" for law, _ in laws))
                for (law, scales), (success, undecided) in zip(laws, flags):
                    _scales(live[law], scales, cloud.s, cloud.squares)
                    lam, degenerate = _solve(cloud)
                    success[trials], undecided[trials] = _sign_rule(lam.T, degenerate)
            return flags

        return draw

    if live:
        estimates = iter(_estimate(mc, new_draw, [dist.family != "gaussian" for dist in live]))
        results = [next(estimates) if result is None else result for result in results]
    return results


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
        generators = _finite_array(self.generators, "a (k, m) array of cone generators")
        if generators.ndim != 2:
            raise DomainError("generators must form a (k, m) array")
        k, m = generators.shape
        if not 1 <= k <= m:
            raise DomainError(f"need 1 <= k <= m generators, got k={k}, m={m}")
        object.__setattr__(self, "generators", generators)


def _unit_scale(values: np.ndarray) -> np.ndarray:
    """values divided by their largest |value| (all-zero values unchanged): a lemma input's one rescale."""
    return values / (np.abs(values).max() or 1.0)


def _fixed_map(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix applied to every trial of vectors (k, N), trials last: a fresh C-ordered (m, N) array.

    matrix is a small fixed (m, k) array.  Each entry adds its k products left
    to right, the same order for every trial, so no BLAS kernel decides a bit.
    Products with an exact zero (a triangular R^-1 has them) add nothing, so
    they are skipped, which leaves every value as it was.
    """
    out = np.zeros((matrix.shape[0], vectors.shape[-1]))
    product = np.empty(vectors.shape[-1])
    for row, total in zip(matrix, out):
        terms = [(entry, vector) for entry, vector in zip(row, vectors) if entry]
        if terms:
            np.multiply(*terms[0], out=total)
        for entry, vector in terms[1:]:
            total += np.multiply(entry, vector, out=product)
    return out


def estimate_cone_angle(cone: SimplicialCone, mc: McConfig) -> McResult:
    """Monte Carlo estimate of the solid angle of a simplicial cone.

    The angle is the fraction of the unit ball of the cone's linear hull
    covered by the cone: sample uniform directions in that hull and test
    membership through the generator coordinates.  The frame is factored
    once per call: a direction's generator coordinates are R^-1 applied to
    it, with R from the QR of the unit-scaled generators, by `_fixed_map`.
    The directions are not normalised: `_closed_inside` is relative, so a
    ray's length does not change its answer.
    """
    _, r = _frame(_unit_scale(cone.generators), "cone generators")
    k = r.shape[0]
    inverse = np.linalg.inv(r)

    def draw(rng: np.random.Generator, _laws: list, size: int):
        directions = np.ascontiguousarray(rng.standard_normal((size, k)).T)
        return [(_closed_inside(_fixed_map(inverse, directions)), np.zeros(size, dtype=bool))]

    return _only(_estimate(mc, lambda: draw))


def projection_experiment(vertices: Sequence[Sequence[float]], mc: McConfig) -> McResult:
    """Probability that a uniform projection maps the last vertex inside.

    vertices: the n+1 points of an n-dimensional simplex (2 <= n <= 38), possibly
    embedded in a higher-dimensional space; the experiment runs inside the
    simplex's affine hull, where the identity is non-trivial.  Per trial,
    draw U uniform on the hull's unit sphere, project everything onto the
    hyperplane orthogonal to U, and test whether the projected last vertex
    lands in the convex hull of the projected others.  The limit is twice
    the solid angle of the simplex at that vertex.

    The vertices are divided by their largest |value| before the edges are
    formed, so that any scaled copy of the simplex gets the same answer.  In
    intrinsic coordinates c_i, divided again by their largest |value|, with
    the last vertex at the origin, a trial solves L lam + mu (u, 0) = e_last
    for the lifted vertices L = [(c_i, 1)]: the last vertex is inside when
    lam lies in the closed simplex.  L is factored once per call, into the
    unit normal q of its span and its pseudo-inverse L+, so a trial costs one
    `_fixed_map`: mu = q_last / t with t = q.(u, 0), and lam = L+ e_last -
    mu L+ (u, 0).  A trial is undecided when |t| <= TAU_RANK max|u_i| (the
    system is within TAU_RANK of singular) or lam is not finite.  This is the system `_solve`
    would solve per trial, not a test of U against the vertex cone, so the
    identity check stays independent of `estimate_cone_angle`.
    """
    vertices = _finite_array(vertices, "a 2-d array of simplex vertices")
    if vertices.ndim != 2 or vertices.shape[0] < 2:
        raise DomainError(f"need a 2-d array of simplex vertices, got shape {vertices.shape}")
    n = vertices.shape[0] - 1  # intrinsic simplex dimension
    if n < 2:
        raise DomainError("a 1-dimensional simplex would project onto a point; need n >= 2")
    _check_dimension(n, "simplex dimension n", "the projection keeps the simplex test's cap")
    if vertices.shape[1] < n:
        raise DomainError(f"{n + 1} vertices cannot span an {n}-simplex in R^{vertices.shape[1]}")
    vertices = _unit_scale(vertices)
    edges = vertices[:n] - vertices[n]
    q, _ = _frame(edges, "simplex vertices")
    coords = edges @ q  # (n, n): row i holds c_i
    coords /= np.abs(coords).max()
    basis, r = np.linalg.qr(np.vstack((coords.T, np.ones(n))), mode="complete")
    normal = basis[:, n]
    pinv = np.linalg.inv(r[:n]) @ basis[:, :n].T  # (n, n+1)
    # row 0 gives t, rows 1.. give L+ (u, 0)
    fixed = np.vstack((normal[:n], pinv[:, :n]))
    offset = pinv[:, n:]

    def draw(rng: np.random.Generator, _laws: list, size: int):
        directions = np.ascontiguousarray(rng.standard_normal((size, n)).T)
        mapped = _fixed_map(fixed, directions)
        t, lam = mapped[0], mapped[1:]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lam *= -normal[n] / t
            lam += offset
        undecided = np.abs(t) <= TAU_RANK * np.abs(directions).max(axis=0)
        return [(_closed_inside(lam), undecided | ~np.isfinite(lam).all(axis=0))]

    return _only(_estimate(mc, lambda: draw))
