"""Monte Carlo oracle tests: sampling laws, hull tests, reproducibility."""

import dataclasses
import json
import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sylvester import geomc
from sylvester.errors import DegenerateGeometryError, DomainError, OverflowBoundError
from sylvester.geomc import (
    BLOCK_TRIALS,
    MAX_TRIALS,
    MAX_WORKERS,
    McConfig,
    SimplicialCone,
    _barycentric_batch,
    _block_generator,
    _lift,
    _sample_lifted,
    _sample_points,
    _sign_rule,
    _slot,
    _work,
    estimate_cone_angle,
    estimate_sylvester,
    estimate_sylvester_laws,
    is_inside_simplex,
    projection_experiment,
    sample_point,
    simplex_indicators,
)
from sylvester.probability import Distribution

J4_REGULAR = 0.5 - (3.0 / math.pi) * math.asin(1.0 / 3.0)
J5_REGULAR = 0.25 - (5.0 / (2.0 * math.pi)) * math.asin(0.25)

# two-sided asymptotic Kolmogorov-Smirnov critical value at the 0.1% level
KS_CRITICAL = 1.9495

# common scales of a cloud: every decision is invariant under them
SCALES = (1.0, 1e12, 1e-300, 1e300)

# a coordinate at any scale 1e-300 ... 1e300, or not finite
COORDINATE = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


def _rng(seed=123, window=0):
    return _block_generator(seed, 0, window)


def _exact_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for j in range(len(m)):
        pivot = next((i for i in range(j, len(m)) if m[i][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            m[j], m[pivot], det = m[pivot], m[j], -det
        det *= m[j][j]
        for i in range(j + 1, len(m)):
            factor = m[i][j] / m[j][j]
            m[i] = [x - factor * y for x, y in zip(m[i], m[j])]
    return det


def _exact_signs(trial) -> np.ndarray:
    """Exact signs of lam in sum_i lam_i v_i = v_last, from the maximal minors of the lifted vectors.

    c_i = (-1)^i det(V without row i) spans the dependence sum_i c_i v_i = 0,
    so lam_i = -c_i / c_last.
    """
    rows = trial.tolist()
    minors = [(-1) ** i * _exact_det(rows[:i] + rows[i + 1:]) for i in range(len(rows))]
    return np.array([-np.sign(c) * np.sign(minors[-1]) for c in minors[:-1]], dtype=float)


def _reference_rows(dist, normals, scales, count) -> np.ndarray:
    """(count, d+1) rows (z, s) by the row formula: every normal, then every gamma, a running row sum."""
    d = dist.d
    z = normals.standard_normal((count, d))
    if dist.family == "gaussian":
        s = np.ones(count)
    elif dist.family == "beta":
        s = np.sqrt(np.cumsum(z * z, axis=1)[:, -1] + 2.0 * scales.standard_gamma(dist.beta + 1.0, size=count))
    else:
        s = np.sqrt(2.0 * scales.standard_gamma(dist.beta - 0.5 * d, size=count))
    return np.column_stack((z, s))


def _reference_draw(dist):
    """A draw of `_estimate` for the simplex test: `_reference_rows` through `_barycentric_batch`."""
    def draw(normals, scales, size):
        rows = _reference_rows(dist, normals, scales, size * (dist.d + 2))
        return _sign_rule(*_barycentric_batch(rows.reshape(size, dist.d + 2, dist.d + 1)))

    return draw


def _reference_successes(mc, draw) -> int:
    """Successes of `_estimate`'s resampling loop, run block by block in the test.

    Block i's normals window starts at Philox counter i << 128, its scales window halfway through.
    """
    successes = 0
    for index, start in enumerate(range(0, mc.trials, BLOCK_TRIALS)):
        normals = _block_generator(mc.seed, index)
        scales = _block_generator(mc.seed, index, 2**127)
        success, undecided = draw(normals, scales, min(BLOCK_TRIALS, mc.trials - start))
        while undecided.any():
            redo = np.flatnonzero(undecided)
            success[redo], undecided[redo] = draw(normals, scales, redo.size)
        successes += int(success.sum())
    return successes


def _closed_inside_rows(coords) -> np.ndarray:
    """Whether rows of barycentric coordinates (N, k) lie in the closed simplex."""
    return (coords >= -geomc.TAU_RANK * np.abs(coords).max(axis=1, keepdims=True)).all(axis=1)


# every family, with the sphere (beta = -1) and beta-prime just above its threshold (some s = 0)
FAMILIES = (("gaussian", lambda d: None), ("beta", lambda d: 0.0), ("beta", lambda d: -1.0),
            ("beta", lambda d: 2.5), ("beta_prime", lambda d: 0.5 * d + 1.0),
            ("beta_prime", lambda d: 0.5 * d + 0.01))


class TestSampling:
    @pytest.mark.parametrize("rng", [None, np.random.RandomState(1), 7], ids=["None", "RandomState", "int"])
    def test_point_needs_a_generator(self, rng):
        # None raised a raw AttributeError, a RandomState a TypeError from its standard_normal
        with pytest.raises(DomainError, match=r"rng must be a numpy\.random\.Generator"):
            sample_point(Distribution("gaussian", 3), rng)
        assert sample_point(Distribution("gaussian", 3), _rng()).shape == (3,)

    def test_beta_support(self):
        pts = _sample_points(Distribution("beta", 3, 0.5), _rng(), 100_000)
        assert (np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12).all()

    def test_sphere_limit_radius(self):
        pts = _sample_points(Distribution("beta", 3, -1.0), _rng(), 10_000)
        assert np.linalg.norm(pts, axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_beta_mean_square_radius(self):
        # E|X|^2 = 1/2 for the uniform disk: R^2 ~ BetaLaw(1, 1)
        r2 = np.sum(_sample_points(Distribution("beta", 2, 0.0), _rng(), 200_000) ** 2, axis=1)
        tolerance = 4.0 * r2.std() / math.sqrt(r2.size)
        assert abs(r2.mean() - 0.5) <= tolerance

    def test_beta_prime_mean_square_radius(self):
        # E[V/(1-V)] = 1 for V ~ BetaLaw(1, 2)
        r2 = np.sum(_sample_points(Distribution("beta_prime", 2, 3.0), _rng(), 200_000) ** 2, axis=1)
        tolerance = 4.0 * r2.std() / math.sqrt(r2.size)
        assert abs(r2.mean() - 1.0) <= tolerance

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0])
    def test_radial_law(self, d, beta):
        n = 100_000
        pts = _sample_points(Distribution("beta", d, beta), _rng(), n)
        r2 = np.sum(pts * pts, axis=1)
        statistic = stats.kstest(r2, stats.beta(0.5 * d, beta + 1.0).cdf).statistic
        assert statistic < KS_CRITICAL / math.sqrt(n)

    def test_gaussian_moments(self):
        pts = _sample_points(Distribution("gaussian", 3, None), _rng(), 200_000)
        assert abs(pts.mean()) <= 4.0 / math.sqrt(pts.size)
        assert pts.var() == pytest.approx(1.0, abs=0.02)

    def test_single_point_surface(self):
        point = sample_point(Distribution("beta", 4, 2.0), _rng())
        assert point.shape == (4,)
        assert np.linalg.norm(point) <= 1.0

    def test_no_points(self):
        for family, beta in FAMILIES:
            assert _sample_points(Distribution(family, 3, beta(3)), _rng(), 0).shape == (0, 3), family

    def test_beta_prime_lifted_rows_stay_finite_at_the_threshold(self):
        # s^2 = 2 Gamma(1e-6) underflows to 0 for most draws: points at infinity, no inf or NaN
        lifted = _sample_lifted(Distribution("beta_prime", 2, 1.0 + 1e-6), _rng(), 10_000)
        assert lifted.shape == (10_000, 3)
        assert np.isfinite(lifted).all() and (lifted[:, 2] >= 0.0).all()
        assert (lifted[:, 2] == 0.0).any()

    @pytest.mark.parametrize("d, beta", [(2, 1.0 + 1e-9), (3, 1.5 + 1e-6)])
    def test_point_with_an_underflowed_scale_is_refused(self, d, beta):
        # s^2 = 2 Gamma(beta - d/2) underflows to 0, so z/s is not finite: refused, not [inf, -inf]
        with pytest.raises(OverflowBoundError, match=re.escape(f"beta_prime point at beta = {beta!r}")):
            sample_point(Distribution("beta_prime", d, beta), np.random.Generator(np.random.Philox(1)))

    def test_directions_are_uniform(self):
        pts = _sample_points(Distribution("beta", 2, -1.0), _rng(), 100_000)
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        statistic = stats.kstest(angles, stats.uniform(-math.pi, 2 * math.pi).cdf).statistic
        assert statistic < KS_CRITICAL / math.sqrt(pts.shape[0])

    @pytest.mark.parametrize("d", [*range(1, 13), 20, 38])
    def test_layout_holds_the_row_formula(self, d):
        # byte for byte, with |z|^2 summed by rows left to right (numpy's running sum):
        # two sub-blocks and a short third one, each drawn as a Monte Carlo draw does
        # it into the `_Cloud` of one slot of a sub-block (the normals, then the
        # factorization, which takes |z|^2 before it overwrites them, then the scales),
        # normals and scales each read on from where the last sub-block left its stream
        step = geomc._QR_ROW_VALUES // (d + 3)
        size = 2 * step + 37
        for family, beta in FAMILIES:
            if d == 1 and beta(d) == -1.0:
                continue  # the sphere needs d >= 2
            dist = Distribution(family, d, beta(d))
            expected = _reference_rows(dist, _rng(60 + d), _rng(60 + d, 2**127), size * (d + 2)).tobytes()
            slot = _slot(d, size)
            assert slot.size == step * sum(geomc._rows(d))
            normals, scales = _rng(60 + d), _rng(60 + d, 2**127)
            spans, rows = [], []
            for cloud, trials in _work(slot, d, size):
                z = cloud.z
                assert z.base is slot and z.flags.c_contiguous and z.shape == (d + 2, d, trials.stop - trials.start)
                geomc._normals(normals, z)
                drawn = z.copy()
                geomc._factor(cloud, family == "beta")
                geomc._scales(dist, scales, cloud.s, cloud.squares)
                spans.append(trials)
                rows.append(np.concatenate((drawn, cloud.s[:, None]), axis=1).transpose(2, 0, 1).reshape(-1, d + 1))
            assert spans == [slice(0, step), slice(step, 2 * step), slice(2 * step, size)]
            rows = np.concatenate(rows)
            assert rows.tobytes() == expected, (family, d)
            if family == "beta_prime" and beta(d) < 0.5 * d + 0.1:
                assert (rows[:, d] == 0.0).any()
            # the public samplers read one generator: every normal, then every gamma
            lifted = _sample_lifted(dist, _rng(60 + d), 1_000)
            rng = _rng(60 + d)
            assert lifted.tobytes() == _reference_rows(dist, rng, rng, 1_000).tobytes(), (family, d)


class TestInsideSimplex:
    TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

    def test_interior(self):
        for c in SCALES:
            vertices, x = c * np.array(self.TRIANGLE), (0.25 * c, 0.25 * c)
            assert is_inside_simplex(x, vertices), c
            assert simplex_indicators(np.vstack((vertices, x))[None]).tolist() == [True], c

    def test_exterior(self):
        for c in SCALES:
            vertices, x = c * np.array(self.TRIANGLE), (c, c)
            assert not is_inside_simplex(x, vertices), c
            assert simplex_indicators(np.vstack((vertices, x))[None]).tolist() == [False], c

    def test_vertex_counts_as_inside(self):
        assert is_inside_simplex((0.0, 0.0), self.TRIANGLE)

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            is_inside_simplex((0.5, 0.5), [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            is_inside_simplex((0.5, 0.5), [(0.0, 0.0), (1.0, 0.0)])
        # ragged vertices, and string entries in the vertices or the point
        for x, vertices in (([0.1, 0.1], [[0, 0], [1, 0], [0]]), ([0.1, 0.1], [["a", "b"]] * 3),
                            (["a", 0.1], self.TRIANGLE)):
            with pytest.raises(DomainError, match="rectangular array of finite numbers"):
                is_inside_simplex(x, vertices)
        # a point in R^0, under the d >= 1 rule of simplex_indicators
        with pytest.raises(DomainError, match="d >= 1"):
            is_inside_simplex([], [[]])


def _refuse_work_arrays(monkeypatch):
    """Make any Monte Carlo block allocation fail the test."""
    def refuse(k, size):
        raise AssertionError(f"a work array of {size} trials was allocated at k = {k}")

    monkeypatch.setattr(geomc, "_slot", refuse)


class _ZeroNormals:
    """A generator whose every normal draw is zero."""

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


def _every_trial_undecided(monkeypatch):
    """Draw every normal as zero, so each Monte Carlo kernel's own rule flags every trial undecided.

    The simplex test then sees d+2 equal points, a rank-deficient system, and
    the projection experiment a zero direction, |t| <= TAU_RANK |u| with t = 0.
    """
    monkeypatch.setattr(geomc, "_block_generator", lambda seed, block_index, window=0: _ZeroNormals())


class TestEstimateSylvester:
    def test_line_is_certain(self):
        res = estimate_sylvester(Distribution("beta", 1, 0.0), McConfig(trials=10_000, seed=5))
        assert res.estimate == 1.0
        assert res.successes == res.trials == 10_000
        assert res.stderr == 0.0

    def test_gaussian_plane(self):
        exact = 1.0 - (6.0 / math.pi) * math.asin(1.0 / 3.0)
        res = estimate_sylvester(Distribution("gaussian", 2), McConfig(trials=200_000, seed=11))
        assert abs(res.estimate - exact) <= 4.0 * res.stderr

    def test_uniform_ball_plane(self):
        exact = 35.0 / (12.0 * math.pi**2)
        res = estimate_sylvester(Distribution("beta", 2, 0.0), McConfig(trials=200_000, seed=12))
        assert abs(res.estimate - exact) <= 4.0 * res.stderr

    def test_sphere_points_never_succeed(self):
        res = estimate_sylvester(Distribution("beta", 2, -1.0), McConfig(trials=100_000, seed=3))
        assert res.successes == 0

    def test_deterministic_given_seed(self):
        mc = McConfig(trials=30_000, seed=77)
        first = estimate_sylvester(Distribution("beta", 3, 1.0), mc)
        second = estimate_sylvester(Distribution("beta", 3, 1.0), mc)
        assert first == second

    def test_worker_count_invariance(self):
        # every family; the beta-prime just above its threshold resamples trials
        # (76 at d = 11, under the bound of 96; at d = 2 it resamples too many)
        trials = 2 * BLOCK_TRIALS + 4321  # straddles block boundaries
        for family, beta in FAMILIES:
            d = 11 if beta(0) == 0.01 else 3
            dist = Distribution(family, d, beta(d))
            mc = McConfig(trials=trials, seed=9)
            expected = _reference_successes(mc, _reference_draw(dist))
            for workers in (1, 2, 8):
                result = estimate_sylvester(dist, dataclasses.replace(mc, workers=workers))
                assert result.successes == expected, (family, d, workers)
        # the refusal names the same resample count at every worker count
        messages = set()
        for workers in (1, 2, 8):
            with pytest.raises(DegenerateGeometryError) as refused:
                estimate_sylvester(Distribution("beta_prime", 2, 1.01), McConfig(trials, seed=9, workers=workers))
            messages.add(str(refused.value))
        assert len(messages) == 1

    def test_work_slots_are_allocated_by_the_calling_thread(self, monkeypatch):
        # one slot of one sub-block per worker, made before any worker starts, reused
        # by every sub-block of every block and resample batch
        calls = []
        slot = geomc._slot

        def record(k, size):
            made = slot(k, size)
            calls.append((threading.get_ident(), made.size))
            return made

        monkeypatch.setattr(geomc, "_slot", record)
        for dist, trials, workers in ((Distribution("gaussian", 2), 5 * BLOCK_TRIALS + 7, 2),
                                      (Distribution("beta_prime", 11, 5.51), 2 * BLOCK_TRIALS + 4321, 2),
                                      (Distribution("beta", 3, 0.0), BLOCK_TRIALS, 8),
                                      (Distribution("gaussian", 2), 100, 1)):
            calls.clear()
            estimate_sylvester(dist, McConfig(trials=trials, seed=9, workers=workers))
            slots = min(workers, -(-trials // BLOCK_TRIALS))
            assert 1 <= len(calls) <= slots
            d = dist.d
            sub_block = min(geomc._QR_ROW_VALUES // (d + 3), trials)
            assert set(calls) == {(threading.get_ident(), sub_block * sum(geomc._rows(d)))}

    def test_blocks_in_flight_are_bounded_by_the_workers(self, monkeypatch):
        # a block is in flight from its start until its counts are freed
        submitted = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(geomc, "ThreadPoolExecutor", CountingPool)
        lock = threading.Lock()
        in_flight = {"now": 0, "peak": 0}

        def release():
            with lock:
                in_flight["now"] -= 1

        def block(index, size):
            with lock:
                in_flight["now"] += 1
                in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            time.sleep(0)  # let the other workers take their blocks
            counts = np.array([1, size])
            weakref.finalize(counts, release)
            return counts

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # thread switches between any two steps: a lost or repeated block shows in the sum
        try:
            for workers in (1, 2, 8):
                submitted.clear()
                in_flight["peak"] = 0
                mc = McConfig(trials=2_000 * BLOCK_TRIALS - 5, seed=1, workers=workers)
                assert geomc._run_blocks(mc, lambda: block).tolist() == [2_000, mc.trials]
                assert in_flight["now"] == 0 and 1 <= in_flight["peak"] <= workers
                assert len(submitted) <= workers
        finally:
            sys.setswitchinterval(interval)

    def test_undecided_trials_exceed_the_resampling_bound(self, monkeypatch):
        _every_trial_undecided(monkeypatch)
        with pytest.raises(DegenerateGeometryError, match=r"sqrt\(trials\)/2"):
            estimate_sylvester(Distribution("gaussian", 2), McConfig(trials=1_000, seed=1))

    @pytest.mark.parametrize("family, d, beta", [("gaussian", 2, None), ("beta", 5, 0.0), ("beta_prime", 4, 3.0)])
    def test_count_matches_rows_through_the_batch_solve(self, family, d, beta):
        # the second block is a short one, and neither block is a whole number of sub-blocks
        dist = Distribution(family, d, beta)
        for seed in (20242, 1, 7):
            mc = McConfig(trials=BLOCK_TRIALS + 5_000, seed=seed)
            assert estimate_sylvester(dist, mc).successes == _reference_successes(mc, _reference_draw(dist)), seed

    def test_counts_do_not_depend_on_the_sub_block_size(self, monkeypatch):
        # each stream is read on in trial order from one sub-block to the next, so
        # sub-blocks of other sizes (and other staging chunks) give the same counts
        mc = McConfig(trials=BLOCK_TRIALS + 4321, seed=9, workers=2)
        dists = [Distribution(family, d, beta(d)) for family, beta in FAMILIES for d in [11 if beta(0) == 0.01 else 3]]
        expected = [estimate_sylvester(dist, mc).successes for dist in dists]
        for row_values in (4099, 997):
            monkeypatch.setattr(geomc, "_QR_ROW_VALUES", row_values)
            assert [estimate_sylvester(dist, mc).successes for dist in dists] == expected, row_values

    def test_gaussian_counts_keep_their_stream(self):
        # counts of the Gaussian simplex test, which draws no gamma, recorded while
        # a block's gammas still followed its normals in one stream
        pinned = {(2, 7): 70_475, (3, 99): 19_381, (5, 20242): 931}
        for (d, seed), successes in pinned.items():
            for workers in (1, 2, 8):
                mc = McConfig(trials=200_000, seed=seed, workers=workers)
                assert estimate_sylvester(Distribution("gaussian", d), mc).successes == successes, (d, seed, workers)

    def test_largest_dimension_runs(self):
        res = estimate_sylvester(Distribution("gaussian", 38), McConfig(trials=3, seed=1))
        assert res.trials == 3 and res.successes == 0

    def test_estimate_consistency_fields(self):
        res = estimate_sylvester(Distribution("beta_prime", 2, 2.0), McConfig(trials=50_000, seed=4))
        assert res.estimate == res.successes / res.trials
        assert res.stderr == pytest.approx(
            math.sqrt(res.estimate * (1.0 - res.estimate) / res.trials)
        )
        assert res.seed == 4


def _alone(dist, mc):
    """What `estimate_sylvester` gives dist: its McResult, or the message of its typed error."""
    try:
        return estimate_sylvester(dist, mc)
    except (DegenerateGeometryError, OverflowBoundError) as exc:
        return type(exc), str(exc)


def _together(dists, mc):
    """`estimate_sylvester_laws` in the form of `_alone`."""
    return [result if isinstance(result, geomc.McResult) else (type(result), str(result))
            for result in estimate_sylvester_laws(dists, mc)]


class TestSharedDraw:
    def test_each_law_counts_as_it_does_alone(self, monkeypatch):
        # every family at d = 3, over two whole blocks and a short third one, at any
        # worker count and any sub-block size
        laws = [Distribution(family, 3, beta(3)) for family, beta in FAMILIES]
        mc = McConfig(trials=2 * BLOCK_TRIALS + 4321, seed=9)
        expected = [_alone(dist, mc) for dist in laws]
        for workers in (1, 2, 8):
            assert _together(laws, dataclasses.replace(mc, workers=workers)) == expected, workers
        mc = McConfig(trials=BLOCK_TRIALS + 4321, seed=9, workers=2)
        expected = [_alone(dist, mc) for dist in laws]
        for row_values in (4099, 997):
            monkeypatch.setattr(geomc, "_QR_ROW_VALUES", row_values)
            assert _together(laws, mc) == expected, row_values

    def test_a_law_that_resamples_beside_two_that_do_not(self):
        # beta-prime at d = 11, beta = 5.51 resamples 76 trials of 37,089; the
        # Gaussian and the uniform ball resample none
        laws = [Distribution("gaussian", 11), Distribution("beta_prime", 11, 5.51), Distribution("beta", 11, 0.0)]
        mc = McConfig(trials=2 * BLOCK_TRIALS + 4321, seed=9)
        expected = [_alone(dist, mc) for dist in laws]
        assert expected[1].successes > 0
        assert _together(laws, mc) == expected
        assert _together(laws[::-1], dataclasses.replace(mc, workers=2)) == expected[::-1]

    def test_each_law_resamples_from_the_streams_the_shared_pass_left(self):
        # laws 0 and 2 read gammas and leave trials undecided; each resample reads
        # the normals from where the shared pass left them, and its own scales
        seed, calls = 5, []

        def state(rng):
            return None if rng is None else repr(rng.bit_generator.state)

        def draw(normals, laws, size):
            entry = state(normals), [(law, state(scales)) for law, scales in laws]
            normals.standard_normal(size)
            for _, scales in laws:
                if scales is not None:
                    scales.standard_gamma(1.0, size)
            calls.append((entry, (state(normals), [(law, state(scales)) for law, scales in laws])))
            first = len(laws) > 1
            return [(np.ones(size, dtype=bool), np.arange(size) < (3 if first and law != 1 else 0)) for law, _ in laws]

        results = geomc._estimate(McConfig(trials=100, seed=seed), lambda: draw, (True, False, True))
        assert [result.successes for result in results] == [100, 100, 100]
        (pass_in, pass_out), (law0_in, _), (law2_in, _) = calls
        assert pass_in[0] == state(_block_generator(seed, 0))
        window = state(_block_generator(seed, 0, 2**127))
        assert pass_in[1] == [(0, window), (1, None), (2, window)]
        assert law0_in == (pass_out[0], [pass_out[1][0]])
        assert law2_in == (pass_out[0], [pass_out[1][2]])

    def test_a_law_past_its_limits_keeps_its_own_error(self):
        # beta-prime at d = 2, beta = 1.01 resamples past sqrt(trials)/2, and 2 Gamma(1e308)
        # overflows; the other laws still answer
        laws = [Distribution("gaussian", 2), Distribution("beta_prime", 2, 1.01), Distribution("beta", 2, 1e308),
                Distribution("beta", 2, 0.0)]
        mc = McConfig(trials=2 * BLOCK_TRIALS + 4321, seed=9, workers=2)
        together = _together(laws, mc)
        assert together == [_alone(dist, mc) for dist in laws]
        assert [type(result) for result in together] == [geomc.McResult, tuple, tuple, geomc.McResult]
        assert together[1][0] is DegenerateGeometryError and together[2][0] is OverflowBoundError
        (overflow,) = estimate_sylvester_laws(laws[2:3], mc)
        assert isinstance(overflow, OverflowBoundError)

    def test_laws_share_one_dimension(self):
        mc = McConfig(trials=10, seed=1)
        for laws in ([], [Distribution("gaussian", 2), Distribution("gaussian", 3)]):
            with pytest.raises(DomainError, match="need laws of one dimension"):
                estimate_sylvester_laws(laws, mc)
        with pytest.raises(DomainError, match="Monte Carlo accepts dimension d <= 38"):
            estimate_sylvester_laws([Distribution("gaussian", 39)] * 2, mc)

    def test_clouds_are_allocated_by_the_calling_thread(self, monkeypatch):
        # one work slot of one sub-block per worker, made before any worker starts, whatever
        # the number of laws: the laws of a cloud share its factorization and reuse its slot
        calls = []
        slot = geomc._slot

        def record(k, size):
            made = slot(k, size)
            calls.append((threading.get_ident(), made.size))
            return made

        monkeypatch.setattr(geomc, "_slot", record)
        for laws, trials, workers in (([Distribution("gaussian", 3), Distribution("beta", 3, 0.0)], 5 * BLOCK_TRIALS, 2),
                                      ([Distribution("beta_prime", 4, 3.0)] * 3, 3 * BLOCK_TRIALS, 8),
                                      ([Distribution("gaussian", 2)] * 2, 100, 1),
                                      ([Distribution("beta", 3, 0.0)], 3 * BLOCK_TRIALS, 2),
                                      ([Distribution("beta_prime", 11, 5.51), Distribution("gaussian", 11)],
                                       2 * BLOCK_TRIALS + 4321, 2)):
            calls.clear()
            estimate_sylvester_laws(laws, McConfig(trials=trials, seed=9, workers=workers))
            d = laws[0].d
            sub_block = min(geomc._QR_ROW_VALUES // (d + 3), trials)
            assert len(calls) == min(workers, -(-trials // BLOCK_TRIALS))
            assert set(calls) == {(threading.get_ident(), sub_block * sum(geomc._rows(d)))}


def _traced_peak(call) -> int:
    """Bytes by which the traced memory peaks above its level before call(); numpy traces its data buffers."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestMemory:
    # each bound is about 1.25 times the peak measured with numpy 2.4 on Linux
    def test_two_workers_hold_two_sub_blocks(self):
        # 8.5 MB: two slots of 3.8 MB, which hold the solve's scratch too; 18.0 MB when a worker held a whole block
        dist = Distribution("beta", 5, 0.0)
        assert _traced_peak(lambda: estimate_sylvester(dist, McConfig(200_000, seed=1, workers=2))) <= 11.8e6

    def test_a_block_at_the_largest_dimension_holds_one_sub_block(self):
        # 17.7 MB: a 17 MB slot of 1,198 trials with its scratch; 224 MB when the slot held the 16,384-trial block
        dist = Distribution("gaussian", 38)
        assert _traced_peak(lambda: estimate_sylvester(dist, McConfig(BLOCK_TRIALS, seed=1))) <= 22.7e6

    def test_three_laws_share_one_slot_per_worker(self):
        # verify's shape: 8.5 MB for two slots of 3.3 MB and the three laws' flags; 13.4 MB when
        # each worker held a second slot for the laws' common normals
        laws = [Distribution("gaussian", 4), Distribution("beta", 4, 0.0), Distribution("beta_prime", 4, 3.0)]
        mc = McConfig(100_000, seed=1, workers=2)
        assert _traced_peak(lambda: estimate_sylvester_laws(laws, mc)) <= 10.6e6


class TestIndicators:
    def test_matches_pointwise_hull_tests(self):
        rng = _rng(42)
        clouds = _sample_points(Distribution("gaussian", 2, None), rng, 100 * 4).reshape(100, 4, 2)
        indicators = simplex_indicators(clouds)
        for cloud, flag in zip(clouds, indicators):
            inside = [
                is_inside_simplex(cloud[k], np.delete(cloud, k, axis=0)) for k in range(4)
            ]
            assert sum(inside) <= 1
            assert flag == any(inside)

    def test_affine_invariance(self):
        rng = _rng(43)
        d = 2
        clouds = _sample_points(Distribution("beta", d, 0.0), rng, 10_000 * (d + 2)).reshape(
            10_000, d + 2, d
        )
        base = simplex_indicators(clouds)
        map_rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(3):
            while True:
                matrix = map_rng.standard_normal((d, d))
                if abs(np.linalg.det(matrix)) > 0.1:
                    break
            shift = map_rng.standard_normal(d)
            transformed = clouds @ matrix.T + shift
            assert (simplex_indicators(transformed) == base).all()

    def test_degenerate_cloud_raises(self):
        cloud = np.zeros((1, 4, 2))
        cloud[0] = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        with pytest.raises(DegenerateGeometryError):
            simplex_indicators(cloud)

    def test_repeated_point_is_undecided(self):
        # the last point equals the first: coordinates (1, 0, 0) tie at zero
        cloud = np.array([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]])
        with pytest.raises(DegenerateGeometryError):
            simplex_indicators(cloud)

    def test_positive_rescale_keeps_decided_indicators(self):
        rng = _rng(44)
        d = 3
        lifted = _lift(_sample_points(Distribution("gaussian", d), rng, 1_000 * (d + 2)))
        lifted = lifted.reshape(1_000, d + 2, d + 1)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(1_000, d + 2, 1))
        base, base_undecided = _sign_rule(*_barycentric_batch(lifted.copy()))
        scaled, scaled_undecided = _sign_rule(*_barycentric_batch(lifted * scales))
        decided = ~base_undecided & ~scaled_undecided
        assert decided.sum() >= 990
        assert (base[decided] == scaled[decided]).all()

    def test_decided_signs_match_exact_arithmetic(self):
        rng = _rng(46)
        trials = []
        # beta-prime draws just above beta = d/2: many points lie near infinity
        for d in (2, 3, 5):
            for excess in (0.01, 0.02):
                lifted = _sample_lifted(Distribution("beta_prime", d, 0.5 * d + excess), rng, 50 * (d + 2))
                trials += list(lifted.reshape(50, d + 2, d + 1))
        # clouds within 1e-16 ... 1e-9 of a random affine hyperplane
        for d in (2, 3, 4):
            for _ in range(33):
                normal = rng.standard_normal(d)
                normal /= np.linalg.norm(normal)
                points = rng.standard_normal((d + 2, d))
                heights = rng.choice((-1.0, 1.0), d + 2) * 10.0 ** rng.uniform(-16.0, -9.0, d + 2)
                points += np.outer(heights + rng.standard_normal() - points @ normal, normal)
                trials.append(_lift(points))
        decided = 0
        for trial in trials:
            lam, degenerate = _barycentric_batch(trial[None].copy())
            (simplex,), (undecided,) = _sign_rule(lam, degenerate)
            if undecided:
                continue
            decided += 1
            signs = _exact_signs(trial)
            assert (np.sign(lam[0]) == signs).all()
            assert simplex == ((signs > 0).sum() in (1, signs.size))
        assert decided >= 150

    def test_exactly_singular_systems_leave_the_rest_of_the_batch_alone(self):
        rng = _rng(47)
        lifted = _lift(rng.standard_normal((1_000, 4, 2)))
        # three collinear integer points; coordinate maxima of 4 keep the equilibrated system exact
        start = rng.integers(-4, 1, size=(10, 1, 2))
        step = rng.integers(0, 3, size=(10, 1, 2))
        collinear = start + step * np.arange(3)[:, None]
        singular = _lift(np.concatenate((collinear, np.full((10, 1, 2), 4.0)), axis=1))
        mask = np.zeros(1_010, dtype=bool)
        mask[rng.choice(1_010, size=10, replace=False)] = True
        batch = np.empty((1_010, 4, 3))
        batch[mask], batch[~mask] = singular, lifted
        lam, degenerate = _barycentric_batch(batch)
        base_lam, base_degenerate = _barycentric_batch(lifted.copy())
        assert not base_degenerate.any()
        assert (degenerate == mask).all()
        assert lam[~mask].tobytes() == base_lam.tobytes()

    def test_cloud_without_the_trial_axis_is_a_domain_error(self):
        ragged = [[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0]]]
        strings = [[["a", "b"]] * 4]
        for points in (np.random.rand(4, 2), np.zeros((3, 4, 3)), np.zeros((2, 2, 0)), ragged, strings):
            with pytest.raises(DomainError, match=r"\(N, d\+2, d\)"):
                simplex_indicators(points)

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 4), data=st.data())
    def test_any_coordinates_give_bools_or_a_typed_error(self, d, data):
        size = d * (d + 2)
        cloud = np.array(data.draw(st.lists(COORDINATE, min_size=size, max_size=size))).reshape(1, d + 2, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                flags = simplex_indicators(cloud)
            except (DomainError, DegenerateGeometryError):
                return
        assert flags.dtype == bool and flags.shape == (1,)


def _oracle(lifted):
    """lam, the condition estimate and the degenerate flags by np.linalg.solve on the equilibrated system."""
    k = lifted.shape[2]
    scaled = lifted / np.maximum(np.abs(lifted).max(axis=1, keepdims=True), np.finfo(float).tiny)
    a = scaled[:, :k, :].transpose(0, 2, 1)
    rhs = np.stack((scaled[:, k, :], np.ones((lifted.shape[0], k))), axis=-1)
    solution = np.linalg.solve(a, rhs)
    lam, p = solution[..., 0], solution[..., 1]
    cond = np.abs(a).sum(axis=1).max(axis=1) * np.abs(p).sum(axis=1) / k
    return lam, cond, ~np.isfinite(cond) | (cond > 1.0 / geomc.TAU_RANK)


class TestBarycentricKernel:
    FAMILIES = (("gaussian", lambda d: None), ("beta", lambda d: 0.0), ("beta", lambda d: -0.5),
                ("beta_prime", lambda d: 0.5 * d + 1.0), ("beta_prime", lambda d: 0.5 * d + 0.05))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_lapack_solve(self, d):
        rng = _rng(48 + d)
        for family, beta in self.FAMILIES:
            lifted = _sample_lifted(Distribution(family, d, beta(d)), rng, 2_000 * (d + 2))
            lifted = lifted.reshape(2_000, d + 2, d + 1)
            lam, degenerate = _barycentric_batch(lifted)
            ref_lam, cond, ref_degenerate = _oracle(lifted)
            well = cond < 1e8
            assert well.sum() >= 1_500, (family, d)
            assert not degenerate[well].any()
            scale = np.abs(ref_lam[well]).max(axis=1, keepdims=True)
            assert (np.abs(lam[well] - ref_lam[well]) <= 1e-9 * scale).all(), (family, d)
            simplex, undecided = _sign_rule(lam, degenerate)
            ref_simplex, ref_undecided = _sign_rule(ref_lam, ref_degenerate)
            both = ~undecided & ~ref_undecided
            assert (np.sign(lam[both]) == np.sign(ref_lam[both])).all(), (family, d)
            assert (simplex[both] == ref_simplex[both]).all(), (family, d)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_decided_trials_match_the_svd_null_vector(self, d):
        # an oracle that shares no step with the kernel: the dependence of each trial's
        # d+2 lifted vectors is the right singular vector of the smallest singular value of
        # their (d+1, d+2) matrix, whose rows are divided by their largest |value| first (a
        # positive diagonal map, which keeps the null vector); a simplex has a singleton side
        tiny = np.finfo(float).tiny
        for family, beta in FAMILIES:
            if d == 1 and beta(d) == -1.0:
                continue  # the sphere needs d >= 2
            lifted = _sample_lifted(Distribution(family, d, beta(d)), _rng(70 + d), 5_000 * (d + 2))
            lifted = lifted.reshape(5_000, d + 2, d + 1)
            simplex, undecided = _sign_rule(*_barycentric_batch(lifted))
            matrix = lifted.transpose(0, 2, 1)
            matrix = matrix / np.maximum(np.abs(matrix).max(axis=2, keepdims=True), tiny)
            null = np.linalg.svd(matrix)[2][:, -1]
            positive, negative = (null > 0).sum(axis=1), (null < 0).sum(axis=1)
            singleton = ((positive == 1) & (negative == d + 1)) | ((negative == 1) & (positive == d + 1))
            assert (simplex[~undecided] == singleton[~undecided]).all(), (family, d)
            # only points at infinity (beta-prime just above its threshold, where some s = 0)
            # leave trials undecided: 32% at d = 1, 20% at d = 2, 0.12% at d = 12
            bound = 0.45 / d if beta(d) == 0.5 * d + 0.01 else 1e-3
            assert undecided.mean() <= bound, (family, d, undecided.mean())

    def test_results_do_not_depend_on_position(self):
        # beta-prime close to the threshold: points at infinity and undecided trials
        d = 3
        step = geomc._QR_ROW_VALUES // (d + 3)  # trials per sub-block
        count = 4 * step + 100
        lifted = _sample_lifted(Distribution("beta_prime", d, 0.5 * d + 0.01), _rng(49), count * (d + 2))
        lifted = lifted.reshape(count, d + 2, d + 1)
        lam, degenerate = _barycentric_batch(lifted)
        assert degenerate.any() and not degenerate.all()
        order = _rng(50).permutation(count)
        shuffled = lifted[order]
        for sizes in ((1, 2047, 2048, 2049), (1, step - 1, step, step + 1), (BLOCK_TRIALS,)):
            start = 0
            for size in sizes + (count - sum(sizes),):
                part = order[start:start + size]
                part_lam, part_degenerate = _barycentric_batch(shuffled[start:start + size])
                assert part_lam.tobytes() == lam[part].tobytes(), size
                assert (part_degenerate == degenerate[part]).all(), size
                start += size

    def test_points_at_infinity_and_exactly_singular_systems(self):
        d = 3
        rng = _rng(51)
        lifted = _lift(rng.standard_normal((600, d + 2, d)))
        # one point at infinity, (z, 0), per trial: the systems stay regular
        lifted[np.arange(600), rng.integers(0, d + 2, 600), d] = 0.0
        singular = np.zeros(600, dtype=bool)
        singular[rng.choice(600, size=60, replace=False)] = True
        rows = np.flatnonzero(singular)
        # all points at infinity: a zero coordinate row, consistent and singular
        lifted[rows[:20], :, d] = 0.0
        # a repeated point at infinity among the first d+1
        repeated = np.zeros((20, d + 1))
        repeated[:, :d] = rng.standard_normal((20, d))
        lifted[rows[20:40], 0] = lifted[rows[20:40], 1] = repeated
        # d+2 collinear points with integer coordinates: consistent and singular
        start, step = rng.integers(-3, 4, size=(2, 20, 1, d))
        lifted[rows[40:]] = _lift(start + step * np.arange(d + 2)[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, degenerate = _barycentric_batch(lifted)
            _sign_rule(lam, degenerate)
        assert (degenerate == singular).all()


def _assert_cone_count_matches_solve_rows(generators, seeds):
    """The cone count equals the one of np.linalg.solve on each normalised direction."""
    cone = SimplicialCone(generators)
    k = generators.shape[0]
    _, r = np.linalg.qr(cone.generators.T)

    def draw(rng, _scales, size):
        directions = rng.standard_normal((size, k))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        coords = np.linalg.solve(r, directions.T).T
        return _closed_inside_rows(coords), np.zeros(size, dtype=bool)

    for seed in seeds:
        mc = McConfig(trials=BLOCK_TRIALS + 5_000, seed=seed)
        assert estimate_cone_angle(cone, mc).successes == _reference_successes(mc, draw), seed


class TestConeAngle:
    def test_quarter_plane(self):
        res = estimate_cone_angle(SimplicialCone(np.eye(2)), McConfig(trials=100_000, seed=21))
        assert abs(res.estimate - 0.25) <= 4.0 * res.stderr

    def test_eighth_wedge(self):
        cone = SimplicialCone(np.array([[1.0, 0.0], [1.0, 1.0]]))
        res = estimate_cone_angle(cone, McConfig(trials=100_000, seed=22))
        assert abs(res.estimate - 0.125) <= 4.0 * res.stderr

    def test_regular_simplex_vertex_cone(self):
        e = np.eye(4)
        cone = SimplicialCone(e[1:] - e[0])
        res = estimate_cone_angle(cone, McConfig(trials=200_000, seed=23))
        assert abs(res.estimate - J4_REGULAR / 4.0) <= 4.0 * res.stderr

    def test_degenerate_generators(self):
        cone = SimplicialCone(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(DegenerateGeometryError):
            estimate_cone_angle(cone, McConfig(trials=100, seed=1))

    def test_scaled_generators_give_the_same_count(self):
        # each cone has largest |entry| 1, so the largest double scales it without overflow
        e = np.eye(4)
        generators = np.random.default_rng(24).standard_normal((3, 5))
        for cone in (e[1:] - e[0], generators / np.abs(generators).max()):
            counts = {
                estimate_cone_angle(SimplicialCone(c * cone), McConfig(trials=20_000, seed=24)).successes
                for c in (1.0, 2.0**-50, 2.0**50, 1e12, 1e-12, 1e300, 1e-300, np.finfo(float).max, 2.0**-1060)
            }
            assert len(counts) == 1, cone

    def test_count_matches_the_row_formula(self):
        e = np.eye(4)
        _assert_cone_count_matches_solve_rows(e[1:] - e[0], (31, 32, 501))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_random_cone_count_matches_the_row_formula(self, k):
        generators = np.random.default_rng(70 + k).standard_normal((k, k + 2))
        _assert_cone_count_matches_solve_rows(generators, (40 + k,))

    def test_generator_validation(self):
        with pytest.raises(DomainError):
            SimplicialCone(np.ones((3, 2)))
        with pytest.raises(DomainError, match=r"\(k, m\) array"):
            SimplicialCone(np.ones(3))
        with pytest.raises(DomainError, match="1 <= k <= m"):
            SimplicialCone(np.ones((0, 2)))
        with pytest.raises(DomainError, match="finite"):
            SimplicialCone(np.array([[1.0, 0.0], [0.0, np.inf]]))
        for generators in ([[1, 0], [1]], [["a", "b"]]):
            with pytest.raises(DomainError, match=r"\(k, m\) array of cone generators"):
                SimplicialCone(generators)
        with pytest.raises(DegenerateGeometryError, match="numerically dependent"):
            estimate_cone_angle(SimplicialCone(np.zeros((2, 3))), McConfig(trials=10, seed=1))


class TestProjectionExperiment:
    def test_triangle_in_three_dimensions(self):
        res = projection_experiment(np.eye(3), McConfig(trials=200_000, seed=31))
        assert abs(res.estimate - 1.0 / 3.0) <= 4.0 * res.stderr

    def test_four_dimensional_simplex(self):
        res = projection_experiment(np.eye(5), McConfig(trials=200_000, seed=32))
        assert abs(res.estimate - 2.0 * J5_REGULAR / 5.0) <= 4.0 * res.stderr

    def test_agrees_with_cone_angle(self):
        vertices = np.eye(4)
        proj = projection_experiment(vertices, McConfig(trials=150_000, seed=33))
        cone = SimplicialCone(vertices[:3] - vertices[3])
        angle = estimate_cone_angle(cone, McConfig(trials=150_000, seed=34))
        combined = 4.0 * math.hypot(proj.stderr, 2.0 * angle.stderr)
        assert abs(proj.estimate - 2.0 * angle.estimate) <= combined

    def test_line_rejected(self):
        with pytest.raises(DomainError):
            projection_experiment(np.array([[0.0], [1.0]]), McConfig(trials=10, seed=1))

    @pytest.mark.parametrize(
        "vertices,message",
        [(np.ones(3), "2-d array"), (np.ones((1, 3)), "2-d array"),
         (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]]), "2-d array"),
         (np.eye(4)[:, :2], "cannot span"), ([[0.0, 0.0], [1.0, 0.0], [0.0]], "2-d array"),
         ([["a", "b"]] * 3, "2-d array")],
    )
    def test_vertex_validation(self, vertices, message):
        with pytest.raises(DomainError, match=message):
            projection_experiment(vertices, McConfig(trials=10, seed=1))

    def test_large_simplex_refused_before_any_block(self, monkeypatch):
        _refuse_work_arrays(monkeypatch)
        with pytest.raises(DomainError, match="n <= 38, got 39: the projection keeps the simplex test's cap"):
            projection_experiment(np.eye(40), McConfig(trials=1, seed=1))

    def test_largest_simplex_runs(self):
        assert projection_experiment(np.eye(39), McConfig(trials=3, seed=1)).trials == 3

    def test_general_position_required(self):
        for third in ((2.0, 0.0), (2.0, 1e-14)):  # collinear and nearly collinear triangles in R^2
            with pytest.raises(DegenerateGeometryError):
                projection_experiment(np.array([[0.0, 0.0], [1.0, 0.0], third]), McConfig(trials=10, seed=1))
        # all-zero vertices: the unit rescale divides by 1, not by their zero maximum
        with pytest.raises(DegenerateGeometryError, match="numerically dependent"):
            projection_experiment(np.zeros((3, 3)), McConfig(trials=10, seed=1))

    def test_undecided_trials_exceed_the_resampling_bound(self, monkeypatch):
        _every_trial_undecided(monkeypatch)
        with pytest.raises(DegenerateGeometryError, match=r"sqrt\(trials\)/2"):
            projection_experiment(np.eye(3), McConfig(trials=1_000, seed=1))

    def test_lemma_estimators_factor_their_frame_once(self, monkeypatch):
        # no work array, no per-trial QR and no LAPACK solve: each block is one fixed map
        def refuse(*args, **kwargs):
            raise AssertionError("a per-trial or per-block solve ran")

        _refuse_work_arrays(monkeypatch)
        monkeypatch.setattr(geomc, "_solve", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        vertices = np.eye(4)
        mc = McConfig(trials=40_000, seed=3)
        assert projection_experiment(vertices, mc).trials == 40_000
        assert estimate_cone_angle(SimplicialCone(vertices[:3] - vertices[3]), mc).trials == 40_000

    def test_lemma_counts_keep_their_stream(self):
        # counts recorded while a block's gammas still followed its normals in one stream
        vertices = np.eye(4)
        cone = SimplicialCone(vertices[:3] - vertices[3])
        for seed, projected, inside in ((3, 35_253, 17_624), (501, 34_883, 17_394)):
            mc = McConfig(trials=400_000, seed=seed, workers=2)
            assert projection_experiment(vertices, mc).successes == projected, seed
            assert estimate_cone_angle(cone, mc).successes == inside, seed

    @pytest.mark.parametrize("vertices", [np.eye(4), np.random.default_rng(6).standard_normal((5, 6))])
    def test_scaled_simplices_give_the_same_count(self, vertices):
        # the direction's unit-scale entries share coordinate rows with the
        # vertices', so without one common rescale of the vertices the
        # per-coordinate equilibration flattened them from a scale of 1e10 on;
        # with largest |entry| 1 the largest double scales them without overflow
        vertices = vertices / np.abs(vertices).max()
        counts = {
            projection_experiment(vertices * s, McConfig(trials=20_000, seed=25)).successes
            for s in (1.0, 1e9, 1e12, 1e-12, 2.0**900, 2.0**-900, 1e300, 1e-300, np.finfo(float).max, 2.0**-1060)
        }
        assert len(counts) == 1

    @pytest.mark.parametrize("vertices", [np.eye(4), np.eye(5)] + [
        np.random.default_rng(60 + n).standard_normal((n + 1, n + 2)) for n in range(2, 9)
    ])
    def test_count_matches_repeated_template_rows(self, vertices):
        n = vertices.shape[0] - 1
        edges = vertices[:n] - vertices[n]
        q, _ = np.linalg.qr(edges.T)
        template = np.zeros((n + 2, n + 1))
        template[:n, :n] = edges @ q
        template[:n, n] = template[n + 1, n] = 1.0

        def draw(rng, _scales, size):
            trials = np.repeat(template[None], size, axis=0)
            trials[:, n, :n] = rng.standard_normal((size, n))
            lam, degenerate = _barycentric_batch(trials)
            return _closed_inside_rows(lam[:, :n]), degenerate

        seeds = (31, 32, 501) if n < 5 else (30 + n,)
        for seed in seeds:
            mc = McConfig(trials=BLOCK_TRIALS + 5_000, seed=seed)
            assert projection_experiment(vertices, mc).successes == _reference_successes(mc, draw), seed


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            McConfig(trials=0, seed=1)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=-1)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=2**64)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=1, workers=0)

    def test_trials_are_bounded_by_the_generator_windows(self):
        # block i draws from Philox counters i << 128, and Philox counters end at 2**256
        assert MAX_TRIALS == BLOCK_TRIALS << 128 == 2**142
        assert McConfig(trials=MAX_TRIALS, seed=1).trials == MAX_TRIALS
        with pytest.raises(DomainError, match=r"trials must be at most 2\*\*142"):
            McConfig(trials=MAX_TRIALS + 1, seed=1)

    def test_workers_are_bounded_by_a_fixed_ceiling(self):
        # every worker holds one work slot, allocated before any of them starts
        assert MAX_WORKERS == 64
        assert McConfig(trials=10, seed=1, workers=MAX_WORKERS).workers == MAX_WORKERS
        for workers in (MAX_WORKERS + 1, 10**6, 10**400):
            with pytest.raises(DomainError, match=r"workers must be an integer in \[1, 64\]"):
                McConfig(trials=10, seed=1, workers=workers)

    def test_numpy_integers_are_stored_as_int(self):
        mc = McConfig(trials=np.int64(100), seed=np.uint64(2**64 - 1), workers=np.arange(3)[2])
        assert (mc.trials, mc.seed, mc.workers) == (100, 2**64 - 1, 2)
        assert all(type(v) is int for v in (mc.trials, mc.seed, mc.workers))
        assert json.loads(json.dumps(dataclasses.asdict(mc))) == {"trials": 100, "seed": 2**64 - 1, "workers": 2}

    @pytest.mark.parametrize(
        "kwargs",
        [{"trials": True, "seed": 1}, {"trials": 10, "seed": False}, {"trials": 10, "seed": 1, "workers": True},
         {"trials": 10.0, "seed": 1}, {"trials": 10, "seed": "1"}, {"trials": 10, "seed": 1, "workers": None}],
    )
    def test_bools_and_non_integers_rejected(self, kwargs):
        with pytest.raises(DomainError, match="must be an integer"):
            McConfig(**kwargs)
