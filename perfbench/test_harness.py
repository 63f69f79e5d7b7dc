"""Tests of the benchmark harness itself: span self times, the tail rule, the failure oracle.

    python3 -m pytest perfbench/test_harness.py
"""

import time

import pytest

import oracle
import reference
from run import Result, correct, end_to_end, tail
from tracer import Tracer
from workloads import Op


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class TestSelfTime:
    def test_nested_spans(self):
        # query [0, 10] holds a [1, 7], which holds the leaves [2, 3] and [4, 6]; b [8, 9]
        tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 6, 7, 8, 9, 10))
        tracer.query = 5
        q = tracer.open("query")
        a = tracer.open("a")
        for _ in range(2):
            tracer.close(tracer.open("leaf", leaf=True))
        tracer.close(a)
        tracer.close(tracer.open("b"), note="x")
        tracer.close(q)
        spans = {s["name"]: s for s in tracer.spans}
        assert spans["a"]["self_s"] == 3  # 6 minus the leaves' 1 + 2
        assert spans["b"]["self_s"] == 1 and spans["b"]["note"] == "x"
        assert spans["query"]["self_s"] == 3  # 10 minus a's 6 and b's 1
        assert spans["a"]["parent"] == spans["b"]["parent"] == spans["query"]["id"]
        assert spans["query"]["parent"] is None
        assert tracer.leaves[(5, "leaf")] == [2, 3, 3]

    def test_leaf_inside_leaf_and_totals(self):
        tracer = Tracer(clock=FakeClock(0, 1, 3, 4))
        outer = tracer.open("outer", leaf=True)
        tracer.close(tracer.open("inner", leaf=True))
        tracer.close(outer)
        assert tracer.leaf_total("outer", 1) == 4
        assert tracer.leaf_total("outer", 2) == 2
        assert tracer.leaf_total("inner", 0) == 1

    def test_wrap_records_error_and_keeps_nesting(self):
        tracer = Tracer()

        def boom():
            raise OverflowError

        with pytest.raises(OverflowError):
            tracer.wrap(tracer.leaf(boom, "leaf"), "outer")()
        assert tracer.spans[0]["error"] == "OverflowError"
        assert tracer.leaf_total("leaf", 0) == 1 and not tracer._stack

    def test_out_of_order_close_is_refused(self):
        tracer = Tracer()
        first = tracer.open("first")
        tracer.open("second")
        with pytest.raises(RuntimeError):
            tracer.close(first)


class TestTail:
    def test_needs_eleven_samples(self):
        assert tail(list(range(10))) is None
        assert tail(list(range(11))) == (0, pytest.approx(100 / 11))

    @pytest.mark.parametrize("n, percentile", [(100, 90.0), (1000, 99.0), (20, 50.0)])
    def test_ten_samples_beyond(self, n, percentile):
        samples = [float(i) for i in reversed(range(n))]
        value, pct = tail(samples)
        assert pct == pytest.approx(percentile)
        assert sum(s > value for s in samples) == 10


class TestSampler:
    def test_busy_leaves_out_the_samples(self):
        sampler = reference.Sampler(0.1)
        sampler.intervals = [(0.5, 0.6), (0.95, 1.05), (2.0, 2.1)]
        assert sampler.busy(1.0, 2.0) == pytest.approx(0.95)
        assert sampler.busy(0.0, 3.0) == pytest.approx(2.7)

    def test_scale_averages_speeds_without_the_extremes(self):
        # one sample at half speed in four; the fastest and slowest of ten are dropped
        samples = [0.001] + [0.01, 0.01, 0.01, 0.02] * 2 + [1.0]
        assert reference.scale(samples) == pytest.approx(reference.REFERENCE_S * (6 * 100 + 2 * 50) / 8)

    def test_samples_inside_a_long_call(self):
        sampler = reference.Sampler(0.05)
        with sampler.active():
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                pass
            with sampler.paused():
                paused_at = len(sampler.samples)
                time.sleep(0.2)
                assert len(sampler.samples) == paused_at
            end = time.perf_counter()
        assert len(sampler.samples) >= 2
        assert sampler.busy(start, end) == pytest.approx(end - start - sum(b - a for a, b in sampler.intervals))


class TestEndToEnd:
    def test_timings_cover_every_operation_of_the_run(self):
        quad, verify = Op(label="a", kind="quad"), Op(label="v", kind="verify")
        # the first pass ran at half the reference speed
        results = [Result(quad, s, oracle.Outcome(), scale=0.5) for s in (0.6, 0.2)]
        results += [Result(quad, s, oracle.Outcome()) for s in (0.2, 0.6)]
        results.append(Result(verify, 1.8, oracle.Outcome([("check failed: x", False)])))
        metrics, extra = end_to_end(results, setups=[0.5, 0.2, 0.4])
        assert metrics["setup_s"] == 0.4
        assert metrics["query_p50_s"] == 0.3
        assert metrics["queries_per_s"] == pytest.approx(5 / 3.0)
        extra = {name: value for name, value, _, _ in extra}
        assert extra["wall_query_p50_s"] == 0.6
        assert extra["wall_queries_per_s"] == pytest.approx(5 / 3.4)
        assert extra["failed_share"] == pytest.approx(0.2)
        assert extra["verify_s"] == 1.8


def _quad(value, error, reference=None, code=0):
    record = {"value": value, "abs_error": error}
    return [text for text, _ in oracle.quad_outcome(code, record, reference).reasons]


class TestOracle:
    def test_quadrature_checks(self):
        assert _quad(0.35, 1e-13, 0.35 + 2e-13) == []
        assert _quad(0.35, 1e-13, 0.35 + 4e-13) == ["off reference"]
        assert _quad(1e-16, 3e-14) == ["unresolved"]
        assert _quad(-6e-27, 9e-15) == ["unresolved", "negative"]
        assert _quad(1.0000000000000002, 2e-14, 1.0) == ["above one"]
        assert _quad(0.5, 1e-12, code=3) == ["exit 3"]
        assert _quad(0.5, 1e-12, code="raised OverflowError") == ["raised OverflowError"]
        assert oracle.quad_outcome(0, None, None).deterministic() == ["unparsable output"]

    def test_monte_carlo_checks(self):
        ok = oracle.mc_outcome(0, {"value": 0.1, "stderr": 0.001, "trials": 1000}, 0.1035)
        assert not ok.failed
        far = oracle.mc_outcome(0, {"value": 0.1, "stderr": 0.001, "trials": 1000}, 0.105)
        assert far.failed and far.deterministic() == []
        assert oracle.mc_outcome(0, {"value": 1.5, "stderr": 0.0, "trials": 2}, 1.0).deterministic()

    def test_worker_pairs_must_agree(self):
        seen = {}
        first, second, third = oracle.Outcome(), oracle.Outcome(), oracle.Outcome()
        oracle.pair_outcome(first, {"value": 0.25, "trials": 1000}, seen, "k")
        oracle.pair_outcome(second, {"value": 0.25, "trials": 1000}, seen, "k")
        oracle.pair_outcome(third, {"value": 0.251, "trials": 1000}, seen, "k")
        assert not first.failed and not second.failed
        assert third.deterministic() == ["successes 251 differ from 250 at another worker count"]

    def test_verify_checks(self):
        passing = "PASS  a: ok\nWARN  c: soft\n# 2 checks: 1 passed, 0 hard failures, 1 warnings\n"
        out, checks, hard = oracle.verify_outcome(0, passing)
        assert (out.failed, checks, hard) == (False, 2, 0)
        fluke = "FAIL  mc-cross[gaussian d=2]: far\nPASS  b: ok\n# 2 checks: 1 passed, 1 hard failures, 0 warnings\n"
        out, _, hard = oracle.verify_outcome(1, fluke)
        assert hard == 1 and out.failed and out.deterministic() == []
        broken = fluke.replace("mc-cross[gaussian d=2]", "endpoints-d1")
        assert oracle.verify_outcome(1, broken)[0].deterministic() == ["check failed: endpoints-d1"]
        assert oracle.verify_outcome(0, "PASS  a: ok\n")[0].deterministic() == [
            "summary disagrees with the listed checks"
        ]

    def test_correct_allows_only_known_defects_and_statistical_misses(self):
        def result(label, *reasons):
            return Result(Op(label=label, kind="quad"), 0.1, oracle.Outcome(list(reasons)))

        known = result("compute gauss d=19 tol=1e-10", ("unresolved", False))
        fluke = result("mc x", ("outside 4 stderr", True))
        assert correct([known, fluke, result("fine")])
        assert not correct([known, result("compute gauss d=18 tol=1e-10", ("unresolved", False))])
