"""CLI tests driven through main(argv) with captured streams."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sylvester
from sylvester import cli, geomc, registry, verification
from sylvester.cli import main
from sylvester.errors import NonConvergenceError, SylvesterError
from sylvester.probability import Distribution, quadrature_probability, sylvester_probability
from sylvester.quad import EvalResult, QuadratureConfig

# Gaussian p_d, mpmath at 90 and 120 digits; printed by tests/gaussian_references.py
GAUSSIAN_REFERENCE = {
    4: 0.02306452484381219,
    5: 0.0047697319556756065,
    6: 0.0008865496591775908,
    7: 0.00015063913973998891,
    8: 2.3693188060964904e-05,
    9: 3.482641062953852e-06,
    10: 4.820152301900779e-07,
    11: 6.319964860852434e-08,
    12: 7.88928192740285e-09,
    13: 9.415443191995378e-10,
    14: 1.0781026323497076e-10,
    15: 1.1879898469121877e-11,
    16: 1.2631075845200892e-12,
    17: 1.29879777740168e-13,
    18: 1.2941861453616527e-14,
    19: 1.251952309184431e-15,
    20: 1.177642134339809e-16,
    21: 1.0787017395121585e-17,
    22: 9.634280618160222e-19,
    23: 8.400054783056238e-20,
    24: 7.157468022633655e-21,
    25: 5.96596865226825e-22,
    26: 4.869020186240428e-23,
    27: 3.894082348337971e-24,
    28: 3.0542745568199267e-25,
    29: 2.3510526609394716e-26,
    30: 1.777288795327052e-27,
    31: 1.3202778045400288e-28,
    32: 9.6435478427411e-30,
    33: 6.9296129666173845e-31,
    34: 4.9012126687364273e-32,
    35: 3.413728969843453e-33,
    36: 2.342511790464961e-34,
    37: 1.5843349217581002e-35,
    38: 1.0565733532430386e-36,
}

RECORD_FIELDS = ("family", "d", "beta", "method", "value", "abs_error", "stderr", "trials", "seed")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def _half_plus_one(d):
    """--beta for the beta-prime closed form d/2 + 1; 1e308 where d/2 is no float."""
    return repr(0.5 * d + 1.0) if d < 10**300 else "1e308"


class TestCompute:
    def test_gaussian_d3(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "gauss", "--dim", "3")
        assert code == 0
        (rec,) = parse_json_lines(out)
        assert rec["family"] == "gauss"
        assert rec["d"] == 3
        assert rec["beta"] is None
        assert rec["value"] == pytest.approx(0.5 - (5.0 / math.pi) * math.asin(0.25), abs=1e-8)
        assert rec["abs_error"] is not None and rec["stderr"] is None

    @pytest.mark.parametrize("d", sorted(GAUSSIAN_REFERENCE))
    def test_gaussian_quadrature_matches_reference(self, capsys, d):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "gauss", "--dim", str(d),
            "--method", "quadrature", "--tol", "1e-10",
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        assert abs(rec["value"] - GAUSSIAN_REFERENCE[d]) <= 3.0 * rec["abs_error"]

    def test_closed_form_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "beta", "--dim", "2", "--beta", "0",
            "--method", "closed-form",
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        assert rec["method"] == "closed_form"
        assert rec["value"] == pytest.approx(35.0 / (12.0 * math.pi**2), rel=1e-14)

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "betaprime", "--dim", "2", "--beta", "2",
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        assert tuple(rec.keys()) == RECORD_FIELDS
        assert json.loads(json.dumps(rec)) == rec
        assert rec["value"] == pytest.approx(0.4, rel=1e-12)

    def test_csv_matches_json_payload(self, capsys):
        args = ("compute", "--family", "beta", "--dim", "3", "--beta", "0.5")
        code, json_out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        (json_rec,) = parse_json_lines(json_out)
        (csv_rec,) = list(csv.DictReader(io.StringIO(csv_out)))
        assert float(csv_rec["value"]) == json_rec["value"]
        assert float(csv_rec["abs_error"]) == json_rec["abs_error"]
        assert int(csv_rec["d"]) == json_rec["d"]
        assert csv_rec["stderr"] == "" and json_rec["stderr"] is None

    def test_below_convergence_threshold_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--family", "betaprime", "--dim", "2", "--beta", "1.01",
        )
        assert code == 2
        assert out == ""
        assert "2*beta > d + 1/(d+2)" in err

    def test_negative_beta_in_scientific_notation(self, capsys):
        # argparse alone takes "-1e-05" for an option and exits
        code, out, _ = run_cli(capsys, "compute", "--family", "beta", "--dim", "2", "--beta", "-1e-05")
        assert code == 0
        (rec,) = parse_json_lines(out)
        assert rec["beta"] == -1e-05
        assert 0.0 < rec["value"] < 35.0 / (12.0 * math.pi**2)

    @pytest.mark.parametrize("beta", ["-inf", "-Infinity", "-INF", "-nan", "inf", "nan"])
    @pytest.mark.parametrize("family", ["beta", "betaprime"])
    def test_non_finite_beta_exits_2(self, capsys, family, beta):
        # "-inf" was taken for an option: argparse's "expected one argument"
        code, out, err = run_cli(capsys, "compute", "--family", family, "--dim", "2", "--beta", beta)
        assert (code, out) == (2, "")
        assert "requires a finite beta parameter" in err

    def test_quadrature_method_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "beta", "--dim", "2", "--beta", "0",
            "--method", "quadrature",
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        assert rec["method"] == "quadrature"
        assert rec["value"] == pytest.approx(35.0 / (12.0 * math.pi**2), rel=1e-7)

    @pytest.mark.parametrize(
        "family,beta", [("betaprime", "42.726"), ("betaprime", "7179.648"), ("beta", "-0.7")]
    )
    def test_line_is_exactly_one_under_every_method(self, capsys, family, beta):
        # the line is answered from the registry: no integral that can exceed 1 or overflow
        code, out, _ = run_cli(
            capsys, "compute", "--family", family, "--dim", "1", "--beta", beta,
            "--method", "quadrature", "--tol", "1e-8",
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        assert rec["value"] == 1.0
        assert rec["method"] == "closed_form"

    def test_closed_form_miss_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--family", "beta", "--dim", "2", "--beta", "0.25",
            "--method", "closed-form",
        )
        assert code == 2
        assert "closed form" in err

    def test_gauss_rejects_beta(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--family", "gauss", "--dim", "2", "--beta", "1",
        )
        assert code == 2
        assert "beta" in err

    def test_unreachable_tolerance_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--family", "beta", "--dim", "2", "--beta", "0.3",
            "--tol", "1e-15",
        )
        assert code == 3
        assert out == ""
        assert "floor" in err or "refinements" in err

    @pytest.mark.parametrize("d", [2, 5, 30])
    def test_gaussian_tolerance_past_the_table_exits_3(self, capsys, d):
        # the envelope's cutoff passes h_imag_cdf's Y_MAX before a level can
        # report the floor; this exited 2 with h_imag_cdf's overflow message
        code, out, err = run_cli(
            capsys, "compute", "--family", "gauss", "--dim", str(d), "--method", "quadrature",
            "--tol", "1e-300",
        )
        assert (code, out) == (3, "")
        assert "lies below the roundoff/truncation floor" in err

    def test_tight_tolerance_converges(self, capsys):
        # abs_tol is 1e-16 here, a floor the real-part integral reaches
        code, out, _ = run_cli(
            capsys, "compute", "--family", "beta", "--dim", "2", "--beta", "0",
            "--method", "quadrature", "--tol", "1e-12",
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        assert abs(rec["value"] - 35.0 / (12.0 * math.pi**2)) <= 3.0 * rec["abs_error"]

    def test_kernel_overflow_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--family", "beta", "--dim", "2", "--beta", "5000",
            "--method", "quadrature",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["quadrature", "auto"])
    @pytest.mark.parametrize("beta", ["1e306", "1e307", "1e308"])
    @pytest.mark.parametrize("family", ["beta", "betaprime"])
    def test_huge_beta_exits_2(self, capsys, family, beta, method):
        # the kernel constants overflow (at 1e308, alpha itself is inf)
        code, out, err = run_cli(
            capsys, "compute", "--family", family, "--dim", "2", "--beta", beta, "--method", method,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflows double precision" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "1", "1e300"])
    def test_meaningless_tolerance_exits_2(self, capsys, tol):
        # tol 1e300 once printed a negative probability with exit 0, tol inf
        # an "Infinity" error that is not JSON
        code, out, err = run_cli(capsys, "compute", "--family", "gauss", "--dim", "4", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "rel_tol" in err

    @pytest.mark.parametrize("d", [10**6 + 1, 10**16, 10**200, 10**400], ids=["1e6+1", "1e16", "1e200", "1e400"])
    @pytest.mark.parametrize("family,beta", [("beta", "-1"), ("beta", "0"), ("beta", "1"), ("betaprime", None)])
    def test_dimension_cap(self, capsys, family, beta, d):
        # beyond d = 10**6 the log-space closed forms lose their error bars, and
        # past 10**308 d is no float: every method refuses it with exit 2
        argv = ["compute", "--family", family, "--dim", str(d), "--beta", beta or _half_plus_one(d)]
        for method in ("auto", "closed-form", "quadrature"):
            code, out, err = run_cli(capsys, *argv, "--method", method)
            assert (code, out) == (2, "")
            assert "at most 10**6" in err

    @pytest.mark.parametrize("family,beta", [("beta", "-1"), ("beta", "0"), ("beta", "1"), ("betaprime", "500001.0")])
    def test_largest_dimension_underflows_honestly(self, capsys, family, beta):
        code, out, _ = run_cli(capsys, "compute", "--family", family, "--dim", str(10**6), "--beta", beta)
        assert code == 0
        (rec,) = parse_json_lines(out)
        # the exact value is positive but below the smallest subnormal, except at the
        # sphere limit, where it is exactly 0
        assert (rec["method"], rec["value"]) == ("closed_form", 0.0)
        assert rec["abs_error"] == (0.0 if beta == "-1" else math.ulp(0.0))

    @pytest.mark.parametrize("d,beta,tol", [("24", "0", "1e-3"), ("16", "1", "0.5")])
    def test_error_bar_below_zero_exits_3(self, capsys, monkeypatch, d, beta, tol):
        # -1.04e-6 +- 7.3e-7 and -7.23e-5 +- 2.30e-5: no probability lies within either bar
        _stub_bars_below_zero(monkeypatch)
        code, out, err = run_cli(
            capsys, "compute", "--family", "beta", "--dim", d, "--beta", beta,
            "--method", "quadrature", "--tol", tol,
        )
        assert (code, out) == (3, "")
        value, error = map(float, re.search(r"value (\S+) with abs_error (\S+) excludes", err).groups())
        assert value + error < 0.0

    @pytest.mark.parametrize("d,beta,tol", [(24, 0.0, "1e-3"), (15, 0.0, "0.5"), (16, 1.0, "0.5")])
    def test_loose_tolerance_bars_contain_the_closed_form(self, capsys, d, beta, tol):
        # these once gave bars wholly below 0, from a level coarser than the finest evaluated
        code, out, _ = run_cli(
            capsys, "compute", "--family", "beta", "--dim", str(d), "--beta", repr(beta),
            "--method", "quadrature", "--tol", tol,
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        exact = registry.lookup("beta", d, beta)
        assert abs(rec["value"] - exact.value) <= 3.0 * rec["abs_error"]

    @pytest.mark.parametrize("family,beta", [("gauss", None), ("beta", "0"), ("beta", "1"), ("betaprime", "d/2 + 1")])
    def test_every_tolerance_is_honest_up_to_n_40(self, family, beta):
        # the CLI's tolerances over the whole advertised domain, under one error
        # model: every answered query lies within 3 abs_error of its truth, no
        # bar excludes [0, 1], and a raw exception would escape main
        misses = []
        for d in range(2, 39):
            argv = ["compute", "--family", family, "--dim", str(d), "--method", "quadrature"]
            if beta is not None:
                argv += ["--beta", _half_plus_one(d) if beta == "d/2 + 1" else beta]
            for tol in (f"1e-{k}" for k in range(3, 13)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv + ["--tol", tol])
                assert code in (0, 3) and "excludes" not in err.getvalue(), (d, tol, err.getvalue())
                if code == 3:
                    continue
                (rec,) = parse_json_lines(out.getvalue())
                if family == "gauss" and d >= 4:
                    truth = GAUSSIAN_REFERENCE[d]
                else:
                    truth = registry.lookup(cli._FAMILY_FLAGS[family], d, rec["beta"]).value
                if abs(rec["value"] - truth) > 3.0 * rec["abs_error"]:
                    misses.append((d, tol, rec["value"], rec["abs_error"], truth))
        assert misses == []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["gauss", "beta", "betaprime"]),
        d=st.one_of(
            st.integers(-2, 40),
            st.integers(41, 3000),
            st.integers(10**6 - 2, 10**6 + 2),
            st.integers(6, 400).map(lambda k: 10**k),
        ),
        beta=st.one_of(
            st.none(),
            st.sampled_from([-1.0, 0.0, 1.0, "d/2 + 1", math.nan, math.inf, 1e308]),
            st.floats(-8.0, 12.0).map(lambda e: 10.0**e),
        ),
        method=st.sampled_from(["auto", "quadrature", "closed-form"]),
        tol=st.sampled_from(["1e-4", "1e-6", "1e-8", "1e-10", "0"]),
    )
    def test_compute_gives_a_value_or_a_typed_error(self, family, d, beta, method, tol):
        argv = ["compute", "--family", family, "--dim", str(d), "--method", method, "--tol", tol]
        if beta is not None:
            argv += ["--beta", _half_plus_one(d) if beta == "d/2 + 1" else repr(beta)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            (rec,) = parse_json_lines(out.getvalue())
            if rec["method"] == "closed_form":
                assert 0.0 <= rec["value"] <= 1.0
                assert math.isfinite(rec["abs_error"]) and rec["abs_error"] >= 0.0
            else:  # the error bar overlaps [0, 1]
                assert rec["value"] + rec["abs_error"] >= 0.0
                assert rec["value"] - rec["abs_error"] <= 1.0


# Beta-prime values at eps = 1e-2 and 1e-3 above the quadrature threshold
# 2*beta = d + 1/(d+2), with their error estimates, from the Gauss-Kronrod
# integrator at tol 1e-10; it converged this far from the threshold.
BETAPRIME_NEAR_THRESHOLD = {
    2: ((0.4835396338450688, 5.095837067931349e-13), (0.48510810729391296, 3.9319120050244185e-12)),
    3: ((0.2340049281246716, 1.7450216710397082e-14), (0.23586304580961698, 1.898519832161166e-12)),
    5: ((0.055485872440114735, 2.240695970111245e-14), (0.05656792302953087, 3.560182500310264e-13)),
    8: ((0.0065435957068547155, 4.957584702156358e-15), (0.006802920033207118, 3.1557911260802455e-14)),
}


@pytest.mark.parametrize("tol", ["1e-10", "1e-12"])
def test_large_beta_bar_is_honest(capsys, tol):
    # mpmath reference of the real-line integral at 80 and 110 digits; with the constants
    # taken as a difference of two lgammas near 500 the error was 19.5x (43x) the bar
    code, out, _ = run_cli(
        capsys, "compute", "--family", "betaprime", "--dim", "5", "--beta", "500",
        "--method", "quadrature", "--tol", tol,
    )
    assert code == 0
    (rec,) = parse_json_lines(out)
    assert abs(rec["value"] - 0.004788260260431552) <= 3.0 * rec["abs_error"]


class TestBetaPrimeThreshold:
    """Slow decay near the threshold: every query resolves, none passes a wrong value."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_values_near_threshold(self, capsys, d):
        threshold = 0.5 * d + 0.5 / (d + 2)
        if d == 1:
            # compute answers the line from the registry, so integrate n = 3 directly
            cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-12)
            for k in range(2, 8):
                res = quadrature_probability(Distribution("beta_prime", 1, threshold + 10.0**-k), cfg)
                assert abs(res.value - 1.0) <= 3.0 * res.abs_error_estimate, k
            return
        records = []
        for k in range(2, 8):
            code, out, _ = run_cli(
                capsys, "compute", "--family", "betaprime", "--dim", str(d),
                "--beta", repr(threshold + 10.0**-k), "--method", "quadrature", "--tol", "1e-8",
            )
            assert code == 0, k
            (rec,) = parse_json_lines(out)
            records.append(rec)
        for rec, (value, estimate) in zip(records, BETAPRIME_NEAR_THRESHOLD[d]):
            assert abs(rec["value"] - value) <= 3.0 * (rec["abs_error"] + estimate)
        values = [rec["value"] for rec in records]
        assert values == sorted(values)


# Beta-family results with bars wholly below 0, as an earlier line quadrature
# returned them, keyed by (d, beta); every one of these inputs now gets a bar
# that contains 0, so the guard is tested through a stand-in.
_BARS_BELOW_ZERO = {
    (24, 0.0): (-1.044305e-06, 7.347e-07),
    (16, 0.5): (-7.795738e-05, 6.023e-05),
    (16, 0.75): (-7.435789e-05, 3.051e-05),
    (16, 1.0): (-7.226275e-05, 2.302e-05),
    (16, 1.5): (-6.408940e-05, 6.091e-05),
}


def _stub_bars_below_zero(monkeypatch):
    """Make cli's sylvester_probability give the bars above to quadrature queries."""
    real = cli.sylvester_probability

    def stub(dist, method, cfg):
        bar = _BARS_BELOW_ZERO.get((dist.d, dist.beta))
        if bar is None or (method != "quadrature" and registry.lookup(dist.family, dist.d, dist.beta)):
            return real(dist, method=method, cfg=cfg)
        return EvalResult(*bar, "quadrature")

    monkeypatch.setattr(cli, "sylvester_probability", stub)


def _refuse_work_arrays(monkeypatch):
    """Make any Monte Carlo block allocation fail the test."""
    def refuse(k, size):
        raise AssertionError(f"a work array of {size} trials was allocated at k = {k}")

    monkeypatch.setattr(geomc, "_slot", refuse)


class TestMc:
    def test_deterministic_output(self, capsys):
        args = ("mc", "--family", "gauss", "--dim", "2", "--trials", "20000", "--seed", "7")
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_line_distribution(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--family", "beta", "--dim", "1", "--beta", "2",
            "--trials", "1000", "--seed", "1",
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        assert rec["value"] == 1.0
        assert rec["trials"] == 1000
        assert rec["seed"] == 1
        assert rec["abs_error"] is None and rec["stderr"] is not None

    def test_estimate_near_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--family", "gauss", "--dim", "2",
            "--trials", "100000", "--seed", "7",
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        exact = 1.0 - (6.0 / math.pi) * math.asin(1.0 / 3.0)
        assert abs(rec["value"] - exact) <= 4.0 * rec["stderr"]

    def test_env_seed_default_and_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SYLVESTER_SEED", "99")
        code, out, _ = run_cli(
            capsys, "mc", "--family", "beta", "--dim", "2", "--beta", "1", "--trials", "5000",
        )
        assert code == 0
        assert parse_json_lines(out)[0]["seed"] == 99
        code, out, _ = run_cli(
            capsys, "mc", "--family", "beta", "--dim", "2", "--beta", "1",
            "--trials", "5000", "--seed", "3",
        )
        assert parse_json_lines(out)[0]["seed"] == 3

    def test_non_integer_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SYLVESTER_SEED", "seven")
        code, out, err = run_cli(capsys, "mc", "--family", "gauss", "--dim", "2", "--trials", "10")
        assert (code, out) == (2, "")
        assert "SYLVESTER_SEED must be an integer" in err

    @pytest.mark.parametrize("d", [39, 200, 10**6])
    def test_large_dimension_exits_2_before_any_block(self, capsys, monkeypatch, d):
        _refuse_work_arrays(monkeypatch)
        code, out, err = run_cli(capsys, "mc", "--family", "gauss", "--dim", str(d), "--trials", "1")
        assert (code, out) == (2, "")
        assert "Monte Carlo accepts dimension d <= 38" in err

    @pytest.mark.parametrize("workers", ["65", "100000"])
    def test_workers_above_the_ceiling_exit_2_before_any_thread(self, capsys, monkeypatch, workers):
        # one 15 MB work slot per worker at d = 38, all allocated before any worker starts
        _refuse_work_arrays(monkeypatch)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(geomc, "ThreadPoolExecutor", no_pool)
        code, out, err = run_cli(
            capsys, "mc", "--family", "gauss", "--dim", "38", "--workers", workers, "--trials", "10000000",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "workers must be an integer in [1, 64]" in err

    def test_trials_beyond_the_generator_windows_exit_2(self, capsys, monkeypatch):
        # block i draws from Philox counters i << 128, so 2**142 trials is the most any call can run
        _refuse_work_arrays(monkeypatch)
        code, out, err = run_cli(capsys, "mc", "--family", "gauss", "--dim", "2", "--trials", "1" + "0" * 400)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "trials must be at most 2**142" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta,expected", [("1e307", 0), ("1e308", 2)])
    @pytest.mark.parametrize("family", ["beta", "betaprime"])
    def test_huge_beta(self, capsys, monkeypatch, family, beta, expected):
        # at 1e308 the gamma draws of the point scale s^2 = 2G overflow, so
        # the query is refused before any block is allocated
        if expected:
            _refuse_work_arrays(monkeypatch)
        code, out, err = run_cli(
            capsys, "mc", "--family", family, "--dim", "3", "--beta", beta, "--trials", "10",
        )
        assert code == expected
        if expected:
            assert out == ""
            assert err.startswith("error:") and "overflows double precision" in err
        else:
            assert 0.0 <= parse_json_lines(out)[0]["value"] <= 1.0

    def test_invalid_distribution_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "mc", "--family", "betaprime", "--dim", "4", "--beta", "1.5",
            "--trials", "100", "--seed", "1",
        )
        assert code == 2
        assert "beta" in err

    @pytest.mark.parametrize("beta", ["-nan", "-inf", "-Infinity", "nan"])
    def test_non_finite_beta_exits_2(self, capsys, beta):
        code, out, err = run_cli(
            capsys, "mc", "--family", "betaprime", "--dim", "4", "--beta", beta,
            "--trials", "100", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "requires a finite beta parameter" in err

    @pytest.mark.parametrize("d,k", [(d, k) for d in (2, 3, 5, 8) for k in (2, 3)])
    def test_matches_quadrature_near_threshold(self, capsys, d, k):
        threshold = 0.5 * d + 0.5 / (d + 2)
        code, out, _ = run_cli(
            capsys, "mc", "--family", "betaprime", "--dim", str(d),
            "--beta", repr(threshold + 10.0**-k), "--trials", "200000",
            "--seed", str(20240 + d), "--workers", "2",
        )
        assert code == 0
        (rec,) = parse_json_lines(out)
        value, _ = BETAPRIME_NEAR_THRESHOLD[d][k - 2]
        assert abs(rec["value"] - value) <= 4.0 * rec["stderr"]

    def test_heavy_tailed_line_is_certain(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--family", "betaprime", "--dim", "1", "--beta", "0.6",
            "--trials", "100000", "--seed", "1",
        )
        assert code == 0
        assert parse_json_lines(out)[0]["value"] == 1.0

    def test_too_many_undecided_trials_exit_2(self, capsys):
        # beta - d/2 = 0.01: a share of the draws sit too close to infinity to decide
        code, out, err = run_cli(
            capsys, "mc", "--family", "betaprime", "--dim", "5", "--beta", "2.51",
            "--trials", "100000", "--seed", "1",
        )
        assert code == 2 and out == ""
        count = int(re.search(r"(\d+) numerically undecided trials", err).group(1))
        assert count > 0.5 * math.sqrt(100_000)

    @settings(max_examples=100, deadline=None)
    @example(family="beta", d=1, offset=0.99999, seed=0)  # beta = -1.0000000000065512e-05
    @given(
        family=st.sampled_from(["gauss", "beta", "betaprime"]),
        d=st.one_of(st.integers(1, 8), st.integers(39, 10**6)),
        offset=st.one_of(
            st.floats(-8.0, -1.0).map(lambda e: 10.0**e),  # near the family's threshold
            st.floats(0.1, 5.0),
            st.floats(1.0, 4.0).map(lambda e: 10.0**e),  # up to 1e4
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mc_gives_a_value_or_a_typed_error(self, family, d, offset, seed):
        argv = ["mc", "--family", family, "--dim", str(d), "--trials", "2000", "--seed", str(seed)]
        if family != "gauss":
            # beta > -1 for the beta family, beta > d/2 for beta-prime
            argv += ["--beta", repr((-1.0 if family == "beta" else 0.5 * d) + offset)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                pytest.MonkeyPatch.context() as monkeypatch:
            if d > 38:  # refused before any block is allocated
                _refuse_work_arrays(monkeypatch)
            code = main(argv)
        assert code in (0, 2)
        if d > 38:
            assert code == 2
        if code == 0:
            assert 0.0 <= parse_json_lines(out.getvalue())[0]["value"] <= 1.0


class TestSweep:
    def test_row_count_and_monotone_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "beta", "--dim", "2",
            "--beta-min", "-0.5", "--beta-max", "2", "--steps", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,value,abs_error"
        data = lines[1:-1]
        assert len(data) == 6
        values = [float(row.split(",")[1]) for row in data]
        assert values == sorted(values)
        assert lines[-1] == "# monotone non-decreasing: true"

    def test_first_point_outside_threshold_is_skipped(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "betaprime", "--dim", "2",
            "--beta-min", "1.05", "--beta-max", "4", "--steps", "4",
        )
        assert code == 0
        assert "skipping beta=1.05" in err
        data = out.strip().splitlines()[1:-1]
        assert len(data) == 4  # the remaining grid points all evaluate
        values = [float(row.split(",")[1]) for row in data]
        assert values == sorted(values, reverse=True)

    def test_negative_beta_min_in_scientific_notation(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "beta", "--dim", "2",
            "--beta-min", "-1e-05", "--beta-max", "1", "--steps", "1",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("-1e-05,")

    def test_whole_range_invalid_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--family", "betaprime", "--dim", "2",
            "--beta-min", "0.2", "--beta-max", "0.9", "--steps", "3",
        )
        assert code == 2
        assert "validity region" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["beta", "betaprime"])
    def test_huge_betas_are_skipped_as_overflows(self, capsys, family):
        code, _, err = run_cli(
            capsys, "sweep", "--family", family, "--dim", "2",
            "--beta-min", "1e306", "--beta-max", "1e308", "--steps", "2",
        )
        assert code == 2
        assert err.count("overflows double precision") == 3
        assert "validity region" in err

    def test_single_step_matches_compute_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "beta", "--dim", "2",
            "--beta-min", "0.25", "--beta-max", "0.75", "--steps", "1",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:-1]
        sweep_values = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
        for beta, value in sweep_values.items():
            code, cout, _ = run_cli(
                capsys, "compute", "--family", "beta", "--dim", "2",
                "--beta", beta, "--tol", "1e-6",
            )
            assert code == 0
            assert parse_json_lines(cout)[0]["value"] == value

    def test_all_points_unresolved_exits_3(self, capsys):
        # at d = 15 these probabilities (~1e-13) sit inside their error bars
        code, out, err = run_cli(
            capsys, "sweep", "--family", "beta", "--dim", "15",
            "--beta-min", "0.7", "--beta-max", "0.8", "--steps", "2", "--tol", "1e-8",
        )
        assert code == 3
        assert out.strip() == "beta,value,abs_error"
        assert err.count(": unresolved") == 3
        assert "monotone" not in out

    def test_unresolved_point_is_skipped(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "beta", "--dim", "15",
            "--beta-min", "0.7", "--beta-max", "20.7", "--steps", "4", "--tol", "1e-8",
        )
        assert code == 0
        assert "skipping beta=0.7: unresolved" in err
        lines = out.strip().splitlines()
        assert [row.split(",")[0] for row in lines[1:-1]] == ["5.7", "10.7", "15.7", "20.7"]
        assert lines[-1] == "# monotone non-decreasing: true"

    def test_point_whose_error_bar_excludes_probabilities_is_skipped(self, capsys, monkeypatch):
        # at tol 0.5, d = 16: beta = 0.5 and 1.5 give -7.8e-5 +- 6.0e-5 and -6.4e-5 +- 6.1e-5,
        # beta = 1 is the closed form and beta = 2 is unresolved
        _stub_bars_below_zero(monkeypatch)
        code, out, err = run_cli(
            capsys, "sweep", "--family", "beta", "--dim", "16",
            "--beta-min", "0.5", "--beta-max", "2", "--steps", "3", "--tol", "0.5",
        )
        assert code == 0
        assert err.count("excludes [0, 1]") == 2
        assert "skipping beta=0.5: value" in err and "skipping beta=1.5: value" in err
        lines = out.strip().splitlines()
        assert [row.split(",")[0] for row in lines[1:-1]] == ["1"]

    def test_only_points_excluding_probabilities_exits_3(self, capsys, monkeypatch):
        _stub_bars_below_zero(monkeypatch)
        code, out, err = run_cli(
            capsys, "sweep", "--family", "beta", "--dim", "16",
            "--beta-min", "0.5", "--beta-max", "0.75", "--steps", "1", "--tol", "0.5",
        )
        assert code == 3
        assert out.strip() == "beta,value,abs_error"
        assert err.count("excludes [0, 1]") == 2
        assert "no sweep point is resolved" in err

    @pytest.mark.parametrize(
        "bounds,message",
        [(("--beta-min", "0", "--beta-max", "1", "--steps", "0"), "--steps must be >= 1"),
         (("--beta-min", "1", "--beta-max", "0.5", "--steps", "2"), "--beta-max must be >= --beta-min"),
         # a non-finite bound or step would make every grid point nan, the valid ones too
         (("--beta-min", "0", "--beta-max", "inf", "--steps", "2"), "--beta-max must be finite"),
         (("--beta-min", "nan", "--beta-max", "1", "--steps", "2"), "--beta-min must be finite"),
         (("--beta-min", "0", "--beta-max", "nan", "--steps", "2"), "--beta-max must be finite"),
         (("--beta-min=-inf", "--beta-max", "1", "--steps", "2"), "--beta-min must be finite"),
         (("--beta-min", "-1e308", "--beta-max", "1e308", "--steps", "2"), "the step (--beta-max - --beta-min)"),
         # negative non-finite spellings were taken for options
         (("--beta-min", "-inf", "--beta-max", "1", "--steps", "2"), "--beta-min must be finite"),
         (("--beta-min", "-NaN", "--beta-max", "1", "--steps", "2"), "--beta-min must be finite"),
         (("--beta-min", "0", "--beta-max", "-infinity", "--steps", "2"), "--beta-max must be finite")],
    )
    @pytest.mark.filterwarnings("error")
    def test_malformed_grid_exits_2(self, capsys, bounds, message):
        code, out, err = run_cli(capsys, "sweep", "--family", "beta", "--dim", "2", *bounds)
        assert (code, out) == (2, "")
        assert message in err

    def test_exact_zero_is_resolved(self, capsys):
        # the sphere limit beta = -1 is exactly 0 with abs_error 0
        code, out, err = run_cli(
            capsys, "sweep", "--family", "beta", "--dim", "2",
            "--beta-min", "-1", "--beta-max", "0", "--steps", "2",
        )
        assert code == 0
        assert err == ""
        assert out.strip().splitlines()[1] == "-1,0.0000000000000000e+00,0.000e+00"

    def test_gaussian_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--family", "gauss", "--dim", "2",
            "--beta-min", "0", "--beta-max", "1", "--steps", "2",
        )
        assert code == 2


def test_closed_stdout_exits_141_without_a_traceback():
    # 2,001 rows, about 78 KB, outgrow a 64 KB pipe, so the sweep still writes
    # after the reader has read one line and gone
    src = str(pathlib.Path(sylvester.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = ["sweep", "--family", "beta", "--dim", "2", "--beta-min", "0", "--beta-max", "2", "--steps", "2000"]
    with subprocess.Popen(
        [sys.executable, "-m", "sylvester.cli", *argv], env=env, bufsize=0,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.readline() == b"beta,value,abs_error\n"
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=300) == 141  # 128 + SIGPIPE
    assert stderr == b""


class TestTable:
    def test_arcsine_preset(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--preset", "arcsine")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + d = 2..5
        assert "25411/3670016" in out
        assert "0.0069239480" in out

    def test_semispherical_preset(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--preset", "semispherical")
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        assert "401/1280" in out

    def test_kingman_preset_line_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--preset", "kingman")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # header + d = 1..8
        first = lines[1].split()
        assert first[0] == "beta" and first[1] == "1"
        assert float(lines[1].split()[-1]) == 1.0

    def test_betaprime_preset(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--preset", "betaprime-special")
        assert code == 0
        assert "0.4" in out

    def test_unknown_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table", "--preset", "cauchy"])
        assert info.value.code == 2
        capsys.readouterr()


# compute queries, each (family flag, d, beta, method flag, tol), that exit 0
LIBRARY_QUERIES = [
    ("gauss", 3, None, "quadrature", 1e-10),
    ("gauss", 12, None, "auto", 1e-8),
    ("gauss", 25, None, "quadrature", 1e-10),  # unresolved: |value| <= abs_error
    ("gauss", 1, None, "quadrature", 1e-10),  # the line, from the registry
    ("beta", 5, 0.0, "quadrature", 1e-10),
    ("beta", 4, 0.0, "auto", 1e-8),
    ("beta", 3, 1.37, "auto", 1e-8),
    ("beta", 12, 2.0, "quadrature", 1e-10),
    ("beta", 1, -0.7, "quadrature", 1e-8),
    ("betaprime", 3, 2.9, "quadrature", 1e-10),
    ("betaprime", 2, 1.13, "quadrature", 1e-8),
    ("betaprime", 5, 3.5, "closed-form", 1e-8),
]

_LIBRARY_FAMILY = {"gauss": "gaussian", "beta": "beta", "betaprime": "beta_prime"}


def _library_record(family, d, beta, method, tol):
    """The compute record built from sylvester_probability, called directly."""
    result = sylvester_probability(
        Distribution(_LIBRARY_FAMILY[family], d, beta),
        method=method.replace("-", "_"),
        cfg=QuadratureConfig(rel_tol=tol, abs_tol=tol * 1e-4),
    )
    return {
        "family": family, "d": d, "beta": beta, "method": result.method, "value": result.value,
        "abs_error": result.abs_error_estimate, "stderr": None, "trials": None, "seed": None,
    }


class TestCliEqualsLibrary:
    """compute prints, bit for bit, what the library returns in the same process."""

    @staticmethod
    def _argv(family, d, beta, method, tol, fmt):
        beta_flags = [] if beta is None else ["--beta", repr(beta)]
        return ["compute", "--family", family, "--dim", str(d), *beta_flags,
                "--method", method, "--tol", repr(tol), "--format", fmt]

    @pytest.mark.parametrize("query", LIBRARY_QUERIES, ids=lambda q: " ".join(map(str, q)))
    def test_json(self, capsys, query):
        code, out, err = run_cli(capsys, *self._argv(*query, "json"))
        assert (code, err) == (0, "")
        assert out == json.dumps(_library_record(*query)) + "\n"

    @pytest.mark.parametrize("query", LIBRARY_QUERIES[::3], ids=lambda q: " ".join(map(str, q)))
    def test_csv(self, capsys, query):
        code, out, err = run_cli(capsys, *self._argv(*query, "csv"))
        assert (code, err) == (0, "")
        row = ["" if v is None else str(v) for v in _library_record(*query).values()]
        assert out == ",".join(RECORD_FIELDS) + "\n" + ",".join(row) + "\n"


class TestParseSurface:
    """Exit codes and the usage/error lines of argparse's answers."""

    COMPUTE_USAGE = "usage: sylvester compute [-h] --family {beta,betaprime,gauss} --dim D"

    @staticmethod
    def _parse(capsys, monkeypatch, *argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        captured = capsys.readouterr()
        return info.value.code, captured.out.splitlines(), captured.err.splitlines()

    def test_no_command(self, capsys, monkeypatch):
        code, out, err = self._parse(capsys, monkeypatch)
        assert (code, out) == (2, [])
        assert err == [
            "usage: sylvester [-h] {compute,mc,sweep,verify,table} ...",
            "sylvester: error: the following arguments are required: command",
        ]

    def test_unknown_command(self, capsys, monkeypatch):
        code, out, err = self._parse(capsys, monkeypatch, "bogus", "--dim", "2")
        assert (code, out, len(err)) == (2, [], 2)
        assert err[0] == "usage: sylvester [-h] {compute,mc,sweep,verify,table} ..."
        assert err[1].startswith("sylvester: error: argument command: invalid choice: ")
        assert "bogus" in err[1]

    def test_help(self, capsys, monkeypatch):
        code, out, err = self._parse(capsys, monkeypatch, "--help")
        assert (code, err) == (0, [])
        assert out[0] == "usage: sylvester [-h] {compute,mc,sweep,verify,table} ..."

    def test_compute_help(self, capsys, monkeypatch):
        code, out, err = self._parse(capsys, monkeypatch, "compute", "--help")
        assert (code, err) == (0, [])
        assert out[0] == self.COMPUTE_USAGE

    def test_missing_dimension(self, capsys, monkeypatch):
        code, out, err = self._parse(capsys, monkeypatch, "compute", "--family", "gauss")
        assert (code, out) == (2, [])
        assert err[0] == self.COMPUTE_USAGE
        assert err[-1] == "sylvester compute: error: the following arguments are required: --dim"

    def test_unknown_family(self, capsys, monkeypatch):
        code, out, err = self._parse(capsys, monkeypatch, "compute", "--family", "weird", "--dim", "2")
        assert (code, out) == (2, [])
        assert err[0] == self.COMPUTE_USAGE
        assert err[-1].startswith("sylvester compute: error: argument --family: invalid choice: ")
        assert "weird" in err[-1]

    def test_unrecognized_option_is_reported_by_the_command(self, capsys, monkeypatch):
        code, out, err = self._parse(
            capsys, monkeypatch, "compute", "--family", "gauss", "--dim", "2", "--bogus", "x"
        )
        assert (code, out) == (2, [])
        assert err[0] == self.COMPUTE_USAGE
        assert err[-1] == "sylvester compute: error: unrecognized arguments: --bogus x"


# verify's rows in report order, as `sylvester verify` prints them
BASIC_ROWS = [
    "gaussian-closed-form[d=2]", "gaussian-closed-form[d=3]",
    "route-agreement[beta d=2 beta=0.0]", "route-agreement[beta d=3 beta=0.0]",
    "route-agreement[beta d=4 beta=0.0]", "route-agreement[beta d=2 beta=1.0]",
    "route-agreement[beta d=3 beta=1.0]", "route-agreement[beta d=2 beta=-0.5]",
    "route-agreement[beta d=3 beta=-0.5]", "route-agreement[beta d=4 beta=-0.5]",
    "route-agreement[beta d=5 beta=-0.5]", "route-agreement[beta d=2 beta=0.5]",
    "route-agreement[beta d=3 beta=0.5]", "route-agreement[beta d=4 beta=0.5]",
    "route-agreement[beta_prime d=2 beta=2.0]", "route-agreement[beta_prime d=3 beta=2.5]",
    "route-agreement[beta_prime d=4 beta=3.0]", "endpoints-d1", "endpoints-sphere",
    "gaussian-limit[d=2]", "gaussian-limit[d=3]", "mc-cross[gaussian d=2]",
    "mc-cross[gaussian d=3]", "mc-cross[gaussian d=4]", "mc-cross[beta d=2]",
    "mc-cross[beta d=3]", "mc-cross[beta d=4]", "mc-cross[beta_prime d=2]",
    "mc-cross[beta_prime d=3]", "mc-cross[beta_prime d=4]", "lemma-projection-identity",
    "reproducibility", "error-honesty", "conjecture-beta-monotone[d=2]",
    "conjecture-beta-prime-monotone[d=2]", "cauchy-ratio",
]
FULL_ROWS = [
    "gaussian-closed-form[d=2]", "gaussian-closed-form[d=3]",
    "route-agreement[beta d=2 beta=0.0]", "route-agreement[beta d=3 beta=0.0]",
    "route-agreement[beta d=4 beta=0.0]", "route-agreement[beta d=5 beta=0.0]",
    "route-agreement[beta d=6 beta=0.0]", "route-agreement[beta d=7 beta=0.0]",
    "route-agreement[beta d=8 beta=0.0]", "route-agreement[beta d=2 beta=1.0]",
    "route-agreement[beta d=3 beta=1.0]", "route-agreement[beta d=4 beta=1.0]",
    "route-agreement[beta d=5 beta=1.0]", "route-agreement[beta d=6 beta=1.0]",
    "route-agreement[beta d=2 beta=-0.5]", "route-agreement[beta d=3 beta=-0.5]",
    "route-agreement[beta d=4 beta=-0.5]", "route-agreement[beta d=5 beta=-0.5]",
    "route-agreement[beta d=2 beta=0.5]", "route-agreement[beta d=3 beta=0.5]",
    "route-agreement[beta d=4 beta=0.5]", "route-agreement[beta_prime d=2 beta=2.0]",
    "route-agreement[beta_prime d=3 beta=2.5]", "route-agreement[beta_prime d=4 beta=3.0]",
    "route-agreement[beta_prime d=5 beta=3.5]", "route-agreement[beta_prime d=6 beta=4.0]",
    "route-agreement[beta_prime d=7 beta=4.5]", "route-agreement[beta_prime d=8 beta=5.0]",
    "endpoints-d1", "endpoints-sphere", "gaussian-limit[d=2]", "gaussian-limit[d=3]",
    "mc-cross[gaussian d=2]", "mc-cross[gaussian d=3]", "mc-cross[gaussian d=4]",
    "mc-cross[beta d=2]", "mc-cross[beta d=3]", "mc-cross[beta d=4]",
    "mc-cross[beta_prime d=2]", "mc-cross[beta_prime d=3]", "mc-cross[beta_prime d=4]",
    "lemma-projection-identity", "reproducibility", "error-honesty",
    "conjecture-beta-monotone[d=2]", "conjecture-beta-prime-monotone[d=2]",
    "conjecture-beta-monotone[d=3]", "conjecture-beta-prime-monotone[d=3]", "cauchy-ratio",
]


class TestVerify:
    @pytest.mark.parametrize("suite,expected", [("basic", BASIC_ROWS), ("full", FULL_ROWS)])
    def test_table_rows_are_pinned(self, suite, expected):
        rows = verification.checks(suite)
        names = [row.name for row in rows]
        assert names == expected
        assert len(set(names)) == len(names)
        assert [row.name for row in rows if not row.hard] == [
            name for name in expected if name.startswith(("conjecture-", "cauchy-"))
        ]
        # the rows the benchmark oracle judges as 4-stderr statistical comparisons
        assert any(name.startswith("mc-cross[") for name in names)
        assert "lemma-projection-identity" in names

    def test_unknown_suite_rejected(self):
        with pytest.raises(SylvesterError):
            verification.checks("huge")

    def test_corrupted_registry_is_caught_and_named(self, monkeypatch):
        real = registry.lookup

        def corrupted(family, d, beta):
            entry = real(family, d, beta)
            if entry is not None and family == "beta" and d == 3 and beta == 0.0:
                return registry.ClosedFormEntry(family, d, beta, entry.description,
                                                entry.value * 1.001)
            return entry

        routes = [row for row in verification.checks("basic") if row.name.startswith("route-")]
        monkeypatch.setattr(verification, "checks", lambda suite: routes)
        out = io.StringIO()
        failures = verification.hard_failures(verification.run_suite("basic", lookup=corrupted, out=out))
        assert [failure.name for failure in failures] == ["route-agreement[beta d=3 beta=0.0]"]
        assert "FAIL  route-agreement[beta d=3 beta=0.0]: closed=" in out.getvalue()

    def test_missing_mc_entry_fails_its_row(self, monkeypatch):
        def missing(family, d, beta):
            if family == "beta" and d == 2 and beta == 0.0:
                return None
            return registry.lookup(family, d, beta)

        rows = [row for row in verification.checks("basic") if row.name == "mc-cross[beta d=2]"]
        monkeypatch.setattr(verification, "checks", lambda suite: rows)
        results = verification.run_suite("basic", lookup=missing)
        assert [(r.name, r.status, r.detail) for r in results] == [
            ("mc-cross[beta d=2]", "FAIL", "registry entry missing"),
        ]

    def test_missing_gaussian_entry_fails_its_rows(self, monkeypatch):
        # the Gaussian closed-form rows, the Gaussian-limit rows, the Monte Carlo rows
        # at d = 2, 3 and the lemma take their values from the registry
        def missing(family, d, beta):
            return None if family == "gaussian" else registry.lookup(family, d, beta)

        names = [
            "gaussian-closed-form[d=2]", "gaussian-closed-form[d=3]",
            "gaussian-limit[d=2]", "gaussian-limit[d=3]",
            "mc-cross[gaussian d=2]", "mc-cross[gaussian d=3]", "lemma-projection-identity",
        ]
        rows = [row for row in verification.checks("basic") if row.name in names]
        monkeypatch.setattr(verification, "checks", lambda suite: rows)
        results = verification.run_suite("basic", lookup=missing)
        assert [(r.name, r.status, r.detail) for r in results] == [
            (name, "FAIL", "registry entry missing") for name in names
        ]

    def test_row_error_fails_with_its_message(self, monkeypatch):
        def broken(seed, lookup):
            raise NonConvergenceError("no convergence")

        rows = [verification.Check("broken", broken), verification.Check("soft", broken, hard=False)]
        monkeypatch.setattr(verification, "checks", lambda suite: rows)
        results = verification.run_suite("basic")
        assert [(r.status, r.detail) for r in results] == [
            ("FAIL", "error: no convergence"), ("WARN", "error: no convergence"),
        ]

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_out_of_range_seed_exits_2_before_any_row(self, capsys, monkeypatch, via_env):
        if via_env:
            monkeypatch.setenv("SYLVESTER_SEED", "-1")
        code, out, err = run_cli(capsys, "verify", *([] if via_env else ["--seed", "-1"]))
        assert (code, out) == (2, "")
        assert "seed must be an unsigned 64-bit integer" in err

    def test_largest_seed_runs_the_lemma(self, capsys, monkeypatch):
        # the cone angle draws from the next seed, which wraps around to 0
        rows = [row for row in verification.checks("basic") if row.name == "lemma-projection-identity"]
        monkeypatch.setattr(verification, "checks", lambda suite: rows)
        code, out, _ = run_cli(capsys, "verify", "--seed", str(2**64 - 1))
        assert code == 0
        assert out.startswith("PASS  lemma-projection-identity: ")

    def test_any_other_sylvester_error_exits_2(self, capsys, monkeypatch):
        def boom(dist, mc):
            raise SylvesterError("boom")

        monkeypatch.setattr(cli, "estimate_sylvester", boom)
        code, _, err = run_cli(capsys, "mc", "--family", "gauss", "--dim", "2", "--trials", "10")
        assert code == 2
        assert "error: boom" in err

    def test_exit_code_taxonomy(self, capsys):
        # argparse usage failures map to 2 as well
        with pytest.raises(SystemExit) as info:
            main(["compute", "--family", "weird", "--dim", "2"])
        assert info.value.code == 2
        capsys.readouterr()


# compute queries for every family at two tolerances; at 1e-10, betaprime d = 2
# beta = 1.13, near its threshold, refines past the first level
KERNEL_QUERIES = [
    ["compute", "--method", "quadrature", "--tol", tol, "--family", *query]
    for tol in ("1e-8", "1e-10")
    for query in (
        ["gauss", "--dim", "3"], ["gauss", "--dim", "10"], ["gauss", "--dim", "18"],
        ["beta", "--dim", "3", "--beta", "0"], ["beta", "--dim", "5", "--beta", "0.3"],
        ["beta", "--dim", "8", "--beta", "2.7"], ["betaprime", "--dim", "2", "--beta", "1.13"],
        ["betaprime", "--dim", "3", "--beta", "2.5"], ["betaprime", "--dim", "4", "--beta", "3.7"],
    )
] + [["verify", "--suite", "basic", "--seed", "42"]]


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE=Prescott names OpenBLAS's baseline x86-64 kernel",
)
def test_stdout_does_not_depend_on_the_blas_kernel():
    """Two processes, one on OpenBLAS's SSE3 kernel, print the same bytes.

    Without a BLAS-backed sum in the quadrature or in the lemma estimators'
    per-trial maps, the kernel OpenBLAS picks at run time cannot move a
    printed value's last bits or a lemma count.
    """
    script = (
        "import numpy as np\n"
        "from sylvester.cli import main\n"
        "from sylvester.geomc import McConfig, SimplicialCone, estimate_cone_angle, projection_experiment\n"
        f"for argv in {KERNEL_QUERIES!r}:\n"
        "    print(main(argv), flush=True)\n"
        "e = np.eye(4)\n"
        "print(projection_experiment(e, McConfig(100_000, 501)).successes)\n"
        "print(estimate_cone_angle(SimplicialCone(e[:3] - e[3]), McConfig(100_000, 502)).successes)\n"
    )
    src = str(pathlib.Path(sylvester.__file__).resolve().parents[1])
    children = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        children.append(subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ))
    native, prescott = (child.communicate(timeout=300)[0] for child in children)
    assert [child.returncode for child in children] == [0, 0]
    assert native.count(b"\n") > 2 * len(KERNEL_QUERIES)
    assert native == prescott
