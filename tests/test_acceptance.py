"""Acceptance suite: the hard rows of the full cross-check table, one test each.

``verification.checks("full")`` is the table that ``sylvester verify --suite
full`` prints.  ``test_check`` runs every hard row under its own name, at the
acceptance seed: ``mc-cross[... d=k]`` at 20240 + k, the projection lemma at
501 (its cone angle at 502), every other row at 42.  A row runs once per
session; the tests after ``test_check`` reuse its outcome and cover what no
row does: the time limits, the dimensions criterion 7 spans, two named
registry entries, the Monte Carlo rows' shared draw, the report-only rows,
CLI reproducibility and ``verify --suite basic``.
"""

import functools
import json
import math
import time

import pytest

from sylvester import verification
from sylvester.cli import main
from sylvester.probability import Distribution, closed_form_lookup

ROWS = {check.name: check for check in verification.checks("full")}
HARD = [name for name, check in ROWS.items() if check.hard]


def acceptance_seed(name):
    if name.startswith("mc-cross["):
        return 20240 + int(name.rsplit("d=", 1)[1].rstrip("]"))
    return 501 if name == "lemma-projection-identity" else 42


@functools.cache
def outcome(name):
    """(passed, detail, seconds) of one row at its acceptance seed."""
    start = time.perf_counter()
    passed, detail = ROWS[name].run(acceptance_seed(name))
    return passed, detail, time.perf_counter() - start


@pytest.mark.parametrize("name", HARD)
def test_check(name):
    passed, detail, _ = outcome(name)
    assert passed, detail


def seconds(prefix, suffix=""):
    """Total time of the hard rows named prefix...suffix, all of which must pass."""
    names = [name for name in HARD if name.startswith(prefix) and name.endswith(suffix)]
    assert names and all(outcome(name)[0] for name in names)
    return sum(outcome(name)[2] for name in names)


def test_criterion_01_gaussian_closed_forms():
    assert seconds("gaussian-closed-form[") <= 1.0


def test_criterion_02_uniform_ball_cross_check():
    assert seconds("route-agreement[beta ", " beta=0.0]") <= 30.0


def test_criterion_04_registry_tables():
    p3_arcsine = closed_form_lookup(Distribution("beta", 3, -0.5)).value
    assert p3_arcsine == pytest.approx(539.0 / (144.0 * math.pi**2) - 1.0 / 3.0, rel=1e-15)
    p4_semi = closed_form_lookup(Distribution("beta", 4, 0.5)).value
    assert p4_semi == 112433094897.0 / 8598524526592.0


def test_criterion_07_gaussian_limit():
    names = [name for name in HARD if name.startswith("gaussian-limit[")]
    assert names == ["gaussian-limit[d=2]", "gaussian-limit[d=3]"]
    seconds("gaussian-limit[")


def test_criterion_08_monte_carlo_triangulation():
    assert seconds("mc-cross[") <= 600.0


def test_mc_cross_rows_print_what_one_law_estimates_give(monkeypatch):
    # the rows of one dimension read one shared draw; at the acceptance seeds, on the
    # basic budget of 100,000 trials, each detail is the one that an estimate_sylvester
    # call per row gives
    shared = {check.name: check for check in verification.checks("basic") if check.name.startswith("mc-cross[")}
    assert list(shared) == [name for name in HARD if name.startswith("mc-cross[")]
    details = {name: check.run(acceptance_seed(name))[1] for name, check in shared.items()}

    def one_law_each(dists, mc):
        return [verification.estimate_sylvester(dist, mc) for dist in dists]

    monkeypatch.setattr(verification, "estimate_sylvester_laws", one_law_each)
    rows = {check.name: check for check in verification.checks("basic")}
    for name, detail in details.items():
        assert rows[name].run(acceptance_seed(name))[1] == detail, name


def test_criterion_10_reproducibility(capsys):
    outputs = []
    successes = []
    for workers in (1, 2, 8):
        code = main([
            "mc", "--family", "gauss", "--dim", "2", "--trials", "150000",
            "--seed", "42", "--workers", str(workers),
        ])
        assert code == 0
        out = capsys.readouterr().out
        outputs.append(out)
        rec = json.loads(out)
        successes.append(round(rec["value"] * rec["trials"]))
    assert outputs[0] == outputs[1] == outputs[2]
    assert successes[0] == successes[1] == successes[2]


def test_criterion_12_exploratory_report():
    # report-only rows: the conjectures are never gated, but each sweep must
    # complete (integrate_line raises rather than return a non-finite value),
    # and cauchy-ratio passes only when every ratio is finite and positive
    for name, check in ROWS.items():
        if not check.hard:
            passed, detail = check.run(42)
            print(f"REPORT  {name}: {detail}")
            if name == "cauchy-ratio":
                assert passed, detail


def test_cli_verify_basic_suite(capsys):
    start = time.perf_counter()
    code = main(["verify", "--suite", "basic", "--seed", "42"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert elapsed <= 60.0
    assert "hard failures" in out
