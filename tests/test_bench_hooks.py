"""Smoke test of the benchmark's trace hooks against the current package.

The traced benchmark run (``perfbench/run.py --trace 1``) replaces functions
at the names their callers bind: ``anglesums.integrate_line`` (called with
``on_refinement=``), ``anglesums.CumulativeIntegral(g, x, even_integrand=)``,
``anglesums.h_imag_cdf`` (called positionally) and the ``cli`` and
``verification`` globals.  A refactor that renames one of them or changes its
call shape fails here, in the test suite, rather than in a traced benchmark
run.  The harness modules are imported from ``perfbench/`` and only read.
"""

import importlib
import sys
from pathlib import Path

from sylvester.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_harness(*names):
    sys.path.insert(0, str(PERFBENCH))
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # write no cache files into the benchmark directory
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        sys.path.remove(str(PERFBENCH))


layers, tracer = _import_harness("layers", "tracer")

COMMANDS = [
    ("compute", "--family", "gauss", "--dim", "4"),
    ("compute", "--family", "beta", "--dim", "3", "--beta", "0.25", "--method", "quadrature"),
    ("mc", "--family", "gauss", "--dim", "2", "--trials", "20000", "--seed", "1", "--workers", "2"),
    ("verify", "--suite", "basic"),
]


def test_every_layer_is_traced(capsys):
    trace = tracer.Tracer()
    with layers.installed(trace):
        codes = [main(list(argv)) for argv in COMMANDS]
    capsys.readouterr()
    assert codes == [0] * len(COMMANDS)

    metrics = layers.layer_metrics(trace, {})
    for name in (
        "specfun.h_imag_cdf.calls",
        "quad.integrate_line.calls",
        "quad.CumulativeIntegral.builds",
        "anglesums.integrand.evals",
        "geomc.estimate_sylvester.trials",
    ):
        assert metrics[name] > 0, name
