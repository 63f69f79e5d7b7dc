"""Hooks of the traced run into sylvester, and the per-layer metrics they give.

Each hook replaces a public function at the name its caller binds, such as
`anglesums.h_imag_cdf`, the name the Gaussian integrand looks up, or
`cli.estimate_sylvester`.  The callables passed into `integrate_line` (the
integrand and the inner-grid rebuild) are wrapped as well.  Nothing under
src/ changes, and the untraced run executes the original objects.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# integrate_line starts with 8 panels of 15 nodes and doubles the panel count on
# each refinement, so r refinements use 120 * (2**r - 1) nodes
_FIRST_PASS_NODES = 120


def refinements(nodes: int) -> int:
    return round(math.log2(nodes / _FIRST_PASS_NODES + 1))


def _traced_integrate_line(tracer, integrate_line, caller: str):
    integrand, inner_grid = f"{caller}.integrand", f"{caller}.inner_grid"

    def traced(f, *args, on_refinement=None, **kwargs):
        def evals():
            return tracer.leaves.get((tracer.query, integrand), (0,))[0]

        before = evals()
        if on_refinement is not None:
            on_refinement = tracer.wrap(on_refinement, inner_grid)
        frame = tracer.open("quad.integrate_line")
        attrs = {}
        try:
            result = integrate_line(tracer.leaf(f, integrand), *args, on_refinement=on_refinement, **kwargs)
            attrs = {"nodes": result.nodes_used}
            return result
        except Exception as exc:
            # every node is one integrand evaluation, so the count covers failed calls too
            attrs = {"nodes": evals() - before, "error": type(exc).__name__}
            raise
        finally:
            tracer.close(frame, **attrs)

    return traced


def _traced_cumulative(tracer, cumulative_integral):
    def build(g, x_points, even_integrand=False):
        grid = np.asarray(x_points, dtype=float)
        cells = int((grid >= 0.0).sum() if even_integrand else grid.size) - 1
        frame = tracer.open("quad.CumulativeIntegral.build")
        try:
            inner = cumulative_integral(g, x_points, even_integrand=even_integrand)
        finally:
            tracer.close(frame, cells=cells)
        return tracer.leaf(inner, "quad.CumulativeIntegral.lookup")

    return build


def _mc_attrs(result, dist, mc):
    return {"trials": result.trials, "workers": mc.workers, "d": dist.d}


@contextmanager
def installed(tracer):
    """Replace the hooked names for the duration of the block."""
    from sylvester import anglesums, cli, verification

    hooks = [
        (cli, "sylvester_probability", tracer.wrap(cli.sylvester_probability, "probability.sylvester_probability")),
        (cli, "estimate_sylvester", tracer.wrap(cli.estimate_sylvester, "geomc.estimate_sylvester", _mc_attrs)),
        (anglesums, "integrate_line", _traced_integrate_line(tracer, anglesums.integrate_line, "anglesums")),
        (anglesums, "CumulativeIntegral", _traced_cumulative(tracer, anglesums.CumulativeIntegral)),
        (anglesums, "h_imag_cdf", tracer.leaf(anglesums.h_imag_cdf, "specfun.h_imag_cdf")),
        (verification, "run_suite", tracer.wrap(verification.run_suite, "verification.run_suite")),
        (verification, "quadrature_probability",
         tracer.wrap(verification.quadrature_probability, "probability.quadrature_probability")),
        (verification, "integrate_line", _traced_integrate_line(tracer, verification.integrate_line, "verification")),
        (verification, "estimate_sylvester",
         tracer.wrap(verification.estimate_sylvester, "geomc.estimate_sylvester", _mc_attrs)),
        (verification, "projection_experiment",
         tracer.wrap(verification.projection_experiment, "geomc.projection_experiment")),
        (verification, "estimate_cone_angle", tracer.wrap(verification.estimate_cone_angle, "geomc.estimate_cone_angle")),
    ]
    originals = [(module, name, getattr(module, name)) for module, name, _ in hooks]
    try:
        for module, name, hook in hooks:
            setattr(module, name, hook)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


def classify_rates(syl, dims, seed: int) -> dict:
    """Trials per second of public `simplex_indicators` on Gaussian clouds of each dimension.

    Clouds have the shape of one Monte Carlo block, (BLOCK_TRIALS, d+2, d).
    """
    rng = np.random.default_rng(seed)
    size, reps = syl.geomc.BLOCK_TRIALS, 3
    rates = {}
    for d in dims:
        clouds = rng.standard_normal((size, d + 2, d))
        start = time.perf_counter()
        for _ in range(reps):
            syl.simplex_indicators(clouds)
        rates[d] = reps * size / (time.perf_counter() - start)
    return rates


def _duration(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(tracer, rates: dict) -> dict:
    """Per-layer metrics of one traced pass; `rates` is the classify probe, or empty."""
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span["name"]].append(span)
    names = {span["id"]: span["name"] for span in tracer.spans}
    lines = by_name["quad.integrate_line"]
    builds = by_name["quad.CumulativeIntegral.build"]
    estimates = by_name["geomc.estimate_sylvester"]

    def total(name, field="self_s"):
        return sum((span[field] if field != "duration" else _duration(span) for span in by_name[name]), 0.0)

    def children_of_suite(prefixes):
        return sum((
            _duration(span) for span in tracer.spans
            if names.get(span["parent"]) == "verification.run_suite" and span["name"].startswith(prefixes)
        ), 0.0)

    # thread scaling from the same configurations run by the CLI at workers 1 and 2
    cli_runs = [s for s in estimates if names.get(s["parent"]) == "cli.main" and "error" not in s]
    busy = {w: sum(_duration(s) for s in cli_runs if s["workers"] == w) for w in (1, 2)}
    trials = {w: sum(s["trials"] for s in cli_runs if s["workers"] == w) for w in (1, 2)}
    scaling = (trials[2] / busy[2]) / (2.0 * trials[1] / busy[1]) if busy[1] and busy[2] else 0.0
    classify_rate = sample_share = 0.0
    if rates:
        classify_rate = len(rates) / sum(1.0 / r for r in rates.values())
        if busy[1]:
            classify_s = sum(s["trials"] / rates[s["d"]] for s in cli_runs if s["workers"] == 1)
            sample_share = 1.0 - classify_s / busy[1]

    return {
        "specfun.h_imag_cdf.calls": tracer.leaf_total("specfun.h_imag_cdf", 0),
        "specfun.h_imag_cdf.self_s": tracer.leaf_total("specfun.h_imag_cdf", 2),
        "quad.integrate_line.calls": len(lines),
        "quad.integrate_line.nodes": sum(s["nodes"] for s in lines),
        "quad.integrate_line.refinements": sum(refinements(s["nodes"]) for s in lines),
        "quad.integrate_line.self_s": total("quad.integrate_line"),
        "quad.CumulativeIntegral.builds": len(builds),
        "quad.CumulativeIntegral.cells": sum(s["cells"] for s in builds),
        "quad.CumulativeIntegral.build_s": total("quad.CumulativeIntegral.build", "duration"),
        "quad.CumulativeIntegral.lookups": tracer.leaf_total("quad.CumulativeIntegral.lookup", 0),
        "quad.CumulativeIntegral.lookup_s": tracer.leaf_total("quad.CumulativeIntegral.lookup", 1),
        "quad.nonconvergence": sum(s.get("error") == "NonConvergenceError" for s in lines),
        "anglesums.integrand.evals": tracer.leaf_total("anglesums.integrand", 0),
        "anglesums.integrand.self_s": tracer.leaf_total("anglesums.integrand", 2),
        "anglesums.inner_grid.self_s": total("anglesums.inner_grid"),
        "cli.self_s": total("cli.main"),
        "geomc.estimate_sylvester.trials": sum(s.get("trials", 0) for s in estimates),
        "geomc.estimate_sylvester.busy_s": total("geomc.estimate_sylvester", "duration"),
        "geomc.classify_trials_per_s": classify_rate,
        "geomc.sample_share": sample_share,
        "geomc.scaling_eff": scaling,
        "geomc.projection_experiment.busy_s": total("geomc.projection_experiment", "duration"),
        "geomc.estimate_cone_angle.busy_s": total("geomc.estimate_cone_angle", "duration"),
        "verification.quad_s": children_of_suite(("probability.", "quad.")),
        "verification.mc_s": children_of_suite(("geomc.",)),
        "verification.self_s": total("verification.run_suite"),
    }
