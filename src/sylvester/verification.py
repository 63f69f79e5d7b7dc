"""Cross-route verification: quadrature vs closed forms vs Monte Carlo.

Backs the CLI ``verify`` subcommand.  Hard checks gate the exit code; the
monotonicity sweeps and the heavy-tail ratio are reported only, since the
first is a conjecture and the second is asymptotic in d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, TextIO

import numpy as np

from . import registry
from .errors import SylvesterError
from .geomc import McConfig, SimplicialCone, estimate_cone_angle, estimate_sylvester, projection_experiment
from .probability import Distribution, cauchy_asymptotic, quadrature_probability
from .quad import DecayEnvelope, QuadratureConfig, integrate_line

# tight enough for 1e-6-relative agreement even at p ~ 1e-6
_VERIFY_CFG = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def known_integral_suite():
    """20 line integrands with closed-form values and certified envelopes.

    Returns (name, f, envelope, exact) tuples; the error-honesty criterion
    demands |computed - exact| <= 3 * abs_error_estimate on every one.  Each
    f is a numpy expression mapping an array of nodes to an array of the
    same shape, as ``integrate_line`` requires.
    """
    gauss = lambda x: np.exp(-0.5 * x * x)
    sech = lambda x: 1.0 / np.cosh(x)
    env_g = lambda p=0, s=1.0, la=0.0: DecayEnvelope("gaussian", s, p, la)
    env_e = lambda rate, p=0, la=0.0: DecayEnvelope("exponential", 1.0 / rate, p, la)
    ln = math.log
    return [
        ("gauss", gauss, env_g(), _SQRT_2PI),
        ("x*gauss", lambda x: x * gauss(x), env_g(1), 0.0),
        ("x^2*gauss", lambda x: x * x * gauss(x), env_g(2), _SQRT_2PI),
        ("x^4*gauss", lambda x: x**4 * gauss(x), env_g(4), 3.0 * _SQRT_2PI),
        ("x^6*gauss", lambda x: x**6 * gauss(x), env_g(6), 15.0 * _SQRT_2PI),
        ("exp(-x^2)", lambda x: np.exp(-x * x), env_g(0, math.sqrt(0.5)), math.sqrt(math.pi)),
        ("gauss(sigma=3)", lambda x: np.exp(-x * x / 18.0), env_g(0, 3.0), 3.0 * _SQRT_2PI),
        ("cos*gauss", lambda x: np.cos(x) * gauss(x), env_g(), _SQRT_2PI * math.exp(-0.5)),
        ("x*sin*gauss", lambda x: x * np.sin(x) * gauss(x), env_g(1), _SQRT_2PI * math.exp(-0.5)),
        ("(x^2-1)*gauss", lambda x: (x * x - 1.0) * gauss(x), env_g(2), 0.0),
        ("cosh*gauss", lambda x: np.cosh(x) * gauss(x), env_g(0, math.sqrt(2.0), 1.0),
         _SQRT_2PI * math.exp(0.5)),
        ("shifted gauss", lambda x: np.exp(-0.5 * (x - 1.0) ** 2), env_g(0, math.sqrt(2.0), 0.5),
         _SQRT_2PI),
        ("sech", sech, env_e(1.0, 0, ln(2.0)), math.pi),
        ("sech^2", lambda x: sech(x) ** 2, env_e(2.0, 0, ln(4.0)), 2.0),
        ("sech^3", lambda x: sech(x) ** 3, env_e(3.0, 0, ln(8.0)), 0.5 * math.pi),
        ("sech^4", lambda x: sech(x) ** 4, env_e(4.0, 0, ln(16.0)), 4.0 / 3.0),
        ("x^2*sech^2", lambda x: x * x * sech(x) ** 2, env_e(2.0, 2, ln(4.0)), math.pi**2 / 6.0),
        ("tanh^2*sech^2", lambda x: np.tanh(x) ** 2 * sech(x) ** 2, env_e(2.0, 0, ln(4.0)),
         2.0 / 3.0),
        ("cos*sech", lambda x: np.cos(x) * sech(x), env_e(1.0, 0, ln(2.0)),
         math.pi / math.cosh(0.5 * math.pi)),
        ("cos(2x)*sech^2", lambda x: np.cos(2.0 * x) * sech(x) ** 2, env_e(2.0, 0, ln(4.0)),
         2.0 * math.pi / math.sinh(math.pi)),
    ]


@dataclass
class CheckResult:
    name: str
    passed: bool
    hard: bool
    detail: str

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "FAIL" if self.hard else "WARN"


class _Report:
    def __init__(self, out: Optional[TextIO], sections):
        self.out = out
        self.sections = sections
        self.checks: List[CheckResult] = []

    def wants(self, section: str) -> bool:
        return self.sections is None or section in self.sections

    def add(self, name: str, passed: bool, detail: str, hard: bool = True) -> None:
        check = CheckResult(name, bool(passed), hard, detail)
        self.checks.append(check)
        if self.out is not None:
            print(f"{check.status}  {name}: {detail}", file=self.out)

    def run(self, name: str, fn: Callable[[], tuple[bool, str]], hard: bool = True) -> None:
        try:
            passed, detail = fn()
        except SylvesterError as exc:
            passed, detail = False, f"error: {exc}"
        self.add(name, passed, detail, hard)


def _route_agreement(report: _Report, lookup, family: str, d: int, beta, rel_tol: float,
                     abs_tol: float) -> None:
    name = f"route-agreement[{family} d={d} beta={beta}]"

    def check():
        entry = lookup(family, d, beta)
        if entry is None:
            return False, "registry entry missing"
        quad = quadrature_probability(Distribution(family, d, beta), _VERIFY_CFG)
        diff = abs(quad.value - entry.value)
        bound = max(abs_tol, rel_tol * abs(entry.value), 3.0 * quad.abs_error_estimate)
        return diff <= bound, (
            f"closed={entry.value:.10e} quad={quad.value:.10e} |diff|={diff:.2e} bound={bound:.2e}"
        )

    report.run(name, check)


def run_suite(
    suite: str = "basic",
    seed: int = 42,
    lookup=registry.lookup,
    out: Optional[TextIO] = None,
    sections=None,
) -> List[CheckResult]:
    """Run the cross-check suite; returns the individual check results.

    ``sections`` (a set drawn from {'gaussian', 'routes', 'endpoints',
    'limits', 'mc', 'lemma', 'reproducibility', 'honesty', 'conjectures'})
    restricts the run; None runs everything.  ``lookup`` injects an
    alternative closed-form registry, which the tests use to prove a
    corrupted registry is caught and named.
    """
    if suite not in ("basic", "full"):
        raise SylvesterError(f"unknown suite {suite!r}; expected 'basic' or 'full'")
    full = suite == "full"
    report = _Report(out, sections)
    mc_trials = 1_000_000 if full else 100_000

    # Gaussian closed forms
    if report.wants("gaussian"):
        for d, exact, text in (
            (2, 1.0 - (6.0 / math.pi) * math.asin(1.0 / 3.0), "1-(6/pi)asin(1/3)"),
            (3, 0.5 - (5.0 / math.pi) * math.asin(0.25), "1/2-(5/pi)asin(1/4)"),
        ):
            def check(d=d, exact=exact, text=text):
                res = quadrature_probability(Distribution("gaussian", d), _VERIFY_CFG)
                diff = abs(res.value - exact)
                return diff <= 1e-8, f"|quad - {text}| = {diff:.2e} <= 1e-8"

            report.run(f"gaussian-closed-form[d={d}]", check)

    # registry vs quadrature
    if report.wants("routes"):
        for d in range(2, 9 if full else 5):
            _route_agreement(report, lookup, "beta", d, 0.0, rel_tol=1e-6, abs_tol=0.0)
        for d in range(2, 7 if full else 4):
            _route_agreement(report, lookup, "beta", d, 1.0, rel_tol=1e-6, abs_tol=0.0)
        for d in range(2, 6):
            _route_agreement(report, lookup, "beta", d, -0.5, rel_tol=0.0, abs_tol=1e-6)
        for d in range(2, 5):
            _route_agreement(report, lookup, "beta", d, 0.5, rel_tol=0.0, abs_tol=1e-6)
        for d in range(2, 9 if full else 5):
            _route_agreement(report, lookup, "beta_prime", d, 0.5 * d + 1.0,
                             rel_tol=1e-6, abs_tol=0.0)

    # degenerate endpoints: d = 1 across families, and the sphere limit
    def check_d1():
        worst = 0.0
        for dist in (
            [Distribution("gaussian", 1)]
            + [Distribution("beta", 1, b) for b in (-0.5, 0.0, 0.7, 2.0)]
            + [Distribution("beta_prime", 1, b) for b in (0.75, 1.0, 2.5)]
        ):
            res = quadrature_probability(dist, _VERIFY_CFG)
            worst = max(worst, abs(res.value - 1.0))
        return worst <= 1e-8, f"max |p_1 - 1| = {worst:.2e} <= 1e-8"

    if report.wants("endpoints"):
        report.run("endpoints-d1", check_d1)

    def check_sphere():
        worst = 0.0
        for d in (2, 3, 4):
            res = quadrature_probability(Distribution("beta", d, -1.0), _VERIFY_CFG)
            worst = max(worst, abs(res.value))
        return worst <= 1e-6, f"max |p_d(-1)| = {worst:.2e} <= 1e-6"

    if report.wants("endpoints"):
        report.run("endpoints-sphere", check_sphere)

    # Gaussian limit of both families
    for d in (2, 3) if report.wants("limits") else ():
        def check(d=d):
            target = quadrature_probability(Distribution("gaussian", d), _VERIFY_CFG).value
            gaps = {}
            for b in (10.0, 100.0):
                gaps[b] = (
                    abs(quadrature_probability(Distribution("beta", d, b), _VERIFY_CFG).value - target),
                    abs(quadrature_probability(Distribution("beta_prime", d, b), _VERIFY_CFG).value - target),
                )
            ok = (
                gaps[100.0][0] < 0.02
                and gaps[100.0][1] < 0.02
                and gaps[100.0][0] < gaps[10.0][0]
                and gaps[100.0][1] < gaps[10.0][1]
            )
            return ok, (
                f"beta gap 100/10 = {gaps[100.0][0]:.2e}/{gaps[10.0][0]:.2e}, "
                f"beta-prime gap = {gaps[100.0][1]:.2e}/{gaps[10.0][1]:.2e}"
            )

        report.run(f"gaussian-limit[d={d}]", check)

    # Monte Carlo triangulation of the deterministic routes
    configs = [Distribution("gaussian", d) for d in (2, 3, 4)]
    configs += [Distribution("beta", d, 0.0) for d in (2, 3, 4)]
    configs += [Distribution("beta_prime", d, 0.5 * d + 1.0) for d in (2, 3, 4)]
    for dist in configs if report.wants("mc") else ():
        def check(dist=dist):
            truth = (
                quadrature_probability(dist, _VERIFY_CFG).value
                if dist.family == "gaussian"
                else lookup(dist.family, dist.d, dist.beta).value
            )
            res = estimate_sylvester(dist, McConfig(trials=mc_trials, seed=seed, workers=2))
            diff = abs(res.estimate - truth)
            return diff <= 4.0 * res.stderr, (
                f"mc={res.estimate:.6f} truth={truth:.6f} |diff|={diff:.2e} 4se={4 * res.stderr:.2e}"
            )

        report.run(f"mc-cross[{dist.family} d={dist.d}]", check)

    # projection identity vs cone angle on the regular simplex in R^4
    def check_lemma():
        vertices = np.eye(4)
        cone = SimplicialCone(vertices[:3] - vertices[3])
        proj = projection_experiment(vertices, McConfig(trials=mc_trials, seed=seed, workers=2))
        angle = estimate_cone_angle(cone, McConfig(trials=mc_trials, seed=seed + 1, workers=2))
        target = 2.0 * (0.5 - (3.0 / math.pi) * math.asin(1.0 / 3.0)) / 4.0
        combined = 4.0 * math.hypot(proj.stderr, 2.0 * angle.stderr)
        ok = (
            abs(proj.estimate - 2.0 * angle.estimate) <= combined
            and abs(proj.estimate - target) <= 4.0 * proj.stderr
            and abs(2.0 * angle.estimate - target) <= 8.0 * angle.stderr
        )
        return ok, (
            f"projection={proj.estimate:.6f} 2*angle={2 * angle.estimate:.6f} "
            f"target={target:.6f}"
        )

    if report.wants("lemma"):
        report.run("lemma-projection-identity", check_lemma)

    # worker-count independence
    def check_repro():
        dist = Distribution("gaussian", 2)
        counts = {
            w: estimate_sylvester(dist, McConfig(trials=50_000, seed=seed, workers=w)).successes
            for w in (1, 2, 8)
        }
        values = set(counts.values())
        return len(values) == 1, f"successes by workers: {counts}"

    if report.wants("reproducibility"):
        report.run("reproducibility", check_repro)

    # quadrature error honesty on the known-antiderivative suite
    def check_honesty():
        worst = 0.0
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12)
        for name, f, envelope, exact in known_integral_suite():
            res = integrate_line(f, envelope, cfg)
            err = abs(res.value - exact)
            if res.abs_error_estimate > 0:
                worst = max(worst, err / res.abs_error_estimate)
            elif err > 0:
                return False, f"{name}: zero estimate with error {err:.2e}"
        return worst <= 3.0, f"max |error|/estimate = {worst:.3f} <= 3"

    if report.wants("honesty"):
        report.run("error-honesty", check_honesty)

    # conjecture sweeps (report-only)
    points = 30 if full else 10
    dims = (2, 3) if full else (2,)
    for d in dims if report.wants("conjectures") else ():
        def check_beta(d=d):
            grid = np.linspace(-0.9, 3.0, points)
            values = [
                quadrature_probability(Distribution("beta", d, float(b)), _VERIFY_CFG).value
                for b in grid
            ]
            diffs = np.diff(values)
            return bool((diffs >= -1e-9).all()), (
                f"min step {diffs.min():.2e} over beta in [{grid[0]:.2f}, {grid[-1]:.2f}]"
            )

        report.run(f"conjecture-beta-monotone[d={d}]", check_beta, hard=False)

        def check_beta_prime(d=d):
            low = 0.5 * (d + 1.0 / (d + 2)) + 0.05
            grid = np.linspace(low, low + 4.0, points)
            values = [
                quadrature_probability(Distribution("beta_prime", d, float(b)), _VERIFY_CFG).value
                for b in grid
            ]
            diffs = np.diff(values)
            return bool((diffs <= 1e-9).all()), (
                f"max step {diffs.max():.2e} over beta in [{grid[0]:.2f}, {grid[-1]:.2f}]"
            )

        report.run(f"conjecture-beta-prime-monotone[d={d}]", check_beta_prime, hard=False)

    # heavy-tail (Cauchy) ratio, asymptotic in d: reported, never gated
    def check_cauchy():
        ratios = []
        for d in range(2, 9):
            p = quadrature_probability(
                Distribution("beta_prime", d, 0.5 * (d + 1)), _VERIFY_CFG
            ).value
            ratios.append(f"d={d}: {p / cauchy_asymptotic(d):.4f}")
        return True, "p/asymptote " + ", ".join(ratios)

    if report.wants("conjectures"):
        report.run("cauchy-ratio", check_cauchy, hard=False)

    return report.checks


def hard_failures(checks: List[CheckResult]) -> List[CheckResult]:
    return [c for c in checks if c.hard and not c.passed]
