"""Cross-route verification: quadrature vs closed forms vs Monte Carlo.

One table of checks backs both the CLI ``verify`` subcommand (through
``run_suite``) and the acceptance tests: ``checks(suite)`` lists the rows in
report order, and the suite sets their budgets.  Every row that compares
quadrature with an exact value runs ``_agreement``, which reads that value
from the registry lookup; the Gaussian-limit rows read their target there
too, and the registry alone decides which Monte Carlo rows have an exact
truth.  The Monte Carlo rows of one dimension (Gaussian, beta, beta-prime)
share one draw of their normals and one factorization of each trial's
normals, ``_SharedDraw`` in the table, made by the first of them for a
seed; each row still prints its own result or its own law's error, and
every count is the one an estimate per row gives.  Hard
rows gate the exit code; the monotonicity
sweeps and the heavy-tail ratio are reported only, since the first is a
conjecture and the second is asymptotic in d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, TextIO, Tuple

import numpy as np

from . import registry
from .errors import SylvesterError
from .geomc import (
    McConfig,
    McResult,
    SimplicialCone,
    estimate_cone_angle,
    estimate_sylvester,
    estimate_sylvester_laws,
    projection_experiment,
)
from .probability import Distribution, cauchy_asymptotic, quadrature_probability
from .quad import DecayEnvelope, QuadratureConfig, integrate_line

# tight enough for 1e-6-relative agreement even at p ~ 1e-6
_VERIFY_CFG = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def known_integral_suite():
    """22 line integrands with closed-form values and certified envelopes.

    Returns (name, f, envelope, exact) tuples; the error-honesty criterion
    demands |computed - exact| <= 3 * abs_error_estimate on every one.  Each
    f is a numpy expression mapping an array of nodes to an array of the
    same shape, as ``integrate_line`` requires.  The last two, sech^a with
    a small, decay so slowly that their cutoff lies near 1e5; they are taken
    in log form so no node overflows cosh.
    """
    gauss = lambda x: np.exp(-0.5 * x * x)
    sech = lambda x: 1.0 / np.cosh(x)
    env_g = lambda p=0, s=1.0, la=0.0: DecayEnvelope("gaussian", s, p, la)
    env_e = lambda rate, p=0, la=0.0: DecayEnvelope("exponential", 1.0 / rate, p, la)
    ln = math.log
    slow_sech = lambda a: (
        f"sech^{a}",
        lambda x: np.exp(a * (ln(2.0) - np.logaddexp(x, -x))),
        env_e(a, 0, a * ln(2.0)),
        math.sqrt(math.pi) * math.gamma(0.5 * a) / math.gamma(0.5 * (a + 1.0)),
    )
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
        slow_sech(0.001),
        slow_sech(0.0001),
    ]


@dataclass(frozen=True)
class Check:
    """One row of the table: ``run(seed, lookup)`` returns ``(passed, detail)``.

    ``lookup`` is the closed-form registry lookup; a hard row gates the exit
    code of ``verify``, a soft one is reported only.
    """

    name: str
    run: Callable[[int, Callable], Tuple[bool, str]]
    hard: bool = True


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


# Row functions take their parameters, then (seed, lookup).  They call
# quadrature_probability, integrate_line and the Monte Carlo estimators
# through this module's globals when they run, so a caller that replaces
# those names (to trace them, say) sees every call.

def _quad(dist: Distribution) -> float:
    return quadrature_probability(dist, _VERIFY_CFG).value


def _agreement(dists, rel_tol, abs_tol, seed, lookup):
    # |quad - exact| <= max(abs_tol, rel_tol*|exact|) for every dist; the detail
    # shows the dist nearest its bound
    rows = []
    for dist in dists:
        entry = lookup(dist.family, dist.d, dist.beta)
        if entry is None:
            return False, "registry entry missing"
        quad = _quad(dist)
        rows.append((abs(quad - entry.value), max(abs_tol, rel_tol * abs(entry.value)), entry.value, quad))
    diff, bound, exact, quad = max(rows, key=lambda row: row[0] - row[1])
    return diff <= bound, (
        f"closed={exact:.10e} quad={quad:.10e} |diff|={diff:.2e} bound={bound:.2e}"
    )


def _gaussian_limit(d, seed, lookup):
    entry = lookup("gaussian", d, None)
    if entry is None:
        return False, "registry entry missing"
    target = entry.value
    (beta10, prime10), (beta100, prime100) = (
        (abs(_quad(Distribution("beta", d, b)) - target),
         abs(_quad(Distribution("beta_prime", d, b)) - target))
        for b in (10.0, 100.0)
    )
    ok = beta100 < 0.02 and prime100 < 0.02 and beta100 < beta10 and prime100 < prime10
    return ok, (
        f"beta gap 100/10 = {beta100:.2e}/{beta10:.2e}, "
        f"beta-prime gap = {prime100:.2e}/{prime10:.2e}"
    )


class _SharedDraw:
    """The Monte Carlo estimates of laws of one dimension, from one draw per seed.

    The first row to ask for a seed runs ``estimate_sylvester_laws`` on every
    law; the rows after it read their law's result, or raise its error.  It
    holds one seed's results, and each count is the one ``estimate_sylvester``
    gives that law alone.
    """

    def __init__(self, dists, trials):
        self.dists, self.trials = dists, trials
        self.seed, self.results = None, None

    def result(self, law, seed) -> McResult:
        if self.seed != seed:
            self.results = estimate_sylvester_laws(self.dists, McConfig(trials=self.trials, seed=seed, workers=2))
            self.seed = seed
        result = self.results[law]
        if isinstance(result, SylvesterError):
            raise result
        return result


def _mc_cross(shared, law, exact, seed, lookup):
    # the truth is the registry's value when exact, else quadrature's
    dist = shared.dists[law]
    if exact:
        entry = lookup(dist.family, dist.d, dist.beta)
        if entry is None:
            return False, "registry entry missing"
        truth = entry.value
    else:
        truth = _quad(dist)
    res = shared.result(law, seed)
    diff = abs(res.estimate - truth)
    return diff <= 4.0 * res.stderr, (
        f"mc={res.estimate:.6f} truth={truth:.6f} |diff|={diff:.2e} 4se={4 * res.stderr:.2e}"
    )


def _lemma(trials, seed, lookup):
    # projection identity vs cone angle on the regular simplex in R^4; the
    # cone angle draws from the next seed.  The projection probability is twice
    # the vertex angle, p_2/4 for the Gaussian p_2.
    entry = lookup("gaussian", 2, None)
    if entry is None:
        return False, "registry entry missing"
    target = entry.value / 4.0
    vertices = np.eye(4)
    cone = SimplicialCone(vertices[:3] - vertices[3])
    proj = projection_experiment(vertices, McConfig(trials=trials, seed=seed, workers=2))
    angle = estimate_cone_angle(cone, McConfig(trials=trials, seed=(seed + 1) % 2**64, workers=2))
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


def _reproducibility(seed, lookup):
    dist = Distribution("gaussian", 2)
    counts = {
        w: estimate_sylvester(dist, McConfig(trials=50_000, seed=seed, workers=w)).successes
        for w in (1, 2, 8)
    }
    return len(set(counts.values())) == 1, f"successes by workers: {counts}"


def _honesty(seed, lookup):
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


def conjecture_trend(family, values) -> Tuple[bool, str, str]:
    """The monotonicity conjecture on values along an increasing beta grid.

    p is conjectured non-decreasing in beta for the beta family and non-increasing
    for beta-prime, here up to 1e-9 a step.  Returns (holds, trend, nearest): the
    verdict, the trend's name, and the step nearest to breaking it as "min step …"
    or "max step …".
    """
    rising = family == "beta"
    sign, trend, extreme = (1.0, "non-decreasing", "min") if rising else (-1.0, "non-increasing", "max")
    nearest = float((sign * np.diff(values)).min(initial=math.inf))
    return nearest >= -1e-9, trend, f"{extreme} step {sign * nearest:.2e}"


def _monotone(family, d, low, high, points, seed, lookup):
    grid = np.linspace(low, high, points)
    holds, _, nearest = conjecture_trend(family, [_quad(Distribution(family, d, float(b))) for b in grid])
    return holds, f"{nearest} over beta in [{grid[0]:.2f}, {grid[-1]:.2f}]"


def _cauchy(seed, lookup):
    ratios = [
        _quad(Distribution("beta_prime", d, 0.5 * (d + 1))) / cauchy_asymptotic(d)
        for d in range(2, 9)
    ]
    ok = all(math.isfinite(r) and r > 0.0 for r in ratios)
    return ok, "p/asymptote " + ", ".join(f"d={d}: {r:.4f}" for d, r in enumerate(ratios, 2))


def checks(suite: str = "basic") -> List[Check]:
    """The cross-check table in report order.

    The suite sets the budgets: ``full`` widens the route dimensions, the
    Monte Carlo trials (1e6 instead of 1e5), the d = 1 endpoint inputs and
    the conjecture grids.
    """
    if suite not in ("basic", "full"):
        raise SylvesterError(f"unknown suite {suite!r}; expected 'basic' or 'full'")
    full = suite == "full"
    trials = 1_000_000 if full else 100_000
    # quadrature against the registry: (row name, distributions, relative bound, absolute bound)
    agreements = [(f"gaussian-closed-form[d={d}]", [Distribution("gaussian", d)], 0.0, 1e-8) for d in (2, 3)]
    routes = [
        ("beta", d, beta, rel_tol, abs_tol)
        for beta, top, rel_tol, abs_tol in (
            (0.0, 8 if full else 4, 1e-6, 0.0),
            (1.0, 6 if full else 3, 1e-6, 0.0),
            (-0.5, 5, 0.0, 1e-6),
            (0.5, 4, 0.0, 1e-6),
        )
        for d in range(2, top + 1)
    ]
    routes += [("beta_prime", d, 0.5 * d + 1.0, 1e-6, 0.0) for d in range(2, 9 if full else 5)]
    agreements += [
        (f"route-agreement[{family} d={d} beta={beta}]", [Distribution(family, d, beta)], rel_tol, abs_tol)
        for family, d, beta, rel_tol, abs_tol in routes
    ]
    # the line integrates n = 3, which checks the triangle identity
    betas = (-0.5, 0.0, 0.7, 2.0, 10.0) if full else (-0.5, 0.0, 0.7, 2.0)
    prime_betas = (0.7, 0.75, 1.0, 2.5, 8.0) if full else (0.75, 1.0, 2.5)
    line = [Distribution("gaussian", 1)] + [Distribution("beta", 1, b) for b in betas]
    line += [Distribution("beta_prime", 1, b) for b in prime_betas]
    agreements += [
        ("endpoints-d1", line, 0.0, 1e-8),
        ("endpoints-sphere", [Distribution("beta", d, -1.0) for d in (2, 3, 4)], 0.0, 1e-6),
    ]
    rows = [Check(name, partial(_agreement, dists, rel, tol)) for name, dists, rel, tol in agreements] + [
        Check("gaussian-limit[d=2]", partial(_gaussian_limit, 2)),
        Check("gaussian-limit[d=3]", partial(_gaussian_limit, 3)),
    ]
    # Monte Carlo against the registry, or against quadrature where it has no row;
    # the three laws of one dimension share one draw, and the rows run law by law
    shared = [
        _SharedDraw([Distribution("gaussian", d), Distribution("beta", d, 0.0),
                     Distribution("beta_prime", d, 0.5 * d + 1.0)], trials)
        for d in (2, 3, 4)
    ]
    for law in range(3):
        for draw in shared:
            dist = draw.dists[law]
            exact = registry.lookup(dist.family, dist.d, dist.beta) is not None
            rows.append(Check(f"mc-cross[{dist.family} d={dist.d}]", partial(_mc_cross, draw, law, exact)))
    rows += [
        Check("lemma-projection-identity", partial(_lemma, trials)),
        Check("reproducibility", _reproducibility),
        Check("error-honesty", _honesty),
    ]
    points = 30 if full else 10
    for d in (2, 3) if full else (2,):
        low = 0.5 * (d + 1.0 / (d + 2)) + 0.05
        rows += [
            Check(f"conjecture-beta-monotone[d={d}]",
                  partial(_monotone, "beta", d, -0.9, 3.0, points), hard=False),
            Check(f"conjecture-beta-prime-monotone[d={d}]",
                  partial(_monotone, "beta_prime", d, low, low + 4.0, points), hard=False),
        ]
    rows.append(Check("cauchy-ratio", _cauchy, hard=False))
    return rows


def run_suite(
    suite: str = "basic",
    seed: int = 42,
    lookup=registry.lookup,
    out: Optional[TextIO] = None,
) -> List[CheckResult]:
    """Run every row of ``checks(suite)``, printing one line per row to ``out``.

    ``lookup`` injects an alternative closed-form registry, which the tests
    use to prove a corrupted registry is caught and named.  A row that
    raises a SylvesterError fails with the error as its detail; a seed that
    Monte Carlo refuses raises DomainError before any row runs.
    """
    McConfig(trials=1, seed=seed)  # Monte Carlo's one seed rule
    results = []
    for check in checks(suite):
        try:
            passed, detail = check.run(seed, lookup)
        except SylvesterError as exc:
            passed, detail = False, f"error: {exc}"
        result = CheckResult(check.name, bool(passed), check.hard, detail)
        results.append(result)
        if out is not None:
            print(f"{result.status}  {result.name}: {detail}", file=out)
    return results


def hard_failures(results: List[CheckResult]) -> List[CheckResult]:
    return [r for r in results if r.hard and not r.passed]
