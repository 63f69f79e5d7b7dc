"""The four workloads, each a list of operations generated from the seed.

Every operation is one call a user makes: `sylvester.cli.main(argv)` or, for
the cone-angle lemma that has no CLI verb, one public library call.  A run
repeats the list in whole passes, so every run measures the same mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

WORKLOADS = ("quad-gauss", "quad-cosh", "mc", "verify-basic")

GAUSS_DIMS = tuple(range(1, 21)) + (25, 30, 38)
MC_TRIALS = 200_000
LEMMA_TRIALS = 400_000
QUAD_TOL = 1e-10

# Operations that fail at the seed commit; they stay in the data so that a fix
# shows as fewer failures.  Any other failure makes the run's output incorrect.
KNOWN_DEFECTS = {
    "compute gauss d=1 tol=1e-10": "value 1.0000000000000002 exceeds 1 by one ulp",
    **{f"compute gauss d={d} tol=1e-10": "unresolved: |value| <= abs_error" for d in (19, 20, 25, 30)},
    "compute gauss d=38 tol=1e-10": "unresolved and negative (-6.3e-27)",
    "compute beta d=2 beta=5000 tol=1e-10": "uncaught OverflowError in the cosh kernel",
}

_FAMILY = {"gauss": "gaussian", "beta": "beta", "betaprime": "beta_prime"}


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # "quad", "mc", "lemma" or "verify"
    argv: tuple = ()  # for cli.main; lemma operations use `function` and `args`
    function: str = ""
    args: tuple = ()
    reference: Optional[float] = None
    trials: int = 0
    workers: int = 0
    pair: str = ""  # operations sharing a pair key must report the same success count

    @property
    def known_defect(self) -> Optional[str]:
        return KNOWN_DEFECTS.get(self.label)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    warmup: tuple  # argv of the call that ends set-up
    mc_dims: tuple = ()  # cloud dimensions for the classify probe of the traced run


def gaussian_reference(d: int) -> Optional[float]:
    """Independent references for the Gaussian family: p = 1 on the line, arcsin forms at d = 2, 3."""
    return {
        1: 1.0,
        2: 1.0 - (6.0 / math.pi) * math.asin(1.0 / 3.0),
        3: 0.5 - (5.0 / math.pi) * math.asin(0.25),
    }.get(d)


def _reference(syl, family: str, d: int, beta) -> Optional[float]:
    if family == "gauss":
        return gaussian_reference(d)
    exact = syl.closed_form_lookup(syl.Distribution(_FAMILY[family], d, beta))
    return None if exact is None else exact.value


def _dist_flags(family: str, d: int, beta) -> list:
    flags = ["--family", family, "--dim", str(d)]
    return flags if beta is None else flags + ["--beta", repr(beta)]


def _dist_label(family: str, d: int, beta) -> str:
    return f"{family} d={d}" + ("" if beta is None else f" beta={beta:g}")


def compute_op(syl, family: str, d: int, beta=None, tol: float = QUAD_TOL) -> Op:
    argv = ["compute", *_dist_flags(family, d, beta), "--method", "quadrature", "--tol", repr(tol)]
    return Op(
        label=f"compute {_dist_label(family, d, beta)} tol={tol:g}",
        kind="quad", argv=tuple(argv), reference=_reference(syl, family, d, beta),
    )


def _seeded_betas(rng: random.Random, syl, family: str, d: int, lo: float, hi: float, count: int):
    betas = []
    while len(betas) < count:
        beta = round(rng.uniform(lo, hi), 3)
        if beta not in betas and _reference(syl, family, d, beta) is None:
            betas.append(beta)
    return betas


def quad_gauss(syl, rng: random.Random) -> Workload:
    dims = list(GAUSS_DIMS)
    rng.shuffle(dims)
    ops = [compute_op(syl, "gauss", d) for d in dims]
    return Workload("quad-gauss", tuple(ops), warmup=ops[0].argv)


def quad_cosh(syl, rng: random.Random) -> Workload:
    ops = [compute_op(syl, "beta", d, 0.0) for d in range(2, 13)]
    ops += [compute_op(syl, "beta", d, 1.0) for d in range(2, 7)]
    ops += [compute_op(syl, "betaprime", d, 0.5 * d + 1.0) for d in range(2, 9)]
    ops.append(compute_op(syl, "beta", 12, 2.0))
    # off-registry parameters; d = 3 keeps their cost close to the registry queries
    ops += [compute_op(syl, "beta", 3, b) for b in _seeded_betas(rng, syl, "beta", 3, 0.1, 2.9, 2)]
    ops += [compute_op(syl, "betaprime", 3, b) for b in _seeded_betas(rng, syl, "betaprime", 3, 2.0, 4.5, 2)]
    # near the beta-prime threshold 2*beta > d + 1/(d+2) = 2.25, and very large beta
    ops.append(compute_op(syl, "betaprime", 2, 1.13, tol=1e-8))
    ops.append(compute_op(syl, "beta", 2, 5000.0))
    rng.shuffle(ops)
    warmup = compute_op(syl, "beta", 2, 0.0).argv
    return Workload("quad-cosh", tuple(ops), warmup=warmup)


def mc(syl, rng: random.Random) -> Workload:
    configs = (("gauss", 3, None), ("beta", 5, 0.0), ("betaprime", 4, 3.0))
    ops = []
    for family, d, beta in configs:
        seed = rng.randrange(2**32)
        for workers in (1, 2):
            argv = ["mc", *_dist_flags(family, d, beta), "--trials", str(MC_TRIALS),
                    "--seed", str(seed), "--workers", str(workers)]
            ops.append(Op(
                label=f"mc {_dist_label(family, d, beta)} workers={workers}", kind="mc",
                argv=tuple(argv), reference=_reference(syl, family, d, beta),
                trials=MC_TRIALS, workers=workers, pair=f"{family} d={d}",
            ))
    # regular simplex in R^4 (inside its 3-dimensional affine hull): the projection
    # probability is twice the solid angle at a vertex, 2*(1/2 - (3/pi)asin(1/3))/4
    vertices = np.eye(4)
    projection = 2.0 * (0.5 - (3.0 / math.pi) * math.asin(1.0 / 3.0)) / 4.0
    ops.append(Op(
        label="projection_experiment simplex R^4", kind="lemma", function="projection_experiment",
        args=(vertices, syl.McConfig(LEMMA_TRIALS, rng.randrange(2**32), 1)),
        reference=projection, trials=LEMMA_TRIALS, workers=1,
    ))
    ops.append(Op(
        label="estimate_cone_angle simplex R^4", kind="lemma", function="estimate_cone_angle",
        args=(syl.SimplicialCone(vertices[:3] - vertices[3]), syl.McConfig(LEMMA_TRIALS, rng.randrange(2**32), 1)),
        reference=projection / 2.0, trials=LEMMA_TRIALS, workers=1,
    ))
    warmup = ("mc", "--family", "gauss", "--dim", "2", "--trials", "32768", "--seed", "1", "--workers", "2")
    return Workload("mc", tuple(ops), warmup=warmup, mc_dims=tuple(d for _, d, _ in configs))


def verify_basic(syl, rng: random.Random) -> Workload:
    argv = ("verify", "--suite", "basic", "--seed", str(rng.randrange(2**32)))
    op = Op(label="verify basic", kind="verify", argv=argv)
    return Workload("verify-basic", (op,), warmup=compute_op(syl, "gauss", 2).argv)


def build(name: str, seed: int, syl) -> Workload:
    """The workload `name` with every input drawn from `seed`."""
    make = {"quad-gauss": quad_gauss, "quad-cosh": quad_cosh, "mc": mc, "verify-basic": verify_basic}[name]
    return make(syl, random.Random(seed))
