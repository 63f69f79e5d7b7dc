"""Command-line surface: compute / mc / sweep / verify / table.

Data goes to stdout (JSON lines or RFC-4180 CSV), diagnostics to stderr.
Exit codes: 0 success, 1 verification failure, 2 domain error (any
SylvesterError but non-convergence), 3 non-convergence, which includes a
value whose error bar excludes every probability in [0, 1].

`compute`, `table` and `sweep` load only the quadrature route.  `McConfig`
and `estimate_sylvester` (from `geomc`) resolve on first read,
`verification` is imported by `verify` alone, and `csv` by the commands
that write it.  A caller may replace `estimate_sylvester` before or after
it has loaded; `mc` calls whatever the name is bound to when it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional

from . import registry
from .errors import DomainError, NonConvergenceError, SylvesterError
from .probability import Distribution, conjecture_trend, sylvester_probability
from .quad import QuadratureConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool stopped by a closed pipe

_RECORD_FIELDS = ("family", "d", "beta", "method", "value", "abs_error", "stderr", "trials", "seed")

_FAMILY_FLAGS = {"gauss": "gaussian", "beta": "beta", "betaprime": "beta_prime"}
_FAMILY_NAMES = {v: k for k, v in _FAMILY_FLAGS.items()}

# a negative decimal number, or -inf, -infinity or -nan in any case, as float() reads them
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|-(?i:inf|infinity|nan)")


def _record(family, d, beta, method, value, abs_error=None, stderr=None, trials=None, seed=None):
    return {
        "family": _FAMILY_NAMES[family],
        "d": d,
        "beta": beta,
        "method": method,
        "value": value,
        "abs_error": abs_error,
        "stderr": stderr,
        "trials": trials,
        "seed": seed,
    }


def _emit_records(records, fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            print(json.dumps(rec), file=out)
        return
    import csv

    writer = csv.DictWriter(out, fieldnames=_RECORD_FIELDS, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({k: ("" if v is None else v) for k, v in rec.items()})


def _quadrature_config(tol: float) -> QuadratureConfig:
    # tol is the relative target; the absolute floor sits four orders lower
    # so small probabilities still resolve to the same relative accuracy
    return QuadratureConfig(rel_tol=tol, abs_tol=tol * 1e-4)


def _bar_misses_unit_interval(value: float, error: float) -> bool:
    """Whether [value - error, value + error] holds no probability."""
    return value + error < 0.0 or value - error > 1.0


def _distribution(args) -> Distribution:
    return Distribution(_FAMILY_FLAGS[args.family], args.dim, getattr(args, "beta", None))


def _default_seed(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("SYLVESTER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"SYLVESTER_SEED must be an integer, got {env!r}") from None
    return 0


def _cmd_compute(args) -> int:
    dist = _distribution(args)
    method = {"auto": "auto", "quadrature": "quadrature", "closed-form": "closed_form"}[args.method]
    result = sylvester_probability(dist, method=method, cfg=_quadrature_config(args.tol))
    if _bar_misses_unit_interval(result.value, result.abs_error_estimate):
        raise NonConvergenceError(
            f"value {result.value:.6e} with abs_error {result.abs_error_estimate:.3e} excludes"
            " every probability in [0, 1]"
        )
    rec = _record(
        dist.family, dist.d, dist.beta, result.method, result.value,
        abs_error=result.abs_error_estimate,
    )
    _emit_records([rec], args.format, sys.stdout)
    return EXIT_OK


def _cmd_mc(args) -> int:
    dist = _distribution(args)
    # read through the module, so a name replaced by a caller, or not yet loaded, is found
    cli = sys.modules[__name__]
    mc = cli.McConfig(trials=args.trials, seed=_default_seed(args.seed), workers=args.workers)
    res = cli.estimate_sylvester(dist, mc)
    rec = _record(
        dist.family, dist.d, dist.beta, "monte-carlo", res.estimate,
        stderr=res.stderr, trials=res.trials, seed=res.seed,
    )
    _emit_records([rec], args.format, sys.stdout)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    family = _FAMILY_FLAGS[args.family]
    if family == "gaussian":
        raise DomainError("sweep needs a parametric family: beta or betaprime")
    if args.steps < 1:
        raise DomainError("--steps must be >= 1")
    step = (args.beta_max - args.beta_min) / args.steps
    for name, bound in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max),
                        ("the step (--beta-max - --beta-min) / --steps", step)):
        if not math.isfinite(bound):
            raise DomainError(f"{name} must be finite, got {bound}")
    if not args.beta_max >= args.beta_min:
        raise DomainError("--beta-max must be >= --beta-min")
    import csv

    cfg = _quadrature_config(args.tol)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["beta", "value", "abs_error"])
    values = []
    unresolved = 0
    for i in range(args.steps + 1):
        beta = args.beta_min + i * step
        try:
            dist = Distribution(family, args.dim, beta)
            result = sylvester_probability(dist, method="auto", cfg=cfg)
        except DomainError as exc:
            print(f"warning: skipping beta={beta:.6g}: {exc}", file=sys.stderr)
            continue
        value, error = result.value, result.abs_error_estimate
        if _bar_misses_unit_interval(value, error):
            unresolved += 1
            print(f"warning: skipping beta={beta:.6g}: value {value:.6e} with abs_error {error:.3e}"
                  " excludes [0, 1]", file=sys.stderr)
            continue
        if 0.0 < error and abs(value) <= error:
            # the error bar reaches 0, so the value cannot enter the trend (an
            # exact 0, with abs_error 0, is resolved)
            unresolved += 1
            print(f"warning: skipping beta={beta:.6g}: unresolved, |value| <= abs_error {error:.3e}",
                  file=sys.stderr)
            continue
        values.append(value)
        writer.writerow([f"{beta:.12g}", f"{value:.16e}", f"{error:.3e}"])
    if not values and unresolved:
        raise NonConvergenceError(
            f"no sweep point is resolved: {unresolved} lie within abs_error of 0 or exclude [0, 1]"
        )
    if not values:
        raise DomainError("the whole sweep range lies outside the validity region")
    monotone, trend, _ = conjecture_trend(family, values)
    print(f"# monotone {trend}: {str(monotone).lower()}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verification

    checks = verification.run_suite(args.suite, seed=_default_seed(args.seed), out=sys.stdout)
    failures = verification.hard_failures(checks)
    warns = [c for c in checks if not c.hard and not c.passed]
    print(
        f"# {len(checks)} checks: {sum(c.passed for c in checks)} passed, "
        f"{len(failures)} hard failures, {len(warns)} warnings"
    )
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _cmd_table(args) -> int:
    keys = registry.TABLE_PRESETS[args.preset]
    rows = []
    for family, d, beta in keys:
        entry = registry.lookup(family, d, beta)
        rows.append(
            (
                _FAMILY_NAMES[family],
                str(d),
                "" if beta is None else f"{beta:g}",
                entry.description,
                f"{entry.value:.12g}",
            )
        )
    headers = ("family", "d", "beta", "exact expression", "value")
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return EXIT_OK


def _add_distribution_flags(parser: argparse.ArgumentParser, with_beta: bool = True) -> None:
    parser.add_argument("--family", required=True, choices=sorted(_FAMILY_FLAGS))
    parser.add_argument("--dim", type=int, required=True, metavar="D", dest="dim")
    if with_beta:
        parser.add_argument("--beta", type=float, default=None, metavar="B")


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its command parsers, by command name."""
    parser = argparse.ArgumentParser(
        prog="sylvester",
        description="Probability that d+2 i.i.d. points from a Gaussian, beta, or "
        "beta-prime distribution in R^d form a simplex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="deterministic probability for one distribution")
    _add_distribution_flags(p)
    p.add_argument("--method", choices=("auto", "quadrature", "closed-form"), default="auto")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("mc", help="Monte Carlo estimate via convex-hull membership")
    _add_distribution_flags(p)
    p.add_argument("--trials", type=int, default=100_000, metavar="N")
    p.add_argument("--seed", type=int, default=None, metavar="S")
    p.add_argument("--workers", type=int, default=1, metavar="K")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("sweep", help="probability across an equally spaced beta grid (CSV)")
    _add_distribution_flags(p, with_beta=False)
    p.add_argument("--beta-min", type=float, required=True, metavar="A")
    p.add_argument("--beta-max", type=float, required=True, metavar="B")
    p.add_argument("--steps", type=int, required=True, metavar="K")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify", help="cross-route verification suite")
    p.add_argument("--suite", choices=("basic", "full"), default="basic")
    p.add_argument("--seed", type=int, default=None, metavar="S")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table", help="closed-form registry tables")
    p.add_argument("--preset", required=True, choices=sorted(registry.TABLE_PRESETS))
    p.set_defaults(handler=_cmd_table)

    return parser, sub.choices


# built once: the handlers read sylvester_probability and estimate_sylvester
# from this module when they run, so a caller that replaces those names sees every call
_PARSER, _COMMANDS = _build_parsers()


def _join_negative_numbers(argv) -> list:
    """Write "--beta -1e-05" as "--beta=-1e-05": argparse takes "-1e-05" or "-inf" for an option."""
    joined = []
    for token in argv:
        previous = joined[-1] if joined else ""
        if previous.startswith("--") and "=" not in previous and _NEGATIVE_NUMBER.fullmatch(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = _join_negative_numbers(sys.argv[1:] if argv is None else argv)
    # a named command is parsed by its own parser, in one argparse pass; the
    # top-level parser answers only help and a missing or unknown command
    command = _COMMANDS.get(argv[0]) if argv else None
    args = _PARSER.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except SylvesterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE if isinstance(exc, NonConvergenceError) else EXIT_DOMAIN
    except BrokenPipeError:
        # the reader closed stdout; writing what is still buffered to devnull
        # keeps the interpreter's exit flush from raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def __getattr__(name):
    if name in ("McConfig", "estimate_sylvester"):
        from . import geomc

        value = getattr(geomc, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
