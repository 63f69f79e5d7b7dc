"""Failure oracle: decides whether one operation of a workload succeeded.

An operation succeeds only when it exits 0 and its output passes every check
that applies to it:

* a quadrature value is resolved (|value| > abs_error), non-negative, at most
  1, and within 3 * abs_error of its reference where one exists;
* a Monte Carlo estimate lies in [0, 1], within 4 * stderr of its reference,
  and its success count is the same at workers 1 and 2;
* a verification run exits 0 and its summary line agrees with its checks.

An uncaught exception is a failed operation, not an aborted run.

Each reason is deterministic or statistical.  A statistical reason is a Monte
Carlo estimate beyond 4 standard errors, which a correct program produces in
about 6e-5 of checks.  It counts the operation as failed, but only a
deterministic reason on an operation that is not a listed known defect makes
the run's output incorrect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# verify checks whose pass/fail is a 4-stderr Monte Carlo comparison
_STATISTICAL_CHECKS = ("mc-cross[", "lemma-projection-identity")
_SUMMARY = re.compile(r"^# (\d+) checks: (\d+) passed, (\d+) hard failures, (\d+) warnings$")


@dataclass
class Outcome:
    reasons: list[tuple[str, bool]] = field(default_factory=list)  # (text, statistical)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    def deterministic(self) -> list[str]:
        return [text for text, statistical in self.reasons if not statistical]

    def add(self, text: str, statistical: bool = False) -> None:
        self.reasons.append((text, statistical))


def _exit_reason(code) -> str | None:
    if code == 0:
        return None
    return code if isinstance(code, str) else f"exit {code}"


def quad_outcome(code, record: dict | None, reference: float | None) -> Outcome:
    """Checks for one deterministic `compute` record."""
    out = Outcome()
    reason = _exit_reason(code)
    if reason is not None:
        out.add(reason)
        return out
    if record is None:
        out.add("unparsable output")
        return out
    value, error = record["value"], record["abs_error"]
    if not abs(value) > error:
        out.add("unresolved")
    if value < 0.0:
        out.add("negative")
    if value > 1.0:
        out.add("above one")
    if reference is not None and not abs(value - reference) <= 3.0 * error:
        out.add("off reference")
    return out


def mc_outcome(code, record: dict | None, reference: float) -> Outcome:
    """Checks for one Monte Carlo record (value, stderr, trials)."""
    out = Outcome()
    reason = _exit_reason(code)
    if reason is not None:
        out.add(reason)
        return out
    if record is None:
        out.add("unparsable output")
        return out
    value, stderr = record["value"], record["stderr"]
    if not 0.0 <= value <= 1.0:
        out.add("outside [0, 1]")
    elif not abs(value - reference) <= 4.0 * stderr:
        out.add("outside 4 stderr", statistical=True)
    return out


def successes(record: dict) -> int:
    return round(record["value"] * record["trials"])


def pair_outcome(out: Outcome, record: dict | None, seen: dict, key: str) -> None:
    """Add a failure when `record` and an earlier record under `key` disagree on successes."""
    if record is None:
        return
    count = successes(record)
    if seen.setdefault(key, count) != count:
        out.add(f"successes {count} differ from {seen[key]} at another worker count")


def verify_outcome(code, text: str) -> tuple[Outcome, int, int]:
    """Checks for one `verify` run; also returns (checks, hard failures)."""
    out = Outcome()
    lines = text.splitlines()
    statuses = [line.split("  ", 1) for line in lines if line[:4] in ("PASS", "FAIL", "WARN")]
    failed = [rest.split(":", 1)[0] for status, rest in statuses if status == "FAIL"]
    summary = [m for m in map(_SUMMARY.match, lines) if m]
    if code not in (0, 1):
        out.add(_exit_reason(code))
    elif len(summary) != 1 or (int(summary[0][1]), int(summary[0][3])) != (len(statuses), len(failed)):
        out.add("summary disagrees with the listed checks")
    elif (code == 1) != bool(failed):
        out.add(f"exit {code} with {len(failed)} hard failures")
    for name in failed:
        out.add(f"check failed: {name}", statistical=name.startswith(_STATISTICAL_CHECKS))
    return out, len(statuses), len(failed)
