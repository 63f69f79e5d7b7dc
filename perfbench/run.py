"""Benchmark of sylvester through its public surface.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quad-gauss --seed 1 --seconds 25 --trace 0

The program under test is the checkout's own `src/sylvester`, imported in this
process.  One client sends one operation at a time (a closed loop): each is a
`sylvester.cli.main(argv)` call with its output captured and parsed, or a
public library call where the CLI has no verb.  Every output is checked by the
failure oracle.  The run repeats whole passes over the workload's operations
for about `--seconds`, and at least two.

With `--trace 0` the last line of stdout holds the end-to-end metrics of
BENCHMARK.json.  With `--trace 1` the run makes one untraced and one traced
pass instead, prints the per-layer metrics, and writes the spans of the traced
pass to perfbench/out/.  Lines before the last are for people: further
end-to-end metrics, failures by operation, and per-query layer times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import layers
import oracle
import reference
import workloads
from tracer import Tracer

SETUP_RUNS = 7
MIN_PASSES = 2
REFERENCE_PERIOD = 0.1  # seconds between two reference samples during a pass
MIN_REFERENCE_SAMPLES = 10  # per pass and per set-up
OUT_DIR = Path(__file__).resolve().parent / "out"

# a fresh process that imports sylvester, makes the workload's warm-up call
# and prints how long that took at the reference speed, which it measures
# right after (the first sample warms the reference up and is dropped)
_SETUP_SCRIPT = """\
import time
start = time.perf_counter()
import contextlib, io, sys
import sylvester.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = sylvester.cli.main(sys.argv[2:])
seconds = time.perf_counter() - start
import reference
samples = [reference.reference_seconds() for _ in range(int(sys.argv[1]) + 1)]
print(seconds * reference.scale(samples[1:]))
sys.exit(code)
"""


@dataclass
class Result:
    op: workloads.Op
    seconds: float
    outcome: oracle.Outcome
    checks: int = 0
    hard_failures: int = 0
    scale: float = 1.0  # wall seconds to seconds at the reference speed, see reference.py

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def load_program(root: Path):
    """Import sylvester from the checkout's src/, and refuse any other copy."""
    src = root / "src"
    if not (src / "sylvester" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {src / 'sylvester'} is missing")
    sys.path.insert(0, str(src))
    import sylvester
    import sylvester.cli

    if Path(sylvester.__file__).resolve().parent != (src / "sylvester").resolve():
        raise SystemExit(f"error: imported sylvester from {sylvester.__file__}, not from {src}")
    return sylvester


def run_op(syl, op: workloads.Op, tracer: Optional[Tracer] = None,
           sampler: Optional[reference.Sampler] = None) -> tuple:
    """Run one operation; returns (seconds, exit code or "raised <type>", output).

    The output is the captured stdout, or for a library call its result as a
    record (None when it raised).  The seconds leave out the reference
    samples `sampler` took during the operation.
    """
    call = getattr(syl, op.function) if op.function else syl.cli.main
    if tracer is not None:
        call = tracer.wrap(call, f"geomc.{op.function}" if op.function else "cli.main")
        frame = tracer.open("query")
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            value = call(*op.args) if op.function else call(list(op.argv))
        code = 0 if op.function else value
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not an aborted run
        value, code = None, f"raised {type(exc).__name__}"
    end = time.perf_counter()
    seconds = end - start if sampler is None else sampler.busy(start, end)
    if tracer is not None:
        tracer.close(frame, label=op.label)
    if op.function:
        record = None if value is None else {"value": value.estimate, "stderr": value.stderr, "trials": value.trials}
        return seconds, code, record
    return seconds, code, out.getvalue()


def _json_record(code, text: str) -> Optional[dict]:
    lines = text.splitlines()
    if code != 0 or len(lines) != 1:
        return None
    try:
        record = json.loads(lines[0])
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def check(op: workloads.Op, seconds: float, code, output, pairs: dict) -> Result:
    if op.kind == "verify":
        outcome, checks, hard = oracle.verify_outcome(code, output)
        return Result(op, seconds, outcome, checks, hard)
    record = output if op.kind == "lemma" else _json_record(code, output)
    if op.kind == "quad":
        return Result(op, seconds, oracle.quad_outcome(code, record, op.reference))
    outcome = oracle.mc_outcome(code, record, op.reference)
    if op.pair:
        oracle.pair_outcome(outcome, record, pairs, op.pair)
    return Result(op, seconds, outcome)


def run_pass(syl, wl: workloads.Workload, tracer: Optional[Tracer] = None) -> list:
    pairs: dict = {}
    results = []
    for index, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.query = index
        results.append(check(op, *run_op(syl, op, tracer), pairs))
    return results


def scaled_pass(syl, wl: workloads.Workload) -> list:
    """Results of one pass, with the reference timed every REFERENCE_PERIOD during it.

    Operations at more than one worker run with the sampler stopped: their
    threads would slow the single-threaded reference.  A pass with fewer than
    MIN_REFERENCE_SAMPLES samples takes the rest after its last operation.
    """
    sampler = reference.Sampler(REFERENCE_PERIOD)
    pairs: dict = {}
    results = []
    with sampler.active():
        for op in wl.ops:
            if op.workers > 1:
                with sampler.paused():
                    results.append(check(op, *run_op(syl, op), pairs))
            else:
                results.append(check(op, *run_op(syl, op, sampler=sampler), pairs))
    while len(sampler.samples) < MIN_REFERENCE_SAMPLES:
        sampler.sample()
    scale = reference.scale(sampler.samples)
    for r in results:
        r.scale = scale
    return results


def setup_seconds(root: Path, argv) -> float:
    """Time a fresh process takes to import sylvester and make the warm-up call, at the reference speed.

    The process times itself: waiting with a timeout polls every 50 ms, which
    would round the parent's measurement to that step.
    """
    env = dict(os.environ)
    paths = [str(root / "src"), str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT, str(MIN_REFERENCE_SAMPLES), *argv], cwd=root, env=env, check=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=120,
    )
    return float(done.stdout)


def tail(samples) -> Optional[tuple]:
    """(value, percentile) at the highest percentile with at least 10 samples beyond it.

    That is the 11th largest sample, at percentile 100 * (n - 10) / n; None
    for fewer than 11 samples.
    """
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def _rate(results, kind: str, workers: Optional[int] = None) -> Optional[float]:
    chosen = [r for r in results if r.op.kind == kind and workers in (None, r.op.workers)]
    busy = sum(r.scaled for r in chosen)
    return sum(r.op.trials for r in chosen) / busy if busy else None


def end_to_end(results, setups) -> tuple[dict, list]:
    """(metrics of BENCHMARK.json, further metrics as (name, value, unit, note)).

    Every timing is taken over all operations of the run, in seconds at the
    reference speed (see reference.py); `setups` are scaled already.  The
    wall-clock latency and throughput are printed as well.
    """
    latencies = [r.scaled for r in results]
    walls = [r.seconds for r in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(latencies),
        "queries_per_s": len(results) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = sum(r.outcome.failed for r in results)
    extra = [
        ("failed_share", failed / len(results), "1", f"{failed} of {len(results)} operations"),
        ("wall_query_p50_s", statistics.median(walls), "s", "wall clock"),
        ("wall_queries_per_s", len(results) / sum(walls), "1/s", "wall clock"),
    ]
    high = tail(latencies)
    if high is not None:
        extra.append(("query_tail_s", high[0], "s", f"p{high[1]:.1f} of all {len(results)} operations"))
    for name, kind, workers in (
        ("mc_trials_per_s_w1", "mc", 1), ("mc_trials_per_s_w2", "mc", 2), ("lemma_trials_per_s", "lemma", None)
    ):
        rate = _rate(results, kind, workers)
        if rate is not None:
            extra.append((name, rate, "1/s", "trials over busy time"))
    verify = [r.scaled for r in results if r.op.kind == "verify"]
    if verify:
        extra.append(("verify_s", statistics.median(verify), "s", f"median of {len(verify)} runs"))
    return metrics, extra


def measure(root: Path, syl, wl: workloads.Workload, seconds: float) -> tuple:
    """Passes and set-ups for about `seconds`: (passes, pass wall times, set-up times).

    The set-ups are spread between the passes so that they sample the same
    machine conditions.  A pass starts only while at least half of one fits
    before the deadline, counting the set-ups still to come, so a run ends
    within half a pass of `seconds` however fast the machine is.
    """
    deadline = time.perf_counter() + seconds
    passes, walls, setups, setup_wall = [], [], [], 0.0
    while True:
        if len(setups) < SETUP_RUNS:
            began = time.perf_counter()
            setups.append(setup_seconds(root, wl.warmup))
            setup_wall = time.perf_counter() - began
        began = time.perf_counter()
        passes.append(scaled_pass(syl, wl))
        walls.append(time.perf_counter() - began)
        left = deadline - time.perf_counter() - (SETUP_RUNS - len(setups)) * setup_wall
        if len(passes) >= MIN_PASSES and left < statistics.mean(walls) / 2:
            break
    setups += [setup_seconds(root, wl.warmup) for _ in range(SETUP_RUNS - len(setups))]
    return passes, walls, setups


def correct(results) -> bool:
    """False when an operation fails for a deterministic reason and is not a known defect."""
    return not any(r.outcome.deterministic() and r.op.known_defect is None for r in results)


def failure_lines(results) -> list:
    groups = Counter(
        (r.op.label, "; ".join(text for text, _ in r.outcome.reasons), r.op.known_defect)
        for r in results if r.outcome.failed
    )
    return [
        f"# failed x{count}: {label}: {reasons}" + (f" (known defect: {known})" if known else "")
        for (label, reasons, known), count in sorted(groups.items())
    ]


def query_lines(tracer: Tracer) -> list:
    """Per query: wall time, share covered by named layer spans, largest self times."""
    selfs: dict = {}
    for span in tracer.spans:
        if span["name"] != "query":
            selfs.setdefault(span["query"], Counter())[span["name"]] += span["self_s"]
    for (query, name), (_, _, self_s) in tracer.leaves.items():
        selfs.setdefault(query, Counter())[name] += self_s
    lines = []
    for span in (s for s in tracer.spans if s["name"] == "query"):
        wall = span["end"] - span["start"]
        top = ", ".join(f"{n} {t:.4f}" for n, t in selfs.get(span["query"], Counter()).most_common(4))
        lines.append(
            f"# query {span['label']}: {wall:.4f} s, named spans cover {1.0 - span['self_s'] / wall:.1%}; "
            f"self s: {top}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    syl = load_program(root)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wl = workloads.build(args.workload, args.seed, syl)
    warmup = workloads.Op(label="warm-up", kind="warmup", argv=wl.warmup)
    run_op(syl, warmup)

    lines = []
    if args.trace:
        start = time.perf_counter()
        results = run_pass(syl, wl)
        untraced = time.perf_counter() - start
        tracer = Tracer()
        start = time.perf_counter()
        with layers.installed(tracer):
            traced_results = run_pass(syl, wl, tracer)
        traced = time.perf_counter() - start
        results += traced_results
        rates = layers.classify_rates(syl, wl.mc_dims, args.seed) if wl.mc_dims else {}
        metrics = layers.layer_metrics(tracer, rates)
        metrics["verification.checks"] = sum(r.checks for r in traced_results)
        metrics["verification.hard_failures"] = sum(r.hard_failures for r in traced_results)
        metrics["trace.overhead_s"] = traced - untraced
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl")
        lines.append(f"# untraced pass {untraced:.3f} s, traced pass {traced:.3f} s")
        lines += query_lines(tracer)
        declared_metrics = declared["per_layer"]
    else:
        start = time.perf_counter()
        passes, walls, setups = measure(root, syl, wl, args.seconds)
        results = [r for one_pass in passes for r in one_pass]
        metrics, extra = end_to_end(results, setups)
        lines.append(
            f"# {len(passes)} passes of {len(wl.ops)} operations in {time.perf_counter() - start:.3f} s; "
            f"pass wall times {', '.join(f'{w:.3f}' for w in walls)} s; "
            f"scales {', '.join(f'{one_pass[0].scale:.3f}' for one_pass in passes)}"
        )
        lines += [f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else "")
                  for name, value, unit, note in extra]
        declared_metrics = declared["end_to_end"]

    lines += failure_lines(results)
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared_metrics}
    lines += [f"metric {name} = {m['value']!r} {m['unit']}" for name, m in report.items()]
    failed = sum(r.outcome.failed for r in results)
    lines.append(json.dumps({
        "correct": correct(results), "attempted": len(results), "failed": failed, "metrics": report,
    }))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
