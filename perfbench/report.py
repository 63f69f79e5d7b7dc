"""Print every end-to-end metric of all four workloads, each run in a fresh process.

    python3 perfbench/report.py --seed 1 --seconds 25

Run from the root of a checkout.  Exits 1 when a run fails or reports an
incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        print(f"## {workload}", flush=True)
        run = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        *lines, last = run.stdout.splitlines() or [""]
        print("\n".join(lines))
        if run.returncode != 0:
            print(f"# run failed with exit {run.returncode}")
            ok = False
            continue
        result = json.loads(last)
        print(f"# correct {result['correct']}, {result['failed']} of {result['attempted']} operations failed")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
