#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<N>.json.

    python3 scripts/bench.py --number N

Runs the traced demo-run sweep of the benchmark on its fixed seed,

    python3 perfbench/run.py --workload demo-run --seed 1 --seconds 25 --trace 1

from the root of the checkout, passes its output through, and writes
its last stdout line (the JSON result) with the machine's CPU count,
the Python version and the checked-out commit to BENCH_<N>.json in
the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--number", type=int, required=True, help="N in BENCH_<N>.json")
    args = parser.parse_args()

    command = [
        sys.executable, "perfbench/run.py", "--workload", "demo-run",
        "--seed", "1", "--seconds", "25", "--trace", "1",
    ]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        print(f"bench: perfbench exited {run.returncode}", file=sys.stderr)
        return run.returncode
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict):
        print("bench: perfbench's last line is not a JSON object", file=sys.stderr)
        return 1
    point = {
        "command": ["python3", *command[1:]],
        "commit": _git("rev-parse", "HEAD"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "result": result,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"bench: wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
