#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<N>.json.

    python3 scripts/bench.py --number N

Runs the benchmark from the root of the checkout, on its fixed seed:
demo-run twice, untraced for the end-to-end metrics and traced for the
per-layer ones, then count-sparse and eval-http untraced,

    python3 perfbench/run.py --workload demo-run --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload demo-run --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload count-sparse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload eval-http --seed 1 --seconds 25 --trace 0

passes their output through, and writes their last stdout lines (the
JSON results) with the machine's CPU count, the Python version and the
checked-out commit (and whether tracked files differ from it) to
BENCH_<N>.json in the root of the checkout: the traced demo-run under
"command" and "result", the untraced one under "end_to_end", and the
other two as {"command", "result"} under "workloads", by workload name.
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

    runs = {}
    for workload, trace in (
        ("demo-run", "0"), ("demo-run", "1"), ("count-sparse", "0"), ("eval-http", "0")
    ):
        command = [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "25", "--trace", trace,
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
        runs[workload, trace] = {"command": ["python3", *command[1:]], "result": result}
    point = {
        **runs["demo-run", "1"],
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "end_to_end": runs["demo-run", "0"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {name: runs[name, "0"] for name in ("count-sparse", "eval-http")},
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"bench: wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
