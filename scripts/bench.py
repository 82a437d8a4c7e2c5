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

Last comes the paper-run: the paper's whole experiment, run_pipeline
with five prompt seeds on generate_demo_corpus(size_mb=10, seed=0) and
the freq_logistic(1, -3, 6) mock, three times, each in a fresh process
from an empty run directory.  It prints each run's stage table, and
stores under "paper-run" every run and the median of each figure: the
run's seconds and each stage's, read from its manifest.json, the
process's peak RSS, and the bytes under each entry of the run directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAPER_RUNS = 3

# One paper-run in the process it starts: argv is the corpus directory and
# the run directory; the last stdout line is the run's figures as JSON.
_PAPER_RUN = """
import json, resource, sys
from pathlib import Path
from freqgap.client import MockPolicy
from freqgap.pipeline import RunConfig, run_pipeline

corpus, out = map(Path, sys.argv[1:])
mock = MockPolicy("freq_logistic", a=1.0, b=-3.0, seed=6)
manifest = run_pipeline(RunConfig(corpus_path=corpus, out=out, seeds=5, mock=mock))

def size(path):
    files = path.rglob("*") if path.is_dir() else [path]
    return sum(f.stat().st_size for f in files if f.is_file())

stages = manifest.stages
print(json.dumps({
    "run_s": max(s["completed_at"] for s in stages.values()) - manifest.created_at,
    "stage_s": {name: s["completed_at"] - s["started_at"] for name, s in stages.items()},
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "artifact_bytes": {entry.name: size(entry) for entry in sorted(out.iterdir())},
}))
"""


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _median(values: list):
    """Median of numbers, or of dicts of numbers key by key."""
    if isinstance(values[0], dict):
        return {key: _median([v[key] for v in values]) for key in values[0]}
    return statistics.median(values)


def paper_run() -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )}
    with tempfile.TemporaryDirectory(prefix="freqgap-paper-run-") as tmp:
        corpus = Path(tmp) / "corpus"
        subprocess.run(
            [sys.executable, "-c", "import sys; from freqgap.demo import generate_demo_corpus; "
             "generate_demo_corpus(sys.argv[1], size_mb=10, seed=0)", str(corpus)],
            env=env, check=True,
        )
        runs = []
        for i in range(PAPER_RUNS):
            out = Path(tmp) / f"run{i}"
            run = subprocess.run(
                [sys.executable, "-c", _PAPER_RUN, str(corpus), str(out)],
                env=env, check=True, stdout=subprocess.PIPE, text=True,
            )
            shutil.rmtree(out)
            runs.append(json.loads(run.stdout.strip().splitlines()[-1]))
            print(f"paper-run {i + 1}/{PAPER_RUNS}: {runs[-1]['run_s']:.2f} s")
            for name, seconds in runs[-1]["stage_s"].items():  # in the order they ran
                print(f"  {name:<12} {seconds:>8.2f}")
    return {"runs": runs, "median": _median(runs)}


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
        "paper-run": paper_run(),
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"bench: wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
