#!/usr/bin/env python3
"""The freqgap benchmark.

    python3 perfbench/run.py --workload {demo-run,count-sparse,eval-http}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs building, the
program is imported from ``src/``.  Inputs are generated from ``--seed``
and cached under ``.perfbench/inputs``; scratch output goes to
``.perfbench/work`` and is deleted when the run ends.

With ``--trace 0`` the run measures the workload's timed call, repeated
for ``--seconds`` seconds in a fresh worker process, and reports the
end-to-end metrics.  With ``--trace 1`` it runs the traced sweep of all
three workloads plus the single-core layer rates and reports the
per-layer metrics, including the tracing overhead of the named
workload's call.  Every run checks the outputs it produced.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
CACHE = STATE / "inputs"
WORK = STATE / "work"

WORKLOADS = ("demo-run", "count-sparse", "eval-http")
SETUP_REPEATS = 5
COUNT_SHARDS = 2
COUNT_WORKERS = 2
EVAL_MAX_IN_FLIGHT = 2
EVAL_BACKOFF_S = 0.002
LAYER_REPEATS = 3
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def demo_config(corpus: Path) -> dict:
    """The paper's experiment with one prompt seed: 11 tasks, k in
    {0, 2, 4, 8, 16}, the freq_logistic mock, shards=1."""
    return {
        "corpus": {"path": str(corpus), "format": "jsonl"},
        "out": str(WORK / "unused"),
        "seeds": 1,
        "mock": {"kind": "freq_logistic", "a": 1.0, "b": -3.0, "seed": 6},
    }


def run_worker(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {spec['workload']} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_setup_s(spec: dict) -> float:
    """Median set-up time over fresh interpreters (import + input load)."""
    samples = [run_worker({**spec, "setup_only": True})["setup_s"] for _ in range(SETUP_REPEATS)]
    return statistics.median(samples)


@contextlib.contextmanager
def stub_endpoint(answers: Path):
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub_server.py"), str(answers)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            raise BenchError("stub server did not start")
        yield f"http://127.0.0.1:{line[1]}"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


class Result:
    def __init__(self) -> None:
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.figures: dict[str, tuple[float, str]] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def payload(self) -> dict:
        return {
            "correct": all(self.checks.values()),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


# -- the three workloads, untraced -----------------------------------------


def demo_spec(seed: int, seconds: float) -> dict:
    import inputs

    corpus = inputs.demo_corpus(CACHE, seed)
    return {
        "workload": "demo-run",
        "config": demo_config(corpus),
        "work": str(WORK / "demo"),
        "seconds": seconds,
    }


def count_spec(seed: int, seconds: float) -> dict:
    import inputs

    return {
        "workload": "count-sparse",
        "corpus": str(inputs.sparse_corpus(CACHE, seed)),
        "shards": COUNT_SHARDS,
        "workers": COUNT_WORKERS,
        "work": str(WORK / "count"),
        "seconds": seconds,
    }


def eval_spec(seed: int, seconds: float) -> tuple[dict, Path]:
    import inputs

    bundles, answers = inputs.eval_bundles(CACHE, seed)
    spec = {
        "workload": "eval-http",
        "bundles": str(bundles),
        "max_in_flight": EVAL_MAX_IN_FLIGHT,
        "backoff_base": EVAL_BACKOFF_S,
        "work": str(WORK / "eval"),
        "seconds": seconds,
    }
    return spec, answers


def check_demo(res: Result, out: dict) -> None:
    for call in out["calls"]:
        checks = call["checks"]
        res.check("demo.report_complete", checks["report_complete"])
        res.check("demo.one_record_per_bundle", checks["one_record_per_bundle"])
        if "rerun_unchanged" in checks:
            res.check("demo.rerun_unchanged", checks["rerun_unchanged"])
        res.attempted += checks["records"]
        res.failed += checks["errored"]


def check_count(res: Result, out: dict, reference: dict) -> None:
    for call in out["calls"]:
        res.check("count.table_equals_shards1", call["sha256"] == reference["sha256"])
        res.check("count.documents", call["documents"] == reference["documents"])
        res.attempted += call["documents"] + call["skipped"]
        res.failed += call["skipped"]


def check_eval(res: Result, out: dict) -> None:
    for call in out["calls"]:
        res.check("eval.one_record_per_bundle", call["records"] == out["bundles"])
        res.check("eval.outcomes_as_scheduled", call["unexpected"] == 0)
        # Errored share equals the scheduled persistent-fault share exactly.
        res.check("eval.failed_frac_exact", call["errored"] * out["bundles"] == out["faulted"] * call["records"])
        res.check("eval.max_in_flight", call["max_in_flight"] <= EVAL_MAX_IN_FLIGHT)
        res.attempted += call["records"]
        res.failed += call["unexpected"]


def end_to_end(res: Result, out: dict, setup_s: float) -> None:
    calls = out["calls"]
    res.metrics["run_s"] = (statistics.median(c["run_s"] for c in calls), "s")
    res.metrics["peak_rss_mb"] = (calls[0]["peak_rss_mb"], "MB")
    res.metrics["artifact_mb"] = (statistics.median(c["artifact_bytes"] for c in calls) / 1e6, "MB")
    res.metrics["setup_s"] = (setup_s, "s")
    res.figures["calls"] = (len(calls), "count")


def run_demo_run(seed: int, seconds: float) -> Result:
    res = Result()
    spec = demo_spec(seed, seconds)
    setup_s = median_setup_s(spec)
    out = run_worker(spec)
    check_demo(res, out)
    end_to_end(res, out, setup_s)
    mid = sorted(out["calls"], key=lambda c: c["run_s"])[len(out["calls"]) // 2]
    for stage, secs in mid["stage_s"].items():
        res.figures[f"stage_s.{stage}"] = (secs, "s")
    res.figures["records_per_s"] = (mid["checks"]["records"] / mid["run_s"], "1/s")
    res.figures["failed_frac"] = (res.failed / res.attempted, "ratio")
    return res


def run_count_sparse(seed: int, seconds: float) -> Result:
    import inputs

    res = Result()
    spec = count_spec(seed, seconds)
    reference = inputs.sparse_reference(CACHE, seed, Path(spec["corpus"]))
    setup_s = median_setup_s(spec)
    out = run_worker(spec)
    check_count(res, out, reference)
    end_to_end(res, out, setup_s)
    res.figures["count_mb_s"] = (statistics.median(c["mb_s"] for c in out["calls"]), "MB/s")
    res.figures["corpus_mb"] = (out["corpus_mb"], "MB")
    res.figures["failed_frac"] = (res.failed / res.attempted, "ratio")
    return res


def eval_figures(out: dict) -> dict[str, tuple[float, str]]:
    """Client-side figures over every pass of an eval-http worker."""
    calls = out["calls"]
    latencies = [lat * 1e3 for c in calls for lat in c["latencies"]]
    requests = sum(c["requests"] for c in calls)
    records = sum(c["records"] for c in calls)
    errored = sum(c["errored"] for c in calls)
    return {
        "req_per_s": (statistics.median(c["requests"] / c["run_s"] for c in calls), "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.50), "ms"),
        "latency_p99_ms": (percentile(latencies, 0.99), "ms"),
        "failed_frac": (errored / records, "ratio"),
        "requests": (requests / len(calls), "count"),
        "retries": ((requests - records) / len(calls), "count"),
        "max_in_flight_seen": (max(c["max_in_flight"] for c in calls), "count"),
        "useful_frac": ((records - errored) / requests, "ratio"),
        "cpu_ms_per_req": (1e3 * sum(c["cpu_s"] for c in calls) / requests, "ms"),
    }


def run_eval_http(seed: int, seconds: float) -> Result:
    res = Result()
    spec, answers = eval_spec(seed, seconds)
    setup_s = median_setup_s(spec)
    with stub_endpoint(answers) as base_url:
        out = run_worker({**spec, "base_url": base_url})
    check_eval(res, out)
    end_to_end(res, out, setup_s)
    for name, figure in eval_figures(out).items():
        res.figures[name if name == "failed_frac" else f"eval_{name}"] = figure
    return res


# -- the traced sweep --------------------------------------------------------


def run_traced(workload: str, seed: int) -> Result:
    """Per-layer metrics from one traced call of each workload, the
    single-core layer rates, and the tracing overhead of `workload`."""
    import inputs

    res = Result()
    m = res.metrics
    spans_dir = STATE / "trace"

    # demo-run, traced, then a no-op resume of the same run directory.
    spec = demo_spec(seed, 0)
    demo = run_worker({**spec, "trace": True, "rerun": True, "spans_out": str(spans_dir / "demo-run.jsonl")})
    check_demo(res, demo)
    call = demo["calls"][0]
    for stage, secs in call["stage_s"].items():
        m[f"pipeline.stage_s.{stage}"] = (secs, "s")
    by_name = demo["trace"]["by_name"]

    def total(name: str) -> float:
        return by_name.get(name, {}).get("total_s", 0.0)

    def size(name: str) -> int:
        return by_name.get(name, {}).get("size", 0)

    m["pipeline.hash_s"] = (total("pipeline.sha256_file"), "s")
    m["pipeline.hashed_mb"] = (size("pipeline.sha256_file") / 1e6, "MB")
    for d, nbytes in call["artifact_bytes_by_dir"].items():
        m[f"pipeline.artifact_mb.{d}"] = (nbytes / 1e6, "MB")
    m["pipeline.rerun_s"] = (call["rerun_s"], "s")
    for name in ("tasks.build_fewshot_prompts", "tasks.save_bundles", "tasks.load_bundles",
                 "client.evaluate", "client.save_records", "client.load_records",
                 "analysis.build_report", "analysis.write_report"):
        m[f"{name}_s"] = (total(name), "s")
    m["tasks.bundles"] = (size("tasks.build_fewshot_prompts"), "count")
    m["client.records"] = (size("client.evaluate"), "count")
    m["analysis.aggregate_calls"] = (by_name.get("analysis.aggregate", {}).get("calls", 0), "count")
    m["analysis.points"] = (size("analysis.aggregate"), "count")
    for layer, secs in demo["trace"]["self_s"].items():
        m[f"trace.self_s.{layer}"] = (secs, "s")
    m["trace.spans"] = (demo["trace"]["spans"], "count")

    # Single-core layer rates on small sparse and dense corpora, with the
    # demo run's targets for the targeted pass.
    layers = run_worker({
        "workload": "layers",
        "sparse": str(inputs.sparse_corpus(CACHE, seed, inputs.LAYER_MB)),
        "dense": str(inputs.demo_corpus(CACHE, seed, inputs.LAYER_MB)),
        "targets": call["targets"],
        "repeats": LAYER_REPEATS,
    })
    shutil.rmtree(WORK / "demo")
    m.update((name, tuple(figure)) for name, figure in layers["rates"].items())

    # count-sparse, traced.
    spec = count_spec(seed, 0)
    reference = inputs.sparse_reference(CACHE, seed, Path(spec["corpus"]))
    count = run_worker({**spec, "trace": True, "spans_out": str(spans_dir / "count-sparse.jsonl")})
    check_count(res, count, reference)
    count_mb_s = count["calls"][0]["mb_s"]
    m["corpus.count_mb_s"] = (count_mb_s, "MB/s")
    m["corpus.merge_s"] = (count["trace"]["by_name"]["corpus.merge_sorted_count_files"]["total_s"], "s")
    m["corpus.shard_speedup"] = (count_mb_s / m["counting.default_mb_s.sparse"][0], "x")

    # eval-http, traced: one pass.
    spec, answers = eval_spec(seed, 0)
    with stub_endpoint(answers) as base_url:
        spec["base_url"] = base_url
        ev = run_worker({**spec, "trace": True, "spans_out": str(spans_dir / "eval-http.jsonl")})
        check_eval(res, ev)
        for name, figure in eval_figures(ev).items():
            m[f"client.{name}"] = figure
        # Tracing overhead: the named workload's call, traced minus untraced.
        if workload == "eval-http":
            traced_s = ev["calls"][0]["run_s"]
            untraced = run_worker(spec)
            check_eval(res, untraced)
    if workload == "demo-run":
        traced_s = call["run_s"]
        untraced = run_worker(demo_spec(seed, 0))
        check_demo(res, untraced)
    elif workload == "count-sparse":
        traced_s = count["calls"][0]["run_s"]
        untraced = run_worker(count_spec(seed, 0))
        check_count(res, untraced, reference)
    untraced_s = untraced["calls"][0]["run_s"]
    m["trace.run_s"] = (traced_s, "s")
    m["trace.untraced_run_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return res


# -- entry point -------------------------------------------------------------


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "page_cache": "warm (cannot be dropped here)",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "freqgap" / "__init__.py").is_file():
        print(f"error: no freqgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    # Count spills go to tempfile's directory; keep them in the checkout.
    os.environ["TMPDIR"] = str(WORK)
    try:
        if args.trace:
            res = run_traced(args.workload, args.seed)
        else:
            runner = {"demo-run": run_demo_run, "count-sparse": run_count_sparse,
                      "eval-http": run_eval_http}[args.workload]
            res = runner(args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    for name, ok in sorted(res.checks.items()):
        print(f"check  {name:<40} {'ok' if ok else 'FAILED'}")
    for name, (value, unit) in {**res.metrics, **res.figures}.items():
        print(f"metric {name:<40} {value:>14.6g} {unit}")
    if args.trace:
        print(f"# spans: {(STATE / 'trace').relative_to(ROOT)}/<workload>.jsonl")
    print(json.dumps(res.payload()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
