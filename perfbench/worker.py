"""One measured job in a fresh interpreter.

    python3 perfbench/worker.py JOB_SPEC_JSON

``run.py`` starts one worker per job so that set-up time and peak
memory belong to the job alone.  The worker times its own set-up
(importing freqgap and loading the call's inputs), repeats the timed
call until ``seconds`` have passed (at least once), checks every
output, and prints one JSON object on its last stdout line.

Timed calls go through module attributes (``freqgap.pipeline.run_pipeline``
and so on) so that a tracer installed with ``trace: true`` sees them.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import urllib.request  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the forked count workers.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def _repeat(seconds: float, call) -> list:
    """Call at least once, then again while one more call of the mean
    length still fits in `seconds`."""
    results = []
    started = time.perf_counter()
    while True:
        results.append(call(len(results)))
        if len(results) == 1:
            # Peak of the first call alone: forked workers of later calls
            # inherit whatever the worker process has grown to by then.
            results[0]["peak_rss_mb"] = _peak_rss_mb()
        elapsed = time.perf_counter() - started
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


# -- set-up: import freqgap and load the call's inputs ----------------------


def setup(spec: dict):
    import freqgap  # noqa: F401

    workload = spec["workload"]
    if workload == "demo-run":
        from freqgap.pipeline import parse_config

        config, _warnings = parse_config(spec["config"])
        return config
    if workload == "count-sparse":
        from freqgap.corpus import corpus_units
        from freqgap.counting import CounterConfig

        corpus_units(spec["corpus"], "jsonl", spec["shards"])
        return CounterConfig()
    if workload == "eval-http":
        from freqgap.tasks import load_bundles

        return load_bundles(spec["bundles"])
    if workload == "layers":
        return None
    raise ValueError(f"unknown workload {workload!r}")


# -- timed calls -----------------------------------------------------------


def run_demo(spec: dict, config) -> dict:
    import freqgap.pipeline as pipeline

    work = Path(spec["work"])

    def call(i: int) -> dict:
        out = work / f"run{i}"
        cfg = dataclasses.replace(config, out=out)
        started = time.perf_counter()
        manifest = pipeline.run_pipeline(cfg)
        run_s = time.perf_counter() - started
        result = {"run_s": run_s, "artifact_bytes": _dir_bytes(out)}
        result["stage_s"] = {
            name: st["completed_at"] - st["started_at"] for name, st in manifest.stages.items()
        }
        result["artifact_bytes_by_dir"] = {
            d: _dir_bytes(out / d) for d in ("counts", "datasets", "prompts", "records", "report")
        }
        result["checks"] = _check_demo(out)
        if spec.get("rerun"):
            started = time.perf_counter()
            again = pipeline.run_pipeline(cfg)
            result["rerun_s"] = time.perf_counter() - started
            result["checks"]["rerun_unchanged"] = again.stages == manifest.stages
            result["targets"] = str(out / "targets.txt")
        else:
            shutil.rmtree(out)
        return result

    return {"calls": _repeat(spec["seconds"], call)}


def _check_demo(out: Path) -> dict:
    report = json.loads((out / "report" / "report.json").read_text())
    bundles = 0
    for path in (out / "prompts").glob("*.jsonl"):
        with open(path, encoding="utf-8") as f:
            bundles += sum(1 for _ in f)
    errored = 0
    records = 0
    with open(out / "records" / "records.jsonl", encoding="utf-8") as f:
        for line in f:
            records += 1
            errored += json.loads(line)["error"] is not None
    return {
        "report_complete": not report["incomplete"]
        and all(row["n_records"] > 0 for row in report["rows"]),
        "one_record_per_bundle": records == bundles and records > 0,
        "records": records,
        "errored": errored,
    }


def run_count(spec: dict, config) -> dict:
    import freqgap.corpus as corpus

    work = Path(spec["work"])
    size_mb = os.path.getsize(spec["corpus"]) / 1e6

    def call(i: int) -> dict:
        out = work / f"count{i}" / "counts.tsv"
        started = time.perf_counter()
        meta = corpus.count_corpus(
            spec["corpus"], "jsonl", config, out, shards=spec["shards"], workers=spec["workers"]
        )
        run_s = time.perf_counter() - started
        result = {
            "run_s": run_s,
            "mb_s": size_mb / run_s,
            "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
            "documents": meta.documents,
            "skipped": meta.skipped_documents,
            "artifact_bytes": _dir_bytes(out.parent),
        }
        shutil.rmtree(out.parent)
        return result

    return {"calls": _repeat(spec["seconds"], call), "corpus_mb": size_mb}


def _stub(base_url: str, path: str, data: bytes | None = None) -> dict:
    with urllib.request.urlopen(base_url + path, data=data, timeout=10) as resp:
        return json.loads(resp.read())


def run_eval(spec: dict, bundles) -> dict:
    import freqgap.client as client
    from stub_server import fault_kind, prompt_digest

    work = Path(spec["work"])
    endpoint = client.EndpointConfig(
        base_url=spec["base_url"],
        model_name="stub",
        max_in_flight=spec["max_in_flight"],
        backoff_base=spec["backoff_base"],
        timeout=10.0,
    )
    # Records are keyed like the journal: by (instance, k, prompt seed).
    gold = {(b.test_instance.instance_id, b.k, b.seed): b.gold for b in bundles}
    faulted = {
        (b.test_instance.instance_id, b.k, b.seed)
        for b in bundles
        if fault_kind(prompt_digest(b.rendered)) == "persistent-400"
    }

    def call(i: int) -> dict:
        journal = work / f"journal{i}.jsonl"
        _stub(spec["base_url"], "/stats/reset", b"")
        cpu = time.process_time()
        started = time.perf_counter()
        records = client.evaluate(bundles, endpoint=endpoint, journal=journal, resume=True)
        run_s = time.perf_counter() - started
        cpu = time.process_time() - cpu
        stats = _stub(spec["base_url"], "/stats")
        errored = [r for r in records if r.error is not None]
        unexpected = 0
        for r in records:
            key = (r.instance_id, r.k, r.seed)
            if key in faulted:
                unexpected += r.error != "HTTP 400"
            else:
                unexpected += r.error is not None or r.extracted != gold[key] or not r.correct
        result = {
            "run_s": run_s,
            "cpu_s": cpu,
            "records": len(records),
            "errored": len(errored),
            "unexpected": unexpected + len(bundles) - len(records),
            "latencies": [r.latency for r in records],
            "requests": stats["requests"],
            "max_in_flight": stats["max_in_flight"],
            "by_status": stats["by_status"],
            "artifact_bytes": journal.stat().st_size,
        }
        journal.unlink()
        return result

    return {"calls": _repeat(spec["seconds"], call), "bundles": len(bundles), "faulted": len(faulted)}


def run_layers(spec: dict, _inputs) -> dict:
    """Single-core rates of each counting layer on a sparse and a dense corpus."""
    from freqgap.corpus import iter_corpus_documents
    from freqgap.counting import CounterConfig, TermScanner, count_shard
    from freqgap.tasks import load_targets

    default = CounterConfig()
    targeted = default.with_targets(load_targets(spec["targets"]))
    out = {}
    for shape, path in (("sparse", spec["sparse"]), ("dense", spec["dense"])):
        size_mb = os.path.getsize(path) / 1e6

        def decode():
            for _ in iter_corpus_documents(path, "jsonl"):
                pass

        def scan():
            scanner = TermScanner(default)
            terms = tokens = 0
            for text in iter_corpus_documents(path, "jsonl"):
                found, total = scanner.scan_shifted(text)
                terms += len(found)
                tokens += total
            return terms / tokens

        passes = {
            "decode": decode,
            "scan": scan,
            "default": lambda: len(count_shard(iter_corpus_documents(path, "jsonl"), default).entries),
        }
        if shape == "dense":
            passes["targeted"] = lambda: len(
                count_shard(iter_corpus_documents(path, "jsonl"), targeted).entries
            )
        for name, fn in passes.items():
            times = []
            for _ in range(spec["repeats"]):
                started = time.perf_counter()
                value = fn()
                times.append(time.perf_counter() - started)
            layer = "corpus" if name == "decode" else "counting"
            out[f"{layer}.{name}_mb_s.{shape}"] = (size_mb / statistics.median(times), "MB/s")
            if name == "scan":
                out[f"counting.term_frac.{shape}"] = (value, "ratio")
            if name == "default":
                out[f"counting.table_keys.{shape}"] = (value, "count")
    return {"rates": out}


JOBS = {"demo-run": run_demo, "count-sparse": run_count, "eval-http": run_eval, "layers": run_layers}


def main() -> None:
    spec = json.loads(sys.argv[1])
    inputs = setup(spec)
    result = {"setup_s": time.perf_counter() - _T0}
    if spec.get("setup_only"):
        print(json.dumps(result))
        return
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result.update(JOBS[spec["workload"]](spec, inputs))
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(spec["spans_out"]))
        result["trace"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
