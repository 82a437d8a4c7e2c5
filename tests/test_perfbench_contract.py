"""The surface the benchmark in perfbench/ relies on.

perfbench wraps freqgap's public functions by name (spans.WRAPPED) and
reads a finished run's files by path.  A rename or a moved call would
otherwise surface only when the benchmark runs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import freqgap.analysis
import freqgap.client
import freqgap.corpus
import freqgap.counting
import freqgap.pipeline
import freqgap.tasks
from freqgap.client import EndpointConfig, MockPolicy, evaluate
from freqgap.counting import CounterConfig
from freqgap.demo import generate_demo_corpus
from freqgap.pipeline import RunConfig, run_pipeline
from freqgap.tasks import build_fewshot_prompts, make_instance

# loaded by file under its own module name, so perfbench's top-level
# module names (spans, run, worker) never shadow imports of other tests
_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
perfbench_spans = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_spans)
WRAPPED, Tracer = perfbench_spans.WRAPPED, perfbench_spans.Tracer

# the stages whose seconds the benchmark reports, as BENCHMARK.json declares them
_STAGE_PREFIX = "pipeline.stage_s."
_BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
STAGES = {
    m["name"][len(_STAGE_PREFIX) :]
    for m in _BENCHMARK["per_layer"]
    if m["name"].startswith(_STAGE_PREFIX)
}


def _wrapped_objects():
    objects = {}
    for layer, entries in WRAPPED.items():
        home = sys.modules[f"freqgap.{layer}"]
        for attr, _size in entries:
            if "." in attr:
                cls_name, meth = attr.split(".")
                objects[(layer, attr)] = getattr(home, cls_name).__dict__[meth]
            else:
                objects[(layer, attr)] = getattr(home, attr)
    return objects


def test_tracer_wraps_a_pipeline_run_and_restores_every_name(tmp_path):
    originals = _wrapped_objects()
    corpus = generate_demo_corpus(tmp_path / "corpus", size_mb=0.5, seed=1)
    out = tmp_path / "run"
    config = RunConfig(
        corpus_path=corpus,
        corpus_format="jsonl",
        out=out,
        tasks=("mult", "hour_min"),
        ks=(0, 2),
        seeds=1,
        mock=MockPolicy("freq_logistic", a=1.0, b=-3.0, seed=6),
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert all(_wrapped_objects()[key] is not obj for key, obj in originals.items())
        manifest = freqgap.pipeline.run_pipeline(config)
        # The run's count has one partition and copies its one spill; a
        # count of two partitions merges theirs.
        parts = tmp_path / "parts"
        parts.mkdir()
        for name in ("a.jsonl", "b.jsonl"):
            (parts / name).write_bytes(corpus.read_bytes())
        two = tmp_path / "two" / "counts.tsv"
        freqgap.corpus.count_corpus(parts, "jsonl", CounterConfig(), two, shards=2, workers=1)
    finally:
        tracer.uninstall()
    assert _wrapped_objects() == originals

    spans = {s.id: s for s in tracer.spans}
    names = {s.name for s in spans.values()}
    for name in (
        "pipeline.run_pipeline",
        "corpus.count_corpus",
        "tasks.build_fewshot_prompts",
        "client.evaluate",
        "analysis.build_report",
    ):
        assert name in names
    # count_corpus reaches the k-way merge through freqgap.corpus
    merges = [s for s in spans.values() if s.name == "corpus.merge_sorted_count_files"]
    assert len(merges) == 1
    assert all(spans[s.parent].name == "corpus.count_corpus" for s in merges)

    assert set(manifest.stages) == STAGES
    for rel in (
        "targets.txt",
        "counts/pass1/counts.tsv",
        "counts/pass2/counts.tsv",
        "records/records.jsonl",
        "report/report.json",
    ):
        assert (out / rel).is_file(), rel
    assert len(list((out / "prompts").glob("*.jsonl"))) == 2 * 2 * 1
    # an untraced re-run finds every stage up to date
    assert run_pipeline(config).stages == manifest.stages


def test_the_eval_http_call_binds_to_evaluate_and_returns_a_list(tmp_path):
    """perfbench's eval-http workload (worker.run_eval) calls evaluate this
    way; its journaled bundles come back without a request."""
    dataset = [make_instance("mult", (x1, 7)) for x1 in range(2, 8)]
    bundles = build_fewshot_prompts(dataset, 2, seed=0)
    journal = tmp_path / "journal.jsonl"
    expected = evaluate(bundles, mock=MockPolicy("perfect"), journal=journal)
    endpoint = EndpointConfig(base_url="http://127.0.0.1:9", model_name="stub", timeout=10.0)
    records = evaluate(bundles, endpoint=endpoint, journal=journal, resume=True)
    assert type(records) is list
    assert records == expected
