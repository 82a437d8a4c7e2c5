"""The surface the benchmark in perfbench/ relies on.

perfbench wraps freqgap's public functions by name (spans.WRAPPED) and
reads a finished run's files by path.  A rename or a moved call would
otherwise surface only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import freqgap.analysis
import freqgap.client
import freqgap.corpus
import freqgap.counting
import freqgap.pipeline
import freqgap.tasks
from freqgap.client import MockPolicy
from freqgap.demo import generate_demo_corpus
from freqgap.pipeline import RunConfig, run_pipeline

# loaded by file under its own module name, so perfbench's top-level
# module names (spans, run, worker) never shadow imports of other tests
_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
perfbench_spans = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_spans)
WRAPPED, Tracer = perfbench_spans.WRAPPED, perfbench_spans.Tracer

STAGES = {"count_pass1", "gen", "targets", "count_pass2", "prompts", "eval", "analyze"}


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
    assert len(merges) == 2
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
