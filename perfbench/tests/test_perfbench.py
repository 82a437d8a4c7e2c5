"""Tests of the benchmark's own parts: tracer, stub endpoint, runner.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import freqgap  # noqa: E402
import freqgap.analysis  # noqa: E402
import freqgap.pipeline  # noqa: E402
import freqgap.tasks  # noqa: E402
import freqgap.util  # noqa: E402
from freqgap.counting import CountTable  # noqa: E402
from freqgap.tasks import make_instance  # noqa: E402

import run  # noqa: E402
import stub_server  # noqa: E402
from spans import Span, Tracer  # noqa: E402


# -- tracer ------------------------------------------------------------------


def test_tracer_wraps_every_reference_and_restores_them():
    originals = (freqgap.pipeline.build_report, freqgap.analysis.build_report, freqgap.build_report)
    sha = freqgap.util.sha256_file
    load = CountTable.__dict__["load"]
    tracer = Tracer()
    tracer.install()
    try:
        assert freqgap.pipeline.build_report is freqgap.analysis.build_report
        assert freqgap.pipeline.build_report is not originals[0]
        assert freqgap.build_report is freqgap.analysis.build_report
        assert freqgap.pipeline.sha256_file is not sha
        assert CountTable.__dict__["load"] is not load
    finally:
        tracer.uninstall()
    assert (freqgap.pipeline.build_report, freqgap.analysis.build_report, freqgap.build_report) == originals
    assert freqgap.util.sha256_file is sha
    assert CountTable.__dict__["load"] is load


def test_tracer_records_nested_spans_with_sizes(tmp_path):
    dataset = [make_instance("mult", (x1, x2)) for x1 in range(1, 4) for x2 in range(1, 5)]
    path = tmp_path / "bundles.jsonl"
    tracer = Tracer()
    tracer.install()
    try:
        bundles = freqgap.tasks.build_fewshot_prompts(dataset, 2, seed=0)
        freqgap.tasks.save_bundles(bundles, path)
        freqgap.pipeline.sha256_file(path)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["tasks.build_fewshot_prompts", "tasks.save_bundles", "pipeline.sha256_file"]
    assert tracer.spans[0].size == len(bundles) == 10
    assert tracer.spans[2].size == path.stat().st_size
    assert all(s.parent is None and s.end >= s.start for s in tracer.spans)
    summary = tracer.summary()
    assert summary["spans"] == 3
    assert summary["by_name"]["tasks.build_fewshot_prompts"]["calls"] == 1


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        Span(1, None, "pipeline.run_pipeline", 0.0, 10.0),
        Span(2, 1, "client.evaluate", 1.0, 5.0),
        Span(3, 2, "tasks.load_bundles", 1.5, 2.5),
        Span(4, 1, "analysis.build_report", 6.0, 9.0),
    ]
    self_s = tracer.self_time_by_layer()
    assert self_s["pipeline"] == pytest.approx(3.0)
    assert self_s["client"] == pytest.approx(3.0)
    assert self_s["tasks"] == pytest.approx(1.0)
    assert self_s["analysis"] == pytest.approx(3.0)
    assert self_s["corpus"] == self_s["counting"] == 0.0
    assert sum(self_s.values()) == pytest.approx(10.0)


# -- stub endpoint -----------------------------------------------------------


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))


def test_stub_sends_each_response_in_one_write():
    handler = object.__new__(stub_server.StubHandler)
    handler.wfile = _Recorder()
    handler._send(200, b'{"choices": []}')
    assert len(handler.wfile.writes) == 1
    head, _, body = handler.wfile.writes[0].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert b"Content-Length: 15" in head
    assert body == b'{"choices": []}'


def test_fault_schedule_shares():
    kinds = [stub_server.fault_kind(stub_server.prompt_digest(str(i))) for i in range(20000)]
    for kind, per_mille in stub_server.FAULT_SCHEDULE:
        assert abs(kinds.count(kind) / len(kinds) - per_mille / 1000) < 0.006


def _prompt_with(kind):
    for i in range(10000):
        prompt = f"Q: What is {i} times 2? A:"
        if stub_server.fault_kind(stub_server.prompt_digest(prompt)) == kind:
            return prompt
    raise AssertionError(kind)


def _post(url, prompt):
    req = urllib.request.Request(url, data=json.dumps({"prompt": prompt}).encode())
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, None


def test_stub_answers_and_follows_the_fault_schedule(tmp_path):
    prompts = {kind: _prompt_with(kind) for kind in (None, "persistent-400", "transient-503", "transient-429")}
    answers = {stub_server.prompt_digest(p): 7 for p in prompts.values()}
    (tmp_path / "answers.json").write_text(json.dumps(answers))
    with run.stub_endpoint(tmp_path / "answers.json") as base:
        url = base + "/v1/completions"
        status, body = _post(url, prompts[None])
        assert status == 200 and body["choices"][0]["text"].startswith(" 7\n")
        assert [_post(url, prompts["persistent-400"])[0] for _ in range(3)] == [400] * 3
        assert [_post(url, prompts["transient-503"])[0] for _ in range(4)] == [503, 200, 503, 200]
        assert [_post(url, prompts["transient-429"])[0] for _ in range(2)] == [429, 200]
        assert _post(url, "never seen")[0] == 400
        with urllib.request.urlopen(base + "/stats", timeout=10) as resp:
            stats = json.loads(resp.read())
        assert stats["requests"] == 11
        assert stats["max_in_flight"] == 1
        assert stats["by_status"] == {"200": 4, "400": 4, "503": 2, "429": 1}


# -- runner ------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.99) == 99
    assert run.percentile([3.0], 0.99) == 3.0


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-http", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
