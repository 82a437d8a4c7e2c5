import dataclasses
import json
import os
import shutil

import pytest

from freqgap.client import EndpointConfig, MockPolicy, load_records, save_records
from freqgap.corpus import count_corpus
from freqgap.counting import CONVERSION_TRIPLES, CountTable
from freqgap.demo import generate_demo_corpus
from freqgap.pipeline import (
    ConfigError,
    PipelineError,
    RunConfig,
    _corpus_signature,
    parse_config,
    run_pipeline,
    scorer_digest,
    validate_config,
)
from freqgap.tasks import load_bundles, load_dataset, load_targets
from freqgap.util import sha256_file

BASE_CONFIG = {
    "corpus": {"path": "/tmp/corpus", "format": "jsonl"},
    "out": "/tmp/out",
    "mock": {"kind": "perfect"},
}


def _config(**overrides):
    data = json.loads(json.dumps(BASE_CONFIG))
    data.update(overrides)
    return data


# --- config validation ------------------------------------------------------


def test_default_config_valid():
    config, warnings = parse_config(_config())
    assert config.window == 5
    assert config.ks == (0, 2, 4, 8, 16)
    assert config.seeds == 5
    assert len(config.tasks) == 11
    assert warnings == []


def test_window_too_small_diagnostic():
    with pytest.raises(ConfigError) as err:
        parse_config(_config(window=0))
    assert any("window: must be >= 2" in d for d in err.value.diagnostics)


def test_unknown_field_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(_config(widnow=5))
    assert any("widnow: unknown field" in d for d in err.value.diagnostics)


def test_unknown_nested_field_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(_config(corpus={"path": "/x", "formt": "jsonl"}))
    assert any("corpus.formt: unknown field" in d for d in err.value.diagnostics)


def test_nonstandard_ks_warns():
    config, warnings = parse_config(_config(ks=[3]))
    assert config.ks == (3,)
    assert len(warnings) == 1 and "ks" in warnings[0]


def test_mock_and_endpoint_exclusive():
    with pytest.raises(ConfigError) as err:
        parse_config(
            _config(endpoint={"base_url": "http://x", "model_name": "m"})
        )
    assert any("exactly one of mock or endpoint" in d for d in err.value.diagnostics)


def test_unknown_task_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(_config(tasks=["mult", "division"]))
    assert any("unknown task ids" in d for d in err.value.diagnostics)


def test_multiple_diagnostics_accumulate():
    with pytest.raises(ConfigError) as err:
        parse_config(_config(window=1, seeds=0, bins=1))
    assert len(err.value.diagnostics) == 3


def test_validate_config_reads_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config()))
    config, _ = validate_config(path)
    assert config.corpus_format == "jsonl"
    with pytest.raises(ConfigError):
        validate_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        validate_config(bad)


ENDPOINT = {"base_url": "http://x", "model_name": "m"}

# one prompt file, the records and the report of a 1 MB demo corpus (seed 0),
# all tasks, ks 0 and 2, two prompt seeds, mock freq_logistic:1,-3,6
PINNED_OUTPUTS = {
    "prompts/hour_min_k2_seed1.jsonl": (
        "11b90c14e1a9700b28b984f9b24af8f09fa4637e236fbee9f6bc7cdcfff99d54"
    ),
    "records/records.jsonl": "5e7dc5272db3e20a8caff044aa8775a449fea95244cbbfb6a3520df08468ff88",
    "report/report.json": "7d7a482c2de752d6c4cf68a2b2a6a7e2bac96bc22b9bc2fa5503cd3c1f1da121",
}


def _endpoint_config(**endpoint):
    data = _config(endpoint={**ENDPOINT, **endpoint})
    del data["mock"]
    return data


@pytest.mark.parametrize(
    "data, diagnostic",
    [
        (_endpoint_config(max_in_flight=0), "endpoint: max_in_flight must be >= 1"),
        (_endpoint_config(max_attempts=0), "endpoint: max_attempts must be >= 1"),
        (_endpoint_config(max_new_tokens=0), "endpoint: max_new_tokens must be >= 1"),
        (_config(mock={"kind": "x"}), "mock: unknown mock policy kind: 'x'"),
        (_config(seeds=True), "seeds: expected int"),
        (_config(ks=[True, 2]), "ks: invalid shot counts [True]"),
        (_config(tasks=["mult", "add", "mult"]), "tasks: must not repeat an entry"),
        (_config(ks=[0, 2, 0]), "ks: must not repeat an entry"),
    ],
)
def test_values_the_runner_cannot_use_are_one_diagnostic_each(data, diagnostic):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.diagnostics == [diagnostic]


def test_completions_path_enters_the_config_and_scorer_digests():
    a, _ = parse_config(_endpoint_config(completions_path="/v1/completions"))
    b, _ = parse_config(_endpoint_config(completions_path="/v1/chat/completions"))
    assert a.digest() != b.digest()
    assert scorer_digest(None, a.endpoint) != scorer_digest(None, b.endpoint)


def test_to_dict_is_the_config_file_layout():
    mock = _config(
        corpus={"path": "/data/c.jsonl", "format": "text"}, window=7, max_number_digits=5,
        tasks=["mult", "add"], ks=[0, 2], seeds=3, seed=9, bins=4, shards=2,
        mock={"kind": "freq_logistic", "a": 1.5, "b": -3.0, "seed": 6},
    )
    endpoint = _endpoint_config(max_in_flight=2, timeout=5.0, completions_path="/v2/complete")
    for data in (mock, endpoint, _config()):
        config, _ = parse_config(data)
        assert parse_config(config.to_dict())[0] == config
    assert parse_config(mock)[0].to_dict() == mock


def test_freq_logistic_run_outputs_are_pinned(small_corpus, tmp_path):
    # a change here is a change of the prompts, the mock's draws or the analysis
    out = tmp_path / "run"
    run_pipeline(_run_config(small_corpus, out, mock="freq_logistic:1,-3,6"))
    digests = {rel: sha256_file(out / rel) for rel in PINNED_OUTPUTS}
    assert digests == PINNED_OUTPUTS


def test_mock_config_digest_is_pinned():
    # a change here re-runs every mock run directory from its first stage
    config, _ = parse_config({
        "corpus": {"path": "/data/corpus.jsonl", "format": "jsonl"},
        "out": "/runs/a",
        "mock": {"kind": "freq_logistic", "a": 1, "b": -3, "seed": 6},
    })
    assert config.digest() == "15083d4232408fb8170998bf04e4d202510747d234c25c6eaf294a25f099f59d"


# --- pipeline runs -----------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return generate_demo_corpus(root, size_mb=1.0, seed=0)


def _run_config(corpus, out, mock="perfect", **overrides):
    defaults = dict(
        corpus_path=corpus,
        corpus_format="jsonl",
        out=out,
        ks=(0, 2),
        seeds=2,
        mock=MockPolicy.parse(mock),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_pipeline_perfect_mock_null_result(small_corpus, tmp_path):
    config = _run_config(small_corpus, tmp_path / "run")
    manifest = run_pipeline(config)
    assert set(manifest.stages) == {
        "count_pass1", "gen", "targets", "count_pass2", "prompts", "eval", "analyze",
    }
    rows = json.loads((tmp_path / "run" / "report" / "report.json").read_text())["rows"]
    assert len(rows) == 22  # 11 tasks x 2 ks
    for row in rows:
        assert row["acc"] == 1.0
        assert all(g == 0.0 for g in row["gaps"].values() if g is not None)


def test_pipeline_resume_reuses_stages(small_corpus, tmp_path):
    out = tmp_path / "run"
    config = _run_config(small_corpus, out)
    first = run_pipeline(config)
    first_digests = {name: s["artifacts"] for name, s in first.stages.items()}
    first_times = {name: s["completed_at"] for name, s in first.stages.items()}
    second = run_pipeline(config)
    second_digests = {name: s["artifacts"] for name, s in second.stages.items()}
    second_times = {name: s["completed_at"] for name, s in second.stages.items()}
    assert first_digests == second_digests
    assert first_times == second_times  # stages were skipped, not re-run


def test_pipeline_rerun_is_deterministic(small_corpus, tmp_path):
    a = run_pipeline(_run_config(small_corpus, tmp_path / "a"))
    b = run_pipeline(_run_config(small_corpus, tmp_path / "b"))
    digests_a = {n: s["artifacts"] for n, s in a.stages.items()}
    digests_b = {n: s["artifacts"] for n, s in b.stages.items()}
    # artifact digests are path-independent, so two runs over the same
    # corpus and parameters produce byte-identical artifacts
    assert digests_a == digests_b


def test_pipeline_refuses_stale_manifest(small_corpus, tmp_path):
    out = tmp_path / "run"
    run_pipeline(_run_config(small_corpus, out))
    changed = _run_config(small_corpus, out, mock="always_wrong")
    with pytest.raises(PipelineError):
        run_pipeline(changed)
    manifest = run_pipeline(changed, force=True)
    rows = json.loads((out / "report" / "report.json").read_text())["rows"]
    assert all(row["acc"] == 0.0 for row in rows)
    assert manifest.config_digest == changed.digest()


def test_pipeline_leaves_no_temp_files(small_corpus, tmp_path):
    out = tmp_path / "run"
    run_pipeline(_run_config(small_corpus, out))
    leftovers = [p for p in out.rglob("*.tmp")]
    assert leftovers == []


def test_pipeline_crash_between_stages_is_resumable(small_corpus, tmp_path, monkeypatch):
    out = tmp_path / "run"
    config = _run_config(small_corpus, out)

    import freqgap.pipeline as pipeline_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected eval crash")

    monkeypatch.setattr(pipeline_mod, "evaluate", boom)
    with pytest.raises(RuntimeError, match="injected eval crash"):
        run_pipeline(config)

    manifest = json.loads((out / "manifest.json").read_text())
    completed = set(manifest["stages"])
    assert {"count_pass1", "gen", "targets", "count_pass2", "prompts"} <= completed
    assert "eval" not in completed
    # completed artifacts are intact and digest-verified on resume
    monkeypatch.undo()
    resumed = run_pipeline(config)
    for stage in completed:
        assert resumed.stages[stage]["completed_at"] == manifest["stages"][stage]["completed_at"]
    rows = json.loads((out / "report" / "report.json").read_text())["rows"]
    assert all(row["acc"] == 1.0 for row in rows)


def test_pipeline_always_wrong_null_result(small_corpus, tmp_path):
    config = _run_config(small_corpus, tmp_path / "run", mock="always_wrong")
    run_pipeline(config)
    rows = json.loads((tmp_path / "run" / "report" / "report.json").read_text())["rows"]
    for row in rows:
        assert row["acc"] == 0.0
        assert all(g == 0.0 for g in row["gaps"].values() if g is not None)


def test_mock_eval_writes_records_once_and_skips_unused_counts(
    small_corpus, tmp_path, monkeypatch
):
    loads = []
    load = CountTable.load.__func__

    def counting_load(cls, path):
        loads.append(path)
        return load(cls, path)

    monkeypatch.setattr(CountTable, "load", classmethod(counting_load))
    out = tmp_path / "run"
    config = _run_config(small_corpus, out, tasks=("mult",), ks=(0,), seeds=1)
    run_pipeline(config)
    assert loads == [out / "counts" / "pass1" / "counts.tsv"]  # by gen
    assert [p.name for p in (out / "records").iterdir()] == ["records.jsonl"]
    # eval runs again after count_pass2 was skipped: the perfect mock
    # ignores frequencies, so no table is read
    (out / "records" / "records.jsonl").unlink()
    loads.clear()
    run_pipeline(config)
    assert loads == []


def test_pipeline_recounts_after_an_edit_that_keeps_the_size(small_corpus, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    shutil.copy(small_corpus, corpus)
    config = _run_config(corpus, tmp_path / "run", tasks=("mult",), ks=(0,), seeds=1)
    first = run_pipeline(config).stages["count_pass1"]["completed_at"]
    data = bytearray(corpus.read_bytes())
    i = next(i for i, b in enumerate(data) if chr(b).isdigit())
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    before = corpus.stat()
    corpus.write_bytes(bytes(data))
    os.utime(corpus, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    assert corpus.stat().st_size == before.st_size
    assert run_pipeline(config).stages["count_pass1"]["completed_at"] != first


def test_corpus_signature_tells_same_named_files_apart(tmp_path):
    root = tmp_path / "corpus"
    (root / "a").mkdir(parents=True)
    (root / "a" / "doc.txt").write_text("18 23 hours\n")
    config = RunConfig(
        corpus_path=root, corpus_format="text", out=tmp_path / "run", mock=MockPolicy("perfect")
    )
    before = _corpus_signature(config)
    os.renames(root / "a" / "doc.txt", root / "b" / "doc.txt")  # keeps size and mtime
    assert _corpus_signature(config) != before


# --- one corpus pass -----------------------------------------------------------


def test_pipeline_counts_once_and_selects_pass2(small_corpus, tmp_path, monkeypatch):
    import freqgap.pipeline as pipeline_mod

    calls = []

    def counting_count_corpus(*args, **kwargs):
        calls.append(args)
        return count_corpus(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "count_corpus", counting_count_corpus)
    out = tmp_path / "run"
    config = _run_config(small_corpus, out, ks=(0,), seeds=1)
    run_pipeline(config)
    assert len(calls) == 1
    monkeypatch.undo()

    targeted = config.counter_config().with_targets(load_targets(out / "targets.txt"))
    direct = tmp_path / "direct" / "counts.tsv"
    count_corpus(small_corpus, "jsonl", targeted, direct)
    pass2 = out / "counts" / "pass2" / "counts.tsv"
    for table in (pass2, pass2.with_suffix(".meta.json")):
        assert table.read_bytes() == direct.with_name(table.name).read_bytes()
    # the pass-1 table holds pass 2's keys, and its 3-term keys are conversion triples
    pass1 = CountTable.load(out / "counts" / "pass1" / "counts.tsv")
    assert CountTable.load(pass2).entries.items() <= pass1.entries.items()
    triples = [k for k in pass1.entries if len(k) == 3]
    assert triples and set(triples) <= CONVERSION_TRIPLES


def test_pipeline_recounts_pass1_counted_under_another_counter(
    small_corpus, tmp_path, monkeypatch
):
    import freqgap.counting as counting_mod

    out = tmp_path / "run"
    config = _run_config(small_corpus, out, tasks=("hour_min",), ks=(0,), seeds=1)
    first = run_pipeline(config).stages["count_pass1"]
    report = (out / "report" / "report.json").read_bytes()
    # a counter whose digest names another triple family, as a run
    # directory written by a counter without the family would hold
    monkeypatch.setattr(counting_mod, "CONVERSION_TASKS", {"hour_min": ("hour", 60)})
    second = run_pipeline(config).stages["count_pass1"]
    assert second["completed_at"] != first["completed_at"]
    assert second["inputs"]["counter"] != first["inputs"]["counter"]
    assert (out / "report" / "report.json").read_bytes() == report


def test_analyze_uses_eval_records_and_reads_the_file_only_when_eval_is_skipped(
    small_corpus, tmp_path, monkeypatch
):
    import freqgap.pipeline as pipeline_mod

    loads = []

    def counting_load_records(path):
        loads.append(path)
        return load_records(path)

    monkeypatch.setattr(pipeline_mod, "load_records", counting_load_records)
    out = tmp_path / "run"
    config = _run_config(small_corpus, out, mock="freq_logistic:1,-3,6", ks=(0, 2), seeds=2)
    run_pipeline(config)
    assert loads == []
    fresh = (out / "report" / "report.json").read_bytes()
    shutil.rmtree(out / "report")
    manifest = run_pipeline(config)
    assert loads == [out / "records" / "records.jsonl"]
    assert set(manifest.stages) == {
        "count_pass1", "gen", "targets", "count_pass2", "prompts", "eval", "analyze",
    }
    assert (out / "report" / "report.json").read_bytes() == fresh


def test_bundles_and_tables_pass_forward_and_files_are_read_only_after_a_skip(
    small_corpus, tmp_path, monkeypatch
):
    import freqgap.pipeline as pipeline_mod

    bundle_loads, table_loads = [], []

    def counting_load_bundles(path):
        bundle_loads.append(path)
        return load_bundles(path)

    load = CountTable.load.__func__

    def counting_load(cls, path):
        table_loads.append(path)
        return load(cls, path)

    monkeypatch.setattr(pipeline_mod, "load_bundles", counting_load_bundles)
    monkeypatch.setattr(CountTable, "load", classmethod(counting_load))
    out = tmp_path / "run"
    config = _run_config(
        small_corpus, out, mock="freq_logistic:1,-3,6", tasks=("mult", "hour_min"), seeds=1
    )
    first = run_pipeline(config).stages
    assert bundle_loads == []
    assert table_loads == [out / "counts" / "pass1" / "counts.tsv"]
    outputs = ["records/records.jsonl", "report/report.json"]
    fresh = {rel: (out / rel).read_bytes() for rel in outputs}

    (out / "records" / "records.jsonl").unlink()
    shutil.rmtree(out / "report")
    bundle_loads.clear()
    table_loads.clear()
    second = run_pipeline(config).stages
    rerun = {n for n, st in second.items() if st["completed_at"] != first[n]["completed_at"]}
    assert rerun == {"eval", "analyze"}
    assert sorted(bundle_loads) == sorted((out / "prompts").glob("*.jsonl"))
    assert table_loads == [out / "counts" / "pass2" / "counts.tsv"]  # shared by eval, analyze
    assert {rel: (out / rel).read_bytes() for rel in outputs} == fresh


def test_datasets_pass_forward_and_files_are_read_only_after_a_skip(
    small_corpus, tmp_path, monkeypatch
):
    import freqgap.pipeline as pipeline_mod

    loads = []

    def counting_load_dataset(path):
        loads.append(path)
        return load_dataset(path)

    monkeypatch.setattr(pipeline_mod, "load_dataset", counting_load_dataset)
    out = tmp_path / "run"
    config = _run_config(
        small_corpus, out, mock="freq_logistic:1,-3,6", tasks=("mult", "hour_min"), seeds=1
    )
    first = run_pipeline(config).stages
    assert loads == []

    def outputs():
        files = [out / "targets.txt", out / "report" / "report.json"]
        files += sorted((out / "prompts").glob("*.jsonl"))
        return {path: path.read_bytes() for path in files}

    fresh = outputs()
    (out / "targets.txt").unlink()
    shutil.rmtree(out / "prompts")
    shutil.rmtree(out / "report")
    second = run_pipeline(config).stages
    rerun = {n for n, st in second.items() if st["completed_at"] != first[n]["completed_at"]}
    assert rerun == {"targets", "prompts", "analyze"}
    assert loads == [out / "datasets" / "mult.jsonl", out / "datasets" / "hour_min.jsonl"]
    assert outputs() == fresh


def test_a_kill_at_any_commit_resumes_to_the_clean_run(tmp_path, monkeypatch):
    # Every atomic commit of a run (os.replace in util.atomic_open) fails
    # in turn; re-running must then finish the run as a clean run does.
    corpus = generate_demo_corpus(tmp_path / "corpus", size_mb=0.25, seed=0)
    config = _run_config(
        corpus, tmp_path / "clean", mock="freq_logistic:1,-3,6",
        tasks=("hour_min", "day_hour", "week_day"), ks=(0, 2), seeds=1,
    )
    run_pipeline(config)
    outputs = ["report/report.json", "records/records.jsonl", "counts/pass2/counts.tsv"]
    clean = {rel: (config.out / rel).read_bytes() for rel in outputs}
    real_replace = os.replace
    commits = []

    def killed_at(n):
        def replace(src, dst):
            commits.append(dst)
            if len(commits) > n:
                raise RuntimeError("killed")
            real_replace(src, dst)

        return replace

    killed = dataclasses.replace(config, out=tmp_path / "killed")
    n = 0
    while True:
        commits.clear()
        monkeypatch.setattr(os, "replace", killed_at(n))
        try:
            run_pipeline(killed)
        except RuntimeError:
            pass
        else:
            break  # n is past the run's last commit
        finally:
            monkeypatch.setattr(os, "replace", real_replace)
        run_pipeline(killed)
        assert {rel: (killed.out / rel).read_bytes() for rel in outputs} == clean, n
        assert list(killed.out.rglob("*.tmp")) == [], n
        shutil.rmtree(killed.out)
        n += 1
    assert n == len(commits) > 50


# --- endpoint evals (the stub endpoint is in conftest.py) ----------------------


def _endpoint_run_config(corpus, out, url):
    endpoint = EndpointConfig(url, "stub-model", max_in_flight=2, backoff_base=0.0, timeout=5.0)
    return RunConfig(
        corpus_path=corpus, corpus_format="jsonl", out=out, tasks=("hour_min",), ks=(0, 2),
        seeds=1, endpoint=endpoint,
    )


def test_a_finished_endpoint_eval_stores_its_records_once(small_corpus, tmp_path, stub):
    state, url = stub
    out = tmp_path / "run"
    run_pipeline(_endpoint_run_config(small_corpus, out, url))
    assert sorted(p.name for p in (out / "records").iterdir()) == [
        "journal.inputs.json", "records.jsonl",
    ]
    records = load_records(out / "records" / "records.jsonl")
    assert records and all(r.correct and r.error is None for r in records)
    assert state.requests == len(records)


def test_a_forced_endpoint_rerun_resumes_from_its_records(small_corpus, tmp_path, stub):
    state, url = stub
    config = _endpoint_run_config(small_corpus, tmp_path / "run", url)
    run_pipeline(config)
    records = config.out / "records" / "records.jsonl"
    first, requests = records.read_bytes(), state.requests
    run_pipeline(config, force=True)  # a fresh manifest: every stage runs again
    assert state.requests == requests
    assert records.read_bytes() == first
    assert not (config.out / "records" / "journal.jsonl").exists()


@pytest.mark.parametrize("fails", ["in save_records", "after save_records"])
def test_an_endpoint_eval_cut_at_its_commit_resumes_without_requests(
    small_corpus, tmp_path, stub, monkeypatch, fails
):
    import freqgap.pipeline as pipeline_mod

    state, url = stub
    config = _endpoint_run_config(small_corpus, tmp_path / "run", url)
    scored = []

    def failing_save_records(records, path):
        scored.extend(records)
        if fails == "after save_records":
            save_records(records, path)
        raise RuntimeError("killed")

    monkeypatch.setattr(pipeline_mod, "save_records", failing_save_records)
    with pytest.raises(RuntimeError, match="killed"):
        run_pipeline(config)
    monkeypatch.undo()
    assert scored and state.requests == len(scored)
    run_pipeline(config)
    assert state.requests == len(scored)
    assert load_records(config.out / "records" / "records.jsonl") == scored
    assert not (config.out / "records" / "journal.jsonl").exists()


def test_an_endpoint_eval_under_other_inputs_never_resumes_their_records(
    small_corpus, tmp_path, stub, monkeypatch
):
    import freqgap.pipeline as pipeline_mod

    state, url = stub
    config = _endpoint_run_config(small_corpus, tmp_path / "run", url)
    run_pipeline(config)
    requests = state.requests
    # model b answers every question wrong, and its first eval dies
    # before it journals a record
    state.wrong = True
    other = dataclasses.replace(
        config, endpoint=dataclasses.replace(config.endpoint, model_name="b")
    )

    def boom(*args, **kwargs):
        raise RuntimeError("killed")

    monkeypatch.setattr(pipeline_mod, "evaluate", boom)
    with pytest.raises(RuntimeError, match="killed"):
        run_pipeline(other, force=True)
    monkeypatch.undo()
    run_pipeline(other)
    records = load_records(other.out / "records" / "records.jsonl")
    assert records and not any(r.correct for r in records)
    assert state.requests == 2 * requests
