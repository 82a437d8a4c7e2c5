import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import freqgap
from freqgap.cli import main
from freqgap.client import load_records
from freqgap.counting import CountTable


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A full CLI run chained through every subcommand."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["demo-corpus", "--out", str(corpus), "--size-mb", "1", "--seed", "3"]) == 0

    counts1 = root / "counts1"
    assert main([
        "count", "--corpus", str(corpus / "demo.jsonl"), "--format", "jsonl",
        "--window", "5", "--out", str(counts1), "--shards", "2",
    ]) == 0

    datasets = root / "datasets"
    for task in ("mult", "hour_min"):
        assert main(["gen", "--counts", str(counts1), "--task", task, "--out", str(datasets)]) == 0

    targets = root / "targets.txt"
    assert main(["targets", "--datasets", str(datasets), "--out", str(targets)]) == 0

    counts2 = root / "counts2"
    assert main([
        "count", "--corpus", str(corpus / "demo.jsonl"), "--format", "jsonl",
        "--out", str(counts2), "--targets", str(targets),
    ]) == 0

    prompts = root / "prompts"
    for task in ("mult", "hour_min"):
        assert main([
            "prompts", "--dataset", str(datasets / f"{task}.jsonl"),
            "--k", "2", "--seeds", "2", "--out", str(prompts),
        ]) == 0

    results = root / "results"
    assert main([
        "eval", "--bundles", str(prompts), "--mock", "freq_logistic:1,-3,5",
        "--counts", str(counts2), "--out", str(results),
    ]) == 0

    report = root / "report"
    assert main([
        "analyze", "--records", str(results / "records.jsonl"),
        "--datasets", str(datasets), "--counts", str(counts2),
        "--out", str(report), "--label", "cli-test",
    ]) == 0
    return root


def test_cli_chain_produces_report(workspace):
    payload = json.loads((workspace / "report" / "report.json").read_text())
    assert payload["label"] == "cli-test"
    tasks = {row["task_id"] for row in payload["rows"]}
    assert tasks == {"mult", "hour_min"}
    assert (workspace / "report" / "report.csv").exists()


def test_cli_counts_are_loadable(workspace):
    table = CountTable.load(workspace / "counts1")
    assert table.meta.documents > 0
    assert any(len(k) == 1 for k in table.entries)


def test_cli_merge(workspace, tmp_path):
    counts1 = workspace / "counts1" / "counts.tsv"
    merged = tmp_path / "merged.tsv"
    assert main(["merge", "--out", str(merged), str(counts1), str(counts1)]) == 0
    doubled = CountTable.load(merged)
    original = CountTable.load(counts1)
    assert doubled.meta.documents == 2 * original.meta.documents
    some_key = next(iter(original.entries))
    assert doubled.entries[some_key] == 2 * original.entries[some_key]


def test_cli_compare(workspace, tmp_path):
    out = tmp_path / "cmp"
    assert main([
        "compare", "--runs", str(workspace / "report"), str(workspace / "report"),
        "--out", str(out),
    ]) == 0
    assert (out / "comparison.csv").exists()
    assert (out / "acc_by_run.csv").exists()


def test_cli_run_subcommand(workspace, tmp_path):
    config = {
        "corpus": {"path": str(workspace / "corpus" / "demo.jsonl"), "format": "jsonl"},
        "out": str(tmp_path / "run"),
        "tasks": ["mult", "decade_year"],
        "ks": [0, 2],
        "seeds": 2,
        "mock": {"kind": "perfect"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "run" / "report" / "report.json").read_text())
    assert all(row["acc"] == 1.0 for row in report["rows"])


def test_cli_chain_matches_run(workspace, tmp_path):
    # The fixture's chain used freq_logistic:1,-3,5 over mult and hour_min
    # with k=2 and two prompt seeds; freqgap run gets the same settings.
    cli_report = tmp_path / "cli-report"
    assert main([
        "analyze", "--records", str(workspace / "results" / "records.jsonl"),
        "--datasets", str(workspace / "datasets"), "--counts", str(workspace / "counts2"),
        "--out", str(cli_report), "--label", "mock:freq_logistic",
    ]) == 0
    config = {
        "corpus": {"path": str(workspace / "corpus" / "demo.jsonl"), "format": "jsonl"},
        "out": str(tmp_path / "run"),
        "tasks": ["mult", "hour_min"],
        "ks": [2],
        "seeds": 2,
        "mock": {"kind": "freq_logistic", "a": 1.0, "b": -3.0, "seed": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 0
    run_report = tmp_path / "run" / "report" / "report.json"
    assert run_report.read_bytes() == (cli_report / "report.json").read_bytes()


def _eval_endpoint(workspace, out, url, model):
    # one small prompt file: the stub answers products and conversions
    bundles = workspace / "prompts" / "hour_min_k2_seed0.jsonl"
    argv = ["eval", "--bundles", str(bundles), "--out", str(out), "--endpoint", url]
    return main(argv + ["--model", model])


def test_cli_eval_discards_journal_of_another_scorer(workspace, tmp_path, stub):
    state, url = stub
    out = tmp_path / "results"
    assert _eval_endpoint(workspace, out, url, "a") == 0
    state.wrong = True  # model b answers every question wrong
    assert _eval_endpoint(workspace, out, url, "b") == 0
    records = load_records(out)
    assert records and not any(r.correct for r in records)
    assert state.requests == 2 * len(records)


def test_cli_endpoint_eval_after_a_mock_eval_scores_every_bundle_again(
    workspace, tmp_path, stub
):
    # the mock's records must not resume as the endpoint's
    state, url = stub
    out = tmp_path / "results"
    assert _eval_endpoint(workspace, out, url, "m") == 0
    first = load_records(out)
    assert state.requests == len(first)
    assert sorted(p.name for p in out.iterdir()) == ["journal.inputs.json", "records.jsonl"]
    bundles = str(workspace / "prompts" / "hour_min_k2_seed0.jsonl")
    assert main(["eval", "--bundles", bundles, "--mock", "perfect", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["records.jsonl"]
    assert _eval_endpoint(workspace, out, url, "m") == 0
    records = load_records(out)
    assert state.requests == 2 * len(first)
    assert all(r.correct and r.latency > 0 for r in records)
    without_latency = lambda rs: [dataclasses.replace(r, latency=0.0) for r in rs]
    assert without_latency(records) == without_latency(first)


# --- exit codes ---------------------------------------------------------------


def test_usage_error_exits_1(workspace, tmp_path):
    assert main(["count", "--corpus", "/x"]) == 1  # missing --out
    assert main(["eval", "--bundles", "/x", "--out", "/y"]) == 1  # no scorer
    assert main(["nonsense"]) == 1
    out = tmp_path / "r"
    assert main(["eval", "--bundles", str(tmp_path), "--mock", "perfect", "--out", str(out)]) == 1
    assert not out.exists()  # no bundle files, no records
    assert main([
        "analyze", "--records", str(workspace / "results" / "records.jsonl"),
        "--datasets", str(tmp_path), "--counts", str(workspace / "counts2"), "--out", str(out),
    ]) == 1
    assert not out.exists()  # no dataset files, no report


def _stage_argv(workspace, command: str, out: str) -> list[str]:
    """Arguments of a stage command that succeeds as it stands."""
    return {
        "count": ["count", "--corpus", str(workspace / "corpus" / "demo.jsonl")],
        "prompts": ["prompts", "--dataset", str(workspace / "datasets" / "mult.jsonl"), "--k", "2"],
        "analyze": [
            "analyze", "--records", str(workspace / "results" / "records.jsonl"),
            "--datasets", str(workspace / "datasets"), "--counts", str(workspace / "counts2"),
        ],
    }[command] + ["--out", out]


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("prompts", "--seeds", "0"),
        ("prompts", "--k", "-1"),
        ("count", "--shards", "0"),
        ("count", "--shards", "-2"),
        ("count", "--workers", "0"),
        ("count", "--workers", "-1"),
        ("analyze", "--bins", "1"),
        ("analyze", "--bins", "0"),
        ("analyze", "--ks", "2,2"),
        ("analyze", "--ks", "-1"),
        ("analyze", "--keys", "x1,x1"),
    ],
)
def test_a_stage_flag_is_checked_like_its_config_field(
    workspace, tmp_path, capsys, command, flag, value
):
    out = tmp_path / "out"
    assert main(_stage_argv(workspace, command, str(out)) + [flag, value]) == 1
    assert f"freqgap: {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exits_1(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": {"path": "/x", "format": "jsonl"}}))
    assert main(["run", "--config", str(path)]) == 1


def test_unusable_endpoint_value_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "corpus": {"path": "/x"},
        "out": str(tmp_path / "run"),
        "endpoint": {"base_url": "http://x", "model_name": "m", "max_in_flight": 0},
    }))
    assert main(["run", "--config", str(path)]) == 1
    assert "endpoint: max_in_flight must be >= 1" in capsys.readouterr().err
    bundles, out = str(tmp_path / "b.jsonl"), str(tmp_path / "eval")
    for flag in ("--max-in-flight", "--max-attempts", "--max-new-tokens"):
        argv = ["eval", "--bundles", bundles, "--out", out, "--endpoint", "http://x"]
        assert main(argv + ["--model", "m", flag, "0"]) == 1
    assert main(["eval", "--bundles", bundles, "--out", out, "--mock", "nonsense"]) == 1


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_a_timeout_that_is_not_a_finite_positive_number_exits_1(tmp_path, capsys, value):
    argv = ["eval", "--bundles", str(tmp_path / "b.jsonl"), "--out", str(tmp_path / "eval")]
    argv += ["--endpoint", "http://x", "--model", "m", "--timeout", value]
    assert main(argv) == 1
    assert "freqgap: --timeout: must be a finite number > 0" in capsys.readouterr().err


def test_count_rejects_targets_outside_the_counted_families(workspace, tmp_path, capsys):
    targets = tmp_path / "targets.txt"
    targets.write_text("u:hour|u:day\n")
    assert main([
        "count", "--corpus", str(workspace / "corpus" / "demo.jsonl"),
        "--out", str(tmp_path / "counts"), "--targets", str(targets),
    ]) == 1
    assert "1 targets outside the counted term sets: u:hour|u:day" in capsys.readouterr().err
    assert not (tmp_path / "counts").exists()


def test_stage_failure_exits_2(tmp_path):
    assert main([
        "count", "--corpus", str(tmp_path / "missing"), "--format", "jsonl",
        "--out", str(tmp_path / "out"),
    ]) == 2


@pytest.mark.parametrize("flag", [["--keys", "x9"], ["--ks", "a"]], ids=["keys", "ks"])
def test_unknown_grouping_key_exits_1(workspace, tmp_path, flag):
    assert main([
        "analyze", "--records", str(workspace / "results" / "records.jsonl"),
        "--datasets", str(workspace / "datasets"),
        "--counts", str(workspace / "counts2"),
        *flag, "--out", str(tmp_path / "r"),
    ]) == 1


# --- signals during a count -------------------------------------------------


@pytest.fixture(scope="module")
def throughput_corpus(tmp_path_factory):
    from freqgap.demo import generate_throughput_corpus

    path = tmp_path_factory.mktemp("throughput") / "corpus.jsonl"
    yield generate_throughput_corpus(path, size_bytes=150_000_000, seed=1)
    path.unlink()


def _live(pid):
    """Whether `pid` runs; an exited child left unreaped is not running."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _count_with_workers(corpus, tmp_path):
    """Start `freqgap count --shards 2 --workers 2` and return it with its
    worker pids once both workers are counting."""
    temp = tmp_path / "tmp"
    temp.mkdir()
    src = str(Path(freqgap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(temp)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "freqgap.cli", "count", "--corpus", str(corpus), "--format",
         "jsonl", "--out", str(tmp_path / "out"), "--shards", "2", "--workers", "2"],
        env=env, stderr=subprocess.PIPE, start_new_session=True,
    )
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    workers = set()
    deadline = time.monotonic() + 30
    while len(workers) < 2 or not list(temp.glob("freqgap-spill-*")):
        if time.monotonic() > deadline or proc.poll() is not None:
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail("the count did not start two workers")
        try:
            workers |= set(map(int, children.read_text().split()))
        except OSError:
            pass
        time.sleep(0.01)
    time.sleep(0.2)  # both workers are inside their partitions
    return proc, workers, temp


def _wait_gone(pids, seconds):
    deadline = time.monotonic() + seconds
    while any(map(_live, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if _live(pid)]


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs /proc")
def test_sigterm_ends_a_count_like_ctrl_c(throughput_corpus, tmp_path):
    proc, workers, temp = _count_with_workers(throughput_corpus, tmp_path)
    proc.send_signal(signal.SIGTERM)
    try:
        _, stderr = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        pytest.fail("count did not end on SIGTERM")
    assert proc.returncode == 143, stderr.decode()
    assert list(temp.glob("freqgap-spill-*")) == []
    assert _wait_gone(workers, 5) == []
    assert not (tmp_path / "out" / "counts.tsv").exists()


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs /proc")
def test_count_workers_exit_when_their_parent_is_killed(throughput_corpus, tmp_path):
    proc, workers, _ = _count_with_workers(throughput_corpus, tmp_path)
    proc.kill()
    proc.wait()
    left = _wait_gone(workers, 10)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []
