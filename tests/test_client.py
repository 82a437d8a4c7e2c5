import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqgap
from freqgap.client import (
    TOKEN_ENV_VAR,
    EndpointConfig,
    EndpointUnreachable,
    EvalRecord,
    EvalState,
    MockPolicy,
    _record_line,
    apply_stop_sequences,
    evaluate,
    extract_answer,
    load_records,
    load_tally,
    logistic_accuracy,
    mock_generate,
    primary_term_set,
    save_records,
    score,
    sigmoid,
)
from freqgap.cli import main
from freqgap.counting import CounterConfig, CountTable
from freqgap.pipeline import run_eval
from freqgap.tasks import build_fewshot_prompts, load_bundles, make_instance, save_bundles
from freqgap.terms import term_set, unit_term
from freqgap.util import sha256_text, sorted_json

NO_SLEEP = lambda _t: None


# --- answer extraction and scoring ---------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        (" 432", 432),
        (" 414 minutes", 414),
        ("I don't know", None),
        ("", None),
        ("$123", 123),
        (" $ 123", 123),
        ("abc 5", 5),
        ("Maybe 7", None),  # 5-letter run before the digits
        ("The answer is 5", None),
        ("42", 42),
        ("=42", 42),
        (" 007", 7),
    ],
)
def test_extract_answer(raw, expected):
    assert extract_answer(raw) == expected


def test_score():
    assert score(432, 432)
    assert not score(462, 414)
    assert not score(None, 414)


def test_apply_stop_sequences():
    assert apply_stop_sequences(" 42\nQ: What", ("\n", "Q:")) == " 42"
    assert apply_stop_sequences(" 42 Q: next", ("\n", "Q:")) == " 42 "


# --- mock policies --------------------------------------------------------


def _bundles(n=10, k=2):
    dataset = [make_instance("mult", (x1, 7)) for x1 in range(n + k)]
    return build_fewshot_prompts(dataset, k, seed=0)


def test_mock_policy_parse():
    assert MockPolicy.parse("perfect") == MockPolicy("perfect")
    assert MockPolicy.parse("always_wrong") == MockPolicy("always_wrong")
    assert MockPolicy.parse("freq_logistic:1,-3") == MockPolicy("freq_logistic", a=1.0, b=-3.0)
    assert MockPolicy.parse("freq_logistic:0.5,-2,7") == MockPolicy(
        "freq_logistic", a=0.5, b=-2.0, seed=7
    )
    with pytest.raises(ValueError):
        MockPolicy.parse("freq_logistic:1")
    with pytest.raises(ValueError):
        MockPolicy.parse("oracle")


def test_perfect_and_always_wrong_outputs():
    bundle = _bundles(3)[0]
    assert mock_generate(bundle, 0, MockPolicy("perfect")) == f" {bundle.gold}"
    assert mock_generate(bundle, 0, MockPolicy("always_wrong")) == f" {bundle.gold + 1}"


def test_mock_generate_deterministic():
    bundle = _bundles(3)[0]
    policy = MockPolicy("freq_logistic", a=1.0, b=-3.0, seed=5)
    outs = {mock_generate(bundle, 100, policy) for _ in range(10)}
    assert len(outs) == 1


def test_primary_term_set():
    arith = make_instance("mult", (23, 18))
    conv = make_instance("hour_min", (24, unit_term("hour")), factor=60)
    b_arith = _wrap_bundle(arith)
    b_conv = _wrap_bundle(conv)
    assert primary_term_set(b_arith) == term_set((23,))
    assert primary_term_set(b_conv) == term_set((24, unit_term("hour")))


def _wrap_bundle(inst):
    from freqgap.tasks import PromptBundle

    return PromptBundle(inst, (), seed=0, shot_block="")


def test_freq_logistic_matches_closed_form():
    # empirical accuracy gap between freq=1e6 and freq=10 groups vs
    # sigmoid(3) - sigmoid(-2), +-0.03 over 5000 draws each
    policy = MockPolicy("freq_logistic", a=1.0, b=-3.0, seed=11)
    n = 5000
    hi = lo = 0
    for i in range(n):
        inst = make_instance("mult", (i % 100, i // 100 + 1))
        bundle = _wrap_bundle(inst)
        hi += mock_generate(bundle, 10**6, policy) == f" {inst.y}"
        policy2 = MockPolicy("freq_logistic", a=1.0, b=-3.0, seed=12)
        lo += mock_generate(bundle, 10, policy2) == f" {inst.y}"
    gap = hi / n - lo / n
    assert abs(gap - (sigmoid(3) - sigmoid(-2))) < 0.03


def test_logistic_accuracy_formula():
    policy = MockPolicy("freq_logistic", a=1.0, b=-3.0)
    assert logistic_accuracy(policy, 0) == pytest.approx(sigmoid(-3))
    assert logistic_accuracy(policy, 999_999) == pytest.approx(sigmoid(3), abs=1e-6)


# --- evaluate with mocks ---------------------------------------------------


def test_evaluate_perfect_mock_all_correct():
    bundles = _bundles(25)
    records = evaluate(bundles, mock=MockPolicy("perfect"))
    assert len(records) == 25
    assert all(r.correct for r in records)
    assert all(r.extracted == b.gold for r, b in zip(records, _sorted_like(bundles)))


def test_evaluate_always_wrong_never_correct():
    records = evaluate(_bundles(25), mock=MockPolicy("always_wrong"))
    assert not any(r.correct for r in records)


def _sorted_like(bundles):
    return sorted(
        bundles,
        key=lambda b: (b.test_instance.task_id, b.k, b.seed, b.test_instance.instance_id),
    )


def test_evaluate_records_sorted_canonically():
    bundles = _bundles(25)
    records = evaluate(bundles, mock=MockPolicy("perfect"))
    keys = [(r.task_id, r.k, r.seed, r.instance_id) for r in records]
    assert keys == sorted(keys)


def test_evaluate_requires_exactly_one_scorer():
    with pytest.raises(ValueError):
        evaluate(_bundles(3))
    with pytest.raises(ValueError):
        evaluate(
            _bundles(3),
            endpoint=EndpointConfig("http://x", "m"),
            mock=MockPolicy("perfect"),
        )


def test_freq_logistic_needs_counts():
    with pytest.raises(ValueError):
        evaluate(_bundles(3), mock=MockPolicy("freq_logistic", a=1, b=-3))


def test_a_mock_eval_returns_the_same_records_with_and_without_a_journal(tmp_path):
    bundles = _bundles(12) + _bundles(12, k=0)
    policy = MockPolicy("always_wrong")
    plain = evaluate(bundles, mock=policy)
    journal = tmp_path / "journal.jsonl"
    assert evaluate(bundles[::-1], mock=policy, journal=journal) == plain
    evaluate(bundles[:5], mock=policy, journal=journal)  # resume=False starts afresh
    assert evaluate(bundles[::-1], mock=policy, journal=journal, resume=True) == plain
    assert len(journal.read_text().splitlines()) == len(plain)


_STATE_MOCKS = {
    "perfect": MockPolicy("perfect"),
    "always_wrong": MockPolicy("always_wrong"),
    "freq_logistic:1,-3,4": MockPolicy("freq_logistic", a=1.0, b=-3.0, seed=4),
}


def _two_task_bundles():
    """Bundles of mult and hour_min at k 0 and 2 and prompt seeds 0 and 1,
    the two tasks' bundles alternating in input order."""
    datasets = [
        [make_instance("mult", (x1, 7)) for x1 in range(2, 16)],
        [make_instance("hour_min", (x1, unit_term("hour"))) for x1 in range(2, 16)],
    ]
    per_task = [
        [b for k in (0, 2) for seed in (0, 1) for b in build_fewshot_prompts(d, k, seed=seed)]
        for d in datasets
    ]
    return [b for pair in zip(*per_task) for b in pair]


def _spread_counts(bundles):
    """Primary term-set frequencies from 1 to 10**6, so that freq_logistic
    gives right and wrong answers."""
    entries = {
        primary_term_set(b): 10 ** (b.test_instance.x[0] % 7) for b in bundles
    }
    return CountTable(entries, CountTable.empty(CounterConfig()).meta)


def _reference_record(bundle, mock, counts):
    """One bundle scored on its own: mock_generate, extract_answer and the
    sha256 of the rendered prompt."""
    inst = bundle.test_instance
    raw = mock_generate(bundle, counts.query(primary_term_set(bundle)), mock)
    extracted = extract_answer(raw)
    digest = sha256_text(bundle.rendered)[:16]
    return EvalRecord(
        inst.instance_id, inst.task_id, bundle.k, bundle.seed, digest, raw, extracted,
        score(extracted, bundle.gold), 0.0,
    )


@pytest.mark.parametrize("spec", _STATE_MOCKS)
def test_scoring_with_a_per_task_state_equals_scoring_each_bundle_alone(spec, tmp_path):
    mock = _STATE_MOCKS[spec]
    bundles = _two_task_bundles()
    counts = _spread_counts(bundles)
    assert [b.test_instance.task_id for b in bundles[:4]] == ["mult", "hour_min"] * 2
    expected = _sorted_like_records(_reference_record(b, mock, counts) for b in bundles)
    assert len(expected) == 2 * (14 + 14 + 12 + 12)  # two tasks, k 0 and 2, two seeds
    if mock.reads_counts:
        assert {r.correct for r in expected} == {True, False}

    table = counts if mock.reads_counts else None
    run_eval(bundles, tmp_path / "run" / "records.jsonl", {}, mock, counts=table)
    assert load_records(tmp_path / "run") == expected
    assert evaluate(bundles, mock=mock, counts=table) == expected

    # freqgap eval on one file of all the bundles
    save_bundles(bundles, tmp_path / "bundles.jsonl")
    counts.save(tmp_path / "counts.tsv")
    argv = ["eval", "--bundles", str(tmp_path / "bundles.jsonl"), "--mock", spec]
    argv += ["--counts", str(tmp_path / "counts.tsv"), "--out", str(tmp_path / "cli")]
    assert main(argv) == 0
    assert load_records(tmp_path / "cli") == expected


def _sorted_like_records(records):
    return sorted(records, key=lambda r: (r.task_id, r.k, r.seed, r.instance_id))


def test_run_eval_keeps_one_state_whose_instance_cache_holds_one_task(tmp_path, monkeypatch):
    import freqgap.pipeline as pipeline_mod

    states, cached = [], []  # every state built; (task, cached instance ids) after each file

    class CountedState(EvalState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    def recording_evaluate(bundles, **kwargs):
        task_id = bundles[0].test_instance.task_id
        records = evaluate(bundles, **kwargs)
        cached.append((task_id, set(kwargs["state"]._instances)))
        return records

    monkeypatch.setattr(pipeline_mod, "EvalState", CountedState)
    monkeypatch.setattr(pipeline_mod, "evaluate", recording_evaluate)
    bundles = _two_task_bundles()
    task_ids = {}
    for b in bundles:
        task_ids.setdefault(b.test_instance.task_id, set()).add(b.test_instance.instance_id)
    run_eval(bundles, tmp_path / "records.jsonl", {}, MockPolicy("perfect"))
    assert len(states) == 1
    assert [task_id for task_id, _ in cached] == ["hour_min"] * 4 + ["mult"] * 4
    for task_id, ids in cached:
        assert ids and ids <= task_ids[task_id]  # mult's first file finds hour_min's gone


def test_a_state_built_for_another_scorer_is_refused():
    bundles = _bundles(3)
    state = EvalState(MockPolicy("perfect"))
    with pytest.raises(ValueError):
        evaluate(bundles, mock=MockPolicy("always_wrong"), state=state)
    assert evaluate(bundles, mock=MockPolicy("perfect"), state=state) == evaluate(
        bundles, mock=MockPolicy("perfect")
    )


def test_per_record_objects_have_no_instance_dict():
    bundle = _bundles(1)[0]
    record = evaluate([bundle], mock=MockPolicy("perfect"))[0]
    for obj in (bundle.test_instance, bundle, record):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_journal_resume_drops_torn_last_line(tmp_path):
    bundles = _bundles(10)
    journal = tmp_path / "journal.jsonl"
    evaluate(bundles[:6], mock=MockPolicy("perfect"), journal=journal)
    text = journal.read_text()
    journal.write_text(text[: len(text) - 30])  # a kill cut the last write short
    records = evaluate(bundles, mock=MockPolicy("perfect"), journal=journal, resume=True)
    assert len(records) == 10 and all(r.correct for r in records)
    lines = journal.read_text().splitlines()
    assert len(lines) == 10  # the torn record was scored again, on its own line
    assert sorted(json.loads(line)["instance_id"] for line in lines) == sorted(
        r.instance_id for r in records
    )


def test_journal_without_resume_starts_afresh(tmp_path):
    bundles = _bundles(28)
    journal = tmp_path / "journal.jsonl"
    for _ in range(2):
        evaluate(bundles, mock=MockPolicy("perfect"), journal=journal, resume=False)
    assert len(journal.read_text().splitlines()) == 28


def test_journal_resume_rejects_corrupt_middle_line(tmp_path):
    bundles = _bundles(6)
    journal = tmp_path / "journal.jsonl"
    evaluate(bundles, mock=MockPolicy("perfect"), journal=journal)
    lines = journal.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:20] + "\n"
    journal.write_text("".join(lines))
    with pytest.raises(ValueError):
        evaluate(bundles, mock=MockPolicy("perfect"), journal=journal, resume=True)


def test_records_roundtrip(tmp_path):
    records = evaluate(_bundles(10), mock=MockPolicy("perfect"))
    save_records(records, tmp_path / "records.jsonl")
    assert load_records(tmp_path / "records.jsonl") == records
    assert load_records(tmp_path) == records  # directory form


def test_records_directory_form_skips_the_journal(tmp_path):
    # an endpoint eval leaves journal.jsonl beside records.jsonl; reading
    # both counted every record twice
    records = evaluate(_bundles(10), mock=MockPolicy("perfect"), journal=tmp_path / "journal.jsonl")
    save_records(records, tmp_path / "records.jsonl")
    assert len((tmp_path / "journal.jsonl").read_text().splitlines()) == len(records)
    assert load_records(tmp_path) == records


_TEXT = st.text(st.sampled_from('a Z0"\\/\x00\x1f\n\t\x7f\x80éß€\u2028\ufeff😀')) | st.text()


@given(
    st.builds(
        EvalRecord,
        instance_id=_TEXT,
        task_id=_TEXT,
        k=st.integers(0, 64),
        seed=st.integers(0, 2**63),
        prompt_digest=_TEXT,
        raw_output=_TEXT,
        extracted=st.none() | st.just(0) | st.integers(0, 10**40),
        correct=st.booleans(),
        latency=st.sampled_from([0.0, 5e-324, 1e-300, 1.5e-7, 1e22, 1.7976931348623157e308])
        | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        error=st.none() | _TEXT,
    )
)
@settings(max_examples=300)
def test_record_lines_are_the_sorted_json_of_their_fields(record):
    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(EvalRecord)}
    assert _record_line(record) == sorted_json(fields) + "\n"


def test_prompt_digests_are_the_sha256_of_the_rendered_prompt(stub):
    _state, url = stub
    bundles = _bundles(8) + _bundles(8, k=0) + _bundles(6, k=4)
    rendered = {(b.test_instance.instance_id, b.k, b.seed): b.rendered for b in bundles}
    for records in (
        evaluate(bundles, mock=MockPolicy("perfect")),
        evaluate(bundles, endpoint=_endpoint(url), sleep=NO_SLEEP),
    ):
        assert len(records) == len(bundles)
        for r in records:
            assert r.prompt_digest == sha256_text(rendered[r.instance_id, r.k, r.seed])[:16]


# --- endpoint config -------------------------------------------------------


def test_endpoint_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig("http://x", "m", max_in_flight=0)
    for timeout in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="timeout must be a finite number > 0"):
            EndpointConfig("http://x", "m", timeout=timeout)


def test_endpoint_url_building():
    assert (
        EndpointConfig("http://h:1234", "m").url == "http://h:1234/v1/completions"
    )
    assert (
        EndpointConfig("http://h:1234/v1/completions", "m").url
        == "http://h:1234/v1/completions"
    )


def test_endpoint_url_must_be_http_or_https(tmp_path):
    with pytest.raises(ValueError, match="http or https"):
        evaluate(_bundles(1), endpoint=EndpointConfig("ftp://h", "m"), journal=tmp_path / "j")
    assert not (tmp_path / "j").exists()  # rejected before the journal is opened


# --- against the stub endpoint (fixtures in conftest.py) -------------------


def _endpoint(url, **kwargs):
    defaults = dict(max_in_flight=4, max_attempts=4, backoff_base=0.0, timeout=5.0)
    defaults.update(kwargs)
    return EndpointConfig(url, "stub-model", **defaults)


def test_http_eval_end_to_end(stub):
    state, url = stub
    bundles = _bundles(30)
    records = evaluate(bundles, endpoint=_endpoint(url), sleep=NO_SLEEP)
    assert len(records) == 30
    assert all(r.correct for r in records)
    assert all(r.error is None for r in records)
    assert all(r.latency > 0 for r in records)


def test_http_eval_retries_transient_failures(stub):
    state, url = stub
    state.fail_first_attempt_every = 3
    bundles = _bundles(30)
    records = evaluate(bundles, endpoint=_endpoint(url), sleep=NO_SLEEP)
    assert all(r.correct for r in records)
    assert state.requests > 30  # retries happened


def test_http_eval_respects_in_flight_cap(stub):
    state, url = stub
    state.delay = 0.01
    bundles = _bundles(40)
    evaluate(bundles, endpoint=_endpoint(url, max_in_flight=3), sleep=NO_SLEEP)
    assert state.max_in_flight <= 3


def test_http_eval_records_persistent_failures(stub):
    state, url = stub
    state.always_fail = True
    records = evaluate(
        _bundles(5), endpoint=_endpoint(url, max_attempts=2), sleep=NO_SLEEP
    )
    assert len(records) == 5
    assert all(not r.correct for r in records)
    assert all(r.error is not None and "attempts" in r.error for r in records)


def test_http_eval_malformed_response(stub):
    state, url = stub
    state.malformed = True
    records = evaluate(_bundles(4), endpoint=_endpoint(url), sleep=NO_SLEEP)
    assert all(r.error == "malformed response body" for r in records)
    assert all(r.extracted is None and not r.correct for r in records)


def test_unreachable_endpoint_aborts():
    endpoint = _endpoint("http://127.0.0.1:1", max_attempts=2, timeout=0.5)
    with pytest.raises(EndpointUnreachable):
        evaluate(_bundles(3), endpoint=endpoint, sleep=NO_SLEEP)


def test_journal_resume_skips_done(stub, tmp_path):
    state, url = stub
    bundles = _bundles(20)
    journal = tmp_path / "journal.jsonl"
    first = evaluate(bundles[:12], endpoint=_endpoint(url), journal=journal, sleep=NO_SLEEP)
    assert len(first) == 12
    requests_before = state.requests
    records = evaluate(
        bundles, endpoint=_endpoint(url), journal=journal, resume=True, sleep=NO_SLEEP
    )
    assert len(records) == 20
    assert state.requests - requests_before == 8  # only the missing ones


def test_journal_survives_unreachable_endpoint(stub, tmp_path):
    state, url = stub
    bundles = _bundles(10)
    journal = tmp_path / "journal.jsonl"
    evaluate(bundles[:6], endpoint=_endpoint(url), journal=journal, sleep=NO_SLEEP)
    bad = _endpoint("http://127.0.0.1:1", max_attempts=1, timeout=0.5)
    with pytest.raises(EndpointUnreachable):
        evaluate(bundles, endpoint=bad, journal=journal, resume=True, sleep=NO_SLEEP)
    persisted = [json.loads(line) for line in journal.read_text().splitlines()]
    assert len(persisted) == 6


def test_records_are_journaled_as_they_complete(stub, tmp_path):
    # bundle 0's reply is held back; a journal kept in submission order
    # would stay empty until it came
    state, url = stub
    bundles = _bundles(12)
    release = state.hold[bundles[0].rendered] = threading.Event()
    journal = tmp_path / "journal.jsonl"
    lines = lambda: journal.read_bytes().count(b"\n") if journal.exists() else 0
    endpoint = _endpoint(url, max_in_flight=2, timeout=60.0)
    results = []
    thread = threading.Thread(
        target=lambda: results.append(evaluate(bundles, endpoint=endpoint, journal=journal))
    )
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while lines() < len(bundles) - 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert lines() == len(bundles) - 1
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert len(results[0]) == len(bundles) == lines()
    assert state.requests == len(bundles)


def test_records_file_is_in_canonical_order_when_replies_come_out_of_order(stub, tmp_path):
    # the reply of the bundle whose record sorts first is held back, so it
    # completes last; records.jsonl is written in evaluate's order
    state, url = stub
    bundles = _bundles(12)
    first = min(bundles, key=lambda b: b.test_instance.instance_id)
    release = state.hold[first.rendered] = threading.Event()
    records_path = tmp_path / "records.jsonl"
    journal = tmp_path / "journal.jsonl"
    lines = lambda: journal.read_bytes().count(b"\n") if journal.exists() else 0
    endpoint = _endpoint(url, max_in_flight=2, timeout=60.0)
    results = []
    thread = threading.Thread(
        target=lambda: results.append(
            run_eval(bundles, records_path, {"scorer": "stub"}, endpoint=endpoint)
        )
    )
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while lines() < len(bundles) - 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert lines() == len(bundles) - 1
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    written = records_path.read_text().splitlines(keepends=True)
    keys = [(r["task_id"], r["k"], r["seed"], r["instance_id"]) for r in map(json.loads, written)]
    assert keys == sorted(keys) and len(keys) == len(bundles)
    assert keys[0][3] == first.test_instance.instance_id
    assert results[0] == load_tally(records_path)  # run_eval hands on the file's tally


def test_completion_order_independence(stub):
    state, url = stub
    state.delay = 0.002
    bundles = _bundles(20)
    runs = []
    for max_in_flight in (1, 8):
        records = evaluate(
            bundles, endpoint=_endpoint(url, max_in_flight=max_in_flight), sleep=NO_SLEEP
        )
        runs.append(
            [(r.instance_id, r.k, r.seed, r.raw_output, r.extracted, r.correct) for r in records]
        )
    assert runs[0] == runs[1]


def test_http_eval_keeps_one_connection_per_slot_and_closes_them(keep_alive_stub):
    state, url = keep_alive_stub
    records = evaluate(_bundles(40), endpoint=_endpoint(url, max_in_flight=4), sleep=NO_SLEEP)
    assert all(r.correct for r in records)
    assert state.requests == 40
    assert state.connections <= 4
    deadline = time.monotonic() + 5.0
    while state.open_connections and time.monotonic() < deadline:
        time.sleep(0.01)
    assert state.open_connections == 0


def test_http_eval_resends_once_on_a_dropped_keep_alive_connection(keep_alive_stub):
    # the server closes each connection after its reply without saying
    # so, and every next request on it meets a dead socket
    state, url = keep_alive_stub
    state.drop_after_response = True
    bundles = _bundles(30)
    endpoint = _endpoint(url, max_in_flight=1, max_attempts=1)
    records = evaluate(bundles, endpoint=endpoint, sleep=NO_SLEEP)
    assert all(r.error is None and r.correct for r in records)
    assert state.requests == len(bundles)


def test_http_eval_sends_the_bearer_token_from_the_environment(stub, monkeypatch):
    state, url = stub
    monkeypatch.setenv(TOKEN_ENV_VAR, "s3cret")
    evaluate(_bundles(6), endpoint=_endpoint(url), sleep=NO_SLEEP)
    assert state.authorization == ["Bearer s3cret"] * 6
    monkeypatch.delenv(TOKEN_ENV_VAR)
    evaluate(_bundles(6), endpoint=_endpoint(url), sleep=NO_SLEEP)
    assert state.authorization[6:] == [None] * 6


_KILLED_EVAL = """
import sys
from freqgap.client import EndpointConfig, evaluate
from freqgap.tasks import load_bundles

url, bundles, journal = sys.argv[1:]
endpoint = EndpointConfig(url, "stub-model", max_in_flight=4, backoff_base=0.0, timeout=5.0)
evaluate(load_bundles(bundles), endpoint=endpoint, journal=journal, resume=True)
"""


def test_a_killed_endpoint_eval_resumes_to_the_same_records(keep_alive_stub, tmp_path):
    state, url = keep_alive_stub
    state.delay = 0.005
    save_bundles(_bundles(150), tmp_path / "bundles.jsonl")
    bundles = load_bundles(tmp_path / "bundles.jsonl")
    clean = evaluate(bundles, endpoint=_endpoint(url), sleep=NO_SLEEP)
    requests_before = state.requests

    journal = tmp_path / "journal.jsonl"
    src = str(Path(freqgap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-c", _KILLED_EVAL, url, str(tmp_path / "bundles.jsonl"), str(journal)]
    proc = subprocess.Popen(argv, env=env)
    try:
        deadline = time.monotonic() + 60.0
        while not journal.exists() or journal.read_bytes().count(b"\n") < len(bundles) // 3:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.001)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert journal.read_bytes().count(b"\n") < len(bundles)  # killed mid-run

    resumed = evaluate(
        bundles, endpoint=_endpoint(url), journal=journal, resume=True, sleep=NO_SLEEP
    )
    without_latency = lambda records: [dataclasses.replace(r, latency=0.0) for r in records]
    assert without_latency(resumed) == without_latency(clean)
    text = journal.read_text()
    assert text.endswith("\n")
    assert len([json.loads(line) for line in text.splitlines()]) == len(bundles)
    # lost to the kill: requests in flight and results not yet journaled,
    # fewer than twice max_in_flight (4, here and in the subprocess)
    assert 0 <= state.requests - requests_before - len(bundles) < 2 * 4
