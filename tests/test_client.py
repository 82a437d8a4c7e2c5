import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import freqgap
from freqgap.client import (
    TOKEN_ENV_VAR,
    EndpointConfig,
    EndpointUnreachable,
    MockPolicy,
    apply_stop_sequences,
    evaluate,
    extract_answer,
    load_records,
    logistic_accuracy,
    mock_generate,
    primary_term_set,
    save_records,
    score,
    sigmoid,
)
from freqgap.tasks import build_fewshot_prompts, load_bundles, make_instance, save_bundles
from freqgap.terms import term_set, unit_term

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


# --- endpoint config -------------------------------------------------------


def test_endpoint_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig("http://x", "m", max_in_flight=0)


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
