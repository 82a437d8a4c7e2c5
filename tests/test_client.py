import json
import re
import threading
import time
from collections import defaultdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from freqgap.client import (
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
    rescore,
    save_records,
    score,
    sigmoid,
)
from freqgap.tasks import build_fewshot_prompts, make_instance
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


def test_rescore_reproduces_correctness():
    bundles = _bundles(20)
    records = evaluate(bundles, mock=MockPolicy("perfect"))
    gold = {b.test_instance.instance_id: b.gold for b in bundles}
    again = rescore(records, gold)
    assert [r.correct for r in again] == [r.correct for r in records]
    assert all(r.correct for r in again)


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
    from freqgap.tasks import PromptBundle, render_prompt

    return PromptBundle(inst, (), seed=0, k=0, rendered=render_prompt(inst, False))


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


# --- endpoint config -------------------------------------------------------


def test_endpoint_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig("http://x", "m", max_in_flight=0)
    with pytest.raises(ValueError):
        EndpointConfig("http://x", "m", temperature=0.7)


def test_endpoint_url_building():
    assert (
        EndpointConfig("http://h:1234", "m").url == "http://h:1234/v1/completions"
    )
    assert (
        EndpointConfig("http://h:1234/v1/completions", "m").url
        == "http://h:1234/v1/completions"
    )


# --- stub HTTP server ------------------------------------------------------


class StubState:
    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.requests = 0
        self.attempts = defaultdict(int)
        self.fail_first_attempt_every = 0  # 10 -> every 10th question fails once
        self.always_fail = False
        self.malformed = False
        self.delay = 0.0

    def answer(self, prompt: str) -> str:
        question = re.findall(r"What is (\d+) times (\d+)\?", prompt)[-1]
        return f" {int(question[0]) * int(question[1])}"


class _StubHandler(BaseHTTPRequestHandler):
    state: StubState

    def log_message(self, *args):
        pass

    def do_POST(self):
        state = self.state
        with state.lock:
            state.in_flight += 1
            state.max_in_flight = max(state.max_in_flight, state.in_flight)
            state.requests += 1
        try:
            length = int(self.headers["Content-Length"])
            body = json.loads(self.rfile.read(length))
            prompt = body["prompt"]
            if state.delay:
                time.sleep(state.delay)
            x1 = int(re.findall(r"What is (\d+) times", prompt)[-1])
            with state.lock:
                state.attempts[prompt] += 1
                first = state.attempts[prompt] == 1
            if state.always_fail or (
                state.fail_first_attempt_every
                and first
                and x1 % state.fail_first_attempt_every == 0
            ):
                self.send_response(503)
                self.end_headers()
                return
            if state.malformed:
                payload = b"not json"
            else:
                payload = json.dumps({"choices": [{"text": state.answer(prompt)}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload)
        finally:
            with state.lock:
                state.in_flight -= 1


@pytest.fixture
def stub():
    state = StubState()
    handler = type("Handler", (_StubHandler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield state, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


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
