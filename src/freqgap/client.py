"""Completion-endpoint evaluation of prompt bundles, plus offline mock models.

Requests go to a standard completion API (JSON POST with model, prompt,
max_tokens, temperature, stop) under a bounded in-flight cap with
exponential-backoff retries.  Each record is journaled as soon as it
completes, in completion order, so interrupted runs resume by instance
identity, and each call's records come back in one canonical order
regardless of completion order.  Analysis reads a RecordTally, which
keeps of each record only what the report needs.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence
from urllib.parse import urlsplit

from .counting import CountTable
from .tasks import PromptBundle, default_keys, render_prompt, resolve_grouping
from .util import atomic_open, text_uniform, unit_uniform

log = logging.getLogger(__name__)

TOKEN_ENV_VAR = "FREQGAP_API_TOKEN"

MOCK_KINDS = ("perfect", "always_wrong", "freq_logistic")

# Every request decodes greedily and stops at the end of the answer line.
TEMPERATURE = 0.0
STOP_SEQUENCES = ("\n", "Q:")
BACKOFF_MAX = 8.0  # seconds; the cap of the exponential backoff


class EndpointUnreachable(RuntimeError):
    """The endpoint stayed unreachable through all retries; partial results stand."""


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    max_new_tokens: int = 8
    max_in_flight: int = 4
    max_attempts: int = 4
    backoff_base: float = 0.5
    timeout: float = 30.0
    completions_path: str = "/v1/completions"

    def __post_init__(self) -> None:
        for name in ("max_new_tokens", "max_in_flight", "max_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.timeout < math.inf:  # also refuses nan
            raise ValueError("timeout must be a finite number > 0")

    @property
    def url(self) -> str:
        base = self.base_url.rstrip("/")
        if base.endswith(self.completions_path.rstrip("/")):
            return base
        return base + self.completions_path


@dataclass(frozen=True)
class MockPolicy:
    """Deterministic stand-in model.

    perfect answers every question; always_wrong answers gold+1;
    freq_logistic answers correctly with probability
    sigmoid(a*log10(freq+1)+b) and gold+1 otherwise, with draws keyed by
    (seed, instance, k, prompt seed) so pooling seeds averages
    independent draws.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MOCK_KINDS:
            raise ValueError(f"unknown mock policy kind: {self.kind!r}")

    @classmethod
    def parse(cls, spec: str) -> "MockPolicy":
        """Parse CLI forms: 'perfect', 'always_wrong', 'freq_logistic:A,B[,SEED]'."""
        kind, _, params = spec.partition(":")
        if kind in ("perfect", "always_wrong"):
            if params:
                raise ValueError(f"{kind} takes no parameters")
            return cls(kind)
        if kind == "freq_logistic":
            parts = params.split(",") if params else []
            if len(parts) not in (2, 3):
                raise ValueError("freq_logistic needs a,b[,seed]")
            seed = int(parts[2]) if len(parts) == 3 else 0
            return cls(kind, a=float(parts[0]), b=float(parts[1]), seed=seed)
        raise ValueError(f"unknown mock policy: {spec!r}")

    @property
    def reads_counts(self) -> bool:
        """Whether the answers depend on a count table."""
        return self.kind == "freq_logistic"


@dataclass(slots=True)
class EvalRecord:
    instance_id: str
    task_id: str
    k: int
    seed: int
    prompt_digest: str
    raw_output: str
    extracted: int | None
    correct: bool
    latency: float
    error: str | None = None


_json_str = json.encoder.encode_basestring_ascii


def _record_line(r: EvalRecord) -> str:
    """sorted_json of the record's fields plus a newline, filled into a
    fixed template: strings encoded as the encoder encodes them, numbers
    by their repr."""
    return (
        f'{{"correct": {"true" if r.correct else "false"}, '
        f'"error": {"null" if r.error is None else _json_str(r.error)}, '
        f'"extracted": {"null" if r.extracted is None else repr(r.extracted)}, '
        f'"instance_id": {_json_str(r.instance_id)}, "k": {r.k!r}, "latency": {r.latency!r}, '
        f'"prompt_digest": {_json_str(r.prompt_digest)}, '
        f'"raw_output": {_json_str(r.raw_output)}, "seed": {r.seed!r}, '
        f'"task_id": {_json_str(r.task_id)}}}\n'
    )


_DIGITS_RE = re.compile(r"[0-9]+")
_REFUSAL_RE = re.compile(r"[A-Za-z]{4,}")


def extract_answer(raw_output: str) -> int | None:
    """First maximal digit run as an integer.

    Leading whitespace and a leading dollar sign are tolerated, but a
    letter run longer than three characters before any digits means the
    model produced prose, not an answer.
    """
    m = _DIGITS_RE.search(raw_output)
    if m is None:
        return None
    if _REFUSAL_RE.search(raw_output, 0, m.start()):
        return None
    return int(m.group())


def score(extracted: int | None, gold: int) -> bool:
    return extracted is not None and extracted == gold


def _outcome(raw_output: str, gold: int) -> tuple[str, int | None, bool]:
    extracted = extract_answer(raw_output)
    return raw_output, extracted, score(extracted, gold)


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def logistic_accuracy(policy: MockPolicy, freq: int) -> float:
    """Closed-form correctness probability of the freq_logistic mock."""
    return sigmoid(policy.a * math.log10(freq + 1) + policy.b)


def primary_term_set(bundle: PromptBundle) -> tuple[int, ...]:
    """The frequency key that drives the mock: the term set of the task's
    first default grouping key."""
    inst = bundle.test_instance
    return resolve_grouping(inst, default_keys(inst.task_id)[0])


def _mock_answers(gold: int) -> tuple[str, str]:
    """The two outputs a mock gives: the right answer and gold+1."""
    return f" {gold}", f" {gold + 1}"


def mock_generate(bundle: PromptBundle, freq: int, policy: MockPolicy) -> str:
    right, wrong = _mock_answers(bundle.gold)
    if policy.kind == "perfect":
        return right
    if policy.kind == "always_wrong":
        return wrong
    p = logistic_accuracy(policy, freq)
    u = unit_uniform(policy.seed, bundle.test_instance.instance_id, bundle.k, bundle.seed)
    return right if u < p else wrong


class EvalState:
    """What scoring computes once and reuses across evaluate calls.

    The records of the journal, read once when the state is built.  Per
    test instance: the bytes of its question and, for a mock, the two
    outputs it can give with their extracted and scored answers, and for
    freq_logistic the probability of the right one.  Per shot set: the
    sha256 state over its block, which each of its prompts' digests
    continues.  Both caches hold one task: the first bundle of another
    task empties them.  run_eval keeps one state for its whole eval; an
    evaluate call without one builds its own.
    """

    def __init__(
        self, mock: MockPolicy | None, counts: CountTable | None = None, journal: Path | None = None
    ):
        self.mock = mock
        self.counts = counts
        self.journaled = read_journal(journal)
        self._task_id: str | None = None
        self._instances: dict[str, tuple] = {}
        self._shot_hashes: dict[str, Any] = {}

    def _instance(self, bundle: PromptBundle) -> tuple:
        """(question bytes, p, then the outcome of a draw below p or of a
        mock without draws, then the other outcome); an outcome is raw
        output, extracted, correct.  An endpoint's entry is the question
        bytes alone."""
        inst = bundle.test_instance
        # Endpoint threads may race here unlocked: every entry is right for
        # its key, so a race only leaves another task's entries cached.
        if inst.task_id != self._task_id:
            self._task_id = inst.task_id
            self._instances.clear()
            self._shot_hashes.clear()
        entry: tuple = (render_prompt(inst, with_answer=False).encode("utf-8"),)
        mock = self.mock
        if mock is not None:
            hit, miss = _mock_answers(inst.y)
            p = None
            if mock.kind == "freq_logistic":
                p = logistic_accuracy(mock, self.counts.query(primary_term_set(bundle)))
            elif mock.kind == "always_wrong":
                hit, miss = miss, hit
            entry += (p,) + _outcome(hit, inst.y) + _outcome(miss, inst.y)
        self._instances[inst.instance_id] = entry
        return entry

    def _digest(self, shot_block: str, question: bytes) -> str:
        shot_hash = self._shot_hashes.get(shot_block)
        if shot_hash is None:
            shot_hash = self._shot_hashes[shot_block] = hashlib.sha256(shot_block.encode("utf-8"))
        prompt_hash = shot_hash.copy()
        prompt_hash.update(question)
        return prompt_hash.hexdigest()[:16]

    def score_mock(self, bundle: PromptBundle) -> EvalRecord:
        inst = bundle.test_instance
        instance_id = inst.instance_id
        entry = self._instances.get(instance_id) or self._instance(bundle)
        k, seed = bundle.k, bundle.seed
        p = entry[1]
        # unit_uniform(mock.seed, instance_id, k, seed), its labels joined here
        if p is not None and text_uniform(f"{self.mock.seed}|{instance_id}|{k}|{seed}") >= p:
            raw, extracted, correct = entry[5:]
        else:
            raw, extracted, correct = entry[2:5]
        digest = self._digest(bundle.shot_block, entry[0])
        return EvalRecord(instance_id, inst.task_id, k, seed, digest, raw, extracted, correct, 0.0)

    def score_endpoint(self, bundle: PromptBundle, completer: _HttpCompleter) -> EvalRecord:
        inst = bundle.test_instance
        question = (self._instances.get(inst.instance_id) or self._instance(bundle))[0]
        start = time.perf_counter()
        raw, error = completer.complete(bundle.shot_block + question.decode("utf-8"))
        latency = time.perf_counter() - start
        extracted = extract_answer(raw) if error is None else None
        digest = self._digest(bundle.shot_block, question)
        return EvalRecord(
            inst.instance_id, inst.task_id, bundle.k, bundle.seed, digest, raw, extracted,
            score(extracted, inst.y), latency, error,
        )


def apply_stop_sequences(text: str, stops: Sequence[str]) -> str:
    for stop in stops:
        idx = text.find(stop)
        if idx >= 0:
            text = text[:idx]
    return text


class _HttpCompleter:
    """Thread-safe completion calls with retries and bounded backoff.

    Each calling thread keeps one keep-alive connection, closed on any
    failure so that the next attempt reconnects, and all of them are
    closed by close().  Connection-level failures that survive all
    attempts abort the run (EndpointUnreachable); HTTP errors and
    malformed responses become per-record error notes.
    """

    def __init__(self, endpoint: EndpointConfig, sleep: Callable[[float], None] = time.sleep):
        self.endpoint = endpoint
        self._sleep = sleep
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []
        url = urlsplit(endpoint.url)
        if url.scheme not in ("http", "https"):
            raise ValueError(f"endpoint URL must be http or https: {endpoint.url!r}")
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._host, self._port = url.hostname, url.port
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """Status and body of one POST on this thread's connection.  A
        reset or broken pipe on a connection that has already served a
        response means the server dropped it while idle: the request is
        sent once more, on a fresh connection.  A closed connection
        reopens on its next request."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connection_class(
                self._host, self._port, timeout=self.endpoint.timeout
            )
            self._opened.append(conn)
        while True:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._path, body, self._headers)
                resp = conn.getresponse()
                return resp.status, resp.read()
            except BaseException as exc:
                conn.close()
                if not (reused and isinstance(exc, (ConnectionResetError, BrokenPipeError))):
                    raise

    def close(self) -> None:
        for conn in self._opened:
            conn.close()

    def complete(self, prompt: str) -> tuple[str, str | None]:
        """Return (raw_output, error_note); raises EndpointUnreachable."""
        ep = self.endpoint
        payload = {
            "model": ep.model_name,
            "prompt": prompt,
            "max_tokens": ep.max_new_tokens,
            "temperature": TEMPERATURE,
            "stop": list(STOP_SEQUENCES),
        }
        request_body = json.dumps(payload).encode()
        last_note = "unknown error"
        for attempt in range(ep.max_attempts):
            if attempt:
                self._sleep(min(ep.backoff_base * 2 ** (attempt - 1), BACKOFF_MAX))
            try:
                status, data = self._post(request_body)
            except (OSError, http.client.HTTPException) as exc:
                last_note = f"connection failed: {exc.__class__.__name__}"
                continue
            if status in (429,) or status >= 500:
                last_note = f"HTTP {status}"
                continue
            if status != 200:
                return "", f"HTTP {status}"
            try:
                body = json.loads(data)
                if "choices" in body:
                    text = body["choices"][0]["text"]
                else:
                    text = body["text"]
                if not isinstance(text, str):
                    raise TypeError
            except (ValueError, KeyError, IndexError, TypeError):
                return "", "malformed response body"
            return apply_stop_sequences(text, STOP_SEQUENCES), None
        if last_note.startswith("connection failed"):
            raise EndpointUnreachable(
                f"{ep.url} unreachable after {ep.max_attempts} attempts ({last_note})"
            )
        return "", f"failed after {ep.max_attempts} attempts ({last_note})"


def evaluate(
    bundles: Sequence[PromptBundle],
    endpoint: EndpointConfig | None = None,
    mock: MockPolicy | None = None,
    counts: CountTable | None = None,
    journal: Path | str | None = None,
    resume: bool = False,
    sleep: Callable[[float], None] = time.sleep,
    state: EvalState | None = None,
) -> list[EvalRecord]:
    """Score every bundle against the endpoint or a mock policy.

    One record per bundle comes back, sorted by (task_id, k, seed,
    instance_id).  With a journal path, each record is appended as it
    completes; resume=True takes the records of bundles already in the
    journal, as the state read it when it was built, and resume=False
    starts the journal afresh.  If the endpoint is unreachable,
    EndpointUnreachable propagates with every record completed before it
    journaled; the at most max_in_flight - 1 requests still in flight
    are dropped and scored again on resume.  A caller that scores
    several bundle lists of one journal passes one `state`, built with
    this mock, these counts and that journal.
    """
    if (endpoint is None) == (mock is None):
        raise ValueError("exactly one of endpoint or mock must be given")
    if mock is not None and mock.reads_counts and counts is None:
        raise ValueError("freq_logistic mock needs a count table")
    journal_path = Path(journal) if journal is not None else None
    if state is None:
        state = EvalState(mock, counts, journal_path if resume else None)
    elif state.mock != mock or state.counts is not counts:
        raise ValueError("the eval state was built for another scorer")
    completer = _HttpCompleter(endpoint, sleep=sleep) if endpoint is not None else None

    records: list[EvalRecord] = []
    pending = bundles
    if resume and state.journaled:
        done = [state.journaled.get((b.test_instance.instance_id, b.k, b.seed)) for b in bundles]
        records = [record for record in done if record is not None]
        pending = [bundle for bundle, record in zip(bundles, done) if record is None]

    with ExitStack() as stack:
        journal_file = None
        if journal_path is not None:
            journal_path.parent.mkdir(parents=True, exist_ok=True)
            mode = "a" if resume else "w"
            journal_file = stack.enter_context(open(journal_path, mode, encoding="utf-8"))
        if mock is not None:
            scored = map(state.score_mock, pending)
        else:
            stack.callback(completer.close)
            pool = ThreadPoolExecutor(max_workers=endpoint.max_in_flight)
            stack.callback(pool.shutdown, cancel_futures=True)
            futures = [pool.submit(state.score_endpoint, b, completer) for b in pending]
            scored = (future.result() for future in as_completed(futures))
        for record in scored:
            records.append(record)
            if journal_file is not None:
                journal_file.write(_record_line(record))
                journal_file.flush()

    # Two stable sorts: a call's records mostly share one (task_id, k,
    # seed), and the second sort then runs over a presorted list.
    records.sort(key=attrgetter("instance_id"))
    records.sort(key=attrgetter("task_id", "k", "seed"))
    return records


def read_journal(path: Path | None) -> dict[tuple[str, int, int], EvalRecord]:
    """Journaled records by (instance_id, k, seed); none without a journal.
    A last line without its newline is a write cut short by a kill: it is
    truncated away, so its bundle is scored again and later appends start
    on a fresh line.  A bad complete line raises."""
    records = {}
    if path is None or not path.exists():
        return records
    good = 0
    with open(path, "rb") as f:
        for line in f:
            if not line.endswith(b"\n"):
                log.warning("%s: dropping a partial last line", path)
                os.truncate(path, good)
                break
            record = EvalRecord(**json.loads(line))
            records[record.instance_id, record.k, record.seed] = record
            good += len(line)
    return records


def save_records(records: Iterable[EvalRecord], path: Path | str) -> None:
    """Write records in the order given, as they are iterated, and commit
    the file once the last is written.  No record is held here after its
    line is written."""
    with atomic_open(path) as f:
        f.writelines(map(_record_line, records))


def _records_file(path: Path | str) -> Path:
    """A records file, or the records.jsonl in a directory; an endpoint
    eval's journal.jsonl beside it is never read."""
    path = Path(path)
    return path / "records.jsonl" if path.is_dir() else path


def load_records(path: Path | str) -> list[EvalRecord]:
    """Records of a records file, or of the records.jsonl in a directory."""
    with open(_records_file(path), encoding="utf-8") as f:
        return [EvalRecord(**json.loads(line)) for line in f]


class RecordTally(dict):
    """What analysis reads of records: (task_id, k, seed) -> (instance
    ids, correct flags, errored flags), each in record order.  The flags
    are bytearrays, so a record costs a pointer and two bytes."""

    def add(self, records: Sequence[EvalRecord]) -> Sequence[EvalRecord]:
        """Tally the records, and return them to be written.  Each run of
        records under one key is looked up once."""
        for key, run in groupby(records, attrgetter("task_id", "k", "seed")):
            run = list(run)
            ids, oks, errors = self._lists(key)
            ids.extend(r.instance_id for r in run)
            oks.extend(r.correct for r in run)
            errors.extend(r.error is not None for r in run)
        return records

    def note(self, key: tuple[str, int, int], instance_id: str, ok: bool, errored: bool) -> None:
        ids, oks, errors = self._lists(key)
        ids.append(instance_id)
        oks.append(ok)
        errors.append(errored)

    def _lists(self, key: tuple[str, int, int]) -> tuple[list, bytearray, bytearray]:
        return self.get(key) or self.setdefault(key, ([], bytearray(), bytearray()))


def load_tally(path: Path | str) -> RecordTally:
    """The tally of a records file, or of the records.jsonl in a
    directory, read line by line."""
    tally = RecordTally()
    ids: dict[str, str] = {}  # one string per instance across its ks and seeds
    with open(_records_file(path), encoding="utf-8") as f:
        for r in map(json.loads, f):
            instance_id = ids.setdefault(r["instance_id"], r["instance_id"])
            errored = r["error"] is not None
            tally.note((r["task_id"], r["k"], r["seed"]), instance_id, r["correct"], errored)
    return tally
