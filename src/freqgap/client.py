"""Completion-endpoint evaluation of prompt bundles, plus offline mock models.

Requests go to a standard completion API (JSON POST with model, prompt,
max_tokens, temperature, stop) under a bounded in-flight cap with
exponential-backoff retries.  Completed records are journaled as they
arrive so interrupted runs resume by instance identity, and the final
record set is emitted in one canonical order regardless of completion
order.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

from .counting import CountTable
from .tasks import CONVERSION_TASKS, PromptBundle
from .terms import term_set
from .util import atomic_open, sha256_text, sorted_json, unit_uniform

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


_RECORD_FIELDS = sorted(f.name for f in fields(EvalRecord))


def _record_line(record: EvalRecord) -> str:
    return sorted_json({name: getattr(record, name) for name in _RECORD_FIELDS}) + "\n"


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


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def logistic_accuracy(policy: MockPolicy, freq: int) -> float:
    """Closed-form correctness probability of the freq_logistic mock."""
    return sigmoid(policy.a * math.log10(freq + 1) + policy.b)


def primary_term_set(bundle: PromptBundle) -> tuple[int, ...]:
    """The frequency key that drives the mock: {x1} for arithmetic-family
    tasks, {x1, x2} for conversions."""
    inst = bundle.test_instance
    if inst.task_id in CONVERSION_TASKS:
        return term_set((inst.x[0], inst.x[1]))
    return term_set((inst.x[0],))


def mock_generate(bundle: PromptBundle, freq: int, policy: MockPolicy) -> str:
    gold = bundle.gold
    if policy.kind == "perfect":
        return f" {gold}"
    if policy.kind == "always_wrong":
        return f" {gold + 1}"
    p = logistic_accuracy(policy, freq)
    u = unit_uniform(policy.seed, bundle.test_instance.instance_id, bundle.k, bundle.seed)
    return f" {gold}" if u < p else f" {gold + 1}"


def apply_stop_sequences(text: str, stops: Sequence[str]) -> str:
    for stop in stops:
        idx = text.find(stop)
        if idx >= 0:
            text = text[:idx]
    return text


def _record_sort_key(record: EvalRecord) -> tuple:
    return (record.task_id, record.k, record.seed, record.instance_id)


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


def _make_record(bundle: PromptBundle, raw: str, error: str | None, latency: float) -> EvalRecord:
    extracted = extract_answer(raw) if error is None else None
    return EvalRecord(
        instance_id=bundle.test_instance.instance_id,
        task_id=bundle.test_instance.task_id,
        k=bundle.k,
        seed=bundle.seed,
        prompt_digest=sha256_text(bundle.rendered)[:16],
        raw_output=raw,
        extracted=extracted,
        correct=score(extracted, bundle.gold),
        latency=latency,
        error=error,
    )


def evaluate(
    bundles: Sequence[PromptBundle],
    endpoint: EndpointConfig | None = None,
    mock: MockPolicy | None = None,
    counts: CountTable | None = None,
    journal: Path | str | None = None,
    resume: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> list[EvalRecord]:
    """Score every bundle against the endpoint or a mock policy.

    Records come back sorted by (task_id, k, seed, instance_id).  With a
    journal path, completed records are appended as they finish;
    resume=True skips bundles already present in the journal, and
    resume=False starts the journal afresh.  If the endpoint is
    unreachable the journal keeps the partial results and
    EndpointUnreachable propagates.
    """
    if (endpoint is None) == (mock is None):
        raise ValueError("exactly one of endpoint or mock must be given")
    if mock is not None and mock.reads_counts and counts is None:
        raise ValueError("freq_logistic mock needs a count table")
    completer = _HttpCompleter(endpoint, sleep=sleep) if endpoint is not None else None

    records: list[EvalRecord] = []
    pending = bundles
    journal_path = Path(journal) if journal is not None else None
    if journal_path is not None and resume and journal_path.exists():
        done = {(r.instance_id, r.k, r.seed): r for r in _read_journal(journal_path)}
        records = list(done.values())
        pending = [b for b in bundles if (b.test_instance.instance_id, b.k, b.seed) not in done]

    journal_file = None
    if journal_path is not None:
        journal_path.parent.mkdir(parents=True, exist_ok=True)
        journal_file = open(journal_path, "a" if resume else "w", encoding="utf-8")

    def persist(record: EvalRecord) -> None:
        records.append(record)
        if journal_file is not None:
            journal_file.write(_record_line(record))
            journal_file.flush()

    try:
        if mock is not None:
            for bundle in pending:
                freq = counts.query(primary_term_set(bundle)) if counts is not None else 0
                raw = mock_generate(bundle, freq, mock)
                persist(_make_record(bundle, raw, None, 0.0))
        else:

            def run_one(bundle: PromptBundle) -> EvalRecord:
                start = time.perf_counter()
                raw, error = completer.complete(bundle.rendered)
                return _make_record(bundle, raw, error, time.perf_counter() - start)

            with ThreadPoolExecutor(max_workers=endpoint.max_in_flight) as pool:
                futures = [pool.submit(run_one, b) for b in pending]
                try:
                    for future in futures:
                        persist(future.result())
                except EndpointUnreachable:
                    for f in futures:
                        f.cancel()
                    for f in futures:
                        if f.done() and not f.cancelled() and f.exception() is None:
                            persist(f.result())
                    raise
    finally:
        if completer is not None:
            completer.close()
        if journal_file is not None:
            journal_file.close()

    records.sort(key=_record_sort_key)
    return records


def _read_journal(path: Path) -> list[EvalRecord]:
    """Journaled records.  A last line without its newline is a write cut
    short by a kill: it is truncated away, so its bundle is scored again
    and later appends start on a fresh line.  A bad complete line raises."""
    records = []
    good = 0
    with open(path, "rb") as f:
        for line in f:
            if not line.endswith(b"\n"):
                log.warning("%s: dropping a partial last line", path)
                os.truncate(path, good)
                break
            records.append(EvalRecord(**json.loads(line)))
            good += len(line)
    return records


def save_records(records: Sequence[EvalRecord], path: Path | str) -> None:
    ordered = sorted(records, key=_record_sort_key)
    with atomic_open(path) as f:
        for rec in ordered:
            f.write(_record_line(rec))


def load_records(path: Path | str) -> list[EvalRecord]:
    """Records of a records file, or of the records.jsonl in a directory;
    an endpoint eval's journal.jsonl beside it is never read."""
    path = Path(path)
    if path.is_dir():
        path = path / "records.jsonl"
    with open(path, encoding="utf-8") as f:
        return [EvalRecord(**json.loads(line)) for line in f]
