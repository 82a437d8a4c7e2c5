"""Completion-endpoint evaluation of prompt bundles, plus offline mock models.

Requests go to a standard completion API (JSON POST with model, prompt,
max_tokens, temperature, stop) under a bounded in-flight cap with
exponential-backoff retries.  Completed records are journaled as they
arrive so interrupted runs resume by instance identity, and the final
record set is emitted in one canonical order regardless of completion
order.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import requests

from .counting import CountTable
from .tasks import CONVERSION_TASKS, PromptBundle
from .terms import term_set
from .util import atomic_open, sha256_text, unit_uniform

log = logging.getLogger(__name__)

TOKEN_ENV_VAR = "FREQGAP_API_TOKEN"

MOCK_KINDS = ("perfect", "always_wrong", "freq_logistic")


class EndpointUnreachable(RuntimeError):
    """The endpoint stayed unreachable through all retries; partial results stand."""


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    max_new_tokens: int = 8
    temperature: float = 0.0  # greedy decoding, deliberately not tunable
    stop_sequences: tuple[str, ...] = ("\n", "Q:")
    max_in_flight: int = 4
    max_attempts: int = 4
    backoff_base: float = 0.5
    backoff_max: float = 8.0
    timeout: float = 30.0
    completions_path: str = "/v1/completions"

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.temperature != 0.0:
            raise ValueError("decoding is greedy; temperature must be 0")

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


@dataclass
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

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "task_id": self.task_id,
            "k": self.k,
            "seed": self.seed,
            "prompt_digest": self.prompt_digest,
            "raw_output": self.raw_output,
            "extracted": self.extracted,
            "correct": self.correct,
            "latency": self.latency,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalRecord":
        return cls(**data)


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


def _record_key(instance_id: str, k: int, seed: int) -> tuple:
    return (instance_id, k, seed)


def _record_sort_key(record: EvalRecord) -> tuple:
    return (record.task_id, record.k, record.seed, record.instance_id)


class _HttpCompleter:
    """Thread-safe completion calls with retries and bounded backoff.

    Connection-level failures that survive all attempts abort the run
    (EndpointUnreachable); HTTP errors and malformed responses become
    per-record error notes.
    """

    def __init__(self, endpoint: EndpointConfig, sleep: Callable[[float], None] = time.sleep):
        self.endpoint = endpoint
        self._sleep = sleep
        self._local = threading.local()
        token = os.environ.get(TOKEN_ENV_VAR)
        self._headers = {"Authorization": f"Bearer {token}"} if token else {}

    def _session(self) -> requests.Session:
        if not hasattr(self._local, "session"):
            self._local.session = requests.Session()
        return self._local.session

    def complete(self, prompt: str) -> tuple[str, str | None]:
        """Return (raw_output, error_note); raises EndpointUnreachable."""
        ep = self.endpoint
        payload = {
            "model": ep.model_name,
            "prompt": prompt,
            "max_tokens": ep.max_new_tokens,
            "temperature": ep.temperature,
            "stop": list(ep.stop_sequences),
        }
        last_note = "unknown error"
        for attempt in range(ep.max_attempts):
            if attempt:
                self._sleep(min(ep.backoff_base * 2 ** (attempt - 1), ep.backoff_max))
            try:
                resp = self._session().post(
                    ep.url, json=payload, headers=self._headers, timeout=ep.timeout
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_note = f"connection failed: {exc.__class__.__name__}"
                continue
            if resp.status_code in (429,) or resp.status_code >= 500:
                last_note = f"HTTP {resp.status_code}"
                continue
            if resp.status_code != 200:
                return "", f"HTTP {resp.status_code}"
            try:
                body = resp.json()
                if "choices" in body:
                    text = body["choices"][0]["text"]
                else:
                    text = body["text"]
                if not isinstance(text, str):
                    raise TypeError
            except (ValueError, KeyError, IndexError, TypeError):
                return "", "malformed response body"
            return apply_stop_sequences(text, ep.stop_sequences), None
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
    resume=True skips bundles already present in the journal.  If the
    endpoint is unreachable the journal keeps the partial results and
    EndpointUnreachable propagates.
    """
    if (endpoint is None) == (mock is None):
        raise ValueError("exactly one of endpoint or mock must be given")
    if mock is not None and mock.kind == "freq_logistic" and counts is None:
        raise ValueError("freq_logistic mock needs a count table")

    done: dict[tuple, EvalRecord] = {}
    journal_path = Path(journal) if journal is not None else None
    if journal_path is not None and resume and journal_path.exists():
        for rec in _read_journal(journal_path):
            done[_record_key(rec.instance_id, rec.k, rec.seed)] = rec
    pending = [
        b
        for b in bundles
        if _record_key(b.test_instance.instance_id, b.k, b.seed) not in done
    ]

    journal_file = None
    if journal_path is not None:
        journal_path.parent.mkdir(parents=True, exist_ok=True)
        journal_file = open(journal_path, "a", encoding="utf-8")

    def persist(record: EvalRecord) -> None:
        done[_record_key(record.instance_id, record.k, record.seed)] = record
        if journal_file is not None:
            journal_file.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            journal_file.flush()

    try:
        if mock is not None:
            for bundle in pending:
                freq = counts.query(primary_term_set(bundle)) if counts is not None else 0
                raw = mock_generate(bundle, freq, mock)
                persist(_make_record(bundle, raw, None, 0.0))
        else:
            completer = _HttpCompleter(endpoint, sleep=sleep)

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
        if journal_file is not None:
            journal_file.close()

    return sorted(done.values(), key=_record_sort_key)


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
            records.append(EvalRecord.from_dict(json.loads(line)))
            good += len(line)
    return records


def rescore(records: Iterable[EvalRecord], gold_by_instance: dict[str, int]) -> list[EvalRecord]:
    """Recompute extraction and correctness from persisted raw outputs."""
    out = []
    for rec in records:
        extracted = extract_answer(rec.raw_output) if rec.error is None else None
        correct = score(extracted, gold_by_instance[rec.instance_id])
        out.append(replace(rec, extracted=extracted, correct=correct))
    return out


def save_records(records: Sequence[EvalRecord], path: Path | str) -> None:
    ordered = sorted(records, key=_record_sort_key)
    with atomic_open(path) as f:
        for rec in ordered:
            f.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


def load_records(path: Path | str) -> list[EvalRecord]:
    path = Path(path)
    paths = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for p in paths:
        with open(p, encoding="utf-8") as f:
            for line in f:
                records.append(EvalRecord.from_dict(json.loads(line)))
    return records
