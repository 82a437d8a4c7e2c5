"""Shared test helpers: the brute-force counting oracle, corpus builders
and a stub completion endpoint.

The oracle enumerates position pairs and triples directly from the
reference tokenizer and term extractor, so it shares no windowing or
aggregation code with the production counter.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock

import freqgap.counting as counting_mod
from freqgap.counting import NN_PAIR_MAX, CounterConfig, extract_term
from freqgap.terms import CONVERSION_TASKS, UNIT_BASE, unit_term

# {x1, unit, factor} and {x1, unit, x1 * factor}, 1 <= x1 <= 99
FAMILY_TRIPLES = {
    tuple(sorted((x1, unit_term(unit), y)))
    for unit, factor in CONVERSION_TASKS.values()
    for x1 in range(1, 100)
    for y in (factor, x1 * factor)
}


@contextmanager
def python_path():
    """Count with the Python reference, as where no library can be built."""
    with mock.patch.object(counting_mod, "_kernel", lambda: None):
        yield


def tokenize(text: str) -> list[tuple[str, int]]:
    """Whitespace tokenization: maximal non-whitespace runs with 0-based positions."""
    return [(token, i) for i, token in enumerate(text.split())]


def in_default_families(key: tuple[int, ...]) -> bool:
    """Whether the default pass counts the sorted term set `key`: every
    unigram, (number, unit) pairs, number pairs below NN_PAIR_MAX and
    FAMILY_TRIPLES."""
    if len(key) == 3:
        return key in FAMILY_TRIPLES
    units = sum(code >= UNIT_BASE for code in key)
    return len(key) == 1 or units == 1 or (units == 0 and max(key) < NN_PAIR_MAX)


def oracle_count(documents, config: CounterConfig) -> dict[tuple[int, ...], int]:
    """Exact counts by direct enumeration of in-window position tuples.

    The default pass counts the default families; a targeted pass counts
    exactly its targets (plus unigrams)."""
    maxdist = config.window - 1
    wanted = in_default_families if config.target_sets is None else config.target_sets.__contains__
    counts: dict[tuple[int, ...], int] = {}

    def bump(key: tuple[int, ...]) -> None:
        counts[key] = counts.get(key, 0) + 1

    for text in documents:
        terms = []
        for token, pos in tokenize(text):
            code = extract_term(token, config)
            if code is not None:
                terms.append((pos, code))
        for a, (pa, ca) in enumerate(terms):
            bump((ca,))
            for b in range(a + 1, len(terms)):
                pb, cb = terms[b]
                if pb - pa > maxdist:
                    break
                pair = tuple(sorted((ca, cb)))
                if wanted(pair):
                    bump(pair)
                for c in range(b + 1, len(terms)):
                    pc, cc = terms[c]
                    if pc - pa > maxdist:
                        break
                    triple = tuple(sorted((ca, cb, cc)))
                    if wanted(triple):
                        bump(triple)
    return counts


UNIT_SURFACES = [
    "second", "seconds", "minute", "minutes", "hour", "hours", "Hours",
    "day", "days", "week", "weeks", "month", "months", "year", "years",
    "YEARS", "decade", "decades", "hOuRs",
]

FILLER = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "said", "today", "monday", "weekend", "yearly", "hourly", "x86",
]

ODDBALLS = ["1,000", "23.45", "a23", "...", "$5", "12345678", "0007", "(23)", "18?"]


def random_token(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.20:
        return str(rng.randrange(0, 120))
    if r < 0.28:
        return str(rng.randrange(0, 2_000_000))
    if r < 0.38:
        return rng.choice(UNIT_SURFACES)
    if r < 0.44:
        token = str(rng.randrange(0, 100))
        return rng.choice(["(", '"', "["]) + token + rng.choice([")", ",", ".", "?", "]"])
    if r < 0.50:
        return rng.choice(ODDBALLS)
    return rng.choice(FILLER)


def random_corpus(rng: random.Random, n_docs: int, max_tokens: int = 60) -> list[str]:
    docs = []
    for _ in range(n_docs):
        n = rng.randrange(0, max_tokens)
        sep = "\n" if rng.random() < 0.1 else " "
        docs.append(sep.join(random_token(rng) for _ in range(n)))
    return docs


# --- a stub completion endpoint -------------------------------------------

# "hours" -> 60: the factor of each conversion by its source unit's plural
_FACTORS = {unit + "s": factor for unit, factor in CONVERSION_TASKS.values()}


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
        self.wrong = False  # answer gold + 1
        self.delay = 0.0
        self.hold = {}  # prompt -> threading.Event its replies wait for
        self.unreachable = lambda prompt: False  # True: drop the connection unanswered
        self.drop_after_response = False  # close without "Connection: close"
        self.authorization = []  # the Authorization header of each request
        self.connections = 0
        self.open_connections = 0

    def answer(self, prompt: str) -> str:
        """The answer to the prompt's last question, a product or a conversion."""
        x1, x2, unit = re.findall(r"What is (\d+) (?:times (\d+)|(\w+) in \w+)\?", prompt)[-1]
        gold = int(x1) * (int(x2) if x2 else _FACTORS[unit])
        return f" {gold + self.wrong}"


class StubHandler(BaseHTTPRequestHandler):
    state: StubState

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        with self.state.lock:
            self.state.connections += 1
            self.state.open_connections += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with self.state.lock:
                self.state.open_connections -= 1

    def do_POST(self):
        state = self.state
        with state.lock:
            state.in_flight += 1
            state.max_in_flight = max(state.max_in_flight, state.in_flight)
            state.requests += 1
            state.authorization.append(self.headers.get("Authorization"))
        try:
            status, payload = self._reply()
        finally:
            # before the reply goes out: a client that has read a reply of
            # known length may send its next request at once
            with state.lock:
                state.in_flight -= 1
        if status is None:
            self.close_connection = True
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        if state.drop_after_response:
            self.close_connection = True

    def _reply(self) -> tuple[int | None, bytes]:
        state = self.state
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        prompt = body["prompt"]
        if state.unreachable(prompt):
            return None, b""
        if state.delay:
            time.sleep(state.delay)
        if prompt in state.hold:
            state.hold[prompt].wait(30.0)
        x1 = int(re.findall(r"What is (\d+)", prompt)[-1])
        with state.lock:
            state.attempts[prompt] += 1
            first = state.attempts[prompt] == 1
        if state.always_fail or (
            state.fail_first_attempt_every
            and first
            and x1 % state.fail_first_attempt_every == 0
        ):
            return 503, b""
        if state.malformed:
            return 200, b"not json"
        return 200, json.dumps({"choices": [{"text": state.answer(prompt)}]}).encode()


def serve_stub(protocol_version):
    """Yield (state, base URL) of a stub served until the generator closes."""
    state = StubState()
    handler = type(
        "Handler",
        (StubHandler,),
        # no Nagle: a keep-alive reply's body would wait on a delayed ACK
        {"state": state, "protocol_version": protocol_version, "disable_nagle_algorithm": True},
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield state, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
