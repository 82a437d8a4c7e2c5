"""Stub completion endpoint for the eval-http workload.

Run as its own process:

    python3 perfbench/stub_server.py ANSWERS_JSON

It binds 127.0.0.1 on a free port, prints ``PORT <n>`` on stdout and
serves until SIGTERM.  ``ANSWERS_JSON`` maps the sha256 of each prompt
to its gold answer.

``POST /v1/completions`` sleeps a fixed service time and answers the
gold number.  Faults follow a fixed schedule keyed by the prompt:
"transient-503" and "transient-429" prompts fail every even-numbered
attempt (so each evaluation pass sees exactly one retry per such prompt)
and "persistent-400" prompts always fail.  ``GET /stats`` returns the
request counters; ``POST /stats/reset`` zeroes them.

Every response goes out in one write (status line, headers and body
together): a headers write followed by a body write stalls each request
on Nagle's algorithm against delayed ACKs on loopback.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SERVICE_S = 0.005

# Per mille of prompts per fault kind, chosen by the prompt digest.
FAULT_SCHEDULE = (("persistent-400", 20), ("transient-503", 50), ("transient-429", 30))

_STATUS = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests",
           503: "Service Unavailable"}


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def fault_kind(digest: str) -> str | None:
    """The scheduled fault of a prompt, from its sha256 hex digest."""
    slot = int(digest[:8], 16) % 1000
    for kind, share in FAULT_SCHEDULE:
        if slot < share:
            return kind
        slot -= share
    return None


class StubState:
    def __init__(self, answers: dict[str, int]):
        self.answers = answers
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.by_status: dict[str, int] = {}

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "max_in_flight": self.max_in_flight,
            "by_status": dict(self.by_status),
        }


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: StubState

    def log_message(self, *args) -> None:
        pass

    def _send(self, status: int, body: bytes = b"") -> None:
        head = (
            f"HTTP/1.1 {status} {_STATUS[status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404)
            return
        with self.state.lock:
            body = json.dumps(self.state.stats()).encode()
        self._send(200, body)

    def _reply(self, digest: str, attempt: int) -> tuple[int, bytes]:
        kind = fault_kind(digest)
        if digest not in self.state.answers or kind == "persistent-400":
            return 400, b'{"error": "bad request"}'
        if kind is not None and attempt % 2 == 0:
            return int(kind[-3:]), b'{"error": "try again"}'
        text = f" {self.state.answers[digest]}\nQ:"
        return 200, json.dumps({"choices": [{"text": text}]}).encode()

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        state = self.state
        if self.path == "/stats/reset":
            with state.lock:
                state.reset()
            self._send(200, b"{}")
            return
        with state.lock:
            state.requests += 1
            state.in_flight += 1
            state.max_in_flight = max(state.max_in_flight, state.in_flight)
        try:
            digest = prompt_digest(json.loads(raw)["prompt"])
            with state.lock:
                attempt = state.attempts.get(digest, 0)
                state.attempts[digest] = attempt + 1
            time.sleep(SERVICE_S)
            status, body = self._reply(digest, attempt)
            with state.lock:
                state.by_status[str(status)] = state.by_status.get(str(status), 0) + 1
            self._send(status, body)
        finally:
            with state.lock:
                state.in_flight -= 1


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as f:
        answers = json.load(f)
    handler = type("Handler", (StubHandler,), {"state": StubState(answers)})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    print(f"PORT {server.server_port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
