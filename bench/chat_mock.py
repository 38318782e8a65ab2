"""Delayed chat-completions mock that the benchmark runs in its own process.

    python3 bench/chat_mock.py --delay-ms 5

It binds 127.0.0.1 on a free port, prints `PORT <n>` on stdout and serves
until it is terminated. Every POST is answered after a fixed delay, in one
write of status line, headers and body: a reply split over several writes
meets the client's delayed ACK on a kept-alive connection and stalls for
about 40 ms, which would swamp the client cost the benchmark measures.
`GET /stats` returns the connections and requests served so far; it is not
counted itself.

Answers depend only on the prompt (see `answer_for`), so the benchmark can
predict every verdict and label without asking the mock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FINE_LABELS = ("WAC", "SAC", "WTC", "STC", "WCC", "SCC")

# Subtask prompts end with this instruction; the kind is named on the first line.
SUBTASK_TAIL = "Answer with a single word, YES or NO, on the last line."
SUBTASK_KINDS = ("TRIGGER-OVERLAP", "ACTION-CONFLICT", "CASCADE")
# Classification prompts end with the ruleset under analysis, after this line.
RULESET_MARKER = "The rules that you must analyze are:\n"
YES_PER_TEN = 7


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def subtask_answer(kind: str, rule_a: str, rule_b: str) -> str:
    """YES for about seven in ten (kind, rule pair) keys, otherwise NO."""
    return "YES" if _digest(f"{kind}|{rule_a}|{rule_b}") % 10 < YES_PER_TEN else "NO"


def classification_answer(ruleset_text: str) -> str:
    return FINE_LABELS[_digest(ruleset_text) % len(FINE_LABELS)]


def answer_for(prompt: str) -> str:
    """The reply to one prompt: a plain YES/NO for subtasks, one label otherwise."""
    if prompt.rstrip().endswith(SUBTASK_TAIL):
        head = prompt.split("\n", 1)[0]
        kind = next((k for k in SUBTASK_KINDS if k in head), head)
        rules = [line.split("[", 1)[1].split("]", 1)[0] for line in prompt.splitlines() if line.startswith("RULE_")]
        return subtask_answer(kind, *rules[:2])
    _, _, ruleset = prompt.partition(RULESET_MARKER)
    return classification_answer(ruleset or prompt)


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0


def make_server(delay_s: float) -> ThreadingHTTPServer:
    """A server on a free port of 127.0.0.1; threads serve one connection each."""
    stats = Stats()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.counted = False

        def _send(self, status: int, body: bytes) -> None:
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            length = int(self.headers.get("Content-Length", 0))
            try:
                prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                self._send(400, b'{"error": "bad request"}')
                return
            reply = json.dumps({"choices": [{"message": {"role": "assistant", "content": answer_for(prompt)}}]})
            time.sleep(delay_s)
            with stats.lock:
                stats.requests += 1
                if not self.counted:
                    stats.connections += 1
            self.counted = True
            self._send(200, reply.encode("utf-8"))

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            with stats.lock:
                body = json.dumps({"connections": stats.connections, "requests": stats.requests})
            self._send(200, body.encode("utf-8"))

        def log_message(self, *args) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--delay-ms", type=float, required=True, help="fixed delay added to every answer")
    args = parser.parse_args(argv)
    server = make_server(args.delay_ms / 1000.0)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
