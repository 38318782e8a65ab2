"""Scripted chat-completions backends for tests: an HTTP mock server and a text stub.

The server answers from a script, an ordered list of responses of which each
request consumes one, or, given ``answer``, by calling ``answer(prompt)`` for
the response to each request, so that concurrent requests get the same
answers in any order. A response is one of:

* ``(status, text)``: chat-completions body with ``text`` as the message
  content (empty string means a blank completion);
* ``(status, None)``: error status with a plain JSON error body;
* ``("raw", body)``: HTTP 200 with a verbatim (possibly malformed) body,
  ``str`` or ``bytes``;
* ``("slow", seconds, text)``: the ``(200, text)`` reply, sent after a delay.

A CONNECT request is recorded, answered 200 and its connection closed, so a
client tunnelling through the server as a proxy fails its TLS handshake.

By default the server speaks HTTP/1.0, so every reply ends its connection.
With ``keep_alive`` it speaks HTTP/1.1 and keeps connections open; adding
``drop_after_reply`` closes each connection after its reply anyway, without
announcing it, as a server dropping idle connections does. The server runs
one thread per connection; it counts the connections it accepted and the
most requests it was answering at once.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from typing import Callable

from ritkit.client import ERROR_UNAVAILABLE, BackendError, CallRecord


class MockBackendServer:
    def __init__(
        self,
        script: list[tuple] = (),
        *,
        answer: Callable[[str], tuple] | None = None,
        keep_alive: bool = False,
        drop_after_reply: bool = False,
    ):
        self.script = list(script)
        self.answer = answer
        self.requests: list[dict] = []
        self.paths: list[str] = []  # request targets, as sent
        self.request_headers: list[dict[str, str]] = []
        self.connections = 0
        self.in_flight = 0
        self.most_in_flight = 0
        self.lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def setup(self) -> None:
                super().setup()
                # Headers and body leave in two writes; without this a kept-alive
                # connection stalls on the client's delayed ACK between them.
                self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with outer.lock:
                    outer.connections += 1

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                with outer.lock:
                    outer.in_flight += 1
                    outer.most_in_flight = max(outer.most_in_flight, outer.in_flight)
                try:
                    self._reply()
                finally:
                    with outer.lock:
                        outer.in_flight -= 1

            def _reply(self) -> None:
                length = int(self.headers.get("Content-Length", 0))
                request = json.loads(self.rfile.read(length) or b"{}")
                with outer.lock:
                    outer.paths.append(self.path)
                    outer.request_headers.append(dict(self.headers))
                    outer.requests.append(request)
                    scripted = outer.script.pop(0) if outer.script else None
                entry = scripted if outer.answer is None else outer.answer(request["messages"][0]["content"])
                if entry is None:
                    status, body = 500, json.dumps({"error": "script exhausted"})
                else:
                    if entry[0] == "slow":
                        time.sleep(entry[1])
                        entry = (200, entry[2])
                    if entry[0] == "raw":
                        status, body = 200, entry[1]
                    else:
                        status, text = entry
                        if status == 200:
                            body = json.dumps({"choices": [{"message": {"content": text}}]})
                        else:
                            body = json.dumps({"error": {"code": status}})
                payload = body if isinstance(body, bytes) else body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                if drop_after_reply:
                    self.close_connection = True

            def do_CONNECT(self) -> None:  # noqa: N802 (http.server API)
                outer.paths.append(self.path)
                outer.request_headers.append(dict(self.headers))
                self.send_response(200)
                self.end_headers()
                self.close_connection = True

            def log_message(self, *args) -> None:  # keep test output quiet
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.server.handle_error = lambda request, address: None  # a client that timed out has gone
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.05,), daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "MockBackendServer":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()


class StubBackend:
    """Text backend returning scripted responses, for offline pipelines."""

    def __init__(self, responses: list[str] | None = None, constant: str | None = None):
        self.responses = list(responses or [])
        self.constant = constant
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        if self.responses:
            return self.responses.pop(0)
        if self.constant is not None:
            return self.constant
        raise BackendError(ERROR_UNAVAILABLE, CallRecord())
