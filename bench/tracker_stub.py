"""Loopback tracker stub speaking the REST subset ``rvd`` uses.

It is served by exactly one thread (``HTTPServer``, not the thread-per-request
``ThreadingHTTPServer``), so the benchmark process never runs more than two
threads: the client loop and this server.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

_ISSUE_PATH = re.compile(r"^/issues/(\d+)$")


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _json(self, status: int, doc) -> None:
        payload = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        match = _ISSUE_PATH.match(self.path)
        issue = self.server.issues.get(int(match.group(1))) if match else None
        if issue is None:
            self._json(404, {"error": "not found"})
        else:
            self._json(200, issue)

    def do_POST(self):
        if self.path != "/issues":
            self._json(404, {"error": "not found"})
            return
        doc = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))) or b"{}")
        issues = self.server.issues
        issue_id = len(issues) + 1
        issues[issue_id] = {
            "id": issue_id,
            "title": doc.get("title", ""),
            "body": doc.get("body", ""),
            "labels": doc.get("labels", []),
        }
        self._json(201, {"id": issue_id})


class TrackerStub:
    """``with TrackerStub() as stub: ... stub.url``; stops and joins on exit."""

    def __init__(self):
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.issues = {}
        self._thread = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.1}, name="tracker-stub")

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "TrackerStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
