"""In-process HTTP stub speaking the tracker REST subset (GET/POST /issues)."""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_ISSUE_PATH = re.compile(r"^/issues/(\d+)$")


class StubTracker:
    def __init__(self):
        self.issues: dict[int, dict] = {}
        self.next_id = 1
        self.reject_status: int | None = None
        # (status, raw body) sent for every request instead of the REST subset
        self.canned: tuple[int, bytes] | None = None
        self.seen_auth: list[str | None] = []
        self._server: ThreadingHTTPServer | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> str:
        tracker = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _json(self, status: int, doc) -> None:
                payload = json.dumps(doc).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def _canned(self) -> bool:
                if tracker.canned is None:
                    return False
                status, payload = tracker.canned
                self.send_response(status)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                return True

            def do_GET(self):
                tracker.seen_auth.append(self.headers.get("Authorization"))
                if self._canned():
                    return
                match = _ISSUE_PATH.match(self.path)
                if not match:
                    self._json(404, {"error": "not found"})
                    return
                issue = tracker.issues.get(int(match.group(1)))
                if issue is None:
                    self._json(404, {"error": "not found"})
                    return
                self._json(200, issue)

            def do_POST(self):
                tracker.seen_auth.append(self.headers.get("Authorization"))
                if self._canned():
                    return
                if self.path != "/issues":
                    self._json(404, {"error": "not found"})
                    return
                if tracker.reject_status is not None:
                    self._json(tracker.reject_status, {"error": "rejected"})
                    return
                length = int(self.headers.get("Content-Length", 0))
                doc = json.loads(self.rfile.read(length) or b"{}")
                issue_id = tracker.next_id
                tracker.next_id += 1
                tracker.issues[issue_id] = {
                    "id": issue_id,
                    "title": doc.get("title", ""),
                    "body": doc.get("body", ""),
                    "labels": doc.get("labels", []),
                }
                self._json(201, {"id": issue_id})

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    # -- helpers -----------------------------------------------------------

    def seed(self, title: str, body: str, labels=()) -> int:
        issue_id = self.next_id
        self.next_id += 1
        self.issues[issue_id] = {"id": issue_id, "title": title, "body": body, "labels": list(labels)}
        return issue_id
