"""Minimal vulnerability-tracker client.

Speaks a tracker-neutral REST subset (GET/POST ``/issues``) that a thin shim
can map onto GitHub or GitLab.  Reproduction material travels inside the
issue body as fenced ``yaml`` code blocks.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass
from typing import Optional

import yaml

from . import __version__
from .model import FlowSpec, Scenario
from .parser import ParseFailure, build_yaml, compose_yaml, parse_flow, parse_scenario, scenario_from_node

TOKEN_ENV = "ALURITY_TRACKER_TOKEN"

# The closing fence starts a line, so backticks inside the block's text
# (a flow command quoted as '```') do not end it.
_FENCE_RE = re.compile(r"```yaml\s*\n(.*?)^```", re.DOTALL | re.MULTILINE)


class NotFound(Exception):
    pass


class TransportError(Exception):
    pass


class Rejected(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"tracker rejected the issue ({status}): {message}")


class NoReproductionFound(Exception):
    pass


@dataclass(frozen=True)
class Ticket:
    id: int
    title: str
    body: str
    labels: tuple[str, ...] = ()


# Visible latin-1 text: what an HTTP header value can carry on one line.
_HEADER_TEXT = re.compile(r"[\t\x20-\x7e\x80-\xff]*")
# Visible ASCII: what a request line and a Host header can carry.
_URL_TEXT = re.compile(r"[!-~]+")
# A reply whose headers run longer than this is not a tracker's.
_MAX_HEAD = 65536

# ``urllib.request.getproxies()``, read on the first exchange and kept for the
# process, as urllib's global opener keeps it.
_proxies: Optional[dict] = None


def _headers(token: Optional[str]) -> dict:
    source = "the token argument" if token is not None else TOKEN_ENV
    token = token if token is not None else os.environ.get(TOKEN_ENV)
    headers = {"User-Agent": f"alurity/{__version__}"}
    if token:
        if not _HEADER_TEXT.fullmatch(token):
            raise TransportError(f"{source} cannot be sent as an HTTP header: it must be latin-1 text on one line")
        headers["Authorization"] = f"Bearer {token}"
    return headers


def _proxy(scheme: str, netloc: str) -> Optional[str]:
    """The proxy URL an exchange goes through, picked as urllib's
    ``ProxyHandler`` picks it: the bypass list is asked only when the
    scheme has a proxy, and both come from the one snapshot."""
    global _proxies
    import urllib.request  # imported by its only user: it loads OpenSSL
    if _proxies is None:
        _proxies = urllib.request.getproxies()
    proxy = _proxies.get(scheme)
    return None if proxy is None or urllib.request.proxy_bypass_environment(netloc, _proxies) else proxy


def _connect(url: str, timeout: float):
    """The unopened connection an exchange with ``url`` goes over, the
    request target to send on it, and the headers that route the request:
    ``Host`` and, through a plain proxy, the proxy's credentials."""
    import http.client  # imported by its only user: start-up loads no HTTP stack
    from urllib.parse import unquote, urlsplit
    connections = {"http": http.client.HTTPConnection, "https": getattr(http.client, "HTTPSConnection", None)}
    parts = urlsplit(url)
    connection = connections.get(parts.scheme)
    if connection is None or not parts.hostname or not _URL_TEXT.fullmatch(url):
        raise ValueError("not an http(s) URL with a host, in visible ASCII")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    route = {"Host": parts.netloc.rpartition("@")[2]}
    proxy = _proxy(parts.scheme, parts.netloc)
    if proxy is None:
        return connection(parts.hostname, parts.port, timeout=timeout), target, route
    via = urlsplit(proxy if "://" in proxy else f"{parts.scheme}://{proxy}")
    if parts.scheme == "http":  # the proxy is sent the absolute URL
        connection, target = connections.get(via.scheme), url.partition("#")[0]
    if connection is None or not via.hostname:
        raise ValueError(f"unusable proxy {proxy!r}")
    auth = {}
    if via.username and via.password:
        import base64
        credentials = f"{unquote(via.username)}:{unquote(via.password)}".encode()
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials).decode("ascii")
    conn = connection(via.hostname, via.port, timeout=timeout)
    if parts.scheme == "https":  # a CONNECT tunnel carries TLS to the tracker itself
        conn.set_tunnel(parts.hostname, parts.port, headers=auth)
    else:
        route.update(auth)
    return conn, target, route


def _reply(sock) -> tuple[int, dict, bytes]:
    """The status, header fields (names in lower case) and body of the reply
    to an HTTP/1.0 request.  The body runs to its ``Content-Length`` or,
    without one, to the close that ends an HTTP/1.0 reply."""
    data = b""
    while (end := data.find(b"\r\n\r\n")) < 0:
        chunk = sock.recv(65536)
        if not chunk or len(data) > _MAX_HEAD:
            raise ValueError("no complete HTTP reply header")
        data += chunk
    status_line, *lines = data[:end].decode("latin-1").split("\r\n")
    version, _, rest = status_line.partition(" ")
    if not version.startswith("HTTP/") or not rest[:3].isdigit():
        raise ValueError(f"not an HTTP status line: {status_line!r}")
    fields = {}
    for line in lines:
        name, _, value = line.partition(":")
        fields[name.strip().lower()] = value.strip()
    length = fields.get("content-length")
    if length is not None and not length.isdigit():
        raise ValueError(f"bad Content-Length {length!r}")
    want = None if length is None else int(length)
    chunks, size = [data[end + 4 :]], len(data) - end - 4
    while want is None or size < want:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
        size += len(chunk)
    if want is not None and size < want:
        raise ValueError(f"the reply ended {want - size} bytes short of its Content-Length")
    return int(rest[:3]), fields, b"".join(chunks)[:want]


def _request(method: str, url: str, token: Optional[str], timeout: float, payload=None) -> tuple[int, bytes]:
    """One HTTP exchange on a connection of its own, through the proxy the
    environment names; returns status and body, error statuses included.  A
    redirect is not followed.  A failed exchange is a TransportError.

    ``http.client`` opens the connection (TCP, a proxy's tunnel, TLS).  The
    exchange itself is one HTTP/1.0 request and its reply, framed here:
    ``http.client``'s request and reply objects, which read header fields
    through the ``email`` package, took about a third of each exchange's
    time on loopback."""
    import http.client
    headers = _headers(token)
    data = b""
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
        headers["Content-Length"] = str(len(data))
    try:
        conn, target, route = _connect(url, timeout)
        fields = "".join(f"{name}: {value}\r\n" for name, value in {**route, **headers}.items())
        try:
            conn.send(f"{method} {target} HTTP/1.0\r\n{fields}\r\n".encode("latin-1") + data)
            status, reply, body = _reply(conn.sock)
        finally:
            conn.close()
    except (OSError, ValueError, http.client.HTTPException) as exc:  # ValueError: a bad URL or reply
        raise TransportError(f"{method} {url}: {exc}") from exc
    if 300 <= status < 400:
        raise TransportError(f"{method} {url}: HTTP {status} redirect to {reply.get('location')} not followed")
    return status, body


def _decode(body: bytes, url: str, build):
    """``build`` applied to the JSON document of a 2xx response; a body that
    is not JSON or lacks the fields ``build`` reads is a TransportError."""
    try:
        return build(json.loads(body))
    except (ValueError, KeyError, TypeError) as exc:
        raise TransportError(f"unusable tracker response from {url}: {exc!r}") from exc


def _ticket(doc: dict) -> Ticket:
    return Ticket(
        id=int(doc["id"]),
        title=str(doc.get("title", "")),
        body=str(doc.get("body", "")),
        labels=tuple(doc.get("labels", [])),
    )


def fetch_ticket(base_url: str, ticket_id: int, token: Optional[str] = None, timeout: float = 10.0) -> Ticket:
    url = f"{base_url.rstrip('/')}/issues/{ticket_id}"
    status, body = _request("GET", url, token, timeout)
    if status == 404:
        raise NotFound(ticket_id)
    if status >= 400:
        raise TransportError(f"HTTP {status} fetching {url}")
    return _decode(body, url, _ticket)


def push_issue(base_url: str, record, token: Optional[str] = None, timeout: float = 10.0) -> int:
    """POST a flaw record as a new issue; body is one fenced yaml block."""
    body = f"```yaml\n{record.to_yaml()}```\n"
    payload = {
        "title": record.title,
        "body": body,
        "labels": [record.flaw_class, record.severity],
    }
    url = f"{base_url.rstrip('/')}/issues"
    status, body = _request("POST", url, token, timeout, payload)
    if 400 <= status < 500:
        raise Rejected(status, body.decode("utf-8", "replace"))
    if status >= 500:
        raise TransportError(f"HTTP {status} pushing to {url}")
    return _decode(body, url, lambda doc: int(doc["id"]))


def _is_scenario(scenario: Scenario) -> bool:
    return bool(scenario.networks or scenario.containers or scenario.vms)


def extract_reproduction(ticket: Ticket) -> tuple[Scenario, Optional[list[FlowSpec]]]:
    """Pure text scan over the ticket body's fenced yaml blocks.

    Each block is composed once.  Until a scenario is found, a block folding
    to a scenario with endpoints becomes the scenario, and any other block
    holding an emitted flaw record returns its embedded ``reproduction``
    material.  After the scenario, the first block parsing as a flow becomes
    the flow.

    Each distinct embedded (scenario, flow) text pair is read once per
    process: tickets that embed it share one ``Scenario``, so ``up`` reuses
    its validation, addresses and plan, and the flow is a new list on each call.
    """
    blocks = [m.group(1) for m in _FENCE_RE.finditer(ticket.body)]
    scenario: Optional[Scenario] = None
    flow: Optional[list[FlowSpec]] = None
    for block in blocks:
        if scenario is None:
            try:
                root = compose_yaml(block)
            except ParseFailure:
                continue
            scenario = _scenario_of(root)
            if scenario is not None:
                flow = list(scenario.flows) or None
                continue
            embedded = _embedded(root)
            if embedded is not None:
                return embedded
        elif flow is None:
            try:
                parsed = parse_flow(block)
                if parsed:
                    flow = parsed
            except ParseFailure:
                pass
    if scenario is None:
        raise NoReproductionFound(f"ticket {ticket.id} embeds no scenario")
    return scenario, flow


def _scenario_of(root: Optional[yaml.Node]) -> Optional[Scenario]:
    """The scenario a block folds to, if it has endpoints.  A flaw record
    is never one: its top-level keys are not scenario sections."""
    try:
        scenario, _ = scenario_from_node(root)
    except ParseFailure:
        return None
    return scenario if _is_scenario(scenario) else None


def _embedded(root: Optional[yaml.Node]) -> Optional[tuple[Scenario, Optional[list[FlowSpec]]]]:
    """The scenario and flow a flaw record block embeds; None unless the
    block builds to a map whose ``reproduction`` holds scenario text with
    endpoints and, optionally, flow text."""
    try:
        doc = build_yaml(root)
    except ParseFailure:
        return None
    if not isinstance(doc, dict) or "reproduction" not in doc:
        return None
    reproduction = doc.get("reproduction") or {}
    if not isinstance(reproduction, dict):
        return None
    scenario_text = reproduction.get("scenario", "")
    flow_text = reproduction.get("flow") or ""
    if not isinstance(scenario_text, str) or not isinstance(flow_text, str):
        return None
    read = _read_reproduction(scenario_text, flow_text)
    return None if read is None else (read[0], list(read[1]) or None)


@functools.lru_cache(maxsize=64)
def _read_reproduction(scenario_text: str, flow_text: str) -> Optional[tuple[Scenario, tuple[FlowSpec, ...]]]:
    """The scenario with endpoints and the flow, () if none reads, that a
    record's reproduction texts hold; None without such a scenario.  Kept
    per text pair: the records of one sweep embed the same pair, and their
    tickets then share one frozen ``Scenario`` and its derivations."""
    try:
        scenario = parse_scenario(scenario_text)
    except ParseFailure:
        return None
    if not _is_scenario(scenario):
        return None
    try:
        return scenario, tuple(parse_flow(flow_text)) if flow_text else ()
    except ParseFailure:
        return scenario, ()
