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

from . import __version__
from .model import FlowSpec, Scenario
from .parser import ParseFailure, build_yaml, list_yaml, parse_flow, parse_scenario, scenario_from_listed, text_field

TOKEN_ENV = "ALURITY_TRACKER_TOKEN"

# The closing fence starts a line, so backticks inside the block's text
# (a flow command quoted as '```') do not end it.  The block is taken a whole
# line at a time, so the fence is tried only at line starts.
_FENCE_RE = re.compile(r"```yaml\s*\n((?:[^\n]*\n)*?)```")


class NotFound(Exception):
    pass


class TransportError(Exception):
    pass


class Rejected(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"tracker rejected the issue ({status}): {message}")


class NoReproductionFound(Exception):
    """A ticket none of whose fenced blocks holds a scenario; the message
    says, for each block in order, why it went unused."""


@dataclass(frozen=True)
class Ticket:
    id: int
    title: str
    body: str


# Visible latin-1 text: what an HTTP header value can carry on one line.
_HEADER_TEXT = re.compile(r"[\t\x20-\x7e\x80-\xff]*")
# Visible ASCII: what a request line and a Host header can carry.
_URL_TEXT = re.compile(r"[!-~]+")
# A reply whose head, its blank line included, runs longer than this is not a tracker's.
_MAX_HEAD = 65536
# A reply header line ``_reply`` reads: its field name in any case, and the
# value up to the line's end.
_FIELD_RE = re.compile(r"\r\n[ \t]*(content-length|location)[ \t]*:(.*?)(?=\r\n)", re.I | re.S)


@functools.cache
def _proxies() -> dict:
    """``urllib.request.getproxies()``, read on the first exchange and kept for
    the process, as urllib's global opener keeps it."""
    import urllib.request  # imported on first use: it loads OpenSSL
    return urllib.request.getproxies()


def _connect(base_url: str, path: str, timeout: float):
    """An open socket to the first hop of an exchange with ``path`` under
    ``base_url``, the request target and the routing header lines (``_route``).
    A plain hop is a bare TCP connection; TLS, and the ``CONNECT`` tunnel
    through a proxy that carries it, are ``http.client``'s."""
    (scheme, host, port), tunnel, prefix, route = _route(base_url)
    if scheme == "http":
        import socket  # imported by its only user: start-up loads no network stack
        return socket.create_connection((host, port), timeout), prefix + path, route
    import http.client
    if not hasattr(http.client, "HTTPSConnection"):
        raise ValueError("this Python has no TLS support")
    conn = http.client.HTTPSConnection(host, port, timeout=timeout)
    if tunnel is not None:
        conn.set_tunnel(*tunnel)
    try:
        conn.connect()
    except http.client.HTTPException as exc:  # a proxy's malformed reply to CONNECT
        conn.close()
        raise ValueError(f"no tunnel through {host}: {exc!r}") from exc
    return conn.sock, prefix + path, route


@functools.lru_cache(maxsize=16)
def _route(base_url: str):
    """How an exchange under ``base_url`` travels: the first hop (scheme,
    host, port), the ``CONNECT`` tunnel (host, port, headers) or None, the
    prefix of its request target, and the header lines that route it: ``Host``
    and, through a plain proxy, its credentials.  The proxy is picked from
    ``_proxies()`` as urllib's ``ProxyHandler`` picks it: the bypass list is
    asked only when the scheme has a proxy.  Kept per URL."""
    import urllib.request
    from urllib.parse import unquote, urlsplit
    parts = urlsplit(base_url)
    if parts.scheme not in ("http", "https") or not parts.hostname or not _URL_TEXT.fullmatch(base_url) or "?" in base_url or "#" in base_url:
        raise ValueError("not an http(s) URL with a host and no query or fragment, in visible ASCII")
    hop, tunnel, prefix, route = parts, None, parts.path.rstrip("/"), f"Host: {parts.netloc.rpartition('@')[2]}\r\n"
    proxy = _proxies().get(parts.scheme)
    if proxy is not None and not urllib.request.proxy_bypass_environment(parts.netloc, _proxies()):
        hop = urlsplit(proxy if "://" in proxy else f"{parts.scheme}://{proxy}")
        if not hop.hostname or parts.scheme == "http" and hop.scheme not in ("http", "https"):
            raise ValueError(f"unusable proxy {proxy!r}")
        auth = {}
        if hop.username and hop.password:
            import base64
            credentials = f"{unquote(hop.username)}:{unquote(hop.password)}".encode()
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials).decode("ascii")
        if parts.scheme == "http":  # the proxy is sent the absolute URL
            prefix = base_url.rstrip("/")
            route += "".join(f"{name}: {value}\r\n" for name, value in auth.items())
        else:  # a CONNECT tunnel carries TLS to the tracker itself
            tunnel = (parts.hostname, parts.port, auth)
    scheme = "http" if parts.scheme == hop.scheme == "http" else "https"
    return (scheme, hop.hostname, 80 if scheme == "http" and hop.port is None else hop.port), tunnel, prefix, route


def _reply(sock) -> tuple[int, Optional[str], bytes]:
    """The status, ``Location`` and body of the reply to an HTTP/1.0 request.
    The body runs to its ``Content-Length`` or, without one, to the close that
    ends an HTTP/1.0 reply.  Of a field given twice, the last one counts."""
    data = b""
    while (end := data.find(b"\r\n\r\n", 0, _MAX_HEAD)) < 0:
        if len(data) >= _MAX_HEAD or not (chunk := sock.recv(65536)):
            raise ValueError("no complete HTTP reply header")
        data += chunk
    head = data[: end + 2].decode("latin-1")  # each line with its CRLF
    status_line = head[: head.index("\r\n")]
    version, _, rest = status_line.partition(" ")
    if not version.startswith("HTTP/") or not rest[:3].isdigit():
        raise ValueError(f"not an HTTP status line: {status_line!r}")
    length = location = None
    for name, value in _FIELD_RE.findall(head):
        if name.lower() == "location":
            location = value.strip()
        else:
            length = value.strip()
    if length is not None and not length.isdigit():
        raise ValueError(f"bad Content-Length {length!r}")
    want = None if length is None else int(length)
    body = bytearray(data[end + 4 :])
    while (want is None or len(body) < want) and (chunk := sock.recv(65536)):
        body += chunk
    if want is not None and len(body) < want:
        raise ValueError(f"the reply ended {want - len(body)} bytes short of its Content-Length")
    return int(rest[:3]), location, bytes(body[:want])


def _request(method: str, base_url: str, path: str, timeout: float, payload=None) -> tuple[str, int, bytes]:
    """One HTTP exchange with ``path`` under ``base_url``, on a connection
    of its own, through the proxy the environment names; returns the URL,
    status and body, error statuses included.  A redirect is not followed.  A
    failed exchange is a TransportError.  The exchange is one HTTP/1.0 request
    and its reply, framed here on the socket ``_connect`` opens."""
    url = base_url.rstrip("/") + path
    head = f"User-Agent: alurity/{__version__}\r\n"
    if token := os.environ.get(TOKEN_ENV):
        if not _HEADER_TEXT.fullmatch(token):
            raise TransportError(f"{TOKEN_ENV} cannot be sent as an HTTP header: it must be latin-1 text on one line")
        head += f"Authorization: Bearer {token}\r\n"
    data = b""
    if payload is not None:
        data = json.dumps(payload).encode()
        head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
    try:
        sock, target, route = _connect(base_url, path, timeout)
        with sock:
            sock.sendall(f"{method} {target} HTTP/1.0\r\n{route}{head}\r\n".encode("latin-1") + data)
            status, location, body = _reply(sock)
    except (OSError, ValueError) as exc:  # ValueError: a bad URL or reply
        raise TransportError(f"{method} {url}: {exc}") from exc
    if 300 <= status < 400:
        raise TransportError(f"{method} {url}: HTTP {status} redirect to {location} not followed")
    return url, status, body


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
        title=text_field(doc, "title"),
        body=text_field(doc, "body"),
    )


def fetch_ticket(base_url: str, ticket_id: int, timeout: float = 10.0) -> Ticket:
    url, status, body = _request("GET", base_url, f"/issues/{ticket_id}", timeout)
    if status == 404:
        raise NotFound(f"HTTP 404 fetching {url}")
    if status >= 400:
        raise TransportError(f"HTTP {status} fetching {url}")
    return _decode(body, url, _ticket)


def push_issue(base_url: str, record, timeout: float = 10.0) -> int:
    """POST a flaw record as a new issue; body is one fenced yaml block."""
    body = f"```yaml\n{record.to_yaml()}```\n"
    payload = {
        "title": record.title,
        "body": body,
        "labels": [record.flaw_class, record.severity],
    }
    url, status, body = _request("POST", base_url, "/issues", timeout, payload)
    if 400 <= status < 500:
        raise Rejected(status, body.decode("utf-8", "replace"))
    if status >= 500:
        raise TransportError(f"HTTP {status} pushing to {url}")
    return _decode(body, url, lambda doc: int(doc["id"]))


def _is_scenario(scenario: Scenario) -> bool:
    return bool(scenario.networks or scenario.containers or scenario.vms)


def extract_reproduction(ticket: Ticket) -> tuple[Scenario, Optional[list[FlowSpec]]]:
    """Pure text scan over the ticket body's fenced yaml blocks.

    Each block is parsed once.  Until a scenario is found, a block folding
    to a scenario with endpoints becomes the scenario, and any other block
    holding an emitted flaw record returns its embedded ``reproduction``
    material.  After the scenario, the first block parsing as a flow becomes
    the flow.  Without a scenario, ``NoReproductionFound`` names each block
    by the body line it starts on, and says why it went unused.

    Each distinct embedded (scenario, flow) text pair is read once per
    process: tickets that embed it share one ``Scenario``, so ``up`` reuses
    its validation, addresses and plan, and the flow is a new list on each call.
    """
    scenario: Optional[Scenario] = None
    flow: Optional[list[FlowSpec]] = None
    reasons: list[str] = []
    for number, match in enumerate(_FENCE_RE.finditer(ticket.body), 1):
        block = match.group(1)
        if scenario is None:
            try:
                read = _read_block(block)
            except ParseFailure as exc:
                first = ticket.body.count("\n", 0, match.start(1)) + 1
                where = "" if exc.line is None else f" (line {first + exc.line - 1})"
                reasons.append(f"block {number} at line {first}: {exc.message}{where}")
                continue
            if isinstance(read, tuple):
                return read
            scenario, flow = read, list(read.flows) or None
        elif flow is None:
            try:
                parsed = parse_flow(block)
                if parsed:
                    flow = parsed
            except ParseFailure:
                pass
    if scenario is None:
        unused = "".join(f"\n  {reason}" for reason in reasons) or ": it has no fenced yaml block"
        raise NoReproductionFound(f"ticket {ticket.id} embeds no scenario{unused}")
    return scenario, flow


def _read_block(block: str):
    """The scenario with endpoints a block holds, else the (scenario, flow)
    the flaw record in it (a map with a ``reproduction`` key) embeds;
    ``ParseFailure`` saying why it holds neither.  A flaw record is never a
    scenario: its top-level keys are not scenario sections."""
    listed = list_yaml(block)  # one parse, read by the scenario fold and the map builder
    try:
        scenario, _ = scenario_from_listed(listed)
        if _is_scenario(scenario):
            return scenario
        failure = ParseFailure("no endpoints")
    except ParseFailure as exc:
        failure = exc
    try:
        doc = build_yaml(listed)
    except ParseFailure:
        raise failure from None
    if not isinstance(doc, dict) or "reproduction" not in doc:
        raise failure
    reproduction = {} if doc["reproduction"] is None else doc["reproduction"]  # only null is empty
    texts = (None,)
    if isinstance(reproduction, dict):
        texts = tuple("" if reproduction.get(key) is None else reproduction[key] for key in ("scenario", "flow"))
    if not all(isinstance(text, str) for text in texts):
        raise ParseFailure("a flaw record without a readable reproduction")
    scenario, flow = _read_reproduction(*texts)
    return scenario, list(flow) or None


@functools.lru_cache(maxsize=64)
def _read_reproduction(scenario_text: str, flow_text: str) -> tuple[Scenario, tuple[FlowSpec, ...]]:
    """The scenario with endpoints and the flow, () if none reads, that a
    record's reproduction texts hold; else ``ParseFailure`` saying why not.
    Kept per text pair, a failure not: the records of one sweep embed the
    same pair, and their tickets share one frozen ``Scenario``."""
    try:
        scenario = parse_scenario(scenario_text)
    except ParseFailure as exc:
        where = "" if exc.line is None else f" (line {exc.line} of that scenario)"
        raise ParseFailure(f"a flaw record whose reproduction scenario does not read: {exc.message}{where}") from exc
    if not _is_scenario(scenario):
        raise ParseFailure("a flaw record whose reproduction scenario has no endpoints")
    try:
        return scenario, tuple(parse_flow(flow_text)) if flow_text else ()
    except ParseFailure:
        return scenario, ()
