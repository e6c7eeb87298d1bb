"""Minimal vulnerability-tracker client.

Speaks a tracker-neutral REST subset (GET/POST ``/issues``) that a thin shim
can map onto GitHub or GitLab.  Reproduction material travels inside the
issue body as fenced ``yaml`` code blocks.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Optional

import yaml
from yaml import MappingNode

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


def _headers(token: Optional[str]) -> dict:
    token = token if token is not None else os.environ.get(TOKEN_ENV)
    return {"Authorization": f"Bearer {token}"} if token else {}


def _request(method: str, url: str, token: Optional[str], timeout: float, payload=None) -> tuple[int, bytes]:
    """One HTTP exchange (proxies from the environment); returns status and
    body, error statuses included.  A failed exchange is a TransportError."""
    import http.client  # imported by its only user: start-up loads no HTTP stack
    import urllib.error
    import urllib.request
    headers = _headers(token)
    data = None
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()
    except (OSError, http.client.HTTPException) as exc:  # URLError is an OSError
        raise TransportError(f"{method} {url}: {exc}") from exc


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
    """The scenario a block folds to, if it has endpoints.  A block with a
    ``reproduction`` key (a flaw record) is never one, so it is not folded."""
    if isinstance(root, MappingNode) and any(k.value == "reproduction" for k, _ in root.value):
        return None
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
    try:
        scenario = parse_scenario(scenario_text)
    except ParseFailure:
        return None
    if not _is_scenario(scenario):
        return None
    flow: Optional[list[FlowSpec]] = None
    if flow_text:
        try:
            flow = parse_flow(flow_text) or None
        except ParseFailure:
            flow = None
    return scenario, flow
