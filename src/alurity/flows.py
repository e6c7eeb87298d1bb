"""Flow compilation, execution and transcript verification.

A flow compiles into windows of panes, tmux-style: every window starts with
pane 0, each split opens a new pane, and commands bind to the latest pane.
The plan is one ``((endpoint, window, pane index), command texts)`` pair per
pane in flow order, empty panes included.  Panes run as independent
sequential sessions; the transcript records the actual interleaving with a
global sequence counter so reproduction can be checked after the fact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .model import Command, FlowSpec, Split
from .orchestrator import CommandResult, Deployment
from .parser import quote

# (endpoint, window, pane index): the key of one pane in a plan and a transcript
Pane = tuple[str, str, int]


class UnknownEndpointInFlow(Exception):
    pass


class TranscriptEvent(NamedTuple):
    """One command as it ran: an immutable tuple, so a changed copy comes
    from ``_replace``, not ``dataclasses.replace``."""

    endpoint: str
    window: str
    pane: int
    command: str
    result: CommandResult
    seq: int


@dataclass
class Transcript:
    events: list = field(default_factory=list)


def compile_flow(
    flow: Sequence[FlowSpec], known_endpoints: Optional[Iterable[str]] = None
) -> tuple[tuple[Pane, tuple[str, ...]], ...]:
    """Deterministic pane assignment: one (pane, command texts) pair per
    pane of every endpoint's windows, in flow order."""
    plan = []
    known = None if known_endpoints is None else set(known_endpoints)
    for spec in flow:
        if known is not None and spec.endpoint not in known:
            raise UnknownEndpointInFlow(spec.endpoint)
        for window in spec.windows:
            pane, texts = 0, []
            for item in window.items:
                if isinstance(item, Split):
                    plan.append(((spec.endpoint, window.name, pane), tuple(texts)))
                    pane, texts = pane + 1, []
                elif isinstance(item, Command):
                    texts.append(item.text)
                else:
                    raise TypeError(f"unexpected window item {item!r}")
            plan.append(((spec.endpoint, window.name, pane), tuple(texts)))
    return tuple(plan)


def run_flow(deployment: Deployment, plan: Sequence[tuple[Pane, Sequence[str]]]) -> Transcript:
    """Execute the plan's panes as interleaved sequential sessions.

    Scheduling is round-robin over pane sessions, started in plan order:
    each session runs one command and goes to the back of the line until
    its pane is done.
    """
    for (endpoint, _, _), _ in plan:
        if endpoint not in deployment.states:
            raise UnknownEndpointInFlow(endpoint)
    sessions = deque((key, deque(texts)) for key, texts in plan if texts)
    events: list = []
    while sessions:
        (endpoint, window, pane), queue = sessions[0]
        text = queue.popleft()
        events.append(TranscriptEvent(endpoint, window, pane, text, deployment.exec(endpoint, text), len(events)))
        if queue:
            sessions.rotate(-1)
        else:
            sessions.popleft()
    return Transcript(events)


def verify_transcript(plan: Sequence[tuple[Pane, Sequence[str]]], transcript: Transcript) -> bool:
    """True iff per-pane projections equal the plan and sequence numbers
    strictly increase.  A pane key the plan repeats stands for its last pane."""
    last_seq = None
    projections: dict = {}
    for event in transcript.events:
        if last_seq is not None and event.seq <= last_seq:
            return False
        last_seq = event.seq
        projections.setdefault((event.endpoint, event.window, event.pane), []).append(event.command)
    return projections == {key: list(texts) for key, texts in dict(plan).items() if texts}


def transcript_to_yaml(transcript: Transcript) -> str:
    """The transcript as YAML: ``transcript:`` and one block item per event.

    Each item has the keys seq, endpoint, window, pane, command, exit,
    stdout, stderr, started_at and ended_at in that order.  Ints are
    written as digits and strings through ``parser.quote``, so libyaml and
    the pure-Python loader both read back exactly the event's fields, with
    stdout and stderr decoded as UTF-8 (undecodable bytes replaced).  Each
    distinct command, (endpoint, window) and (stdout, stderr) pair is quoted
    once.
    """
    if not transcript.events:
        return "transcript: []\n"
    lines = ["transcript:"]
    places: dict = {}
    outputs: dict = {}
    commands: dict = {}
    for endpoint, window, pane, command, (exit_code, stdout, stderr, started_at, ended_at), seq in transcript.events:
        if (place := places.get((endpoint, window))) is None:
            place = places[endpoint, window] = f"  endpoint: {quote(endpoint)}\n  window: {quote(window)}"
        if (output := outputs.get((stdout, stderr))) is None:
            output = outputs[stdout, stderr] = (
                f"  stdout: {quote(stdout.decode('utf-8', 'replace'))}\n"
                f"  stderr: {quote(stderr.decode('utf-8', 'replace'))}"
            )
        if (text := commands.get(command)) is None:
            text = commands[command] = quote(command)
        lines.append(
            f"- seq: {seq}\n{place}\n  pane: {pane}\n  command: {text}\n  exit: {exit_code}\n"
            f"{output}\n  started_at: {started_at}\n  ended_at: {ended_at}"
        )
    return "\n".join(lines) + "\n"
