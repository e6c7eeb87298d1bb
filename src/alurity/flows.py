"""Flow compilation, execution and transcript verification.

A flow compiles into windows of panes, tmux-style: every window starts with
pane 0, each split opens a new pane, and commands bind to the latest pane.
Panes run as independent sequential sessions; the transcript records the
actual interleaving with a global sequence counter so reproduction can be
checked after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import Command, FlowSpec, Split
from .orchestrator import CommandResult, Deployment
from .parser import quote


class UnknownEndpointInFlow(Exception):
    pass


@dataclass(frozen=True)
class WindowPlan:
    name: str
    panes: tuple[tuple[Command, ...], ...]


@dataclass(frozen=True)
class EndpointFlowPlan:
    endpoint: str
    windows: tuple[WindowPlan, ...]
    focus: Optional[str] = None


@dataclass(frozen=True)
class FlowPlan:
    endpoints: tuple[EndpointFlowPlan, ...] = ()

    def pane_map(self) -> dict:
        """(endpoint, window, pane index) -> tuple of command texts."""
        out = {}
        for ep in self.endpoints:
            for window in ep.windows:
                for i, pane in enumerate(window.panes):
                    out[(ep.endpoint, window.name, i)] = tuple(c.text for c in pane)
        return out


@dataclass(frozen=True)
class TranscriptEvent:
    endpoint: str
    window: str
    pane: int
    command: str
    result: CommandResult
    seq: int


@dataclass
class Transcript:
    events: list = field(default_factory=list)


def compile_flow(flow: Sequence[FlowSpec], known_endpoints: Optional[Sequence[str]] = None) -> FlowPlan:
    """Deterministic pane assignment for every endpoint's windows."""
    plans = []
    for spec in flow:
        if known_endpoints is not None and spec.endpoint not in known_endpoints:
            raise UnknownEndpointInFlow(spec.endpoint)
        windows = []
        for window in spec.windows:
            panes: list[list[Command]] = [[]]
            for item in window.items:
                if isinstance(item, Split):
                    panes.append([])
                elif isinstance(item, Command):
                    panes[-1].append(item)
                else:
                    raise TypeError(f"unexpected window item {item!r}")
            windows.append(WindowPlan(name=window.name, panes=tuple(tuple(p) for p in panes)))
        plans.append(EndpointFlowPlan(endpoint=spec.endpoint, windows=tuple(windows), focus=spec.select))
    return FlowPlan(endpoints=tuple(plans))


def run_flow(deployment: Deployment, plan: FlowPlan, rng=None) -> Transcript:
    """Execute the plan's panes as interleaved sequential sessions.

    Scheduling is round-robin over pane sessions (started in plan order)
    unless ``rng`` is given, in which case the next session is drawn at
    random; either way per-pane command order is preserved.
    """
    sessions = []
    for ep in plan.endpoints:
        if ep.endpoint not in deployment.states:
            raise UnknownEndpointInFlow(ep.endpoint)
        for window in ep.windows:
            for pane_index, pane in enumerate(window.panes):
                if pane:
                    sessions.append([ep.endpoint, window.name, pane_index, list(pane)])

    transcript = Transcript()
    seq = 0
    cursor = 0
    while sessions:
        if rng is None:
            cursor %= len(sessions)
            index = cursor
        else:
            index = rng.randrange(len(sessions))
        endpoint, window, pane_index, queue = sessions[index]
        command = queue.pop(0)
        result = deployment.exec(endpoint, command.text)
        transcript.events.append(
            TranscriptEvent(endpoint, window, pane_index, command.text, result, seq)
        )
        seq += 1
        if not queue:
            sessions.pop(index)
        elif rng is None:
            cursor = index + 1
    return transcript


def verify_transcript(plan: FlowPlan, transcript: Transcript) -> bool:
    """True iff per-pane projections equal the plan and sequence numbers
    strictly increase."""
    last_seq = None
    projections: dict = {}
    for event in transcript.events:
        if last_seq is not None and event.seq <= last_seq:
            return False
        last_seq = event.seq
        projections.setdefault((event.endpoint, event.window, event.pane), []).append(event.command)
    expected = {key: list(cmds) for key, cmds in plan.pane_map().items() if cmds}
    return {k: list(v) for k, v in projections.items()} == expected


def transcript_to_yaml(transcript: Transcript) -> str:
    """The transcript as YAML: ``transcript:`` and one block item per event.

    Each item has the keys seq, endpoint, window, pane, command, exit,
    stdout, stderr, started_at and ended_at in that order.  Ints are
    written as digits and strings through ``parser.quote``, so libyaml and
    the pure-Python loader both read back exactly the event's fields, with
    stdout and stderr decoded as UTF-8 (undecodable bytes replaced).
    """
    if not transcript.events:
        return "transcript: []\n"
    lines = ["transcript:"]
    for e in transcript.events:
        r = e.result
        lines.append(
            f"- seq: {e.seq}\n"
            f"  endpoint: {quote(e.endpoint)}\n"
            f"  window: {quote(e.window)}\n"
            f"  pane: {e.pane}\n"
            f"  command: {quote(e.command)}\n"
            f"  exit: {r.exit_code}\n"
            f"  stdout: {quote(r.stdout.decode('utf-8', 'replace'))}\n"
            f"  stderr: {quote(r.stderr.decode('utf-8', 'replace'))}\n"
            f"  started_at: {r.started_at}\n"
            f"  ended_at: {r.ended_at}"
        )
    return "\n".join(lines) + "\n"
