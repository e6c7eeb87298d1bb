"""Span recorder for the traced run.

It wraps each layer's public functions at the module (or class) attributes
through which the benchmark and the other layers call them, so a call made
inside another traced call becomes its child span.  Nothing in the program
is edited: the wrappers are installed for the traced pass and removed after.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from alurity import flows, model, netplan, orchestrator, parser, pipeline, rvd, toolreg


def _has_endpoints(result) -> bool:
    scenario = result[0] if isinstance(result, tuple) else result  # parse_scenario_with_warnings
    return bool(scenario.networks or scenario.containers or scenario.vms)


# span name -> (attributes that call into it, output counters)
# A counter is f(result) -> number, stored on the span when the call returns.
SPANS = {
    "parser.parse_scenario": (
        [(parser, "parse_scenario"), (parser, "parse_scenario_with_warnings"), (rvd, "parse_scenario")],
        {"useful": _has_endpoints},
    ),
    "parser.parse_flow": ([(parser, "parse_flow"), (rvd, "parse_flow")], {"useful": bool}),
    "parser.serialize": (
        [(parser, "serialize_scenario"), (parser, "serialize_flow"), (pipeline, "serialize_scenario"), (pipeline, "serialize_flow")],
        {},
    ),
    "model.validate": ([(model, "validate"), (orchestrator, "validate")], {}),
    "netplan.allocate": (
        [(netplan, "allocate_addresses"), (orchestrator, "allocate_addresses")],
        {"addresses": lambda r: len(r.addresses)},
    ),
    "netplan.addresses_of": ([(netplan.AddressAssignment, "addresses_of")], {}),
    "netplan.plan": ([(netplan, "build_connectivity_plan"), (orchestrator, "build_connectivity_plan")], {}),
    "netplan.export_graph": ([(netplan, "export_graph")], {}),
    "toolreg.resolve": ([(toolreg, "resolve")], {}),
    "orchestrator.up": ([(orchestrator, "up")], {"endpoints": lambda r: len(r.handles)}),
    "orchestrator.down": ([(orchestrator.Deployment, "down")], {}),
    "orchestrator.exec": ([(orchestrator.Deployment, "exec")], {}),
    "flows.compile": ([(flows, "compile_flow")], {}),
    "flows.run": ([(flows, "run_flow")], {"commands": lambda r: len(r.events)}),
    "flows.verify": ([(flows, "verify_transcript")], {}),
    "flows.transcript_yaml": ([(flows, "transcript_to_yaml")], {"bytes": len}),
    "pipeline.run": ([(pipeline, "run_pipeline")], {"findings": len}),
    "pipeline.emit": ([(pipeline, "emit_all")], {"outbox": lambda r: len(r[1])}),
    "rvd.push": ([(rvd, "push_issue")], {}),
    "rvd.fetch": ([(rvd, "fetch_ticket")], {}),
    "rvd.extract": ([(rvd, "extract_reproduction")], {}),
}

# Spans whose first argument is the document text; its size is recorded
# before the call, so documents that fail to parse count too.
INPUT_TEXT = {"parser.parse_scenario", "parser.parse_flow"}


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "failed", "counts")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.failed = False
        self.counts = None


class Tracer:
    """Keeps spans in memory; ``op`` is the id shared by one operation's spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        for name, (sites, counters) in SPANS.items():
            for owner, attr in sites:
                original = getattr(owner, attr, None)
                if original is None:
                    print(f"trace: {owner.__name__}.{attr} not found, span {name} not recorded there", file=sys.stderr)
                    continue
                setattr(owner, attr, self._wrap(name, original, counters))
                self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, original, counters):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # A public function that calls another entry point of the same
            # span (parse_scenario -> parse_scenario_with_warnings) is one span.
            if stack and spans[stack[-1]].name == name:
                return original(*args, **kwargs)
            span = Span(name, self.op, stack[-1] if stack else -1)
            if name in INPUT_TEXT:
                span.counts = {"bytes": len(args[0])}
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.failed = True
                stack.pop()
                raise
            span.end = clock()
            stack.pop()
            if counters:
                span.counts = dict(span.counts or {}, **{key: f(result) for key, f in counters.items()})
            return result

        return traced

    def write(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                doc = {
                    "id": i,
                    "op": s.op,
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                }
                if s.failed:
                    doc["failed"] = True
                if s.counts:
                    doc.update(s.counts)
                handle.write(json.dumps(doc) + "\n")


def layer_metrics(spans: list[Span]) -> dict:
    """``<span>.{busy_s,self_s,calls}`` for every span name, plus the
    counters, failures and the useful-parse ratio inside ``extract``."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = {}
    for name in SPANS:
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    totals: dict = {}
    failed: dict = {}
    attempted = useful = 0
    for i, s in enumerate(spans):
        busy = s.end - s.start
        out[f"{s.name}.busy_s"] += busy
        out[f"{s.name}.self_s"] += busy - child_time[i]
        out[f"{s.name}.calls"] += 1
        failed[s.name] = failed.get(s.name, 0) + s.failed
        for key, value in (s.counts or {}).items():
            totals[(s.name, key)] = totals.get((s.name, key), 0) + value
        if s.name in ("parser.parse_scenario", "parser.parse_flow") and s.parent >= 0 and spans[s.parent].name == "rvd.extract":
            attempted += 1
            useful += bool(s.counts and s.counts.get("useful"))
    out["parser.parse_scenario.kb"] = totals.get(("parser.parse_scenario", "bytes"), 0) / 1024
    out["parser.parse_scenario.failed"] = failed.get("parser.parse_scenario", 0)
    out["parser.parse_flow.kb"] = totals.get(("parser.parse_flow", "bytes"), 0) / 1024
    out["netplan.addresses"] = totals.get(("netplan.allocate", "addresses"), 0)
    out["orchestrator.endpoints_created"] = totals.get(("orchestrator.up", "endpoints"), 0)
    out["flows.commands"] = totals.get(("flows.run", "commands"), 0)
    out["flows.transcript_yaml.kb"] = totals.get(("flows.transcript_yaml", "bytes"), 0) / 1024
    out["pipeline.findings"] = totals.get(("pipeline.run", "findings"), 0)
    out["pipeline.emit.outbox"] = totals.get(("pipeline.emit", "outbox"), 0)
    out["rvd.push.failed"] = failed.get("rvd.push", 0)
    out["rvd.fetch.failed"] = failed.get("rvd.fetch", 0)
    out["rvd.extract.useful_parse_ratio"] = useful / attempted if attempted else 0.0
    return out
