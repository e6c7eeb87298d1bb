"""Automated security pipelines: tool sweep over a target module, flaw
records out.

A pipeline assembles a two-container scenario (target + scanner composed
from the tool stack), runs the generated flow, scans the transcript with
the data-driven extraction rules from each tool's registry manifest, and
emits one flaw record per finding.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field, replace
from typing import Optional

from . import flows as flow_engine
from . import orchestrator, rvd, toolreg
from .model import Command, ContainerSpec, FlowSpec, ModuleRef, NetworkSpec, Scenario, WindowSpec
from .netplan import allocate_addresses
from .parser import dump_yaml, quote, serialize_flow, serialize_scenario

PIPELINE_NETWORK = "pipeline-network"
PIPELINE_SUBNET = "10.110.0.0/24"

class ValidationFailure(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class PipelineSpec:
    target: ModuleRef
    tools: tuple[ModuleRef, ...]


def _inline(value) -> Optional[str]:
    """A str, int or None as a one-line YAML scalar; None for other values."""
    if value is None:
        return "null"
    if type(value) is str:
        return quote(value)
    if type(value) is int:  # not a bool
        return str(value)
    return None


@dataclass
class FlawRecord:
    title: str
    flaw_class: str
    description: str
    system: str
    detected_by: str
    reproduction_scenario: str
    reproduction_flow: str = ""
    severity: str = "medium"
    vendor: Optional[str] = None
    id: Optional[int] = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "id": self.id,
            "title": self.title,
            "flaw-class": self.flaw_class,
            "description": self.description,
            "system": self.system,
            "vendor": self.vendor,
            "severity": self.severity,
            "detected-by": self.detected_by,
            "reproduction": {
                "scenario": self.reproduction_scenario,
                "flow": self.reproduction_flow,
            },
        }
        doc.update(self.extra)
        return doc

    def to_yaml(self) -> str:
        """``to_dict()`` as YAML, key by key in its order.

        A string is written through ``parser.quote``, ``None`` as ``null``
        and an int as digits; ``reproduction`` is a nested map of two such
        values.  Any other value, and every ``extra`` entry, is written by
        ``dump_yaml``.
        """
        parts = []
        for key, value in self.to_dict().items():
            if key not in self.extra:
                if key == "reproduction":
                    scenario, flow = _inline(value["scenario"]), _inline(value["flow"])
                    if scenario is not None and flow is not None:
                        parts.append(f"reproduction:\n  scenario: {scenario}\n  flow: {flow}\n")
                        continue
                elif (text := _inline(value)) is not None:
                    parts.append(f"{key}: {text}\n")
                    continue
            parts.append(dump_yaml({key: value}))
        return "".join(parts)


def assemble(spec: PipelineSpec, registry: toolreg.RegistryIndex) -> Scenario:
    """Target + scanner scenario on one generated /24, with a flow invoking
    each tool's entrypoint against the target's address in tool order."""
    if not spec.tools:
        raise ValidationFailure("empty-toolchain", "a pipeline needs at least one tool")
    registry.lookup(spec.target)
    for tool in spec.tools:
        registry.lookup(tool)

    network = NetworkSpec(name=PIPELINE_NETWORK, subnet=PIPELINE_SUBNET)
    target = ContainerSpec(name="target", base=spec.target, networks=(PIPELINE_NETWORK,))
    scanner = ContainerSpec(
        name="scanner",
        base=spec.tools[0],
        volumes=spec.tools[1:],
        networks=(PIPELINE_NETWORK,),
    )
    scenario = Scenario(networks=(network,), containers=(target, scanner))
    assignment = allocate_addresses(scenario)
    target_ip = assignment.addresses[("target", PIPELINE_NETWORK)]

    commands = []
    for tool in spec.tools:
        entrypoint = registry.lookup(tool).entrypoint or str(tool)
        commands.append(Command(f"{entrypoint} {target_ip}"))
    flow = FlowSpec(endpoint="scanner", windows=(WindowSpec(name="scan", items=tuple(commands)),))
    return replace(scenario, flows=(flow,))


def _scan_transcript(spec: PipelineSpec, registry: toolreg.RegistryIndex, transcript) -> list[tuple[ModuleRef, toolreg.ExtractionRule, str, dict]]:
    """(tool, rule, matched text, named groups) for every rule match."""
    found = []
    for event in transcript.events:
        text = event.result.stdout.decode("utf-8", "replace")
        for tool in spec.tools:
            for rule in registry.lookup(tool).rules:
                for match in re.finditer(rule.pattern, text):
                    fields = {k: v for k, v in match.groupdict().items() if v is not None}
                    found.append((tool, rule, match.group(0), fields))
    return found


def _fill(template: str, fields: dict, fallback: str) -> str:
    if not template:
        return fallback
    try:
        return template.format(**fields)
    except (LookupError, ValueError, AttributeError, TypeError):  # "{x", "{x.y}", "{x:d}"
        return template


def run_pipeline(spec: PipelineSpec, backend, registry: toolreg.RegistryIndex) -> list[FlawRecord]:
    """Assemble, deploy, run the flow, extract findings; teardown always,
    and ``orchestrator.TeardownLeak`` instead of records if it leaves an
    endpoint live."""
    scenario = assemble(spec, registry)
    scenario_yaml = serialize_scenario(replace(scenario, flows=()))
    flow_yaml = serialize_flow(scenario.flows)

    with orchestrator.up(scenario, backend, registry) as deployment:
        plan = flow_engine.compile_flow(scenario.flows, known_endpoints=list(deployment.states))
        transcript = flow_engine.run_flow(deployment, plan)

    records = []
    for tool, rule, fragment, fields in _scan_transcript(spec, registry, transcript):
        records.append(
            FlawRecord(
                title=_fill(rule.title, fields, fragment),
                flaw_class=rule.flaw_class,
                description=_fill(rule.description, fields, fragment),
                system=str(spec.target),
                detected_by=str(tool),
                severity=rule.severity,
                reproduction_scenario=scenario_yaml,
                reproduction_flow=flow_yaml,
            )
        )
    return records


class DirectorySink:
    def __init__(self, path: str):
        self.path = path

    def emit(self, record: FlawRecord) -> str:
        """Write the record to ``rvd-<digest of its YAML>.yaml``; the path."""
        text = record.to_yaml()
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        target = os.path.join(self.path, f"rvd-{digest}.yaml")
        os.makedirs(self.path, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
        return target


class TrackerSink:
    def __init__(self, base_url: str, token: Optional[str] = None):
        self.base_url = base_url
        self.token = token

    def emit(self, record: FlawRecord) -> str:
        return str(rvd.push_issue(self.base_url, record, token=self.token))


def emit_all(records, sink) -> tuple[list[str], list[FlawRecord]]:
    """Best-effort batch emit; failed records come back in the outbox."""
    locations: list[str] = []
    outbox: list[FlawRecord] = []
    for record in records:
        try:
            locations.append(sink.emit(record))
        except (OSError, rvd.TransportError, rvd.Rejected):
            outbox.append(record)
    return locations, outbox
