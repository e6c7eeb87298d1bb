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
from .parser import dump_yaml, load_yaml, serialize_flow, serialize_scenario

PIPELINE_NETWORK = "pipeline-network"
PIPELINE_SUBNET = "10.110.0.0/24"

SEVERITIES = ("none", "low", "medium", "high", "critical")


class ValidationFailure(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class SinkUnavailable(Exception):
    """Emission failed; the un-emitted record rides along in ``outbox``."""

    def __init__(self, cause, outbox):
        self.cause = cause
        self.outbox = list(outbox)
        super().__init__(f"sink unavailable: {cause}")


@dataclass(frozen=True)
class PipelineSpec:
    target: ModuleRef
    tools: tuple[ModuleRef, ...]


@dataclass(frozen=True)
class Finding:
    fragment: str
    rule_id: str
    fields: dict = field(default_factory=dict)


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
        return dump_yaml(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "FlawRecord":
        known = {
            "id",
            "title",
            "flaw-class",
            "description",
            "system",
            "vendor",
            "severity",
            "detected-by",
            "reproduction",
        }
        reproduction = doc.get("reproduction") or {}
        return cls(
            id=doc.get("id"),
            title=doc.get("title", ""),
            flaw_class=doc.get("flaw-class", ""),
            description=doc.get("description", ""),
            system=doc.get("system", ""),
            vendor=doc.get("vendor"),
            severity=doc.get("severity", "medium"),
            detected_by=doc.get("detected-by", ""),
            reproduction_scenario=reproduction.get("scenario", ""),
            reproduction_flow=reproduction.get("flow", ""),
            extra={k: v for k, v in doc.items() if k not in known},
        )

    @classmethod
    def from_yaml(cls, text: str) -> "FlawRecord":
        return cls.from_dict(load_yaml(text) or {})


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


def _scan_transcript(spec: PipelineSpec, registry: toolreg.RegistryIndex, transcript) -> list[tuple[ModuleRef, toolreg.ExtractionRule, Finding]]:
    found = []
    for event in transcript.events:
        text = event.result.stdout.decode("utf-8", "replace")
        for tool in spec.tools:
            for rule in registry.lookup(tool).rules:
                for match in re.finditer(rule.pattern, text):
                    fields = {k: v for k, v in match.groupdict().items() if v is not None}
                    found.append((tool, rule, Finding(match.group(0), rule.id, fields)))
    return found


def _fill(template: str, fields: dict, fallback: str) -> str:
    if not template:
        return fallback
    try:
        return template.format(**fields)
    except (KeyError, IndexError):
        return template


def run_pipeline(spec: PipelineSpec, backend, registry: toolreg.RegistryIndex) -> list[FlawRecord]:
    """Assemble, deploy, run the flow, extract findings; teardown always."""
    scenario = assemble(spec, registry)
    scenario_yaml = serialize_scenario(replace(scenario, flows=()))
    flow_yaml = serialize_flow(scenario.flows)

    deployment = orchestrator.up(scenario, backend, registry)
    try:
        plan = flow_engine.compile_flow(scenario.flows, known_endpoints=list(deployment.states))
        transcript = flow_engine.run_flow(deployment, plan)
    finally:
        deployment.down()

    records = []
    for tool, rule, finding in _scan_transcript(spec, registry, transcript):
        records.append(
            FlawRecord(
                title=_fill(rule.title, finding.fields, finding.fragment),
                flaw_class=rule.flaw_class,
                description=_fill(rule.description, finding.fields, finding.fragment),
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
        digest = hashlib.sha256(record.title.encode()).hexdigest()[:12]
        target = os.path.join(self.path, f"rvd-{digest}.yaml")
        os.makedirs(self.path, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(record.to_yaml())
        return target


class TrackerSink:
    def __init__(self, base_url: str, token: Optional[str] = None):
        self.base_url = base_url
        self.token = token

    def emit(self, record: FlawRecord) -> str:
        return str(rvd.push_issue(self.base_url, record, token=self.token))


def emit(record: FlawRecord, sink) -> str:
    """Write one record to its sink, returning the file path or issue id."""
    try:
        return sink.emit(record)
    except (OSError, rvd.TransportError, rvd.Rejected) as exc:
        raise SinkUnavailable(exc, [record]) from exc


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
