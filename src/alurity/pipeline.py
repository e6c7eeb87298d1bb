"""Automated security pipelines: tool sweep over a target module, flaw
records out.

A pipeline assembles a two-container scenario (target + scanner composed
from the tool stack), runs the generated flow, scans each tool's output
with the extraction rules from that tool's registry manifest, and emits
one flaw record per finding, naming the tool whose command printed it.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from typing import Optional

from . import flows as flow_engine
from . import orchestrator, rvd, toolreg
from .model import Command, ContainerSpec, FlowSpec, ModuleRef, NetworkSpec, Scenario, WindowSpec
from .netplan import allocate_addresses
from .parser import _emit_scalar, serialize_flow, serialize_scenario

PIPELINE_NETWORK = "pipeline-network"
PIPELINE_SUBNET = "10.110.0.0/24"

# A record's keys in the order it writes them, each its field's name with "-" for
# "_"; ``to_yaml`` ends with ``reproduction``, the map of the ``reproduction_*`` fields.
_RECORD_KEYS = ("id", "title", "flaw-class", "description", "system", "vendor", "severity", "detected-by")

# A sweep's records share most values, ~1 KB reproduction texts among them, so
# each is written once per process.  Typed: ``_emit_scalar`` writes True, 1, 1.0 apart.
_emit_field = functools.lru_cache(maxsize=64, typed=True)(_emit_scalar)


class ValidationFailure(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class SinkUnwritable(Exception):
    """A record or transcript directory that cannot be written."""


def write_into(directory: str, name: str, text: str, what: str) -> str:
    """Write ``text`` to the file ``name`` in ``directory``, made if missing, and
    return its path; ``SinkUnwritable`` naming ``what`` and the directory if that fails."""
    path = os.path.join(directory, name)
    try:
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SinkUnwritable(f"cannot write {what} to {directory}: {exc}") from exc
    return path


@dataclass(frozen=True)
class PipelineSpec:
    target: ModuleRef
    tools: tuple[ModuleRef, ...]


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

    def to_yaml(self) -> str:
        """The record as YAML, key by key in ``_RECORD_KEYS`` order, each value
        through ``parser._emit_scalar`` (kept per value, ``_emit_field``), then
        ``reproduction``, a nested map of two such values."""
        head = "".join(f"{key}: {_emit_field(getattr(self, key.replace('-', '_')))}\n" for key in _RECORD_KEYS)
        scenario, flow = _emit_field(self.reproduction_scenario), _emit_field(self.reproduction_flow)
        return f"{head}reproduction:\n  scenario: {scenario}\n  flow: {flow}\n"


def assemble(spec: PipelineSpec, registry: toolreg.RegistryIndex) -> tuple[Scenario, FlowSpec]:
    """Target + scanner scenario on one generated /24, and a flow invoking
    each tool's entrypoint against the target's address in tool order."""
    if not spec.tools:
        raise ValidationFailure("empty-toolchain", "a pipeline needs at least one tool")
    registry.lookup(spec.target)

    network = NetworkSpec(name=PIPELINE_NETWORK, subnet=PIPELINE_SUBNET)
    target = ContainerSpec(name="target", base=spec.target, networks=(PIPELINE_NETWORK,))
    scanner = ContainerSpec(
        name="scanner",
        base=spec.tools[0],
        volumes=spec.tools[1:],
        networks=(PIPELINE_NETWORK,),
    )
    scenario = Scenario(networks=(network,), containers=(target, scanner))
    target_ip = allocate_addresses(scenario).addresses[("target", PIPELINE_NETWORK)]

    commands = tuple(Command(f"{registry.lookup(tool).entrypoint or tool} {target_ip}") for tool in spec.tools)
    return scenario, FlowSpec(endpoint="scanner", windows=(WindowSpec(name="scan", items=commands),))


def _fill(template: str, fields: dict, fallback: str) -> str:
    if not template:
        return fallback
    try:
        return template.format(**fields)
    except (LookupError, ValueError, AttributeError, TypeError):  # "{x", "{x.y}", "{x:d}"
        return template


def scan(spec: PipelineSpec, registry: toolreg.RegistryIndex, transcript, scenario_yaml: str, flow_yaml: str) -> list[FlawRecord]:
    """One record, carrying the given reproduction texts, per non-empty match
    of a tool's rules in the output of that tool's own command.  ``assemble``
    runs one command per tool, in tool order, in one pane, so event i is tool i's."""
    records = []
    for tool, event in zip(spec.tools, transcript.events, strict=True):
        text = event.result.stdout.decode("utf-8", "replace")
        for rule in registry.lookup(tool).rules:
            for match in re.finditer(rule.pattern, text):
                if not (fragment := match.group(0)):  # an empty match is no finding
                    continue
                fields = {k: v for k, v in match.groupdict().items() if v is not None}
                records.append(
                    FlawRecord(
                        title=_fill(rule.title, fields, fields.get("title") or fragment),
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


def run_pipeline(spec: PipelineSpec, backend, registry: toolreg.RegistryIndex) -> list[FlawRecord]:
    """Assemble, deploy, run the flow, extract findings; teardown always,
    and ``orchestrator.TeardownLeak`` instead of records if it leaves an
    endpoint live."""
    scenario, flow = assemble(spec, registry)
    with orchestrator.up(scenario, backend, registry) as deployment:  # reuses the addresses assemble allocated
        transcript = flow_engine.run_flow(deployment, flow_engine.compile_flow((flow,)))
    return scan(spec, registry, transcript, serialize_scenario(scenario), serialize_flow((flow,)))


class DirectorySink:
    def __init__(self, path: str):
        self.path = path

    def emit(self, record: FlawRecord) -> str:
        """Write the record to ``rvd-<digest of its YAML>.yaml``; the path."""
        import hashlib  # imported by its only user: it loads OpenSSL
        text = record.to_yaml()
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        return write_into(self.path, f"rvd-{digest}.yaml", text, "records")


class TrackerSink:
    """Files each record as a new issue, with ``rvd.TOKEN_ENV``'s bearer token."""

    def __init__(self, base_url: str):
        self.base_url = base_url

    def emit(self, record: FlawRecord) -> str:
        return str(rvd.push_issue(self.base_url, record))


def emit_all(records, sink) -> tuple[list[str], list[FlawRecord]]:
    """Best-effort batch emit; records a tracker refuses or cannot take come back in the outbox."""
    locations: list[str] = []
    outbox: list[FlawRecord] = []
    for record in records:
        try:
            locations.append(sink.emit(record))
        except (rvd.TransportError, rvd.Rejected):
            outbox.append(record)
    return locations, outbox
