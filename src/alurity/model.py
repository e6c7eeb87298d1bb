"""Domain types for scenarios and semantic validation.

The types here are plain immutable values: the YAML surface syntax is the
parser's business, execution semantics are the orchestrator's.  ``validate``
returns diagnostics instead of raising so callers can show everything wrong
with a document at once.
"""

from __future__ import annotations

import ipaddress
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

MODULE_GROUPS = (
    "robots",
    "robot-components",
    "forensics",
    "exploitation",
    "testing",
    "reconnaissance",
    "ide-ui",
    "unknown",
)

# Prefix of the last path component -> group.  Data, not code: extend by
# passing a custom map to ModuleRef.parse / classify.
DEFAULT_GROUP_PREFIXES: Mapping[str, str] = {
    "robo_": "robots",
    "comp_": "robot-components",
    "fore_": "forensics",
    "expl_": "exploitation",
    "test_": "testing",
    "reco_": "reconnaissance",
    "deve_": "ide-ui",
    "ui_": "ide-ui",
}


@dataclass(frozen=True)
class ModuleRef:
    """A tool module reference, canonically ``registry/path:tag``."""

    registry: str
    path: str
    tag: str
    group: str = "unknown"

    @classmethod
    def parse(cls, text: str, prefixes: Mapping[str, str] = DEFAULT_GROUP_PREFIXES) -> "ModuleRef":
        slash = text.find("/")
        if slash < 0:
            registry, rest = "", text
        else:
            registry, rest = text[:slash], text[slash + 1 :]
        colon = rest.rfind(":")
        if colon >= 0:
            path, tag = rest[:colon], rest[colon + 1 :]
        else:
            path, tag = rest, ""
        leaf = path.rsplit("/", 1)[-1]
        group = "unknown"
        for prefix, grp in prefixes.items():
            if leaf.startswith(prefix):
                group = grp
                break
        return cls(registry=registry, path=path, tag=tag, group=group)

    def __str__(self) -> str:
        base = f"{self.registry}/{self.path}" if self.registry else self.path
        return f"{base}:{self.tag}" if self.tag else base


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    driver: str = "overlay"
    internal: bool = False
    encryption: bool = False
    subnet: str = ""

    def network(self) -> ipaddress.IPv4Network:
        return ipaddress.IPv4Network(self.subnet)


@dataclass(frozen=True)
class ContainerSpec:
    name: str
    base: ModuleRef
    volumes: tuple[ModuleRef, ...] = ()
    networks: tuple[str, ...] = ()
    ip: Optional[str] = None
    cpus: int = 1
    memory: int = 1024
    extra_options: Optional[str] = None


@dataclass(frozen=True)
class VmSpec:
    name: str
    path: str
    networks: tuple[str, ...] = ()
    ip: Optional[str] = None
    cpus: int = 1
    memory: int = 1024


@dataclass(frozen=True)
class Command:
    text: str
    fail_fast: bool = False


@dataclass(frozen=True)
class Split:
    direction: str  # horizontal | vertical


@dataclass(frozen=True)
class WindowSpec:
    name: str
    items: tuple[object, ...] = ()  # Command | Split

    def commands(self) -> tuple[Command, ...]:
        return tuple(i for i in self.items if isinstance(i, Command))


@dataclass(frozen=True)
class FlowSpec:
    """Windowed command script for one endpoint."""

    endpoint: str
    windows: tuple[WindowSpec, ...] = ()
    select: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    networks: tuple[NetworkSpec, ...] = ()
    containers: tuple[ContainerSpec, ...] = ()
    vms: tuple[VmSpec, ...] = ()
    flows: tuple[FlowSpec, ...] = ()
    # document path -> 1-based source line, filled by the parser; excluded
    # from equality so round-tripped scenarios compare equal.
    source_map: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # error | warning
    code: str
    message: str
    location: str
    line: Optional[int] = None

    def __str__(self) -> str:
        return f"{self.severity} {self.code} {self.location} {self.message}"


def endpoints(scenario: Scenario) -> list[tuple[str, str]]:
    """All endpoints, containers first, each in document order."""
    out = [(c.name, "container") for c in scenario.containers]
    out.extend((v.name, "vm") for v in scenario.vms)
    return out


def endpoint_specs(scenario: Scenario) -> dict:
    """Endpoint name -> spec; when a name repeats, the last spec (VMs after
    containers) wins."""
    specs = {c.name: c for c in scenario.containers}
    specs.update({v.name: v for v in scenario.vms})
    return specs


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def _subnet_or_none(net: NetworkSpec) -> Optional[ipaddress.IPv4Network]:
    try:
        return ipaddress.IPv4Network(net.subnet)
    except ValueError:
        return None


def validate(scenario: Scenario) -> list[Diagnostic]:
    """All invariant violations, document order then code; [] iff runnable."""
    found: list[tuple[tuple, Diagnostic]] = []
    src = scenario.source_map

    def emit(pos: tuple, severity: str, code: str, location: str, message: str) -> None:
        found.append(
            (pos, Diagnostic(severity, code, message, location, src.get(location) or src.get(_parent(location))))
        )

    seen_networks: dict[str, int] = {}
    subnets: list[tuple[int, NetworkSpec, ipaddress.IPv4Network]] = []
    for i, net in enumerate(scenario.networks):
        loc = f"networks[{i}]"
        pos = (0, i)
        if net.name in seen_networks:
            emit(pos, "error", "duplicate-network-name", f"{loc}.name", f"network name {net.name!r} already used")
        else:
            seen_networks[net.name] = i
        if net.driver != "overlay":
            emit(pos, "warning", "unknown-driver", f"{loc}.driver", f"driver {net.driver!r} is not a known driver")
        parsed = _subnet_or_none(net)
        if parsed is None:
            emit(pos, "error", "invalid-subnet", f"{loc}.subnet", f"{net.subnet!r} is not a valid IPv4 CIDR block")
        else:
            if not 8 <= parsed.prefixlen <= 30:
                emit(
                    pos,
                    "error",
                    "subnet-prefix-out-of-range",
                    f"{loc}.subnet",
                    f"prefix /{parsed.prefixlen} outside /8../30",
                )
            for j, other_net, other in subnets:
                if parsed.overlaps(other):
                    emit(
                        pos,
                        "error",
                        "subnet-overlap",
                        f"{loc}.subnet",
                        f"subnet {net.subnet} overlaps {other_net.subnet} of network {other_net.name!r}",
                    )
            subnets.append((i, net, parsed))

    network_by_name = {n.name: n for n in scenario.networks}
    seen_endpoints: dict[str, str] = {}
    seen_ips: dict[str, str] = {}

    def check_endpoint(pos: tuple, loc: str, name: str, networks: tuple[str, ...], ip: Optional[str], cpus: int, memory: int) -> None:
        if name in seen_endpoints:
            emit(pos, "error", "duplicate-endpoint-name", f"{loc}.name", f"endpoint name {name!r} already used")
        else:
            seen_endpoints[name] = loc
        if not networks:
            emit(pos, "warning", "no-network", loc, f"endpoint {name!r} is attached to no network")
        for j, ref in enumerate(networks):
            if ref not in network_by_name:
                emit(pos, "error", "network-not-found", f"{loc}.networks[{j}]", f"network {ref!r} is not declared")
        if cpus < 1:
            emit(pos, "error", "invalid-cpus", f"{loc}.cpus", f"cpus must be a positive integer, got {cpus}")
        if memory < 1:
            emit(pos, "error", "invalid-memory", f"{loc}.memory", f"memory must be a positive integer, got {memory}")
        if ip is None:
            return
        try:
            addr = ipaddress.IPv4Address(ip)
        except ValueError:
            emit(pos, "error", "invalid-ip", f"{loc}.ip", f"{ip!r} is not a valid IPv4 address")
            return
        containing = None
        for ref in networks:
            net = network_by_name.get(ref)
            subnet = _subnet_or_none(net) if net else None
            if subnet is not None and addr in subnet:
                containing = subnet
                break
        if containing is None:
            emit(pos, "error", "ip-outside-subnet", f"{loc}.ip", f"{ip} lies in no attached network's subnet")
        else:
            reserved = {containing.network_address, containing.broadcast_address, containing.network_address + 1}
            if addr in reserved:
                emit(pos, "error", "ip-reserved", f"{loc}.ip", f"{ip} is the network, broadcast or gateway address")
        if ip in seen_ips:
            emit(pos, "error", "duplicate-ip", f"{loc}.ip", f"address {ip} already assigned at {seen_ips[ip]}")
        else:
            seen_ips[ip] = f"{loc}.ip"

    for i, c in enumerate(scenario.containers):
        check_endpoint((1, i), f"containers[{i}]", c.name, c.networks, c.ip, c.cpus, c.memory)
    for i, v in enumerate(scenario.vms):
        check_endpoint((2, i), f"vms[{i}]", v.name, v.networks, v.ip, v.cpus, v.memory)

    # Each attachment takes one host address of its network, manual or
    # allocated, and the gateway takes one more.  Manual addresses that
    # collide or fall outside the subnet are reported above.
    attached = Counter(ref for spec in (*scenario.containers, *scenario.vms) for ref in set(spec.networks))
    for i, net, parsed in subnets:
        free = parsed.num_addresses - 3
        if parsed.prefixlen <= 30 and attached[net.name] > free:
            emit(
                (0, i),
                "error",
                "subnet-exhausted",
                f"networks[{i}].subnet",
                f"{attached[net.name]} endpoints attach to {net.name!r} but {net.subnet} has {free} host addresses besides the gateway",
            )

    for i, flow in enumerate(scenario.flows):
        if flow.select is not None and flow.select not in {w.name for w in flow.windows}:
            emit(
                (3, i),
                "error",
                "unknown-selected-window",
                f"flows[{i}].select",
                f"selected window {flow.select!r} is not defined for {flow.endpoint!r}",
            )

    found.sort(key=lambda item: (item[0], item[1].code))
    return [diag for _, diag in found]


def _parent(location: str) -> str:
    idx = location.rfind(".")
    return location[:idx] if idx > 0 else location
