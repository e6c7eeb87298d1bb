"""Domain types for scenarios and semantic validation.

The types here are plain immutable values: the YAML surface syntax is the
parser's business, execution semantics are the orchestrator's.  ``validate``
returns diagnostics instead of raising so callers can show everything wrong
with a document at once.
"""

from __future__ import annotations

import functools
import ipaddress
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

# Prefix of the last path component -> group, read by ModuleRef.parse; a
# leaf that matches no prefix is "unknown".
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

    # A registry's texts repeat across a scenario, and a ModuleRef is
    # immutable, so each text is parsed once and its value shared.
    @classmethod
    @functools.lru_cache(maxsize=1024)
    def parse(cls, text: str) -> "ModuleRef":
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
        for prefix, grp in DEFAULT_GROUP_PREFIXES.items():
            if leaf.startswith(prefix):
                group = grp
                break
        return cls(registry=registry, path=path, tag=tag, group=group)

    def __post_init__(self) -> None:  # the canonical text, which registry lookups key on, formatted once
        base = f"{self.registry}/{self.path}" if self.registry else self.path
        object.__setattr__(self, "_text", f"{base}:{self.tag}" if self.tag else base)

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    driver: str = "overlay"
    internal: bool = False
    encryption: bool = False
    subnet: str = ""


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


@dataclass(frozen=True)
class Split:
    direction: str  # horizontal | vertical


@dataclass(frozen=True)
class WindowSpec:
    name: str
    items: tuple[object, ...] = ()  # Command | Split


@dataclass(frozen=True)
class FlowSpec:
    """Windowed command script for one endpoint."""

    endpoint: str
    windows: tuple[WindowSpec, ...] = ()
    select: Optional[str] = None

    def __post_init__(self) -> None:
        if self.select is not None and self.select not in {w.name for w in self.windows}:
            raise ValueError(f"selected window {self.select!r} is not defined for {self.endpoint!r}")


class SourceMap(Mapping):
    """Document path -> 1-based source line, read-only.

    The parser records each path in ``parts`` as ``(record, path, index,
    line)``: ``path`` is None for the record itself and ``index`` None but
    for the n-th value of a repeating key.  Most documents are never asked
    for a line, so the paths are formatted only when the map is first read;
    a path recorded twice keeps its last line.
    """

    def __init__(self, parts=()):
        self.parts = parts
        self._lines: Optional[dict] = None

    def _formatted(self) -> dict:
        if self._lines is None:
            self._lines = {
                record if path is None else f"{record}.{path}" if index is None else f"{record}.{path}[{index}]": line
                for record, path, index, line in self.parts
            }
        return self._lines

    def __getitem__(self, location: str) -> int:
        return self._formatted()[location]

    def __iter__(self):
        return iter(self._formatted())

    def __len__(self) -> int:
        return len(self._formatted())


@dataclass(frozen=True)
class Scenario:
    networks: tuple[NetworkSpec, ...] = ()
    containers: tuple[ContainerSpec, ...] = ()
    vms: tuple[VmSpec, ...] = ()
    flows: tuple[FlowSpec, ...] = ()
    # filled by the parser; excluded from equality so round-tripped
    # scenarios compare equal.
    source_map: Mapping[str, int] = field(default_factory=SourceMap, compare=False, repr=False)
    # derivation -> result, for ``derive_once``; ``replace`` starts it empty
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # error | warning
    code: str
    message: str
    location: str
    line: Optional[int] = None

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.severity} {self.code} {self.location} {self.message}{where}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def _subnet_or_none(net: NetworkSpec) -> Optional[ipaddress.IPv4Network]:
    try:
        return ipaddress.IPv4Network(net.subnet)
    except ValueError:
        return None


def manual_network(addr: ipaddress.IPv4Address, networks: tuple[str, ...], subnets: Mapping) -> Optional[str]:
    """The network a manual address belongs to: the first of ``networks``
    whose subnet in ``subnets`` (name -> subnet or None) holds it, else None."""
    return next((ref for ref in networks if (subnet := subnets.get(ref)) is not None and addr in subnet), None)


def derive_once(scenario: Scenario, key: str, derive, *args):
    """``derive(scenario, *args)``, kept on ``scenario`` under ``key``; a failure is not kept."""
    memo = scenario._derived
    if key not in memo:
        memo[key] = derive(scenario, *args)
    return memo[key]


def validate(scenario: Scenario) -> list[Diagnostic]:
    """All invariant violations, flows' too, document order then code; [] iff
    runnable.  Computed once per ``Scenario`` value; each call returns a new list."""
    return list(derive_once(scenario, "validate", _validate))


def first_error(scenario: Scenario) -> Optional[Diagnostic]:
    """``validate``'s first error; None iff ``scenario`` is runnable."""
    return next((d for d in validate(scenario) if d.severity == "error"), None)


def _validate(scenario: Scenario) -> tuple[Diagnostic, ...]:
    found: list[tuple[tuple, Diagnostic]] = []
    src = scenario.source_map

    def emit(pos: tuple, severity: str, code: str, location: str, message: str) -> None:
        found.append((pos, Diagnostic(severity, code, message, location, src.get(location))))

    seen_networks: dict[str, int] = {}
    subnets: list[tuple[int, NetworkSpec, ipaddress.IPv4Network]] = []
    # network name -> its parsed subnet or None; when a name repeats, the
    # last network wins
    subnet_by_name: dict[str, Optional[ipaddress.IPv4Network]] = {}
    for i, net in enumerate(scenario.networks):
        loc = f"networks[{i}]"
        pos = (0, i)
        if net.name in seen_networks:
            emit(pos, "error", "duplicate-network-name", f"{loc}.name", f"network name {net.name!r} already used")
        else:
            seen_networks[net.name] = i
        if net.driver != "overlay":
            emit(pos, "warning", "unknown-driver", f"{loc}.driver", f"driver {net.driver!r} is not a known driver")
        parsed = subnet_by_name[net.name] = _subnet_or_none(net)
        if parsed is None:
            emit(pos, "error", "invalid-subnet", f"{loc}.subnet", f"{net.subnet!r} is not a valid IPv4 CIDR block")
        else:
            if not 8 <= parsed.prefixlen <= 30:
                emit(pos, "error", "subnet-prefix-out-of-range", f"{loc}.subnet", f"prefix /{parsed.prefixlen} outside /8../30")
            for j, other_net, other in subnets:
                if parsed.overlaps(other):
                    emit(pos, "error", "subnet-overlap", f"{loc}.subnet", f"subnet {net.subnet} overlaps {other_net.subnet} of network {other_net.name!r}")
            subnets.append((i, net, parsed))

    seen_endpoints: set[str] = set()
    seen_ips: dict[str, str] = {}
    refs: list[str] = []  # every endpoint's networks, each once per endpoint
    declared = subnet_by_name.keys()
    # An endpoint's location is formatted only for a diagnostic.
    for group, section, specs in ((1, "containers", scenario.containers), (2, "vms", scenario.vms)):
        for i, spec in enumerate(specs):
            name, networks, ip = spec.name, spec.networks, spec.ip
            if name in seen_endpoints:
                emit((group, i), "error", "duplicate-endpoint-name", f"{section}[{i}].name", f"endpoint name {name!r} already used")
            else:
                seen_endpoints.add(name)
            if not networks:
                emit((group, i), "warning", "no-network", f"{section}[{i}]", f"endpoint {name!r} is attached to no network")
            distinct = set(networks)
            refs += distinct
            if len(distinct) < len(networks) or not declared >= distinct:
                loc = f"{section}[{i}]"
                first: dict[str, int] = {}  # network name -> its first index in ``networks``, so the check stays linear
                for j, ref in enumerate(networks):
                    if ref not in declared:
                        emit((group, i), "error", "network-not-found", f"{loc}.networks[{j}]", f"network {ref!r} is not declared")
                    if first.setdefault(ref, j) != j:
                        emit((group, i), "error", "duplicate-network-reference", f"{loc}.networks[{j}]", f"network {ref!r} already attached at {loc}.networks[{first[ref]}]")
            if spec.cpus < 1:
                emit((group, i), "error", "invalid-cpus", f"{section}[{i}].cpus", f"cpus must be a positive integer, got {spec.cpus}")
            if spec.memory < 1:
                emit((group, i), "error", "invalid-memory", f"{section}[{i}].memory", f"memory must be a positive integer, got {spec.memory}")
            if ip is None:
                continue
            pos, loc = (group, i), f"{section}[{i}]"
            try:
                addr = ipaddress.IPv4Address(ip)
            except ValueError:
                emit(pos, "error", "invalid-ip", f"{loc}.ip", f"{ip!r} is not a valid IPv4 address")
                continue
            home = manual_network(addr, networks, subnet_by_name)
            if home is None:
                emit(pos, "error", "ip-outside-subnet", f"{loc}.ip", f"{ip} lies in no attached network's subnet")
            else:
                containing = subnet_by_name[home]
                reserved = {containing.network_address, containing.broadcast_address, containing.network_address + 1}
                if addr in reserved:
                    emit(pos, "error", "ip-reserved", f"{loc}.ip", f"{ip} is the network, broadcast or gateway address")
            if ip in seen_ips:
                emit(pos, "error", "duplicate-ip", f"{loc}.ip", f"address {ip} already assigned at {seen_ips[ip]}")
            else:
                seen_ips[ip] = f"{loc}.ip"

    # A window is named by its endpoint and name across all flow entries:
    # the transcript check keys each pane by both.
    seen_windows: dict[tuple[str, str], str] = {}
    for i, flow in enumerate(scenario.flows):
        if flow.endpoint not in seen_endpoints:
            emit((3, i), "error", "endpoint-not-found", f"flows[{i}].endpoint", f"endpoint {flow.endpoint!r} is not declared")
        for j, window in enumerate(flow.windows):
            loc = f"flows[{i}].windows[{j}].name"
            first = seen_windows.setdefault((flow.endpoint, window.name), loc)
            if first != loc:
                emit((3, i), "error", "duplicate-window-name", loc, f"window {window.name!r} of {flow.endpoint!r} already defined at {first}")

    # Each attachment takes one host address of its network, manual or
    # allocated, and the gateway takes one more.  Manual addresses that
    # collide or fall outside the subnet are reported above.
    attached = Counter(refs)
    for i, net, parsed in subnets:
        free = parsed.num_addresses - 3
        if parsed.prefixlen <= 30 and attached[net.name] > free:
            message = f"{attached[net.name]} endpoints attach to {net.name!r} but {net.subnet} has {free} host addresses besides the gateway"
            emit((0, i), "error", "subnet-exhausted", f"networks[{i}].subnet", message)

    found.sort(key=lambda item: (item[0], item[1].code))
    return tuple(diag for _, diag in found)
