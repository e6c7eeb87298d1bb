"""Address allocation and abstract connectivity planning.

The plan is an exportable artifact, not live host state: it lists the
bridges, interface attachments, routes and filter rules a backend would
have to realize so containers and VMs on the same network can talk.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Optional

from .model import Scenario, endpoint_specs, endpoints
from .parser import dump_yaml


class AllocationFailure(Exception):
    pass


class UnknownEndpoint(Exception):
    pass


class UnsupportedFormat(Exception):
    pass


@dataclass(frozen=True)
class AddressAssignment:
    # (endpoint name, network name) -> dotted quad
    addresses: dict
    # network name -> gateway dotted quad
    gateways: dict

    # endpoint name -> [(network name, dotted quad)], in ``addresses`` order
    _by_endpoint: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index: dict = {}
        for (name, net), addr in self.addresses.items():
            index.setdefault(name, []).append((net, addr))
        object.__setattr__(self, "_by_endpoint", index)

    def addresses_of(self, endpoint: str) -> list[tuple[str, str]]:
        return list(self._by_endpoint.get(endpoint, ()))


@dataclass(frozen=True)
class PlanEntry:
    kind: str  # bridge | veth-pair | tap-attach | route | filter-rule | metadata
    name: Optional[str] = None
    network: Optional[str] = None
    endpoint: Optional[str] = None
    bridge: Optional[str] = None
    subnet: Optional[str] = None
    via: Optional[str] = None
    action: Optional[str] = None  # masquerade | drop-external
    encryption: Optional[bool] = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ("name", "network", "endpoint", "bridge", "subnet", "via", "action", "encryption"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class ConnectivityPlan:
    entries: tuple[PlanEntry, ...] = ()
    # endpoint name -> attached network names, including endpoints with none
    attachments: dict = field(default_factory=dict)

    def bridges(self) -> list[PlanEntry]:
        return [e for e in self.entries if e.kind == "bridge"]


def _host_range(net: ipaddress.IPv4Network) -> tuple[int, int]:
    """First and last host as integers, by the rule of ``hosts()``: a /31
    has both its addresses, a /32 its one, any other prefix all but the
    network and broadcast addresses."""
    first, last = int(net.network_address), int(net.broadcast_address)
    if net.prefixlen < 31:
        return first + 1, last - 1
    return first, last


def allocate_addresses(scenario: Scenario) -> AddressAssignment:
    """Deterministic address plan: manual IPs verbatim, the rest lowest-free.

    Gateway of every subnet is its lowest host address; auto assignment walks
    endpoints in document order handing out the lowest unused host address
    above the gateway (host addresses as ``hosts()`` gives them, so a /31
    offers both of its addresses and a /32 its single one).  Each network
    keeps a cursor that only moves up past taken addresses, so the cost is
    linear in attachments plus manual addresses, whatever the subnet size.
    """
    networks = {n.name: ipaddress.IPv4Network(n.subnet) for n in scenario.networks}
    gateways = {name: str(net.network_address + 1) for name, net in networks.items()}

    specs = endpoint_specs(scenario)
    used: dict[str, set] = {name: {int(net.network_address) + 1} for name, net in networks.items()}
    addresses: dict = {}

    # Manual addresses first so auto assignment can skip them.
    for name, _kind in endpoints(scenario):
        spec = specs[name]
        if spec.ip is None:
            continue
        addr = ipaddress.IPv4Address(spec.ip)
        for net_name in spec.networks:
            if addr in networks[net_name]:
                addresses[(name, net_name)] = spec.ip
                used[net_name].add(int(addr))
                break

    cursors = {name: _host_range(net) for name, net in networks.items()}
    for name, _kind in endpoints(scenario):
        for net_name in specs[name].networks:
            if (name, net_name) in addresses:
                continue
            host, last = cursors[net_name]
            while host in used[net_name]:
                host += 1
            if host > last:
                raise AllocationFailure(
                    f"subnet {networks[net_name]} of network {net_name!r} has no free host address for {name!r}"
                )
            addresses[(name, net_name)] = str(ipaddress.IPv4Address(host))
            cursors[net_name] = (host + 1, last)

    return AddressAssignment(addresses=addresses, gateways=gateways)


def bridge_name(network: str) -> str:
    return f"br-{network}"


def build_connectivity_plan(scenario: Scenario, assignment: AddressAssignment) -> ConnectivityPlan:
    """Pure function of (scenario, assignment); entry order is bridges,
    attachments, routes, filter rules, then encryption metadata."""
    container_names = {c.name for c in scenario.containers}
    vm_names = {v.name for v in scenario.vms}
    specs = endpoint_specs(scenario)

    attachments = {name: tuple(specs[name].networks) for name, _ in endpoints(scenario)}
    members: dict[str, list[str]] = {n.name: [] for n in scenario.networks}
    for name, _kind in endpoints(scenario):
        for net in specs[name].networks:
            members[net].append(name)

    entries: list[PlanEntry] = []
    for net in scenario.networks:
        if members[net.name]:
            entries.append(PlanEntry(kind="bridge", name=bridge_name(net.name), network=net.name))

    for name, kind in endpoints(scenario):
        for net in specs[name].networks:
            if kind == "container":
                entries.append(PlanEntry(kind="veth-pair", endpoint=name, bridge=bridge_name(net)))
            else:
                entries.append(PlanEntry(kind="tap-attach", endpoint=name, bridge=bridge_name(net)))

    # Host routes exist for the mixed sim/emu case: a VM sharing a network
    # with at least one container.
    for net in scenario.networks:
        mixed = any(m in vm_names for m in members[net.name]) and any(
            m in container_names for m in members[net.name]
        )
        if mixed:
            entries.append(
                PlanEntry(kind="route", subnet=net.subnet, via=assignment.gateways[net.name])
            )

    for net in scenario.networks:
        if not members[net.name]:
            continue
        action = "drop-external" if net.internal else "masquerade"
        entries.append(PlanEntry(kind="filter-rule", action=action, network=net.name))

    for net in scenario.networks:
        if net.encryption and members[net.name]:
            entries.append(PlanEntry(kind="metadata", network=net.name, encryption=True))

    return ConnectivityPlan(entries=tuple(entries), attachments=attachments)


def reachable(plan: ConnectivityPlan, assignment: AddressAssignment, a: str, b: str) -> bool:
    """True iff the endpoints share a network (no transit forwarding)."""
    for name in (a, b):
        if name not in plan.attachments:
            raise UnknownEndpoint(name)
    if a == b:
        return True
    return bool(set(plan.attachments[a]) & set(plan.attachments[b]))


def export_plan_yaml(plan: ConnectivityPlan) -> str:
    doc = {
        "entries": [e.to_dict() for e in plan.entries],
        "endpoints": {name: list(nets) for name, nets in plan.attachments.items()},
    }
    return dump_yaml(doc)


def export_graph(plan: ConnectivityPlan, assignment: AddressAssignment, format: str = "dot") -> str:
    """Topology as a Graphviz digraph: endpoint and network nodes, one edge
    per attachment."""
    if format != "dot":
        raise UnsupportedFormat(format)
    lines = ["digraph topology {"]
    networks = []
    for entry in plan.entries:
        if entry.kind == "bridge":
            networks.append(entry.network)
    for name in plan.attachments:
        addrs = ", ".join(addr for _net, addr in sorted(assignment.addresses_of(name)))
        label = f"{name}\\n{addrs}" if addrs else name
        lines.append(f'  "{name}" [shape=box, label="{label}"];')
    for net in networks:
        lines.append(f'  "net:{net}" [shape=ellipse, label="{net}"];')
    for name, nets in plan.attachments.items():
        for net in nets:
            lines.append(f'  "{name}" -> "net:{net}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
