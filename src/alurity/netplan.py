"""Address allocation and abstract connectivity planning.

The plan is an exportable artifact, not live host state: it lists the
bridges, interface attachments, routes and filter rules a backend would
have to realize so containers and VMs on the same network can talk.
"""

from __future__ import annotations

import functools
import ipaddress
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .model import Scenario, derive_once, endpoint_specs, endpoints
from .parser import _emit_scalar


class AllocationFailure(Exception):
    pass


class UnknownEndpoint(Exception):
    """A name no endpoint of the deployment or scenario has, from ``flows`` and ``Deployment.exec`` alike."""


class UnsupportedFormat(Exception):
    pass


@dataclass(frozen=True)
class AddressAssignment:
    """Derived once per ``Scenario`` value, and shared: read-only."""
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


class PlanEntry(NamedTuple):
    kind: str  # bridge | veth-pair | tap-attach | route | filter-rule | metadata
    name: Optional[str] = None
    network: Optional[str] = None
    endpoint: Optional[str] = None
    bridge: Optional[str] = None
    subnet: Optional[str] = None
    via: Optional[str] = None
    action: Optional[str] = None  # masquerade | drop-external
    encryption: Optional[bool] = None


@dataclass(frozen=True)
class ConnectivityPlan:
    """Derived once per ``Scenario`` value, and shared: read-only."""
    entries: tuple[PlanEntry, ...] = ()
    # endpoint name -> attached network names, including endpoints with none
    attachments: dict = field(default_factory=dict)


def _host_range(net: ipaddress.IPv4Network) -> tuple[int, int]:
    """First and last host as integers, by the rule of ``hosts()``: a /31
    has both its addresses, a /32 its one, any other prefix all but the
    network and broadcast addresses."""
    first, last = int(net.network_address), int(net.broadcast_address)
    if net.prefixlen < 31:
        return first + 1, last - 1
    return first, last


def _dotted(host: int) -> str:
    """``str(IPv4Address(host))`` for a host number in ``[0, 2**32)``."""
    return f"{host >> 24}.{host >> 16 & 255}.{host >> 8 & 255}.{host & 255}"


def allocate_addresses(scenario: Scenario) -> AddressAssignment:
    """Deterministic address plan: manual IPs verbatim, the rest lowest-free.

    Gateway of every subnet is its lowest host address; auto assignment walks
    endpoints in document order handing out the lowest unused host address
    above the gateway (host addresses as ``hosts()`` gives them, so a /31
    offers both of its addresses and a /32 its single one).  Each network
    keeps a cursor that only moves up past taken addresses, so the cost is
    linear in attachments plus manual addresses, whatever the subnet size.
    Computed once per ``Scenario`` value and shared, so read-only; failures are not kept.
    """
    return derive_once(scenario, "allocate_addresses", _allocate)


def _allocate(scenario: Scenario) -> AddressAssignment:
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
            addresses[(name, net_name)] = _dotted(host)
            cursors[net_name] = (host + 1, last)

    return AddressAssignment(addresses=addresses, gateways=gateways)


def bridge_name(network: str) -> str:
    return f"br-{network}"


def build_connectivity_plan(scenario: Scenario, assignment: AddressAssignment) -> ConnectivityPlan:
    """Pure function of (scenario, assignment); entry order is bridges,
    attachments, routes, filter rules, then encryption metadata.  Computed once per
    ``Scenario`` value when ``assignment`` is ``allocate_addresses(scenario)``; shared, so read-only."""
    if assignment is not None and assignment is scenario._derived.get("allocate_addresses"):
        return derive_once(scenario, "build_connectivity_plan", _plan, assignment)
    return _plan(scenario, assignment)


def _plan(scenario: Scenario, assignment: AddressAssignment) -> ConnectivityPlan:
    specs = endpoint_specs(scenario)
    attachments: dict[str, tuple] = {}
    kinds: dict[str, set] = {n.name: set() for n in scenario.networks}  # network -> its members' kinds
    links: list[PlanEntry] = []
    for name, kind in endpoints(scenario):
        attachments[name] = nets = tuple(specs[name].networks)
        link = "veth-pair" if kind == "container" else "tap-attach"
        for net in nets:
            kinds[net].add(kind)
            links.append(PlanEntry(kind=link, endpoint=name, bridge=bridge_name(net)))

    used = [net for net in scenario.networks if kinds[net.name]]
    entries = [PlanEntry(kind="bridge", name=bridge_name(net.name), network=net.name) for net in used]
    entries += links
    # Host routes exist for the mixed sim/emu case: a VM sharing a network
    # with at least one container.
    entries += [PlanEntry(kind="route", subnet=net.subnet, via=assignment.gateways[net.name]) for net in used if kinds[net.name] == {"container", "vm"}]
    entries += [PlanEntry(kind="filter-rule", action="drop-external" if net.internal else "masquerade", network=net.name) for net in used]
    entries += [PlanEntry(kind="metadata", network=net.name, encryption=True) for net in used if net.encryption]
    return ConnectivityPlan(entries=tuple(entries), attachments=attachments)


def export_plan_yaml(plan: ConnectivityPlan) -> str:
    """The plan as YAML: ``entries:``, each entry's set fields in ``PlanEntry``
    order, then ``endpoints:``, each endpoint's networks as a list.  Every
    scalar is written by ``_emit_scalar``; a key longer than YAML's limit of
    1,024 characters on implicit keys takes the explicit ``? key`` form."""
    emit = functools.lru_cache(maxsize=None)(_emit_scalar)  # names and networks repeat
    lines = ["entries:" if plan.entries else "entries: []"]
    for entry in plan.entries:
        lines.append("- " + "\n  ".join(f"{key}: {emit(value)}" for key, value in zip(PlanEntry._fields, entry) if value is not None))
    lines.append("endpoints:" if plan.attachments else "endpoints: {}")
    for name, nets in plan.attachments.items():
        key = emit(name)
        head = f"  ? {key}\n  :" if len(key) > 1024 else f"  {key}:"
        lines.append(head + "".join(f"\n  - {emit(net)}" for net in nets) if nets else f"{head} []")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    """``text`` as the inside of a DOT double-quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_graph(plan: ConnectivityPlan, assignment: AddressAssignment, format: str = "dot") -> str:
    """Topology as a Graphviz digraph (``dot``): endpoint and network nodes,
    one edge per attachment; or the plan itself (``yaml``,
    ``export_plan_yaml``)."""
    if format == "yaml":
        return export_plan_yaml(plan)
    if format != "dot":
        raise UnsupportedFormat(format)
    lines = ["digraph topology {"]
    networks = [entry.network for entry in plan.entries if entry.kind == "bridge"]
    # IDs and labels are DOT quoted strings.
    for name in plan.attachments:
        node = _dot_escape(name)
        addrs = ", ".join(addr for _net, addr in sorted(assignment.addresses_of(name)))
        label = f"{node}\\n{addrs}" if addrs else node
        lines.append(f'  "{node}" [shape=box, label="{label}"];')
    for net in networks:
        node = _dot_escape(net)
        lines.append(f'  "net:{node}" [shape=ellipse, label="{node}"];')
    for name, nets in plan.attachments.items():
        node = _dot_escape(name)
        for net in nets:
            lines.append(f'  "{node}" -> "net:{_dot_escape(net)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
