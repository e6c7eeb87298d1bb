"""Address allocation and abstract connectivity planning.

The plan is an exportable artifact, not live host state: it lists the
bridges, interface attachments, routes and filter rules a backend would
have to realize so containers and VMs on the same network can talk.
"""

from __future__ import annotations

import ipaddress
import itertools
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Optional

from .model import Scenario, derive_once, first_error, manual_network
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

    # endpoint name -> {network name: dotted quad}, in ``addresses`` order
    _by_endpoint: dict = field(init=False, compare=False, repr=False)
    index: InitVar[Optional[dict]] = None  # ``_by_endpoint`` when the allocator hands it over

    def __post_init__(self, index):
        if index is None:
            index = {}
            for (name, net), addr in self.addresses.items():
                index.setdefault(name, {})[net] = addr
        object.__setattr__(self, "_by_endpoint", index)

    def addresses_of(self, endpoint: str) -> list[tuple[str, str]]:
        return list(self._by_endpoint.get(endpoint, {}).items())


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


def _dotted(host: int) -> str:
    """``str(IPv4Address(host))`` for a host number in ``[0, 2**32)``."""
    return f"{host >> 24}.{host >> 16 & 255}.{host >> 8 & 255}.{host & 255}"


def _admit(scenario: Scenario) -> None:
    """``AllocationFailure`` naming ``validate``'s first error, if it has one."""
    if (error := first_error(scenario)) is not None:
        raise AllocationFailure(f"scenario invalid: {error}")


def allocate_addresses(scenario: Scenario) -> AddressAssignment:
    """Deterministic address plan: manual IPs verbatim, the rest lowest-free.

    A scenario ``validate`` refuses raises ``AllocationFailure("scenario
    invalid: <its first error>")``.  Gateway of every subnet is its lowest
    host address; auto assignment walks endpoints in document order handing
    out the lowest unused host address above the gateway.  Each network
    keeps a cursor that only moves up past taken addresses, so the cost is
    linear in attachments plus manual addresses, whatever the subnet size.
    Computed once per ``Scenario`` value and shared, so read-only; failures are not kept.
    """
    return derive_once(scenario, "allocate_addresses", _allocate)


def _allocate(scenario: Scenario) -> AddressAssignment:
    _admit(scenario)
    networks = {net.name: ipaddress.IPv4Network(net.subnet) for net in scenario.networks}
    gateways = {name: str(subnet.network_address + 1) for name, subnet in networks.items()}
    specs = (*scenario.containers, *scenario.vms)
    used: dict[str, set] = {name: set() for name in networks}  # network -> its manual host numbers
    addresses, by_endpoint = {}, {}  # as in ``AddressAssignment``

    # Manual addresses first so auto assignment can skip them.
    for spec in specs:
        if spec.ip is not None:
            addr = ipaddress.IPv4Address(spec.ip)
            net_name = manual_network(addr, spec.networks, networks)
            addresses[(spec.name, net_name)] = spec.ip
            by_endpoint[spec.name] = {net_name: spec.ip}
            used[net_name].add(int(addr))

    # Hosts above the gateway run to broadcast - 1; ``validate`` refused a subnet too small for its attachments.
    cursor = {name: int(net.network_address) + 2 for name, net in networks.items()}  # network -> the next host to try
    for spec in specs:
        name = spec.name
        mine = by_endpoint.setdefault(name, {})
        for net_name in spec.networks:
            if net_name in mine:
                continue
            host = cursor[net_name]
            taken = used[net_name]
            while host in taken:
                host += 1
            addresses[(name, net_name)] = mine[net_name] = _dotted(host)
            cursor[net_name] = host + 1

    return AddressAssignment(addresses=addresses, gateways=gateways, index=by_endpoint)


def bridge_name(network: str) -> str:
    return f"br-{network}"


def build_connectivity_plan(scenario: Scenario, assignment: AddressAssignment) -> ConnectivityPlan:
    """Pure function of (scenario, assignment); entry order is bridges,
    attachments, routes, filter rules, then encryption metadata.  A scenario
    ``validate`` refuses raises ``AllocationFailure`` as ``allocate_addresses``
    does.  Computed once per ``Scenario`` value when ``assignment`` is
    ``allocate_addresses(scenario)``; shared, so read-only."""
    if assignment is not None and assignment is scenario._derived.get("allocate_addresses"):
        return derive_once(scenario, "build_connectivity_plan", _plan, assignment)
    return _plan(scenario, assignment)


def _plan(scenario: Scenario, assignment: AddressAssignment) -> ConnectivityPlan:
    _admit(scenario)
    bridges = {n.name: bridge_name(n.name) for n in scenario.networks}
    attachments: dict[str, tuple] = {}
    in_containers, in_vms = set(), set()  # the networks each kind joins
    links: list[PlanEntry] = []
    new = tuple.__new__  # builds each PlanEntry without a Python call to its generated __new__
    for link, group, joined in (("veth-pair", scenario.containers, in_containers), ("tap-attach", scenario.vms, in_vms)):
        for spec in group:
            name = spec.name
            attachments[name] = nets = spec.networks
            joined.update(nets)
            for net in nets:
                links.append(new(PlanEntry, (link, None, None, name, bridges[net], None, None, None, None)))

    used = [net for net in scenario.networks if net.name in in_containers or net.name in in_vms]
    entries = [PlanEntry(kind="bridge", name=bridges[net.name], network=net.name) for net in used]
    entries += links
    # Host routes exist for the mixed sim/emu case: a VM sharing a network
    # with at least one container.
    entries += [PlanEntry(kind="route", subnet=net.subnet, via=assignment.gateways[net.name]) for net in used if net.name in in_containers and net.name in in_vms]
    entries += [PlanEntry(kind="filter-rule", action="drop-external" if net.internal else "masquerade", network=net.name) for net in used]
    entries += [PlanEntry(kind="metadata", network=net.name, encryption=True) for net in used if net.encryption]
    return ConnectivityPlan(entries=tuple(entries), attachments=attachments)


def export_plan_yaml(plan: ConnectivityPlan) -> str:
    """The plan as YAML: ``entries:``, each entry's set fields in ``PlanEntry``
    order, then ``endpoints:``, each endpoint's networks as a list.  Every
    scalar is written by ``_emit_scalar``, once per distinct value; a key
    longer than YAML's limit of 1,024 characters on implicit keys takes the
    explicit ``? key`` form."""
    values = set(itertools.chain(plan.attachments, *plan.attachments.values(), *plan.entries)) - {None}
    emitted = {value: _emit_scalar(value) for value in values}
    fields = []  # each field's ``\n  key: value`` line or "", column by column
    for key, column in zip(PlanEntry._fields, zip(*plan.entries)):
        lines = {value: f"\n  {key}: {emitted[value]}" for value in set(column) - {None}}
        lines[None] = ""
        fields.append(map(lines.__getitem__, column))
    lines = ["entries:" if plan.entries else "entries: []"]
    lines += ["- " + text[3:] for text in map("".join, zip(*fields))]
    lines.append("endpoints:" if plan.attachments else "endpoints: {}")
    for name, nets in plan.attachments.items():
        key = emitted[name]
        head = f"  ? {key}\n  :" if len(key) > 1024 else f"  {key}:"
        lines.append(head + "".join(["\n  - " + emitted[net] for net in nets]) if nets else f"{head} []")
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
    networks = [entry.network for entry in plan.entries if entry.kind == "bridge"]
    # IDs and labels are DOT quoted strings; each name is escaped once.
    quoted = {net: _dot_escape(net) for net in set(networks).union(*plan.attachments.values())}
    lines = ["digraph topology {"]
    edges = []
    for name, nets in plan.attachments.items():
        node = _dot_escape(name)
        addrs = assignment._by_endpoint.get(name)
        label = f"{node}\\n{', '.join(map(addrs.get, sorted(addrs)))}" if addrs else node
        lines.append(f'  "{node}" [shape=box, label="{label}"];')
        for net in nets:
            edges.append(f'  "{node}" -> "net:{quoted[net]}";')
    lines += [f'  "net:{quoted[net]}" [shape=ellipse, label="{quoted[net]}"];' for net in networks]
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"
