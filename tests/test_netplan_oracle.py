"""Differential tests: the cursor allocator and the indexed ``addresses_of``
against the original rescanning allocator, and the connectivity plan against
the planner that told containers from VMs by name sets as well as by kind,
each kept here verbatim as the oracle."""

import ipaddress

from hypothesis import HealthCheck, given, settings

from alurity.model import Scenario
from alurity.netplan import (
    AddressAssignment,
    AllocationFailure,
    ConnectivityPlan,
    PlanEntry,
    allocate_addresses,
    bridge_name,
    build_connectivity_plan,
)

from strategies import endpoint_specs, endpoints, gated_scenarios
from test_netplan import first_error_text


def reference_allocate_addresses(scenario: Scenario) -> AddressAssignment:
    """Deterministic address plan: manual IPs verbatim, the rest lowest-free.

    Gateway of every subnet is its lowest host address; auto assignment walks
    endpoints in document order handing out the lowest unused host address
    above the gateway.
    """
    networks = {n.name: ipaddress.IPv4Network(n.subnet) for n in scenario.networks}
    gateways = {name: str(net.network_address + 1) for name, net in networks.items()}

    specs = {c.name: c for c in scenario.containers}
    specs.update({v.name: v for v in scenario.vms})

    used: dict[str, set] = {name: {net.network_address + 1} for name, net in networks.items()}
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
                used[net_name].add(addr)
                break

    for name, _kind in endpoints(scenario):
        spec = specs[name]
        for net_name in spec.networks:
            if (name, net_name) in addresses:
                continue
            net = networks[net_name]
            candidate = None
            for host in net.hosts():
                if host not in used[net_name]:
                    candidate = host
                    break
            if candidate is None:
                raise AllocationFailure(
                    f"subnet {net} of network {net_name!r} has no free host address for {name!r}"
                )
            addresses[(name, net_name)] = str(candidate)
            used[net_name].add(candidate)

    return AddressAssignment(addresses=addresses, gateways=gateways)


def reference_addresses_of(assignment: AddressAssignment, endpoint: str) -> list[tuple[str, str]]:
    return [(net, addr) for (name, net), addr in assignment.addresses.items() if name == endpoint]


def allocation_scenarios():
    """``gated_scenarios`` with plain names: 1-3 networks, endpoint names
    from a small pool plus their index."""
    return gated_scenarios(names="abcdefgh", network_names=("n0", "n1", "n2"))


def outcome(allocate, scenario):
    try:
        return allocate(scenario), None
    except AllocationFailure as exc:
        return None, str(exc)


@settings(max_examples=750, deadline=None, suppress_health_check=list(HealthCheck))
@given(allocation_scenarios())
def test_cursor_allocator_matches_rescanning_oracle(scenario):
    """A scenario ``validate`` refuses raises ``AllocationFailure`` naming its
    first error; one it accepts gets the rescanning oracle's addresses."""
    actual, failure = outcome(allocate_addresses, scenario)
    if (error := first_error_text(scenario)) is not None:
        assert failure == f"scenario invalid: {error}"
        return
    expected = reference_allocate_addresses(scenario)
    assert failure is None
    assert list(actual.addresses.items()) == list(expected.addresses.items())
    assert actual == expected  # addresses and gateways
    for name in [c.name for c in scenario.containers] + [v.name for v in scenario.vms] + ["ghost"]:
        assert actual.addresses_of(name) == reference_addresses_of(expected, name)


def test_oracle_inputs_reach_every_case():
    """The generator does produce the cases the differential test is for."""
    seen = set()

    @settings(max_examples=600, deadline=None, suppress_health_check=list(HealthCheck), derandomize=True)
    @given(allocation_scenarios())
    def collect(scenario):
        expected, failure = outcome(reference_allocate_addresses, scenario)
        nets = {n.name: ipaddress.IPv4Network(n.subnet) for n in scenario.networks}
        specs = list(scenario.containers) + list(scenario.vms)
        if failure:
            seen.add("exhausted")
        seen.update(f"/{net.prefixlen}" for net in nets.values())
        names = [s.name for s in specs]
        if len(names) != len(set(names)):
            seen.add("duplicate-name")
        if any(not s.networks for s in specs):
            seen.add("no-network")
        ips = [s.ip for s in specs if s.ip]
        if len(ips) != len(set(ips)):
            seen.add("duplicate-ip")
        for ip in ips:
            addr = ipaddress.IPv4Address(ip)
            inside = [net for net in nets.values() if addr in net]
            if not inside:
                seen.add("manual-outside")
            for net in inside:
                if addr == net.network_address + 1:
                    seen.add("manual-gateway")
                elif addr == net.broadcast_address:
                    seen.add("manual-broadcast")
                else:
                    seen.add("manual-inside")
        if first_error_text(scenario) is not None:
            seen.add("refused")
            return
        if ips:
            seen.add("accepted-manual")
        attached = [ref for s in specs for ref in s.networks]
        if any(attached.count(name) == net.num_addresses - 3 for name, net in nets.items()):
            seen.add("filled-exactly")

    collect()
    wanted = {f"/{p}" for p in range(24, 33)} | {
        "exhausted",
        "duplicate-name",
        "no-network",
        "duplicate-ip",
        "manual-outside",
        "manual-gateway",
        "manual-broadcast",
        "manual-inside",
        "refused",
        "accepted-manual",
        "filled-exactly",
    }
    assert wanted <= seen, wanted - seen


def test_addresses_of_is_a_copy():
    assignment = AddressAssignment(addresses={("a", "n"): "10.0.0.2"}, gateways={"n": "10.0.0.1"})
    assignment.addresses_of("a").append(("m", "10.1.0.2"))
    assert assignment.addresses_of("a") == [("n", "10.0.0.2")]
    assert assignment.addresses_of("ghost") == []
    assert "_by_endpoint" not in repr(assignment)


def reference_plan(scenario: Scenario, assignment: AddressAssignment) -> ConnectivityPlan:
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


@settings(max_examples=450, deadline=None, suppress_health_check=list(HealthCheck))
@given(allocation_scenarios())
def test_plan_matches_the_name_set_oracle(scenario):
    """Same entries in the same order, and the same attachments, whether a
    network's members are told apart by their kinds or by name sets."""
    try:
        assignment = allocate_addresses(scenario)
    except AllocationFailure:
        return
    expected = reference_plan(scenario, assignment)
    actual = build_connectivity_plan(scenario, assignment)
    assert actual.entries == expected.entries
    assert list(actual.attachments.items()) == list(expected.attachments.items())
