"""Differential tests: the cursor allocator and the indexed ``addresses_of``
against the original rescanning allocator, and the connectivity plan against
the planner that told containers from VMs by name sets as well as by kind,
each kept here verbatim as the oracle."""

import ipaddress
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alurity.model import ContainerSpec, ModuleRef, NetworkSpec, Scenario, VmSpec, endpoint_specs, endpoints
from alurity.netplan import (
    AddressAssignment,
    AllocationFailure,
    ConnectivityPlan,
    PlanEntry,
    allocate_addresses,
    bridge_name,
    build_connectivity_plan,
)

from strategies import BASE_REFS

BASE = ModuleRef.parse(BASE_REFS[0])


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


@st.composite
def allocation_scenarios(draw) -> Scenario:
    """1-3 networks of /24 to /32, up to 12 endpoints drawn from a small name
    pool (so names repeat across and within kinds), attached to any subset of
    the networks, with manual addresses anywhere in or near the subnets."""
    prefixes = draw(st.lists(st.integers(24, 32), min_size=1, max_size=3))
    networks = tuple(
        NetworkSpec(name=f"n{i}", subnet=f"10.{i}.0.0/{prefix}") for i, prefix in enumerate(prefixes)
    )
    net_names = [n.name for n in networks]

    def manual_ip():
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return None
        if choice == 1:
            # outside every network
            return f"192.168.0.{draw(st.integers(0, 3))}"
        # inside (or just past) a subnet: network, gateway, broadcast, hosts
        i = draw(st.integers(0, len(prefixes) - 1))
        size = 2 ** (32 - prefixes[i])
        offset = draw(st.one_of(st.sampled_from([0, 1, size - 1, size]), st.integers(0, min(size, 20))))
        return str(ipaddress.IPv4Address(f"10.{i}.0.0") + offset)

    def attached():
        return tuple(draw(st.permutations(net_names))[: draw(st.integers(0, len(net_names)))])

    names = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])
    containers = tuple(
        ContainerSpec(name=draw(names), base=BASE, networks=attached(), ip=manual_ip())
        for _ in range(draw(st.integers(0, 8)))
    )
    vms = tuple(
        VmSpec(name=draw(names), path="vms/x", networks=attached(), ip=manual_ip())
        for _ in range(draw(st.integers(0, 4)))
    )
    return Scenario(networks=networks, containers=containers, vms=vms)


def outcome(allocate, scenario):
    try:
        return allocate(scenario), None
    except AllocationFailure as exc:
        return None, str(exc)


@settings(max_examples=600, deadline=None, suppress_health_check=list(HealthCheck))
@given(allocation_scenarios())
def test_cursor_allocator_matches_rescanning_oracle(scenario):
    expected, expected_failure = outcome(reference_allocate_addresses, scenario)
    actual, failure = outcome(allocate_addresses, scenario)
    assert failure == expected_failure
    if expected is None:
        return
    assert list(actual.addresses.items()) == list(expected.addresses.items())
    assert actual == expected  # addresses and gateways
    for name in [c.name for c in scenario.containers] + [v.name for v in scenario.vms] + ["ghost"]:
        assert actual.addresses_of(name) == reference_addresses_of(expected, name)


def test_oracle_inputs_reach_every_case():
    """The generator does produce the cases the differential test is for."""
    seen = set()

    @settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck), derandomize=True)
    @given(allocation_scenarios())
    def collect(scenario):
        _, failure = outcome(reference_allocate_addresses, scenario)
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


@st.composite
def plan_scenarios(draw) -> Scenario:
    """``allocation_scenarios`` with each network internal, encrypted, both
    or neither."""
    scenario = draw(allocation_scenarios())
    networks = tuple(replace(n, internal=draw(st.booleans()), encryption=draw(st.booleans())) for n in scenario.networks)
    return replace(scenario, networks=networks)


@settings(max_examples=400, deadline=None, suppress_health_check=list(HealthCheck))
@given(plan_scenarios())
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
