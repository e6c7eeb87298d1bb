import ipaddress
import random
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alurity.model import ContainerSpec, ModuleRef, NetworkSpec, Scenario, manual_network, validate
from alurity.netplan import (
    AddressAssignment,
    AllocationFailure,
    ConnectivityPlan,
    PlanEntry,
    UnknownEndpoint,
    UnsupportedFormat,
    _dot_escape,
    _dotted,
    allocate_addresses,
    bridge_name,
    build_connectivity_plan,
    export_graph,
    export_plan_yaml,
)

from strategies import BASE_REFS, endpoint_specs, endpoints, gated_scenarios, random_topology

BASE = ModuleRef.parse(BASE_REFS[0])


def plan_for(scenario):
    assignment = allocate_addresses(scenario)
    return build_connectivity_plan(scenario, assignment), assignment


def reachable(plan, a, b):
    """The reachability oracle: True iff the endpoints share a network of
    ``plan.attachments`` (no transit forwarding); ``UnknownEndpoint`` for a
    name the plan lacks."""
    for name in (a, b):
        if name not in plan.attachments:
            raise UnknownEndpoint(name)
    return a == b or bool(set(plan.attachments[a]) & set(plan.attachments[b]))


def linked_bridges(plan):
    """Endpoint name -> the bridges the plan's veth-pair and tap-attach entries attach it to."""
    bridges = {}
    for entry in plan.entries:
        if entry.kind in ("veth-pair", "tap-attach"):
            bridges.setdefault(entry.endpoint, set()).add(entry.bridge)
    return bridges


class TestAllocation:
    def test_listing1_addresses(self, listing1):
        a = allocate_addresses(listing1)
        assert a.gateways["process-network"] == "12.0.0.1"
        assert a.addresses[("ur3", "process-network")] == "12.0.0.20"
        assert a.addresses[("attacker", "process-network")] == "12.0.0.2"
        assert a.addresses[("attacker", "cloud-network")] == "17.0.0.2"

    def test_manual_vm_address_verbatim(self, merged12):
        a = allocate_addresses(merged12)
        assert a.addresses[("irc5", "process-network")] == "12.0.0.100"

    def test_lowest_free_scan_oracle(self, merged12):
        # Independent oracle: per network, walk hosts above the gateway and
        # hand the lowest free one to each auto endpoint in document order.
        import ipaddress

        a = allocate_addresses(merged12)
        specs = {c.name: c for c in merged12.containers}
        specs.update({v.name: v for v in merged12.vms})
        for net in merged12.networks:
            subnet = ipaddress.IPv4Network(net.subnet)
            taken = {subnet.network_address + 1}
            manual = {
                ipaddress.IPv4Address(s.ip)
                for s in specs.values()
                if s.ip and ipaddress.IPv4Address(s.ip) in subnet
            }
            taken |= manual
            for name, _ in endpoints(merged12):
                if net.name not in specs[name].networks:
                    continue
                if specs[name].ip and ipaddress.IPv4Address(specs[name].ip) in subnet:
                    expected = ipaddress.IPv4Address(specs[name].ip)
                else:
                    expected = next(h for h in subnet.hosts() if h not in taken)
                    taken.add(expected)
                assert a.addresses[(name, net.name)] == str(expected)

    def test_pigeonhole_failure(self):
        scenario = Scenario(
            networks=(NetworkSpec(name="tiny", subnet="12.0.0.0/30"),),
            containers=(
                ContainerSpec(name="a", base=BASE, networks=("tiny",)),
                ContainerSpec(name="b", base=BASE, networks=("tiny",)),
            ),
        )
        with pytest.raises(AllocationFailure):
            allocate_addresses(scenario)

    def test_a_subnet_filled_exactly(self):
        """A /29 has five hosts besides the gateway: five endpoints take them
        all, lowest first, and a sixth is refused as ``subnet-exhausted``."""
        boxes = tuple(ContainerSpec(name=f"e{i}", base=BASE, networks=("lan",)) for i in range(6))
        scenario = Scenario(networks=(NetworkSpec(name="lan", subnet="10.0.0.0/29"),), containers=boxes[:5])
        assert list(allocate_addresses(scenario).addresses.values()) == [f"10.0.0.{h}" for h in range(2, 7)]
        with pytest.raises(AllocationFailure) as failure:
            allocate_addresses(replace(scenario, containers=boxes))
        assert str(failure.value) == (
            "scenario invalid: error subnet-exhausted networks[0].subnet "
            "6 endpoints attach to 'lan' but 10.0.0.0/29 has 5 host addresses besides the gateway"
        )

    def test_deterministic(self, merged12):
        assert allocate_addresses(merged12) == allocate_addresses(merged12)

    def test_a_replaced_assignment_indexes_its_own_addresses(self, listing1):
        assignment = replace(allocate_addresses(listing1), addresses={("box", "lan"): "10.0.0.2"})
        assert assignment.addresses_of("box") == [("lan", "10.0.0.2")]
        assert assignment.addresses_of("attacker") == []


class TestDottedQuad:
    @pytest.mark.parametrize("host", [0, 1, 255, 256, 2**24 - 1, 2**24, 2**31, 2**32 - 2, 2**32 - 1])
    def test_ends_of_the_range(self, host):
        assert _dotted(host) == str(ipaddress.IPv4Address(host))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 32), st.integers(0, 2**32 - 1))
    def test_hosts_of_any_subnet(self, address, prefixlen, offset):
        net = ipaddress.IPv4Network((address, prefixlen), strict=False)
        first, last = _host_range(net)
        for host in (first, last, first + offset % (last - first + 1)):
            assert _dotted(host) == str(ipaddress.IPv4Address(host))


class TestPlanEntry:
    def test_is_immutable(self):
        entry = PlanEntry(kind="bridge", name="br-n", network="n")
        for field in ("kind", "name", "encryption"):
            with pytest.raises(AttributeError):
                setattr(entry, field, "x")
        assert entry == PlanEntry(kind="bridge", name="br-n", network="n")
        assert hash(entry) == hash(PlanEntry(kind="bridge", name="br-n", network="n"))


class TestPlan:
    def test_listing1_entries(self, listing1):
        plan, _ = plan_for(listing1)
        kinds = [e.kind for e in plan.entries]
        assert kinds.count("bridge") == 2
        assert kinds.count("veth-pair") == 3
        assert kinds.count("tap-attach") == 0
        rules = {(e.action, e.network) for e in plan.entries if e.kind == "filter-rule"}
        assert rules == {("drop-external", "process-network"), ("masquerade", "cloud-network")}

    def test_mixed_plan_gets_tap_and_route(self, merged12):
        plan, _ = plan_for(merged12)
        taps = [e for e in plan.entries if e.kind == "tap-attach"]
        routes = [e for e in plan.entries if e.kind == "route"]
        assert len(taps) == 1 and taps[0].endpoint == "irc5"
        assert taps[0].bridge == "br-process-network"
        assert [r.subnet for r in routes] == ["12.0.0.0/24"]

    def test_entry_ordering(self, merged12):
        plan, _ = plan_for(merged12)
        rank = {"bridge": 0, "veth-pair": 1, "tap-attach": 1, "route": 2, "filter-rule": 3, "metadata": 4}
        ranks = [rank[e.kind] for e in plan.entries]
        assert ranks == sorted(ranks)

    def test_empty_scenario_plan(self):
        plan, _ = plan_for(Scenario())
        assert plan.entries == ()

    def test_internal_networks_never_masqueraded(self, listing1):
        plan, _ = plan_for(listing1)
        for entry in plan.entries:
            if entry.kind == "filter-rule" and entry.network == "process-network":
                assert entry.action == "drop-external"

    def test_encryption_metadata_entry(self):
        scenario = Scenario(
            networks=(NetworkSpec(name="sec", subnet="12.0.0.0/24", encryption=True),),
            containers=(ContainerSpec(name="a", base=BASE, networks=("sec",)),),
        )
        plan, _ = plan_for(scenario)
        metas = [e for e in plan.entries if e.kind == "metadata"]
        assert len(metas) == 1 and metas[0].encryption is True

    def test_plan_is_pure(self, merged12):
        p1, a1 = plan_for(merged12)
        p2, a2 = plan_for(merged12)
        assert p1 == p2
        assert export_plan_yaml(p1) == export_plan_yaml(p2)

    def test_yaml_export_lists_entries(self, listing1):
        plan, _ = plan_for(listing1)
        import yaml

        doc = yaml.safe_load(export_plan_yaml(plan))
        assert len(doc["entries"]) == len(plan.entries)
        assert doc["endpoints"]["attacker"] == ["process-network", "cloud-network"]


class TestReachable:
    def test_shared_network(self, listing1):
        plan, _ = plan_for(listing1)
        assert reachable(plan, "ur3", "attacker") is True
        assert reachable(plan, "attacker", "ur3") is True

    def test_reflexive(self, listing1):
        plan, _ = plan_for(listing1)
        assert reachable(plan, "attacker", "attacker") is True

    def test_no_transit_through_multihomed_endpoints(self, listing1):
        cloud_only = ContainerSpec(name="cloudbox", base=BASE, networks=("cloud-network",))
        scenario = replace(listing1, containers=listing1.containers + (cloud_only,))
        plan, _ = plan_for(scenario)
        # attacker is on both networks but must not relay ur3 <-> cloudbox
        assert reachable(plan, "ur3", "cloudbox") is False

    def test_unknown_endpoint(self, listing1):
        plan, _ = plan_for(listing1)
        with pytest.raises(UnknownEndpoint):
            reachable(plan, "ur3", "ghost")

    def test_brute_force_oracle(self):
        rng = random.Random(7)
        pairs_checked = 0
        for _ in range(60):
            scenario = random_topology(rng)
            plan, _ = plan_for(scenario)
            names = [n for n, _ in endpoints(scenario)]
            bridges = linked_bridges(plan)
            attached = {n: bridges.get(n, set()) for n in names}
            for x in names:
                for y in names:
                    expected = x == y or bool(attached[x] & attached[y])
                    assert reachable(plan, x, y) == expected
                    pairs_checked += 1
        assert pairs_checked >= 1000


class TestGraphExport:
    def test_listing1_counts(self, listing1):
        plan, a = plan_for(listing1)
        dot = export_graph(plan, a, "dot")
        assert dot.count("->") == 3
        assert dot.count("[shape=box") == 2
        assert dot.count("[shape=ellipse") == 2

    def test_merged_counts(self, merged12):
        plan, a = plan_for(merged12)
        dot = export_graph(plan, a, "dot")
        assert dot.count("->") == 4
        assert dot.count("[shape=") == 5

    def test_empty(self):
        plan, a = plan_for(Scenario())
        dot = export_graph(plan, a)
        assert "->" not in dot and "[shape=" not in dot

    def test_unsupported_format(self, listing1):
        plan, a = plan_for(listing1)
        with pytest.raises(UnsupportedFormat):
            export_graph(plan, a, "svg")

    @pytest.mark.parametrize("name", ['a"b\\c', "ends\\", '"', "\\n", "plain"])
    def test_quoted_ids_unescape_to_names(self, name):
        """Every line is a well-formed DOT statement, and each quoted ID and
        label reads back as the name it stands for."""
        quoted = r'"((?:[^"\\]|\\.)*)"'
        node = re.compile(rf"  {quoted} \[shape=(box|ellipse), label={quoted}\];")
        edge = re.compile(rf"  {quoted} -> {quoted};")

        def unescape(text):
            return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], text)

        net = f"net {name}"
        scenario = Scenario(
            networks=(NetworkSpec(name=net, subnet="12.0.0.0/24"),),
            containers=(ContainerSpec(name=name, base=BASE, networks=(net,)),),
        )
        lines = export_graph(*plan_for(scenario)).splitlines()
        assert lines[0] == "digraph topology {" and lines[-1] == "}"
        nodes, edges = set(), set()
        for line in lines[1:-1]:
            if m := node.fullmatch(line):
                nodes.add((unescape(m[1]), m[2], unescape(m[3])))
            else:
                m = edge.fullmatch(line)
                assert m, line
                edges.add((unescape(m[1]), unescape(m[2])))
        assert nodes == {(name, "box", f"{name}\n12.0.0.2"), (f"net:{net}", "ellipse", net)}
        assert edges == {(name, f"net:{net}")}


def test_subnet_safety_over_random_scenarios():
    import ipaddress

    rng = random.Random(11)
    for _ in range(40):
        scenario = random_topology(rng)
        a = allocate_addresses(scenario)
        nets = {n.name: ipaddress.IPv4Network(n.subnet) for n in scenario.networks}
        per_network: dict = {}
        for (name, net_name), addr in a.addresses.items():
            parsed = ipaddress.IPv4Address(addr)
            subnet = nets[net_name]
            assert parsed in subnet
            assert parsed not in (subnet.network_address, subnet.broadcast_address)
            assert addr not in per_network.setdefault(net_name, set())
            per_network[net_name].add(addr)


class TestRefusedScenarios:
    """Allocation and planning on a scenario ``validate`` refuses raise
    ``AllocationFailure`` naming its first error, never a library error."""

    def scenario(self, subnet="12.0.0.0/24", networks=("lan",), ip=None):
        return Scenario(
            networks=(NetworkSpec(name="lan", subnet=subnet),),
            containers=(ContainerSpec(name="box", base=BASE, networks=networks, ip=ip),),
        )

    UNDECLARED = "scenario invalid: error network-not-found containers[0].networks[1] network 'ghost' is not declared"

    def test_an_undeclared_network(self):
        scenario = self.scenario(networks=("lan", "ghost"))
        with pytest.raises(AllocationFailure) as failure:
            allocate_addresses(scenario)
        assert str(failure.value) == self.UNDECLARED

    def test_an_undeclared_network_in_the_plan(self):
        scenario = self.scenario(networks=("lan", "ghost"))
        with pytest.raises(AllocationFailure) as failure:
            build_connectivity_plan(scenario, AddressAssignment(addresses={}, gateways={}))
        assert str(failure.value) == self.UNDECLARED

    SUBNET_ERRORS = {
        "bad": "invalid-subnet networks[0].subnet 'bad' is not a valid IPv4 CIDR block",
        "255.255.255.255/32": "subnet-prefix-out-of-range networks[0].subnet prefix /32 outside /8../30",
    }

    @pytest.mark.parametrize("subnet", list(SUBNET_ERRORS))
    def test_a_subnet_that_is_not_a_cidr_block_with_a_gateway(self, subnet):
        with pytest.raises(AllocationFailure) as failure:
            allocate_addresses(self.scenario(subnet=subnet))
        assert str(failure.value) == f"scenario invalid: error {self.SUBNET_ERRORS[subnet]}"

    def test_an_ip_that_is_not_an_address(self):
        with pytest.raises(AllocationFailure) as failure:
            allocate_addresses(self.scenario(ip="nonsense"))
        assert str(failure.value) == "scenario invalid: error invalid-ip containers[0].ip 'nonsense' is not a valid IPv4 address"


# The allocator, planner and DOT writer before the graph path's per-endpoint
# costs were cut, kept verbatim as the oracles of the property below, with
# the host range they read.


def _host_range(net: ipaddress.IPv4Network) -> tuple[int, int]:
    """First and last host as integers, by the rule of ``hosts()``: a /31
    has both its addresses, a /32 its one, any other prefix all but the
    network and broadcast addresses."""
    first, last = int(net.network_address), int(net.broadcast_address)
    if net.prefixlen < 31:
        return first + 1, last - 1
    return first, last


def former_allocate(scenario: Scenario) -> AddressAssignment:
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
        if (net_name := manual_network(addr, spec.networks, networks)) is not None:
            addresses[(name, net_name)] = spec.ip
            used[net_name].add(int(addr))

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


def former_plan(scenario: Scenario, assignment: AddressAssignment) -> ConnectivityPlan:
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


def former_export_graph(plan: ConnectivityPlan, assignment: AddressAssignment, format: str = "dot") -> str:
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


def graph_outcome(allocate, scenario):
    try:
        return allocate(scenario), None
    except AllocationFailure as exc:
        return None, str(exc)


def first_error_text(scenario):
    """``validate``'s first error as text, or None."""
    return next((str(d) for d in validate(scenario) if d.severity == "error"), None)


@settings(max_examples=375, deadline=None, suppress_health_check=list(HealthCheck))
@given(gated_scenarios())
def test_graph_path_matches_the_former_functions(scenario):
    """A scenario ``validate`` refuses is refused by allocation and planning
    with its first error; one it accepts gets the same addresses, gateways,
    per-endpoint addresses, plan and exports, byte for byte, as the
    allocator, planner and DOT writer kept above."""
    actual, failure = graph_outcome(allocate_addresses, scenario)
    if (error := first_error_text(scenario)) is not None:
        assert failure == f"scenario invalid: {error}"
        with pytest.raises(AllocationFailure, match=re.escape(failure)):
            build_connectivity_plan(scenario, AddressAssignment(addresses={}, gateways={}))
        return
    expected = former_allocate(scenario)
    assert failure is None
    assert list(actual.addresses.items()) == list(expected.addresses.items())
    assert list(actual.gateways.items()) == list(expected.gateways.items())
    for name in [c.name for c in scenario.containers] + [v.name for v in scenario.vms] + ["ghost"]:
        assert actual.addresses_of(name) == expected.addresses_of(name)
    plan, former = build_connectivity_plan(scenario, actual), former_plan(scenario, expected)
    assert plan.entries == former.entries
    assert list(plan.attachments.items()) == list(former.attachments.items())
    for fmt in ("dot", "yaml"):
        assert export_graph(plan, actual, fmt) == former_export_graph(former, expected, fmt)


def filled_exactly(scenario, assignment) -> bool:
    """Some network has as many attachments as host addresses besides the gateway."""
    per_network = {}
    for _name, net in assignment.addresses:
        per_network[net] = per_network.get(net, 0) + 1
    return any(per_network.get(n.name) == ipaddress.IPv4Network(n.subnet).num_addresses - 3 for n in scenario.networks)


def test_graph_inputs_reach_every_case():
    """The generator does produce the cases the property is for."""
    seen = set()

    @settings(max_examples=600, deadline=None, suppress_health_check=list(HealthCheck), derandomize=True)
    @given(gated_scenarios())
    def collect(scenario):
        specs = scenario.containers + scenario.vms
        if {c.name for c in scenario.containers} & {v.name for v in scenario.vms}:
            seen.add("name-in-both-kinds")
        if any(len(set(spec.networks)) < len(spec.networks) for spec in specs):
            seen.add("network-twice")
        if graph_outcome(former_allocate, scenario)[1]:
            seen.add("full")
        if first_error_text(scenario) is not None:
            seen.add("refused")
            return
        expected = former_allocate(scenario)
        plan = former_plan(scenario, expected)
        seen.update(entry.kind for entry in plan.entries)
        seen.update(f"internal-{net.internal}" for net in scenario.networks)
        if any(spec.ip for spec in specs):
            seen.add("manual")
        if filled_exactly(scenario, expected):
            seen.add("filled-exactly")
        names = {spec.name for spec in specs} | {net.name for net in scenario.networks}
        seen.update(mark for mark in ('"', "\\") if any(mark in name for name in names))

    collect()
    wanted = {"full", "bridge", "veth-pair", "tap-attach", "route", "filter-rule", "metadata", "internal-True", "internal-False"}
    wanted |= {"name-in-both-kinds", "manual", "network-twice", '"', "\\", "refused", "filled-exactly"}
    assert wanted <= seen, wanted - seen
