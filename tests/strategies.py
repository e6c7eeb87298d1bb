"""Generators for random scenarios and the endpoint walks, shared by the tests."""

from __future__ import annotations

import ipaddress
import random
import string

from hypothesis import strategies as st

from alurity.model import (
    Command,
    ContainerSpec,
    FlowSpec,
    ModuleRef,
    NetworkSpec,
    Scenario,
    Split,
    VmSpec,
    WindowSpec,
)

BASE_REFS = [
    "reg.example.com/lab/robo_arm:1.0",
    "reg.example.com/lab/comp_mw:latest",
    "reg.example.com/lab/expl_kit:2",
    "reg.example.com/lab/reco_scan:0.9",
    "reg.example.com/lab/xyz_misc:3",
]

_name = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)

_command_text = st.text(
    alphabet=st.characters(min_codepoint=32, blacklist_categories=("Cs",)),
    min_size=1,
    max_size=40,
)


@st.composite
def window_specs(draw, name: str):
    items = draw(
        st.lists(
            st.one_of(
                _command_text.map(Command),
                st.sampled_from(["horizontal", "vertical"]).map(Split),
            ),
            max_size=6,
        )
    )
    return WindowSpec(name=name, items=tuple(items))


@st.composite
def scenarios(draw) -> Scenario:
    net_count = draw(st.integers(0, 4))
    net_ids = draw(st.lists(st.integers(0, 200), min_size=net_count, max_size=net_count, unique=True))
    networks = tuple(
        NetworkSpec(
            name=f"net{net_id}",
            internal=draw(st.booleans()),
            encryption=draw(st.booleans()),
            subnet=f"10.{net_id}.0.0/24",
        )
        for net_id in net_ids
    )
    net_names = [n.name for n in networks]

    manual_offset = 20  # distinct offsets keep manual IPs collision-free

    def attached():
        if not net_names:
            return ()
        count = draw(st.integers(0, len(net_names)))
        return tuple(draw(st.permutations(net_names))[:count])

    def maybe_ip(nets):
        nonlocal manual_offset
        if not nets or not draw(st.booleans()):
            return None
        net_id = int(nets[0][3:])
        manual_offset += 1
        return f"10.{net_id}.0.{manual_offset}"

    container_count = draw(st.integers(0, 5))
    containers = []
    for i in range(container_count):
        nets = attached()
        containers.append(
            ContainerSpec(
                name=f"c{i}{draw(_name)}",
                base=ModuleRef.parse(draw(st.sampled_from(BASE_REFS))),
                volumes=tuple(
                    ModuleRef.parse(r) for r in draw(st.lists(st.sampled_from(BASE_REFS), max_size=2))
                ),
                networks=nets,
                ip=maybe_ip(nets),
                cpus=draw(st.integers(1, 8)),
                memory=draw(st.integers(64, 4096)),
                extra_options=draw(st.one_of(st.none(), st.just("ALL"))),
            )
        )

    vm_count = draw(st.integers(0, 3))
    vms = []
    for i in range(vm_count):
        nets = attached()
        vms.append(
            VmSpec(
                name=f"v{i}{draw(_name)}",
                path=f"$(pwd)/vms/{draw(_name)}",
                networks=nets,
                ip=maybe_ip(nets),
                cpus=draw(st.integers(1, 4)),
                memory=draw(st.integers(64, 4096)),
            )
        )

    flows = []
    endpoint_names = [c.name for c in containers] + [v.name for v in vms]
    for name in endpoint_names:
        if not draw(st.booleans()):
            continue
        window_count = draw(st.integers(1, 3))
        windows = tuple(draw(window_specs(f"w{j}")) for j in range(window_count))
        select = draw(st.one_of(st.none(), st.sampled_from([w.name for w in windows])))
        flows.append(FlowSpec(endpoint=name, windows=windows, select=select))

    return Scenario(
        networks=networks,
        containers=tuple(containers),
        vms=tuple(vms),
        flows=tuple(flows),
    )


def random_topology(rng: random.Random, max_networks: int = 5, max_endpoints: int = 10) -> Scenario:
    """Plain-random scenario for reachability sweeps (no manual IPs)."""
    net_count = rng.randint(1, max_networks)
    networks = tuple(
        NetworkSpec(name=f"net{i}", subnet=f"10.{i}.0.0/24") for i in range(net_count)
    )
    net_names = [n.name for n in networks]
    base = ModuleRef.parse(BASE_REFS[0])
    containers = []
    vms = []
    for i in range(rng.randint(0, max_endpoints)):
        nets = tuple(rng.sample(net_names, rng.randint(0, len(net_names))))
        if rng.random() < 0.7:
            containers.append(ContainerSpec(name=f"ep{i}", base=base, networks=nets))
        else:
            vms.append(VmSpec(name=f"ep{i}", path=f"$(pwd)/vms/ep{i}", networks=nets))
    return Scenario(networks=networks, containers=tuple(containers), vms=tuple(vms))


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


# Names the DOT export has to escape and the YAML export to quote.
GRAPH_NAMES = ["a", "b", 'q"t', "b\\s", '\\"', "c"]
GRAPH_NETWORK_NAMES = ["n0", 'n"1', "n\\2", "n3"]

# A manual address ``validate`` refuses, by its place in or past a subnet.
WRONG_IPS = {
    "network-ip": lambda subnet: subnet.network_address,
    "gateway-ip": lambda subnet: subnet.network_address + 1,
    "broadcast-ip": lambda subnet: subnet.broadcast_address,
    "past-ip": lambda subnet: subnet.broadcast_address + 1,
    "outside-ip": lambda subnet: "192.168.0.7",
}
# The ways ``gated_scenarios`` breaks a rule ``validate`` checks, one per scenario.
REFUSALS = ("duplicate-name", "name-in-both-kinds", "network-twice", "/31", "/32", "duplicate-ip", "overfull", *WRONG_IPS)


@st.composite
def gated_scenarios(draw, names=GRAPH_NAMES, network_names=GRAPH_NETWORK_NAMES) -> Scenario:
    """Scenarios for the allocator, the planner and both graph exports, about
    three in four of them ones ``validate`` accepts.

    1 to ``len(network_names)`` networks of /24 to /30, each internal,
    encrypted, both or neither.  Up to 8 containers and 5 VMs, each named
    from ``names`` plus its index and attached to any of the networks with a
    host address left, so VMs share networks with containers and small
    subnets fill up exactly.  About one in three attached ones has a manual
    address, a host of one of its networks that no other endpoint has.  The
    other scenarios break one of ``REFUSALS``: a repeated endpoint name
    (across kinds, too) or network reference, a /31 or /32, one of
    ``WRONG_IPS``, an address given twice, or more endpoints than hosts on a
    /30.
    """
    refusal = draw(st.sampled_from(REFUSALS)) if draw(st.integers(0, 3)) == 3 else None
    count = draw(st.integers(1, len(network_names)))
    net_names = draw(st.lists(st.sampled_from(network_names), min_size=count, max_size=count, unique=True))
    prefixes = draw(st.lists(st.integers(30 if refusal == "overfull" else 24, 30), min_size=count, max_size=count))
    subnets = {name: ipaddress.IPv4Network(f"10.{i}.0.0/{prefix}") for i, (name, prefix) in enumerate(zip(net_names, prefixes))}
    room = {name: subnet.num_addresses - 3 for name, subnet in subnets.items()}  # host addresses left besides the gateway
    manual: set[str] = set()
    least = int(refusal is not None)  # a refused scenario has the endpoints and attachments its refusal needs

    def endpoint(i: int) -> list:
        open_nets = [net for net in draw(st.permutations(net_names)) if room[net] > 0 or refusal == "overfull"]
        nets = open_nets[: draw(st.integers(min(least, len(open_nets)), len(open_nets)))]
        for net in nets:
            room[net] -= 1
        ip = None
        if nets and draw(st.integers(0, 2)) == 0:
            subnet = subnets[draw(st.sampled_from(nets))]
            host = str(subnet.network_address + draw(st.integers(2, subnet.num_addresses - 2)))
            if host not in manual:
                ip = host
                manual.add(host)
        return [f"{draw(st.sampled_from(names))}{i}", nets, ip]

    n_containers = draw(st.integers(least, 8))
    drafts = [endpoint(i) for i in range(n_containers + draw(st.integers(least, 5)))]
    attached = [draft for draft in drafts if draft[1]]
    if refusal == "duplicate-name" and len(drafts) > 1:
        j, k = draw(st.lists(st.integers(0, len(drafts) - 1), min_size=2, max_size=2, unique=True))
        drafts[j][0] = drafts[k][0]
    elif refusal == "name-in-both-kinds" and 0 < n_containers < len(drafts):
        drafts[draw(st.integers(n_containers, len(drafts) - 1))][0] = drafts[draw(st.integers(0, n_containers - 1))][0]
    elif refusal == "network-twice" and attached:
        nets = draw(st.sampled_from(attached))[1]
        nets.append(nets[0])
    elif refusal in ("/31", "/32"):
        net = draw(st.sampled_from(net_names))
        subnets[net] = ipaddress.IPv4Network((subnets[net].network_address, int(refusal[1:])))
    elif refusal in WRONG_IPS and attached:
        draft = draw(st.sampled_from(attached))
        draft[2] = str(WRONG_IPS[refusal](subnets[draft[1][0]]))
    elif refusal == "duplicate-ip" and len(attached) > 1:
        first, second = draw(st.permutations(attached))[:2]
        first[2] = second[2] = first[2] or str(subnets[first[1][0]].network_address + 2)

    networks = tuple(
        NetworkSpec(name=name, subnet=str(subnet), internal=draw(st.booleans()), encryption=draw(st.booleans()))
        for name, subnet in subnets.items()
    )
    base = ModuleRef.parse(BASE_REFS[0])
    containers = tuple(ContainerSpec(name=name, base=base, networks=tuple(nets), ip=ip) for name, nets, ip in drafts[:n_containers])
    vms = tuple(VmSpec(name=name, path="vms/x", networks=tuple(nets), ip=ip) for name, nets, ip in drafts[n_containers:])
    return Scenario(networks=networks, containers=containers, vms=vms)
