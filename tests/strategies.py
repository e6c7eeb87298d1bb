"""Generators for random valid scenarios, shared by property tests."""

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


# Names the DOT export has to escape and the YAML export to quote.
GRAPH_NAMES = ["a", "b", 'q"t', "b\\s", '\\"', "c"]
GRAPH_NETWORK_NAMES = ["n0", 'n"1', "n\\2", "n3"]


@st.composite
def graph_scenarios(draw) -> Scenario:
    """Scenarios for the allocator, the planner and both graph exports.

    1-4 networks of /24 to /30, each internal, encrypted, both or neither,
    some named with ``"`` or ``\\``.  Up to 8 containers and 5 VMs whose
    names repeat across and within kinds, each on any of the networks (now
    and then one of them twice), so VMs share networks with containers.
    About one in three has a manual address: in a subnet (its network,
    gateway and broadcast addresses included), just past one, or outside
    every one.  ``validate`` refuses some of them; allocation never fails
    for anything but a full subnet.
    """
    count = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(GRAPH_NETWORK_NAMES), min_size=count, max_size=count, unique=True))
    prefixes = draw(st.lists(st.integers(24, 30), min_size=count, max_size=count))
    networks = tuple(
        NetworkSpec(name=name, subnet=f"10.{i}.0.0/{prefix}", internal=draw(st.booleans()), encryption=draw(st.booleans()))
        for i, (name, prefix) in enumerate(zip(names, prefixes))
    )

    def attached():
        nets = draw(st.permutations(names))[: draw(st.integers(0, count))]
        return tuple(nets + nets[:1] if nets and draw(st.integers(0, 9)) == 0 else nets)

    def manual_ip():
        if draw(st.integers(0, 2)):
            return None
        i = draw(st.integers(0, count))
        if i == count:
            return "192.168.0.7"
        return str(ipaddress.IPv4Address(f"10.{i}.0.0") + draw(st.integers(0, 2 ** (32 - prefixes[i]))))

    endpoint = st.sampled_from(GRAPH_NAMES)
    base = ModuleRef.parse(BASE_REFS[0])
    containers = tuple(
        ContainerSpec(name=draw(endpoint), base=base, networks=attached(), ip=manual_ip()) for _ in range(draw(st.integers(0, 8)))
    )
    vms = tuple(VmSpec(name=draw(endpoint), path="vms/x", networks=attached(), ip=manual_ip()) for _ in range(draw(st.integers(0, 5))))
    return Scenario(networks=networks, containers=containers, vms=vms)
