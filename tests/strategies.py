"""Generators for random valid scenarios, shared by property tests."""

from __future__ import annotations

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
