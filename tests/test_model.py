from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alurity.model import (
    ContainerSpec,
    ModuleRef,
    NetworkSpec,
    Scenario,
    VmSpec,
    endpoints,
    validate,
)
from alurity.netplan import AllocationFailure, allocate_addresses

from strategies import BASE_REFS, scenarios

BASE = ModuleRef.parse(BASE_REFS[0])


def net(name="net", subnet="12.0.0.0/24", **kw):
    return NetworkSpec(name=name, subnet=subnet, **kw)


def box(name, networks=("net",), **kw):
    return ContainerSpec(name=name, base=BASE, networks=tuple(networks), **kw)


class TestModuleRef:
    @pytest.mark.parametrize(
        "text,group",
        [
            ("registry.gitlab.com/aliasrobotics/offensive/alurity/robo_ur_cb3_1:3.13.0", "robots"),
            ("reg/lab/reco_aztarna:latest", "reconnaissance"),
            ("reg/lab/expl_robosploit/expl_robosploit:latest", "exploitation"),
            ("reg/lab/comp_ros:melodic-scenario", "robot-components"),
            ("reg/lab/deve_gazebo:latest", "ide-ui"),
            ("reg/lab/xyz_tool:1", "unknown"),
        ],
    )
    def test_group_inference(self, text, group):
        assert ModuleRef.parse(text).group == group

    @pytest.mark.parametrize(
        "text",
        [
            "registry.gitlab.com/a/b/robo_x:1.2",
            "reg/path:tag",
            "reg/deep/nested/path:latest",
            "reg/no_tag_module",
        ],
    )
    def test_parse_print_roundtrip(self, text):
        assert str(ModuleRef.parse(text)) == text


class TestValidate:
    def test_listing1_is_clean(self, listing1):
        assert validate(listing1) == []

    def test_ip_outside_subnet(self):
        s = Scenario(networks=(net(),), containers=(box("a", ip="13.0.0.5"),))
        diags = validate(s)
        assert [d.code for d in diags] == ["ip-outside-subnet"]
        assert diags[0].location == "containers[0].ip"
        assert diags[0].severity == "error"

    def test_duplicate_ip(self):
        s = Scenario(
            networks=(net(),),
            containers=(box("a", ip="12.0.0.20"), box("b", ip="12.0.0.20")),
        )
        codes = [d.code for d in validate(s)]
        assert "duplicate-ip" in codes

    def test_reserved_addresses_rejected(self):
        for ip in ("12.0.0.0", "12.0.0.1", "12.0.0.255"):
            s = Scenario(networks=(net(),), containers=(box("a", ip=ip),))
            assert [d.code for d in validate(s)] == ["ip-reserved"], ip

    def test_network_not_found(self):
        s = Scenario(networks=(), containers=(box("a", networks=("ghost",)),))
        diags = validate(s)
        assert diags[0].code == "network-not-found"
        assert diags[0].location == "containers[0].networks[0]"

    def test_zero_networks_is_a_warning(self):
        s = Scenario(networks=(net(),), containers=(box("a", networks=()),))
        diags = validate(s)
        assert [d.severity for d in diags] == ["warning"]
        assert diags[0].code == "no-network"

    def test_duplicate_names(self):
        s = Scenario(
            networks=(net("n1"), net("n1", subnet="13.0.0.0/24")),
            containers=(box("a", networks=("n1",)),),
            vms=(VmSpec(name="a", path="/x", networks=("n1",)),),
        )
        codes = [d.code for d in validate(s)]
        assert "duplicate-network-name" in codes
        assert "duplicate-endpoint-name" in codes

    def test_subnet_overlap_and_prefix_range(self):
        s = Scenario(networks=(net("a", "12.0.0.0/24"), net("b", "12.0.0.128/25")))
        assert "subnet-overlap" in [d.code for d in validate(s)]
        s = Scenario(networks=(net("a", "12.0.0.0/31"),))
        assert "subnet-prefix-out-of-range" in [d.code for d in validate(s)]
        s = Scenario(networks=(net("a", "12.0.0.0/6"),))
        assert "subnet-prefix-out-of-range" in [d.code for d in validate(s)]

    def test_nonpositive_resources(self):
        s = Scenario(networks=(net(),), containers=(box("a", cpus=0, memory=0),))
        codes = [d.code for d in validate(s)]
        assert codes == ["invalid-cpus", "invalid-memory"]

    def test_subnet_exhausted(self):
        tiny = net(subnet="12.0.0.0/30")
        s = Scenario(networks=(tiny,), containers=(box("a"),))
        assert validate(s) == []
        s = Scenario(networks=(tiny,), containers=(box("a"), box("b")))
        diags = validate(s)
        assert [(d.code, d.location) for d in diags] == [("subnet-exhausted", "networks[0].subnet")]
        assert diags[0].severity == "error"

    def test_manual_addresses_count_against_the_subnet(self):
        small = net(subnet="12.0.0.0/29")  # 6 hosts: gateway + 5 free
        manual = tuple(box(f"m{i}", ip=f"12.0.0.{i}") for i in (2, 3))
        auto = tuple(box(f"a{i}") for i in range(3))
        assert validate(Scenario(networks=(small,), containers=manual + auto)) == []
        crowded = Scenario(networks=(small,), containers=manual + auto + (box("a3"),))
        assert [d.code for d in validate(crowded)] == ["subnet-exhausted"]

    def test_network_listed_twice_is_one_attachment(self):
        s = Scenario(networks=(net(subnet="12.0.0.0/30"),), containers=(box("a", networks=("net", "net")),))
        assert validate(s) == []

    def test_manual_address_covers_only_its_own_network(self):
        a, b = net("a", "12.0.0.0/30"), net("b", "13.0.0.0/30")
        first = box("x", networks=("a", "b"), ip="13.0.0.2")  # auto on a, manual on b
        second = box("y", networks=("a",))
        diags = validate(Scenario(networks=(a, b), containers=(first, second)))
        assert [(d.code, d.location) for d in diags] == [("subnet-exhausted", "networks[0].subnet")]

    def test_deterministic_and_pure(self, listing1):
        assert validate(listing1) == validate(listing1)


class TestEndpoints:
    def test_listing1_order(self, listing1):
        assert endpoints(listing1) == [("ur3", "container"), ("attacker", "container")]

    def test_merged_listing_order(self, merged12):
        assert endpoints(merged12) == [
            ("ur3", "container"),
            ("attacker", "container"),
            ("irc5", "vm"),
        ]

    def test_empty_scenario(self):
        assert endpoints(Scenario()) == []


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_generated_scenarios_validate_clean(scenario):
    errors = [d for d in validate(scenario) if d.severity == "error"]
    assert errors == []


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_injected_violation_is_reported(scenario):
    if not scenario.containers or not scenario.containers[0].networks:
        return
    broken = replace(
        scenario,
        containers=(replace(scenario.containers[0], ip="203.0.113.77"),)
        + scenario.containers[1:],
    )
    diags = validate(broken)
    assert any(d.severity == "error" and d.location == "containers[0].ip" for d in diags)


@st.composite
def crowded_scenarios(draw) -> Scenario:
    """Small subnets, several endpoints, some manual addresses."""
    prefixes = draw(st.lists(st.integers(28, 30), min_size=1, max_size=3))
    networks = tuple(net(f"n{i}", f"10.{i}.0.0/{p}") for i, p in enumerate(prefixes))
    names = [n.name for n in networks]
    hosts = {n.name: [str(h) for h in list(n.network().hosts())[1:]] for n in networks}
    taken: set = set()
    endpoints_ = []
    for i in range(draw(st.integers(0, 8))):
        attached = tuple(draw(st.permutations(names))[: draw(st.integers(1, len(names)))])
        ip = None
        if draw(st.booleans()):
            free = [h for h in hosts[attached[0]] if h not in taken]
            if free:
                ip = draw(st.sampled_from(free))
                taken.add(ip)
        kind = draw(st.sampled_from(["container", "vm"]))
        if kind == "container":
            endpoints_.append(box(f"e{i}", networks=attached, ip=ip))
        else:
            endpoints_.append(VmSpec(name=f"e{i}", path="/vm", networks=attached, ip=ip))
    return Scenario(
        networks=networks,
        containers=tuple(e for e in endpoints_ if isinstance(e, ContainerSpec)),
        vms=tuple(e for e in endpoints_ if isinstance(e, VmSpec)),
    )


@settings(max_examples=300, deadline=None)
@given(crowded_scenarios())
def test_clean_validation_means_allocation_succeeds(scenario):
    diagnostics = validate(scenario)
    try:
        allocate_addresses(scenario)
        allocated = True
    except AllocationFailure:
        allocated = False
    if diagnostics == []:
        assert allocated
    assert allocated == ("subnet-exhausted" not in {d.code for d in diagnostics})
