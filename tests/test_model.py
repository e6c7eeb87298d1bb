import ipaddress
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alurity.model import (
    DEFAULT_GROUP_PREFIXES,
    ContainerSpec,
    ModuleRef,
    NetworkSpec,
    Scenario,
    VmSpec,
    validate,
)
from alurity import cli, model, netplan
from alurity.netplan import AddressAssignment, AllocationFailure, allocate_addresses, build_connectivity_plan
from alurity.orchestrator import MockBackend, up
from alurity.parser import parse_scenario, parse_scenario_with_warnings

from strategies import BASE_REFS, endpoints, scenarios

BASE = ModuleRef.parse(BASE_REFS[0])
FIXTURES = Path(__file__).parent / "fixtures"


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


def reference_parse(text: str) -> tuple:
    """``ModuleRef.parse``'s rule, uncached: (registry, path, tag, group)."""
    registry, _, rest = text.partition("/") if "/" in text else ("", "", text)
    path, _, tag = rest.rpartition(":") if ":" in rest else (rest, "", "")
    leaf = path.split("/")[-1]
    group = next((g for prefix, g in DEFAULT_GROUP_PREFIXES.items() if leaf.startswith(prefix)), "unknown")
    return registry, path, tag, group


# Registry-like texts, with and without a registry part and a tag, drawn from
# a small pool so the same text comes back among others.
_segments = st.sampled_from(["reg", "r.io", "lab", "robo_x", "reco_y", "ui_z", "deve_w", "tool", "robo", ""])
_ref_texts = st.builds(
    lambda parts, tag: "/".join(parts) + tag,
    st.lists(_segments, min_size=1, max_size=4),
    st.sampled_from(["", ":1", ":latest", ":", ":a:b", ":3.13.0"]),
)


class TestModuleRefCache:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_ref_texts, min_size=1, max_size=8))
    def test_matches_the_uncached_rule(self, texts):
        for text in texts + texts[::-1]:
            ref = ModuleRef.parse(text)
            assert (ref.registry, ref.path, ref.tag, ref.group) == reference_parse(text)

    def test_repeats_share_one_value(self):
        text = f"reg/lab/robo_shared:{id(self)}"
        assert ModuleRef.parse(text) is ModuleRef.parse(text)


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

    @pytest.mark.parametrize(
        "scenario, endpoint, repeat",
        [
            (Scenario(networks=(net(),), containers=(box("a", networks=("net", "net")),)), "containers[0]", 1),
            (Scenario(networks=(net(),), vms=(VmSpec(name="v", path="/v", networks=("net", "ghost", "net")),)), "vms[0]", 2),
        ],
        ids=["container", "vm"],
    )
    def test_a_repeated_network_reference_is_an_error(self, scenario, endpoint, repeat):
        diags = [d for d in validate(scenario) if d.code == "duplicate-network-reference"]
        assert [(d.severity, d.location, d.message) for d in diags] == [
            ("error", f"{endpoint}.networks[{repeat}]", f"network 'net' already attached at {endpoint}.networks[0]")
        ]

    def test_zero_networks_is_a_warning(self):
        s = Scenario(networks=(net(),), containers=(box("a", networks=()),))
        diags = validate(s)
        assert [d.severity for d in diags] == ["warning"]
        assert diags[0].code == "no-network"

    def test_an_unknown_driver_is_a_warning(self):
        diags = validate(Scenario(networks=(net(driver="bridge"),), containers=(box("a"),)))
        assert [(d.severity, d.code, d.location) for d in diags] == [("warning", "unknown-driver", "networks[0].driver")]
        assert diags[0].message == "driver 'bridge' is not a known driver"

    def test_duplicate_names(self):
        s = Scenario(
            networks=(net("n1"), net("n1", subnet="13.0.0.0/24")),
            containers=(box("a", networks=("n1",)),),
            vms=(VmSpec(name="a", path="/x", networks=("n1",)),),
        )
        codes = [d.code for d in validate(s)]
        assert "duplicate-network-name" in codes
        assert "duplicate-endpoint-name" in codes

    @pytest.mark.parametrize("last_subnet", ["13.0.0.0/24", "not-a-subnet"])
    def test_a_repeated_network_name_places_addresses_in_its_last_subnet(self, last_subnet):
        s = Scenario(
            networks=(net("n1"), net("n1", subnet=last_subnet)),
            containers=(box("a", networks=("n1",), ip="13.0.0.5"), box("b", networks=("n1",), ip="12.0.0.5")),
        )
        outside = [d.location for d in validate(s) if d.code == "ip-outside-subnet"]
        assert outside == (["containers[1].ip"] if last_subnet == "13.0.0.0/24" else ["containers[0].ip", "containers[1].ip"])

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
        """The repeat is an error of its own, and the /30's one free host
        address is not also reported exhausted."""
        s = Scenario(networks=(net(subnet="12.0.0.0/30"),), containers=(box("a", networks=("net", "net")),))
        assert [(d.code, d.location) for d in validate(s)] == [("duplicate-network-reference", "containers[0].networks[1]")]

    def test_manual_address_covers_only_its_own_network(self):
        a, b = net("a", "12.0.0.0/30"), net("b", "13.0.0.0/30")
        first = box("x", networks=("a", "b"), ip="13.0.0.2")  # auto on a, manual on b
        second = box("y", networks=("a",))
        diags = validate(Scenario(networks=(a, b), containers=(first, second)))
        assert [(d.code, d.location) for d in diags] == [("subnet-exhausted", "networks[0].subnet")]

    def test_deterministic_and_pure(self, listing1):
        assert validate(listing1) == validate(listing1)


class TestValidateFlows:
    """A flow must name a declared endpoint, and an endpoint's window names
    must differ across all its flow entries; each diagnostic has its line."""

    def text(self, listing3_text, *edits):
        text = (FIXTURES / "rosnet.yaml").read_text() + listing3_text
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        return text

    def line(self, text, needle, nth=1):
        return [i for i, line in enumerate(text.split("\n"), 1) if line.endswith(needle)][nth - 1]

    def diagnostics(self, text):
        scenario, warnings = parse_scenario_with_warnings(text)
        assert warnings == []
        return [(d.code, d.location, d.line) for d in validate(scenario)]

    def test_listing3_on_rosnet_is_clean(self, listing3_text):
        assert self.diagnostics(self.text(listing3_text)) == []

    def test_undeclared_endpoint(self, listing3_text):
        text = self.text(listing3_text, ("- name: attacker\n    - window", "- name: ghost\n    - window"))
        (diag,) = validate(parse_scenario(text))
        assert (diag.severity, diag.code, diag.location) == ("error", "endpoint-not-found", "flows[1].endpoint")
        assert diag.message == "endpoint 'ghost' is not declared"
        assert diag.line == self.line(text, "- name: ghost")

    def test_window_name_repeated_in_one_entry(self, listing3_text):
        text = self.text(listing3_text, ("- name: attack\n", "- name: setup\n"), ("    - select: attack\n", ""))
        assert self.diagnostics(text) == [
            ("duplicate-window-name", "flows[1].windows[1].name", self.line(text, "- name: setup", 2))
        ]
        assert validate(parse_scenario(text))[0].message == "window 'setup' of 'attacker' already defined at flows[1].windows[0].name"

    def test_window_name_repeated_across_entries(self, listing3_text):
        again = "  - container:\n    - name: rosmachine\n    - window:\n      - name: ros\n"
        text = self.text(listing3_text) + again
        assert self.diagnostics(text) == [("duplicate-window-name", "flows[2].windows[0].name", self.line(text, "- name: ros", 2))]

    def test_one_window_name_on_two_endpoints_is_fine(self, listing3_text):
        assert self.diagnostics(self.text(listing3_text, ("- name: ros\n", "- name: setup\n"))) == []


def _network(name="n", subnet="12.0.0.0/24", extra=""):
    return f"  - network:\n    - name: {name}\n    - subnet: {subnet}\n{extra}"


def _container(name="a", nets="n", extra=""):
    return f"  - container:\n    - name: {name}\n    - modules:\n       - base: r/x:1\n       - network: [{nets}]\n{extra}"


def _flow(windows=("w",), endpoint="a"):
    return f"flow:\n  - container:\n    - name: {endpoint}\n" + "".join(f"    - window:\n      - name: {w}\n" for w in windows)


# One document per ``validate`` code; ``#<`` ends the line its diagnostic names.
DOCUMENT_PER_CODE = {
    "duplicate-network-name": "networks:\n" + _network() + "  - network:\n    - name: n  #<\n    - subnet: 13.0.0.0/24\n",
    "unknown-driver": "networks:\n" + _network(extra="    - driver: bridge  #<\n"),
    "invalid-subnet": "networks:\n" + _network(subnet="nope  #<"),
    "subnet-prefix-out-of-range": "networks:\n" + _network(subnet="12.0.0.0/31  #<"),
    "subnet-overlap": "networks:\n" + _network() + _network("m", "12.0.0.0/25  #<"),
    "duplicate-endpoint-name": "networks:\n" + _network() + "containers:\n" + _container() + _container().replace("- name: a", "- name: a  #<"),
    "no-network": "containers:\n  - container:  #<\n    - name: a\n    - modules:\n       - base: r/x:1\n",
    "network-not-found": "containers:\n" + _container(nets="ghost").replace("[ghost]", "[ghost]  #<"),
    "duplicate-network-reference": "networks:\n" + _network() + "containers:\n" + _container(nets="n, n").replace("[n, n]", "[n, n]  #<"),
    "invalid-cpus": "networks:\n" + _network() + "containers:\n" + _container(extra="    - cpus: 0  #<\n"),
    "invalid-memory": "networks:\n" + _network() + "vms:\n  - vm:\n    - name: v\n    - path: /vms/v\n    - network: n\n    - memory: 0  #<\n",
    "invalid-ip": "networks:\n" + _network() + "containers:\n" + _container(extra="    - ip: 12.0.0.999  #<\n"),
    "ip-outside-subnet": "networks:\n" + _network() + "containers:\n" + _container(extra="    - ip: 13.0.0.5  #<\n"),
    "ip-reserved": "networks:\n" + _network() + "vms:\n  - vm:\n    - name: v\n    - path: /vms/v\n    - network: n\n    - ip: 12.0.0.1  #<\n",
    "duplicate-ip": "networks:\n" + _network() + "containers:\n"
    + _container(extra="    - ip: 12.0.0.9\n") + _container("b", extra="    - ip: 12.0.0.9  #<\n"),
    "endpoint-not-found": "networks:\n" + _network() + "containers:\n" + _container() + _flow(endpoint="ghost  #<"),
    "duplicate-window-name": "networks:\n" + _network() + "containers:\n" + _container() + _flow(windows=("w", "w  #<")),
    "subnet-exhausted": "networks:\n" + _network(subnet="12.0.0.0/30  #<") + "containers:\n" + _container() + _container("b"),
}


@pytest.mark.parametrize("code", list(DOCUMENT_PER_CODE))
def test_every_diagnostic_of_a_parsed_document_has_its_line(code):
    """Every location ``validate`` reports is one the parser recorded, so
    each diagnostic carries the line it names straight from the source map."""
    text = DOCUMENT_PER_CODE[code]
    diagnostics = validate(parse_scenario(text))
    assert all(d.line is not None for d in diagnostics), diagnostics
    marked = [i for i, line in enumerate(text.split("\n"), 1) if line.endswith("#<")]
    assert [d.line for d in diagnostics if d.code == code] == marked, diagnostics


def test_the_per_code_documents_cover_every_code():
    source = Path(model.__file__).read_text()
    assert set(DOCUMENT_PER_CODE) == set(re.findall(r'"(?:error|warning)",\s+"([a-z-]+)"', source))


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
    hosts = {n.name: [str(h) for h in list(ipaddress.IPv4Network(n.subnet).hosts())[1:]] for n in networks}
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


# --- each derivation runs once per Scenario value ----------------------------


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_derived_results_equal_a_fresh_derivation(scenario):
    """What a Scenario keeps equals what a copy of it derives afresh, is
    shared by later calls and by ``up``, and leaves its value alone."""
    as_before = (hash(scenario), repr(scenario), replace(scenario))
    diagnostics = validate(scenario)
    assignment = allocate_addresses(scenario)
    plan = build_connectivity_plan(scenario, assignment)
    fresh = replace(scenario)
    assert diagnostics == validate(fresh)
    assert assignment == allocate_addresses(fresh) and assignment is not allocate_addresses(fresh)
    assert plan == build_connectivity_plan(fresh, allocate_addresses(fresh))
    diagnostics.append("not a diagnostic")
    assert validate(scenario) == validate(fresh) and validate(scenario) is not validate(scenario)
    assert allocate_addresses(scenario) is assignment
    assert build_connectivity_plan(scenario, assignment) is plan
    deployment = up(scenario, MockBackend())
    assert deployment.assignment is assignment
    assert (hash(scenario), repr(scenario), scenario) == as_before


class TestDerivedOnce:
    @pytest.fixture
    def bodies(self, monkeypatch):
        """Counts of the runs of each derivation's body."""
        counts = {"validate": 0, "allocate": 0, "plan": 0}
        bodies = ((model, "_validate", "validate"), (netplan, "_allocate", "allocate"), (netplan, "_plan", "plan"))
        for module, name, key in bodies:
            def counting(*args, body=getattr(module, name), key=key):
                counts[key] += 1
                return body(*args)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_graph_then_run_derives_once(self, bodies, listing1_text, registry):
        """The wide-scenario workload's call order."""
        scenario, _ = parse_scenario_with_warnings(listing1_text)
        assert validate(scenario) == []
        assignment = allocate_addresses(scenario)
        plan = build_connectivity_plan(scenario, assignment)
        netplan.export_graph(plan, assignment)
        up(scenario, MockBackend(), registry).down()
        assert bodies == {"validate": 1, "allocate": 1, "plan": 1}

    def test_cli_run_derives_once(self, bodies, capsys):
        assert cli.main(["run", str(Path(__file__).parent / "fixtures" / "listing1.yaml")]) == 0
        assert bodies == {"validate": 1, "allocate": 1, "plan": 1}

    def test_replace_derives_afresh(self, bodies, listing1):
        allocate_addresses(listing1)
        assert validate(listing1) == []
        stray = (replace(listing1.containers[0], ip="203.0.113.77"),) + listing1.containers[1:]
        assert "ip-outside-subnet" in [d.code for d in validate(replace(listing1, containers=stray))]
        extra = listing1.containers + (box("extra", networks=("process-network",)),)
        assert ("extra", "process-network") in allocate_addresses(replace(listing1, containers=extra)).addresses
        # allocation validates first: the third scenario is validated by its allocation
        assert bodies == {"validate": 3, "allocate": 2, "plan": 0}

    def test_a_failure_is_not_kept(self, bodies):
        crowded = Scenario(networks=(net(subnet="10.0.0.0/30"),), containers=(box("a"), box("b")))
        for _ in range(2):
            with pytest.raises(AllocationFailure):
                allocate_addresses(crowded)
        assert bodies["allocate"] == 2

    def test_a_plan_for_another_assignment_is_not_kept(self, bodies, listing1):
        own_assignment = allocate_addresses(listing1)
        other = AddressAssignment(addresses=dict(own_assignment.addresses), gateways=dict(own_assignment.gateways))
        first = build_connectivity_plan(listing1, other)
        assert build_connectivity_plan(listing1, other) == first
        own = build_connectivity_plan(listing1, own_assignment)
        assert own == first and build_connectivity_plan(listing1, own_assignment) is own
        assert bodies["plan"] == 3
