import gc
import math
import re
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from yaml import ScalarNode

from alurity import parser

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
    validate,
)
from alurity.parser import (
    ParseFailure,
    load_yaml_map,
    parse_flow,
    parse_flow_document,
    parse_scenario,
    parse_scenario_with_warnings,
    quote,
    serialize_flow,
    serialize_scenario,
)
from alurity.rvd import NoReproductionFound, Ticket, extract_reproduction

from strategies import scenarios
from test_parser_oracle import ODD_SCALARS

REG = "registry.gitlab.com/aliasrobotics/offensive/alurity"

LISTING1_EXPECTED = Scenario(
    networks=(
        NetworkSpec(name="process-network", driver="overlay", internal=True, encryption=False, subnet="12.0.0.0/24"),
        NetworkSpec(name="cloud-network", driver="overlay", internal=False, encryption=False, subnet="17.0.0.0/24"),
    ),
    containers=(
        ContainerSpec(
            name="ur3",
            base=ModuleRef.parse(f"{REG}/robo_ur_cb3_1:3.13.0"),
            networks=("process-network",),
            ip="12.0.0.20",
            cpus=4,
            memory=2048,
        ),
        ContainerSpec(
            name="attacker",
            base=ModuleRef.parse(f"{REG}/comp_ros:melodic-scenario"),
            volumes=(
                ModuleRef.parse(f"{REG}/expl_robosploit/expl_robosploit:latest"),
                ModuleRef.parse(f"{REG}/reco_aztarna:latest"),
                ModuleRef.parse(f"{REG}/deve_gazebo:latest"),
            ),
            networks=("process-network", "cloud-network"),
            extra_options="ALL",
        ),
    ),
)

LISTING2_EXPECTED = Scenario(
    vms=(
        VmSpec(
            name="irc5",
            path="$(pwd)/vms/irc5",
            networks=("process-network",),
            ip="12.0.0.100",
            cpus=2,
            memory=2048,
        ),
    ),
)


class TestParseScenario:
    def test_listing1_fidelity(self, listing1):
        assert listing1 == LISTING1_EXPECTED

    def test_listing2_fidelity(self, listing2):
        assert listing2 == LISTING2_EXPECTED

    def test_pwd_interpolation_kept_verbatim(self, listing2):
        assert listing2.vms[0].path == "$(pwd)/vms/irc5"

    def test_module_groups_inferred(self, listing1):
        assert listing1.containers[0].base.group == "robots"
        assert [v.group for v in listing1.containers[1].volumes] == [
            "exploitation",
            "reconnaissance",
            "ide-ui",
        ]

    def test_empty_document(self):
        assert parse_scenario("") == Scenario()

    def test_container_without_networks_parses(self):
        text = (
            "containers:\n"
            "  - container:\n"
            "    - name: x\n"
            "    - modules:\n"
            "       - base: a/b:1\n"
        )
        scenario = parse_scenario(text)
        assert scenario.containers[0].networks == ()

    def test_unknown_top_level_key_fails(self):
        with pytest.raises(ParseFailure):
            parse_scenario("wat:\n  - 1\n")

    def test_malformed_yaml_fails_with_line(self):
        with pytest.raises(ParseFailure) as exc:
            parse_scenario("networks:\n  - network:\n  [oops\n")
        assert exc.value.line is not None

    def test_repeated_base_fails(self):
        text = (
            "containers:\n"
            "  - container:\n"
            "    - name: x\n"
            "    - modules:\n"
            "       - base: a/b:1\n"
            "       - base: a/c:2\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_scenario(text)
        assert exc.value.line == 6

    @pytest.mark.parametrize(
        "text",
        [
            "networks:\n  - network:\n    - driver: overlay\n",  # missing name
            "networks:\n  - network:\n    - name: n\n",  # missing subnet
            "containers:\n  - container:\n    - name: x\n    - modules:\n       - volume: a/b:1\n",  # missing base
            "containers:\n  - container:\n    - modules:\n       - base: a/b:1\n",  # missing name
            "vms:\n  - vm:\n    - name: v\n",  # missing path
        ],
    )
    def test_missing_mandatory_keys(self, text):
        with pytest.raises(ParseFailure):
            parse_scenario(text)

    def test_unknown_record_key_is_warning(self):
        text = (
            "networks:\n"
            "  - network:\n"
            "    - name: n\n"
            "    - subnet: 12.0.0.0/24\n"
            "    - fancy: yes\n"
        )
        scenario, warnings = parse_scenario_with_warnings(text)
        assert scenario.networks[0].name == "n"
        assert [w.code for w in warnings] == ["unknown-key"]
        assert warnings[0].line == 5

    @pytest.mark.parametrize(
        "name",
        [
            "2020-13-45",  # matches the timestamp pattern, is no date
            "=",  # resolves to the value tag, which has no safe constructor
        ],
    )
    def test_odd_scalar_stays_text(self, name):
        text = f"networks:\n  - network:\n    - name: {name}\n    - subnet: 12.0.0.0/24\n"
        scenario = parse_scenario(text)
        assert scenario.networks[0].name == name
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    @pytest.mark.parametrize(
        "text, where, line",
        [
            ("networks:\n  - network:\n    - name: n\n    - ? [a]\n      : b\n", "networks[0]", 4),
            (
                "containers:\n  - container:\n    - name: x\n    - modules:\n"
                "       - base: a/b:1\n       - {volume: 1}: a/c:1\n",
                "containers[0].modules",
                6,
            ),
        ],
        ids=["network", "modules"],
    )
    def test_non_scalar_key_fails(self, text, where, line):
        with pytest.raises(ParseFailure) as exc:
            parse_scenario_with_warnings(text)
        assert exc.value.message == f"each key under {where} must be a scalar"
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "containers:\n  - container:\n    - name: c\n    - cpus: many\n    - [x]: 1\n",
                "each key under containers[0] must be a scalar",
            ),
            (
                "networks:\n  - network:\n    - name: a\n    - name: b\n    - 5\n",
                "each entry under networks[0] must be a single-key map",
            ),
        ],
        ids=["bad-value", "repeated-key"],
    )
    def test_malformed_entry_is_reported_before_earlier_errors(self, text, message):
        """A record's entries are checked for shape before any is read."""
        with pytest.raises(ParseFailure) as exc:
            parse_scenario_with_warnings(text)
        assert (exc.value.message, exc.value.line) == (message, 5)

    @pytest.mark.parametrize("classes", ["libyaml", "pure-python"])
    @pytest.mark.parametrize(
        "text, message, line",
        [
            (
                "networks:\n  - network:\n    - name: a\n    - name:\n    - subnet: 12.0.0.0/24\n",
                "key 'name' repeated in networks[0] (first at line 3)",
                4,
            ),
            (
                "containers:\n  - container:\n    - name: c\n    - cpus: 1\n    - cpus: x\n",
                "key 'cpus' repeated in containers[0] (first at line 4)",
                5,
            ),
            (
                "networks:\n  - network:\n    - name: a\n    - name: [b, c]\n    - subnet: 12.0.0.0/24\n",
                "key 'name' repeated in networks[0] (first at line 3)",
                4,
            ),
            (
                "containers:\n  - container:\n    - name: c\n    - modules:\n        - base: a/b:1\n        - base: a/c:2\n",
                "key 'base' repeated in containers[0].modules (first at line 5)",
                6,
            ),
            (
                "containers:\n  - container:\n    - name: c\n    - cpus: x\n    - memory: 1\n      ip: 10.0.0.1\n",
                "each entry under containers[0] must be a single-key map",
                5,
            ),
            (
                "containers:\n  - container:\n    - name: c\n    - modules:\n        - base: a/b:1\n        - volume: [x]\n        - {}\n",
                "each entry under containers[0].modules must be a single-key map",
                7,
            ),
            (
                "flow:\n  - container:\n    - name: x\n    - window:\n      - name: w\n      - commands:\n"
                "        - fancy: 1\n        - just text\n",
                "each entry under flows[0].windows[0].commands must be a single-key map",
                8,
            ),
        ],
        ids=[
            "repeated-empty-name", "repeated-cpus-not-an-integer", "repeated-name-a-list", "repeated-modules-base",
            "second-key-after-a-bad-value", "empty-map-after-a-bad-volume", "malformed-after-an-unknown-command-key",
        ],
    )
    def test_what_a_record_reports_first(self, classes, text, message, line, request):
        """A repeated key is reported before its value is read, so a value
        its reader would refuse does not hide it; a malformed entry outranks
        an error kept from an entry before it.  On both YAML classes."""
        if classes == "pure-python":
            request.getfixturevalue("pure_python_yaml")
        with pytest.raises(ParseFailure) as exc:
            parse_scenario_with_warnings(text)
        assert (exc.value.message, exc.value.line) == (message, line)

    @pytest.mark.parametrize("value", ["", " ~", " null"], ids=["empty", "tilde", "null"])
    def test_empty_text_fails(self, value):
        with pytest.raises(ParseFailure) as exc:
            parse_scenario(f"networks:\n  - network:\n    - name:{value}\n    - subnet: 12.0.0.0/24\n")
        assert (exc.value.message, exc.value.line) == ("networks[0].name must not be empty", 3)

    def test_quoted_empty_text_is_text(self):
        text = "networks:\n  - network:\n    - name: ''\n    - subnet: 12.0.0.0/24\n"
        assert parse_scenario(text).networks[0].name == ""

    def test_lone_surrogate_fails_cleanly(self):
        with pytest.raises(ParseFailure):
            parse_scenario("networks:\n  - network:\n    - name: \ud800\n")

    def test_source_lines_recorded(self, listing1_text):
        scenario = parse_scenario(listing1_text)
        lines = listing1_text.splitlines()
        ip_line = scenario.source_map["containers[0].ip"]
        assert "ip: 12.0.0.20" in lines[ip_line - 1]
        subnet_line = scenario.source_map["networks[1].subnet"]
        assert "17.0.0.0/24" in lines[subnet_line - 1]


def nested(levels: int, flow: bool = False) -> str:
    """A list nested ``levels`` deep: compact block entries, or brackets."""
    return "[" * levels + "]" * levels if flow else "- " * levels + "x"


# Past the nesting bound of 10,000 levels.
DEEP = 12_000
DEEP_SCENARIO = f"networks:\n  - network:\n    - name:\n      {nested(DEEP)}\n    - subnet: 12.0.0.0/24\n"
DEEP_FLOW = f"flow:\n  - container:\n    - name:\n      {nested(DEEP)}\n"


@pytest.mark.parametrize(
    "parse, text, classes",
    [
        (parse_scenario, DEEP_SCENARIO, "libyaml"),
        (parse_scenario, f"containers:\n  - container:\n    - name: x\n    - cpus: {nested(DEEP, flow=True)}\n", "libyaml"),
        (parse_flow, DEEP_FLOW, "libyaml"),
        (parse_scenario, DEEP_SCENARIO, "pure-python"),
        (parse_scenario, f"networks: {nested(DEEP, flow=True)}\n", "pure-python"),
    ],
    ids=["block-name", "flow-int", "flow-document", "block-name-pure-python", "flow-sequence-pure-python"],
)
def test_deep_nesting_is_a_parse_failure(parse, text, classes, request):
    """Nesting past the bound is counted on the events, on either classes."""
    if classes == "pure-python":
        request.getfixturevalue("pure_python_yaml")
    with pytest.raises(ParseFailure, match="nested too deeply"):
        parse(text)


def test_a_deep_text_in_a_block_scalar_is_text():
    text = f"networks:\n  - network:\n    - name: |\n        {nested(DEEP, flow=True)}\n    - subnet: 12.0.0.0/24\n"
    assert parse_scenario(text).networks[0].name == nested(DEEP, flow=True) + "\n"


LONG = "a" * 2 * 1_000


@pytest.mark.parametrize("classes", ["libyaml", "pure-python"])
@pytest.mark.parametrize(
    "text, name, parses",
    [
        ("networks:\n  - network:\n    - name: a\n    - subnet: 12.0.0.0/24\n", "a", 1),
        (f"networks:\n  - network:\n    - name: \"{LONG}\"\n    - subnet: 12.0.0.0/24\n", LONG, 1),
        (f"networks:\n  - network:\n    - name:\n{' ' * 2_500}a\n    - subnet: 12.0.0.0/24\n", "a", 1),
        (f"networks:\r  - network:\r    - name: a\r    - subnet: 12.0.0.0/24\r# {LONG}\n", "a", 1),
        ("networks:\n  - network:\n    - name: &n a\n    - subnet: 12.0.0.0/24\n", "a", 2),
    ],
    ids=["short-lines", "long-quoted-line", "long-indentation", "long-line-of-carriage-returns", "anchor"],
)
def test_a_document_is_parsed_once_unless_it_has_an_anchor(request, classes, text, name, parses):
    """Records are folded as the parser's events arrive; a document with an
    anchor is parsed again into a list, where aliases replay."""
    if classes == "pure-python":
        request.getfixturevalue("pure_python_yaml")
    counted = []

    class Counting(parser.YAML_LOADER):
        def __init__(self, text):
            counted.append(1)
            super().__init__(text)

    with pytest.MonkeyPatch.context() as patch:  # undone before the classes are
        patch.setattr(parser, "YAML_LOADER", Counting)
        assert parse_scenario(text).networks[0].name == name
    assert len(counted) == parses


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=20))
def test_any_network_name_parses_or_fails_cleanly(name):
    text = f"networks:\n  - network:\n    - name: {name}\n    - subnet: 12.0.0.0/24\n"
    try:
        parse_scenario(text)
    except ParseFailure:
        pass


def test_repeated_keys_fold_in_linear_time():
    """A record's repeated key collects its values in one list: reading four
    times the entries takes about four times as long, not sixteen."""

    def seconds(n):
        text = "containers:\n  - container:\n    - name: a\n    - modules:\n       - base: r/x:1\n"
        text += "".join(f"       - volume: r/v{i}:1\n" for i in range(n))
        start = time.perf_counter()
        assert len(parse_scenario(text).containers[0].volumes) == n
        return time.perf_counter() - start

    assert min(seconds(32_000) for _ in range(2)) < 8 * min(seconds(8_000) for _ in range(2))


class TestRepeatedSections:
    """A section given twice goes on numbering its records where the one
    before it ended, so each record's diagnostics carry its own lines."""

    def test_networks(self):
        text = "networks:\n  - network:\n    - name: a\n    - subnet: 10.0.0.0/24\n" * 2
        scenario = parse_scenario(text)
        assert [scenario.source_map[f"networks[{i}].name"] for i in (0, 1)] == [3, 7]
        (duplicate,) = [d for d in validate(scenario) if d.code == "duplicate-network-name"]
        assert (duplicate.location, duplicate.line) == ("networks[1].name", 7)

    def test_flows(self):
        rosnet_text = (Path(__file__).parent / "fixtures" / "rosnet.yaml").read_text()
        section = "flow:\n  - container:\n    - name: {}\n    - window:\n      - name: w\n"
        text = rosnet_text + section.format("rosmachine") + section.format("ghost")
        scenario = parse_scenario(text)
        first = len(rosnet_text.splitlines()) + 1
        assert [scenario.source_map[f"flows[{i}].endpoint"] for i in (0, 1)] == [first + 2, first + 7]
        (ghost,) = validate(scenario)
        assert (ghost.code, ghost.location, ghost.line) == ("endpoint-not-found", "flows[1].endpoint", first + 7)

    def test_a_select_failure_in_a_later_section_has_its_line(self):
        text = "flow:\n  - container:\n    - name: a\n" * 2 + "    - select: x\n"
        with pytest.raises(ParseFailure) as exc:
            parse_flow(text)
        assert (exc.value.message, exc.value.line) == ("selected window 'x' is not defined for 'a'", 7)


def test_source_map_is_formatted_only_when_read(listing1_text):
    """A clean document is parsed and validated without formatting a path;
    the first read formats them all, and the map cannot be written."""
    scenario = parse_scenario(listing1_text)
    assert validate(scenario) == []
    assert scenario.source_map._lines is None
    assert scenario.source_map["networks[1].subnet"] == 12
    assert scenario.source_map._lines is not None
    with pytest.raises(TypeError):
        scenario.source_map["networks[1].subnet"] = 1


# A location's last part -> the dialect keys the line it names may hold;
# any other part names its own key.
_LINE_KEYS = {
    "networks": ("network",),
    "containers": ("container",),
    "vms": ("vm",),
    "flows": ("container", "vm"),
    "volumes": ("volume",),
    "windows": ("window",),
    "endpoint": ("name",),
    "extra_options": ("extra-options",),
    "items": ("commands",),
}
_SECTION_FIELDS = {"networks": "networks", "containers": "containers", "vms": "vms", "flow": "flows"}


def _keys_named(location: str) -> tuple:
    last = re.sub(r"\[\d+\]$", "", location.rpartition(".")[2])
    return _LINE_KEYS.get(last, (last,))


def _key_at(text: str):
    match = re.match(r" *- ([\w-]+):", text)
    return match and match[1]


def _record_at(lines: list, line: int) -> tuple:
    """The (Scenario field, index) of the record that holds 1-based ``line``,
    counting each section's entries across repeated sections."""
    counts: dict = {}
    record = None
    for text in lines[:line]:
        if text[:1].isalpha():
            field = _SECTION_FIELDS[text.rstrip(":")]
        elif text.startswith("  - "):
            record = (field, counts.setdefault(field, 0))
            counts[field] += 1
    return record


def _record_named(location: str) -> tuple:
    field, index = re.match(r"(\w+)\[(\d+)\]", location).groups()
    return field, int(index)


def _names_its_line(lines: list, line, location: str, keys: tuple) -> None:
    """``line`` holds one of ``keys``, or is the entry line (``- vm:``) of the
    record ``location`` names, inside that record."""
    assert line is not None, location
    record = _record_named(location)
    assert _record_at(lines, line) == record, (location, line)
    entry = lines[line - 1].startswith("  - ") and "." not in location
    assert _key_at(lines[line - 1]) in keys or entry, (location, lines[line - 1])


@st.composite
def mislined_documents(draw):
    """``serialize_scenario`` output with the mistakes ``validate`` and the
    reader report: a duplicate network or endpoint name, a ghost network or
    endpoint, a repeated window; then repeated sections, and one key line
    repeated or dropped."""
    scenario = draw(scenarios())
    networks, containers, vms, flows = (list(records) for records in (scenario.networks, scenario.containers, scenario.vms, scenario.flows))
    if len(networks) > 1 and draw(st.booleans()):
        networks[-1] = replace(networks[-1], name=networks[0].name)
    if containers and vms and draw(st.booleans()):
        vms[-1] = replace(vms[-1], name=containers[0].name)
    if containers and draw(st.booleans()):
        containers[-1] = replace(containers[-1], networks=(*containers[-1].networks, "ghostnet"))
    if draw(st.booleans()):
        flows.append(FlowSpec("ghost", (WindowSpec("w0"),)))
    if flows and draw(st.booleans()):
        flows[0] = replace(flows[0], windows=(*flows[0].windows, WindowSpec(flows[0].windows[-1].name)))
    text = serialize_scenario(Scenario(tuple(networks), tuple(containers), tuple(vms), tuple(flows)))
    sections = [section for section in re.split(r"(?m)^(?=\S)", text) if section.strip()]
    if sections:
        text += "".join(draw(st.lists(st.sampled_from(sections), max_size=2)))
    lines = text.splitlines(keepends=True)
    valued = [n for n, line in enumerate(lines) if line.startswith("    ") and not line.rstrip().endswith(":")]
    if valued and draw(st.booleans()):
        n = draw(st.sampled_from(valued))
        lines[n : n + 1] = [lines[n]] * draw(st.sampled_from([0, 2]))
    return "".join(lines)


@settings(max_examples=100, deadline=None)
@given(mislined_documents())
def test_every_diagnostic_and_failure_names_its_line(text):
    """Each ``validate`` diagnostic's line holds the key its location's last
    part names, or is its record's entry line, inside that record, and the
    line's value is the one the message names; each ``ParseFailure``'s line
    holds the key or record its message names."""
    lines = text.splitlines()
    try:
        scenario = parse_scenario(text)
    except ParseFailure as exc:
        if match := re.fullmatch(r"key '(.+)' repeated in (\S+) \(first at line (\d+)\)", exc.message):
            for line in (int(match[3]), exc.line):
                _names_its_line(lines, line, match[2], (match[1],))
            return
        match = re.fullmatch(r"missing mandatory key '.+' in (\S+)|(\S+) must be a sequence of single-key maps", exc.message)
        assert match, exc.message  # the only failures a dropped or repeated key line makes
        location = match[1] or match[2]
        _names_its_line(lines, exc.line, location, _keys_named(location))
        return
    for diagnostic in validate(scenario):
        _names_its_line(lines, diagnostic.line, diagnostic.location, _keys_named(diagnostic.location))
        assert lines[diagnostic.line - 1].partition(": ")[2] in diagnostic.message, diagnostic  # the value it is about


@pytest.mark.parametrize(
    "text, message",
    [
        ("networks:\n  - network:\n    - name: a\n", "missing mandatory key 'subnet' in networks[0]"),
        ("flow:\n  - container:\n    - window:\n      - name: w\n", "missing mandatory key 'name' in flows[0]"),
    ],
)
def test_a_top_level_record_fails_at_its_entry_line(text, message):
    with pytest.raises(ParseFailure) as exc:
        parse_scenario(text)
    assert (exc.value.message, exc.value.line) == (message, 2)


def test_a_record_diagnostic_names_its_entry_line():
    """``no-network`` for a VM is reported at its ``- vm:`` line, not at its
    first key's."""
    diagnostics = validate(parse_scenario("vms:\n  - vm:\n    - name: v\n    - path: p\n"))
    assert [(d.code, d.location, d.line) for d in diagnostics] == [("no-network", "vms[0]", 2)]


class TestParseFlow:
    def test_listing3_shape(self, listing3):
        assert [f.endpoint for f in listing3] == ["rosmachine", "attacker"]
        rosmachine, attacker = listing3
        assert [w.name for w in rosmachine.windows] == ["ros"]
        assert [w.name for w in attacker.windows] == ["setup", "attack"]
        assert attacker.select == "attack"
        assert rosmachine.select is None
        # 2 splits -> 3 panes in the ros window
        assert sum(isinstance(i, Split) for i in rosmachine.windows[0].items) == 2

    def test_trailing_period_split_normalized(self, listing3):
        attack = listing3[1].windows[1]
        splits = [i for i in attack.items if isinstance(i, Split)]
        assert [s.direction for s in splits] == ["horizontal"]

    def test_last_attack_command(self, listing3):
        commands = [i for i in listing3[1].windows[1].items if isinstance(i, Command)]
        assert commands[-1].text == 'robosploit -m exploits/ros/fin_ack -s "target 12.0.0.2"'

    def test_empty_flow(self):
        assert parse_flow("flow:\n") == []

    def test_an_empty_map_is_not_a_flow_document(self):
        with pytest.raises(ParseFailure) as exc:
            parse_flow("{}\n")
        assert (exc.value.message, exc.value.line) == ("flow document must contain a 'flow' section", 1)

    def test_unknown_split_fails_at_line(self):
        text = (
            "flow:\n"
            "  - container:\n"
            "    - name: x\n"
            "    - window:\n"
            "      - name: w\n"
            "      - commands:\n"
            "        - split: diagonal\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_flow(text)
        assert exc.value.line == 7

    def test_select_must_name_declared_window(self):
        text = (
            "flow:\n"
            "  - container:\n"
            "    - name: x\n"
            "    - window:\n"
            "      - name: w\n"
            "    - select: ghost\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_flow(text)
        assert exc.value.message == "selected window 'ghost' is not defined for 'x'"
        assert exc.value.line == 6

    @pytest.mark.parametrize(
        "entry, window, message, line",
        [
            ("    - name: a\n    - name: b\n", "      - name: w\n", "key 'name' repeated in flows[0] (first at line 3)", 4),
            (
                "    - name: a\n    - select: w\n    - select: w\n",
                "      - name: w\n",
                "key 'select' repeated in flows[0] (first at line 4)",
                5,
            ),
            (
                "    - name: a\n",
                "      - name: w\n      - name: v\n",
                "key 'name' repeated in flows[0].windows[0] (first at line 5)",
                6,
            ),
            (
                "    - name: a\n",
                "      - name: w\n      - commands: []\n      - commands: []\n",
                "key 'commands' repeated in flows[0].windows[0] (first at line 6)",
                7,
            ),
        ],
        ids=["flow-name", "select", "window-name", "commands"],
    )
    def test_repeated_key_fails(self, entry, window, message, line):
        """A flow entry's name or select, or a window's name or commands,
        given twice is an error, as a record's repeated key is, not a silent
        overwrite or concatenation."""
        text = f"flow:\n  - container:\n{entry}    - window:\n{window}"
        with pytest.raises(ParseFailure) as exc:
            parse_flow(text)
        assert (exc.value.message, exc.value.line) == (message, line)

    @pytest.mark.parametrize(
        "entry, message, line",
        [
            ("    - name: x\n    - fancy: 1\n", "unknown key 'fancy' in flows[0]", 4),
            ("    - name: x\n    - window:\n      - name: w\n      - fancy: 1\n", "unknown key 'fancy' in flows[0].windows[0]", 6),
            ("    - name: x\n    - window:\n      - commands: []\n", "missing mandatory key 'name' in flows[0].windows[0]", 4),
        ],
        ids=["unknown-in-entry", "unknown-in-window", "window-without-name"],
    )
    def test_flow_tables_are_strict(self, entry, message, line):
        """An unknown key in a flow entry or a window is an error, not a
        warning; a window without a name fails at its ``- window:`` line."""
        with pytest.raises(ParseFailure) as exc:
            parse_flow(f"flow:\n  - container:\n{entry}")
        assert (exc.value.message, exc.value.line) == (message, line)

    def test_flow_source_lines_recorded(self, listing3_text):
        lines = listing3_text.splitlines()
        source_map = parse_flow_document(listing3_text).source_map
        assert parse_scenario(listing3_text).source_map == source_map
        for location, text in [
            ("flows[1].endpoint", "- name: attacker"),
            ("flows[1].windows[1]", "- window:"),
            ("flows[1].windows[1].name", "- name: attack"),
            ("flows[1].windows[1].items", "- commands:"),
            ("flows[1].select", "- select: attack"),
        ]:
            assert lines[source_map[location] - 1].endswith(text), location

    def test_non_scalar_key_in_window_fails(self):
        text = "flow:\n  - container:\n    - name: x\n    - window:\n      - [name]: w\n"
        with pytest.raises(ParseFailure) as exc:
            parse_flow(text)
        assert exc.value.message == "each key under flows[0].windows[0] must be a scalar"
        assert exc.value.line == 5


TWO_LINE_COMMAND = "source /opt/ros/melodic/setup.bash\nroscore\n"
BLOCK_COMMAND_FLOW = (
    "flow:\n  - container:\n    - name: rosmachine\n    - window:\n      - name: ros\n      - commands:\n"
    "        - command: |\n            source /opt/ros/melodic/setup.bash\n            roscore\n"
)


class TestRoundTrip:
    def test_listing1(self, listing1):
        assert parse_scenario(serialize_scenario(listing1)) == listing1

    def test_listing2(self, listing2):
        assert parse_scenario(serialize_scenario(listing2)) == listing2

    def test_listing3(self, listing3):
        assert parse_flow(serialize_flow(listing3)) == listing3

    def test_empty(self):
        text = serialize_scenario(Scenario())
        assert parse_scenario(text) == Scenario()

    def test_flow_embedded_in_scenario(self, listing1, listing3):
        from dataclasses import replace

        combined = replace(listing1, flows=tuple(listing3))
        assert parse_scenario(serialize_scenario(combined)) == combined

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_random_scenarios(self, scenario):
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_a_block_command_keeps_its_lines(self, listing1):
        """A two-line ``command: |`` reads as its exact text, newline
        included, and round-trips through the writer."""
        flows = parse_flow(BLOCK_COMMAND_FLOW)
        assert flows == [FlowSpec("rosmachine", (WindowSpec("ros", (Command(TWO_LINE_COMMAND),)),))]
        assert parse_flow(serialize_flow(flows)) == flows
        scenario = parse_scenario(serialize_scenario(listing1) + BLOCK_COMMAND_FLOW)
        assert scenario.flows == tuple(flows)
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_tricky_command_quoting(self):
        flow = [
            FlowSpec(
                endpoint="x",
                windows=(
                    WindowSpec(
                        name="w",
                        items=(
                            Command('export A="b: c" # not a comment'),
                            Command("true"),
                            Command("1234"),
                            Split("vertical"),
                            Command("wireshark -i eth0 . &"),
                            Command("echo \U0001F916"),
                            Command("printf '\\x85\x7f\x85\u2028\ufeff'"),
                        ),
                    ),
                ),
            )
        ]
        assert parse_flow(serialize_flow(flow)) == flow

    def test_astral_names(self):
        scenario = Scenario(
            networks=(NetworkSpec(name="net-\U0001F916", subnet="12.0.0.0/24"),),
            containers=(
                ContainerSpec(
                    name="arm-\U0001F9BE",
                    base=ModuleRef.parse(f"{REG}/robo_x:1"),
                    networks=("net-\U0001F916",),
                ),
            ),
        )
        assert parse_scenario(serialize_scenario(scenario)) == scenario


# --- the cyclic collector and the scalar cache ---------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
LISTING1_TEXT, LISTING3_TEXT = ((FIXTURES / name).read_text() for name in ("listing1.yaml", "listing3.yaml"))


def _extract(*blocks: str):
    body = "".join(f"```yaml\n{block}```\n" for block in blocks)
    return extract_reproduction(Ticket(id=1, title="t", body=body))


def _record(scenario_text: str, flow_text: str = "") -> str:
    return f"reproduction:\n  scenario: {quote(scenario_text)}\n  flow: {quote(flow_text)}\n"


def _config(text: str) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "config.yaml"
        path.write_text(text)
        return load_yaml_map(str(path))


# reader, its arguments, the exception it raises (None when it reads them)
READS = {
    "scenario": (parse_scenario, [LISTING1_TEXT], None),
    "scenario-malformed": (parse_scenario, ["networks: [\n"], ParseFailure),
    "scenario-missing-key": (parse_scenario, ["networks:\n  - network:\n    - name: x\n"], ParseFailure),
    "scenario-deep": (parse_scenario, [DEEP_SCENARIO], ParseFailure),
    "flow": (parse_flow, [LISTING3_TEXT], None),
    "flow-malformed": (parse_flow, ["flow: [\n"], ParseFailure),
    "flow-missing-key": (parse_flow, ["flow:\n  - container:\n    - select: w\n"], ParseFailure),
    "flow-deep": (parse_flow, [DEEP_FLOW], ParseFailure),
    "extract": (_extract, [LISTING1_TEXT, LISTING3_TEXT], None),
    "extract-record": (_extract, [_record(LISTING1_TEXT, LISTING3_TEXT)], None),
    "extract-malformed-flow": (_extract, [LISTING1_TEXT, "flow: [\n"], None),
    "extract-deep-record": (_extract, [_record(DEEP_SCENARIO)], NoReproductionFound),
    "extract-deep-block": (_extract, [DEEP_SCENARIO], NoReproductionFound),
    "config": (_config, [(FIXTURES / "registry_index.yaml").read_text()], None),
    "config-malformed": (_config, ["a: [\n"], ParseFailure),
    "config-contains-itself": (_config, ["a: &x [*x]\n"], ParseFailure),
    "config-deep": (_config, [f"a:\n{nested(DEEP)}\n"], ParseFailure),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("read, args, failure", READS.values(), ids=READS.keys())
def test_readers_leave_the_collector_as_they_found_it(read, args, failure, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if failure is None:
            read(*args)
        else:
            with pytest.raises(failure):
                read(*args)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def reference_tag(text: str) -> str:
    """The tag the resolver gives a plain scalar."""
    return yaml.resolver.Resolver().resolve(ScalarNode, text, (True, False))


def reference_typed(text: str):
    """The uncached typing of a plain scalar: resolve its tag, then build the
    value with the safe constructor; text that does not construct stays text."""
    tag = reference_tag(text)
    constructor = yaml.constructor.SafeConstructor()
    construct = constructor.yaml_constructors.get(tag)
    if tag == "tag:yaml.org,2002:str" or construct is None:
        return text
    try:
        return construct(constructor, ScalarNode(tag, text))
    except (ValueError, yaml.YAMLError):
        return text


def _same(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.sampled_from(ODD_SCALARS), st.text(max_size=20)))
def test_cached_typing_matches_the_uncached_rule(text):
    expected = reference_typed(text)
    tag, first = parser._typed(text)
    assert tag == reference_tag(text), (text, tag)
    assert _same(first, expected), (text, first, expected)
    assert _same(parser._typed(text)[1], first)
