"""Differential test: the table-driven record reader and writer against the
hand-written ones they replaced, kept here verbatim as the oracle.

The oracle reads documents the way the package did before composing without
tag resolution: it composes through the resolving ``parser.YAML_LOADER`` and
keeps its own copies of the scalar helpers (``_scalar``, ``_string``,
``_pairs``, ``_tagged_items``, ``_parse_window`` ...), which resolve every
plain scalar.  It keeps its own copy of the hand-written flow-section
reader too, which key tables replaced as well, with the package's later
rules: the ``select`` check moved into ``FlowSpec``; a flow entry's ``name``
or ``select`` and a window's ``name`` or ``commands`` may not repeat; the
source map holds a flow's endpoint under ``flows[i].endpoint`` and a
window's name and commands under ``.name`` and ``.items``; a window without
a ``name`` fails at its ``- window:`` line; and a second ``flow:`` section
adds its entries, as a second ``networks:`` section does.
Inputs are ``strategies.scenarios()`` and the fixture documents, mutated line
by line: repeated, unknown, missing and non-scalar keys, aliases, tags, block
scalars, odd plain scalars and collections where scalars belong.  The reader
tests run on the libyaml classes and again on PyYAML's pure-Python ones.
"""

import re
from pathlib import Path
from typing import Optional

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alurity import parser
from alurity.model import (
    Command,
    ContainerSpec,
    Diagnostic,
    FlowSpec,
    ModuleRef,
    NetworkSpec,
    Scenario,
    Split,
    VmSpec,
    WindowSpec,
)
from alurity.parser import (
    ParseFailure,
    _emit_scalar,
    _line,
    _malformed,
    _normalize_split,
    parse_flow,
    parse_scenario,
    parse_scenario_with_warnings,
    serialize_flow,
    serialize_scenario,
)

from strategies import scenarios
from yaml_classes import pure_python_classes

FIXTURES = Path(__file__).parent / "fixtures"


# --- the oracle's YAML layer: composing with tag resolution and typing each
# plain scalar through the resolver --------------------------------------------


def _compose(text: str) -> Optional[yaml.Node]:
    try:
        return yaml.compose(text, Loader=parser.YAML_LOADER)
    except UnicodeEncodeError as exc:  # lone surrogates cannot reach libyaml
        raise ParseFailure(f"malformed YAML: {exc.reason}") from exc
    except yaml.YAMLError as exc:
        raise _malformed(exc) from exc


_RESOLVER = yaml.resolver.Resolver()
_CONSTRUCTOR = yaml.constructor.SafeConstructor()
_STR_TAG = "tag:yaml.org,2002:str"


def _scalar(node: yaml.Node):
    if not isinstance(node, yaml.ScalarNode):
        raise ParseFailure("expected a scalar value", _line(node))
    text = node.value
    if node.style in ('"', "'", "|", ">"):  # quoted and block scalars are text
        return text
    if text == "":
        return None
    try:
        tag = _RESOLVER.resolve(yaml.ScalarNode, text, (True, False))
        if tag == _STR_TAG:
            return text
        construct = _CONSTRUCTOR.yaml_constructors.get(tag)
        return text if construct is None else construct(_CONSTRUCTOR, node)
    except (ValueError, yaml.YAMLError):
        return text


def _string(node: yaml.Node, what: str) -> str:
    value = _scalar(node)
    if value is None:
        raise ParseFailure(f"{what} must not be empty", _line(node))
    return value if isinstance(value, str) else str(value)


def _int(node: yaml.Node, what: str) -> int:
    value = _scalar(node)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseFailure(f"{what} must be an integer, got {value!r}", _line(node))
    return value


def _bool(node: yaml.Node, what: str) -> bool:
    value = _scalar(node)
    if not isinstance(value, bool):
        raise ParseFailure(f"{what} must be a boolean, got {value!r}", _line(node))
    return value


def _pairs(node: yaml.Node, what: str) -> list[tuple[str, yaml.Node, int]]:
    """Flatten a sequence of single-key maps into (key, value node, line)."""
    if node is None:
        return []
    if not isinstance(node, yaml.SequenceNode):
        raise ParseFailure(f"{what} must be a sequence of single-key maps", _line(node))
    out = []
    for item in node.value:
        if not isinstance(item, yaml.MappingNode) or len(item.value) != 1:
            raise ParseFailure(f"each entry under {what} must be a single-key map", _line(item))
        key_node, value_node = item.value[0]
        if not isinstance(key_node, yaml.ScalarNode):
            raise ParseFailure(f"each key under {what} must be a scalar", _line(key_node))
        out.append((key_node.value, value_node, _line(key_node)))
    return out


def _tagged_items(node: yaml.Node, section: str, tags: tuple[str, ...]) -> list[tuple[yaml.Node, int]]:
    """Unwrap ``- network:`` / ``- container:`` wrapper entries: each
    record's node and the line of its entry."""
    if node is None or (isinstance(node, yaml.ScalarNode) and node.value == ""):
        return []
    out = []
    for key, value, line in _pairs(node, section):
        if key not in tags:
            expected = " or ".join(repr(tag) for tag in tags)
            raise ParseFailure(f"expected {expected} entries under {section}, got {key!r}", line)
        out.append((value, line))
    return out


_SPLIT_DIRECTIONS = {"horizontal", "vertical"}


def _parse_window(node: yaml.Node, loc: str, source_map: dict, window_line: int) -> WindowSpec:
    name: Optional[str] = None
    first: dict[str, int] = {}  # the line each of name and commands is first given on
    items: list[object] = []
    for key, value, line in _pairs(node, loc):
        if key in ("name", "commands"):
            if key in first:
                raise ParseFailure(f"key {key!r} repeated in {loc} (first at line {first[key]})", line)
            first[key] = line
            source_map[f"{loc}.{'name' if key == 'name' else 'items'}"] = line
        if key == "name":
            name = _string(value, f"{loc}.name")
        elif key == "commands":
            for ckey, cvalue, cline in _pairs(value, f"{loc}.commands"):
                if ckey == "command":
                    items.append(Command(_string(cvalue, f"{loc}.commands.command")))
                elif ckey == "split":
                    direction = _normalize_split(_string(cvalue, f"{loc}.commands.split"))
                    if direction not in _SPLIT_DIRECTIONS:
                        raise ParseFailure(f"unknown split direction {direction!r}", cline)
                    items.append(Split(direction))
                else:
                    raise ParseFailure(f"unknown key {ckey!r} under {loc}.commands", cline)
        else:
            raise ParseFailure(f"unknown key {key!r} in {loc}", line)
    if name is None:
        raise ParseFailure(f"missing mandatory key 'name' in {loc}", window_line)
    return WindowSpec(name=name, items=tuple(items))


# --- the oracle: the record reader, flow-section reader and scenario writer as
# they were before the key tables ---------------------------------------------


class _Folder:
    """Folds one record's key/value pairs, tracking repeats and locations."""

    def __init__(self, loc: str, line: int, source_map: dict, warnings: list[Diagnostic]):
        self.loc = loc
        self.source_map = source_map
        self.warnings = warnings
        self.seen: dict[str, int] = {}
        source_map[loc] = line

    def take(self, key: str, node: yaml.Node, line: int, repeatable: bool = False) -> None:
        if not repeatable and key in self.seen:
            raise ParseFailure(
                f"key {key!r} repeated in {self.loc} (first at line {self.seen[key]})", line
            )
        self.seen.setdefault(key, line)

    def unknown(self, key: str, line: int) -> None:
        location = f"{self.loc}.{key}"
        self.source_map[location] = line
        self.warnings.append(
            Diagnostic("warning", "unknown-key", f"unknown key {key!r} ignored", location, line)
        )

    def record(self, key: str, line: int) -> None:
        self.source_map[f"{self.loc}.{key}"] = line

    def require(self, key: str, record_line: int) -> None:
        if key not in self.seen:
            raise ParseFailure(f"missing mandatory key {key!r} in {self.loc}", record_line)


def _parse_network(node: yaml.Node, index: int, record_line: int, source_map: dict, warnings: list[Diagnostic]) -> NetworkSpec:
    loc = f"networks[{index}]"
    folder = _Folder(loc, record_line, source_map, warnings)
    fields: dict = {}
    for key, value, line in _pairs(node, loc):
        if key in ("name", "driver", "internal", "encryption", "subnet"):
            folder.take(key, value, line)
            folder.record(key, line)
            if key in ("internal", "encryption"):
                fields[key] = _bool(value, f"{loc}.{key}")
            else:
                fields[key] = _string(value, f"{loc}.{key}")
        else:
            folder.unknown(key, line)
    folder.require("name", record_line)
    folder.require("subnet", record_line)
    return NetworkSpec(**fields)


def _network_names(node: yaml.Node, line: int, loc: str, what: str, source_map: dict, networks: list[str]) -> None:
    """Append a ``network:`` entry's names: one scalar or a sequence of them."""
    items = [(item, _line(item)) for item in node.value] if isinstance(node, yaml.SequenceNode) else [(node, line)]
    for item, item_line in items:
        source_map[f"{loc}.networks[{len(networks)}]"] = item_line
        networks.append(_string(item, what))


def _parse_modules(node: yaml.Node, loc: str, source_map: dict, warnings: list[Diagnostic]):
    base: Optional[ModuleRef] = None
    volumes: list[ModuleRef] = []
    networks: list[str] = []
    seen_base_line: Optional[int] = None
    for key, value, line in _pairs(node, f"{loc}.modules"):
        if key == "base":
            if seen_base_line is not None:
                raise ParseFailure(
                    f"key 'base' repeated in {loc}.modules (first at line {seen_base_line})", line
                )
            seen_base_line = line
            source_map[f"{loc}.modules.base"] = line
            base = ModuleRef.parse(_string(value, f"{loc}.modules.base"))
        elif key == "volume":
            source_map[f"{loc}.modules.volumes[{len(volumes)}]"] = line
            volumes.append(ModuleRef.parse(_string(value, f"{loc}.modules.volume")))
        elif key == "network":
            _network_names(value, line, loc, f"{loc}.modules.network", source_map, networks)
        else:
            source_map[f"{loc}.modules.{key}"] = line
            warnings.append(
                Diagnostic("warning", "unknown-key", f"unknown key {key!r} ignored", f"{loc}.modules.{key}", line)
            )
    return base, tuple(volumes), networks


def _parse_container(node: yaml.Node, index: int, record_line: int, source_map: dict, warnings: list[Diagnostic]) -> ContainerSpec:
    loc = f"containers[{index}]"
    folder = _Folder(loc, record_line, source_map, warnings)
    fields: dict = {}
    networks: list[str] = []
    for key, value, line in _pairs(node, loc):
        if key == "name":
            folder.take(key, value, line)
            folder.record(key, line)
            fields["name"] = _string(value, f"{loc}.name")
        elif key == "modules":
            folder.take(key, value, line)
            folder.record(key, line)
            base, volumes, nets = _parse_modules(value, loc, source_map, warnings)
            if base is None:
                raise ParseFailure(f"missing mandatory key 'base' in {loc}.modules", line)
            fields["base"] = base
            fields["volumes"] = volumes
            networks.extend(nets)
        elif key == "ip":
            folder.take(key, value, line)
            folder.record(key, line)
            fields["ip"] = _string(value, f"{loc}.ip")
        elif key in ("cpus", "memory"):
            folder.take(key, value, line)
            folder.record(key, line)
            fields[key] = _int(value, f"{loc}.{key}")
        elif key == "extra-options":
            folder.take(key, value, line)
            source_map[f"{loc}.extra_options"] = line
            fields["extra_options"] = _string(value, f"{loc}.extra-options")
        else:
            folder.unknown(key, line)
    folder.require("name", record_line)
    folder.require("modules", record_line)
    fields["networks"] = tuple(networks)
    return ContainerSpec(**fields)


def _parse_vm(node: yaml.Node, index: int, record_line: int, source_map: dict, warnings: list[Diagnostic]) -> VmSpec:
    loc = f"vms[{index}]"
    folder = _Folder(loc, record_line, source_map, warnings)
    fields: dict = {}
    networks: list[str] = []
    for key, value, line in _pairs(node, loc):
        if key in ("name", "path", "ip"):
            folder.take(key, value, line)
            folder.record(key, line)
            fields[key] = _string(value, f"{loc}.{key}")
        elif key in ("cpus", "memory"):
            folder.take(key, value, line)
            folder.record(key, line)
            fields[key] = _int(value, f"{loc}.{key}")
        elif key == "network":
            _network_names(value, line, loc, f"{loc}.network", source_map, networks)
        else:
            folder.unknown(key, line)
    folder.require("name", record_line)
    folder.require("path", record_line)
    fields["networks"] = tuple(networks)
    return VmSpec(**fields)


def _unknown_top_level(key) -> str:
    # A map or a list as a key is named by its kind: a composed node's text
    # would carry the tags one loader resolves and the other does not.
    return f"unknown top-level key {key!r}" if isinstance(key, str) else "each top-level key must be a scalar"


def reference_parse_scenario_with_warnings(text: str) -> tuple[Scenario, list[Diagnostic]]:
    """Parse a scenario document; unknown record keys come back as warnings."""
    root = _compose(text)
    if root is None:
        return Scenario(), []
    if not isinstance(root, yaml.MappingNode):
        raise ParseFailure("scenario document must be a top-level map", _line(root))
    warnings: list[Diagnostic] = []
    source_map: dict = {}
    networks: list[NetworkSpec] = []
    containers: list[ContainerSpec] = []
    vms: list[VmSpec] = []
    flows: tuple[FlowSpec, ...] = ()
    for key_node, value_node in root.value:
        key = key_node.value
        if key == "networks":
            for i, (item, line) in enumerate(_tagged_items(value_node, "networks", ("network",)), len(networks)):
                networks.append(_parse_network(item, i, line, source_map, warnings))
        elif key == "containers":
            for i, (item, line) in enumerate(_tagged_items(value_node, "containers", ("container",)), len(containers)):
                containers.append(_parse_container(item, i, line, source_map, warnings))
        elif key == "vms":
            for i, (item, line) in enumerate(_tagged_items(value_node, "vms", ("vm",)), len(vms)):
                vms.append(_parse_vm(item, i, line, source_map, warnings))
        elif key == "flow":
            flows += tuple(_parse_flow_section(value_node, source_map, len(flows)))
        else:
            raise ParseFailure(_unknown_top_level(key), _line(key_node))
    scenario = Scenario(
        networks=tuple(networks),
        containers=tuple(containers),
        vms=tuple(vms),
        flows=flows,
        source_map=source_map,
    )
    return scenario, warnings


def _parse_flow_section(node: yaml.Node, source_map: dict, start: int) -> list[FlowSpec]:
    """``start`` numbers the section's first entry: a repeated ``flow:``
    section goes on where the one before it ended."""
    flows: list[FlowSpec] = []
    for index, (item, item_line) in enumerate(_tagged_items(node, "flow", ("container", "vm")), start):
        loc = f"flows[{index}]"
        source_map[loc] = item_line
        name: Optional[str] = None
        windows: list[WindowSpec] = []
        select: Optional[str] = None
        select_line: Optional[int] = None
        first: dict[str, int] = {}  # the line each of name and select is first given on
        for key, value, line in _pairs(item, loc):
            if key in ("name", "select"):
                if key in first:
                    raise ParseFailure(f"key {key!r} repeated in {loc} (first at line {first[key]})", line)
                first[key] = line
            if key == "name":
                name = _string(value, f"{loc}.name")
                source_map[f"{loc}.endpoint"] = line
            elif key == "window":
                source_map[f"{loc}.windows[{len(windows)}]"] = line
                windows.append(_parse_window(value, f"{loc}.windows[{len(windows)}]", source_map, line))
            elif key == "select":
                select = _string(value, f"{loc}.select")
                select_line = line
                source_map[f"{loc}.select"] = line
            else:
                raise ParseFailure(f"unknown key {key!r} in {loc}", line)
        if name is None:
            raise ParseFailure(f"missing mandatory key 'name' in {loc}", item_line)
        if select is not None and select not in {w.name for w in windows}:
            raise ParseFailure(f"selected window {select!r} is not defined for {name!r}", select_line)
        flows.append(FlowSpec(endpoint=name, windows=tuple(windows), select=select))
    return flows


def reference_parse_flow(text: str) -> list[FlowSpec]:
    """Parse a standalone flow document (top-level ``flow:``)."""
    root = _compose(text)
    if root is None:
        return []
    if not isinstance(root, yaml.MappingNode):
        raise ParseFailure("flow document must be a top-level map", _line(root))
    flows: list[FlowSpec] = []
    seen = False
    for key_node, value_node in root.value:
        if key_node.value == "flow":
            seen = True
            flows += _parse_flow_section(value_node, {}, len(flows))
        else:
            raise ParseFailure(_unknown_top_level(key_node.value), _line(key_node))
    if not seen:
        raise ParseFailure("flow document must contain a 'flow' section", _line(root))
    return flows


def reference_serialize_scenario(scenario: Scenario) -> str:
    """Emit the scenario in the same dialect; round-trips to an equal value."""
    lines: list[str] = []
    lines.append("networks:")
    for net in scenario.networks:
        lines.append("  - network:")
        lines.append(f"    - name: {_emit_scalar(net.name)}")
        lines.append(f"    - driver: {_emit_scalar(net.driver)}")
        lines.append(f"    - internal: {_emit_scalar(net.internal)}")
        lines.append(f"    - encryption: {_emit_scalar(net.encryption)}")
        lines.append(f"    - subnet: {_emit_scalar(net.subnet)}")
        lines.append("")
    if not scenario.networks:
        lines.append("")
    lines.append("containers:")
    for c in scenario.containers:
        lines.append("  - container:")
        lines.append(f"    - name: {_emit_scalar(c.name)}")
        lines.append("    - modules:")
        lines.append(f"        - base: {_emit_scalar(str(c.base))}")
        for vol in c.volumes:
            lines.append(f"        - volume: {_emit_scalar(str(vol))}")
        if c.networks:
            lines.append("        - network:")
            for net in c.networks:
                lines.append(f"          - {_emit_scalar(net)}")
        if c.ip is not None:
            lines.append(f"    - ip: {_emit_scalar(c.ip)}")
        lines.append(f"    - cpus: {_emit_scalar(c.cpus)}")
        lines.append(f"    - memory: {_emit_scalar(c.memory)}")
        if c.extra_options is not None:
            lines.append(f"    - extra-options: {_emit_scalar(c.extra_options)}")
        lines.append("")
    if not scenario.containers:
        lines.append("")
    if scenario.vms:
        lines.append("vms:")
        for v in scenario.vms:
            lines.append("  - vm:")
            lines.append(f"    - name: {_emit_scalar(v.name)}")
            lines.append(f"    - path: {_emit_scalar(v.path)}")
            for net in v.networks:
                lines.append(f"    - network: {_emit_scalar(net)}")
            if v.ip is not None:
                lines.append(f"    - ip: {_emit_scalar(v.ip)}")
            lines.append(f"    - cpus: {_emit_scalar(v.cpus)}")
            lines.append(f"    - memory: {_emit_scalar(v.memory)}")
            lines.append("")
    if scenario.flows:
        lines.append(serialize_flow(scenario.flows).rstrip("\n"))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# --- the mutation generator ----------------------------------------------------

_ENTRY_RE = re.compile(r"^( *)- ([^:#\n]+):(.*)$")  # "- key: value" lines
ODD_SCALARS = [
    "", "~", "null", "yes", "no", "on", "true", "0", "-1", "4", "1.5", "0x1f", "0o17", "1_000",
    "190:20:30", "2020-01-01", "2020-13-45", "=", "x", "a/b:1", "12.0.0.0/24", "horizontal.",
    "'quoted'", "'12'", '"a: b"', '"\\u2028"', ".nan", ".inf", "@x", "a #c", "process-network",
]
TAGS = ["!!str", "!!int", "!!bool", "!!null", "!!float", "!!binary", "!!timestamp", "!local", "!!python/name:os.system"]
KEYS = [
    "name", "subnet", "driver", "internal", "encryption", "modules", "base", "volume", "network",
    "ip", "cpus", "memory", "extra-options", "extra_options", "path", "window", "commands",
    "command", "split", "select", "fancy", "Name", "networks", "container", "vm",
]
MUTATIONS = [
    "repeat", "insert", "delete", "rekey", "nonscalar-key", "value", "tag", "alias",
    "block", "wrap", "sequence", "mapping", "indent", "raw",
]


def _mutate(data, lines: list[str], kind: str, n: int) -> None:
    """Apply one mutation to ``lines`` in place; ``n`` keeps anchors unique."""
    if not lines:
        lines.append("")
    i = data.draw(st.integers(0, len(lines) - 1))
    entry = _ENTRY_RE.match(lines[i])
    indent = len(lines[i]) - len(lines[i].lstrip(" "))
    if kind == "repeat":
        lines.insert(i + 1, lines[i])
    elif kind == "insert":
        key, value = data.draw(st.sampled_from(KEYS)), data.draw(st.sampled_from(ODD_SCALARS))
        lines.insert(i + 1, f"{' ' * indent}- {key}: {value}")
    elif kind == "delete":
        del lines[i : i + data.draw(st.integers(1, 3))]
    elif kind == "indent":
        lines[i] = "  " + lines[i] if data.draw(st.booleans()) else lines[i][2:]
    elif kind == "raw":
        lines.insert(i, data.draw(st.text(max_size=12)))
    elif entry is None:
        return
    elif kind == "rekey":
        lines[i] = f"{entry[1]}- {data.draw(st.sampled_from(KEYS))}:{entry[3]}"
    elif kind == "nonscalar-key":
        key = data.draw(st.sampled_from([f"[{entry[2]}]", f"{{{entry[2]}: 1}}"]))
        lines[i] = f"{entry[1]}- {key}:{entry[3]}"
    elif kind == "value":
        lines[i] = f"{entry[1]}- {entry[2]}: {data.draw(st.sampled_from(ODD_SCALARS))}"
    elif kind == "tag":
        lines[i] = f"{entry[1]}- {entry[2]}: {data.draw(st.sampled_from(TAGS))}{entry[3]}"
    elif kind == "alias":
        lines[i] = f"{entry[1]}- {entry[2]}: &a{n}{entry[3]}"
        j = data.draw(st.integers(0, len(lines) - 1))
        target = _ENTRY_RE.match(lines[j])
        if target is not None:
            lines[j] = f"{target[1]}- {target[2]}: *a{n}"
    elif kind == "block":
        style = data.draw(st.sampled_from(["|", ">", "|-", ">+"]))
        text = entry[3].strip() or data.draw(st.sampled_from(ODD_SCALARS))
        lines[i : i + 1] = [f"{entry[1]}- {entry[2]}: {style}", f"{' ' * (indent + 6)}{text}"]
    elif kind == "wrap":  # the value on the next line, as a continuation
        lines[i : i + 1] = [f"{entry[1]}- {entry[2]}:", f"{' ' * (indent + 6)}{entry[3].strip() or 'x'}"]
    elif kind == "sequence":
        value = entry[3].strip() or "x"
        if data.draw(st.booleans()):
            lines[i] = f"{entry[1]}- {entry[2]}: [{value}, {value}]"
        else:
            lines[i : i + 1] = [f"{entry[1]}- {entry[2]}:", f"{' ' * (indent + 2)}- {value}"]
    elif kind == "mapping":
        lines[i] = f"{entry[1]}- {entry[2]}: {{a: {entry[3].strip() or 'b'}}}"


@st.composite
def mutated(draw, bases):
    """A base document with up to four line mutations applied."""
    lines = draw(bases).split("\n")
    data = draw(st.data())
    for n, kind in enumerate(draw(st.lists(st.sampled_from(MUTATIONS), max_size=4))):
        _mutate(data, lines, kind, n)
    return "\n".join(lines)


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


SCENARIO_TEXTS = [
    _fixture("listing1.yaml"),
    _fixture("listing2.yaml"),
    _fixture("listing1.yaml") + _fixture("listing2.yaml"),
    _fixture("rosnet.yaml") + _fixture("listing3.yaml"),
]
scenario_bases = st.one_of(
    st.sampled_from(SCENARIO_TEXTS),
    scenarios().map(reference_serialize_scenario),
    scenarios().map(serialize_scenario),
)
flow_bases = st.one_of(
    st.just(_fixture("listing3.yaml")),
    scenarios().map(lambda s: serialize_flow(s.flows)),
)
documents = st.one_of(mutated(scenario_bases), mutated(flow_bases))


def _outcome(parse, text: str):
    try:
        result = parse(text)
    except ParseFailure as exc:
        return ("ParseFailure", exc.message, exc.line, exc.column)
    if isinstance(result, tuple):  # (scenario, warnings)
        return ("ok", result[0], result[0].source_map, result[1])
    return ("ok", result)


# --- the tests -------------------------------------------------------------------

def _readers_agree(text: str) -> None:
    assert _outcome(parse_scenario_with_warnings, text) == _outcome(reference_parse_scenario_with_warnings, text)
    assert _outcome(parse_flow, text) == _outcome(reference_parse_flow, text)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_readers_match_oracle(text):
    """Both readers agree with the oracle on values, source maps, warnings
    and failure messages and lines.  ``_outcome`` lets anything but
    ``ParseFailure`` through, so this is also the property that any text
    given to ``parse_scenario`` or ``parse_flow`` returns a value or raises
    ``ParseFailure``, and nothing else."""
    _readers_agree(text)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(st.sampled_from(SCENARIO_TEXTS + [_fixture("listing3.yaml")])))
def test_readers_match_oracle_pure_python(text):
    """The same on PyYAML's pure-Python classes, over mutated fixtures: the
    classes differ in composing, which the small documents reach as well."""
    with pure_python_classes():
        _readers_agree(text)


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_writer_round_trips_like_oracle(scenario):
    """The bytes differ (one ``- network: NAME`` entry per name, no empty
    sections); what they parse to does not."""
    assert parse_scenario(serialize_scenario(scenario)) == parse_scenario(reference_serialize_scenario(scenario)) == scenario


class _Script:
    """Stands in for ``st.data()``: hands out the scripted draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def draw(self, strategy):
        return self.draws.pop(0)


def _at(text: str, needle: str) -> int:
    return next(i for i, line in enumerate(text.split("\n")) if needle in line)


LISTING1, LISTING2 = SCENARIO_TEXTS[:2]
WITH_FLOW = SCENARIO_TEXTS[3]
LISTING3 = _fixture("listing3.yaml")


MUTATION_CASES = pytest.mark.parametrize(
    "text, kind, draws, expected",
    [
        (LISTING1, "insert", [_at(LISTING1, "12.0.0.0/24"), "fancy", "x"], "unknown key 'fancy' ignored"),
        (LISTING1, "repeat", [_at(LISTING1, "cpus: 4")], "key 'cpus' repeated in containers[0] (first at line 22)"),
        (LISTING1, "delete", [_at(LISTING1, "17.0.0.0/24"), 1], "missing mandatory key 'subnet' in networks[1]"),
        (LISTING1, "delete", [_at(LISTING1, "- base:"), 1], "missing mandatory key 'base' in containers[0].modules"),
        (LISTING2, "delete", [_at(LISTING2, "name: irc5"), 2], "missing mandatory key 'name' in vms[0]"),
        (LISTING1, "nonscalar-key", [_at(LISTING1, "driver"), "[driver]"], "each key under networks[0] must be a scalar"),
        (LISTING1, "sequence", [_at(LISTING1, "name: attacker"), True], "expected a scalar value"),
        (LISTING1, "alias", [_at(LISTING1, "name: process-network"), _at(LISTING1, "ip: 12.0.0.20")], None),
        (LISTING1, "tag", [_at(LISTING1, "cpus: 4"), "!!str"], None),
        (LISTING1, "block", [_at(LISTING1, "extra-options"), "|"], None),
        (WITH_FLOW, "value", [_at(WITH_FLOW, "select: attack"), "x"], "selected window 'x' is not defined for 'attacker'"),
        (LISTING3, "repeat", [_at(LISTING3, "name: rosmachine")], "key 'name' repeated in flows[0] (first at line 4)"),
        (
            WITH_FLOW,
            "repeat",
            [_at(WITH_FLOW, "select: attack")],
            f"key 'select' repeated in flows[1] (first at line {_at(WITH_FLOW, 'select: attack') + 1})",
        ),
        (
            WITH_FLOW,
            "repeat",
            [_at(WITH_FLOW, "name: setup")],
            f"key 'name' repeated in flows[1].windows[0] (first at line {_at(WITH_FLOW, 'name: setup') + 1})",
        ),
        (WITH_FLOW, "insert", [_at(WITH_FLOW, "name: setup"), "fancy", "x"], "unknown key 'fancy' in flows[1].windows[0]"),
    ],
    ids=[
        "unknown", "repeated", "missing", "missing-nested", "missing-both", "nonscalar", "sequence", "alias", "tag",
        "block", "select", "repeated-flow-name", "repeated-select", "repeated-window-name", "unknown-in-window",
    ],
)


@MUTATION_CASES
def test_mutations_reach_each_rule(text, kind, draws, expected):
    """Each mutation does what its name says, and the oracle agrees."""
    lines = text.split("\n")
    _mutate(_Script(*draws), lines, kind, 0)
    mutant = "\n".join(lines)
    outcome = _outcome(parse_scenario_with_warnings, mutant)
    assert outcome == _outcome(reference_parse_scenario_with_warnings, mutant)
    if expected is None:
        assert outcome[0] == "ok" and not outcome[3] and mutant != text
    elif outcome[0] == "ok":
        assert [w.message for w in outcome[3]] == [expected]
    else:
        assert outcome[1] == expected


@MUTATION_CASES
def test_mutations_reach_each_rule_pure_python(text, kind, draws, expected):
    with pure_python_classes():
        test_mutations_reach_each_rule(text, kind, draws, expected)
