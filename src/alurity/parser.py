"""Reader/writer for the scenario and flow YAML dialect.

The dialect encodes records as sequences of single-key maps::

    networks:
      - network:
        - name: process-network
        - subnet: 12.0.0.0/24

Parsing folds such sequences into one record; repeated repeatable keys
(``volume:``, ``network:``) accumulate in document order.  Serialization
emits the same dialect so that ``parse(serialize(s)) == s``.
"""

from __future__ import annotations

import json
import re
from typing import Optional

import yaml

from .model import (
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


class ParseFailure(Exception):
    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.message = message
        self.line = line
        self.column = column
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


_SPLIT_DIRECTIONS = {"horizontal", "vertical"}

# Every YAML read and write in the package goes through this pair: libyaml
# when PyYAML was built with it, the pure-Python classes otherwise.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_yaml(stream):
    return yaml.load(stream, Loader=YAML_LOADER)


def dump_yaml(doc) -> str:
    return yaml.dump(doc, Dumper=YAML_DUMPER, sort_keys=False, default_flow_style=False)


def _compose(text: str) -> Optional[yaml.Node]:
    try:
        return yaml.compose(text, Loader=YAML_LOADER)
    except UnicodeEncodeError as exc:  # lone surrogates cannot reach libyaml
        raise ParseFailure(f"malformed YAML: {exc.reason}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else None
        col = mark.column + 1 if mark else None
        raise ParseFailure(f"malformed YAML: {getattr(exc, 'problem', exc)}", line, col) from exc


def _line(node: yaml.Node) -> int:
    return node.start_mark.line + 1


_RESOLVER = yaml.resolver.Resolver()
_CONSTRUCTOR = yaml.constructor.SafeConstructor()
_STR_TAG = "tag:yaml.org,2002:str"


def _scalar(node: yaml.Node):
    """A scalar's value as YAML's implicit typing reads its text.

    Plain scalars are typed by the resolver and built by the safe
    constructor for that tag, without re-parsing the text as a document.
    Text that matches a tag's pattern but does not construct (``=``, a
    timestamp such as ``2020-13-45``) stays text.
    """
    if not isinstance(node, yaml.ScalarNode):
        raise ParseFailure("expected a scalar value", _line(node))
    text = node.value
    if node.style in ('"', "'"):
        return text
    if text == "":
        return None
    try:
        if node.style in ("|", ">"):  # a block scalar: its text is re-read
            return load_yaml(text)
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
        out.append((key_node.value, value_node, _line(key_node)))
    return out


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


def _parse_network(node: yaml.Node, index: int, source_map: dict, warnings: list[Diagnostic]) -> NetworkSpec:
    loc = f"networks[{index}]"
    folder = _Folder(loc, _line(node), source_map, warnings)
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
    folder.require("name", _line(node))
    folder.require("subnet", _line(node))
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


def _parse_container(node: yaml.Node, index: int, source_map: dict, warnings: list[Diagnostic]) -> ContainerSpec:
    loc = f"containers[{index}]"
    folder = _Folder(loc, _line(node), source_map, warnings)
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
    folder.require("name", _line(node))
    folder.require("modules", _line(node))
    fields["networks"] = tuple(networks)
    return ContainerSpec(**fields)


def _parse_vm(node: yaml.Node, index: int, source_map: dict, warnings: list[Diagnostic]) -> VmSpec:
    loc = f"vms[{index}]"
    folder = _Folder(loc, _line(node), source_map, warnings)
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
    folder.require("name", _line(node))
    folder.require("path", _line(node))
    fields["networks"] = tuple(networks)
    return VmSpec(**fields)


def _tagged_items(node: yaml.Node, section: str, tags: tuple[str, ...]) -> list[yaml.Node]:
    """Unwrap ``- network:`` / ``- container:`` wrapper entries."""
    if node is None or (isinstance(node, yaml.ScalarNode) and node.value == ""):
        return []
    out = []
    for key, value, line in _pairs(node, section):
        if key not in tags:
            expected = " or ".join(repr(tag) for tag in tags)
            raise ParseFailure(f"expected {expected} entries under {section}, got {key!r}", line)
        out.append(value)
    return out


def parse_scenario(text: str) -> Scenario:
    scenario, _ = parse_scenario_with_warnings(text)
    return scenario


def parse_scenario_with_warnings(text: str) -> tuple[Scenario, list[Diagnostic]]:
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
            for i, item in enumerate(_tagged_items(value_node, "networks", ("network",))):
                networks.append(_parse_network(item, i, source_map, warnings))
        elif key == "containers":
            for i, item in enumerate(_tagged_items(value_node, "containers", ("container",))):
                containers.append(_parse_container(item, i, source_map, warnings))
        elif key == "vms":
            for i, item in enumerate(_tagged_items(value_node, "vms", ("vm",))):
                vms.append(_parse_vm(item, i, source_map, warnings))
        elif key == "flow":
            flows = tuple(_parse_flow_section(value_node, source_map))
        else:
            raise ParseFailure(f"unknown top-level key {key!r}", _line(key_node))
    scenario = Scenario(
        networks=tuple(networks),
        containers=tuple(containers),
        vms=tuple(vms),
        flows=flows,
        source_map=source_map,
    )
    return scenario, warnings


def _normalize_split(raw: str) -> str:
    return raw.rstrip(".,;:! ")


def _parse_window(node: yaml.Node, loc: str, source_map: dict) -> WindowSpec:
    name: Optional[str] = None
    items: list[object] = []
    for key, value, line in _pairs(node, loc):
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
        raise ParseFailure(f"missing mandatory key 'name' in {loc}", _line(node))
    return WindowSpec(name=name, items=tuple(items))


def _parse_flow_section(node: yaml.Node, source_map: dict) -> list[FlowSpec]:
    flows: list[FlowSpec] = []
    for index, item in enumerate(_tagged_items(node, "flow", ("container", "vm"))):
        loc = f"flows[{index}]"
        source_map[loc] = _line(item)
        name: Optional[str] = None
        windows: list[WindowSpec] = []
        select: Optional[str] = None
        select_line: Optional[int] = None
        for key, value, line in _pairs(item, loc):
            if key == "name":
                name = _string(value, f"{loc}.name")
                source_map[f"{loc}.name"] = line
            elif key == "window":
                source_map[f"{loc}.windows[{len(windows)}]"] = line
                windows.append(_parse_window(value, f"{loc}.windows[{len(windows)}]", source_map))
            elif key == "select":
                select = _string(value, f"{loc}.select")
                select_line = line
                source_map[f"{loc}.select"] = line
            else:
                raise ParseFailure(f"unknown key {key!r} in {loc}", line)
        if name is None:
            raise ParseFailure(f"missing mandatory key 'name' in {loc}", _line(item))
        if select is not None and select not in {w.name for w in windows}:
            raise ParseFailure(f"selected window {select!r} is not defined for {name!r}", select_line)
        flows.append(FlowSpec(endpoint=name, windows=tuple(windows), select=select))
    return flows


def parse_flow(text: str) -> list[FlowSpec]:
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
            flows = _parse_flow_section(value_node, {})
        else:
            raise ParseFailure(f"unknown top-level key {key_node.value!r}", _line(key_node))
    if not seen:
        raise ParseFailure("flow document must contain a 'flow' section", _line(root))
    return flows


# --- serialization -----------------------------------------------------------

_BARE_RE = re.compile(r"[A-Za-z0-9$_./()=@+,^~:-]+")
# Characters JSON leaves raw that YAML 1.1 rejects (DEL, C1, BOM, U+FFFE,
# U+FFFF) or folds as line breaks (NEL, U+2028, U+2029) in a quoted scalar.
_UNSAFE_IN_QUOTES_RE = re.compile("[\x7f-\x9f\u2028\u2029\ufeff\ufffe\uffff]")
_JSON_STRING = json.JSONEncoder(ensure_ascii=False).encode


def quote(text: str) -> str:
    """``text`` as a YAML double-quoted scalar.

    libyaml and PyYAML's pure-Python loader both read the result back as
    exactly ``text``, for any string without lone surrogates.  ASCII text
    comes out as ``json.dumps`` writes it; other characters stay raw, so
    astral ones are not split into surrogate-pair escapes.
    """
    return _UNSAFE_IN_QUOTES_RE.sub(lambda m: f"\\u{ord(m.group()):04x}", _JSON_STRING(text))


def _emit_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    s = str(value)
    if _BARE_RE.fullmatch(s) and ": " not in s:
        try:
            if isinstance(load_yaml(s), str):
                return s
        except (ValueError, yaml.YAMLError):
            pass
    return quote(s)


def serialize_scenario(scenario: Scenario) -> str:
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


def serialize_flow(flows) -> str:
    lines: list[str] = ["flow:"]
    for flow in flows:
        lines.append("  - container:")
        lines.append(f"    - name: {_emit_scalar(flow.endpoint)}")
        for window in flow.windows:
            lines.append("    - window:")
            lines.append(f"      - name: {_emit_scalar(window.name)}")
            if window.items:
                lines.append("      - commands:")
                for item in window.items:
                    if isinstance(item, Command):
                        lines.append(f"        - command: {quote(item.text)}")
                    else:
                        lines.append(f"        - split: {item.direction}")
        if flow.select is not None:
            lines.append(f"    - select: {_emit_scalar(flow.select)}")
    return "\n".join(lines) + "\n"
