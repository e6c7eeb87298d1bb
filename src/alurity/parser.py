"""Reader/writer for the scenario and flow YAML dialect.

The dialect encodes records as sequences of single-key maps::

    networks:
      - network:
        - name: process-network
        - subnet: 12.0.0.0/24

One key table per record type (network, container, a container's
``modules``, vm, a flow entry, a window) names the record's keys, fields,
order and which keys are required or may repeat.  Parsing folds a record's
sequence through its table; repeated repeatable keys (``volume:``,
``network:``, ``window:``) accumulate in document order.  Serialization
walks the same tables for all four sections (networks, containers, vms and
flows), so ``parse(serialize(s)) == s``; ``serialize_flow`` writes a flow
document as a scenario of its flows alone.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import re
from typing import Optional

import yaml
from yaml import MappingNode, ScalarNode, SequenceNode

from .model import (
    Command,
    ContainerSpec,
    Diagnostic,
    FlowSpec,
    ModuleRef,
    NetworkSpec,
    Scenario,
    SourceMap,
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
_TOO_DEEP = "nested too deeply to read"

# libyaml when PyYAML was built with it, the pure-Python classes otherwise.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _NodeLoader(YAML_LOADER):
    """Composes nodes and leaves their tags unresolved.

    Nothing reads ``node.tag``, so explicit tags are ignored: ``_scalar``
    and ``_built`` type each plain scalar where it is read.  Skipping the
    resolver is exact: the safe loaders register no path resolvers, so it
    never steers composition.

    The composer calls ``descend_resolver`` and ``ascend_resolver`` around
    every node.  PyYAML's versions keep the state of path resolvers, which
    only ``resolve`` reads, so with ``resolve`` replaced they are no-ops
    here and the composed tree is the same, node for node.
    """

    def resolve(self, kind, value, implicit):
        return None

    def descend_resolver(self, current_node, current_index):
        pass

    def ascend_resolver(self):
        pass


def compose_yaml(text: str) -> Optional[yaml.Node]:
    """The root node of the document in ``text``, None for an empty one;
    ``ParseFailure`` when it cannot be composed or nests too deeply."""
    try:
        _refuse_deep_nesting(text)
        return yaml.compose(text, Loader=_NodeLoader)
    except UnicodeEncodeError as exc:  # lone surrogates cannot reach libyaml
        raise ParseFailure(f"malformed YAML: {exc.reason}") from exc
    except RecursionError as exc:  # the pure-Python composer recurses per level
        raise ParseFailure(_TOO_DEEP) from exc
    except yaml.YAMLError as exc:
        raise _malformed(exc) from exc


# libyaml's composer recurses in C once per level of nesting and overflows
# an 8 MiB C stack between 20,000 and 40,000 levels down, so it is given no
# document nested deeper than _MAX_DEPTH.  The pure-Python composer raises
# RecursionError long before that depth.
_MAX_DEPTH = 10_000
_SCREEN_WIDTH = 1_000
# What may come before a block collection that starts on a line: the
# indentation and the indicators of compact entries (``- - x``, ``? - x``).
_BLOCK_PREFIX_RE = re.compile(r"[-?: \t]*")
_OTHER_BREAK_RE = re.compile("[\r\x85\u2028\u2029]")  # libyaml's line breaks besides "\n"


def _shallow(text: str) -> bool:
    """Whether a scan without parsing shows that ``text`` nests at most
    ``_MAX_DEPTH`` deep.

    Each ``[`` or ``{`` opens at most two levels (a flow sequence and a
    single-pair map in it).  A block collection starts within its line's
    block prefix, and at least one column further in than the block
    collection two levels up, so block levels are at most twice the longest
    block prefix.  Every block prefix is shorter than ``2 * _SCREEN_WIDTH``
    when each aligned window of ``_SCREEN_WIDTH`` characters holds a line
    feed or lies in a line whose block prefix is shorter than the window and
    which holds no other line break.
    """
    width = _SCREEN_WIDTH
    if 2 * (text.count("[") + text.count("{")) + 4 * width + 3 > _MAX_DEPTH:
        return False
    end = 0  # the end of the last long line checked
    for start in range(0, len(text) - width + 1, width):
        if start < end or text.find("\n", start, start + width) >= 0:
            continue
        line = text.rfind("\n", 0, start) + 1
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        if _BLOCK_PREFIX_RE.match(text, line).end() - line >= width or _OTHER_BREAK_RE.search(text, line, end):
            return False
    return True


def _refuse_deep_nesting(text: str) -> None:
    """``ParseFailure`` if libyaml would compose ``text`` deeper than
    ``_MAX_DEPTH``; only a text ``_shallow`` cannot clear has its events
    counted."""
    if issubclass(_NodeLoader, yaml.composer.Composer) or _shallow(text):
        return
    depth = 0
    for event in yaml.parse(text, Loader=_NodeLoader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                raise ParseFailure(_TOO_DEEP, event.start_mark.line + 1)
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def build_yaml(node: Optional[yaml.Node], empty=None):
    """``_built`` of a node from ``compose_yaml``, ``empty`` for an empty
    document; ``ParseFailure`` where ``_built`` fails or nests too deeply."""
    if node is None:
        return empty
    try:
        return _built(node, {})
    except RecursionError as exc:  # _built recurses once per level of nesting
        raise ParseFailure(_TOO_DEEP) from exc


def _malformed(exc: Exception) -> ParseFailure:
    mark = getattr(exc, "problem_mark", None)
    line, col = (mark.line + 1, mark.column + 1) if mark else (None, None)
    return ParseFailure(f"malformed YAML: {getattr(exc, 'problem', exc)}", line, col)


def read_text(path: str) -> str:
    """The text of the file at ``path``; ``ParseFailure`` if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseFailure(f"not UTF-8: {exc}") from exc


def load_yaml_map(path: str) -> dict:
    """The map a YAML file holds, ``{}`` for an empty file.  ``ParseFailure``
    when the file is malformed or holds anything but a map, or where
    ``build_yaml`` fails."""
    text = read_text(path)
    with _collector_paused():
        doc = build_yaml(compose_yaml(text), {})
    if not isinstance(doc, dict):
        raise ParseFailure(f"expected a map at the top level, got a {type(doc).__name__}")
    return doc


def _built(node: yaml.Node, built: dict):
    """The safe constructor's value for ``node``, each scalar read by
    ``_scalar``; plain text that matches a type's pattern but does not
    construct (``2020-13-45``, ``=``) is a ``ParseFailure``.  ``built`` maps
    each collection node to its value, so aliases share one value and nested
    ones cost one build each.  As in the constructor, maps merged by ``<<``
    come first, the first of a list winning."""
    if isinstance(node, ScalarNode):
        value = _scalar(node)
        if type(value) is str and not node.style and value[:1] in _TYPED_FIRST and (tag := _typed(value)[0]) != _STR_TAG:
            raise ParseFailure(f"{value!r} is not a valid {tag.rpartition(':')[2]}; quote it for text", _line(node))
        return value
    if node in built:
        if built[node] is None:
            raise ParseFailure("a node contains itself", _line(node))
        return built[node]
    built[node] = None
    if isinstance(node, SequenceNode):
        value = [_built(item, built) for item in node.value]
    else:
        value = {}
        for key_node, value_node in node.value:
            if key_node.value == "<<" and not key_node.style:
                for source in value_node.value[::-1] if isinstance(value_node, SequenceNode) else [value_node]:
                    if not isinstance(source, MappingNode):
                        raise ParseFailure("a merge key takes a map or a list of maps", _line(source))
                    value.update(_built(source, built))
        for key_node, value_node in node.value:
            if not isinstance(key_node, ScalarNode):
                if key_node in built:  # an alias: the composer hands back the node it names
                    kind = "map" if isinstance(key_node, MappingNode) else "list"
                    where = f"the {kind} at line {_line(key_node)}"
                    raise ParseFailure(f"an alias of {where} is used as a key in the map at line {_line(node)}", _line(node))
                raise ParseFailure("a map or a list is used as a key", _line(key_node))
            if key_node.value != "<<" or key_node.style:  # "=", YAML's value key, reads as text
                value["=" if key_node.value == "=" else _built(key_node, built)] = _built(value_node, built)
    built[node] = value
    return value


def compile_regex(pattern, what: str) -> re.Pattern:
    """``pattern`` compiled; ``ParseFailure`` naming ``what`` if it is not a regex."""
    try:
        return re.compile(pattern)
    except (TypeError, re.error, OverflowError, RecursionError) as exc:
        raise ParseFailure(f"{what} is not a regex: {exc}") from exc


def _line(node: yaml.Node) -> int:
    return node.start_mark.line + 1


_RESOLVER = yaml.resolver.Resolver()
_CONSTRUCTOR = yaml.constructor.SafeConstructor()
_STR_TAG = "tag:yaml.org,2002:str"
# The resolver picks a plain scalar's candidate tags by its first character,
# so text that starts with a character no implicit resolver is registered for
# resolves to a string.  (No safe resolver is registered for any first
# character, under the key None.)
_TYPED_FIRST = frozenset(_RESOLVER.yaml_implicit_resolvers)


def _scalar(node: yaml.Node):
    """A scalar's value: a quoted or block scalar is its text, and a plain
    one is typed by ``_typed`` (so empty plain text is None)."""
    if not isinstance(node, ScalarNode):
        raise ParseFailure("expected a scalar value", _line(node))
    text = node.value
    return text if node.style or text[:1] not in _TYPED_FIRST else _typed(text)[1]


@functools.lru_cache(maxsize=1024)
def _typed(text: str) -> tuple:
    """``(tag, value)`` for plain scalar ``text``: the tag YAML 1.1's
    resolver gives it and the value the safe constructor builds for that tag,
    the text itself when it does not construct.

    Most texts repeat within a document (``cpus``, ``memory``, network
    names), so each is typed once.  Sharing a value between callers is safe:
    every implicit type (None, bool, int, float, str, date, datetime) is
    immutable.
    """
    tag = _RESOLVER.resolve(ScalarNode, text, (True, False))
    construct = None if tag == _STR_TAG else _CONSTRUCTOR.yaml_constructors.get(tag)
    try:
        return tag, text if construct is None else construct(_CONSTRUCTOR, ScalarNode(tag, text))
    except (ValueError, yaml.YAMLError):
        return tag, text


# Readers take the record's ``loc`` and the ``key`` apart and join them only
# for a message.


def _string(node: yaml.Node, loc: str, key: str) -> str:
    if isinstance(node, ScalarNode) and (node.style or node.value[:1] not in _TYPED_FIRST):
        return node.value  # quoted or block, or plain text no implicit type can match
    value = _scalar(node)
    if value is None:
        raise ParseFailure(f"{loc}.{key} must not be empty", _line(node))
    return value if isinstance(value, str) else str(value)


def _int(node: yaml.Node, loc: str, key: str) -> int:
    value = _scalar(node)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseFailure(f"{loc}.{key} must be an integer, got {value!r}", _line(node))
    return value


def _bool(node: yaml.Node, loc: str, key: str) -> bool:
    value = _scalar(node)
    if not isinstance(value, bool):
        raise ParseFailure(f"{loc}.{key} must be a boolean, got {value!r}", _line(node))
    return value


def _entry(item: yaml.Node, what: str) -> tuple[yaml.Node, yaml.Node]:
    """The (key node, value node) of one single-key map entry."""
    if not isinstance(item, MappingNode) or len(item.value) != 1:
        raise ParseFailure(f"each entry under {what} must be a single-key map", _line(item))
    key_node, value_node = item.value[0]
    if not isinstance(key_node, ScalarNode):
        raise ParseFailure(f"each key under {what} must be a scalar", _line(key_node))
    return key_node, value_node


def _pairs(node: yaml.Node, what: str) -> list[tuple[str, yaml.Node, int]]:
    """Flatten a sequence of single-key maps into (key, value node, line)."""
    if not isinstance(node, SequenceNode):
        raise ParseFailure(f"{what} must be a sequence of single-key maps", _line(node))
    out = []
    for item in node.value:
        key_node, value_node = _entry(item, what)
        out.append((key_node.value, value_node, _line(key_node)))
    return out


# --- records -----------------------------------------------------------------
#
# The key tables are the dialect: each maps a record's YAML keys, in the order
# the writer emits them, to (field, attr, reader, count).  ``field`` is the
# value's source-map path below the record and ``attr``, its last part, the
# spec's attribute.  ``count`` is "1" for a required key, "?" for an optional
# one and "*" for a key that may repeat.  A reader of a single key returns the
# value; a reader of a repeating key returns (value, line) items.  A table in
# a reader's place is a nested record: a single one's fields belong to the
# enclosing spec, each entry of a repeating one is built into its own spec.


def _once(seen: dict, key: str, loc: str, line: int) -> None:
    """Note ``key`` of ``loc`` at ``line``; ``ParseFailure`` if already noted."""
    if key in seen:
        raise ParseFailure(f"key {key!r} repeated in {loc} (first at line {seen[key]})", line)
    seen[key] = line


def _ref(node: yaml.Node, loc: str, key: str) -> ModuleRef:
    return ModuleRef.parse(_string(node, loc, key))


def _refs(node: yaml.Node, line: int, loc: str, key: str) -> list:
    return [(_ref(node, loc, key), line)]


def _names(node: yaml.Node, line: int, loc: str, key: str) -> list:
    """One network name, or a sequence of names each on its own line."""
    if isinstance(node, SequenceNode):
        return [(_string(item, loc, key), _line(item)) for item in node.value]
    return [(_string(node, loc, key), line)]


def _normalize_split(raw: str) -> str:
    return raw.rstrip(".,;:! ")


def _commands(node: yaml.Node, loc: str, key: str) -> tuple:
    """A window's ``command:`` and ``split:`` entries, in order."""
    what = f"{loc}.commands"
    if not isinstance(node, SequenceNode):
        raise ParseFailure(f"{what} must be a sequence of single-key maps", _line(node))
    items: list[object] = []
    try:
        for entry in node.value:
            key_node, value = _entry(entry, what)
            if key_node.value == "command":
                items.append(Command(_string(value, loc, "commands.command")))
            elif key_node.value == "split":
                direction = _normalize_split(_string(value, loc, "commands.split"))
                if direction not in _SPLIT_DIRECTIONS:
                    raise ParseFailure(f"unknown split direction {direction!r}", _line(key_node))
                items.append(Split(direction))
            else:
                raise ParseFailure(f"unknown key {key_node.value!r} under {what}", _line(key_node))
    except ParseFailure:
        _pairs(node, what)  # a malformed entry anywhere in the list is reported first
        raise
    return tuple(items)


class _Table(dict):
    """A key table: key -> (field, attr, reader, count).  ``spec`` builds the
    record (None for one whose fields belong to the enclosing spec); in a
    ``strict`` table an unknown key is an error, not a warning.  ``required``
    and ``repeated`` list its "1" keys and its "*" attributes."""

    def __init__(self, keys: dict, spec=None, strict: bool = False):
        super().__init__({key: (field, field.rpartition(".")[2], reader, count) for key, (field, reader, count) in keys.items()})
        self.spec, self.strict = spec, strict
        self.required = tuple(key for key, (_, _, count) in keys.items() if count == "1")
        self.repeated = tuple(field.rpartition(".")[2] for field, _, count in keys.values() if count == "*")


_NETWORK_KEYS = _Table({
    "name": ("name", _string, "1"),
    "driver": ("driver", _string, "?"),
    "internal": ("internal", _bool, "?"),
    "encryption": ("encryption", _bool, "?"),
    "subnet": ("subnet", _string, "1"),
}, NetworkSpec)
_MODULE_KEYS = _Table({
    "base": ("modules.base", _ref, "1"),
    "volume": ("modules.volumes", _refs, "*"),
    "network": ("networks", _names, "*"),
})
_CONTAINER_KEYS = _Table({
    "name": ("name", _string, "1"),
    "modules": ("modules", _MODULE_KEYS, "1"),
    "ip": ("ip", _string, "?"),
    "cpus": ("cpus", _int, "?"),
    "memory": ("memory", _int, "?"),
    "extra-options": ("extra_options", _string, "?"),
}, ContainerSpec)
_VM_KEYS = _Table({
    "name": ("name", _string, "1"),
    "path": ("path", _string, "1"),
    "network": ("networks", _names, "*"),
    "ip": ("ip", _string, "?"),
    "cpus": ("cpus", _int, "?"),
    "memory": ("memory", _int, "?"),
}, VmSpec)
_WINDOW_KEYS = _Table({
    "name": ("name", _string, "1"),
    "commands": ("items", _commands, "?"),
}, WindowSpec, strict=True)
_FLOW_KEYS = _Table({
    "name": ("endpoint", _string, "1"),
    "window": ("windows", _WINDOW_KEYS, "*"),
    "select": ("select", _string, "?"),
}, FlowSpec, strict=True)
# section -> (Scenario field, entry keys, key table), in document order
_SECTIONS = {
    "networks": ("networks", ("network",), _NETWORK_KEYS),
    "containers": ("containers", ("container",), _CONTAINER_KEYS),
    "vms": ("vms", ("vm",), _VM_KEYS),
    "flow": ("flows", ("container", "vm"), _FLOW_KEYS),
}


def _fold(node: yaml.Node, loc: str, line: int, keys: _Table, parts: list, warnings: list, owner: str = "") -> dict:
    """A record's fields, folded from its single-key maps by its key table.

    ``loc`` names the record in messages and ``line`` is reported for a
    missing key.  Each line read is appended to ``parts`` as a ``SourceMap``
    part, its path below ``owner``, the record itself unless it is nested.
    A repeating key's values collect in a list, made a tuple once the record
    is read.
    """
    owner = owner or loc
    parts.append((loc, None, None, line))
    if not isinstance(node, SequenceNode):
        raise ParseFailure(f"{loc} must be a sequence of single-key maps", _line(node))
    fields: dict = {attr: [] for attr in keys.repeated}
    seen: dict[str, int] = {}
    try:
        for pair in node.value:
            if isinstance(pair, MappingNode) and len(pair.value) == 1 and isinstance(pair.value[0][0], ScalarNode):
                key_node, value = pair.value[0]
            else:
                key_node, value = _entry(pair, loc)  # raises the entry's error
            key = key_node.value
            key_line = key_node.start_mark.line + 1
            entry = keys.get(key)
            if entry is None:
                if keys.strict:
                    raise ParseFailure(f"unknown key {key!r} in {loc}", key_line)
                parts.append((loc, key, None, key_line))
                warnings.append(Diagnostic("warning", "unknown-key", f"unknown key {key!r} ignored", f"{loc}.{key}", key_line))
                continue
            path, attr, reader, count = entry
            if count == "*":
                items = fields[attr]
                if isinstance(reader, _Table):
                    where = f"{owner}.{path}[{len(items)}]"
                    items.append(reader.spec(**_fold(value, where, key_line, reader, parts, warnings)))
                    continue
                for item, item_line in reader(value, key_line, loc, key):
                    parts.append((owner, path, len(items), item_line))
                    items.append(item)
                continue
            _once(seen, key, loc, key_line)
            parts.append((owner, path, None, key_line))
            if isinstance(reader, _Table):
                fields.update(_fold(value, f"{loc}.{key}", key_line, reader, parts, warnings, owner))
            else:
                fields[attr] = reader(value, loc, key)
    except ParseFailure:
        _pairs(node, loc)  # a malformed entry anywhere in the record is reported first
        raise
    for attr in keys.repeated:
        fields[attr] = tuple(fields[attr])
    for key in keys.required:
        if key not in seen:
            raise ParseFailure(f"missing mandatory key {key!r} in {loc}", line)
    return fields


def _tagged_items(node: yaml.Node, section: str, tags: tuple[str, ...]) -> list[tuple[str, yaml.Node, int]]:
    """Check ``- network:`` / ``- container:`` wrapper entries: each
    entry's tag, the record's node and the line of its entry."""
    if node is None or (isinstance(node, ScalarNode) and node.value == ""):
        return []
    pairs = _pairs(node, section)
    for key, _, line in pairs:
        if key not in tags:
            expected = " or ".join(repr(tag) for tag in tags)
            raise ParseFailure(f"expected {expected} entries under {section}, got {key!r}", line)
    return pairs


def parse_scenario(text: str) -> Scenario:
    scenario, _ = parse_scenario_with_warnings(text)
    return scenario


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, and restart it after only if it
    was running before.

    A composed node tree and the records folded from it hold no reference
    cycles, so each collection the reader's allocations would trigger walks
    young objects and frees nothing.  Readers fold the tree in a call of its
    own, so the tree is freed before the collector restarts and the one
    collection that follows walks only the records.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_scenario_with_warnings(text: str) -> tuple[Scenario, list[Diagnostic]]:
    """Parse a scenario document; unknown record keys come back as warnings."""
    with _collector_paused():
        return scenario_from_node(compose_yaml(text))


def scenario_from_node(root: Optional[yaml.Node], what: str = "scenario") -> tuple[Scenario, list[Diagnostic]]:
    """``parse_scenario_with_warnings`` of the root node ``compose_yaml``
    returns.  A ``flow`` document holds a ``flow`` section and nothing else."""
    if root is None:
        return Scenario(), []
    if not isinstance(root, MappingNode):
        raise ParseFailure(f"{what} document must be a top-level map", _line(root))
    sections = _SECTIONS if what == "scenario" else {"flow": _SECTIONS["flow"]}
    warnings: list[Diagnostic] = []
    parts: list = []
    records: dict = {field: [] for field, _, _ in _SECTIONS.values()}
    for key_node, value_node in root.value:
        key = key_node.value
        if not isinstance(key, str) or key not in sections:  # a non-scalar key is unhashable
            raise ParseFailure(f"unknown top-level key {key!r}" if isinstance(key, str) else "each top-level key must be a scalar", _line(key_node))
        field, tags, keys = sections[key]
        for _, item, line in _tagged_items(value_node, key, tags):
            loc = f"{field}[{len(records[field])}]"  # a repeated section goes on where the one before ended
            fields = _fold(item, loc, line, keys, parts, warnings)
            try:
                records[field].append(keys.spec(**fields))
            except ValueError as exc:  # FlowSpec's own rule: ``select`` names one of its windows
                raise ParseFailure(str(exc), SourceMap(parts)[f"{loc}.select"]) from exc
    if what == "flow" and not root.value:
        raise ParseFailure("flow document must contain a 'flow' section", _line(root))
    return Scenario(**{field: tuple(specs) for field, specs in records.items()}, source_map=SourceMap(parts)), warnings


def parse_flow(text: str) -> list[FlowSpec]:
    """Parse a standalone flow document (top-level ``flow:``)."""
    return list(parse_flow_document(text).flows)


def parse_flow_document(text: str) -> Scenario:
    """A standalone flow document as a scenario of its flows alone, with
    their lines in its source map."""
    with _collector_paused():
        return scenario_from_node(compose_yaml(text), "flow")[0]


# --- serialization -----------------------------------------------------------

# Text a YAML reader reads back as plain text, unless an implicit type takes
# it: it does not start with `@` (reserved) or `,` (a flow indicator), does
# not end with `:` (a map key), and is not `-`, `---` or `...` alone (a list
# item, a document marker).
_BARE_RE = re.compile(r"(?![@,])(?!(?:-|---|\.\.\.)\Z)[A-Za-z0-9$_./()=@+,^~:-]*[A-Za-z0-9$_./()=@+,^~-]")
# Characters JSON leaves raw that YAML 1.1 rejects (DEL, C1, BOM, U+FFFE,
# U+FFFF) or folds as line breaks (NEL, U+2028, U+2029) in a quoted scalar.
_UNSAFE_IN_QUOTES_RE = re.compile("[\x7f-\x9f\u2028\u2029\ufeff\ufffe\uffff]")
_JSON_STRING = json.encoder.encode_basestring  # what JSONEncoder(ensure_ascii=False).encode does to a str


def quote(text: str) -> str:
    """``text`` as a YAML double-quoted scalar.

    libyaml and PyYAML's pure-Python loader both read the result back as
    exactly ``text``, for any string without lone surrogates.  ASCII text
    comes out as ``json.dumps`` writes it; other characters stay raw, so
    astral ones are not split into surrogate-pair escapes.
    """
    quoted = _JSON_STRING(text)
    if _UNSAFE_IN_QUOTES_RE.search(quoted) is None:
        return quoted
    return _UNSAFE_IN_QUOTES_RE.sub(lambda m: f"\\u{ord(m.group()):04x}", quoted)


def _emit_scalar(value) -> str:
    """``value`` as a one-line YAML scalar: None as ``null``, a bool or an
    int as YAML writes it, and a string bare when it reads back as the same
    text, through ``quote`` otherwise."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    s = str(value)
    if _BARE_RE.fullmatch(s) and (s[0] not in _TYPED_FIRST or _typed(s)[0] == _STR_TAG):
        return s
    return quote(s)


def _emit_record(lines: list[str], spec, keys: _Table, indent: str) -> None:
    """Append ``spec``'s lines in its table's key order, ``- key: value`` for
    each set value.  A nested record and a window's commands go 4 columns
    deeper under a ``- key:`` line; a single nested record's fields are
    ``spec``'s own, each entry of a repeating one is its own spec."""
    deeper = indent + "    "
    for key, (_, attr, reader, count) in keys.items():
        if isinstance(reader, _Table):
            for record in getattr(spec, attr) if count == "*" else (spec,):
                lines.append(f"{indent}- {key}:")
                _emit_record(lines, record, reader, deeper)
            continue
        value = getattr(spec, attr)
        if reader is _commands:
            if value:
                lines.append(f"{indent}- {key}:")
                for item in value:
                    entry = f"command: {_emit_scalar(item.text)}" if isinstance(item, Command) else f"split: {item.direction}"
                    lines.append(f"{deeper}- {entry}")
            continue
        for item in value if count == "*" else (value,):
            if item is not None:
                lines.append(f"{indent}- {key}: {_emit_scalar(item)}")


def serialize_scenario(scenario: Scenario) -> str:
    """Emit the scenario in the same dialect; round-trips to an equal value."""
    lines: list[str] = []
    for section, (field, (tag, *_), keys) in _SECTIONS.items():
        if records := getattr(scenario, field):
            lines.append(f"{section}:")
            for spec in records:
                lines.append(f"  - {tag}:")
                _emit_record(lines, spec, keys, "    ")
                lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def serialize_flow(flows) -> str:
    """A standalone flow document: ``serialize_scenario`` of a scenario of
    ``flows`` alone, as ``parse_flow_document`` reads one."""
    return serialize_scenario(Scenario(flows=tuple(flows)))
