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

import functools
import gc
import json
import re
from typing import Optional

import yaml
from yaml import AliasEvent, MappingEndEvent, MappingStartEvent, ScalarEvent, ScalarNode, SequenceEndEvent, SequenceStartEvent, StreamEndEvent

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
# The deepest nesting of collections a document may have, counted on its
# events; a deeper document of any kind is refused.
_MAX_DEPTH = 10_000

# libyaml when PyYAML was built with it, the pure-Python classes otherwise.
# Documents are read from its parser's events: nothing composes a node tree.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _Anchored(Exception):
    """A live read met an anchor: the document is read again from its list."""


class _Unreadable(Exception):
    """A document-level ``ParseFailure`` (too deep), raised past the record
    readers, which catch ``ParseFailure`` only."""


def _undefined(event) -> yaml.YAMLError:
    """The composer's error for an alias of no anchor before it; PyYAML's
    pure-Python composer names the anchor, libyaml's does not."""
    named = f" {event.anchor!r}" if issubclass(YAML_LOADER, yaml.composer.Composer) else ""
    return yaml.composer.ComposerError(None, None, f"found undefined alias{named}", event.start_mark)


class _Live:
    """A document's events as its parser makes them.  The first anchor ends
    the read, so an alias here names no anchor."""

    live = True

    def __init__(self, get):
        self.get = self.raw = get

    @staticmethod
    def anchored(event) -> None:
        raise _undefined(event) if type(event) is AliasEvent else _Anchored


class _Replay:
    """The events of a document ``list_yaml`` read, in order: ``get`` gives
    the events of the node an alias names in place of the alias, ``raw``
    the alias."""

    live = False

    def __init__(self, listed: tuple):
        self.events, self.anchors, self.ends = listed
        self.at = 0
        self.returns: list[tuple[int, int]] = []  # (end, resume) of each node replayed

    def raw(self):
        event = self.events[self.at]
        self.at += 1
        while self.returns and self.at == self.returns[-1][0]:
            self.at = self.returns.pop()[1]
        return event

    def get(self):
        event = self.raw()
        if type(event) is not AliasEvent:
            return event
        start = self.anchors[event.anchor]
        self.returns.append((self.ends.get(start, start) + 1, self.at))
        self.at = start
        return self.raw()

    @staticmethod
    def anchored(event) -> None:
        """Nothing: the list took the anchors."""


def _document(text: str, read):
    """``read(events, root)`` for the one document in ``text``, ``root`` its
    root node's first event (None for an empty stream); ``read`` reads the
    root node to its end, also when it fails.  Malformed YAML and nesting
    past ``_MAX_DEPTH`` are a ``ParseFailure`` that outranks any of ``read``.

    ``read`` folds the events as the parser makes them; when it meets an
    anchor, it is given the events ``list_yaml`` read instead, each alias
    replaying the node it names.  The cyclic collector is paused for the
    whole read and restarted only if it was running: the events and what is
    folded from them hold no reference cycles, so each collection their
    allocations would trigger walks young objects and frees nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        loader = YAML_LOADER(text)
        try:
            events = _Live(loader.get_event)
            get = events.get
            get()  # the stream's start
            if type(get()) is StreamEndEvent:
                return read(events, None)
            try:
                value, failure = read(events, get()), None
            except ParseFailure as exc:
                value, failure = None, exc
            get()  # the document's end
            if type(event := get()) is not StreamEndEvent:
                raise yaml.composer.ComposerError("expected a single document in the stream", None, "but found another document", event.start_mark)
            if failure is not None:
                raise failure
            return value
        finally:
            loader.dispose()
    except _Anchored:
        events = _Replay(list_yaml(text))
        return read(events, events.get())
    except UnicodeEncodeError as exc:  # lone surrogates cannot reach libyaml
        raise ParseFailure(f"malformed YAML: {exc.reason}") from exc
    except yaml.YAMLError as exc:
        raise _malformed(exc) from exc
    except _Unreadable as exc:
        raise exc.args[0] from None
    finally:
        if enabled:
            gc.enable()


def _listed(events, root) -> Optional[tuple]:
    """(events, anchors, ends) of the root node: its events in a list, the
    index of each anchor's node and, by the index of each collection's
    start, the index of its end.  A repeated anchor and an alias of no
    anchor before it fail as in the composer."""
    if root is None:
        return None
    listed: list = []
    anchors: dict = {}
    ends: dict = {}
    starts: list[int] = []  # each collection still open
    event, get, append = root, events.get, listed.append
    while True:
        kind = type(event)
        if kind is MappingEndEvent or kind is SequenceEndEvent:
            ends[starts.pop()] = len(listed)
        elif event.anchor is None:
            pass
        elif kind is AliasEvent:
            if event.anchor not in anchors:
                raise _undefined(event)
        elif event.anchor in anchors:
            raise yaml.composer.ComposerError("found duplicate anchor", None, "second occurrence", event.start_mark)
        else:
            anchors[event.anchor] = len(listed)
        if kind is MappingStartEvent or kind is SequenceStartEvent:
            starts.append(len(listed))
            if len(starts) > _MAX_DEPTH:
                raise _Unreadable(ParseFailure(_TOO_DEEP, _line(event)))
        append(event)
        if not starts:
            return listed, anchors, ends
        event = get()


def list_yaml(text: str) -> Optional[tuple]:
    """``_listed`` of the document in ``text``, None for an empty one."""
    return _document(text, _listed)


def _skip(events, start, depth: int) -> None:
    """Read the rest of the node whose first event is ``start``, ``depth``
    levels down.  On a live read an anchor on ``start`` ends the read."""
    if start.anchor is not None:
        events.anchored(start)
    if type(start) is MappingStartEvent or type(start) is SequenceStartEvent:
        _finish(events, depth)


def _finish(events, depth: int) -> None:
    """Read the rest of the collection open ``depth`` levels down, aliases
    not replayed.  The readers descend a few levels themselves, so here a
    live document's nesting is counted against ``_MAX_DEPTH``."""
    raw, live, level = events.raw, events.live, depth
    while level >= depth:
        event = raw()
        kind = type(event)
        if kind is MappingEndEvent or kind is SequenceEndEvent:
            level -= 1
            continue
        if event.anchor is not None:
            events.anchored(event)
        if kind is not ScalarEvent and kind is not AliasEvent:
            level += 1
            if live and level > _MAX_DEPTH:
                raise _Unreadable(ParseFailure(_TOO_DEEP, _line(event)))


def build_yaml(listed: Optional[tuple], empty=None):
    """``_built`` of a ``list_yaml`` document's root, ``empty`` for an empty
    document; ``ParseFailure`` where ``_built`` fails or nests too deeply."""
    if listed is None:
        return empty
    try:
        return _built(listed, 0, {})
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
    doc = build_yaml(list_yaml(read_text(path)), {})
    if not isinstance(doc, dict):
        raise ParseFailure(f"expected a map at the top level, got a {type(doc).__name__}")
    return doc


def map_or_empty(value, what: str, kind: type = dict):
    """``value``, a map (or a list, by ``kind``) in a config file, where only
    null is empty; ``ParseFailure`` saying ``<what> must be a map`` (``a
    list``) for anything else."""
    if value is not None and not isinstance(value, kind):
        raise ParseFailure(f"{what} must be a {'map' if kind is dict else kind.__name__}, got a {type(value).__name__}")
    return value or kind()


def text_field(body: dict, key: str, default: str = "") -> str:
    """``body[key]`` as text in a config file, where a null value reads as a
    missing key: ``default``."""
    value = body.get(key)
    return default if value is None else str(value)


def _node(listed: tuple, at: int) -> int:
    """The index of the node at ``at``: an alias's is its anchor's."""
    event = listed[0][at]
    return listed[1][event.anchor] if type(event) is AliasEvent else at


def _children(listed: tuple, at: int) -> list[int]:
    """The index of each node right inside the collection that starts at ``at``."""
    out, end, at = [], listed[2][at], at + 1
    while at < end:
        out.append(_node(listed, at))
        at = listed[2].get(at, at) + 1
    return out


def _built(listed: tuple, at: int, built: dict):
    """The safe constructor's value for the node whose first event is
    ``listed.events[at]``, each scalar read by ``_scalar``; plain text that
    matches a type's pattern but does not construct (``2020-13-45``, ``=``)
    is a ``ParseFailure``.  A node is the index of its first event, an
    alias the index of its anchor's.  ``built`` maps each collection to its
    value, so aliases share one value and nested ones cost one build each.
    As in the constructor, maps merged by ``<<`` come first, the first of a
    list winning."""
    events = listed[0]
    at = _node(listed, at)
    event = events[at]
    if type(event) is ScalarEvent:
        value = _scalar(event)
        if type(value) is str and not event.style and value[:1] in _TYPED_FIRST and (tag := _typed(value)[0]) != _STR_TAG:
            raise ParseFailure(f"{value!r} is not a valid {tag.rpartition(':')[2]}; quote it for text", _line(event))
        return value
    if at in built:
        if built[at] is None:
            raise ParseFailure("a node contains itself", _line(event))
        return built[at]
    built[at] = None
    items = _children(listed, at)
    if type(event) is SequenceStartEvent:
        value = [_built(listed, item, built) for item in items]
    else:
        pairs = [(events[key], key, item) for key, item in zip(items[::2], items[1::2])]
        value = {}
        for key, _, item in pairs:
            if type(key) is ScalarEvent and key.value == "<<" and not key.style:
                for source in _children(listed, item)[::-1] if type(events[item]) is SequenceStartEvent else [item]:
                    if type(events[source]) is not MappingStartEvent:
                        raise ParseFailure("a merge key takes a map or a list of maps", _line(events[source]))
                    value.update(_built(listed, source, built))
        for key, key_at, item in pairs:
            if type(key) is not ScalarEvent:
                if key_at in built:  # an alias of a collection built before
                    kind = "map" if type(key) is MappingStartEvent else "list"
                    where = f"the {kind} at line {_line(key)}"
                    raise ParseFailure(f"an alias of {where} is used as a key in the map at line {_line(event)}", _line(event))
                raise ParseFailure("a map or a list is used as a key", _line(key))
            if key.value != "<<" or key.style:  # "=", YAML's value key, reads as text
                value["=" if key.value == "=" else _built(listed, key_at, built)] = _built(listed, item, built)
    built[at] = value
    return value


def compile_regex(pattern, what: str) -> re.Pattern:
    """``pattern`` compiled; ``ParseFailure`` naming ``what`` if it is not a regex."""
    try:
        return re.compile(pattern)
    except (TypeError, re.error, OverflowError, RecursionError) as exc:
        raise ParseFailure(f"{what} is not a regex: {exc}") from exc


def _line(event) -> int:
    return event.start_mark.line + 1


_RESOLVER = yaml.resolver.Resolver()
_CONSTRUCTOR = yaml.constructor.SafeConstructor()
_STR_TAG = "tag:yaml.org,2002:str"
# The resolver picks a plain scalar's candidate tags by its first character,
# so text that starts with a character no implicit resolver is registered for
# resolves to a string.  (No safe resolver is registered for any first
# character, under the key None.)
_TYPED_FIRST = frozenset(_RESOLVER.yaml_implicit_resolvers)


def _scalar(event):
    """A scalar's value: a quoted or block scalar is its text, and a plain
    one is typed by ``_typed`` (so empty plain text is None)."""
    if type(event) is not ScalarEvent:
        raise ParseFailure("expected a scalar value", _line(event))
    text = event.value
    return text if event.style or text[:1] not in _TYPED_FIRST else _typed(text)[1]


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


# Readers take a scalar's event, the record's ``loc`` and the ``key``, and
# join ``loc`` and ``key`` only for a message.


def _string(event, loc: str, key: str) -> str:
    if type(event) is ScalarEvent and (event.style or event.value[:1] not in _TYPED_FIRST):
        return event.value  # quoted or block, or plain text no implicit type can match
    value = _scalar(event)
    if value is None:
        raise ParseFailure(f"{loc}.{key} must not be empty", _line(event))
    return value if isinstance(value, str) else str(value)


def _int(event, loc: str, key: str) -> int:
    value = _scalar(event)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseFailure(f"{loc}.{key} must be an integer, got {value!r}", _line(event))
    return value


def _bool(event, loc: str, key: str) -> bool:
    value = _scalar(event)
    if not isinstance(value, bool):
        raise ParseFailure(f"{loc}.{key} must be a boolean, got {value!r}", _line(event))
    return value


def _sequence(events, start, what: str, depth: int) -> None:
    """Refuse ``start``, ``depth`` levels down, unless it opens a sequence."""
    if type(start) is not SequenceStartEvent:
        _skip(events, start, depth)
        raise ParseFailure(f"{what} must be a sequence of single-key maps", _line(start))


def _bad_entry(events, what: str, depth: int, entry, key, second=None) -> None:
    """Raise the error of an entry that its reader's loop found is no ``-
    key: value`` in a sequence of single-key maps ``depth`` levels down (a
    section, a record, a window's commands): ``entry``, its first event, is
    no map; the map's next event ``key``, read only when ``entry`` is a map,
    is no scalar; or a ``second`` key follows the first's value.  On a live
    read an anchor on any node of the entry ends the read instead.  The
    entry and the sequence are read to their end first, so this error
    outranks one the loop kept from an entry before it."""
    if entry.anchor is not None:
        events.anchored(entry)
    message, at = f"each entry under {what} must be a single-key map", entry
    if type(entry) is not MappingStartEvent:
        _skip(events, entry, depth + 1)
    elif second is None and type(key) is not MappingEndEvent:
        _skip(events, key, depth + 2)
        _skip(events, events.get(), depth + 2)
        if type(second := events.get()) is MappingEndEvent:
            message, at = f"each key under {what} must be a scalar", key
    if second is not None and type(second) is not MappingEndEvent:
        _skip(events, second, depth + 2)
        _finish(events, depth + 1)
    _finish(events, depth)
    raise ParseFailure(message, _line(at))


# --- records -----------------------------------------------------------------
#
# The key tables are the dialect: each maps a record's YAML keys, in the order
# the writer emits them, to (field, attr, reader, count).  ``field`` is the
# value's source-map path below the record and ``attr``, its last part, the
# spec's attribute.  ``count`` is "1" for a required key, "?" for an optional
# one, "*" for a key that may repeat and "+" for one that may also hold a
# sequence of values, each on its own line.  A reader returns one value.  A
# table in a reader's place is a nested record: a single one's fields belong
# to the enclosing spec, each entry of a repeating one is built into its own
# spec.


def _ref(event, loc: str, key: str) -> ModuleRef:
    return ModuleRef.parse(_string(event, loc, key))


def _normalize_split(raw: str) -> str:
    return raw.rstrip(".,;:! ")


def _commands(events, start, loc: str, depth: int) -> tuple:
    """A window's ``command:`` and ``split:`` entries, in order, from the
    node whose first event is ``start``, ``depth`` levels down."""
    what = f"{loc}.commands"
    items: list[object] = []
    failure = None  # the first, raised once the list is read
    get, live, key = events.get, events.live, None
    _sequence(events, start, what, depth)
    while type(entry := get()) is not SequenceEndEvent:
        if type(entry) is not MappingStartEvent or entry.anchor is not None and live or type(key := get()) is not ScalarEvent or key.anchor is not None and live:
            _bad_entry(events, what, depth, entry, key)
        if (value := get()).anchor is not None:
            events.anchored(value)
        if type(value) is not ScalarEvent:
            _finish(events, depth + 2)
        if failure is None:
            try:
                if key.value == "command":
                    quoted = type(value) is ScalarEvent and value.style
                    items.append(Command(value.value if quoted else _string(value, loc, "commands.command")))
                elif key.value == "split":
                    direction = _normalize_split(_string(value, loc, "commands.split"))
                    if direction not in _SPLIT_DIRECTIONS:
                        raise ParseFailure(f"unknown split direction {direction!r}", _line(key))
                    items.append(Split(direction))
                else:
                    raise ParseFailure(f"unknown key {key.value!r} under {what}", _line(key))
            except ParseFailure as exc:
                failure = exc
        if type(end := get()) is not MappingEndEvent:
            _bad_entry(events, what, depth, entry, key, end)
    if failure is not None:
        raise failure
    return tuple(items)


# reader -> the type of what it returns: a scalar whose plain read (the rule
# of ``_scalar``) has that type is the reader's value, read without the call;
# None for a reader of its value's events (``_commands``, and each table)
_PLAIN = {_string: str, _int: int, _bool: bool, _commands: None}


class _Table(dict):
    """A key table: key -> (field, attr, reader, count, plain), ``plain``
    from ``_PLAIN`` (None for a table too), false when it has none.
    ``spec`` builds the record (None for one whose fields belong to the
    enclosing spec); in a ``strict`` table an unknown key is an error, not a
    warning.  ``required`` and ``repeated`` list its "1" keys and its
    repeating attributes."""

    def __init__(self, keys: dict, spec=None, strict: bool = False):
        super().__init__({key: (field, field.rpartition(".")[2], reader, count, _PLAIN.get(reader, False) if callable(reader) else None) for key, (field, reader, count) in keys.items()})
        self.spec, self.strict = spec, strict
        self.required = tuple(key for key, (_, _, count) in keys.items() if count == "1")
        self.repeated = tuple(field.rpartition(".")[2] for field, _, count in keys.values() if count in "*+")


_NETWORK_KEYS = _Table({
    "name": ("name", _string, "1"),
    "driver": ("driver", _string, "?"),
    "internal": ("internal", _bool, "?"),
    "encryption": ("encryption", _bool, "?"),
    "subnet": ("subnet", _string, "1"),
}, NetworkSpec)
_MODULE_KEYS = _Table({
    "base": ("modules.base", _ref, "1"),
    "volume": ("modules.volumes", _ref, "*"),
    "network": ("networks", _string, "+"),
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
    "network": ("networks", _string, "+"),
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


def _fold(events, start, loc: str, line: int, keys: _Table, parts: list, warnings: list, depth: int, owner: str = "") -> dict:
    """A record's fields, folded from its single-key maps by its key table,
    as they are read: ``start`` is the record's first event, ``depth`` levels
    down.

    ``loc`` names the record in messages and ``line`` is reported for a
    missing key.  Each line read is appended to ``parts`` as a ``SourceMap``
    part, its path below ``owner``, the record itself unless it is nested.
    A repeating key's values collect in a list, made a tuple once the record
    is read.
    """
    owner = owner or loc
    parts.append((loc, None, None, line))
    fields: dict = {}
    seen: dict[str, int] = {}
    inner = depth + 2  # a value's depth
    failure = None  # the first, raised once the record is read
    get, live, key_event = events.get, events.live, None
    _sequence(events, start, loc, depth)
    while type(entry := get()) is not SequenceEndEvent:
        if type(entry) is not MappingStartEvent or entry.anchor is not None and live or type(key_event := get()) is not ScalarEvent or key_event.anchor is not None and live:
            _bad_entry(events, loc, depth, entry, key_event)
        if (value := get()).anchor is not None:
            events.anchored(value)
        key, key_line = key_event.value, key_event.start_mark.line + 1
        if failure is not None or (row := keys.get(key)) is None:
            _skip(events, value, inner)
            if failure is None and keys.strict:
                failure = ParseFailure(f"unknown key {key!r} in {loc}", key_line)
            elif failure is None:
                parts.append((loc, key, None, key_line))
                warnings.append(Diagnostic("warning", "unknown-key", f"unknown key {key!r} ignored", f"{loc}.{key}", key_line))
        else:
            path, attr, reader, count, plain = row
            try:
                if count in "*+":
                    items = fields.setdefault(attr, [])
                elif key in seen:
                    _skip(events, value, inner)
                    raise ParseFailure(f"key {key!r} repeated in {loc} (first at line {seen[key]})", key_line)
                else:
                    items, seen[key] = None, key_line
                    parts.append((owner, path, None, key_line))
                if plain is None:  # a table or ``_commands``, which read their value's events
                    if reader is _commands:
                        fields[attr] = _commands(events, value, loc, inner)
                    elif items is None:
                        fields.update(_fold(events, value, f"{loc}.{key}", key_line, reader, parts, warnings, inner, owner))
                    else:
                        items.append(reader.spec(**_fold(events, value, f"{owner}.{path}[{len(items)}]", key_line, reader, parts, warnings, inner)))
                elif count == "+" and type(value) is SequenceStartEvent:
                    try:
                        while type(item := get()) is not SequenceEndEvent:
                            _skip(events, item, inner + 1)
                            parts.append((owner, path, len(items), _line(item)))
                            items.append(reader(item, loc, key))
                    except ParseFailure:
                        _finish(events, inner)
                        raise
                else:
                    if not plain or type(value) is not ScalarEvent or type(got := value.value if value.style or value.value[:1] not in _TYPED_FIRST else _typed(value.value)[1]) is not plain:
                        if type(value) is not ScalarEvent:
                            _finish(events, inner)
                        got = reader(value, loc, key)
                    if items is None:
                        fields[attr] = got
                    else:
                        parts.append((owner, path, len(items), key_line))
                        items.append(got)
            except ParseFailure as exc:
                failure = exc
        if type(end := get()) is not MappingEndEvent:
            _bad_entry(events, loc, depth, entry, key_event, end)
    if failure is not None:
        raise failure
    for attr in keys.repeated:
        fields[attr] = tuple(fields.get(attr, ()))
    for key in keys.required:
        if key not in seen:
            raise ParseFailure(f"missing mandatory key {key!r} in {loc}", line)
    return fields


def parse_scenario(text: str) -> Scenario:
    scenario, _ = parse_scenario_with_warnings(text)
    return scenario


def parse_scenario_with_warnings(text: str) -> tuple[Scenario, list[Diagnostic]]:
    """Parse a scenario document; unknown record keys come back as warnings."""
    return _document(text, _scenario)


def scenario_from_listed(listed: Optional[tuple], what: str = "scenario") -> tuple[Scenario, list[Diagnostic]]:
    """``parse_scenario_with_warnings`` of a document ``list_yaml`` read."""
    if listed is None:
        return _scenario(None, None, what)
    events = _Replay(listed)
    return _scenario(events, events.get(), what)


def _scenario(events, root, what: str = "scenario") -> tuple[Scenario, list[Diagnostic]]:
    """The scenario of a document whose root node starts with ``root``.  A
    ``flow`` document holds a ``flow`` section and nothing else."""
    if root is None:
        return Scenario(), []
    if root.anchor is not None:
        events.anchored(root)
    if type(root) is not MappingStartEvent:
        _skip(events, root, 1)
        raise ParseFailure(f"{what} document must be a top-level map", _line(root))
    sections = _SECTIONS if what == "scenario" else {"flow": _SECTIONS["flow"]}
    warnings: list[Diagnostic] = []
    parts: list = []
    records: dict = {field: [] for field, _, _ in _SECTIONS.values()}
    get, live, tag = events.get, events.live, None
    empty = True
    try:
        while type(key := get()) is not MappingEndEvent:
            empty = False
            if key.anchor is not None:
                events.anchored(key)
            name = key.value if type(key) is ScalarEvent else None
            if name not in sections:
                _skip(events, key, 2)
                raise ParseFailure("each top-level key must be a scalar" if name is None else f"unknown top-level key {name!r}", _line(key))
            field, tags, keys = sections[name]
            value = get()
            if value.anchor is not None:
                events.anchored(value)
            if type(value) is ScalarEvent and value.value == "":  # an empty section
                continue
            specs = records[field]
            failure, mistagged = None, False  # the first, raised once the section is read
            _sequence(events, value, name, 2)
            while type(entry := get()) is not SequenceEndEvent:  # ``- <tag>:`` wrapper entries
                if type(entry) is not MappingStartEvent or entry.anchor is not None and live or type(tag := get()) is not ScalarEvent or tag.anchor is not None and live:
                    _bad_entry(events, name, 2, entry, tag)
                if (item := get()).anchor is not None:
                    events.anchored(item)
                if tag.value not in tags and not mistagged:  # a later one outranks a record's error
                    expected = " or ".join(map(repr, tags))
                    failure, mistagged = ParseFailure(f"expected {expected} entries under {name}, got {tag.value!r}", _line(tag)), True
                if failure is not None:
                    _skip(events, item, 4)
                else:
                    loc = f"{field}[{len(specs)}]"  # a repeated section goes on where the one before ended
                    try:
                        fields = _fold(events, item, loc, _line(tag), keys, parts, warnings, 4)
                        try:
                            specs.append(keys.spec(**fields))
                        except ValueError as exc:  # FlowSpec's own rule: ``select`` names one of its windows
                            raise ParseFailure(str(exc), SourceMap(parts)[f"{loc}.select"]) from exc
                    except ParseFailure as exc:
                        failure = exc
                if type(end := get()) is not MappingEndEvent:
                    _bad_entry(events, name, 2, entry, tag, end)
            if failure is not None:
                raise failure
    except ParseFailure:
        if live:  # a listed document has no event left to check
            _finish(events, 1)
        raise
    if what == "flow" and empty:
        raise ParseFailure("flow document must contain a 'flow' section", _line(root))
    return Scenario(**{field: tuple(specs) for field, specs in records.items()}, source_map=SourceMap(parts)), warnings


def parse_flow(text: str) -> list[FlowSpec]:
    """Parse a standalone flow document (top-level ``flow:``)."""
    return list(parse_flow_document(text).flows)


def parse_flow_document(text: str) -> Scenario:
    """A standalone flow document as a scenario of its flows alone, with
    their lines in its source map."""
    return _document(text, functools.partial(_scenario, what="flow"))[0]


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
    for key, (_, attr, reader, count, _) in keys.items():
        if isinstance(reader, _Table):
            for record in getattr(spec, attr) if count in "*+" else (spec,):
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
        for item in value if count in "*+" else (value,):
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
