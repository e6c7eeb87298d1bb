"""Differential tests: ``load_yaml_map``, the reader behind ``--index`` and
``--mock-responses``, against PyYAML's safe loader (``yaml_classes.load``,
the ``load_yaml`` of the test names).

Config files are read into a list of their parser's events, without tag
resolution, and built in one walk over that list.  On every document that
holds no explicit tag and no node that contains itself, the walk must
return what the safe loader returns: the same keys in the same order, the
same values of the same types.  Where the safe loader cannot read a
document, or reads one that is not a map, the walk raises
``ParseFailure``.  The intended differences are listed and
checked on their own: explicit tags are ignored, a node that contains
itself is refused and so is nesting deeper than the interpreter's
recursion limit.  Both run on the libyaml classes and again on PyYAML's
pure-Python ones.
"""

import contextlib
import json
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alurity.cli import main
from alurity.parser import ParseFailure, load_yaml_map

from yaml_classes import load, pure_python_classes

FIXTURES = Path(__file__).parent / "fixtures"
ROSNET = str(FIXTURES / "rosnet.yaml")

LOADERS = {"libyaml": contextlib.nullcontext, "pure-python": pure_python_classes}

# Plain scalars that read as text, and ones that read as ints, floats, bools,
# nulls, dates and datetimes.
PLAIN_TEXT = ["x", "robots", "medium", "VULN x done", "robo_m00 --sweep", "a/b:1", "12.0.0.0/24", "^a\\ b$", "t", "n", "<x", "=x", "3.", "0b2", "1.2.3"]
PLAIN_TYPED = [
    "0", "-1", "42", "+7", "1_000", "0x1f", "0o17", "017", "0b101", "190:20:30",
    "1.5", "-2.5e+3", "6.8523015e+5", ".inf", "-.Inf", ".nan",
    "yes", "No", "on", "OFF", "true", "False", "y",
    "~", "null", "NULL", "",
    "2020-01-01", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5", "2002-12-14 1:02:03",
]
QUOTED_TEXT = PLAIN_TEXT + PLAIN_TYPED + ["a: b", "#c", "it's", "two\nlines", "<<", "="]
BLOCK_LINES = [["VULN x", "done"], ["one"], ["a", "", "b"], ["first", "  more indented", "last"], ["x: 1", "- y"]]
BLOCK_HEADERS = ["|", "|-", "|+", ">", ">-", ">+"]
KEYS = ["id", "pattern", "title", "exit", "stdout", "1", "true", "~", "2020-01-01", "1.5", "=", "k"]


def _quoted(text: str, single: bool) -> str:
    return "'" + text.replace("'", "''") + "'" if single and "\n" not in text else json.dumps(text)


class _Doc:
    """Draws one config-shaped document: block and flow maps and lists,
    plain, quoted and block scalars, anchors, aliases and ``<<`` merge keys.
    An alias names only an anchor whose node is complete, so no node
    contains itself."""

    def __init__(self, draw):
        self.draw = draw
        self.anchors: dict[str, str] = {}  # name -> "map", "seq" or "scalar"
        self.named = 0

    def anchor(self) -> tuple[str, str]:
        """An anchor prefix, and the name to register once the node is done."""
        if self.draw(st.integers(0, 3)):
            return "", ""
        self.named += 1
        name = f"a{self.named}"
        return f"&{name} ", name

    def done(self, name: str, kind: str) -> None:
        if name:
            self.anchors[name] = kind

    def alias(self, kinds=("map", "seq", "scalar")):
        names = [n for n, k in self.anchors.items() if k in kinds]
        return f"*{self.draw(st.sampled_from(names))}" if names else None

    def scalar(self, flow: bool) -> str:
        style = self.draw(st.sampled_from(["plain", "plain", "typed", "typed", "single", "double"]))
        if style in ("single", "double"):
            return _quoted(self.draw(st.sampled_from(QUOTED_TEXT)), style == "single")
        text = self.draw(st.sampled_from(PLAIN_TEXT if style == "plain" else PLAIN_TYPED))
        return "null" if flow and text == "" else text

    def key(self) -> str:
        choice = self.draw(st.integers(0, 5))
        if choice == 0:
            alias = self.alias(("scalar",))
            if alias is not None:
                return f"{alias} "  # an alias key needs a space before the colon
        if choice == 1:
            return _quoted(self.draw(st.sampled_from(KEYS + ["<<"])), self.draw(st.booleans()))
        return self.draw(st.sampled_from(KEYS))

    def merge_value(self, depth: int) -> str:
        maps = [f"*{n}" for n, k in self.anchors.items() if k == "map"]
        choice = self.draw(st.integers(0, 2))
        if choice == 0 and maps:
            return self.draw(st.sampled_from(maps))
        if choice == 1 and maps:
            return "[" + ", ".join(self.draw(st.lists(st.sampled_from(maps), min_size=1, max_size=3))) + "]"
        return self.flow_map(depth + 1)

    def flow_value(self, depth: int) -> str:
        choice = self.draw(st.integers(0, 5 if depth < 3 else 2))
        if choice == 0:
            alias = self.alias()
            if alias is not None:
                return alias
        if choice == 4:
            return self.flow_map(depth + 1)
        if choice == 5:
            return self.flow_seq(depth + 1)
        prefix, name = self.anchor()
        text = self.scalar(flow=True)
        self.done(name, "scalar")
        return f"{prefix}{text}" if prefix or text else "null"

    def flow_map(self, depth: int) -> str:
        prefix, name = self.anchor()
        entries = []
        for _ in range(self.draw(st.integers(0, 3))):
            if self.draw(st.integers(0, 5)) == 0:
                entries.append(f"<<: {self.merge_value(depth)}")
            else:
                entries.append(f"{self.key()}: {self.flow_value(depth)}")
        self.done(name, "map")
        return prefix + "{" + ", ".join(entries) + "}"

    def flow_seq(self, depth: int) -> str:
        prefix, name = self.anchor()
        items = [self.flow_value(depth) for _ in range(self.draw(st.integers(0, 3)))]
        self.done(name, "seq")
        return prefix + "[" + ", ".join(items) + "]"

    def block_value(self, indent: int, depth: int) -> str:
        """The text after ``key:`` or ``-`` for a value whose lines, if it
        has any, are indented by ``indent``."""
        pad = " " * indent
        choice = self.draw(st.integers(0, 6 if depth < 3 else 3))
        if choice == 0:
            alias = self.alias()
            if alias is not None:
                return f" {alias}\n"
        if choice == 1:
            prefix, name = self.anchor()
            header = self.draw(st.sampled_from(BLOCK_HEADERS))
            lines = self.draw(st.sampled_from(BLOCK_LINES))
            self.done(name, "scalar")
            return f" {prefix}{header}\n" + "".join(f"{pad}{line}\n" if line else "\n" for line in lines)
        if choice in (2, 3):
            prefix, name = self.anchor()
            text = self.scalar(flow=False)
            self.done(name, "scalar")
            return f" {prefix}{text}".rstrip() + "\n"
        if choice == 4:
            return " " + (self.flow_map(depth + 1) if self.draw(st.booleans()) else self.flow_seq(depth + 1)) + "\n"
        if choice == 5:
            prefix, name = self.anchor()
            items = self.draw(st.integers(1, 3))
            text = f" {prefix}".rstrip() + "\n" + "".join(f"{pad}-{self.block_value(indent + 2, depth + 1)}" for _ in range(items))
            self.done(name, "seq")
            return text
        prefix, name = self.anchor()
        text = f" {prefix}".rstrip() + "\n" + self.block_map(indent, depth + 1)
        self.done(name, "map")
        return text

    def block_map(self, indent: int, depth: int) -> str:
        pad = " " * indent
        out = []
        for _ in range(self.draw(st.integers(1, 4))):
            if self.draw(st.integers(0, 5)) == 0:
                out.append(f"{pad}<<: {self.merge_value(depth)}\n")
            else:
                out.append(f"{pad}{self.key()}:{self.block_value(indent + 2, depth)}")
        return "".join(out)


@st.composite
def config_documents(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "# nothing\n", "- a\n- b\n", "just text\n", "42\n", "{}\n"]))
    return _Doc(draw).block_map(0, 0)


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _expected(text: str):
    """``repr`` of what ``load_yaml_map`` must return for ``text``, or
    ``ParseFailure`` where it must raise."""
    try:
        doc = load(text)
    except (ValueError, yaml.YAMLError):
        return ParseFailure
    if doc is None:
        return repr({})
    return repr(doc) if isinstance(doc, dict) else ParseFailure


def _actual(path: str):
    try:
        return repr(load_yaml_map(path))
    except ParseFailure:
        return ParseFailure


@pytest.mark.parametrize("loaders", LOADERS.values(), ids=LOADERS.keys())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(text=config_documents())
def test_config_reader_matches_load_yaml(tmp_path, loaders, text):
    path = _write(tmp_path, text)
    with loaders():
        assert _actual(path) == _expected(text), text


# --- explicit cases ---------------------------------------------------------

SAME_AS_LOAD_YAML = {
    "block-literal": "stdout: |\n  VULN x\n  done\n",
    "block-folded": "a: >\n  folded\n  text\n\n  para\nb: |-\n  keep\nc: >+\n  x\n\nd: |\n",
    "quoted": "a: '1'\nb: \"true\"\nc: 'it''s'\nd: \"\\u00e9\\t\"\ne: ''\n",
    "typed": "a: 1\nb: 0x1f\nc: 1.5\nd: .nan\ne: yes\nf: ~\ng:\nh: 2001-12-14\ni: 2001-12-14t21:59:43.10-05:00\nj: 190:20:30\n",
    "typed-keys": "1: a\n1.0: b\ntrue: c\n~: d\n2020-01-01: e\n",
    "anchor-alias": "base: &b {exit: 1, stdout: x}\nagain: *b\nlist: [*b, *b]\n&k key: 1\n*k : 2\n",
    "merge-one": "base: &b {x: 1, y: 2}\nother:\n  <<: *b\n  y: 3\n",
    "merge-list": "m1: &m1 {a: 1, b: 1}\nm2: &m2 {b: 2, c: 2}\nr:\n  <<: [*m1, *m2]\n  d: 4\n",
    "merge-override": "r:\n  d: 4\n  <<: {d: 5, e: 6}\n  <<: {e: 7, f: 8}\n",
    "merge-nested": "a: &a {x: 1}\nb: &b {<<: *a, y: 2}\nc: {<<: *b, z: 3}\n",
    "duplicate-keys": "a: 1\nb: 2\na: 3\nc: {x: 1, x: 2}\n",
    "value-key": "=: 1\n'=': 2\n\"<<\": 3\n",
    "empty": "",
    "comment-only": "# nothing here\n",
    "fixture-index": (FIXTURES / "registry_index.yaml").read_text(),
    "fixture-responses": (FIXTURES / "mock_responses.yaml").read_text(),
}


@pytest.mark.parametrize("loaders", LOADERS.values(), ids=LOADERS.keys())
@pytest.mark.parametrize("text", SAME_AS_LOAD_YAML.values(), ids=SAME_AS_LOAD_YAML.keys())
def test_reads_as_load_yaml(tmp_path, loaders, text):
    path = _write(tmp_path, text)
    with loaders():
        assert _actual(path) == _expected(text) != ParseFailure


def test_block_scalars_keep_their_lines(tmp_path):
    path = _write(tmp_path, "'^x':\n  stdout: |\n    VULN x\n    done\n")
    assert load_yaml_map(path) == {"^x": {"stdout": "VULN x\ndone\n"}}


def test_merge_key_is_not_an_ordinary_key(tmp_path):
    path = _write(tmp_path, "base: &b {exit: 1}\nr:\n  <<: *b\n  stdout: x\n")
    assert load_yaml_map(path)["r"] == {"exit": 1, "stdout": "x"}


def test_explicit_tags_are_ignored(tmp_path):
    path = _write(tmp_path, "a: !!str 12\nb: !!int '12'\nc: !!set {x, y}\nd: !local text\n")
    assert load_yaml_map(path) == {"a": 12, "b": "12", "c": {"x": None, "y": None}, "d": "text"}


# document, line of the offending node, words of the message; an alias is
# the node it names, so an alias used as a key is placed by the map using it
FAILURES = {
    "map-key": ("a: 1\n? {b: 1}\n: 2\n", 2, "a map or a list is used as a key"),
    "list-key": ("a: 1\n[b, c]: 2\n", 2, "a map or a list is used as a key"),
    "alias-to-map-key": ("a: &m {b: 1}\n*m : 2\n", 1, "an alias of the map at line 1 is used as a key in the map at line 1"),
    "alias-to-map-key-in-a-later-map": (
        "a: &m {b: 1}\nc:\n  *m : 2\n", 3, "an alias of the map at line 1 is used as a key in the map at line 3",
    ),
    "alias-to-list-key": (
        "a: &l [1]\nc:\n  d: 1\n  *l : 2\n", 3, "an alias of the list at line 1 is used as a key in the map at line 3",
    ),
    "list-contains-itself": ("a: 1\nb: &x [1, *x]\n", 2, "contains itself"),
    "map-contains-itself": ("a: 1\nb: &x\n  c: *x\n", 2, "contains itself"),
    "map-merges-itself": ("a: &m\n  <<: *m\n", 1, "contains itself"),
    "merge-of-a-scalar": ("a:\n  <<: 3\n", 2, "merge key takes a map"),
    "merge-of-a-list-with-a-scalar": ("a: &m {x: 1}\nb:\n  <<: [*m, 3]\n", 3, "merge key takes a map"),
    "bad-date": ("a: 1\nb: 2020-13-45\n", 2, "not a valid timestamp"),
    "bad-binary-int": ("a: 0b_\n", 1, "not a valid int"),
    "value-key-as-value": ("a: =\n", 1, "not a valid value"),
    "merge-key-as-value": ("a: <<\n", 1, "not a valid merge"),
}


@pytest.mark.parametrize("loaders", LOADERS.values(), ids=LOADERS.keys())
@pytest.mark.parametrize("text, line, words", FAILURES.values(), ids=FAILURES.keys())
def test_unreadable_documents_fail_with_their_line(tmp_path, loaders, text, line, words):
    path = _write(tmp_path, text)
    with loaders(), pytest.raises(ParseFailure) as exc:
        load_yaml_map(path)
    assert (exc.value.line, words in exc.value.message) == (line, True)


@pytest.mark.parametrize("option", ["--index", "--mock-responses"])
@pytest.mark.parametrize("text", [FAILURES["map-key"][0], FAILURES["list-contains-itself"][0]], ids=["map-key", "contains-itself"])
def test_unreadable_config_exits_2(tmp_path, monkeypatch, capsys, option, text):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, text)
    assert main(["run", ROSNET, option, path]) == 2
    assert capsys.readouterr().err.startswith(f"cannot read {path}: ")


def test_nesting_deeper_than_the_walk_can_go_fails(tmp_path):
    path = _write(tmp_path, "a: " + "[" * 3000 + "]" * 3000 + "\n")
    with pytest.raises(ParseFailure, match="nested too deeply"):
        load_yaml_map(path)


def test_nested_aliases_load_in_linear_time(tmp_path):
    """A billion-laughs document of under 1 KB: each level lists the
    previous one ten times, so expanding the aliases would build 10**10
    leaves."""
    lines = [f"lol0: &lol0 [{', '.join(['lol'] * 10)}]"]
    lines += [f"lol{i}: &lol{i} [{', '.join([f'*lol{i - 1}'] * 10)}]" for i in range(1, 10)]
    text = "\n".join(lines) + "\n"
    assert 800 < len(text) < 1024
    path = _write(tmp_path, text)
    start = time.perf_counter()
    doc = load_yaml_map(path)
    assert time.perf_counter() - start < 1.0
    assert doc["lol8"][0] is doc["lol7"] and doc["lol1"][8] is doc["lol0"]
