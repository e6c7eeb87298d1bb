"""The null rule of config documents, as one property over every reader of
one: ``--index`` manifests and rules, ``--mock-responses`` bodies, a tracker
reply and a flaw-record block.  An optional key given as ``null`` reads as
the missing key, a map or list where only null is empty included; a map
where only null is empty reads ``null`` as ``{}``; a null required key is
refused as a missing one is.  ``exit: null`` stays refused, as the README
says.  Through the CLI, ``alurity pipeline`` and ``alurity run`` with a
null optional key of an index or a responses file exit, print and write
what they do with the key left out.  (The scenario dialect's rule differs
on purpose: there a null optional field is refused.)"""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alurity import cli, rvd
from alurity.orchestrator import MockBackend, MockEndpoint
from alurity.parser import ParseFailure, quote
from alurity.toolreg import load_registry_index

FIXTURES = Path(__file__).parent / "fixtures"
REF = "r/a:1"

# The text of a value as a document writes it (JSON for a tracker reply);
# ``null`` is the null one in both.
TEXTS = st.sampled_from(["x", '"two words"', '""', "1", "true", "2020-01-01"])
JSON_TEXTS = st.sampled_from(['"x"', '""', "1", "true"])
RULES = st.sampled_from(["[]", "[{id: r, pattern: x}]"])
TOOLS = st.sampled_from(["[]", "[scan]"])
SCENARIOS = st.sampled_from(['""', quote((FIXTURES / "listing1.yaml").read_text())])
FLOWS = st.sampled_from(['""', quote((FIXTURES / "listing3.yaml").read_text())])


def _block(fields: dict, indent: str) -> str:
    return "".join(f"{indent}{key}: {value}\n" for key, value in fields.items())


def _read_file(read):
    """``read`` of a path to a file holding the text it is given."""

    def at_path(text: str):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder, "config.yaml")
            path.write_text(text, encoding="utf-8")
            return read(str(path))

    return at_path


def _answer(path: str):
    """What a backend scripted by ``path`` answers to the command ``x``."""
    backend = MockBackend.from_fixture(path)
    return tuple(backend.exec(backend.create_endpoint(MockEndpoint("e"), None, None), "x"))


# reader -> (the document of some fields, its reader, optional keys with what
# each may hold, required keys)
READERS = {
    "index-manifest": (
        lambda fields: f"{REF}:\n{_block(fields, '  ')}",
        _read_file(lambda path: load_registry_index(path).lookup(REF)),
        {"entrypoint": TEXTS, "rules": RULES, "tools": TOOLS},
        {},
    ),
    "index-rule": (
        lambda fields: f"{REF}:\n  rules:\n    - {_block(fields, '      ').lstrip()}",
        _read_file(lambda path: load_registry_index(path).lookup(REF)),
        {"title": TEXTS, "flaw-class": TEXTS, "flaw_class": TEXTS, "severity": TEXTS, "description": TEXTS},
        {"id": "r", "pattern": "x"},
    ),
    "mock-response": (
        lambda fields: f"'^x':\n  exit: 3\n{_block(fields, '  ')}",
        _read_file(_answer),
        {"stdout": TEXTS, "stderr": TEXTS},
        {},
    ),
    "tracker-reply": (
        lambda fields: json.dumps({key: json.loads(value) for key, value in fields.items()}),
        lambda text: rvd._ticket(json.loads(text)),
        {"title": JSON_TEXTS, "body": JSON_TEXTS},
        {"id": "1"},
    ),
    "flaw-record": (
        lambda fields: f"title: t\nreproduction:\n{_block(fields, '  ')}",
        rvd._read_block,
        {"scenario": SCENARIOS, "flow": FLOWS},
        {},
    ),
}


def _outcome(read, text: str):
    try:
        return ("read", read(text))
    except ParseFailure as exc:
        return ("refused", exc.message)


@st.composite
def documents(draw, reader: str):
    """Fields of a document ``reader`` reads: its required keys, and each
    optional one with a drawn value or left out."""
    _, _, optional, required = READERS[reader]
    fields = dict(required)
    for key, values in optional.items():
        if draw(st.booleans()):
            fields[key] = draw(values)
    return fields


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_null_optional_key_reads_as_the_missing_key(reader, data):
    write, read, optional, _ = READERS[reader]
    fields = data.draw(documents(reader))
    key = data.draw(st.sampled_from(sorted(optional)))
    missing = {name: value for name, value in fields.items() if name != key}
    assert _outcome(read, write({**missing, key: "null"})) == _outcome(read, write(missing))


@pytest.mark.parametrize("key", ["id", "pattern"])
def test_a_null_required_rule_key_is_refused_as_a_missing_one(key):
    """The refusal is the same up to the rule it quotes."""
    write, read, _, required = READERS["index-rule"]
    missing = {name: value for name, value in required.items() if name != key}
    null, absent = (_outcome(read, write(fields)) for fields in ({**missing, key: "null"}, missing))
    assert null[0] == absent[0] == "refused"
    assert null[1].partition(", got ")[0] == absent[1].partition(", got ")[0] == f"each rule of {REF} must be a map with an 'id' and a 'pattern'"


@pytest.mark.parametrize(
    "reader, text",
    [("index-manifest", f"{REF}: {{}}\n"), ("mock-response", "'^x': {}\n"), ("flaw-record", "title: t\nreproduction: {}\n")],
)
def test_a_null_map_reads_as_an_empty_one(reader, text):
    _, read, _, _ = READERS[reader]
    assert _outcome(read, text.replace("{}", "null")) == _outcome(read, text)


def test_a_null_exit_stays_refused():
    _, read, _, _ = READERS["mock-response"]
    assert _outcome(read, "'^x':\n  exit: null\n") == ("refused", "the exit of '^x' must be an integer, got None")
    assert _outcome(read, "'^x': {}\n")[1][0] == 0


# The files of a sweep of one tool and of a run of one command on the mock
# backend: an ``--index`` and a ``--mock-responses`` file that set every
# optional key, and the run's scenario.
CLI_RULE = {
    "id": "open", "pattern": '"FINDING: (?P<title>[^\\\\n]+)"', "title": '"{title}"', "flaw-class": "exposure",
    "flaw_class": "leak", "severity": "high", "description": '"scan found {title}"',
}
CLI_MANIFEST = {"tools": "[scan]", "entrypoint": "scan -a"}
CLI_RESPONSE = {"stdout": '"FINDING: open master\\n"', "stderr": '"slow network\\n"'}
CLI_SCENARIO = (
    "networks:\n  - network:\n    - name: lab\n    - subnet: 12.0.0.0/24\n"
    "containers:\n"
    "  - container:\n    - name: target\n    - modules:\n      - base: r/target:1\n      - network: lab\n"
    "  - container:\n    - name: scanner\n    - modules:\n      - base: r/scan:1\n      - network: lab\n"
    "flow:\n  - container:\n    - name: scanner\n    - window:\n      - name: w\n      - commands:\n        - command: scan -a 12.0.0.2\n"
)
CLI_KEYS = {"manifest": ("entrypoint", "rules", "tools"), "rule": tuple(CLI_RULE)[2:], "response": tuple(CLI_RESPONSE)}


def _with(fields: dict, key: str, value) -> dict:
    """``fields`` with ``key`` set to ``value``, or left out for None."""
    fields = {name: text for name, text in fields.items() if name != key}
    return fields if value is None else {**fields, key: value}


def _cli_outcome(folder: Path, capsys, command: str, where: str, key: str, value) -> tuple:
    """Exit code, stdout and stderr (``folder`` written as ``DIR``, a
    transcript's time stamp as ``STAMP``) and the files written, by name
    and bytes, of one CLI call whose files set ``key`` at ``where`` to
    ``value`` (None: leave it out)."""
    rule = _with(CLI_RULE, key, value) if where == "rule" else CLI_RULE
    manifest = {**CLI_MANIFEST, "rules": f"[{{{', '.join(f'{name}: {text}' for name, text in rule.items())}}}]"}
    manifest = _with(manifest, key, value) if where == "manifest" else manifest
    response = _with(CLI_RESPONSE, key, value) if where == "response" else CLI_RESPONSE
    texts = {
        "index": f"r/target:1:\n  entrypoint: /bin/target\nr/scan:1:\n{_block(manifest, '  ')}",
        "responses": f"'^scan ':\n  exit: 0\n{_block(response, '  ')}",
        "scenario": CLI_SCENARIO,
    }
    folder.mkdir()
    for name, text in texts.items():
        (folder / f"{name}.yaml").write_text(text, encoding="utf-8")
    config = ("--index", str(folder / "index.yaml"), "--mock-responses", str(folder / "responses.yaml"))
    if command == "pipeline":
        args = ["pipeline", "--target", "r/target:1", "--tools", "r/scan:1", *config, "--sink-path", str(folder / "out")]
    else:
        args = ["run", str(folder / "scenario.yaml"), *config, "--transcript-dir", str(folder / "out")]
    code = cli.main(args)
    captured = capsys.readouterr()
    out, err = (re.sub(r"\d{8}T\d+", "STAMP", text.replace(str(folder), "DIR")) for text in (captured.out, captured.err))
    written = sorted((re.sub(r"\d{8}T\d+", "STAMP", path.name), path.read_bytes()) for path in (folder / "out").glob("*"))
    return code, out, err, written


@pytest.mark.parametrize("command", ["pipeline", "run"])
@pytest.mark.parametrize("where, key", [(where, key) for where, keys in CLI_KEYS.items() for key in keys])
def test_a_null_optional_key_runs_as_the_missing_key(tmp_path, capsys, command, where, key):
    """The same through the CLI: exit code, stdout, stderr, and the
    records or the transcript written."""
    null = _cli_outcome(tmp_path / "null", capsys, command, where, key, "null")
    assert null == _cli_outcome(tmp_path / "missing", capsys, command, where, key, None)
