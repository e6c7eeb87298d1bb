"""Reference checks for the shared YAML loader/dumper and the scalar classifier.

The parser types plain scalars with YAML's resolver and the safe constructor
for the resolved tag.  It used to re-parse each scalar's text as a whole
document; that classifier is kept here as the reference.  The emitters write
through libyaml when PyYAML has it, so their output is read back with the
pure-Python loader.
"""

import json
import math
import string

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from alurity import parser
from alurity.flows import Transcript, TranscriptEvent, transcript_to_yaml
from alurity.netplan import ConnectivityPlan, PlanEntry, export_plan_yaml
from alurity.orchestrator import CommandResult
from alurity.parser import load_yaml, parse_scenario, serialize_scenario
from alurity.pipeline import FlawRecord

import test_parser
from strategies import scenarios

# Printable text as it reaches the emitters: decoded command output and
# titles.  Lone surrogates are left out; they are not text any YAML stream
# can carry.
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)

# Fragments that hit every implicit resolver: null, bool, int (binary,
# octal, hex, sexagesimal, underscores), float, timestamp, merge and value.
_FRAGMENTS = [
    "~", "null", "Null", "NULL", "true", "False", "yes", "No", "on", "OFF", "y", "n",
    "0", "-0", "+12", "0b101", "0o17", "017", "0x1F", "1_000", "1:30", "-1:30:00",
    "1.5", ".5", "1e3", "1.0e+3", "-.inf", ".NaN", "6.8523015e+5", "190:20:30.15",
    "2020-01-01", "2020-13-45", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5",
    "2020-1-1 1:2:3", "<<", "=", "a", "-", ".", ":", "_", " ", "x",
]
_plain_candidates = st.one_of(
    st.sampled_from(_FRAGMENTS),
    st.lists(st.sampled_from(_FRAGMENTS), min_size=2, max_size=3).map("".join),
    st.text(string.ascii_letters + string.digits + "+-._:~ ", min_size=1, max_size=12),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=12),
)


def reference_scalar(text: str):
    """The former classifier: re-parse the text as a document."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return text


# The composers mark a plain scalar differently: style None in Python,
# "" in libyaml.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def plain_scalar_node(text: str, loader=yaml.SafeLoader):
    """The node for ``text`` as a plain block-mapping value, or None."""
    try:
        root = yaml.compose(f"k: {text}\n", Loader=loader)
    except yaml.YAMLError:
        return None
    if root is None or not isinstance(root, yaml.MappingNode) or len(root.value) != 1:
        return None
    node = root.value[0][1]
    if not isinstance(node, yaml.ScalarNode) or node.style not in (None, "") or node.value == "":
        return None
    return node


def same_value(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


class TestScalarClassifier:
    @settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(_plain_candidates)
    def test_matches_the_reparse_reference(self, text):
        node = plain_scalar_node(text)
        assume(node is not None)
        # The reference read a leading document marker as the start of a
        # new document ("--- x" became "x"); in a mapping value it is text.
        assume(not (node.value[:3] in ("---", "...") and node.value[3:4] in ("", " ")))
        try:
            expected = reference_scalar(node.value)
        except ValueError:
            # The reference crashed here (a timestamp such as 2020-13-45);
            # the classifier keeps such text as a string.
            expected = node.value
        for loader in LOADERS:
            composed = plain_scalar_node(text, loader)
            assert composed is not None and composed.value == node.value, loader.__name__
            actual = parser._scalar(composed)
            assert same_value(actual, expected), (loader.__name__, node.value, actual, expected)

    def test_plain_scalars_are_not_reparsed(self, listing1_text, listing3_text, monkeypatch):
        def reparse(_text):
            raise AssertionError("a plain scalar was re-parsed")

        monkeypatch.setattr(parser, "load_yaml", reparse)
        parse_scenario(listing1_text)
        parser.parse_flow(listing3_text)

    @pytest.mark.parametrize("classes", ["libyaml", "pure-python"])
    def test_composing_resolves_no_tags(self, classes, listing1_text, listing3_text, monkeypatch, request):
        if classes == "pure-python":
            request.getfixturevalue("pure_python_yaml")
        calls = []
        resolve = yaml.resolver.BaseResolver.resolve

        def counting(self, kind, value, implicit):
            calls.append(value)
            return resolve(self, kind, value, implicit)

        monkeypatch.setattr(yaml.resolver.BaseResolver, "resolve", counting)
        yaml.compose(listing1_text, Loader=parser.YAML_LOADER)
        assert calls  # the count sees the resolving loader
        calls.clear()
        parser._compose(listing1_text, parser._NodeLoader)
        parser._compose(listing3_text, parser._NodeLoader)
        assert calls == []

    def test_block_scalars_are_reread(self):
        text = "networks:\n  - network:\n    - name: |\n        lab\n    - subnet: 12.0.0.0/24\n"
        assert parse_scenario(text).networks[0].name == "lab"

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("text", ["---", "--- x", "..."])
    def test_document_markers_are_text(self, text, loader):
        assert parser._scalar(plain_scalar_node(text, loader)) == text

    def test_libyaml_is_used_when_present(self):
        if yaml.__with_libyaml__:
            assert parser.YAML_LOADER is yaml.CSafeLoader
            assert parser.YAML_DUMPER is yaml.CSafeDumper
        else:
            assert parser.YAML_LOADER is yaml.SafeLoader


def pure_load(text: str):
    return yaml.load(text, Loader=yaml.SafeLoader)


class TestEmittersReadBackUnderPurePython:
    @settings(max_examples=150, deadline=None)
    @given(_text, st.binary(max_size=40), _text)
    def test_transcript(self, command, stdout, endpoint):
        event = TranscriptEvent(endpoint, "w", 0, command, CommandResult(0, stdout, b"", 1, 2), 0)
        loaded = pure_load(transcript_to_yaml(Transcript([event])))["transcript"][0]
        assert loaded["command"] == command
        assert loaded["stdout"] == stdout.decode("utf-8", "replace")
        assert loaded["endpoint"] == endpoint

    @settings(max_examples=150, deadline=None)
    @given(_text, _text, _text)
    def test_flaw_record(self, title, description, scenario_text):
        record = FlawRecord(
            title=title,
            flaw_class="dos",
            description=description,
            system="r/robo_x:1",
            detected_by="r/expl_y:1",
            reproduction_scenario=scenario_text,
        )
        text = record.to_yaml()
        assert pure_load(text) == record.to_dict()
        assert load_yaml(text) == record.to_dict()

    @settings(max_examples=150, deadline=None)
    @given(_text, _text)
    def test_plan(self, network, endpoint):
        plan = ConnectivityPlan(
            entries=(PlanEntry(kind="bridge", name=f"br-{network}", network=network),),
            attachments={endpoint: (network,)},
        )
        assert pure_load(export_plan_yaml(plan)) == {
            "entries": [{"kind": "bridge", "name": f"br-{network}", "network": network}],
            "endpoints": {endpoint: [network]},
        }


def reference_transcript_to_yaml(transcript: Transcript) -> str:
    """The former emitter: the events as maps through PyYAML's representer."""
    events = [
        {
            "seq": e.seq,
            "endpoint": e.endpoint,
            "window": e.window,
            "pane": e.pane,
            "command": e.command,
            "exit": e.result.exit_code,
            "stdout": e.result.stdout.decode("utf-8", "replace"),
            "stderr": e.result.stderr.decode("utf-8", "replace"),
            "started_at": e.result.started_at,
            "ended_at": e.result.ended_at,
        }
        for e in transcript.events
    ]
    return parser.dump_yaml({"transcript": events})


TRANSCRIPT_KEYS = ["seq", "endpoint", "window", "pane", "command", "exit", "stdout", "stderr", "started_at", "ended_at"]

_events = st.builds(
    TranscriptEvent,
    endpoint=_text,
    window=_text,
    pane=st.integers(),
    command=_text,
    result=st.builds(
        CommandResult,
        exit_code=st.integers(),
        stdout=st.binary(max_size=40),
        stderr=st.binary(max_size=40),
        started_at=st.integers(),
        ended_at=st.integers(),
    ),
    seq=st.integers(),
)

# Raw in a double-quoted scalar, YAML 1.1 rejects these or folds them.
_QUOTE_HAZARDS = "\x7f\x80\x85\x9f\u2028\u2029\ufeff\ufffe\uffff"


class TestTranscriptEmitter:
    """The line emitter against the PyYAML representer it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_events, max_size=3))
    def test_loads_like_the_reference(self, events):
        transcript = Transcript(events)
        text = transcript_to_yaml(transcript)
        reference = reference_transcript_to_yaml(transcript)
        for loader in LOADERS:
            loaded = yaml.load(text, Loader=loader)
            assert loaded == yaml.load(reference, Loader=loader)
            assert [list(doc) for doc in loaded["transcript"]] == [TRANSCRIPT_KEYS] * len(events)

    def test_empty(self):
        assert transcript_to_yaml(Transcript()) == "transcript: []\n"

    def test_hazardous_characters(self):
        text = f"a{_QUOTE_HAZARDS}\U0001F916\x00\t\n\\\"z"
        event = TranscriptEvent(text, text, 1, text, CommandResult(0, text.encode(), b"\xff\xfe", 2, 3), 0)
        for loader in LOADERS:
            doc = yaml.load(transcript_to_yaml(Transcript([event])), Loader=loader)["transcript"][0]
            assert doc["endpoint"] == doc["window"] == doc["command"] == doc["stdout"] == text
            assert doc["stderr"] == "\ufffd\ufffd"


class TestQuote:
    @settings(max_examples=300, deadline=None)
    @given(_text)
    def test_reads_back_exactly(self, text):
        for loader in LOADERS:
            assert yaml.load("k: " + parser.quote(text), Loader=loader) == {"k": text}

    @pytest.mark.parametrize("char", list(_QUOTE_HAZARDS))
    def test_escapes_hazards(self, char):
        assert parser.quote(char) == f'"\\u{ord(char):04x}"'

    @pytest.mark.parametrize("text", ["", "a b", 'say "hi"\\n', "\x00\x1f\t", "~"])
    def test_ascii_is_written_as_json(self, text):
        assert parser.quote(text) == json.dumps(text)

    def test_astral_characters_stay_raw(self):
        assert parser.quote("\U0001F916") == '"\U0001F916"'


# The round-trip, source-line and error-line tests once more on the fallback.
_FALLBACK = pytest.mark.usefixtures("pure_python_yaml")


@_FALLBACK
class TestParseScenarioPurePython(test_parser.TestParseScenario):
    def test_fallback_is_in_use(self):
        assert parser.YAML_LOADER is yaml.SafeLoader and parser.YAML_DUMPER is yaml.SafeDumper
        assert issubclass(parser._NodeLoader, yaml.SafeLoader)


@_FALLBACK
class TestParseFlowPurePython(test_parser.TestParseFlow):
    pass


@_FALLBACK
class TestRoundTripPurePython(test_parser.TestRoundTrip):
    # Hypothesis runs a property from one class only, so it is restated.
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_random_scenarios(self, scenario):
        assert parse_scenario(serialize_scenario(scenario)) == scenario
