"""Reference checks for the shared YAML loader, the scalar classifier and
the line writers.

The parser types plain scalars with YAML's resolver and the safe constructor
for the resolved tag.  It used to re-parse each scalar's text as a whole
document; that classifier is kept here as the reference.  The writers'
output is read back with libyaml and with the pure-Python loader, and the
transcript and plan writers are checked against PyYAML's dumper, which
wrote them before.
"""

import json
import math
import re
import string
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from alurity import parser
from alurity.flows import Transcript, TranscriptEvent, transcript_to_yaml
from alurity.netplan import ConnectivityPlan, PlanEntry, allocate_addresses, build_connectivity_plan, export_plan_yaml
from alurity.orchestrator import CommandResult
from alurity.parser import parse_scenario, serialize_scenario
from alurity.pipeline import FlawRecord

import test_parser
from test_rvd_oracle import record_document
from strategies import scenarios
from yaml_classes import dump, load

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


# The parsers mark a plain scalar differently: style None in Python, "" in
# libyaml.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def plain_scalar_event(text: str, loader=yaml.SafeLoader):
    """The event for ``text`` as a plain block-mapping value, or None."""
    try:
        events = list(yaml.parse(f"k: {text}\n", Loader=loader))
    except yaml.YAMLError:
        return None
    kinds = [type(event) for event in events]
    if kinds != [yaml.StreamStartEvent, yaml.DocumentStartEvent, yaml.MappingStartEvent, yaml.ScalarEvent, yaml.ScalarEvent, yaml.MappingEndEvent, yaml.DocumentEndEvent, yaml.StreamEndEvent]:
        return None
    event = events[4]
    if event.style not in (None, "") or event.value == "":
        return None
    return event


def root_event(text: str):
    """The first event of the root node of the document in ``text``, on the
    classes the package parses with."""
    return list(yaml.parse(text, Loader=parser.YAML_LOADER))[2]


def same_value(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


FIXTURES = Path(__file__).parent / "fixtures"


class TestScalarClassifier:
    @settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(_plain_candidates)
    def test_matches_the_reparse_reference(self, text):
        event = plain_scalar_event(text)
        assume(event is not None)
        # The reference read a leading document marker as the start of a
        # new document ("--- x" became "x"); in a mapping value it is text.
        assume(not (event.value[:3] in ("---", "...") and event.value[3:4] in ("", " ")))
        try:
            expected = reference_scalar(event.value)
        except ValueError:
            # The reference crashed here (a timestamp such as 2020-13-45);
            # the classifier keeps such text as a string.
            expected = event.value
        for loader in LOADERS:
            parsed = plain_scalar_event(text, loader)
            assert parsed is not None and parsed.value == event.value, loader.__name__
            actual = parser._scalar(parsed)
            assert same_value(actual, expected), (loader.__name__, event.value, actual, expected)

    def test_plain_scalars_are_not_reparsed(self, listing1_text, listing3_text, monkeypatch):
        def reparse(*_args):
            raise AssertionError("a plain scalar was re-parsed")

        monkeypatch.setattr(parser, "build_yaml", reparse)
        parse_scenario(listing1_text)
        parser.parse_flow(listing3_text)

    @pytest.mark.parametrize("classes", ["libyaml", "pure-python"])
    def test_reading_resolves_no_tags(self, classes, listing1_text, listing3_text, monkeypatch, request):
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
        parse_scenario(listing1_text)
        parser.parse_flow(listing3_text)
        assert calls == []

    @pytest.mark.parametrize("classes", ["libyaml", "pure-python"])
    @pytest.mark.parametrize("style", ["|", ">", "|-", ">+"])
    @pytest.mark.parametrize("text", ["yes", "4", "a: 1", "- x\n- y", "!!str 4", "&a [*a]", "[[[", "~", ""])
    def test_block_scalars_are_their_text(self, text, style, classes, request):
        """A block scalar reads as the text YAML itself gives it, trailing
        newline included; its text is never read as a document."""
        if classes == "pure-python":
            request.getfixturevalue("pure_python_yaml")
        document = f"{style}\n" + "".join(f"  {line}\n" for line in text.split("\n") if line)
        expected = load(document)
        assert isinstance(expected, str)
        assert parser._scalar(root_event(document)) == expected

    def test_a_block_scalar_in_a_scenario_keeps_its_text(self):
        text = "networks:\n  - network:\n    - name: |\n        lab\n    - driver: >\n        a: 1\n    - subnet: 12.0.0.0/24\n"
        (network,) = parse_scenario(text).networks
        assert (network.name, network.driver) == ("lab\n", "a: 1\n")

    def test_a_block_integer_is_text(self):
        text = "containers:\n  - container:\n    - name: x\n    - modules:\n       - base: r/x:1\n    - cpus: |\n        4\n"
        with pytest.raises(parser.ParseFailure, match=r"containers\[0\]\.cpus must be an integer, got '4\\n'"):
            parse_scenario(text)

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("text", ["---", "--- x", "..."])
    def test_document_markers_are_text(self, text, loader):
        assert parser._scalar(plain_scalar_event(text, loader)) == text

    def test_libyaml_is_used_when_present(self):
        if yaml.__with_libyaml__:
            assert parser.YAML_LOADER is yaml.CSafeLoader
        else:
            assert parser.YAML_LOADER is yaml.SafeLoader


_OLD_BARE_RE = re.compile(r"[A-Za-z0-9$_./()=@+,^~:-]+")


def reference_emit_scalar(text: str) -> str:
    """The former string emitter: bare text was written bare only when
    reading it back as a whole document gave a string."""
    if _OLD_BARE_RE.fullmatch(text) and ": " not in text:
        try:
            if isinstance(load(text), str):
                return text
        except (ValueError, yaml.YAMLError):
            pass
    return parser.quote(text)


# Text that is all in the bare alphabet, weighted towards the indicators and
# document markers where reading back as a document and the resolver differ.
_bare_candidates = st.one_of(
    _plain_candidates,
    st.text("Aa0$_./()=@+,^~:-19eEnNyY", min_size=1, max_size=6),
    st.lists(st.sampled_from(["@", ",", ":", "-", "---", "...", ".", "a", "1", "y"]), min_size=1, max_size=4).map("".join),
)


class TestEmitScalar:
    @settings(max_examples=1000, deadline=None)
    @given(_bare_candidates)
    def test_matches_the_reparse_reference(self, text):
        assert parser._emit_scalar(text) == reference_emit_scalar(text)

    @pytest.mark.parametrize("text", ["@a", ",a", ":", "a:", ":a:", "-", "---", "...", "null", "1_000", "2020-13-45", "="])
    def test_text_that_reads_back_otherwise_is_quoted(self, text):
        assert parser._emit_scalar(text) == parser.quote(text) == reference_emit_scalar(text)

    @pytest.mark.parametrize("text", [":a", "-a", "a:b", "a,b", "a@b", "--", "....", "r/robo_x:1.0"])
    def test_plain_text_stays_bare(self, text):
        assert parser._emit_scalar(text) == text == reference_emit_scalar(text)

    def test_no_document_is_loaded(self, listing1, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a scalar was read back as a document")

        monkeypatch.setattr(parser, "_document", refuse)
        monkeypatch.setattr(parser, "build_yaml", refuse)
        assert "- name: attacker" in serialize_scenario(listing1)


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
        assert pure_load(text) == record_document(record)
        assert load(text) == record_document(record)

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
    return dump({"transcript": events})


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


def reference_plan_yaml(plan: ConnectivityPlan) -> str:
    """The former export: each entry's set fields and each endpoint's
    networks as maps and lists through PyYAML's representer."""
    return dump({
        "entries": [{key: value for key, value in zip(PlanEntry._fields, entry) if value is not None} for entry in plan.entries],
        "endpoints": {name: list(nets) for name, nets in plan.attachments.items()},
    })


# Names the plan writer must quote, or write as explicit keys: quotes,
# backslashes, ": ", "#", astral, C1 and line-separator characters, YAML
# keywords, and keys that are written 1,023, 1,024, 1,025 and 2,000+
# characters long (YAML's limit on an implicit key is 1,024).
_PLAN_NAMES = [
    'say "hi"', "C:\\lab", "a: b", "#lab", "lab #1", "\U0001F916", "\x85\x9f", "a\u2028b", "yes", "null", "1.5", "",
    "x" * 1023, "x" * 1024, "x" * 2000, "\xe9" * 1022, "\xe9" * 1023, "\U0001F916" * 2000, '"' * 600,
]
_plan_names = st.one_of(st.sampled_from(_PLAN_NAMES), _text)


@st.composite
def _plans(draw) -> ConnectivityPlan:
    """The plan of a generated scenario, its names (every field but ``kind``
    and ``encryption``) drawn anew when ``rename`` is drawn true."""
    scenario = draw(scenarios())
    plan = build_connectivity_plan(scenario, allocate_addresses(scenario))
    if not draw(st.booleans()):
        return plan
    names: dict = {}

    def rename(name):
        if name not in names:
            names[name] = draw(_plan_names)
        return names[name]

    entries = tuple(PlanEntry(e.kind, *(None if v is None else rename(v) for v in e[1:-1]), e.encryption) for e in plan.entries)
    return ConnectivityPlan(entries, {rename(name): tuple(map(rename, nets)) for name, nets in plan.attachments.items()})


# Every set field, the former ``to_dict`` key-order example, and every
# hand-made name as an endpoint and as a network.
_HAND_MADE_PLAN = ConnectivityPlan(
    entries=(
        PlanEntry("filter-rule", action="masquerade", network="n", encryption=False),
        PlanEntry(*PlanEntry._fields[:-1], encryption=True),
        *(PlanEntry("veth-pair", endpoint=name, bridge=f"br-{name}") for name in _PLAN_NAMES),
    ),
    attachments={**{name: (name, "n") for name in _PLAN_NAMES}, "none": ()},
)


class TestPlanEmitter:
    """The plan's line writer against PyYAML's dumper, which wrote it before."""

    @staticmethod
    def check(plan: ConnectivityPlan):
        text, reference = export_plan_yaml(plan), reference_plan_yaml(plan)
        for loader in LOADERS:
            loaded = yaml.load(text, Loader=loader)
            assert loaded == yaml.load(reference, Loader=loader)
            assert [list(entry) for entry in loaded["entries"]] == [
                [key for key, value in zip(PlanEntry._fields, entry) if value is not None] for entry in plan.entries
            ]
            assert list(loaded["endpoints"]) == list(plan.attachments)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_plans())
    def test_loads_like_the_reference(self, plan):
        self.check(plan)

    def test_hand_made_names(self):
        self.check(_HAND_MADE_PLAN)

    def test_only_keys_past_the_limit_are_explicit(self):
        text = export_plan_yaml(_HAND_MADE_PLAN)
        explicit = sorted(len(line) - 4 for line in text.splitlines() if line.startswith("  ? "))
        assert explicit == [1025, 1202, 2000, 2002]

    def test_empty(self):
        assert export_plan_yaml(ConnectivityPlan()) == "entries: []\nendpoints: {}\n"

    @pytest.mark.parametrize("name", ["listing1.yaml", "rosnet.yaml", "mixed.yaml"])
    def test_fixtures(self, name):
        scenario = parse_scenario((FIXTURES / name).read_text(encoding="utf-8"))
        self.check(build_connectivity_plan(scenario, allocate_addresses(scenario)))

    def test_plain_names_are_written_as_before(self, merged12):
        plan = build_connectivity_plan(merged12, allocate_addresses(merged12))
        assert export_plan_yaml(plan) == reference_plan_yaml(plan)


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


_FORMER_JSON_STRING = json.JSONEncoder(ensure_ascii=False).encode
_FORMER_HAZARDS_RE = re.compile("[\x7f-\x9f\u2028\u2029\ufeff\ufffe\uffff]")


def reference_quote(text: str) -> str:
    """The former ``quote``: the JSON encoder's ``encode``, then every hazard
    escaped by a callable substitution."""
    return _FORMER_HAZARDS_RE.sub(lambda m: f"\\u{ord(m.group()):04x}", _FORMER_JSON_STRING(text))


def reference_event_transcript_to_yaml(transcript: Transcript) -> str:
    """The former line emitter: every field of every event quoted anew."""
    if not transcript.events:
        return "transcript: []\n"
    lines = ["transcript:"]
    for e in transcript.events:
        r = e.result
        lines.append(
            f"- seq: {e.seq}\n"
            f"  endpoint: {reference_quote(e.endpoint)}\n"
            f"  window: {reference_quote(e.window)}\n"
            f"  pane: {e.pane}\n"
            f"  command: {reference_quote(e.command)}\n"
            f"  exit: {r.exit_code}\n"
            f"  stdout: {reference_quote(r.stdout.decode('utf-8', 'replace'))}\n"
            f"  stderr: {reference_quote(r.stderr.decode('utf-8', 'replace'))}\n"
            f"  started_at: {r.started_at}\n"
            f"  ended_at: {r.ended_at}"
        )
    return "\n".join(lines) + "\n"


# Text weighted towards what quoting escapes: the hazards, C0 controls, the
# JSON escapes, non-ASCII the encoder leaves raw and astral characters.
_QUOTING_CHARS = list(_QUOTE_HAZARDS) + ["\x00", "\x1f", "\t", "\n", '"', "\\", "/", "a", " ", "\xe9", "\U0001F916", "\U00010000", "\U0010ffff"]
_quoting_text = st.one_of(_text, st.text(st.sampled_from(_QUOTING_CHARS), max_size=12))
# Command output: valid UTF-8 of that text, or bytes that do not decode
# (a lone continuation byte, a cut sequence, an encoded surrogate, 0xff).
_output = st.one_of(
    _quoting_text.map(str.encode),
    st.binary(max_size=12),
    st.lists(st.sampled_from([b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xff", b"ok", "\u2028".encode()]), max_size=4).map(b"".join),
)


@st.composite
def _repetitive_transcripts(draw):
    """Events whose endpoints, windows and outputs come from small pools, so
    that pairs repeat and also appear swapped."""
    names = draw(st.lists(_quoting_text, min_size=1, max_size=3))
    outputs = draw(st.lists(_output, min_size=1, max_size=3))
    events = []
    for seq in range(draw(st.integers(0, 12))):
        result = CommandResult(
            draw(st.integers(-1, 255)),
            draw(st.sampled_from(outputs)),
            draw(st.sampled_from(outputs)),
            draw(st.integers(0, 10**6)),
            draw(st.integers(0, 10**6)),
        )
        name = st.sampled_from(names)
        events.append(TranscriptEvent(draw(name), draw(name), draw(st.integers(0, 3)), draw(_quoting_text), result, seq))
    return Transcript(events)


class TestAgainstFormerEmitters:
    """``quote`` and ``transcript_to_yaml`` write the bytes their former
    versions wrote."""

    @settings(max_examples=500, deadline=None)
    @given(_quoting_text)
    def test_quote(self, text):
        assert parser.quote(text) == reference_quote(text)

    @pytest.mark.parametrize("text", ["", "plain", _QUOTE_HAZARDS, "\U0001F916\u2028x\ufeff", '\x00"\\'])
    def test_quote_examples(self, text):
        assert parser.quote(text) == reference_quote(text)

    @settings(max_examples=200, deadline=None)
    @given(_repetitive_transcripts())
    def test_transcript_with_repeats(self, transcript):
        assert transcript_to_yaml(transcript) == reference_event_transcript_to_yaml(transcript)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_events, max_size=4))
    def test_transcript_of_any_events(self, events):
        transcript = Transcript(events)
        assert transcript_to_yaml(transcript) == reference_event_transcript_to_yaml(transcript)

    def test_repeated_values_are_not_confused(self):
        """An output pair and its swap, and one endpoint in two windows,
        each keep their own text."""
        events = [
            TranscriptEvent("a", "w", 0, "x", CommandResult(0, b"1", b"\xff", 0, 0), 0),
            TranscriptEvent("a", "v", 0, "x", CommandResult(0, b"\xff", b"1", 0, 0), 1),
            TranscriptEvent("a", "w", 1, "x", CommandResult(0, b"1", b"\xff", 0, 0), 2),
        ]
        text = transcript_to_yaml(Transcript(events))
        assert text == reference_event_transcript_to_yaml(Transcript(events))
        loaded = yaml.safe_load(text)["transcript"]
        assert [(e["window"], e["stdout"], e["stderr"]) for e in loaded] == [
            ("w", "1", "\ufffd"), ("v", "\ufffd", "1"), ("w", "1", "\ufffd"),
        ]


# The round-trip, source-line and error-line tests once more on the fallback.
_FALLBACK = pytest.mark.usefixtures("pure_python_yaml")


@_FALLBACK
class TestParseScenarioPurePython(test_parser.TestParseScenario):
    def test_fallback_is_in_use(self):
        assert parser.YAML_LOADER is yaml.SafeLoader


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
