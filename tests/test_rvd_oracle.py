"""Differential tests: ticket extraction and the flaw-record writer against
the ones they replaced, kept here verbatim as the oracles.

The former ``extract_reproduction`` tried every block as a scenario first
and, when that failed, loaded it whole to look for an emitted flaw record.
It is kept with one change: a record block loads with its explicit tags
ignored (``yaml_classes.load_untagged``), as every reader in the package
reads YAML.
The former ``FlawRecord.to_yaml`` was PyYAML's dumper over the record's
document, ``record_document`` (``yaml_classes.dump``).
Inputs are flaw records (written by both emitters), scenario and flow
documents, and line mutations of both: the scenario mutations of
``test_parser_oracle`` and, for records, explicit tags, odd scalars,
renamed and repeated keys, merge keys and non-text ``scenario``/``flow``
values.  Extraction runs on the libyaml classes and again on PyYAML's
pure-Python ones.
"""

import re
from typing import Optional

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alurity import rvd
from alurity.model import FlowSpec, Scenario
from alurity.parser import ParseFailure, parse_flow, parse_scenario, serialize_flow, serialize_scenario
from alurity.pipeline import FlawRecord
from alurity.rvd import NoReproductionFound, Ticket, extract_reproduction

from strategies import scenarios
from test_parser_oracle import ODD_SCALARS, SCENARIO_TEXTS, TAGS, _fixture, mutated
from yaml_classes import dump, load, load_untagged, pure_python_classes

# --- the oracles ---------------------------------------------------------------

_FENCE_RE = re.compile(r"```yaml\s*\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _is_scenario(scenario: Scenario) -> bool:
    return bool(scenario.networks or scenario.containers or scenario.vms)


def reference_extract_reproduction(ticket: Ticket) -> tuple[Scenario, Optional[list[FlowSpec]]]:
    blocks = [m.group(1) for m in _FENCE_RE.finditer(ticket.body)]
    scenario: Optional[Scenario] = None
    flow: Optional[list[FlowSpec]] = None
    for block in blocks:
        if scenario is None:
            try:
                candidate = parse_scenario(block)
                if _is_scenario(candidate):
                    scenario = candidate
                    if candidate.flows:
                        flow = list(candidate.flows)
                    continue
            except ParseFailure:
                pass
            embedded = _reproduction_from_record(block)
            if embedded is not None:
                return embedded
        elif flow is None:
            try:
                parsed = parse_flow(block)
                if parsed:
                    flow = parsed
            except ParseFailure:
                pass
    if scenario is None:
        raise NoReproductionFound(f"ticket {ticket.id} embeds no scenario")
    return scenario, flow


def _reproduction_from_record(block: str) -> Optional[tuple[Scenario, Optional[list[FlowSpec]]]]:
    try:
        doc = load_untagged(block)
    except (ValueError, yaml.YAMLError):
        return None
    if not isinstance(doc, dict) or "reproduction" not in doc:
        return None
    reproduction = doc.get("reproduction") or {}
    if not isinstance(reproduction, dict):
        return None
    scenario_text = reproduction.get("scenario", "")
    flow_text = reproduction.get("flow") or ""
    if not isinstance(scenario_text, str) or not isinstance(flow_text, str):
        return None
    try:
        scenario = parse_scenario(scenario_text)
    except ParseFailure:
        return None
    if not _is_scenario(scenario):
        return None
    flow: Optional[list[FlowSpec]] = None
    if flow_text:
        try:
            flow = parse_flow(flow_text) or None
        except ParseFailure:
            flow = None
    return scenario, flow


def record_document(record: FlawRecord) -> dict:
    """The map a record's YAML reads back as, keys in the order it is written."""
    return {
        "id": record.id,
        "title": record.title,
        "flaw-class": record.flaw_class,
        "description": record.description,
        "system": record.system,
        "vendor": record.vendor,
        "severity": record.severity,
        "detected-by": record.detected_by,
        "reproduction": {"scenario": record.reproduction_scenario, "flow": record.reproduction_flow},
    }


def reference_record_yaml(record: FlawRecord) -> str:
    return dump(record_document(record))


# --- inputs ----------------------------------------------------------------------

# Printable text; lone surrogates are not text any YAML stream can carry.
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
FIXED_KEYS = ["id", "title", "flaw-class", "description", "system", "vendor", "severity", "detected-by", "reproduction"]
_field = st.one_of(_text, st.integers(), st.none())
_scenario_texts = st.one_of(st.sampled_from(SCENARIO_TEXTS), scenarios().map(serialize_scenario))
_flow_texts = st.one_of(st.just(""), st.just(_fixture("listing3.yaml")), scenarios().map(lambda s: serialize_flow(s.flows)))


@st.composite
def records(draw, odd_fields: bool = False) -> FlawRecord:
    """A flaw record with text fields; with ``odd_fields``, any field may
    hold text, an int or None."""
    field = _field if odd_fields else _text
    return FlawRecord(
        title=draw(field),
        flaw_class=draw(field),
        description=draw(field),
        system=draw(field),
        detected_by=draw(field),
        reproduction_scenario=draw(_field if odd_fields else _scenario_texts),
        reproduction_flow=draw(_field if odd_fields else _flow_texts),
        severity=draw(field),
        vendor=draw(st.one_of(st.none(), field)),
        id=draw(st.one_of(st.none(), st.integers(0, 10**6), field)),
    )


record_blocks = st.one_of(records().map(FlawRecord.to_yaml), records().map(reference_record_yaml))

_RECORD_LINE_RE = re.compile(r"^( *)([A-Za-z-]+):( .*)?$")  # "key: value" lines
RECORD_KEYS = FIXED_KEYS + ["scenario", "flow", "<<", "networks", "other"]
NON_TEXT = ["5", "[a, b]", "{a: b}", "null", "true", "!!binary aGk=", "2020-01-01", "[networks]"]
RECORD_MUTATIONS = ["tag", "value", "non-text", "rekey", "repeat", "delete", "merge", "indent"]


@st.composite
def mutated_records(draw):
    """A record block with up to three line mutations applied."""
    lines = draw(record_blocks).split("\n")
    for kind in draw(st.lists(st.sampled_from(RECORD_MUTATIONS), min_size=1, max_size=3)):
        i = draw(st.integers(0, len(lines) - 1))
        entry = _RECORD_LINE_RE.match(lines[i])
        if kind == "repeat":
            lines.insert(i + 1, lines[i])
        elif kind == "delete":
            del lines[i]
        elif kind == "indent":
            lines[i] = "  " + lines[i] if draw(st.booleans()) else lines[i][2:]
        elif kind == "merge":  # a merge key bringing in a reproduction map
            lines.insert(i, f"<<: {{reproduction: {{scenario: {draw(st.sampled_from(NON_TEXT))}}}}}")
        elif entry is None:
            continue
        elif kind == "tag":
            lines[i] = f"{entry[1]}{entry[2]}: {draw(st.sampled_from(TAGS))}{entry[3] or ''}"
        elif kind == "value":
            lines[i] = f"{entry[1]}{entry[2]}: {draw(st.sampled_from(ODD_SCALARS))}"
        elif kind == "non-text":
            lines[i] = f"{entry[1]}{entry[2]}: {draw(st.sampled_from(NON_TEXT))}"
        elif kind == "rekey":
            lines[i] = f"{entry[1]}{draw(st.sampled_from(RECORD_KEYS))}:{entry[3] or ''}"
    return "\n".join(lines)


flow_blocks = st.one_of(st.just(_fixture("listing3.yaml")), mutated(st.just(_fixture("listing3.yaml"))))
first_blocks = st.one_of(
    record_blocks,
    mutated_records(),
    mutated(record_blocks),
    st.sampled_from(SCENARIO_TEXTS),
    mutated(st.sampled_from(SCENARIO_TEXTS)),
    st.just("just: prose\n"),
)
bodies = st.lists(st.one_of(first_blocks, flow_blocks), min_size=1, max_size=3).map(
    lambda blocks: "prose\n" + "".join(f"```yaml\n{block}```\n" for block in blocks)
)


def _outcome(extract, body: str):
    """What ``extract`` makes of ``body``.  Of a ``NoReproductionFound``, only
    the first line: the oracle does not say why each block went unused."""
    try:
        scenario, flow = extract(Ticket(id=1, title="t", body=body))
    except NoReproductionFound as exc:
        return ("NoReproductionFound", str(exc).split("\n")[0].split(":")[0])
    return ("ok", scenario, scenario.source_map, flow)


# --- the tests ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bodies)
def test_extract_matches_oracle(body):
    assert _outcome(extract_reproduction, body) == _outcome(reference_extract_reproduction, body)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bodies)
def test_extract_matches_oracle_pure_python(body):
    with pure_python_classes():
        assert _outcome(extract_reproduction, body) == _outcome(reference_extract_reproduction, body)


fence_fragments = st.sampled_from(["```", "```yaml", "```yaml ", "\n", "\r\n", " ", "`", "``", "text", "a: b"])


@settings(max_examples=300, deadline=None)
@given(st.lists(fence_fragments, max_size=16).map("".join))
def test_fence_scan_captures_the_oracles_blocks(body):
    """``rvd``'s line-by-line fence pattern captures the blocks the oracle's
    ``(.*?)^```` pattern does, on bodies made of fence fragments."""
    assert [m.group(1) for m in rvd._FENCE_RE.finditer(body)] == [m.group(1) for m in _FENCE_RE.finditer(body)]


def test_mutations_reach_the_record_rules():
    """The record path's rules the mutations are there to reach, each once:
    explicit tags are ignored, a plain value its type cannot read anywhere
    in the block rejects the record, a merge key can bring ``reproduction``
    in, and non-text material is not a reproduction."""
    listing1 = SCENARIO_TEXTS[0]
    record = FlawRecord("t", "dos", "d", "s", "x", listing1)
    block = record.to_yaml()
    cases = {
        block: "ok",
        block.replace('title: "t"', "title: !!bool t"): "ok",
        block.replace('title: "t"', "title: 2020-13-45"): "NoReproductionFound",
        block.replace('title: "t"', 'title: !!int ""'): "ok",
        block.replace("reproduction:", "<<:\n  reproduction:").replace("\n  scenario:", "\n    scenario:").replace("\n  flow:", "\n    flow:"): "ok",
        block.replace("reproduction:", "other:"): "NoReproductionFound",
        'reproduction: {scenario: !!binary aGk=}\n': "NoReproductionFound",
    }
    for text, expected in cases.items():
        body = f"```yaml\n{text}```\n"
        outcome = _outcome(extract_reproduction, body)
        assert outcome == _outcome(reference_extract_reproduction, body)
        assert outcome[0] == expected, text


def test_merge_key_named_like_a_section_still_reads_as_a_scenario():
    """A merge-tagged key reads as its text in the scenario dialect: tags
    are ignored, and only a plain ``<<`` merges."""
    text = "!!merge networks:\n  - network:\n    - name: a\n    - subnet: 10.0.0.0/24\n"
    body = f"```yaml\n{text}```\n"
    outcome = _outcome(extract_reproduction, body)
    assert outcome == _outcome(reference_extract_reproduction, body)
    assert outcome[0] == "ok" and outcome[1].networks[0].name == "a"


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(records(), records(odd_fields=True)))
def test_record_yaml_loads_like_the_oracle(record):
    """Both loader classes read the line writer's output as the document the
    representer's output reads as, key order included."""
    new, old = record.to_yaml(), reference_record_yaml(record)
    expected = load(old)
    assert list(load(new).items()) == list(expected.items())
    with pure_python_classes():
        assert list(load(new).items()) == list(load(old).items()) == list(expected.items())
