"""The event reader where the oracle does not reach: aliases of a whole
record, of a scalar and of a collection that is still open (a node that
contains itself), in a scenario, a flow, an ``--index`` map and a ticket
block, on both YAML classes; what outranks a record's own error; and the
live fold against the fold of a document's listed events.

A document without an anchor is folded as its parser's events arrive; one
with an anchor is listed first, and each alias replays the events of the
node it names.  Each value and message below is what the node-tree reader
this one replaced read.
"""

import functools
import gc

import pytest
from hypothesis import HealthCheck, given, settings

from alurity import parser, rvd
from alurity.model import Command, ContainerSpec, Diagnostic, FlowSpec, ModuleRef, NetworkSpec, Split, WindowSpec
from alurity.parser import ParseFailure, load_yaml_map, parse_flow_document, parse_scenario, parse_scenario_with_warnings
from alurity.toolreg import ExtractionRule, ModuleManifest, load_registry_index

from test_parser import nested
from test_parser_oracle import _outcome, documents

CLASSES = pytest.mark.parametrize("classes", ["libyaml", "pure-python"])


@pytest.fixture
def classes_in_use(classes, request):
    if classes == "pure-python":
        request.getfixturevalue("pure_python_yaml")


LAB = NetworkSpec(name="lab", subnet="12.0.0.0/24")
C = ContainerSpec(name="c", base=ModuleRef.parse("r/x:1"), networks=("lab",))

SCENARIO_RECORD = "networks:\n  - network: &net\n    - name: lab\n    - subnet: 12.0.0.0/24\n  - network: *net\ncontainers:\n  - container:\n    - name: c\n    - modules:\n        - base: r/x:1\n        - network: lab\n"
SCENARIO_SCALAR = "networks:\n  - network:\n    - name: &n lab\n    - subnet: 12.0.0.0/24\ncontainers:\n  - container:\n    - name: c\n    - modules:\n        - base: r/x:1\n        - network: *n\n"
# The container's modules are the container itself, read by the modules table.
SCENARIO_OPEN = "containers:\n  - container: &c\n    - name: c\n    - modules: *c\n    - base: r/x:1\n"


@CLASSES
@pytest.mark.usefixtures("classes_in_use")
class TestScenarioAliases:
    def test_an_alias_of_a_whole_record(self):
        scenario, warnings = parse_scenario_with_warnings(SCENARIO_RECORD)
        assert (scenario.networks, scenario.containers, warnings) == ((LAB, LAB), (C,), [])
        assert dict(scenario.source_map) == {
            "networks[0]": 2, "networks[0].name": 3, "networks[0].subnet": 4,
            "networks[1]": 5, "networks[1].name": 3, "networks[1].subnet": 4,
            "containers[0]": 7, "containers[0].name": 8, "containers[0].modules": 9,
            "containers[0].modules.base": 10, "containers[0].networks[0]": 11,
        }

    def test_an_alias_of_a_scalar(self):
        scenario = parse_scenario(SCENARIO_SCALAR)
        assert (scenario.networks, scenario.containers) == ((LAB,), (C,))
        assert scenario.source_map["containers[0].networks[0]"] == 10

    def test_an_alias_of_a_collection_still_open(self):
        scenario, warnings = parse_scenario_with_warnings(SCENARIO_OPEN)
        assert scenario.containers == (ContainerSpec(name="c", base=ModuleRef.parse("r/x:1")),)
        assert warnings == [
            Diagnostic("warning", "unknown-key", "unknown key 'name' ignored", "containers[0].modules.name", 3),
            Diagnostic("warning", "unknown-key", "unknown key 'modules' ignored", "containers[0].modules.modules", 4),
            Diagnostic("warning", "unknown-key", "unknown key 'base' ignored", "containers[0].base", 5),
        ]
        assert dict(scenario.source_map) == {
            "containers[0]": 2, "containers[0].name": 3, "containers[0].modules": 4, "containers[0].modules.name": 3,
            "containers[0].modules.modules": 4, "containers[0].modules.base": 5, "containers[0].base": 5,
        }


W = WindowSpec(name="w", items=(Command("x"),))


@CLASSES
@pytest.mark.usefixtures("classes_in_use")
class TestFlowAliases:
    def test_an_alias_of_a_whole_record(self):
        text = "flow:\n  - container: &f\n    - name: a\n    - window:\n      - name: w\n      - commands:\n        - command: x\n  - vm: *f\n"
        document = parse_flow_document(text)
        assert document.flows == (FlowSpec(endpoint="a", windows=(W,)),) * 2
        assert (document.source_map["flows[1]"], document.source_map["flows[1].windows[0].items"]) == (8, 6)

    def test_an_alias_of_a_scalar(self):
        text = 'flow:\n  - container:\n    - name: a\n    - window:\n      - name: w\n      - commands:\n        - command: &cmd "run it"\n        - split: horizontal\n        - command: *cmd\n'
        (flow,) = parse_flow_document(text).flows
        assert flow.windows[0].items == (Command("run it"), Split("horizontal"), Command("run it"))

    def test_an_alias_of_a_collection_still_open(self):
        text = "flow:\n  - container:\n    - name: a\n    - window: &w\n      - name: w\n      - commands: *w\n"
        with pytest.raises(ParseFailure) as exc:
            parse_flow_document(text)
        assert (exc.value.message, exc.value.line) == ("unknown key 'name' under flows[0].windows[0].commands", 5)


R, S = "registry.example/robo_x:1", "registry.example/robo_y:1"


@CLASSES
@pytest.mark.usefixtures("classes_in_use")
class TestIndexAliases:
    @staticmethod
    def write(tmp_path, text: str) -> str:
        path = tmp_path / "index.yaml"
        path.write_text(text)
        return str(path)

    def test_an_alias_of_a_whole_record(self, tmp_path):
        path = self.write(tmp_path, f"{R}: &m\n  entrypoint: /bin/x\n  rules:\n    - id: r\n      pattern: 'VULN (?P<title>.+)'\n      title: '{{title}}'\n{S}: *m\n")
        doc = load_yaml_map(path)
        assert doc[R] is doc[S]
        rule = ExtractionRule(id="r", pattern="VULN (?P<title>.+)", title="{title}", flaw_class="vulnerability")
        assert load_registry_index(path).lookup(S) == ModuleManifest(entrypoint="/bin/x", rules=(rule,))

    def test_an_alias_of_a_scalar(self, tmp_path):
        path = self.write(tmp_path, f"{R}:\n  entrypoint: &e /bin/x\n{S}:\n  entrypoint: *e\n")
        assert load_yaml_map(path) == {R: {"entrypoint": "/bin/x"}, S: {"entrypoint": "/bin/x"}}
        assert load_registry_index(path).lookup(S) == ModuleManifest(entrypoint="/bin/x")

    def test_an_alias_of_a_collection_still_open(self, tmp_path):
        path = self.write(tmp_path, f"{R}: &m\n  entrypoint: /bin/x\n  again: *m\n")
        with pytest.raises(ParseFailure) as exc:
            load_registry_index(path)
        assert (exc.value.message, exc.value.line) == ("a node contains itself", 1)


def extract(block: str):
    rvd._read_reproduction.cache_clear()
    return rvd.extract_reproduction(rvd.Ticket(1, "t", f"x\n```yaml\n{block}```\n"))


@CLASSES
@pytest.mark.usefixtures("classes_in_use")
class TestTicketBlockAliases:
    def test_an_alias_of_a_whole_record(self):
        scenario, flow = extract(SCENARIO_RECORD)
        assert (scenario.networks, scenario.containers, flow) == ((LAB, LAB), (C,), None)

    def test_an_alias_of_a_scalar(self):
        scenario, _ = extract(SCENARIO_SCALAR)
        assert (scenario.networks, scenario.containers) == ((LAB,), (C,))

    def test_an_alias_of_a_collection_still_open(self):
        scenario, _ = extract(SCENARIO_OPEN)
        assert scenario.containers == (ContainerSpec(name="c", base=ModuleRef.parse("r/x:1")),)

    def test_a_record_that_contains_itself_is_no_reproduction(self):
        with pytest.raises(rvd.NoReproductionFound) as exc:
            extract("reproduction: &r\n  scenario: *r\n")
        assert str(exc.value) == "ticket 1 embeds no scenario\n  block 1 at line 3: unknown top-level key 'reproduction' (line 3)"


DEEP = 12_000


@CLASSES
@pytest.mark.usefixtures("classes_in_use")
class TestWhatOutranksARecordError:
    """A record's own error is raised only once the document is read: a
    malformed or too deep document, and a malformed entry of the record or
    the section holding it, are reported first."""

    BAD_CPUS = "containers:\n  - container:\n    - name: x\n    - cpus: lots\n"

    def test_nesting_further_down(self):
        text = f"{self.BAD_CPUS}    - extra: {nested(DEEP, flow=True)}\n"
        with pytest.raises(ParseFailure) as exc:
            parse_scenario(text)
        assert (exc.value.message, exc.value.line) == ("nested too deeply to read", 5)

    def test_malformed_yaml_further_down(self):
        with pytest.raises(ParseFailure) as exc:
            parse_scenario(f"{self.BAD_CPUS}vms: [\n")
        assert exc.value.message.startswith("malformed YAML: ")

    def test_a_second_key_in_the_same_entry(self):
        with pytest.raises(ParseFailure) as exc:
            parse_scenario(self.BAD_CPUS.replace("cpus: lots\n", "cpus: lots\n      memory: 1\n"))
        assert (exc.value.message, exc.value.line) == ("each entry under containers[0] must be a single-key map", 4)

    def test_a_mistagged_entry_later_in_the_section(self):
        with pytest.raises(ParseFailure) as exc:
            parse_scenario(f"{self.BAD_CPUS}  - vm:\n    - name: y\n")
        assert (exc.value.message, exc.value.line) == ("expected 'container' entries under containers, got 'vm'", 5)

    def test_a_malformed_entry_after_a_mistagged_one(self):
        with pytest.raises(ParseFailure) as exc:
            parse_scenario(f"{self.BAD_CPUS}  - vm:\n    - name: y\n  - just text\n")
        assert (exc.value.message, exc.value.line) == ("each entry under containers must be a single-key map", 7)

    def test_a_document_nested_thousands_deep_reads(self):
        """Nesting is counted on the events up to the one bound on both
        classes; the pure-Python composer's recursion once refused these."""
        text = f"networks:\n  - network:\n    - name: lab\n    - subnet: 12.0.0.0/24\n    - extra: {nested(5_000, flow=True)}\n"
        scenario, warnings = parse_scenario_with_warnings(text)
        assert (scenario.networks, [w.location for w in warnings]) == ((LAB,), ["networks[0].extra"])


def _live(what: str, text: str):
    """The live fold's outcome for ``text``; None where an anchor sends it
    to the listed events."""
    try:
        return _outcome(functools.partial(parser._document, read=functools.partial(parser._scenario, what=what)), text)
    except parser._Anchored:
        return None


def _listed(what: str, text: str):
    return _outcome(lambda t: parser.scenario_from_listed(parser.list_yaml(t), what), text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_the_live_and_the_listed_fold_agree(text):
    """Every document without an anchor folds alike from its parser and
    from its event list: values, source maps, warnings, messages and lines."""
    for what in ("scenario", "flow"):
        live = _live(what, text)
        assert live is None or live == _listed(what, text)


# The node at each position the live fold pulls, in a document with MARK in
# its place.  An alias of an earlier anchor names the same node of a copy of
# the document before it; the root has no node before it.
RECORD = "[{name: c}, {modules: [{base: r/x:1}]}]"
CONTAINER = "containers:\n  - container:\n    - "
WINDOW = "flow:\n  - container:\n    - name: c\n    - window:\n      - name: w\n      - commands:\n        - "
POSITIONS = {
    "root": ("MARK\n", f"{{containers: [{{container: {RECORD}}}]}}"),
    "top-level key": (f"MARK :\n  - container: {RECORD}\n", "containers"),
    "section value": ("containers: MARK\n", f"[{{container: {RECORD}}}]"),
    "section entry": ("containers:\n  - MARK\n", f"{{container: {RECORD}}}"),
    "section tag": (f"containers:\n  - MARK : {RECORD}\n", "container"),
    "record value": ("containers:\n  - container: MARK\n", RECORD),
    "record entry": (f"{CONTAINER}MARK\n    - modules: [{{base: r/x:1}}]\n", "{name: c}"),
    "record key": (f"{CONTAINER}MARK : c\n    - modules: [{{base: r/x:1}}]\n", "name"),
    "record scalar": (f"{CONTAINER}name: MARK\n    - modules: [{{base: r/x:1}}]\n", "c"),
    "network item": (f"{CONTAINER}name: c\n    - modules:\n      - base: r/x:1\n      - network:\n        - MARK\n", "lab"),
    "commands entry": (f"{WINDOW}MARK\n", "{command: ls}"),
    "commands key": (f"{WINDOW}MARK : ls\n", "command"),
    "commands value": (f"{WINDOW}command: MARK\n", "ls"),
    "section second key": (f"containers:\n  - container: {RECORD}\n    MARK : 2\n", "k"),
    "record second key": (f"{CONTAINER}name: c\n      MARK : 2\n    - modules: [{{base: r/x:1}}]\n", "k"),
    "commands second key": (f"{WINDOW}command: ls\n          MARK : 2\n", "k"),
}
PROPERTIES = {
    "anchor": lambda part, node: part.replace("MARK", f"&a {node}"),
    "alias": lambda part, node: part.replace("MARK", f"&e {node}") + part.replace("MARK", "*e"),
    "undefined alias": lambda part, node: part.replace("MARK", "*u"),
}


@CLASSES
@pytest.mark.usefixtures("classes_in_use")
@pytest.mark.parametrize(
    "position, prop",
    [(position, prop) for position in POSITIONS for prop in PROPERTIES if (position, prop) != ("root", "alias")],
)
def test_an_anchor_or_an_alias_anywhere_reads_as_its_listed_events(position, prop):
    """The live read of a document with an anchor or an alias at any node
    the fold pulls, the second key of an entry included, gives what the
    fold of its listed events gives."""
    text = PROPERTIES[prop](*POSITIONS[position])
    listed = _outcome(lambda t: parser.scenario_from_listed(parser.list_yaml(t)), text)
    assert _outcome(parse_scenario_with_warnings, text) == listed


@CLASSES
@pytest.mark.usefixtures("classes_in_use")
def test_the_collector_is_paused_while_a_block_is_listed_and_a_scenario_replayed(monkeypatch):
    """A ticket block's events are listed, and an anchored scenario is
    folded live and then replayed, with the cyclic collector paused; it
    runs again once each read is done."""
    assert gc.isenabled()
    collecting = []
    listed, scenario = parser._listed, parser._scenario

    def listing(events, root):
        collecting.append(("listed", gc.isenabled()))
        return listed(events, root)

    def folding(events, root, what="scenario"):
        collecting.append(("live" if events.live else "replayed", gc.isenabled()))
        return scenario(events, root, what)

    monkeypatch.setattr(parser, "_listed", listing)
    extract(SCENARIO_RECORD)
    assert collecting == [("listed", False)] and gc.isenabled()
    collecting.clear()
    monkeypatch.setattr(parser, "_scenario", folding)
    parse_scenario_with_warnings(SCENARIO_RECORD)
    assert collecting == [("live", False), ("listed", False), ("replayed", False)] and gc.isenabled()
