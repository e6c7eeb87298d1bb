import itertools
import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alurity import flows, netplan, orchestrator, parser, pipeline
from alurity.model import ModuleRef, validate
from alurity.netplan import UnknownEndpoint
from alurity.orchestrator import MockBackend, TeardownLeak
from alurity.pipeline import (
    DirectorySink,
    FlawRecord,
    PipelineSpec,
    SinkUnwritable,
    TrackerSink,
    ValidationFailure,
    assemble,
    emit_all,
    run_pipeline,
    scan,
)
from alurity.parser import parse_flow, parse_scenario, serialize_flow, serialize_scenario
from alurity.rvd import Ticket, extract_reproduction
from alurity.toolreg import registry_index_from_dict

from failing_backend import FailingBackend
from test_rvd_oracle import record_document

from yaml_classes import load

REG = "registry.gitlab.com/aliasrobotics/offensive/alurity"
TARGET = ModuleRef.parse(f"{REG}/robo_ur_cb3_1:3.13.0")
AZTARNA = ModuleRef.parse(f"{REG}/reco_aztarna:latest")
ROBOSPLOIT = ModuleRef.parse(f"{REG}/expl_robosploit/expl_robosploit:latest")
GAZEBO = ModuleRef.parse(f"{REG}/deve_gazebo:latest")


# Rule patterns: a prefix, a core and a suffix, each possibly empty, so some
# patterns match the empty string, some have no group and some an optional
# ``title`` group.
PATTERNS = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", "(?P<title>open )?", "(?P<title>[a-z]+) ", "x*"]),
        st.sampled_from(["", "port", "o*"]),
        st.sampled_from(["", " (?P<n>[0-9]+)", "[0-9]*"]),
    ),
)
RULES = st.builds(
    lambda pattern, title: {"pattern": pattern} if title is None else {"pattern": pattern, "title": title},
    PATTERNS,
    st.sampled_from([None, "{title}", "{n}", "found"]),
)
FINDINGS = ["port", "open port", "port 22", "open port 11311", "hello"]


def record(title="ROS master exposed", **kw):
    fields = dict(
        title=title,
        flaw_class="exposure",
        description="found during a sweep",
        system=str(TARGET),
        detected_by=str(AZTARNA),
        reproduction_scenario="networks:\n",
        reproduction_flow="flow:\n",
        severity="medium",
    )
    fields.update(kw)
    return FlawRecord(**fields)


class TestAssemble:
    def test_single_tool(self, registry):
        scenario, flow = assemble(PipelineSpec(target=TARGET, tools=(AZTARNA,)), registry)
        assert [c.name for c in scenario.containers] == ["target", "scanner"]
        assert scenario.containers[0].base == TARGET
        assert scenario.containers[1].base == AZTARNA
        assert len(scenario.networks) == 1 and scenario.flows == ()
        assert flow.endpoint == "scanner"
        commands = flow.windows[0].items
        assert len(commands) == 1
        # target is the first endpoint: first auto address above the gateway
        assert commands[0].text == "aztarna -t ros -a 10.110.0.2"

    def test_zero_tools(self, registry):
        with pytest.raises(ValidationFailure) as exc:
            assemble(PipelineSpec(target=TARGET, tools=()), registry)
        assert exc.value.code == "empty-toolchain"

    def test_three_tools(self, registry):
        scenario, flow = assemble(PipelineSpec(target=TARGET, tools=(AZTARNA, ROBOSPLOIT, GAZEBO)), registry)
        scanner = scenario.containers[1]
        assert scanner.base == AZTARNA
        assert scanner.volumes == (ROBOSPLOIT, GAZEBO)
        commands = [c.text for c in flow.windows[0].items]
        assert len(commands) == 3
        assert commands[0].startswith("aztarna")
        assert commands[1].startswith("robosploit")

    def test_assembled_scenarios_always_validate(self, registry):
        tools = (AZTARNA, ROBOSPLOIT, GAZEBO)
        for n in (1, 2, 3):
            for combo in itertools.permutations(tools, n):
                scenario, flow = assemble(PipelineSpec(target=TARGET, tools=combo), registry)
                assert [d for d in validate(replace(scenario, flows=(flow,))) if d.severity == "error"] == []


class TestRunPipeline:
    def test_findings_become_records(self, registry):
        backend = MockBackend(
            responses=[
                (
                    "^aztarna",
                    {"stdout": "FINDING: open master\nFINDING: open param server\n"},
                )
            ]
        )
        spec = PipelineSpec(target=TARGET, tools=(AZTARNA,))
        records = run_pipeline(spec, backend, registry)
        assert len(records) == 2
        assert {r.title for r in records} == {"open master", "open param server"}
        assert all(r.detected_by == str(AZTARNA) for r in records)
        assert all("containers:" in r.reproduction_scenario for r in records)
        assert all("flow:" in r.reproduction_flow for r in records)

    @pytest.mark.parametrize("template", ["{title", "{title.x}", "{title[x]}", "{title:d}", "{0}", "{other}"])
    def test_unusable_template_is_kept_verbatim(self, template):
        rule = {"id": "r", "pattern": "FINDING: (?P<title>[^\\n]+)", "title": template, "description": template}
        registry = registry_index_from_dict({str(TARGET): {}, str(AZTARNA): {"entrypoint": "aztarna", "rules": [rule]}})
        backend = MockBackend(responses=[("^aztarna", {"stdout": "FINDING: x\n"})])
        (rec,) = run_pipeline(PipelineSpec(target=TARGET, tools=(AZTARNA,)), backend, registry)
        assert (rec.title, rec.description) == (template, template)

    def test_addresses_are_allocated_once(self, registry, monkeypatch):
        calls = []

        def counting(scenario, allocate=netplan._allocate):
            calls.append(scenario)
            return allocate(scenario)

        monkeypatch.setattr(netplan, "_allocate", counting)
        run_pipeline(PipelineSpec(target=TARGET, tools=(AZTARNA, ROBOSPLOIT)), MockBackend(), registry)
        assert len(calls) == 1

    def test_clean_run_yields_nothing(self, registry):
        records = run_pipeline(PipelineSpec(target=TARGET, tools=(AZTARNA,)), MockBackend(), registry)
        assert records == []

    def test_reproduction_material_parses(self, registry):
        backend = MockBackend(responses=[("^aztarna", {"stdout": "FINDING: x\n"})])
        (rec,) = run_pipeline(PipelineSpec(target=TARGET, tools=(AZTARNA,)), backend, registry)
        scenario = parse_scenario(rec.reproduction_scenario)
        assert [c.name for c in scenario.containers] == ["target", "scanner"]
        flow = parse_flow(rec.reproduction_flow)
        assert flow[0].endpoint == "scanner"

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.text("ab :-", min_size=1, max_size=6), max_size=3), min_size=2, max_size=4))
    @example([["one"], []])
    def test_tools_sharing_a_rule_file_only_what_they_printed(self, outputs):
        """Every tool carries the same pattern; each match in a tool's own
        output is one record, made by that tool's rule and naming that tool."""
        tools = [ModuleRef.parse(f"r/reco_{i}:1") for i in range(len(outputs))]
        index = {str(TARGET): {}}
        responses = []
        for i, (tool, titles) in enumerate(zip(tools, outputs)):
            rule = {"id": "r", "pattern": "FINDING: (?P<title>[^\\n]+)", "title": "{title}", "description": f"tool {i}: {{title}}"}
            index[str(tool)] = {"entrypoint": f"tool{i}", "rules": [rule]}
            responses.append((f"^tool{i} ", {"stdout": "".join(f"FINDING: {t}\n" for t in titles)}))
        records = run_pipeline(PipelineSpec(target=TARGET, tools=tuple(tools)), MockBackend(responses), registry_index_from_dict(index))
        expected = [(t, f"tool {i}: {t}", str(tool)) for i, (tool, titles) in enumerate(zip(tools, outputs)) for t in titles]
        assert [(r.title, r.description, r.detected_by) for r in records] == expected

    @staticmethod
    def _sweep(rules_by_tool: list, stdout: str) -> list:
        """Records of a sweep where tool i carries the rules ``rules_by_tool[i]``
        and every tool prints ``stdout``."""
        tools = [ModuleRef.parse(f"r/reco_{i}:1") for i in range(len(rules_by_tool))]
        index = {str(TARGET): {}}
        for i, (tool, rules) in enumerate(zip(tools, rules_by_tool)):
            index[str(tool)] = {"entrypoint": f"tool{i}", "rules": rules}
        backend = MockBackend([("^tool", {"stdout": stdout})])
        return run_pipeline(PipelineSpec(target=TARGET, tools=tuple(tools)), backend, registry_index_from_dict(index))

    def test_empty_matches_file_nothing(self):
        """A pattern that matches the empty string files only its non-empty matches."""
        records = self._sweep([[{"id": "a", "pattern": "x*"}], [{"id": "b", "pattern": "hello"}]], "hello\n")
        assert [(r.title, r.description, r.detected_by) for r in records] == [("hello", "hello", "r/reco_1:1")]

    def test_untitled_rule_without_a_title_group_is_titled_by_its_match(self):
        (rec,) = self._sweep([[{"id": "a", "pattern": "port (?P<port>[0-9]+) open"}]], "port 11311 open\n")
        assert rec.title == "port 11311 open"

    def test_untitled_rule_with_a_title_group_is_titled_by_the_group(self):
        (rec,) = self._sweep([[{"id": "a", "pattern": "FINDING: (?P<title>[^\\n]+)"}]], "FINDING: open master\n")
        assert rec.title == "open master"
        records = self._sweep([[{"id": "a", "pattern": "(?P<title>open )?port"}]], "port\nopen port\n")
        assert [r.title for r in records] == ["port", "open "]  # the match where the group takes no part

    def test_untitled_rule_whose_title_group_matches_empty_is_titled_by_its_match(self):
        (rec,) = self._sweep([[{"id": "a", "pattern": "(?P<title>x*)port"}]], "port\n")
        assert rec.title == "port"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.lists(RULES, max_size=3), st.lists(st.sampled_from(FINDINGS), max_size=3)), min_size=1, max_size=4))
    @example([([{"pattern": "(?P<title>open )?port"}], ["port"])])
    def test_one_record_per_non_empty_match_titled_by_its_rule(self, tools):
        """Each tool i carries its own rules and prints its own findings.  Its
        records are one per non-empty match of its rules in its own output,
        in rule order, and a title the rule did not write is text of the match."""
        refs = [ModuleRef.parse(f"r/reco_{i}:1") for i in range(len(tools))]
        index = {str(TARGET): {}}
        responses, expected = [], []
        for i, (ref, (rules, findings)) in enumerate(zip(refs, tools)):
            rules = [{**rule, "id": f"r{j}", "description": f"tool {i} rule {j}"} for j, rule in enumerate(rules)]
            index[str(ref)] = {"entrypoint": f"tool{i}", "rules": rules}
            stdout = "".join(f"{line}\n" for line in findings)
            responses.append((f"^tool{i} ", {"stdout": stdout}))
            expected += [(str(ref), rule, m.group(0)) for rule in rules for m in re.finditer(rule["pattern"], stdout) if m.group(0)]
        records = run_pipeline(PipelineSpec(target=TARGET, tools=tuple(refs)), MockBackend(responses), registry_index_from_dict(index))
        assert [(r.detected_by, r.description) for r in records] == [(ref, rule["description"]) for ref, rule, _ in expected]
        for rec, (_, rule, fragment) in zip(records, expected):
            if "title" in rule:
                assert rec.title == rule["title"] or "{" not in rec.title
            else:
                assert rec.title and rec.title in fragment

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.lists(RULES, min_size=1, max_size=3), st.lists(st.sampled_from(FINDINGS), min_size=1, max_size=3), st.sampled_from([0, 1, 3])),
            min_size=1,
            max_size=4,
        )
    )
    def test_every_record_reproduces_its_finding(self, tools):
        """Each record, read back from a ticket body as ``push_issue`` writes
        it and brought up on a fresh backend with the same responses, runs
        the sweep's commands to the sweep's exits and output, and scanning
        that run with the reproduction's own tools files the sweep's records."""
        refs = [ModuleRef.parse(f"r/reco_{i}:1") for i in range(len(tools))]
        index = {str(TARGET): {}}
        responses = []
        for i, (ref, (rules, findings, code)) in enumerate(zip(refs, tools)):
            index[str(ref)] = {"entrypoint": f"tool{i}", "rules": [{**rule, "id": f"r{j}"} for j, rule in enumerate(rules)]}
            responses.append((f"^tool{i} ", {"stdout": "".join(f"{line}\n" for line in findings), "exit": code}))
        registry = registry_index_from_dict(index)
        sweeps = []

        def recording(deployment, plan, run=flows.run_flow):
            sweeps.append(run(deployment, plan))
            return sweeps[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flows, "run_flow", recording)
            records = run_pipeline(PipelineSpec(target=TARGET, tools=tuple(refs)), MockBackend(responses), registry)
        (sweep,) = sweeps
        ran = [(e.command, e.result.exit_code, e.result.stdout) for e in sweep.events]
        filed = [r.to_yaml() for r in records]
        for rec in records:
            scenario, flow = extract_reproduction(Ticket(id=1, title=rec.title, body=f"```yaml\n{rec.to_yaml()}```\n"))
            with orchestrator.up(scenario, MockBackend(responses), registry) as deployment:
                plan = flows.compile_flow(flow)
                transcript = flows.run_flow(deployment, plan)
            assert flows.verify_transcript(plan, transcript)
            assert [(e.command, e.result.exit_code, e.result.stdout) for e in transcript.events] == ran
            target, scanner = scenario.containers
            spec = PipelineSpec(target=target.base, tools=(scanner.base, *scanner.volumes))
            rescanned = scan(spec, registry, transcript, serialize_scenario(scenario), serialize_flow(flow))
            assert [r.to_yaml() for r in rescanned] == filed

    def test_teardown_even_on_backend_failure(self, registry):
        backend = FailingBackend(fail_create={"scanner"})
        from alurity.orchestrator import DeploymentFailure

        with pytest.raises(DeploymentFailure):
            run_pipeline(PipelineSpec(target=TARGET, tools=(AZTARNA,)), backend, registry)
        creates = [e[1] for e in backend.journal if e[0] == "create"]
        destroys = [e[1] for e in backend.journal if e[0] == "destroy"]
        assert destroys == list(reversed(creates))

    def test_teardown_leak_raises_instead_of_records(self, registry):
        backend = FailingBackend(responses=[("^aztarna", {"stdout": "FINDING: x\n"})], fail_destroy={"scanner"})
        with pytest.raises(TeardownLeak) as exc:
            run_pipeline(PipelineSpec(target=TARGET, tools=(AZTARNA,)), backend, registry)
        assert str(exc.value) == "teardown left 1 endpoint(s) live: scanner (injected destroy failure for 'scanner')"
        assert exc.value.live == ["scanner"]
        assert backend.endpoints["target"].destroyed and not backend.endpoints["scanner"].destroyed

    def test_earlier_failure_outranks_a_teardown_leak(self, registry, monkeypatch):
        def abort(deployment, plan):
            raise UnknownEndpoint("ghost")

        monkeypatch.setattr(flows, "run_flow", abort)
        backend = FailingBackend(fail_destroy={"scanner"})
        with pytest.raises(UnknownEndpoint):
            run_pipeline(PipelineSpec(target=TARGET, tools=(AZTARNA,)), backend, registry)
        assert not backend.endpoints["scanner"].destroyed


class TestFlawRecord:
    def test_yaml_key_set(self):
        doc = yaml.safe_load(record().to_yaml())
        assert list(doc) == [
            "id",
            "title",
            "flaw-class",
            "description",
            "system",
            "vendor",
            "severity",
            "detected-by",
            "reproduction",
        ]
        assert list(doc["reproduction"]) == ["scenario", "flow"]

    def test_roundtrip(self):
        rec = record()
        assert load(rec.to_yaml()) == record_document(rec)

    def test_field_memo_writes_equal_keys_of_other_types_apart(self):
        """True, 1 and 1.0 are equal keys and None, "1" look alike; whichever
        the memo that writes record fields saw first, each is written as the
        uncached writer writes it."""
        values = [True, 1, 1.0, None, "1"]
        for order in itertools.permutations(values):
            pipeline._emit_field.cache_clear()
            for value in order * 2:
                assert pipeline._emit_field(value) == parser._emit_scalar(value), (order, value)
            for value in order:
                text = record(reproduction_scenario=value, reproduction_flow=value).to_yaml()
                assert text.endswith(f"reproduction:\n  scenario: {parser._emit_scalar(value)}\n  flow: {parser._emit_scalar(value)}\n")


class TestEmit:
    def test_directory_sink_roundtrip(self, tmp_path):
        rec = record()
        location = DirectorySink(str(tmp_path)).emit(rec)
        assert location.endswith(".yaml") and "rvd-" in location
        assert load(Path(location).read_text()) == record_document(rec)

    def test_stable_file_name_per_title(self, tmp_path):
        sink = DirectorySink(str(tmp_path))
        assert sink.emit(record()) == sink.emit(record())

    def test_records_sharing_a_title_get_a_file_each(self, tmp_path):
        records = [record("open port 22", detected_by=str(AZTARNA)), record("open port 22", detected_by=str(ROBOSPLOIT))]
        locations, outbox = emit_all(records, DirectorySink(str(tmp_path)))
        assert outbox == [] and len(set(locations)) == 2
        assert len(list(tmp_path.iterdir())) == 2
        for location, rec in zip(locations, records):
            assert load(Path(location).read_text()) == record_document(rec)

    def test_tracker_sink(self, tracker):
        stub, url = tracker
        location = TrackerSink(url).emit(record())
        assert int(location) in stub.issues

    def test_unwritable_directory_raises_instead_of_filling_the_outbox(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("x")
        with pytest.raises(SinkUnwritable, match=f"^cannot write records to {re.escape(str(target))}: "):
            emit_all([record("a"), record("b")], DirectorySink(str(target)))
        assert target.read_text() == "x"
