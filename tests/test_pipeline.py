import itertools
from pathlib import Path

import pytest
import yaml

from alurity import flows
from alurity.flows import UnknownEndpointInFlow
from alurity.model import ModuleRef, validate
from alurity.orchestrator import MockBackend, TeardownLeak
from alurity.pipeline import (
    DirectorySink,
    FlawRecord,
    PipelineSpec,
    TrackerSink,
    ValidationFailure,
    assemble,
    emit_all,
    run_pipeline,
)
from alurity.parser import load_yaml, parse_flow, parse_scenario
from alurity.toolreg import registry_index_from_dict

REG = "registry.gitlab.com/aliasrobotics/offensive/alurity"
TARGET = ModuleRef.parse(f"{REG}/robo_ur_cb3_1:3.13.0")
AZTARNA = ModuleRef.parse(f"{REG}/reco_aztarna:latest")
ROBOSPLOIT = ModuleRef.parse(f"{REG}/expl_robosploit/expl_robosploit:latest")
GAZEBO = ModuleRef.parse(f"{REG}/deve_gazebo:latest")


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
        scenario = assemble(PipelineSpec(target=TARGET, tools=(AZTARNA,)), registry)
        assert [c.name for c in scenario.containers] == ["target", "scanner"]
        assert scenario.containers[0].base == TARGET
        assert scenario.containers[1].base == AZTARNA
        assert len(scenario.networks) == 1
        commands = scenario.flows[0].windows[0].items
        assert len(commands) == 1
        # target is the first endpoint: first auto address above the gateway
        assert commands[0].text == "aztarna -t ros -a 10.110.0.2"

    def test_zero_tools(self, registry):
        with pytest.raises(ValidationFailure) as exc:
            assemble(PipelineSpec(target=TARGET, tools=()), registry)
        assert exc.value.code == "empty-toolchain"

    def test_three_tools(self, registry):
        scenario = assemble(PipelineSpec(target=TARGET, tools=(AZTARNA, ROBOSPLOIT, GAZEBO)), registry)
        scanner = scenario.containers[1]
        assert scanner.base == AZTARNA
        assert scanner.volumes == (ROBOSPLOIT, GAZEBO)
        commands = [c.text for c in scenario.flows[0].windows[0].items]
        assert len(commands) == 3
        assert commands[0].startswith("aztarna")
        assert commands[1].startswith("robosploit")

    def test_assembled_scenarios_always_validate(self, registry):
        tools = (AZTARNA, ROBOSPLOIT, GAZEBO)
        for n in (1, 2, 3):
            for combo in itertools.permutations(tools, n):
                scenario = assemble(PipelineSpec(target=TARGET, tools=combo), registry)
                assert [d for d in validate(scenario) if d.severity == "error"] == []


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

    def test_teardown_even_on_backend_failure(self, registry):
        backend = MockBackend(fail_create={"scanner"})
        from alurity.orchestrator import DeploymentFailure

        with pytest.raises(DeploymentFailure):
            run_pipeline(PipelineSpec(target=TARGET, tools=(AZTARNA,)), backend, registry)
        creates = [e[1] for e in backend.journal if e[0] == "create"]
        destroys = [e[1] for e in backend.journal if e[0] == "destroy"]
        assert destroys == list(reversed(creates))

    def test_teardown_leak_raises_instead_of_records(self, registry):
        backend = MockBackend(responses=[("^aztarna", {"stdout": "FINDING: x\n"})], fail_destroy={"scanner"})
        with pytest.raises(TeardownLeak) as exc:
            run_pipeline(PipelineSpec(target=TARGET, tools=(AZTARNA,)), backend, registry)
        assert str(exc.value) == "teardown left 1 endpoint(s) live: scanner"
        assert exc.value.live == ["scanner"]
        assert backend.endpoints["target"].destroyed and not backend.endpoints["scanner"].destroyed

    def test_earlier_failure_outranks_a_teardown_leak(self, registry, monkeypatch):
        def abort(deployment, plan):
            raise UnknownEndpointInFlow("ghost")

        monkeypatch.setattr(flows, "run_flow", abort)
        backend = MockBackend(fail_destroy={"scanner"})
        with pytest.raises(UnknownEndpointInFlow):
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
        assert load_yaml(rec.to_yaml()) == rec.to_dict()

    def test_unknown_fields_pass_through(self):
        rec = record(extra={"cvss": 9.8, "links": ["a"]})
        loaded = load_yaml(rec.to_yaml())
        assert (loaded["cvss"], loaded["links"]) == (9.8, ["a"])
        assert loaded == rec.to_dict()


class TestEmit:
    def test_directory_sink_roundtrip(self, tmp_path):
        rec = record()
        location = DirectorySink(str(tmp_path)).emit(rec)
        assert location.endswith(".yaml") and "rvd-" in location
        assert load_yaml(Path(location).read_text()) == rec.to_dict()

    def test_stable_file_name_per_title(self, tmp_path):
        sink = DirectorySink(str(tmp_path))
        assert sink.emit(record()) == sink.emit(record())

    def test_records_sharing_a_title_get_a_file_each(self, tmp_path):
        records = [record("open port 22", detected_by=str(AZTARNA)), record("open port 22", detected_by=str(ROBOSPLOIT))]
        locations, outbox = emit_all(records, DirectorySink(str(tmp_path)))
        assert outbox == [] and len(set(locations)) == 2
        assert len(list(tmp_path.iterdir())) == 2
        for location, rec in zip(locations, records):
            assert load_yaml(Path(location).read_text()) == rec.to_dict()

    def test_tracker_sink(self, tracker):
        stub, url = tracker
        location = TrackerSink(url).emit(record())
        assert int(location) in stub.issues

    def test_emit_all_keeps_failures_in_outbox(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("x")
        records = [record("a"), record("b")]
        locations, outbox = emit_all(records, DirectorySink(str(target)))
        assert locations == [] and outbox == records
