"""Acceptance suite: one test per release criterion.

Each test prints a single ``PASS``/``FAIL`` line (run with ``pytest -s``
or read the captured output) and enforces its wall-clock budget; the mock
backend's logical sleeps keep everything fast.
"""

import ipaddress
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings

from alurity.cli import main as cli_main
from alurity.flows import Transcript, TranscriptEvent, compile_flow, run_flow, transcript_to_yaml, verify_transcript
from alurity.model import Command, ContainerSpec, ModuleRef, NetworkSpec, Scenario, endpoints, validate
from alurity.netplan import allocate_addresses, build_connectivity_plan
from alurity.orchestrator import CommandResult, DeploymentFailure, MockBackend, up
from alurity.parser import parse_flow, parse_scenario, serialize_scenario
from alurity.pipeline import FlawRecord, PipelineSpec, run_pipeline
from alurity.rvd import fetch_ticket, push_issue
from alurity.toolreg import load_registry_index

import conftest
from failing_backend import FailingBackend
from strategies import BASE_REFS, random_topology, scenarios
from test_netplan import linked_bridges, reachable
from test_parser import LISTING1_EXPECTED, LISTING2_EXPECTED
from test_rvd_oracle import record_document
from yaml_classes import load

FIXTURES = Path(__file__).parent / "fixtures"
REG = "registry.gitlab.com/aliasrobotics/offensive/alurity"


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.seconds else "FAIL"
        line = f"{status} {self.name} ({elapsed:.2f}s / budget {self.seconds:g}s)"
        print(line, file=sys.stderr)
        conftest.CRITERION_LINES.append(line)
        if exc_type is None:
            assert elapsed <= self.seconds, f"{self.name} exceeded {self.seconds}s"
        return False


def test_criterion_1_listing_fidelity():
    with _Budget("criterion-1 listing fidelity", 1.0):
        listing1 = parse_scenario((FIXTURES / "listing1.yaml").read_text())
        listing2 = parse_scenario((FIXTURES / "listing2.yaml").read_text())
        listing3 = parse_flow((FIXTURES / "listing3.yaml").read_text())
        assert listing1 == LISTING1_EXPECTED
        assert listing2 == LISTING2_EXPECTED
        assert [f.endpoint for f in listing3] == ["rosmachine", "attacker"]
        assert listing3[1].select == "attack"
        ros_panes = [key for key, _ in compile_flow(listing3) if key[:2] == ("rosmachine", "ros")]
        assert len(ros_panes) == 3


def test_criterion_2_roundtrip_property():
    with _Budget("criterion-2 round-trip x100", 5.0):
        failures = []

        @settings(max_examples=100, deadline=None)
        @given(scenarios())
        def check(scenario):
            if parse_scenario(serialize_scenario(scenario)) != scenario:
                failures.append(scenario)

        check()
        assert failures == []


def _merged_listings() -> Scenario:
    listing1 = parse_scenario((FIXTURES / "listing1.yaml").read_text())
    listing2 = parse_scenario((FIXTURES / "listing2.yaml").read_text())
    return replace(listing1, vms=listing2.vms)


def test_criterion_3_mixed_fidelity_plan():
    with _Budget("criterion-3 mixed-fidelity plan", 1.0):
        scenario = _merged_listings()
        cloud_only = ContainerSpec(
            name="cloudbox", base=ModuleRef.parse(BASE_REFS[0]), networks=("cloud-network",)
        )
        extended = replace(scenario, containers=scenario.containers + (cloud_only,))

        assignment = allocate_addresses(scenario)
        plan = build_connectivity_plan(scenario, assignment)
        kinds = [e.kind for e in plan.entries]
        assert kinds.count("bridge") == 2
        assert kinds.count("veth-pair") == 3
        assert kinds.count("tap-attach") == 1
        routes = [e for e in plan.entries if e.kind == "route" and e.subnet == "12.0.0.0/24"]
        assert len(routes) >= 1
        rules = {(e.action, e.network) for e in plan.entries if e.kind == "filter-rule"}
        assert ("drop-external", "process-network") in rules
        assert ("masquerade", "cloud-network") in rules
        assert reachable(plan, "irc5", "ur3") is True

        ext_assignment = allocate_addresses(extended)
        ext_plan = build_connectivity_plan(extended, ext_assignment)
        assert reachable(ext_plan, "irc5", "cloudbox") is False


def test_criterion_4_reachability_oracle():
    with _Budget("criterion-4 reachability oracle x200", 10.0):
        rng = random.Random(2026)
        mismatches = 0
        for _ in range(200):
            scenario = random_topology(rng)
            assignment = allocate_addresses(scenario)
            plan = build_connectivity_plan(scenario, assignment)
            names = [n for n, _ in endpoints(scenario)]
            bridges = linked_bridges(plan)
            nets = {n: bridges.get(n, set()) for n in names}
            for a in names:
                for b in names:
                    oracle = a == b or bool(nets[a] & nets[b])
                    if reachable(plan, a, b) != oracle:
                        mismatches += 1
        assert mismatches == 0


def test_criterion_5_flow_reproduction():
    with _Budget("criterion-5 flow reproduction x50", 5.0):
        flow = parse_flow((FIXTURES / "listing3.yaml").read_text())
        scenario = parse_scenario((FIXTURES / "rosnet.yaml").read_text())
        plan = compile_flow(flow)
        projections = set()
        for _ in range(50):
            deployment = up(scenario, MockBackend())
            transcript = run_flow(deployment, plan)
            assert verify_transcript(plan, transcript)
            projection = tuple(
                (e.endpoint, e.window, e.pane, e.command) for e in transcript.events
            )
            projections.add(projection)
            pane = [
                e.command
                for e in transcript.events
                if e.endpoint == "attacker" and e.window == "attack" and e.pane == 1
            ]
            dos = pane.index("python3 fin_ack_dos.py")
            iptables = [i for i, c in enumerate(pane) if c.startswith("iptables ")]
            assert len(iptables) == 2 and max(iptables) < dos
        assert len(projections) == 1


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_criterion_6_pipeline_emission(count, tmp_path, registry):
    with _Budget(f"criterion-6 pipeline emission n={count}", 5.0):
        markers = "".join(f"FINDING: issue number {i}\n" for i in range(count))
        backend = MockBackend(responses=[("^aztarna", {"stdout": markers})])
        spec = PipelineSpec(
            target=ModuleRef.parse(f"{REG}/robo_ur_cb3_1:3.13.0"),
            tools=(ModuleRef.parse(f"{REG}/reco_aztarna:latest"),),
        )
        records = run_pipeline(spec, backend, registry)
        assert len(records) == count
        from alurity.pipeline import DirectorySink, emit_all

        locations, outbox = emit_all(records, DirectorySink(str(tmp_path)))
        assert outbox == []
        assert len(locations) == count
        expected = [record_document(r) for r in records]
        for location in locations:
            loaded = load(Path(location).read_text())
            assert set(loaded) == {
                "id", "title", "flaw-class", "description", "system",
                "vendor", "severity", "detected-by", "reproduction",
            }
            assert loaded in expected


def test_criterion_7_rvd_loop(tracker, tmp_path, monkeypatch, capsys):
    with _Budget("criterion-7 rvd loop", 5.0):
        stub, url = tracker
        monkeypatch.chdir(tmp_path)
        record = FlawRecord(
            title="FIN-ACK takedown of the ROS master",
            flaw_class="dos",
            description="reproduction attached",
            system=f"{REG}/robo_ur_cb3_1:3.13.0",
            detected_by=f"{REG}/expl_robosploit/expl_robosploit:latest",
            reproduction_scenario=(FIXTURES / "rosnet.yaml").read_text(),
            reproduction_flow=(FIXTURES / "listing3.yaml").read_text(),
            severity="high",
        )
        issue_id = push_issue(url, record)
        assert fetch_ticket(url, issue_id).id == issue_id
        code = cli_main(["run", "--rvd", str(issue_id), "--tracker-url", url])
        capsys.readouterr()
        assert code == 0
        transcripts = list((tmp_path / "transcripts").glob("*.yaml"))
        assert len(transcripts) == 1
        doc = yaml.safe_load(transcripts[0].read_text())
        flow = parse_flow(record.reproduction_flow)
        total = sum(isinstance(i, Command) for f in flow for w in f.windows for i in w.items)
        assert len(doc["transcript"]) == total


def test_criterion_8_all_or_nothing():
    with _Budget("criterion-8 all-or-nothing x5", 5.0):
        base = ModuleRef.parse(BASE_REFS[0])
        scenario = Scenario(
            networks=(NetworkSpec(name="net", subnet="12.0.0.0/24"),),
            containers=tuple(
                ContainerSpec(name=f"ep{i}", base=base, networks=("net",)) for i in range(5)
            ),
        )
        assert validate(scenario) == []
        for index in range(5):
            backend = FailingBackend(fail_create={f"ep{index}"})
            with pytest.raises(DeploymentFailure):
                up(scenario, backend)
            creates = [e[1] for e in backend.journal if e[0] == "create"]
            destroys = [e[1] for e in backend.journal if e[0] == "destroy"]
            assert sorted(creates) == sorted(destroys)
            assert destroys == list(reversed(creates))


def test_allocation_scales_linearly():
    # 20,000 containers on one /16, every 1000th with a manual address just
    # above the automatic ones it would otherwise collide with.
    base = ModuleRef.parse(BASE_REFS[0])
    count = 20_000
    manual = {i: str(ipaddress.IPv4Address("12.0.0.0") + i + 3) for i in range(0, count, 1000)}
    scenario = Scenario(
        networks=(NetworkSpec(name="net", subnet="12.0.0.0/16"),),
        containers=tuple(
            ContainerSpec(name=f"ep{i}", base=base, networks=("net",), ip=manual.get(i)) for i in range(count)
        ),
    )
    with _Budget("allocation 20,000 endpoints on a /16", 2.0):
        assignment = allocate_addresses(scenario)
        looked_up = {c.name: assignment.addresses_of(c.name) for c in scenario.containers}
    taken = {ipaddress.IPv4Address(ip) for ip in manual.values()}
    free = (h for h in ipaddress.IPv4Network("12.0.0.0/16").hosts() if h not in taken and str(h) != "12.0.0.1")
    for i in range(count):
        expected = manual.get(i) or str(next(free))
        assert looked_up[f"ep{i}"] == [("net", expected)]


def test_transcript_emission_within_budget():
    count = 20_000
    transcript = Transcript(
        [
            TranscriptEvent(
                f"ep{i % 7}", "w", i % 3, f"echo {i}", CommandResult(i % 2, f"line {i}\n".encode(), b"", i, i + 1), i
            )
            for i in range(count)
        ]
    )
    with _Budget("transcript of 20,000 events", 0.5):
        text = transcript_to_yaml(transcript)
    loaded = load(text)["transcript"]
    assert len(loaded) == count
    assert loaded[-1]["stdout"] == f"line {count - 1}\n"
