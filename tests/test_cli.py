import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import alurity
from alurity import cli, netplan, orchestrator
from alurity.cli import main
from alurity.model import validate
from alurity.pipeline import FlawRecord

from failing_backend import FailingBackend
from test_parser import BLOCK_COMMAND_FLOW, DEEP, TWO_LINE_COMMAND, nested
from test_parser_oracle import ODD_SCALARS, SCENARIO_TEXTS, mutated

FIXTURES = Path(__file__).parent / "fixtures"
LISTING1 = str(FIXTURES / "listing1.yaml")
LISTING3 = str(FIXTURES / "listing3.yaml")
ROSNET = str(FIXTURES / "rosnet.yaml")
INDEX = str(FIXTURES / "registry_index.yaml")
RESPONSES = str(FIXTURES / "mock_responses.yaml")
LISTING3_TEXT, RESPONSES_TEXT, INDEX_TEXT = (Path(p).read_text() for p in (LISTING3, RESPONSES, INDEX))

REG = "registry.gitlab.com/aliasrobotics/offensive/alurity"

TWO_ON_A_SLASH_30 = (
    "networks:\n  - network:\n    - name: tiny\n    - subnet: 12.0.0.0/30\n"
    "containers:\n"
    "  - container:\n    - name: a\n    - modules:\n       - base: r/x:1\n       - network:\n         - tiny\n"
    "  - container:\n    - name: b\n    - modules:\n       - base: r/x:1\n       - network:\n         - tiny\n"
)


@pytest.fixture
def run_cli(capsys):
    def invoke(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestValidate:
    def test_listing1_clean(self, run_cli):
        code, out, err = run_cli("validate", LISTING1)
        assert code == 0
        assert out == ""

    def test_repeated_network_reference_exits_1_with_its_line(self, run_cli, tmp_path):
        path = tmp_path / "twice.yaml"
        path.write_text(
            "networks:\n  - network:\n    - name: n\n    - subnet: 12.0.0.0/24\n"
            "containers:\n  - container:\n    - name: a\n    - modules:\n       - base: r/x:1\n"
            "       - network: [n, n]\n"
        )
        code, out, _ = run_cli("validate", str(path))
        assert code == 1
        assert out == "error duplicate-network-reference containers[0].networks[1] network 'n' already attached at containers[0].networks[0] (line 10)\n"
        code, out, _ = run_cli("graph", str(path))
        assert code == 1 and out == ""

    def test_duplicate_ip_exits_1(self, run_cli, tmp_path):
        text = (
            "networks:\n"
            "  - network:\n"
            "    - name: n\n"
            "    - subnet: 12.0.0.0/24\n"
            "containers:\n"
            "  - container:\n"
            "    - name: a\n"
            "    - modules:\n"
            "       - base: r/x:1\n"
            "       - network:\n"
            "         - n\n"
            "    - ip: 12.0.0.9\n"
            "  - container:\n"
            "    - name: b\n"
            "    - modules:\n"
            "       - base: r/x:1\n"
            "       - network:\n"
            "         - n\n"
            "    - ip: 12.0.0.9\n"
        )
        path = tmp_path / "dup.yaml"
        path.write_text(text)
        code, out, _ = run_cli("validate", str(path))
        assert code == 1
        lines = [l for l in out.splitlines() if l.startswith("error")]
        assert len(lines) == 1
        assert "duplicate-ip" in lines[0]

    def test_missing_file_exits_2(self, run_cli):
        code, _, _ = run_cli("validate", "no/such/file.yaml")
        assert code == 2

    def test_diagnostic_line_format(self, run_cli, tmp_path):
        path = tmp_path / "warn.yaml"
        path.write_text(
            "networks:\n  - network:\n    - name: n\n    - subnet: 12.0.0.0/24\n    - wat: 1\n"
        )
        code, out, _ = run_cli("validate", str(path))
        assert code == 0
        severity, diag_code, location, *_ = out.split()
        assert severity == "warning"
        assert diag_code == "unknown-key"
        assert location.startswith("networks[0]")

    def test_an_address_that_is_not_ipv4_exits_1_with_its_line(self, run_cli, tmp_path):
        path = tmp_path / "ip.yaml"
        path.write_text(
            "networks:\n  - network:\n    - name: n\n    - subnet: 10.0.0.0/24\n"
            "containers:\n  - container:\n    - name: a\n    - modules:\n       - base: r/x:1\n"
            "       - network: [n]\n    - ip: 10.0.0.999\n"
        )
        code, out, _ = run_cli("validate", str(path))
        assert code == 1
        assert out == "error invalid-ip containers[0].ip '10.0.0.999' is not a valid IPv4 address (line 11)\n"

    @pytest.mark.parametrize("section, value", [("networks", "5"), ("containers", "{a: b}"), ("vms", "text")])
    def test_a_section_that_is_not_a_list_exits_2_with_its_line(self, run_cli, tmp_path, section, value):
        path = tmp_path / "section.yaml"
        path.write_text(f"# a section that is not a list\n{section}: {value}\n")
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"cannot parse {path}: {section} must be a sequence of single-key maps (line 2)\n"

    def test_exhausted_subnet_exits_1(self, run_cli, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(TWO_ON_A_SLASH_30)
        code, out, _ = run_cli("validate", str(path))
        assert code == 1
        assert out.split()[:3] == ["error", "subnet-exhausted", "networks[0].subnet"]

    def test_odd_scalars_validate(self, run_cli, tmp_path):
        path = tmp_path / "odd.yaml"
        path.write_text(
            "networks:\n  - network:\n    - name: 2020-13-45\n    - subnet: 12.0.0.0/24\n"
            "  - network:\n    - name: =\n    - subnet: 13.0.0.0/24\n"
        )
        code, out, _ = run_cli("validate", str(path))
        assert (code, out) == (0, "")


class TestGraph:
    def test_listing1_dot(self, run_cli):
        code, out, _ = run_cli("graph", LISTING1)
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 3

    # The output of the version before plan entries became named tuples and
    # addresses were formatted from integers, captured once.  The mixed.yaml
    # plan was captured again when the plan got its own line writer: its
    # name with a quote and a backslash is now double-quoted, and the
    # document loads as before.  wide120.yaml is ``test_scaling.generate(120)``
    # (VMs, manual addresses, eight /16 networks), its output captured with
    # the version before the graph path's per-endpoint costs were cut.
    @pytest.mark.parametrize("fmt", ["yaml", "dot"])
    @pytest.mark.parametrize("fixture", ["listing1.yaml", "rosnet.yaml", "mixed.yaml", "wide120.yaml"])
    def test_output_is_unchanged(self, run_cli, fixture, fmt):
        golden = json.loads((FIXTURES / "graph_golden.json").read_text())
        code, out, err = run_cli("graph", str(FIXTURES / fixture), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == golden[fixture][fmt]

    def test_unknown_format_exits_64(self, run_cli):
        code, out, err = run_cli("graph", LISTING1, "--format", "svg")
        assert code == 64
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1
        assert "'svg'" in err

    def test_listing1_yaml(self, run_cli, listing1):
        code, out, _ = run_cli("graph", LISTING1, "--format", "yaml")
        assert code == 0
        plan = netplan.build_connectivity_plan(listing1, netplan.allocate_addresses(listing1))
        assert yaml.safe_load(out) == yaml.safe_load(netplan.export_plan_yaml(plan))
        assert set(yaml.safe_load(out)["endpoints"]) == {"ur3", "attacker"}

    def test_invalid_scenario_exits_1(self, run_cli, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "containers:\n  - container:\n    - name: a\n    - modules:\n       - base: r/x:1\n"
            "       - network:\n         - ghost\n"
        )
        code, _, _ = run_cli("graph", str(path))
        assert code == 1

    def test_exhausted_subnet_is_reported_not_raised(self, run_cli, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(TWO_ON_A_SLASH_30)
        code, _, err = run_cli("graph", str(path))
        assert code == 1
        assert "subnet-exhausted" in err


class TestRun:
    def test_flow_end_to_end(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            "run", ROSNET, "--backend", "mock", "--flow", LISTING3,
            "--mock-responses", RESPONSES,
        )
        assert code == 0
        transcripts = list((tmp_path / "transcripts").glob("*.yaml"))
        assert len(transcripts) == 1
        doc = yaml.safe_load(transcripts[0].read_text())
        assert len(doc["transcript"]) == 23

    def test_transcript_matches_the_golden_file(self, run_cli, tmp_path):
        """The transcript of listing 3 on rosnet, byte for byte as committed."""
        code, _, _ = run_cli(
            "run", ROSNET, "--flow", LISTING3, "--mock-responses", RESPONSES,
            "--transcript-dir", str(tmp_path),
        )
        assert code == 0
        (transcript,) = tmp_path.glob("*.yaml")
        assert transcript.read_bytes() == (FIXTURES / "listing3_transcript.yaml").read_bytes()

    def test_fragments_transcript_matches_its_golden_file(self, run_cli, tmp_path):
        """A flow with an empty pane 0, one pane index in two windows, one
        stdout under two exit codes and sleeps, byte for byte as committed."""
        code, _, _ = run_cli(
            "run", ROSNET, "--flow", str(FIXTURES / "fragments_flow.yaml"),
            "--mock-responses", str(FIXTURES / "fragments_responses.yaml"), "--transcript-dir", str(tmp_path),
        )
        assert code == 0
        (transcript,) = tmp_path.glob("*.yaml")
        assert transcript.read_bytes() == (FIXTURES / "fragments_transcript.yaml").read_bytes()

    def test_a_block_command_runs_as_its_text(self, run_cli, tmp_path):
        """A two-line ``command: |`` runs as exactly its text, newline
        included, not as one joined line."""
        flow = tmp_path / "flow.yaml"
        flow.write_text(BLOCK_COMMAND_FLOW)
        code, _, _ = run_cli("run", ROSNET, "--flow", str(flow), "--transcript-dir", str(tmp_path / "t"))
        assert code == 0
        (transcript,) = (tmp_path / "t").glob("*.yaml")
        events = yaml.safe_load(transcript.read_text())["transcript"]
        assert [event["command"] for event in events] == [TWO_LINE_COMMAND]

    def test_unwritable_transcript_dir_exits_3(self, run_cli, tmp_path, monkeypatch):
        deployments = []
        real_down = orchestrator.Deployment.down

        def down(self):
            deployments.append(self)
            real_down(self)

        monkeypatch.setattr(orchestrator.Deployment, "down", down)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        target = blocker / "transcripts"
        code, _, err = run_cli(
            "run", ROSNET, "--flow", LISTING3, "--mock-responses", RESPONSES,
            "--transcript-dir", str(target),
        )
        assert code == 3
        assert f"cannot write transcript to {target}: " in err
        assert len(deployments) == 1
        assert deployments[0].states and set(deployments[0].states.values()) == {"stopped"}

    @pytest.mark.parametrize("flow", [(), ("--flow", LISTING3)], ids=["no-flow", "flow"])
    def test_endpoint_left_live_by_teardown_exits_3(self, run_cli, tmp_path, monkeypatch, flow):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(orchestrator, "MockBackend", partial(FailingBackend, fail_destroy={"attacker"}))
        code, out, err = run_cli("run", ROSNET, *flow)
        assert code == 3
        assert err.splitlines()[-1] == "teardown left 1 endpoint(s) live: attacker (injected destroy failure for 'attacker')"

    def test_a_module_missing_from_the_index_says_deployment_failed_once(self, run_cli, tmp_path):
        index = tmp_path / "index.yaml"
        index.write_text("r/x:1: {}\n")
        code, out, err = run_cli("run", ROSNET, "--index", str(index), "--transcript-dir", str(tmp_path / "t"))
        assert (code, out) == (3, "")
        assert err == f"deployment failed: module {REG}/comp_ros:melodic-scenario not present in registry index\n"

    def test_an_endpoint_the_backend_cannot_create_is_named_once(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.setattr(orchestrator, "MockBackend", partial(FailingBackend, fail_create={"attacker"}))
        code, out, err = run_cli("run", ROSNET, "--transcript-dir", str(tmp_path / "t"))
        assert (code, out) == (3, "")
        assert err == "deployment failed at endpoint 'attacker': injected creation failure for 'attacker'\n"

    def test_earlier_failure_outranks_a_teardown_leak(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.setattr(orchestrator, "MockBackend", partial(FailingBackend, fail_destroy={"attacker"}))
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code, _, err = run_cli("run", ROSNET, "--flow", LISTING3, "--transcript-dir", str(blocker / "t"))
        assert code == 3
        assert err.startswith("cannot write transcript to ") and "teardown" not in err

    def test_stdout_is_deterministic(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outs = set()
        for _ in range(2):
            code, out, _ = run_cli("run", ROSNET, "--flow", LISTING3)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_missing_file_exits_2(self, run_cli):
        assert run_cli("run", "missing.yaml")[0] == 2

    def test_no_file_no_rvd_exits_64(self, run_cli):
        assert run_cli("run")[0] == 64

    def test_unknown_backend_exits_64(self, run_cli):
        assert run_cli("run", LISTING1, "--backend", "xen")[0] == 64

    def test_rvd_reproduction(self, run_cli, tracker, tmp_path, monkeypatch):
        from alurity.rvd import push_issue

        stub, url = tracker
        monkeypatch.chdir(tmp_path)
        record = FlawRecord(
            title="repro",
            flaw_class="dos",
            description="d",
            system="r/x:1",
            detected_by="r/y:1",
            reproduction_scenario=Path(ROSNET).read_text(),
            reproduction_flow=Path(LISTING3).read_text(),
        )
        issue_id = push_issue(url, record)
        code, out, err = run_cli("run", "--rvd", str(issue_id), "--tracker-url", url)
        assert code == 0
        assert list((tmp_path / "transcripts").glob("*.yaml"))

    def test_rvd_without_a_readable_flow_says_so(self, run_cli, tracker, tmp_path, monkeypatch):
        """A record whose scenario reads but whose flow does not: the scenario
        comes up and down, no command runs, and stderr says why; exit 0."""
        from alurity.rvd import push_issue

        stub, url = tracker
        monkeypatch.chdir(tmp_path)
        record = FlawRecord(
            title="repro",
            flaw_class="dos",
            description="d",
            system="r/x:1",
            detected_by="r/y:1",
            reproduction_scenario=Path(ROSNET).read_text(),
            reproduction_flow="flow:\n  - container: [\n",
        )
        issue_id = push_issue(url, record)
        code, out, err = run_cli("run", "--rvd", str(issue_id), "--tracker-url", url)
        assert (code, out) == (0, "")
        assert err == f"ticket {issue_id}: no readable flow found; no command ran\n"
        assert not (tmp_path / "transcripts").exists()

    def test_rvd_unknown_ticket_exits_4(self, run_cli, tracker):
        _, url = tracker
        code, out, err = run_cli("run", "--rvd", "424242", "--tracker-url", url)
        assert (code, out) == (4, "")
        assert err == f"cannot fetch ticket 424242: HTTP 404 fetching {url}/issues/424242\n"

    @pytest.mark.parametrize("token", ["tökén€", "a\r\nX-Injected: 1"])
    def test_rvd_token_that_cannot_be_a_header_exits_4(self, run_cli, tracker, monkeypatch, token):
        stub, url = tracker
        monkeypatch.setenv("ALURITY_TRACKER_TOKEN", token)
        code, out, err = run_cli("run", "--rvd", "1", "--tracker-url", url)
        assert (code, out) == (4, "")
        assert err.startswith("cannot fetch ticket 1: ALURITY_TRACKER_TOKEN cannot be sent as an HTTP header")
        assert stub.seen == []

    @pytest.mark.parametrize(
        "record", ["reproduction: 5\n", "reproduction:\n  scenario: 5\n", "reproduction: !!bool x\n", "a: !!timestamp x\n", 'a: !!int ""\n']
    )
    def test_rvd_record_without_reproduction_exits_2(self, run_cli, tracker, record):
        stub, url = tracker
        issue_id = stub.seed("bad record", f"```yaml\n{record}```\n")
        assert run_cli("run", "--rvd", str(issue_id), "--tracker-url", url)[0] == 2

    def test_rvd_without_a_scenario_names_each_block_and_line(self, run_cli, tracker):
        """Every fenced block, in order, with why it went unused and where in
        the ticket body: a scenario value its type cannot read, a document
        nested too deeply, a block with no endpoints and a record whose
        embedded scenario does not read, with the line in that scenario."""
        stub, url = tracker
        lots = Path(LISTING1).read_text().replace("cpus: 4", "cpus: lots")
        deep = "networks:\n" + "- " * 20_000 + "x\n"
        record = FlawRecord("t", "dos", "d", "s", "x", lots).to_yaml()
        body = f"prose\n```yaml\n{lots}```\n```yaml\n{deep}```\n```yaml\nnetworks: []\n```\n```yaml\n{record}```\n"
        issue_id = stub.seed("no scenario", body)
        code, out, err = run_cli("run", "--rvd", str(issue_id), "--tracker-url", url)
        assert (code, out) == (2, "")
        cpus = body.split("\n").index("    - cpus: lots") + 1
        deep_start = body.split("\n").index(deep.split("\n")[0], cpus)
        embedded = lots.split("\n").index("    - cpus: lots") + 1
        assert err.split("\n") == [
            f"ticket {issue_id} embeds no scenario",
            f"  block 1 at line 3: containers[0].cpus must be an integer, got 'lots' (line {cpus})",
            f"  block 2 at line {deep_start + 1}: nested too deeply to read (line {deep_start + 2})",
            f"  block 3 at line {deep_start + 5}: no endpoints",
            f"  block 4 at line {deep_start + 8}: a flaw record whose reproduction scenario does not read: "
            f"containers[0].cpus must be an integer, got 'lots' (line {embedded} of that scenario)",
            "",
        ]

    def test_rvd_without_url_exits_64(self, run_cli, monkeypatch):
        monkeypatch.delenv("ALURITY_TRACKER_URL", raising=False)
        assert run_cli("run", "--rvd", "1")[0] == 64

    def test_file_and_rvd_exclude_each_other(self, run_cli, tracker):
        stub, url = tracker
        issue_id = stub.seed("repro", f"```yaml\n{Path(ROSNET).read_text()}```\n")
        code, _, err = run_cli("run", "/no/such/scenario.yaml", "--rvd", str(issue_id), "--tracker-url", url)
        assert code == 64 and "FILE and --rvd" in err
        assert stub.seen == []


GHOST = str(FIXTURES / "ghost_flow.yaml")
GHOST_FLOW = LISTING3_TEXT.replace("- name: attacker\n", "- name: ghost\n")
REPEATED_WINDOW_FLOW = LISTING3_TEXT.replace("- name: attack\n", "- name: setup\n").replace("    - select: attack\n", "")


class TestFlowsAreValidated:
    """``validate`` and ``run`` check a scenario together with the flow that
    runs on it, embedded, from ``--flow`` or from ``--rvd``: a flow naming an
    undeclared endpoint or repeating a window name exits 1, before bring-up."""

    @pytest.mark.parametrize(
        "flow, code",
        [(GHOST_FLOW, "endpoint-not-found"), (REPEATED_WINDOW_FLOW, "duplicate-window-name")],
        ids=["undeclared-endpoint", "repeated-window"],
    )
    def test_embedded_and_separate_flows_exit_1(self, run_cli, tmp_path, monkeypatch, flow, code):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(orchestrator, "up", None)  # validation comes first
        embedded, separate = tmp_path / "embedded.yaml", tmp_path / "flow.yaml"
        embedded.write_text(Path(ROSNET).read_text() + flow)
        separate.write_text(flow)
        exit_code, out, _ = run_cli("validate", str(embedded))
        assert exit_code == 1 and f"error {code} flows[1]" in out
        for args in ((str(embedded),), (ROSNET, "--flow", str(separate))):
            exit_code, out, err = run_cli("run", *args)
            assert exit_code == 1 and f"error {code} flows[1]" in err
        assert not (tmp_path / "transcripts").exists()

    def test_ghost_fixture_exits_1(self, run_cli):
        assert run_cli("validate", GHOST)[:2] == (1, "error endpoint-not-found flows[0].endpoint endpoint 'ghost' is not declared (line 18)\n")
        assert run_cli("run", GHOST)[0] == 1

    def test_a_flow_file_replaces_the_embedded_flow_and_its_lines(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        found = []
        monkeypatch.setattr(cli, "validate", lambda scenario: found.append((scenario, validate(scenario))) or found[-1][1])
        flow = tmp_path / "flow.yaml"
        flow.write_text("flow:\n  - container:\n    - name: attacker\n")
        assert run_cli("run", GHOST, "--flow", str(flow))[0] == 0
        flow.write_text("# one\n# two\nflow:\n  - container:\n    - name: ghost\n")
        assert run_cli("run", GHOST, "--flow", str(flow))[0] == 1
        (clean, clean_diagnostics), (_, diagnostics) = found
        assert clean_diagnostics == [] and clean.source_map._lines is None  # the clean run formatted no path
        assert [(d.location, d.line) for d in diagnostics] == [("flows[0].endpoint", 5)]

    def test_rvd_flow_exits_1(self, run_cli, tracker):
        stub, url = tracker
        issue_id = stub.seed("repro", f"```yaml\n{Path(ROSNET).read_text()}```\n\n```yaml\n{GHOST_FLOW}```\n")
        code, _, err = run_cli("run", "--rvd", str(issue_id), "--tracker-url", url)
        assert code == 1 and "error endpoint-not-found flows[1].endpoint" in err


TARGET_AND_TOOL = ("--target", f"{REG}/robo_ur_cb3_1:3.13.0", "--tools", f"{REG}/reco_aztarna:latest")
CONFIG_ARGS = {
    "run-mock-responses": ("run", ROSNET, "--mock-responses"),
    "run-index": ("run", ROSNET, "--index"),
    "pipeline-index": ("pipeline", *TARGET_AND_TOOL, "--index"),
    "pipeline-mock-responses": ("pipeline", *TARGET_AND_TOOL, "--index", INDEX, "--mock-responses"),
}
# Contents every config file rejects, then those only one kind rejects.
UNREADABLE = {
    "missing": None,
    "malformed": "a: [b\n",
    "list": "- a\n- b\n",
    "not-utf8": b"a: \xff\n",
    "bad-bool-tag": "a: !!bool x\n",
    "bad-timestamp-tag": "a: !!timestamp x\n",
    "bad-int-tag": 'a: !!int ""\n',
}
BAD_RESPONSES = {
    "bad-regex": '"[": {exit: 1}\n',
    "non-string-pattern": "5: {exit: 1}\n",
    "response-not-map": "x: 5\n",
    "exit-not-int": "x: {exit: abc}\n",
    "exit-bool": "x: {exit: true}\n",
    "exit-null": "x: {exit: null}\n",
}
BAD_INDEX = {
    "manifest-not-map": "r/x:1: 5\n",
    "rules-not-list": "r/x:1:\n  rules: 5\n",
    "rule-not-map": "r/x:1:\n  rules: [5]\n",
    "rule-without-id": "r/x:1:\n  rules:\n    - pattern: x\n",
    "rule-without-pattern": "r/x:1:\n  rules:\n    - id: x\n",
    "rule-null-id": "r/x:1:\n  rules:\n    - {id: ~, pattern: x}\n",
    "rule-null-pattern": "r/x:1:\n  rules:\n    - {id: x, pattern: ~}\n",
    "tools-not-list": "r/x:1:\n  tools: 5\n",
    "tools-string": "r/x:1:\n  tools: abc\n",
    "pattern-not-regex": "r/x:1:\n  rules:\n    - {id: x, pattern: \"FINDING: ([\"}\n",
}
CONFIG_CASES = [
    pytest.param(args, contents[content], id=f"{kind}-{content}")
    for kind, args in CONFIG_ARGS.items()
    for contents in (UNREADABLE, BAD_RESPONSES if kind.endswith("mock-responses") else BAD_INDEX)
    for content in contents
]


@pytest.mark.parametrize("args, content", CONFIG_CASES)
def test_unreadable_config_file_exits_2(run_cli, tmp_path, monkeypatch, args, content):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.yaml"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    code, out, err = run_cli(*args, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot read {path}: ")


@pytest.mark.parametrize(
    "args",
    [("validate",), ("graph",), ("run",), ("run", ROSNET, "--flow")],
    ids=["validate", "graph", "run", "run-flow"],
)
def test_non_utf8_document_exits_2(run_cli, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "doc.yaml"
    path.write_bytes(b"networks:\n  - network:\n    - name: \xff\n")
    code, out, err = run_cli(*args, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot parse ") and "not UTF-8" in err


def test_a_flow_file_without_a_flow_section_exits_2(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "flow.yaml"
    path.write_text("{}\n")
    assert run_cli("run", ROSNET, "--flow", str(path)) == (2, "", f"cannot parse flow {path}: flow document must contain a 'flow' section (line 1)\n")
    assert not (tmp_path / "transcripts").exists()


DEEP_NAME = f"networks:\n  - network:\n    - name:\n      {nested(DEEP)}\n    - subnet: 12.0.0.0/24\n"
DEEP_DOCUMENTS = {
    "validate": (("validate",), DEEP_NAME),
    "graph": (("graph",), DEEP_NAME),
    "run": (("run",), f"containers:\n  - container:\n    - name: x\n    - cpus: {nested(DEEP, flow=True)}\n"),
    "run-flow": (("run", ROSNET, "--flow"), f"flow:\n  - container:\n    - name:\n      {nested(DEEP)}\n"),
    "run-index": (("run", ROSNET, "--index"), f"a:\n{nested(DEEP)}\n"),
    "run-mock-responses": (("run", ROSNET, "--flow", LISTING3, "--mock-responses"), f"a: {nested(DEEP, flow=True)}\n"),
}


@pytest.mark.parametrize("args, document", DEEP_DOCUMENTS.values(), ids=DEEP_DOCUMENTS.keys())
def test_deeply_nested_document_exits_2(run_cli, tmp_path, monkeypatch, args, document):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "doc.yaml"
    path.write_text(document)
    code, out, err = run_cli(*args, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(("cannot parse ", "cannot read ")) and "nested too deeply" in err


# Runs the CLI on the classes named by its first argument, with the
# arguments after it; "ticket PATH" fetches a ticket whose one block is the
# file at PATH from a stub tracker.
_CLI_PROBE = """
import contextlib, pathlib, sys
from alurity.cli import main
from stub_tracker import StubTracker
from yaml_classes import pure_python_classes
classes, *args = sys.argv[1:]
stub = StubTracker()
if args[0] == "ticket":
    url = stub.start()
    args = ["run", "--rvd", str(stub.seed("t", "```yaml\\n" + pathlib.Path(args[1]).read_text() + "```\\n")), "--tracker-url", url]
with pure_python_classes() if classes == "pure-python" else contextlib.nullcontext():
    code = main(args)
stub.stop()
sys.exit(code)
"""
VERY_DEEP = 100_000
NESTED_100000 = {
    "scenario-brackets": (("validate",), f"networks: {nested(VERY_DEEP, flow=True)}\n", "nested too deeply"),
    "scenario-compact": (("validate",), f"a:\n{nested(VERY_DEEP)}\n", "nested too deeply"),
    "flow": (("run", ROSNET, "--flow"), f"flow:\n{nested(VERY_DEEP)}\n", "nested too deeply"),
    "index": (("run", ROSNET, "--index"), f"networks: {nested(VERY_DEEP, flow=True)}\n", "nested too deeply"),
    "mock-responses": (("run", ROSNET, "--flow", LISTING3, "--mock-responses"), f"a:\n{nested(VERY_DEEP)}\n", "nested too deeply"),
    # A block that cannot be read is skipped, and the error says why.
    "ticket": (("ticket",), f"networks:\n{nested(VERY_DEEP)}\n", "nested too deeply to read"),
}


@pytest.mark.parametrize("classes", ["libyaml", "pure-python"])
@pytest.mark.parametrize("args, document, words", NESTED_100000.values(), ids=NESTED_100000.keys())
def test_a_document_nested_100000_deep_exits_2(tmp_path, args, document, words, classes):
    """Run in a fresh interpreter, so that a crash of the composer fails the
    test instead of ending the test run."""
    path = tmp_path / "doc.yaml"
    path.write_text(document)
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(alurity.__file__).resolve().parent.parent), str(tests)]))
    result = subprocess.run([sys.executable, "-c", _CLI_PROBE, classes, *args, str(path)], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, ""), result.stderr[-2000:]
    assert words in result.stderr


# Every file argument, the arguments before it, and the documents its
# mutated inputs start from.
FILE_ARGS = {
    "validate": (("validate",), SCENARIO_TEXTS),
    "graph": (("graph",), SCENARIO_TEXTS),
    "run": (("run",), SCENARIO_TEXTS),
    "run-flow": (("run", ROSNET, "--flow"), [LISTING3_TEXT]),
    "run-mock-responses": (("run", ROSNET, "--flow", LISTING3, "--mock-responses"), [RESPONSES_TEXT]),
    "run-index": (("run", ROSNET, "--index"), [INDEX_TEXT]),
    "pipeline-index": (("pipeline", *TARGET_AND_TOOL, "--mock-responses", RESPONSES, "--index"), [INDEX_TEXT]),
    "pipeline-mock-responses": (("pipeline", *TARGET_AND_TOOL, "--index", INDEX, "--mock-responses"), [RESPONSES_TEXT]),
}
DOCUMENTED_CODES = {0, 1, 2, 3, 4, 64}
_MAP_LINE_RE = re.compile(r"^( *)([^\s#-][^:#\n]*):( .*)?$")  # "key: value" lines of a map


@st.composite
def map_mutated(draw, bases):
    """A ``mutated`` document with up to two of its ``key: value`` map lines
    given an odd scalar value: ``mutated`` rewrites only ``- key: value``
    lines, and the ``--mock-responses`` and ``--index`` files are maps."""
    lines = draw(mutated(bases)).split("\n")
    for _ in range(draw(st.integers(0, 2))):
        targets = [i for i, line in enumerate(lines) if _MAP_LINE_RE.match(line)]
        if targets:
            i = draw(st.sampled_from(targets))
            entry = _MAP_LINE_RE.match(lines[i])
            lines[i] = f"{entry[1]}{entry[2]}: {draw(st.sampled_from(ODD_SCALARS))}"
    return "\n".join(lines)


@pytest.mark.parametrize("args, bases", FILE_ARGS.values(), ids=FILE_ARGS.keys())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_file_contents_exit_with_a_documented_code(run_cli, tmp_path, monkeypatch, args, bases, data):
    monkeypatch.chdir(tmp_path)
    contents = data.draw(st.one_of(st.binary(max_size=64), map_mutated(st.sampled_from(bases)).map(str.encode)))
    path = tmp_path / "input.yaml"
    path.write_bytes(contents)
    code, _, err = run_cli(*args, str(path))
    assert code in DOCUMENTED_CODES, err


class TestPipeline:
    def test_findings_on_disk(self, run_cli, tmp_path):
        sink = tmp_path / "findings"
        code, out, _ = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest",
            "--index", INDEX,
            "--mock-responses", RESPONSES,
            "--sink", "dir", "--sink-path", str(sink),
        )
        assert code == 0
        paths = out.splitlines()
        assert len(paths) == 2
        assert sorted(str(p) for p in sink.glob("*.yaml")) == sorted(paths)

    def test_records_match_the_golden_files(self, run_cli, tmp_path):
        """The aztarna sweep's records, byte for byte and so by file name,
        as committed."""
        code, _, _ = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest",
            "--index", INDEX,
            "--mock-responses", RESPONSES,
            "--sink", "dir", "--sink-path", str(tmp_path),
        )
        assert code == 0
        golden = FIXTURES / "aztarna_records"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {p.name: p.read_bytes() for p in golden.iterdir()}

    def test_a_tool_sharing_a_rule_files_nothing_it_did_not_print(self, run_cli, tmp_path):
        """rosscan carries aztarna's rule and prints nothing: aztarna's two
        findings are filed once each, as aztarna's."""
        code, out, _ = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest,{REG}/reco_rosscan:latest",
            "--index", INDEX,
            "--mock-responses", RESPONSES,
            "--sink", "dir", "--sink-path", str(tmp_path),
        )
        assert code == 0
        records = [yaml.safe_load(Path(path).read_text()) for path in out.splitlines()]
        assert [r["title"] for r in records] == ["ROS master reachable without authentication", "unprotected parameter server"]
        assert {r["detected-by"] for r in records} == {f"{REG}/reco_aztarna:latest"}
        assert len(list(tmp_path.iterdir())) == 2

    def test_clean_run_exits_0(self, run_cli, tmp_path):
        code, out, _ = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest",
            "--index", INDEX,
            "--sink-path", str(tmp_path / "f"),
        )
        assert code == 0
        assert out == ""

    def test_missing_tools_exits_64(self, run_cli):
        assert run_cli("pipeline", "--target", "r/x:1")[0] == 64

    def test_index_from_environment(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.setenv("ALURITY_REGISTRY_INDEX", INDEX)
        code, _, _ = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest",
            "--sink-path", str(tmp_path / "f"),
        )
        assert code == 0

    def test_endpoint_left_live_by_teardown_exits_3(self, run_cli, tmp_path, monkeypatch):
        class LeakyBackend(FailingBackend):
            def __init__(self, responses=None):
                super().__init__(responses, fail_destroy={"scanner"})

        monkeypatch.setattr(orchestrator, "MockBackend", LeakyBackend)
        sink = tmp_path / "findings"
        code, out, err = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest",
            "--index", INDEX,
            "--mock-responses", RESPONSES,
            "--sink", "dir", "--sink-path", str(sink),
        )
        assert code == 3
        assert out == "" and not sink.exists()
        assert err.splitlines()[-1] == "teardown left 1 endpoint(s) live: scanner (injected destroy failure for 'scanner')"

    def test_unwritable_sink_dir_exits_3(self, run_cli, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code, out, err = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest",
            "--index", INDEX,
            "--mock-responses", RESPONSES,
            "--sink", "dir", "--sink-path", str(blocker),
        )
        assert code == 3
        assert out == "" and blocker.read_text() == ""
        assert err.startswith(f"cannot write records to {blocker}: ")

    def test_tracker_transport_failure_exits_4(self, run_cli, tracker):
        stub, url = tracker
        stub.canned = (500, b"oops")
        code, out, err = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest",
            "--index", INDEX,
            "--mock-responses", RESPONSES,
            "--sink", "tracker", "--tracker-url", url,
        )
        assert (code, out) == (4, "")
        assert err == "2 record(s) could not be emitted\n"

    def test_tracker_token_that_cannot_be_a_header_exits_4(self, run_cli, tracker, monkeypatch):
        stub, url = tracker
        monkeypatch.setenv("ALURITY_TRACKER_TOKEN", "tökén€")
        code, out, err = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest",
            "--index", INDEX,
            "--mock-responses", RESPONSES,
            "--sink", "tracker", "--tracker-url", url,
        )
        assert (code, out, err) == (4, "", "2 record(s) could not be emitted\n")
        assert stub.seen == []

    def test_tracker_sink(self, run_cli, tracker, tmp_path):
        stub, url = tracker
        code, out, _ = run_cli(
            "pipeline",
            "--target", f"{REG}/robo_ur_cb3_1:3.13.0",
            "--tools", f"{REG}/reco_aztarna:latest",
            "--index", INDEX,
            "--mock-responses", RESPONSES,
            "--sink", "tracker", "--tracker-url", url,
        )
        assert code == 0
        ids = [int(line) for line in out.splitlines()]
        assert len(ids) == 2
        assert all(i in stub.issues for i in ids)


@pytest.mark.parametrize(
    "args, what",
    [
        (("run", ROSNET, "--flow", LISTING3, "--mock-responses", RESPONSES, "--transcript-dir"), "transcript"),
        (
            ("pipeline", "--target", f"{REG}/robo_ur_cb3_1:3.13.0", "--tools", f"{REG}/reco_aztarna:latest",
             "--index", INDEX, "--mock-responses", RESPONSES, "--sink-path"),
            "records",
        ),
    ],
    ids=["transcript", "records"],
)
def test_each_directory_write_failure_keeps_its_own_prefix(run_cli, tmp_path, args, what):
    """Transcripts and records share one writer; each failure still says
    what it could not write, and where, and exits 3."""
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    target = blocker / "out"
    code, out, err = run_cli(*args, str(target))
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"cannot write {what} to {target}: ")


def test_unexpected_exception_is_a_one_line_internal_error(run_cli, monkeypatch):
    def boom(*_):
        raise RuntimeError("boom")

    monkeypatch.setattr(netplan, "allocate_addresses", boom)
    assert run_cli("graph", LISTING1) == (70, "", "internal error: RuntimeError('boom')\n")


@pytest.mark.parametrize("args", [(), ("run",), ("validate",), ("graph",), ("pipeline",)], ids=["program", "run", "validate", "graph", "pipeline"])
def test_help_prints_usage_and_exits_0(run_cli, args):
    code, out, err = run_cli(*args, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(('alurity', *args))} ")


USAGE_ERRORS = {
    "no-subcommand": (),
    "unknown-subcommand": ("deploy", LISTING1),
    "unknown-option": ("validate", LISTING1, "--strict"),
    "abbreviated-option": ("run", LISTING1, "--trans", "d"),
    "rvd-not-an-integer": ("run", "--rvd", "abc"),
    "unknown-sink": ("pipeline", "--sink", "ftp", "--target", f"{REG}/robo_ur_cb3_1:3.13.0", "--tools", f"{REG}/reco_aztarna:latest"),
    "unknown-backend": ("run", LISTING1, "--backend", "xen"),
    "option-without-value": ("run", LISTING1, "--flow"),
    "short-help": ("run", "-h"),
    "no-tools": ("pipeline", "--target", f"{REG}/robo_ur_cb3_1:3.13.0", "--tools", ","),
    "no-index": ("pipeline", *TARGET_AND_TOOL),
}


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_is_one_stderr_line_and_exits_64(run_cli, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.REGISTRY_INDEX_ENV, raising=False)
    code, out, err = run_cli(*args)
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


# Only a tracker round trip or a record directory needs these; start-up loads
# none of them, and the CLI parses its arguments with the standard library.
DEFERRED_MODULES = ("requests", "http.client", "urllib.request", "email", "ssl", "socket", "hashlib", "click")


def test_cli_import_does_not_load_requests():
    """A fresh interpreter that imports the CLI loads no HTTP stack and no
    OpenSSL binding."""
    src = str(Path(alurity.__file__).resolve().parent.parent)
    probe = f"import sys, alurity.cli; print(sorted(m for m in {DEFERRED_MODULES!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def test_the_package_version_is_the_project_version():
    """``alurity.__version__`` (the tracker client's User-Agent) and
    ``pyproject.toml``'s ``version`` are one number."""
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == alurity.__version__
