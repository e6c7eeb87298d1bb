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
from alurity import netplan, orchestrator
from alurity.cli import main
from alurity.pipeline import FlawRecord

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

    def test_unknown_format_exits_64(self, run_cli):
        code, _, _ = run_cli("graph", LISTING1, "--format", "svg")
        assert code == 64

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
        monkeypatch.setattr(orchestrator, "MockBackend", partial(orchestrator.MockBackend, fail_destroy={"attacker"}))
        code, out, err = run_cli("run", ROSNET, *flow)
        assert code == 3
        assert err.splitlines()[-1] == "teardown left 1 endpoint(s) live: attacker"

    def test_earlier_failure_outranks_a_teardown_leak(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.setattr(orchestrator, "MockBackend", partial(orchestrator.MockBackend, fail_destroy={"attacker"}))
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

    def test_rvd_unknown_ticket_exits_4(self, run_cli, tracker):
        _, url = tracker
        assert run_cli("run", "--rvd", "424242", "--tracker-url", url)[0] == 4

    @pytest.mark.parametrize(
        "record", ["reproduction: 5\n", "reproduction:\n  scenario: 5\n", "reproduction: !!bool x\n", "a: !!timestamp x\n", 'a: !!int ""\n']
    )
    def test_rvd_record_without_reproduction_exits_2(self, run_cli, tracker, record):
        stub, url = tracker
        issue_id = stub.seed("bad record", f"```yaml\n{record}```\n")
        assert run_cli("run", "--rvd", str(issue_id), "--tracker-url", url)[0] == 2

    def test_rvd_without_url_exits_64(self, run_cli, monkeypatch):
        monkeypatch.delenv("ALURITY_TRACKER_URL", raising=False)
        assert run_cli("run", "--rvd", "1")[0] == 64

    def test_file_and_rvd_exclude_each_other(self, run_cli, tracker):
        stub, url = tracker
        issue_id = stub.seed("repro", f"```yaml\n{Path(ROSNET).read_text()}```\n")
        code, _, err = run_cli("run", "/no/such/scenario.yaml", "--rvd", str(issue_id), "--tracker-url", url)
        assert code == 64 and "FILE and --rvd" in err
        assert stub.seen_auth == []


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


DEEP = "[" * 3000 + "]" * 3000


@pytest.mark.parametrize(
    "args, document",
    [
        (("validate",), f"networks:\n  - network:\n    - name: |\n        {DEEP}\n    - subnet: 12.0.0.0/24\n"),
        (("graph",), f"networks:\n  - network:\n    - name: |\n        {DEEP}\n    - subnet: 12.0.0.0/24\n"),
        (("run",), f"containers:\n  - container:\n    - name: x\n    - cpus: |\n        {DEEP}\n"),
        (("run", ROSNET, "--flow"), f"flow:\n  - container:\n    - name: |\n        {DEEP}\n"),
    ],
    ids=["validate", "graph", "run", "run-flow"],
)
def test_deeply_nested_block_scalar_exits_2(run_cli, tmp_path, monkeypatch, args, document):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "doc.yaml"
    path.write_text(document)
    code, out, err = run_cli(*args, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot parse ") and "nested too deeply" in err


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
        class LeakyBackend(orchestrator.MockBackend):
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
        assert err.splitlines()[-1] == "teardown left 1 endpoint(s) live: scanner"

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


def test_unexpected_exception_is_a_one_line_internal_error(run_cli, monkeypatch):
    def boom(*_):
        raise RuntimeError("boom")

    monkeypatch.setattr(netplan, "allocate_addresses", boom)
    assert run_cli("graph", LISTING1) == (70, "", "internal error: RuntimeError('boom')\n")


def test_cli_import_does_not_load_requests():
    src = str(Path(alurity.__file__).resolve().parent.parent)
    probe = "import sys, alurity.cli; print('requests' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
