import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import alurity
from alurity import orchestrator
from alurity.cli import main
from alurity.pipeline import FlawRecord

FIXTURES = Path(__file__).parent / "fixtures"
LISTING1 = str(FIXTURES / "listing1.yaml")
LISTING3 = str(FIXTURES / "listing3.yaml")
ROSNET = str(FIXTURES / "rosnet.yaml")
INDEX = str(FIXTURES / "registry_index.yaml")
RESPONSES = str(FIXTURES / "mock_responses.yaml")

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

    @pytest.mark.parametrize("record", ["reproduction: 5\n", "reproduction:\n  scenario: 5\n"])
    def test_rvd_record_without_reproduction_exits_2(self, run_cli, tracker, record):
        stub, url = tracker
        issue_id = stub.seed("bad record", f"```yaml\n{record}```\n")
        assert run_cli("run", "--rvd", str(issue_id), "--tracker-url", url)[0] == 2

    def test_rvd_without_url_exits_64(self, run_cli, monkeypatch):
        monkeypatch.delenv("ALURITY_TRACKER_URL", raising=False)
        assert run_cli("run", "--rvd", "1")[0] == 64


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


def test_cli_import_does_not_load_requests():
    src = str(Path(alurity.__file__).resolve().parent.parent)
    probe = "import sys, alurity.cli; print('requests' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
