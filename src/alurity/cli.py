"""Command-line front end.

Exit codes are a documented contract: 0 success, 1 validation errors,
2 parse failure, 3 deployment/flow failure, 4 transport failure, 64 usage
error, 70 internal error.  Subcommands raise; ``main`` alone turns an
outcome into an exit code.  Machine-readable output (diagnostics, record
locations, DOT) goes to stdout one record per line; prose goes to stderr.
"""

from __future__ import annotations

import datetime
import os
import sys
from dataclasses import replace
from typing import Optional

import click

from . import flows as flow_engine
from . import netplan, orchestrator, pipeline, rvd, toolreg
from .model import ModuleRef, Scenario, SourceMap, has_errors, validate
from .parser import ParseFailure, parse_flow_document, parse_scenario_with_warnings, read_text

TRACKER_URL_ENV = "ALURITY_TRACKER_URL"
REGISTRY_INDEX_ENV = "ALURITY_REGISTRY_INDEX"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_DEPLOYMENT = 3
EXIT_TRANSPORT = 4
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # EX_SOFTWARE: an exception the CLI does not describe


class _Failure(Exception):
    """An outcome a subcommand explains itself: its exit code and stderr text."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _parse(parse, path: str, what: str = ""):
    """``parse`` of the text in ``path``; exit 2 if it cannot be read or parsed."""
    try:
        return parse(read_text(path))
    except (OSError, ParseFailure) as exc:
        raise _Failure(EXIT_PARSE, f"cannot parse {what}{path}: {exc}") from exc


def _load(loader, path: str):
    """A --mock-responses or --index file loaded; exit 2 if it cannot be."""
    try:
        return loader(path)
    except (OSError, ParseFailure) as exc:
        raise _Failure(EXIT_PARSE, f"cannot read {path}: {exc}") from exc


def _runnable(scenario: Scenario) -> None:
    """Exit 1 with the diagnostics on stderr unless ``scenario`` validates; ``up`` reuses the result."""
    diagnostics = validate(scenario)
    if has_errors(diagnostics):
        raise _Failure(EXIT_VALIDATION, "\n".join(map(str, diagnostics)))


def _make_backend(name: str, mock_responses: Optional[str]):
    if name != "mock":
        raise click.UsageError(f"unknown backend {name!r}; built-in backends: mock")
    if mock_responses:
        return _load(orchestrator.MockBackend.from_fixture, mock_responses)
    return orchestrator.MockBackend()


def _load_registry(index_path: Optional[str]):
    path = index_path or os.environ.get(REGISTRY_INDEX_ENV)
    if not path:
        return None
    return _load(toolreg.load_registry_index, path)


@click.group()
def cli() -> None:
    """Scenario orchestration toolbox for mixed container/VM testbeds."""


@cli.command("validate")
@click.argument("file")
def cmd_validate(file: str) -> int:
    """Check a scenario file; one diagnostic per stdout line."""
    scenario, warnings = _parse(parse_scenario_with_warnings, file)
    diagnostics = list(warnings) + validate(scenario)
    for diag in diagnostics:
        click.echo(str(diag))
    return EXIT_VALIDATION if has_errors(diagnostics) else EXIT_OK


@cli.command("graph")
@click.argument("file")
@click.option("--format", "fmt", default="dot", show_default=True, help="dot (Graphviz) or yaml (the connectivity plan)")
def cmd_graph(file: str, fmt: str) -> int:
    """Print the scenario topology as a Graphviz document or as YAML."""
    scenario, _ = _parse(parse_scenario_with_warnings, file)
    _runnable(scenario)
    assignment = netplan.allocate_addresses(scenario)
    plan = netplan.build_connectivity_plan(scenario, assignment)
    click.echo(netplan.export_graph(plan, assignment, fmt), nl=False)
    return EXIT_OK


@cli.command("run")
@click.argument("file", required=False)
@click.option("--backend", "backend_name", default="mock", show_default=True)
@click.option("--flow", "flow_path", help="flow YAML file to run after bring-up")
@click.option("--rvd", "rvd_id", type=int, help="reproduce the scenario embedded in this tracker ticket")
@click.option("--tracker-url", help=f"tracker base URL (default: ${TRACKER_URL_ENV})")
@click.option("--index", "index_path", help=f"registry index file (default: ${REGISTRY_INDEX_ENV})")
@click.option("--mock-responses", help="scripted responses fixture for the mock backend")
@click.option("--transcript-dir", default="transcripts", show_default=True)
def cmd_run(
    file: Optional[str],
    backend_name: str,
    flow_path: Optional[str],
    rvd_id: Optional[int],
    tracker_url: Optional[str],
    index_path: Optional[str],
    mock_responses: Optional[str],
    transcript_dir: str,
) -> int:
    """Validate a scenario with the flow it runs, bring it up, run the flow, tear it down."""
    if file is not None and rvd_id is not None:
        raise click.UsageError("FILE and --rvd exclude each other")
    backend = _make_backend(backend_name, mock_responses)
    registry = _load_registry(index_path)

    if rvd_id is not None:
        url = tracker_url or os.environ.get(TRACKER_URL_ENV)
        if not url:
            raise click.UsageError(f"--rvd needs --tracker-url or ${TRACKER_URL_ENV}")
        try:
            ticket = rvd.fetch_ticket(url, rvd_id)
        except (rvd.NotFound, rvd.TransportError) as exc:
            raise _Failure(EXIT_TRANSPORT, f"cannot fetch ticket {rvd_id}: {exc}") from exc
        scenario, flow = rvd.extract_reproduction(ticket)
        if not flow:  # the scenario is still brought up and down
            click.echo(f"ticket {rvd_id}: no readable flow found; no command ran", err=True)
        scenario = replace(scenario, flows=tuple(flow or ()))
    else:
        if file is None:
            raise click.UsageError("either FILE or --rvd is required")
        scenario, _ = _parse(parse_scenario_with_warnings, file)

    if flow_path is not None:  # its flows, and their lines, replace the scenario's
        flows = _parse(parse_flow_document, flow_path, "flow ")
        parts = [part for part in scenario.source_map.parts if not part[0].startswith("flows[")]
        scenario = replace(scenario, flows=flows.flows, source_map=SourceMap([*parts, *flows.source_map.parts]))

    _runnable(scenario)
    with orchestrator.up(scenario, backend, registry) as deployment:
        if scenario.flows:
            plan = flow_engine.compile_flow(scenario.flows)  # up validated its endpoints
            transcript = flow_engine.run_flow(deployment, plan)
            if not flow_engine.verify_transcript(plan, transcript):
                raise _Failure(EXIT_DEPLOYMENT, "transcript failed verification")
            text = flow_engine.transcript_to_yaml(transcript)
            stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
            out_path = os.path.join(transcript_dir, f"{stamp}.yaml")
            try:
                os.makedirs(transcript_dir, exist_ok=True)
                with open(out_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise _Failure(EXIT_DEPLOYMENT, f"cannot write transcript to {transcript_dir}: {exc}") from exc
            click.echo(f"transcript written to {out_path}", err=True)
    return EXIT_OK


@cli.command("pipeline")
@click.option("--target", "target_ref", required=True, help="target module reference")
@click.option("--tools", "tools_text", required=True, help="comma-separated tool module references")
@click.option("--sink", "sink_name", type=click.Choice(["dir", "tracker"]), default="dir", show_default=True)
@click.option("--sink-path", default="findings", show_default=True)
@click.option("--backend", "backend_name", default="mock", show_default=True)
@click.option("--index", "index_path", help=f"registry index file (default: ${REGISTRY_INDEX_ENV})")
@click.option("--tracker-url", help=f"tracker base URL (default: ${TRACKER_URL_ENV})")
@click.option("--mock-responses", help="scripted responses fixture for the mock backend")
def cmd_pipeline(
    target_ref: str,
    tools_text: str,
    sink_name: str,
    sink_path: str,
    backend_name: str,
    index_path: Optional[str],
    tracker_url: Optional[str],
    mock_responses: Optional[str],
) -> int:
    """Sweep a target module with security tools; one record location per line."""
    tools = tuple(ModuleRef.parse(t.strip()) for t in tools_text.split(",") if t.strip())
    if not tools:
        raise click.UsageError("--tools must list at least one module reference")
    registry = _load_registry(index_path)
    if registry is None:
        raise click.UsageError(f"pipeline needs --index or ${REGISTRY_INDEX_ENV}")
    backend = _make_backend(backend_name, mock_responses)

    if sink_name == "tracker":
        url = tracker_url or os.environ.get(TRACKER_URL_ENV)
        if not url:
            raise click.UsageError(f"--sink tracker needs --tracker-url or ${TRACKER_URL_ENV}")
        sink = pipeline.TrackerSink(url)
    else:
        sink = pipeline.DirectorySink(sink_path)

    spec = pipeline.PipelineSpec(target=ModuleRef.parse(target_ref), tools=tools)
    records = pipeline.run_pipeline(spec, backend, registry)
    locations, outbox = pipeline.emit_all(records, sink)
    for location in locations:
        click.echo(location)
    if outbox:
        raise _Failure(EXIT_TRANSPORT, f"{len(outbox)} record(s) could not be emitted")
    return EXIT_OK


# Library exceptions whose own text explains them: exit code, stderr prefix.
_OUTCOMES = (
    ((pipeline.ValidationFailure, toolreg.UnknownModule), EXIT_VALIDATION, ""),
    (rvd.NoReproductionFound, EXIT_PARSE, ""),
    (orchestrator.DeploymentFailure, EXIT_DEPLOYMENT, "deployment failed: "),
    ((orchestrator.TeardownLeak, pipeline.SinkUnwritable), EXIT_DEPLOYMENT, ""),
    (netplan.UnsupportedFormat, EXIT_USAGE, "unsupported format: "),
)


def main(argv=None) -> int:
    """Invoke the CLI and decide its exit code; the only place that does."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except _Failure as exc:
        click.echo(str(exc), err=True)
        return exc.code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except Exception as exc:
        for types, code, prefix in _OUTCOMES:
            if isinstance(exc, types):
                click.echo(f"{prefix}{exc}", err=True)
                return code
        click.echo(f"internal error: {exc!r}", err=True)
        return EXIT_INTERNAL
    return result if isinstance(result, int) else EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
