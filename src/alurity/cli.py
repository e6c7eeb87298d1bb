"""Command-line front end.

Exit codes are a documented contract: 0 success, 1 validation errors,
2 parse failure, 3 deployment/flow failure, 4 transport failure, 64 usage
error.  Machine-readable output (diagnostics, record locations, DOT) goes
to stdout one record per line; prose goes to stderr.
"""

from __future__ import annotations

import datetime
import os
import sys
from typing import Optional

import click

from . import flows as flow_engine
from . import netplan, orchestrator, pipeline, rvd, toolreg
from .model import ModuleRef, Scenario, has_errors, validate
from .parser import ParseFailure, parse_flow, parse_scenario_with_warnings

TRACKER_URL_ENV = "ALURITY_TRACKER_URL"
REGISTRY_INDEX_ENV = "ALURITY_REGISTRY_INDEX"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_DEPLOYMENT = 3
EXIT_TRANSPORT = 4
EXIT_USAGE = 64


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_scenario(path: str) -> tuple[Scenario, list]:
    return parse_scenario_with_warnings(_read(path))


def _make_backend(name: str, mock_responses: Optional[str]):
    if name != "mock":
        raise click.UsageError(f"unknown backend {name!r}; built-in backends: mock")
    if mock_responses:
        return orchestrator.MockBackend.from_fixture(mock_responses)
    return orchestrator.MockBackend()


def _load_registry(index_path: Optional[str]):
    path = index_path or os.environ.get(REGISTRY_INDEX_ENV)
    if not path:
        return None
    return toolreg.load_registry_index(path)


@click.group()
def cli() -> None:
    """Scenario orchestration toolbox for mixed container/VM testbeds."""


@cli.command("validate")
@click.argument("file")
def cmd_validate(file: str) -> int:
    """Check a scenario file; one diagnostic per stdout line."""
    try:
        scenario, warnings = _load_scenario(file)
    except (OSError, ParseFailure) as exc:
        click.echo(f"cannot parse {file}: {exc}", err=True)
        return EXIT_PARSE
    diagnostics = list(warnings) + validate(scenario)
    for diag in diagnostics:
        click.echo(str(diag))
    return EXIT_VALIDATION if has_errors(diagnostics) else EXIT_OK


@cli.command("graph")
@click.argument("file")
@click.option("--format", "fmt", default="dot", show_default=True)
def cmd_graph(file: str, fmt: str) -> int:
    """Print the scenario topology as a Graphviz document."""
    if fmt != "dot":
        click.echo(f"unsupported format {fmt!r}", err=True)
        return EXIT_USAGE
    try:
        scenario, _ = _load_scenario(file)
    except (OSError, ParseFailure) as exc:
        click.echo(f"cannot parse {file}: {exc}", err=True)
        return EXIT_PARSE
    diagnostics = validate(scenario)
    if has_errors(diagnostics):
        for diag in diagnostics:
            click.echo(str(diag), err=True)
        return EXIT_VALIDATION
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
    """Bring a scenario up, optionally run its flow, tear it down."""
    backend = _make_backend(backend_name, mock_responses)
    registry = _load_registry(index_path)

    flow = None
    if rvd_id is not None:
        url = tracker_url or os.environ.get(TRACKER_URL_ENV)
        if not url:
            raise click.UsageError(f"--rvd needs --tracker-url or ${TRACKER_URL_ENV}")
        try:
            ticket = rvd.fetch_ticket(url, rvd_id)
        except (rvd.NotFound, rvd.TransportError) as exc:
            click.echo(f"cannot fetch ticket {rvd_id}: {exc}", err=True)
            return EXIT_TRANSPORT
        try:
            scenario, flow = rvd.extract_reproduction(ticket)
        except rvd.NoReproductionFound as exc:
            click.echo(str(exc), err=True)
            return EXIT_PARSE
    else:
        if file is None:
            raise click.UsageError("either FILE or --rvd is required")
        try:
            scenario, _ = _load_scenario(file)
        except (OSError, ParseFailure) as exc:
            click.echo(f"cannot parse {file}: {exc}", err=True)
            return EXIT_PARSE
        if scenario.flows:
            flow = list(scenario.flows)

    if flow_path is not None:
        try:
            flow = parse_flow(_read(flow_path))
        except (OSError, ParseFailure) as exc:
            click.echo(f"cannot parse flow {flow_path}: {exc}", err=True)
            return EXIT_PARSE

    diagnostics = validate(scenario)
    if has_errors(diagnostics):
        for diag in diagnostics:
            click.echo(str(diag), err=True)
        return EXIT_VALIDATION

    try:
        deployment = orchestrator.up(scenario, backend, registry)
    except orchestrator.DeploymentFailure as exc:
        click.echo(f"deployment failed: {exc}", err=True)
        return EXIT_DEPLOYMENT

    try:
        if flow:
            try:
                plan = flow_engine.compile_flow(flow, known_endpoints=list(deployment.states))
                transcript = flow_engine.run_flow(deployment, plan)
            except (flow_engine.UnknownEndpointInFlow, flow_engine.UnknownSelectedWindow, flow_engine.FlowAborted) as exc:
                click.echo(f"flow failed: {exc}", err=True)
                return EXIT_DEPLOYMENT
            if not flow_engine.verify_transcript(plan, transcript):
                click.echo("transcript failed verification", err=True)
                return EXIT_DEPLOYMENT
            text = flow_engine.transcript_to_yaml(transcript)
            stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
            out_path = os.path.join(transcript_dir, f"{stamp}.yaml")
            try:
                os.makedirs(transcript_dir, exist_ok=True)
                with open(out_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                click.echo(f"cannot write transcript to {transcript_dir}: {exc}", err=True)
                return EXIT_DEPLOYMENT
            click.echo(f"transcript written to {out_path}", err=True)
    finally:
        deployment.down()
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
    try:
        records = pipeline.run_pipeline(spec, backend, registry)
    except (pipeline.ValidationFailure, toolreg.UnknownModule) as exc:
        click.echo(str(exc), err=True)
        return EXIT_VALIDATION
    except orchestrator.DeploymentFailure as exc:
        click.echo(f"deployment failed: {exc}", err=True)
        return EXIT_DEPLOYMENT

    locations, outbox = pipeline.emit_all(records, sink)
    for location in locations:
        click.echo(location)
    if outbox:
        click.echo(f"{len(outbox)} record(s) could not be emitted", err=True)
        return EXIT_TRANSPORT
    return EXIT_OK


def main(argv=None) -> int:
    """Invoke the CLI, mapping usage problems to exit code 64."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    return result if isinstance(result, int) else EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
