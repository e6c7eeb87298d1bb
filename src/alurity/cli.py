"""Command-line front end.

Exit codes are a documented contract: 0 success, 1 validation errors,
2 parse failure, 3 deployment/flow failure, 4 transport failure, 64 usage
error, 70 internal error.  Subcommands and the ``argparse`` parser raise;
``main`` alone turns an outcome into an exit code.  Machine-readable output (diagnostics, record
locations, DOT) goes to stdout one record per line; prose goes to stderr.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from dataclasses import replace
from typing import Optional

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


def _usage(message: str) -> _Failure:
    return _Failure(EXIT_USAGE, f"usage error: {message}")


def _read(load, path: str, what: str = "read"):
    """``load(path)``; exit 2 saying ``cannot <what> <path>`` and why if the
    file cannot be read or parsed."""
    try:
        return load(path)
    except (OSError, ParseFailure) as exc:
        raise _Failure(EXIT_PARSE, f"cannot {what} {path}: {exc}") from exc


def _scenario(path: str):
    return _read(lambda file: parse_scenario_with_warnings(read_text(file)), path, "parse")


def _runnable(scenario: Scenario) -> None:
    """Exit 1 with the diagnostics on stderr unless ``scenario`` validates; ``up`` reuses the result."""
    diagnostics = validate(scenario)
    if has_errors(diagnostics):
        raise _Failure(EXIT_VALIDATION, "\n".join(map(str, diagnostics)))


def _make_backend(mock_responses: Optional[str]):
    if mock_responses:
        return _read(orchestrator.MockBackend.from_fixture, mock_responses)
    return orchestrator.MockBackend()


def _load_registry(index_path: Optional[str]):
    path = index_path or os.environ.get(REGISTRY_INDEX_ENV)
    if not path:
        return None
    return _read(toolreg.load_registry_index, path)


def _tracker_url(url: Optional[str], needed_by: str) -> str:
    url = url or os.environ.get(TRACKER_URL_ENV)
    if not url:
        raise _usage(f"{needed_by} needs --tracker-url or ${TRACKER_URL_ENV}")
    return url


def cmd_validate(args: argparse.Namespace) -> int:
    """Check a scenario file; one diagnostic per stdout line."""
    scenario, warnings = _scenario(args.file)
    diagnostics = list(warnings) + validate(scenario)
    for diag in diagnostics:
        print(diag)
    return EXIT_VALIDATION if has_errors(diagnostics) else EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    """Print the scenario topology as a Graphviz document or as YAML."""
    scenario, _ = _scenario(args.file)
    _runnable(scenario)
    assignment = netplan.allocate_addresses(scenario)
    plan = netplan.build_connectivity_plan(scenario, assignment)
    sys.stdout.write(netplan.export_graph(plan, assignment, args.format))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    """Validate a scenario with the flow it runs, bring it up, run the flow, tear it down."""
    if args.file is not None and args.rvd is not None:
        raise _usage("FILE and --rvd exclude each other")
    backend = _make_backend(args.mock_responses)
    registry = _load_registry(args.index)

    if args.rvd is not None:
        url = _tracker_url(args.tracker_url, "--rvd")
        try:
            ticket = rvd.fetch_ticket(url, args.rvd)
        except (rvd.NotFound, rvd.TransportError) as exc:
            raise _Failure(EXIT_TRANSPORT, f"cannot fetch ticket {args.rvd}: {exc}") from exc
        scenario, flow = rvd.extract_reproduction(ticket)
        if not flow:  # the scenario is still brought up and down
            print(f"ticket {args.rvd}: no readable flow found; no command ran", file=sys.stderr)
        scenario = replace(scenario, flows=tuple(flow or ()))
    else:
        if args.file is None:
            raise _usage("either FILE or --rvd is required")
        scenario, _ = _scenario(args.file)

    if args.flow is not None:  # its flows, and their lines, replace the scenario's
        flows = _read(lambda file: parse_flow_document(read_text(file)), args.flow, "parse flow")
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
            out_path = pipeline.write_into(args.transcript_dir, f"{stamp}.yaml", text, "transcript")
            print(f"transcript written to {out_path}", file=sys.stderr)
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Sweep a target module with security tools; one record location per line."""
    tools = tuple(ModuleRef.parse(t.strip()) for t in args.tools.split(",") if t.strip())
    if not tools:
        raise _usage("--tools must list at least one module reference")
    registry = _load_registry(args.index)
    if registry is None:
        raise _usage(f"pipeline needs --index or ${REGISTRY_INDEX_ENV}")
    backend = _make_backend(args.mock_responses)

    if args.sink == "tracker":
        sink = pipeline.TrackerSink(_tracker_url(args.tracker_url, "--sink tracker"))
    else:
        sink = pipeline.DirectorySink(args.sink_path)

    spec = pipeline.PipelineSpec(target=ModuleRef.parse(args.target), tools=tools)
    records = pipeline.run_pipeline(spec, backend, registry)
    locations, outbox = pipeline.emit_all(records, sink)
    for location in locations:
        print(location)
    if outbox:
        raise _Failure(EXIT_TRANSPORT, f"{len(outbox)} record(s) could not be emitted")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser that never exits: an argument error is a usage error, and
    ``--help`` ends the call with exit 0 once it has printed."""

    def error(self, message: str):
        raise _usage(message)

    def exit(self, status: int = 0, message: Optional[str] = None):
        raise _Failure(status, message or "")


def _parser() -> _Parser:
    """The four subcommands with their options; no option may be abbreviated."""
    plain = dict(add_help=False, allow_abbrev=False)
    parser = _Parser(prog="alurity", description="Scenario orchestration toolbox for mixed container/VM testbeds.", **plain)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    backend = _Parser(**plain)  # the options run and pipeline share
    backend.add_argument("--backend", choices=("mock",), default="mock", help="[default: %(default)s]")
    backend.add_argument("--index", help=f"registry index file (default: ${REGISTRY_INDEX_ENV})")
    backend.add_argument("--tracker-url", help=f"tracker base URL (default: ${TRACKER_URL_ENV})")
    backend.add_argument("--mock-responses", help="scripted responses fixture for the mock backend")

    def command(func, *parents):
        doc = func.__doc__
        sub = commands.add_parser(func.__name__[4:], help=doc, description=doc, parents=parents, **plain)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(func=func)
        return sub

    command(cmd_validate).add_argument("file", metavar="FILE")
    graph = command(cmd_graph)
    graph.add_argument("file", metavar="FILE")
    graph.add_argument("--format", choices=("dot", "yaml"), default="dot",
                       help="dot (Graphviz) or yaml (the connectivity plan)  [default: %(default)s]")
    run = command(cmd_run, backend)
    run.add_argument("file", metavar="FILE", nargs="?")
    run.add_argument("--flow", help="flow YAML file to run after bring-up")
    run.add_argument("--rvd", type=int, help="reproduce the scenario embedded in this tracker ticket")
    run.add_argument("--transcript-dir", default="transcripts", help="[default: %(default)s]")
    sweep = command(cmd_pipeline, backend)
    sweep.add_argument("--target", required=True, help="target module reference")
    sweep.add_argument("--tools", required=True, help="comma-separated tool module references")
    sweep.add_argument("--sink", choices=("dir", "tracker"), default="dir", help="[default: %(default)s]")
    sweep.add_argument("--sink-path", default="findings", help="[default: %(default)s]")
    return parser


# Library exceptions whose own text explains them: exit code, stderr prefix.
_OUTCOMES = (
    ((pipeline.ValidationFailure, toolreg.UnknownModule), EXIT_VALIDATION, ""),
    (rvd.NoReproductionFound, EXIT_PARSE, ""),
    (orchestrator.DeploymentFailure, EXIT_DEPLOYMENT, "deployment failed: "),
    ((orchestrator.TeardownLeak, pipeline.SinkUnwritable), EXIT_DEPLOYMENT, ""),
)


def main(argv=None) -> int:
    """Run the subcommand ``argv`` names (default: ``sys.argv[1:]``) and decide
    its exit code; the only place that does."""
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _Failure as exc:
        if str(exc):
            print(exc, file=sys.stderr)
        return exc.code
    except Exception as exc:
        for types, code, prefix in _OUTCOMES:
            if isinstance(exc, types):
                print(f"{prefix}{exc}", file=sys.stderr)
                return code
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
