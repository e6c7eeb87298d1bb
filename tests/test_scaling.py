"""Super-linear work caught by counts, not clocks.

Every stage of the pipeline runs on a generated scenario of 10² and then 10³
endpoints under a ``sys.setprofile`` hook that counts Python and C calls.
Call counts do not depend on the host's speed, which on a shared host swings
by half between runs, so a stage whose count grows more than ``MAX_RATIO``
times for ten times the endpoints is doing work that is not linear in them.
Linear stages read ratios of 5.8 to 10.0 (fixed costs weigh more at 10²).
The bound leaves a tenth of headroom above that and no more: an n log n
stage reads up to 15 over this decade and a quadratic one up to 100, and the
rescanning allocator of ``test_netplan_oracle`` in place of
``netplan._allocate`` reads 78.

Counts do not see the cyclic collector or the memory system; only a timed
run at 10⁴ endpoints does.
"""

import sys
from dataclasses import replace

from alurity import flows, model, netplan, orchestrator, parser, toolreg
from alurity.model import Command, ContainerSpec, FlowSpec, ModuleRef, NetworkSpec, Scenario, Split, VmSpec, WindowSpec

MAX_RATIO = 11
SMALL, LARGE = 100, 1000
NETWORKS = 8
BASES = [f"registry.example/robots/robo_{i}:1" for i in range(5)]
TOOLS = [f"registry.example/tools/reco_{i}:latest" for i in range(3)]
REGISTRY = toolreg.registry_index_from_dict({ref: {"entrypoint": f"/bin/{i}"} for i, ref in enumerate(BASES + TOOLS)})
RESPONSES = [("^scan ", {"stdout": "FINDING: open port", "exit": 1}), ("^sleep", {}), ("^id$", {"stdout": "uid=0"})]


def generate(n: int) -> tuple[str, str]:
    """A scenario of ``n`` endpoints, one in ten a VM and one in seven with
    a manual address, each on one or two of ``NETWORKS`` /16 networks, and a
    flow of two panes of two commands for every endpoint."""
    networks = tuple(NetworkSpec(name=f"net{i}", subnet=f"10.{i}.0.0/16", internal=i % 3 == 0) for i in range(NETWORKS))
    containers, vms, flow = [], [], []
    for k in range(n):
        nets = tuple(dict.fromkeys(networks[j].name for j in (k % NETWORKS, (3 * k + 1) % NETWORKS)))
        ip = f"10.{k % NETWORKS}.{100 + k // 250}.{k % 250 + 1}" if k % 7 == 0 else None
        if k % 10 == 9:
            name = f"vm{k}"
            vms.append(VmSpec(name=name, path=f"/images/{name}.qcow2", networks=nets, ip=ip))
        else:
            name = f"c{k}"
            base = ModuleRef.parse(BASES[k % len(BASES)])
            containers.append(ContainerSpec(name=name, base=base, volumes=(ModuleRef.parse(TOOLS[k % 3]),), networks=nets, ip=ip))
        items = (Command(f"scan {name}"), Command(f"sleep {k % 5}"), Split("horizontal"), Command("id"), Command(f"echo {k}"))
        flow.append(FlowSpec(endpoint=name, windows=(WindowSpec(name="w", items=items),)))
    scenario = Scenario(networks=networks, containers=tuple(containers), vms=tuple(vms))
    return parser.serialize_scenario(scenario), parser.serialize_flow(flow)


def stages(text: str, flow_text: str):
    """(stage, function, arguments) for every stage, in pipeline order.  A
    stage that derives from a scenario gets a copy with nothing derived yet,
    and ``up`` one with everything derived, as after ``validate``."""
    scenario = parser.parse_scenario(text)
    yield "parse_scenario", parser.parse_scenario, text
    yield "serialize_scenario", parser.serialize_scenario, scenario
    yield "validate", model.validate, replace(scenario)
    yield "allocate_addresses", netplan.allocate_addresses, replace(scenario)
    assignment = netplan.allocate_addresses(scenario)
    yield "build_connectivity_plan", netplan.build_connectivity_plan, replace(scenario), assignment
    plan = netplan.build_connectivity_plan(scenario, assignment)
    assert model.validate(scenario) == []
    yield "up + down", lambda s: orchestrator.up(s, orchestrator.MockBackend(responses=RESPONSES), REGISTRY).down(), scenario
    yield "export_graph dot", netplan.export_graph, plan, assignment, "dot"
    yield "export_graph yaml", netplan.export_graph, plan, assignment, "yaml"
    yield "parse_flow", parser.parse_flow, flow_text
    compiled = flows.compile_flow(parser.parse_flow(flow_text))
    yield "compile_flow", flows.compile_flow, parser.parse_flow(flow_text)
    deployment = orchestrator.up(scenario, orchestrator.MockBackend(responses=RESPONSES), REGISTRY)
    yield "run_flow", flows.run_flow, deployment, compiled
    transcript = flows.run_flow(deployment, compiled)
    deployment.down()
    assert flows.verify_transcript(compiled, transcript)
    yield "verify_transcript", flows.verify_transcript, compiled, transcript
    yield "transcript_to_yaml", flows.transcript_to_yaml, transcript


def calls(function, *args) -> int:
    """The Python and C calls ``function(*args)`` makes, itself included."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
    return count


def test_no_stage_does_super_linear_work():
    small = {name: calls(function, *args) for name, function, *args in stages(*generate(SMALL))}
    large = {name: calls(function, *args) for name, function, *args in stages(*generate(LARGE))}
    ratios = {name: round(large[name] / small[name], 1) for name in small}
    assert len(ratios) == 13
    assert {name: ratio for name, ratio in ratios.items() if ratio > MAX_RATIO} == {}, ratios
