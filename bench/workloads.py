"""The three workloads: one operation each, and the checks on its outputs.

An operation calls the public functions of ``alurity`` in the order
``cli.cmd_graph``/``cli.cmd_run``/``cli.cmd_pipeline`` call them, always
through the module attribute (``parser.parse_flow``, not a bound import), so
the traced run sees the same calls.  The checks compare every output with
what the generator knows or with a reference computed here.

Every run is a sequence of cycles.  A cycle holds one operation per slot, in
a seeded order; the slots fix the size mix (for instance the stratum of the
endpoint count), the seed fixes everything else.  Runs stop only at the end
of a cycle, so every run sees the same size mix and runs with different
seeds stay comparable.
"""

from __future__ import annotations

import collections
import os
import random
import re

import yaml

import generate
from alurity import flows, model, netplan, orchestrator, parser, pipeline, rvd

YamlLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class OpFailed(Exception):
    """The program reported a failure the CLI would turn into an exit code."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _validate(scenario) -> None:
    errors = [d for d in model.validate(scenario) if d.severity == "error"]
    if errors:
        raise OpFailed(f"validation errors: {errors[0]}")


def _journal_problems(backend, names) -> list[str]:
    kinds = collections.Counter(entry[0] for entry in backend.journal)
    created = [entry[1] for entry in backend.journal if entry[0] == "create"]
    destroyed = sorted(entry[1] for entry in backend.journal if entry[0] == "destroy")
    problems = []
    if created != list(names) or destroyed != sorted(names):
        problems.append(f"journal: {len(created)} creates and {len(destroyed)} destroys for {len(names)} endpoints")
    if kinds["apply_plan"] != 1:
        problems.append(f"journal: {kinds['apply_plan']} apply_plan entries")
    return problems


class Workload:
    name = ""
    item = ""  # what the throughput counts
    slots: tuple = ()
    # The tail is reported at this fixed percentile so that runs of faster
    # code, which complete more operations, still report the same statistic.
    # It is the highest multiple of 5 with at least ten samples above it at
    # the sample count of a 30-second run at the seed code; it falls inside a
    # slot's cluster of operation times, not between two of them.
    tail_percentile = 90
    uses_tracker = False

    def __init__(self, seed: int, workdir: str, registry: dict, index, responses):
        self.seed = seed
        self.workdir = workdir
        self.registry = registry
        self.modules = list(registry["index"])
        self.index = index
        self.responses = responses

    def cycle(self, c: int) -> list:
        order = list(range(len(self.slots)))
        random.Random(f"{self.name}:{self.seed}:{c}").shuffle(order)
        return order

    def rng(self, c: int, slot: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{c}:{slot}")

    def backend(self):
        return orchestrator.MockBackend(responses=self.responses)


class WideScenario(Workload):
    """`alurity graph` then `alurity run` on one large scenario file."""

    name = "wide-scenario"
    item = "endpoints"
    # Endpoint counts at the midpoints of five equal-probability strata of
    # the log-uniform law on [100, 2000], each paired with a network count in
    # 4..16 so that size and network count are not correlated.  The count of
    # strata is odd so that the median falls inside the middle stratum's
    # cluster of operation times, not on the gap between two clusters.
    slots = tuple(zip((round(100 * 20 ** ((k + 0.5) / 5)) for k in range(5)), (12, 4, 16, 6, 10)))
    tail_percentile = 50

    def make(self, c: int, slot: int):
        n_endpoints, n_networks = self.slots[slot]
        topo = generate.topology(self.rng(c, slot), n_endpoints, n_networks, self.modules)
        path = os.path.join(self.workdir, "scenario.yaml")
        _write(path, topo.text)
        return topo, path

    def run(self, inputs) -> dict:
        _topo, path = inputs
        scenario, warnings = parser.parse_scenario_with_warnings(_read(path))
        _validate(scenario)
        assignment = netplan.allocate_addresses(scenario)
        plan = netplan.build_connectivity_plan(scenario, assignment)
        dot = netplan.export_graph(plan, assignment, "dot")
        backend = orchestrator.MockBackend()
        deployment = orchestrator.up(scenario, backend, self.index)
        deployment.down()
        return {"warnings": warnings, "assignment": assignment, "plan": plan, "dot": dot, "backend": backend, "deployment": deployment}

    def items(self, inputs) -> int:
        return len(inputs[0].endpoints)

    _NODE = re.compile(r'^  "([^"]+)" \[shape=box, label="([^"]*)"\];$')
    _EDGE = re.compile(r'^  "([^"]+)" -> "net:([^"]+)";$')

    def check(self, inputs, out) -> list[str]:
        topo, _ = inputs
        problems = []
        if out["warnings"]:
            problems.append(f"parse warnings: {out['warnings'][0]}")
        expected = generate.lowest_free(topo.networks, topo.endpoints)
        if out["assignment"].addresses != expected:
            problems.append("allocate_addresses differs from the lowest-free reference")
        if out["deployment"].assignment.addresses != expected:
            problems.append("up: address assignment differs from the lowest-free reference")
        attachments = {name: nets for name, _kind, nets, _ip in topo.endpoints}
        if out["plan"].attachments != attachments:
            problems.append("connectivity plan attachments differ from the document")
        nodes, edges = {}, collections.Counter()
        for line in out["dot"].splitlines():
            node = self._NODE.match(line)
            if node:
                nodes[node.group(1)] = node.group(2)
            edge = self._EDGE.match(line)
            if edge:
                edges[(edge.group(1), edge.group(2))] += 1
        labels = {
            name: name + "\\n" + ", ".join(expected[(name, net)] for net in sorted(nets))
            for name, nets in attachments.items()
        }
        if nodes != labels:
            problems.append(f"graph: {len(nodes)} endpoint nodes, labels differ from the reference")
        if edges != collections.Counter((name, net) for name, nets in attachments.items() for net in nets):
            problems.append(f"graph: {sum(edges.values())} edges for {topo.attachments} attachments")
        problems += _journal_problems(out["backend"], [name for name, *_ in topo.endpoints])
        return problems


class LongFlow(Workload):
    """`alurity run scenario.yaml --flow flow.yaml` on a small topology."""

    name = "long-flow"
    item = "commands"
    # Endpoint counts at the midpoints of seven strata of 8..32; each
    # endpoint's flow averages 25 commands (1-4 windows of 1-4 panes of 2-6).
    slots = tuple(round(8 + 24 * (k + 0.5) / 7) for k in range(7))
    commands_per_endpoint = 25
    tail_percentile = 80

    def __init__(self, *args):
        super().__init__(*args)
        self.patterns = [(re.compile(p), body) for p, body in self.responses]

    def make(self, c: int, slot: int):
        rng = self.rng(c, slot)
        topo = generate.topology(rng, self.slots[slot], 2, self.modules, prefixlen=24)
        flow = generate.flow(rng, topo.endpoints, self.commands_per_endpoint * self.slots[slot])
        paths = [os.path.join(self.workdir, name) for name in ("scenario.yaml", "flow.yaml", "transcript.yaml")]
        _write(paths[0], topo.text)
        _write(paths[1], flow.text)
        return topo, flow, paths

    def run(self, inputs) -> dict:
        _topo, _flow, (scenario_path, flow_path, transcript_path) = inputs
        scenario = parser.parse_scenario(_read(scenario_path))
        flow = parser.parse_flow(_read(flow_path))
        _validate(scenario)
        backend = self.backend()
        deployment = orchestrator.up(scenario, backend, self.index)
        try:
            plan = flows.compile_flow(flow, known_endpoints=list(deployment.states))
            transcript = flows.run_flow(deployment, plan)
            if not flows.verify_transcript(plan, transcript):
                raise OpFailed("transcript failed verification")
            _write(transcript_path, flows.transcript_to_yaml(transcript))
        finally:
            deployment.down()
        return {"transcript": transcript, "backend": backend}

    def items(self, inputs) -> int:
        return inputs[1].commands

    def check(self, inputs, out) -> list[str]:
        topo, flow, paths = inputs
        problems = []
        panes = collections.defaultdict(list)
        for event in out["transcript"].events:
            panes[(event.endpoint, event.window, event.pane)].append(event.command)
        if dict(panes) != flow.panes:
            problems.append("transcript: per-pane command lists differ from the generated flow")
        if out["backend"].clock != flow.sleep_total:
            problems.append(f"logical clock {out['backend'].clock} != sum of sleeps {flow.sleep_total}")
        with open(paths[2], "r", encoding="utf-8") as handle:
            loaded = (yaml.load(handle, Loader=YamlLoader) or {}).get("transcript") or []
        os.remove(paths[2])
        if len(loaded) != flow.commands:
            problems.append(f"transcript file: {len(loaded)} events for {flow.commands} commands")
        for event, doc in zip(out["transcript"].events, loaded):
            expected = generate.expected_response(event.command, self.patterns)
            got = (doc.get("command"), doc.get("exit"), doc.get("stdout"))
            if got != (event.command, *expected):
                problems.append(f"transcript file: event {doc.get('seq')} is {got}, expected {expected}")
                break
        problems += _journal_problems(out["backend"], [name for name, *_ in topo.endpoints])
        return problems


class FlawLoop(Workload):
    """`alurity pipeline --sink tracker`, then `alurity run --rvd ID` for
    every record it filed."""

    name = "flaw-loop"
    item = "records"
    # (tools, planted findings over those tools): 1-6 tools, each count twice,
    # with the findings one below and one above their mean of two per tool.
    slots = tuple((k, 2 * k + d) for k in range(1, 7) for d in (-1, 1))
    tail_percentile = 95
    uses_tracker = True
    tracker_url = ""

    def make(self, c: int, slot: int):
        rng = self.rng(c, slot)
        n_tools, n_findings = self.slots[slot]
        target = rng.choice(self.modules)
        while True:
            counts = [rng.randint(0, 4) for _ in range(n_tools)]
            if sum(counts) == n_findings:
                break
        tools = []
        for n in sorted(set(counts)):
            pool = [m for m in self.modules if m != target and len(self.registry["modules"][m]["findings"]) == n]
            tools += rng.sample(pool, counts.count(n))
        rng.shuffle(tools)
        return target, tools

    def run(self, inputs) -> dict:
        target, tools = inputs
        spec = pipeline.PipelineSpec(target=model.ModuleRef.parse(target), tools=tuple(model.ModuleRef.parse(t) for t in tools))
        records = pipeline.run_pipeline(spec, self.backend(), self.index)
        ids, outbox = pipeline.emit_all(records, pipeline.TrackerSink(self.tracker_url))
        reproduced = []
        for issue_id in ids:
            ticket = rvd.fetch_ticket(self.tracker_url, int(issue_id))
            scenario, flow = rvd.extract_reproduction(ticket)
            _validate(scenario)
            deployment = orchestrator.up(scenario, self.backend(), self.index)
            try:
                plan = flows.compile_flow(flow, known_endpoints=list(deployment.states))
                transcript = flows.run_flow(deployment, plan)
                if not flows.verify_transcript(plan, transcript):
                    raise OpFailed(f"reproduction of issue {issue_id} failed verification")
            finally:
                deployment.down()
            reproduced.append((ticket, scenario, flow, transcript))
        return {"records": records, "ids": ids, "outbox": outbox, "reproduced": reproduced}

    def planted(self, tools) -> list:
        return [title for t in tools for _rule, title in self.registry["modules"][t]["findings"]]

    def items(self, inputs) -> int:
        return len(self.planted(inputs[1]))

    def check(self, inputs, out) -> list[str]:
        target, tools = inputs
        planted = self.planted(tools)
        problems = []
        if sorted(r.title for r in out["records"]) != sorted(planted):
            problems.append(f"{len(out['records'])} records for {len(planted)} planted findings")
        if out["outbox"] or len(set(out["ids"])) != len(planted):
            problems.append(f"emitted {len(set(out['ids']))} distinct ids, {len(out['outbox'])} left in the outbox")
        commands = [f"{self.registry['modules'][t]['entrypoint']} {generate.PIPELINE_TARGET_IP}" for t in tools]
        scenario_shape = (
            [(generate.PIPELINE_NETWORK, generate.PIPELINE_SUBNET)],
            [("target", target, (), (generate.PIPELINE_NETWORK,), None), ("scanner", tools[0], tuple(tools[1:]), (generate.PIPELINE_NETWORK,), None)],
            [],
        )
        flow_shape = [("scanner", [("scan", commands)])]
        for ticket, scenario, flow, transcript in out["reproduced"]:
            shape = (
                [(n.name, n.subnet) for n in scenario.networks],
                [(c.name, str(c.base), tuple(str(v) for v in c.volumes), c.networks, c.ip) for c in scenario.containers],
                [v.name for v in scenario.vms],
            )
            if shape != scenario_shape:
                problems.append(f"issue {ticket.id}: extracted scenario differs from the assembled one")
            got_flow = [(f.endpoint, [(w.name, [i.text for i in w.items]) for w in f.windows]) for f in flow or []]
            if got_flow != flow_shape:
                problems.append(f"issue {ticket.id}: extracted flow differs from the assembled one")
            if [e.command for e in transcript.events] != commands:
                problems.append(f"issue {ticket.id}: reproduction ran other commands")
        return problems


WORKLOADS = {w.name: w for w in (WideScenario, LongFlow, FlawLoop)}
