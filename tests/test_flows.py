import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alurity.flows import (
    Transcript,
    TranscriptEvent,
    compile_flow,
    run_flow,
    transcript_to_yaml,
    verify_transcript,
)
from alurity.model import Command, ContainerSpec, FlowSpec, ModuleRef, NetworkSpec, Scenario, Split, WindowSpec
from alurity.netplan import UnknownEndpoint
from alurity.orchestrator import CommandResult, MockBackend, up

from strategies import BASE_REFS

BASE = ModuleRef.parse(BASE_REFS[0])


@pytest.fixture
def flow_scenario():
    return Scenario(
        networks=(NetworkSpec(name="net", subnet="12.0.0.0/24"),),
        containers=(
            ContainerSpec(name="rosmachine", base=BASE, networks=("net",)),
            ContainerSpec(name="attacker", base=BASE, networks=("net",)),
        ),
    )


@pytest.fixture
def deployment(flow_scenario):
    return up(flow_scenario, MockBackend())


class TestCompile:
    def test_listing3_pane_assignment(self, listing3):
        plan = compile_flow(listing3)
        assert [key for key, _ in plan] == [
            ("rosmachine", "ros", 0),
            ("rosmachine", "ros", 1),
            ("rosmachine", "ros", 2),
            ("attacker", "setup", 0),
            ("attacker", "setup", 1),
            ("attacker", "attack", 0),
            ("attacker", "attack", 1),
        ]
        panes = dict(plan)
        assert panes["rosmachine", "ros", 0] == ("source /opt/ros/melodic/setup.bash", "roscore")
        assert panes["rosmachine", "ros", 1] == (
            "source /opt/ros/melodic/setup.bash",
            "sleep 10",
            "rostopic echo /chatter",
        )
        assert panes["rosmachine", "ros", 2][-1] == "rostopic hz /chatter"
        assert panes["attacker", "attack", 1][-1] == 'robosploit -m exploits/ros/fin_ack -s "target 12.0.0.2"'
        assert [spec.select for spec in listing3] == [None, "attack"]

    def test_window_without_splits(self):
        spec = FlowSpec(endpoint="x", windows=(WindowSpec("w", (Command("a"), Command("b"))),))
        assert compile_flow([spec]) == ((("x", "w", 0), ("a", "b")),)

    def test_leading_split_leaves_pane0_empty(self):
        spec = FlowSpec(endpoint="x", windows=(WindowSpec("w", (Split("horizontal"), Command("a"))),))
        assert compile_flow([spec]) == ((("x", "w", 0), ()), (("x", "w", 1), ("a",)))

    def test_unknown_endpoint(self, listing3):
        with pytest.raises(UnknownEndpoint):
            compile_flow(listing3, known_endpoints=["rosmachine"])

    def test_unknown_selected_window(self):
        # FlowSpec owns the rule, so no such flow reaches compile_flow
        with pytest.raises(ValueError, match="selected window 'nope' is not defined for 'x'"):
            FlowSpec(endpoint="x", windows=(WindowSpec("w", ()),), select="nope")

    def test_known_endpoints_may_be_any_iterable(self, listing3, deployment):
        """The names are read once, so a dict, a set or a one-shot iterator
        all give the plan that a list does."""
        names = list(deployment.states)
        expected = compile_flow(listing3, known_endpoints=names)
        for known in (deployment.states, set(names), iter(names[::-1])):
            assert compile_flow(listing3, known_endpoints=known) == expected

    def test_pure_and_deterministic(self, listing3):
        assert compile_flow(listing3) == compile_flow(listing3)


class TestRun:
    def test_listing3_transcript_verifies(self, listing3, deployment):
        plan = compile_flow(listing3, known_endpoints=list(deployment.states))
        transcript = run_flow(deployment, plan)
        assert verify_transcript(plan, transcript)

    def test_iptables_precede_dos_script(self, listing3, deployment):
        plan = compile_flow(listing3)
        transcript = run_flow(deployment, plan)
        pane = [
            e.command
            for e in transcript.events
            if e.endpoint == "attacker" and e.window == "attack" and e.pane == 1
        ]
        dos = pane.index("python3 fin_ack_dos.py")
        iptables = [i for i, c in enumerate(pane) if c.startswith("iptables ")]
        assert len(iptables) == 2 and max(iptables) < dos

    def test_command_count_conservation(self, listing3, deployment):
        plan = compile_flow(listing3)
        transcript = run_flow(deployment, plan)
        total = sum(isinstance(i, Command) for f in listing3 for w in f.windows for i in w.items)
        assert len(transcript.events) == total

    def test_empty_plan(self, deployment):
        transcript = run_flow(deployment, compile_flow([]))
        assert transcript.events == []
        assert verify_transcript(compile_flow([]), transcript)

    def test_random_interleavings_project_correctly(self, flow_scenario):
        """Any order that keeps each pane's order verifies, not just the
        round-robin one ``run_flow`` picks."""
        window = WindowSpec(
            "w",
            (
                Command("a1"), Command("a2"), Command("a3"),
                Split("vertical"),
                Command("b1"), Command("b2"), Command("b3"),
            ),
        )
        spec = FlowSpec(endpoint="attacker", windows=(window,))
        plan = compile_flow([spec])
        rng = random.Random(3)
        orders = set()
        for _ in range(50):
            deployment = up(flow_scenario, MockBackend())
            transcript = reference_run_flow(deployment, plan, rng=rng)
            assert verify_transcript(plan, transcript)
            orders.add(tuple(e.command for e in transcript.events))
        assert len(orders) > 1

    def test_undeclared_endpoint_runs_nothing(self):
        deployment = CountingDeployment(["attacker"])
        plan = compile_flow(
            [FlowSpec(name, (WindowSpec("w", (Command("a"),)),)) for name in ("attacker", "ghost")]
        )
        with pytest.raises(UnknownEndpoint, match="ghost"):
            run_flow(deployment, plan)
        assert deployment.calls == []

    def test_entry_without_windows_runs_nothing(self, deployment):
        """An entry with no windows names no pane, so run_flow does not
        look its endpoint up; validate and known_endpoints reject it."""
        plan = compile_flow([FlowSpec(endpoint="ghost")])
        assert run_flow(deployment, plan).events == []

    def test_default_continues_after_failure(self, flow_scenario):
        backend = MockBackend(responses=[("^fails$", {"exit": 1})])
        deployment = up(flow_scenario, backend)
        spec = FlowSpec(endpoint="attacker", windows=(WindowSpec("w", (Command("fails"), Command("next"))),))
        plan = compile_flow([spec])
        transcript = run_flow(deployment, plan)
        assert [e.command for e in transcript.events] == ["fails", "next"]

    def test_sleeps_are_logical(self, listing3, deployment):
        import time

        plan = compile_flow(listing3)
        start = time.monotonic()
        run_flow(deployment, plan)
        assert time.monotonic() - start < 1.0


class TestUnknownEndpoint:
    """One exception for a name the deployment lacks, wherever it is looked up."""

    @pytest.mark.parametrize("call", ["compile_flow", "run_flow", "Deployment.exec"])
    def test_undeclared_name_raises_unknown_endpoint_and_runs_nothing(self, deployment, call):
        ran = []
        backend_exec = deployment.backend.exec
        deployment.backend.exec = lambda handle, command: ran.append(command) or backend_exec(handle, command)
        flow = [FlowSpec(name, (WindowSpec("w", (Command("a"),)),)) for name in ("attacker", "ghost")]
        calls = {
            "compile_flow": lambda: compile_flow(flow, known_endpoints=deployment.states),
            "run_flow": lambda: run_flow(deployment, compile_flow(flow)),
            "Deployment.exec": lambda: deployment.exec("ghost", "a"),
        }
        with pytest.raises(UnknownEndpoint, match="^ghost$"):
            calls[call]()
        assert ran == []
        assert deployment.exec("attacker", "a").exit_code == 0 and ran == ["a"]


def reference_run_flow(deployment, plan, rng=None):
    """``run_flow`` as it was, taking each command off the front of a list
    and keeping a cursor into the sessions: the reference for the
    transcript.  With ``rng`` the next session is drawn at random instead,
    which still keeps each pane's order."""
    for (endpoint, _, _), _ in plan:
        if endpoint not in deployment.states:
            raise UnknownEndpoint(endpoint)
    sessions = [[*key, list(texts)] for key, texts in plan if texts]

    transcript = Transcript()
    seq = 0
    cursor = 0
    while sessions:
        if rng is None:
            cursor %= len(sessions)
            index = cursor
        else:
            index = rng.randrange(len(sessions))
        endpoint, window, pane_index, queue = sessions[index]
        text = queue.pop(0)
        result = deployment.exec(endpoint, text)
        transcript.events.append(TranscriptEvent(endpoint, window, pane_index, text, result, seq))
        seq += 1
        if not queue:
            sessions.pop(index)
        elif rng is None:
            cursor = index + 1
    return transcript


class CountingDeployment:
    """Stands in for a deployment: each exec's result carries its call number."""

    def __init__(self, names):
        self.states = {name: "running" for name in names}
        self.calls = []

    def exec(self, endpoint, command):
        self.calls.append((endpoint, command))
        return CommandResult(exit_code=len(self.calls) % 3, stdout=f"{len(self.calls)}".encode())


_ENDPOINTS = ("a", "b", "c")
_windows = st.tuples(
    st.sampled_from(_ENDPOINTS),
    st.sampled_from(["w", "v"]),
    st.lists(st.lists(st.sampled_from(["x", "y", "sleep 1"]), max_size=5).map(tuple), min_size=1, max_size=3),
)
# Pane lists as compile_flow builds them, repeated keys included
_plans = st.lists(_windows, max_size=8).map(
    lambda windows: tuple(((ep, name, i), texts) for ep, name, panes in windows for i, texts in enumerate(panes))
)


class TestScheduleMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_plans)
    def test_same_transcript_and_calls(self, plan):
        deployments = [CountingDeployment(_ENDPOINTS), CountingDeployment(_ENDPOINTS)]
        actual = run_flow(deployments[0], plan)
        expected = reference_run_flow(deployments[1], plan)
        assert actual.events == expected.events
        assert deployments[0].calls == deployments[1].calls


class TestVerify:
    def test_swapped_events_fail(self, listing3, deployment):
        plan = compile_flow(listing3)
        transcript = run_flow(deployment, plan)
        pane0 = [
            i
            for i, e in enumerate(transcript.events)
            if e.endpoint == "rosmachine" and e.pane == 0
        ]
        i, j = pane0[0], pane0[1]
        events = list(transcript.events)
        events[i] = events[i]._replace(command=transcript.events[j].command)
        events[j] = events[j]._replace(command=transcript.events[i].command)
        assert verify_transcript(plan, Transcript(events)) is False

    def test_non_monotone_sequence_fails(self, listing3, deployment):
        plan = compile_flow(listing3)
        transcript = run_flow(deployment, plan)
        events = list(transcript.events)
        events[1] = events[1]._replace(seq=events[0].seq)
        assert verify_transcript(plan, Transcript(events)) is False

    def test_repeated_window_fails(self, deployment):
        """Two windows of one name share pane keys: the flow compiles and
        runs, but the transcript cannot match the plan."""
        spec = FlowSpec(
            endpoint="attacker",
            windows=(WindowSpec("w", (Command("a"),)), WindowSpec("w", (Command("b"),))),
        )
        plan = compile_flow([spec])
        assert [key for key, _ in plan] == [("attacker", "w", 0), ("attacker", "w", 0)]
        transcript = run_flow(deployment, plan)
        assert [e.command for e in transcript.events] == ["a", "b"]
        assert verify_transcript(plan, transcript) is False

    def test_yaml_export_is_ordered(self, listing3, deployment):
        import yaml

        plan = compile_flow(listing3)
        transcript = run_flow(deployment, plan)
        doc = yaml.safe_load(transcript_to_yaml(transcript))
        seqs = [e["seq"] for e in doc["transcript"]]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(transcript.events)


class TestValuesAreImmutable:
    @pytest.mark.parametrize("field", ["exit_code", "stdout", "stderr", "started_at", "ended_at"])
    def test_command_result(self, field):
        result = CommandResult(0, b"out")
        with pytest.raises(AttributeError):
            setattr(result, field, 1)
        assert result._replace(exit_code=2) == CommandResult(exit_code=2, stdout=b"out", stderr=b"", started_at=0, ended_at=0)

    @pytest.mark.parametrize("field", ["endpoint", "window", "pane", "command", "result", "seq"])
    def test_transcript_event(self, field):
        event = TranscriptEvent("a", "w", 0, "x", CommandResult(0), 0)
        with pytest.raises(AttributeError):
            setattr(event, field, 1)
        assert event._replace(seq=5).seq == 5 and event.seq == 0
