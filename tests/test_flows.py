import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alurity.flows import (
    EndpointFlowPlan,
    FlowPlan,
    Transcript,
    TranscriptEvent,
    UnknownEndpointInFlow,
    WindowPlan,
    compile_flow,
    run_flow,
    transcript_to_yaml,
    verify_transcript,
)
from alurity.model import Command, ContainerSpec, FlowSpec, ModuleRef, NetworkSpec, Scenario, Split, WindowSpec
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
        ros = plan.endpoints[0].windows[0]
        assert len(ros.panes) == 3
        assert [c.text for c in ros.panes[0]] == [
            "source /opt/ros/melodic/setup.bash",
            "roscore",
        ]
        assert [c.text for c in ros.panes[1]] == [
            "source /opt/ros/melodic/setup.bash",
            "sleep 10",
            "rostopic echo /chatter",
        ]
        assert [c.text for c in ros.panes[2]][-1] == "rostopic hz /chatter"

        attacker = plan.endpoints[1]
        setup, attack = attacker.windows
        assert len(setup.panes) == 2
        assert len(attack.panes) == 2
        assert [c.text for c in attack.panes[1]][-1] == (
            'robosploit -m exploits/ros/fin_ack -s "target 12.0.0.2"'
        )
        assert [spec.select for spec in listing3] == [None, "attack"]

    def test_window_without_splits(self):
        spec = FlowSpec(endpoint="x", windows=(WindowSpec("w", (Command("a"), Command("b"))),))
        plan = compile_flow([spec])
        assert plan.endpoints[0].windows[0].panes == ((Command("a"), Command("b")),)

    def test_leading_split_leaves_pane0_empty(self):
        spec = FlowSpec(endpoint="x", windows=(WindowSpec("w", (Split("horizontal"), Command("a"))),))
        plan = compile_flow([spec])
        panes = plan.endpoints[0].windows[0].panes
        assert len(panes) == 2
        assert panes[0] == ()
        assert panes[1] == (Command("a"),)

    def test_unknown_endpoint(self, listing3):
        with pytest.raises(UnknownEndpointInFlow):
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
        for _ in range(50):
            deployment = up(flow_scenario, MockBackend())
            transcript = run_flow(deployment, plan, rng=rng)
            assert verify_transcript(plan, transcript)

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


def reference_run_flow(deployment, plan, rng=None):
    """``run_flow`` as it was, taking each command off the front of a list:
    the reference for the transcript and for the ``rng`` draws."""
    sessions = []
    for ep in plan.endpoints:
        if ep.endpoint not in deployment.states:
            raise UnknownEndpointInFlow(ep.endpoint)
        for window in ep.windows:
            for pane_index, pane in enumerate(window.panes):
                if pane:
                    sessions.append([ep.endpoint, window.name, pane_index, list(pane)])

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
        command = queue.pop(0)
        result = deployment.exec(endpoint, command.text)
        transcript.events.append(TranscriptEvent(endpoint, window, pane_index, command.text, result, seq))
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
_panes = st.lists(
    st.lists(st.sampled_from(["x", "y", "sleep 1"]), max_size=5).map(lambda texts: tuple(map(Command, texts))),
    min_size=1,
    max_size=3,
).map(tuple)
_plans = st.lists(
    st.builds(
        EndpointFlowPlan,
        endpoint=st.sampled_from(_ENDPOINTS),
        windows=st.lists(st.builds(WindowPlan, name=st.sampled_from(["w", "v"]), panes=_panes), max_size=3).map(tuple),
    ),
    max_size=4,
).map(lambda eps: FlowPlan(endpoints=tuple(eps)))


class TestScheduleMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_plans, st.one_of(st.none(), st.integers(0, 2**32)))
    def test_same_transcript_and_draws(self, plan, seed):
        rngs = [None, None] if seed is None else [random.Random(seed), random.Random(seed)]
        deployments = [CountingDeployment(_ENDPOINTS), CountingDeployment(_ENDPOINTS)]
        actual = run_flow(deployments[0], plan, rng=rngs[0])
        expected = reference_run_flow(deployments[1], plan, rng=rngs[1])
        assert actual.events == expected.events
        assert deployments[0].calls == deployments[1].calls
        if seed is not None:
            assert rngs[0].getstate() == rngs[1].getstate()


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
