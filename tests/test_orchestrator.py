import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alurity.flows import compile_flow, run_flow, verify_transcript
from alurity.model import ContainerSpec, FlowSpec, ModuleRef, NetworkSpec, Scenario, has_errors, validate
from alurity.orchestrator import (
    CommandResult,
    DeploymentFailure,
    EndpointGone,
    EndpointNotRunning,
    MockBackend,
    TeardownLeak,
    UnknownEndpoint,
    up,
)

from alurity.parser import ParseFailure
from alurity.toolreg import registry_index_from_dict

from failing_backend import FailingBackend
from strategies import BASE_REFS, endpoints, scenarios, window_specs

BASE = ModuleRef.parse(BASE_REFS[0])


def five_endpoint_scenario():
    return Scenario(
        networks=(NetworkSpec(name="net", subnet="12.0.0.0/24"),),
        containers=tuple(
            ContainerSpec(name=f"ep{i}", base=BASE, networks=("net",)) for i in range(5)
        ),
    )


class SpecOnlyBackend:
    """Second, trivial backend: proves the orchestrator is backend-agnostic."""

    def __init__(self):
        self.alive: dict[str, bool] = {}

    def create_endpoint(self, spec, image, addresses):
        self.alive[spec.name] = True
        return spec.name

    def destroy(self, handle):
        self.alive[handle] = False

    def exec(self, handle, command):
        return CommandResult(exit_code=0, stdout=b"ok")

    def apply_plan(self, plan):
        pass


class TestUp:
    def test_listing1_event_ordering(self, listing1):
        backend = MockBackend()
        deployment = up(listing1, backend)
        assert backend.journal == [
            ("create", "ur3"),
            ("create", "attacker"),
            ("apply_plan",),
        ]
        assert deployment.states == {"ur3": "running", "attacker": "running"}

    def test_invalid_scenario_rejected_before_create(self):
        bad = Scenario(
            networks=(NetworkSpec(name="n", subnet="12.0.0.0/24"),),
            containers=(ContainerSpec(name="a", base=BASE, networks=("ghost",)),),
        )
        backend = MockBackend()
        with pytest.raises(DeploymentFailure):
            up(bad, backend)
        assert backend.journal == []

    def test_an_invalid_scenario_is_named_by_its_first_error(self):
        """A warning that sorts before the error is not the reason given."""
        bad = Scenario(
            networks=(NetworkSpec(name="n", subnet="12.0.0.0/24", driver="bridge"),),
            containers=(ContainerSpec(name="a", base=BASE, networks=("n",), cpus=0),),
        )
        assert [d.severity for d in validate(bad)] == ["warning", "error"]
        backend = MockBackend()
        with pytest.raises(DeploymentFailure, match=r"scenario invalid: error invalid-cpus containers\[0\]\.cpus ") as exc:
            up(bad, backend)
        assert "unknown-driver" not in str(exc.value)
        assert backend.journal == []

    def test_unresolvable_module_fails_before_create(self, listing1, registry):
        from dataclasses import replace

        broken = replace(
            listing1,
            containers=(
                replace(listing1.containers[0], base=ModuleRef.parse("r/ghost:0")),
            )
            + listing1.containers[1:],
        )
        backend = MockBackend()
        with pytest.raises(DeploymentFailure) as exc:
            up(broken, backend, registry)
        assert backend.journal == []
        assert exc.value.endpoint is None
        assert str(exc.value) == "deployment failed: module r/ghost:0 not present in registry index"

    def test_a_failed_apply_plan_blames_no_endpoint(self, listing1):
        backend = FailingBackend(fail_apply=True)
        with pytest.raises(DeploymentFailure) as exc:
            up(listing1, backend)
        assert exc.value.endpoint is None
        assert str(exc.value) == "deployment failed: injected apply_plan failure"

    def test_empty_scenario(self):
        backend = MockBackend()
        deployment = up(Scenario(), backend)
        assert deployment.states == {}
        assert backend.journal == [("apply_plan",)]

    def test_failure_mid_creation_tears_down(self, listing1):
        backend = FailingBackend(fail_create={"attacker"})
        with pytest.raises(DeploymentFailure) as exc:
            up(listing1, backend)
        assert exc.value.endpoint == "attacker"
        assert backend.journal == [("create", "ur3"), ("destroy", "ur3")]

    def test_all_or_nothing_exhaustive(self):
        scenario = five_endpoint_scenario()
        for index in range(5):
            backend = FailingBackend(fail_create={f"ep{index}"})
            with pytest.raises(DeploymentFailure):
                up(scenario, backend)
            creates = [n for op, n in backend.journal if op == "create"]
            destroys = [e[1] for e in backend.journal if e[0] == "destroy"]
            assert creates == [f"ep{i}" for i in range(index)]
            assert destroys == list(reversed(creates))

    def test_a_failed_up_leaves_a_deployment_sharing_its_backend_running(self):
        """A second ``up`` on the same backend may not take over a live
        endpoint: it fails, and its rollback destroys nothing of the first."""
        backend = MockBackend()
        first = up(five_endpoint_scenario(), backend)
        with pytest.raises(DeploymentFailure) as exc:
            up(five_endpoint_scenario(), backend)
        assert exc.value.endpoint == "ep0" and "already live" in str(exc.value)
        assert first.states["ep0"] == "running"
        assert first.exec("ep0", "ls").exit_code == 0
        first.down()

    def test_backend_contract_is_swappable(self, listing1):
        backend = SpecOnlyBackend()
        deployment = up(listing1, backend)
        assert deployment.exec("ur3", "true").stdout == b"ok"
        deployment.down()
        assert backend.alive == {"ur3": False, "attacker": False}

    def test_backend_may_refuse_a_kind(self, merged12):
        backend = FailingBackend(refuse_kinds={"vm"})
        with pytest.raises(DeploymentFailure) as exc:
            up(merged12, backend)
        assert exc.value.endpoint == "irc5"
        assert exc.value.live == []
        assert str(exc.value) == "deployment failed at endpoint 'irc5': backend refuses to host vm endpoints"
        # both containers created, then rolled back
        destroys = [n for op, *rest in backend.journal if op == "destroy" for n in rest]
        assert set(destroys) == {"ur3", "attacker"}


class TestExec:
    def test_scripted_result_and_journal(self, listing1):
        """The command's answer comes back in its result; the journal keeps
        the lifecycle only."""
        backend = MockBackend(responses=[("^roscore$", {"exit": 0, "stdout": "core up"})])
        deployment = up(listing1, backend)
        journal = list(backend.journal)
        assert deployment.exec("ur3", "roscore") == CommandResult(0, b"core up")
        assert deployment.exec("ur3", "roslaunch") == CommandResult(0)
        assert backend.journal == journal

    def test_unknown_endpoint(self, listing1):
        deployment = up(listing1, MockBackend())
        with pytest.raises(UnknownEndpoint):
            deployment.exec("ghost", "id")

    def test_exec_after_down(self, listing1):
        deployment = up(listing1, MockBackend())
        deployment.down()
        with pytest.raises(EndpointNotRunning):
            deployment.exec("ur3", "id")

    def test_exec_on_destroyed_handle_is_gone(self, listing1):
        backend = MockBackend()
        deployment = up(listing1, backend)
        handle = deployment.handles["ur3"]
        backend.destroy(handle)
        with pytest.raises(EndpointGone):
            backend.exec(handle, "id")

    def test_logical_sleep_advances_clock_only(self, listing1):
        import time

        backend = MockBackend()
        deployment = up(listing1, backend)
        start = time.monotonic()
        result = deployment.exec("ur3", "sleep 500")
        assert time.monotonic() - start < 1.0
        assert result.ended_at - result.started_at == 500
        assert backend.clock == 500


# Overlapping patterns, so the first match decides; "sleep" ones advance the clock.
RESPONSES = [
    ("^ros", {"stdout": "ros"}),
    ("roscore", {"exit": 2}),
    ("sleep", {"stderr": "zz"}),
    ("x$", {"exit": 1, "stdout": 5}),
]
COMMANDS = ["roscore", "rostopic echo x", "sleep 3", "sleep 3 ", "sleep 10", "nmap x", "id", ""]


def former_exec(clock: int, command: str, responses=RESPONSES) -> tuple[CommandResult, int]:
    """``MockBackend.exec`` before it kept one answer per command: the
    result and the clock after it."""
    started = clock
    match = re.match(r"^sleep\s+(\d+)\s*$", command)
    if match:
        clock += int(match.group(1))
    for pattern, body in responses:
        if re.search(pattern, command):
            stdout, stderr = str(body.get("stdout", "")).encode(), str(body.get("stderr", "")).encode()
            return CommandResult(int(body.get("exit", 0)), stdout, stderr, started, clock), clock
    return CommandResult(0, b"", b"", started, clock), clock


OTHER_BODIES = [{"stdout": "other"}, {"exit": 3}, {"stderr": "e", "stdout": 7}, {}]


@settings(max_examples=100, deadline=None)
@given(
    st.permutations(OTHER_BODIES),
    st.permutations(RESPONSES),
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from(COMMANDS) | st.text("rosx e3", max_size=6)), max_size=40),
)
def test_exec_answers_like_the_former_exec(bodies, permuted, steps):
    """Three backends, built from the same patterns, from them with other
    bodies and from them in another order, share one first-match memo.  Each
    answers its share of an interleaved run of commands, repeated ones too,
    as the ordered first-match scan over its own list does, and advances its
    own clock; its journal keeps only the endpoint's creation."""
    scripts = [RESPONSES, [(pattern, body) for (pattern, _), body in zip(RESPONSES, bodies)], permuted]
    backends = [MockBackend(responses=script) for script in scripts]
    handles = [backend.create_endpoint(ContainerSpec(name="ep", base=BASE), None, {}) for backend in backends]
    clocks = [0] * len(backends)
    for k, command in steps:
        expected, clocks[k] = former_exec(clocks[k], command, scripts[k])
        assert backends[k].exec(handles[k], command) == expected
    for backend in backends:
        assert backend.journal == [("create", "ep")]
    assert [backend.clock for backend in backends] == clocks


def test_a_pattern_that_is_not_a_regex_raises_at_every_construction():
    for _ in range(2):
        with pytest.raises(re.error):
            MockBackend(responses=[("^id$", {}), ("(", {})])


def test_a_response_without_a_body_raises_at_construction():
    with pytest.raises(IndexError):
        MockBackend(responses=[("x",)])
    with pytest.raises(IndexError):
        MockBackend(responses=[("^id$", {}), ("x",)])


def test_changing_the_callers_list_leaves_the_answers():
    responses = [("^id$", {"stdout": "uid=0"}), ("^nmap", {"exit": 1})]
    backend = MockBackend(responses=responses)
    handle = backend.create_endpoint(ContainerSpec(name="ep", base=BASE), None, {})
    responses[0] = ("^id$", {"stdout": "changed"})
    responses.insert(0, ("", {"exit": 9}))
    assert [backend.exec(handle, c) for c in ("id", "nmap x", "ls")] == [CommandResult(0, b"uid=0"), CommandResult(1), CommandResult(0)]
    responses.clear()
    assert backend.exec(handle, "nmap y") == CommandResult(1)


def test_a_later_backend_answers_from_its_own_bodies():
    """The second backend finds every command already matched against its
    patterns, and still answers with its own bodies."""
    first = MockBackend(responses=[("^id$", {"stdout": "first"}), ("^nmap", {"exit": 1})])
    handle = first.create_endpoint(ContainerSpec(name="ep", base=BASE), None, {})
    assert [first.exec(handle, c).stdout for c in ("id", "nmap x", "ls")] == [b"first", b"", b""]
    second = MockBackend(responses=[("^id$", {"exit": 4, "stdout": "second"}), ("^nmap", {"stderr": "denied"})])
    assert second._first is first._first
    handle = second.create_endpoint(ContainerSpec(name="ep", base=BASE), None, {})
    assert [second.exec(handle, c) for c in ("id", "nmap x", "ls")] == [
        CommandResult(4, b"second"),
        CommandResult(0, b"", b"denied"),
        CommandResult(0),
    ]


def test_sleep_advances_only_its_own_backends_clock():
    one, other = MockBackend(responses=RESPONSES), MockBackend(responses=RESPONSES)
    mine, theirs = (b.create_endpoint(ContainerSpec(name="ep", base=BASE), None, {}) for b in (one, other))
    one.exec(mine, "sleep 3")
    assert other.exec(theirs, "sleep 10") == CommandResult(0, b"", b"zz", 0, 10)
    assert one.exec(mine, "sleep 3") == CommandResult(0, b"", b"zz", 3, 6)
    assert (one.clock, other.clock) == (6, 10)


class TestDown:
    def test_reverse_creation_order(self, listing1):
        backend = MockBackend()
        deployment = up(listing1, backend)
        assert deployment.down() == []
        destroys = [e[1] for e in backend.journal if e[0] == "destroy"]
        assert destroys == ["attacker", "ur3"]
        assert set(deployment.states.values()) == {"stopped"}

    def test_idempotent(self, listing1):
        backend = MockBackend()
        deployment = up(listing1, backend)
        deployment.down()
        journal_after_first = list(backend.journal)
        deployment.down()
        assert backend.journal == journal_after_first

    def test_destroy_failure_does_not_stop_teardown(self, listing1):
        backend = FailingBackend(fail_destroy={"attacker"})
        deployment = up(listing1, backend)
        deployment.down()
        destroys = [e[1] for e in backend.journal if e[0] == "destroy"]
        assert destroys == ["ur3"]
        assert deployment.states == {"ur3": "stopped", "attacker": "destroy-failed"}

    def test_failed_destroy_stays_live_until_a_retry(self, listing1):
        backend = FailingBackend(fail_destroy={"attacker"})
        deployment = up(listing1, backend)
        assert deployment.down() == ["attacker"]
        assert deployment.states == {"ur3": "stopped", "attacker": "destroy-failed"}
        assert not backend.endpoints["attacker"].destroyed
        assert deployment.down() == ["attacker"]
        backend.fail_destroy.clear()
        assert deployment.down() == []
        assert set(deployment.states.values()) == {"stopped"}
        assert backend.endpoints["attacker"].destroyed
        assert [e[1] for e in backend.journal if e[0] == "destroy"] == ["ur3", "attacker"]

    def test_teardown_leak_names_each_cause(self, listing1):
        class Refusing(FailingBackend):
            def destroy(self, handle):
                if handle.name == "ur3":
                    raise EndpointGone()  # an error without text is named by its type
                super().destroy(handle)

        backend = Refusing(fail_destroy={"attacker"})
        with pytest.raises(TeardownLeak) as exc:
            with up(listing1, backend) as deployment:
                pass
        assert exc.value.live == ["attacker", "ur3"]
        assert str(exc.value) == (
            "teardown left 2 endpoint(s) live: attacker (injected destroy failure for 'attacker'), ur3 (EndpointGone)"
        )
        backend.fail_destroy.clear()
        assert deployment.down() == ["ur3"]
        assert deployment.destroy_errors == {"ur3": "EndpointGone"}

    @pytest.mark.parametrize("leaky", ["ur3", "attacker"])
    def test_rollback_reports_a_failed_destroy(self, merged12, leaky):
        backend = FailingBackend(refuse_kinds={"vm"}, fail_destroy={leaky})
        with pytest.raises(DeploymentFailure) as exc:
            up(merged12, backend)
        live = [name for name, handle in backend.endpoints.items() if not handle.destroyed]
        assert live == [leaky]
        assert exc.value.live == [leaky]
        assert str(exc.value).endswith(f"; rollback left 1 endpoint(s) live: {leaky} (injected destroy failure for {leaky!r})")


def test_mock_fixture_loading(tmp_path):
    fixture = tmp_path / "responses.yaml"
    fixture.write_text('"^id$":\n  exit: 7\n  stdout: uid=0\n')
    backend = MockBackend.from_fixture(str(fixture))
    handle = backend.create_endpoint(ContainerSpec(name="x", base=BASE), None, {})
    assert backend.exec(handle, "id").exit_code == 7
    assert backend.exec(handle, "other").exit_code == 0


@pytest.mark.parametrize("text", ["null", "{}"])
def test_a_null_or_empty_response_answers_exit_0(tmp_path, text):
    fixture = tmp_path / "responses.yaml"
    fixture.write_text(f'"^id$": {text}\n"": {{exit: 9}}\n')
    backend = MockBackend.from_fixture(str(fixture))
    handle = backend.create_endpoint(ContainerSpec(name="x", base=BASE), None, {})
    assert [backend.exec(handle, c) for c in ("id", "other")] == [CommandResult(0), CommandResult(9)]


@pytest.mark.parametrize("key", ["stdout", "stderr"])
def test_a_null_output_reads_as_missing(tmp_path, key):
    """``stdout: ~`` prints nothing, not the text ``None``."""
    fixture = tmp_path / "responses.yaml"
    fixture.write_text(f'"^id$": {{exit: 3, {key}: ~}}\n')
    backend = MockBackend.from_fixture(str(fixture))
    handle = backend.create_endpoint(ContainerSpec(name="x", base=BASE), None, {})
    assert backend.exec(handle, "id") == CommandResult(3)


@pytest.mark.parametrize("text, kind", [("[]", "list"), ("[1]", "list"), ("3", "int"), ("''", "str"), ("false", "bool")])
def test_a_response_that_is_not_a_map_is_refused(tmp_path, text, kind):
    """Only null is an empty response: an empty list, text or false is not a map."""
    fixture = tmp_path / "responses.yaml"
    fixture.write_text(f'"^id$": {text}\n')
    with pytest.raises(ParseFailure) as exc:
        MockBackend.from_fixture(str(fixture))
    assert exc.value.message == f"the response to '^id$' must be a map, got a {kind}"


STRATEGY_INDEX = registry_index_from_dict({ref: {} for ref in BASE_REFS})


@st.composite
def scenarios_with_loose_flows(draw) -> Scenario:
    """``scenarios()`` with up to two more flow entries, which may name an
    undeclared endpoint or repeat a window name of their endpoint."""
    scenario = draw(scenarios())
    names = [name for name, _ in endpoints(scenario)] + ["ghost"]
    windows = st.lists(st.sampled_from(["w0", "w1"]).flatmap(window_specs), min_size=1, max_size=2).map(tuple)
    extra = draw(st.lists(st.builds(FlowSpec, endpoint=st.sampled_from(names), windows=windows), max_size=2))
    return replace(scenario, flows=scenario.flows + tuple(extra))


@settings(max_examples=100, deadline=None)
@given(scenarios_with_loose_flows())
def test_clean_validate_means_up_succeeds(scenario):
    """A ``validate(s)`` without errors (so also ``validate(s) == []``)
    implies that ``up`` brings every endpoint up, on the mock backend with a
    registry index that knows every module, and that the scenario's flow
    compiles, runs and verifies."""
    if has_errors(validate(scenario)):
        return
    deployment = up(scenario, MockBackend(), STRATEGY_INDEX)
    assert deployment.states == {name: "running" for name, _ in endpoints(scenario)}
    plan = compile_flow(scenario.flows, known_endpoints=deployment.states)
    assert verify_transcript(plan, run_flow(deployment, plan))
    assert deployment.down() == []


class Boom(Exception):
    pass


@st.composite
def failure_points(draw):
    """A valid scenario; a deployment already up on the same backend, whose
    endpoints copy some of the scenario's under their own names or under
    another; and the failures the backend then injects: a create failure at
    one endpoint, a refused kind or a failing ``apply_plan`` (or none), and
    a subset of endpoints whose destroy fails."""
    scenario = draw(scenarios())
    names = [name for name, _ in endpoints(scenario)]
    copies = draw(st.dictionaries(st.sampled_from(names), st.booleans())) if names else {}

    def copied(specs):
        return tuple(replace(s, name=s.name if copies[s.name] else f"{s.name}-other") for s in specs if s.name in copies)

    other = Scenario(networks=scenario.networks, containers=copied(scenario.containers), vms=copied(scenario.vms))
    failure = draw(st.sampled_from(["none", "create", "refuse", "apply"]))
    fail_create = {draw(st.sampled_from(names))} if failure == "create" and names else set()
    refuse = {draw(st.sampled_from(["container", "vm"]))} if failure == "refuse" else set()
    fail_destroy = draw(st.sets(st.sampled_from(names))) if names else set()
    teardown = draw(st.sampled_from(["down", "with", "with-raise"]))
    return scenario, other, fail_create, refuse, failure == "apply", fail_destroy, teardown


@settings(max_examples=100, deadline=None)
@given(failure_points())
def test_up_is_all_or_nothing(case):
    """``up`` either brings every endpoint up or leaves live only what its
    rollback could not destroy, named in ``DeploymentFailure.live`` with its
    cause; teardown destroys newest first and returns what it left live; a
    ``with`` block keeps its own exception; and the other deployment on the
    backend never changes state."""
    scenario, other_scenario, fail_create, refuse, fail_apply, fail_destroy, teardown = case
    if has_errors(validate(scenario)):
        return
    backend = FailingBackend()
    other = up(other_scenario, backend)
    other_live = set(other.handles)
    backend.fail_create, backend.refuse_kinds, backend.fail_apply = fail_create, refuse, fail_apply
    backend.fail_destroy = set(fail_destroy)
    start = len(backend.journal)
    order = endpoints(scenario)
    names = [name for name, _ in order]
    refused = next((n for n, kind in order if n in other_live or kind in refuse or n in fail_create), None)
    created = names[: names.index(refused)] if refused is not None else names
    newest_first = created[::-1]
    leaked = [n for n in newest_first if n in fail_destroy]
    destroyed = [n for n in newest_first if n not in fail_destroy]

    def destroys():
        return [entry[1] for entry in backend.journal[start:] if entry[0] == "destroy"]

    if refused is not None or fail_apply:
        with pytest.raises(DeploymentFailure) as exc:
            up(scenario, backend)
        assert exc.value.endpoint == refused
        assert [entry[1] for entry in backend.journal[start:] if entry[0] == "create"] == created
        assert destroys() == destroyed
        assert exc.value.live == leaked
        for name in leaked:
            assert f"{name} (injected destroy failure for {name!r})" in str(exc.value)
        assert {n for n in created if not backend.endpoints[n].destroyed} == set(leaked)
    else:
        deployment = up(scenario, backend)
        assert deployment.states == {n: "running" for n in created}
        if teardown == "down":
            assert deployment.down() == leaked
        elif teardown == "with-raise":
            with pytest.raises(Boom):
                with deployment:
                    raise Boom()
        elif leaked:
            with pytest.raises(TeardownLeak) as exc:
                with deployment:
                    pass
            assert exc.value.live == leaked
        else:
            with deployment:
                pass
        assert destroys() == destroyed
        assert deployment.states == {n: "destroy-failed" if n in leaked else "stopped" for n in created}
        backend.fail_destroy.clear()
        assert deployment.down() == []
        assert destroys() == destroyed + leaked
    assert other.states == {n: "running" for n in other_live}
    assert not any(other.handles[n].destroyed for n in other_live)
