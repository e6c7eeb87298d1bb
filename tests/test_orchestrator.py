import pytest
from hypothesis import given, settings

from alurity.model import ContainerSpec, ModuleRef, NetworkSpec, Scenario, endpoints, validate
from alurity.orchestrator import (
    CommandResult,
    DeploymentFailure,
    EndpointGone,
    EndpointNotRunning,
    MockBackend,
    UnknownEndpoint,
    up,
)

from alurity.toolreg import registry_index_from_dict

from strategies import BASE_REFS, scenarios

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
        with pytest.raises(DeploymentFailure):
            up(broken, backend, registry)
        assert backend.journal == []

    def test_empty_scenario(self):
        backend = MockBackend()
        deployment = up(Scenario(), backend)
        assert deployment.states == {}
        assert backend.journal == [("apply_plan",)]

    def test_failure_mid_creation_tears_down(self, listing1):
        backend = MockBackend(fail_create={"attacker"})
        with pytest.raises(DeploymentFailure) as exc:
            up(listing1, backend)
        assert exc.value.endpoint == "attacker"
        assert backend.journal == [("create", "ur3"), ("destroy", "ur3")]

    def test_all_or_nothing_exhaustive(self):
        scenario = five_endpoint_scenario()
        for index in range(5):
            backend = MockBackend(fail_create={f"ep{index}"})
            with pytest.raises(DeploymentFailure):
                up(scenario, backend)
            creates = [n for op, n in backend.journal if op == "create"]
            destroys = [e[1] for e in backend.journal if e[0] == "destroy"]
            assert creates == [f"ep{i}" for i in range(index)]
            assert destroys == list(reversed(creates))

    def test_backend_contract_is_swappable(self, listing1):
        backend = SpecOnlyBackend()
        deployment = up(listing1, backend)
        assert deployment.exec("ur3", "true").stdout == b"ok"
        deployment.down()
        assert backend.alive == {"ur3": False, "attacker": False}

    def test_backend_may_refuse_a_kind(self, merged12):
        backend = MockBackend(refuse_kinds={"vm"})
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
        backend = MockBackend(responses=[("^roscore$", {"exit": 0, "stdout": "core up"})])
        deployment = up(listing1, backend)
        result = deployment.exec("ur3", "roscore")
        assert result.stdout == b"core up"
        assert backend.journal[-1] == ("exec", "ur3", "roscore")

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
        backend = MockBackend(fail_destroy={"attacker"})
        deployment = up(listing1, backend)
        deployment.down()
        destroys = [e[1] for e in backend.journal if e[0] == "destroy"]
        assert destroys == ["ur3"]
        assert deployment.states == {"ur3": "stopped", "attacker": "destroy-failed"}

    def test_failed_destroy_stays_live_until_a_retry(self, listing1):
        backend = MockBackend(fail_destroy={"attacker"})
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

    @pytest.mark.parametrize("leaky", ["ur3", "attacker"])
    def test_rollback_reports_a_failed_destroy(self, merged12, leaky):
        backend = MockBackend(refuse_kinds={"vm"}, fail_destroy={leaky})
        with pytest.raises(DeploymentFailure) as exc:
            up(merged12, backend)
        live = [name for name, handle in backend.endpoints.items() if not handle.destroyed]
        assert live == [leaky]
        assert exc.value.live == [leaky]
        assert str(exc.value).endswith(f"; rollback left 1 endpoint(s) live: {leaky}")


def test_mock_fixture_loading(tmp_path):
    fixture = tmp_path / "responses.yaml"
    fixture.write_text('"^id$":\n  exit: 7\n  stdout: uid=0\n')
    backend = MockBackend.from_fixture(str(fixture))
    handle = backend.create_endpoint(ContainerSpec(name="x", base=BASE), None, {})
    assert backend.exec(handle, "id").exit_code == 7
    assert backend.exec(handle, "other").exit_code == 0


STRATEGY_INDEX = registry_index_from_dict({ref: {} for ref in BASE_REFS})


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_clean_validate_means_up_succeeds(scenario):
    """``validate(s) == []`` implies ``up`` brings every endpoint up, on the
    mock backend with a registry index that knows every module."""
    if validate(scenario):
        return
    deployment = up(scenario, MockBackend(), STRATEGY_INDEX)
    assert deployment.states == {name: "running" for name, _ in endpoints(scenario)}
    assert deployment.down() == []
