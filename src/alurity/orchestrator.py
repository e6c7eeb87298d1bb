"""Deployment lifecycle against a pluggable backend.

A backend owns endpoint creation/destruction and command execution; the
orchestrator owns ordering (create everything, apply the connectivity plan,
mark running) and the all-or-nothing guarantee on failure.  The mock backend
is fully deterministic: scripted responses, a logical clock for ``sleep``,
and a journal of every create, apply, exec and destroy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Protocol

from . import toolreg
from .model import Scenario, endpoint_specs, endpoints, has_errors, validate
from .netplan import ConnectivityPlan, UnknownEndpoint, allocate_addresses, build_connectivity_plan
from .parser import ParseFailure, cached_regex, compile_regex, load_yaml_map


class EndpointNotRunning(Exception):
    pass


class EndpointGone(Exception):
    pass


def _left_live(live: list[str]) -> str:
    return f"left {len(live)} endpoint(s) live: {', '.join(live)}"


class DeploymentFailure(Exception):
    """A failed bring-up; ``live`` names what its rollback left live."""

    def __init__(self, endpoint: Optional[str], cause, live=()):
        self.endpoint = endpoint
        self.cause = cause
        self.live = list(live)
        message = f"deployment failed at endpoint {endpoint!r}: {cause}"
        if self.live:
            message += f"; rollback {_left_live(self.live)}"
        super().__init__(message)


class TeardownLeak(Exception):
    def __init__(self, live: list[str]):
        self.live = list(live)
        super().__init__(f"teardown {_left_live(self.live)}")


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: bytes = b""
    stderr: bytes = b""
    started_at: int = 0
    ended_at: int = 0


class Backend(Protocol):
    def create_endpoint(self, spec, image, addresses):  # -> handle
        ...

    def destroy(self, handle) -> None:
        ...

    def exec(self, handle, command: str) -> CommandResult:
        ...

    def apply_plan(self, plan: ConnectivityPlan) -> None:
        ...


_SLEEP_RE = re.compile(r"^sleep\s+(\d+)\s*$")


@dataclass
class MockEndpoint:
    name: str
    destroyed: bool = False


class MockBackend:
    """Deterministic in-memory backend.

    ``responses`` is an ordered list of (regex, CommandResult-ish dict);
    the first matching pattern wins, anything else exits 0 with no output.
    ``sleep N`` advances a logical clock instead of waiting.
    """

    def __init__(self, responses=None, fail_create=(), fail_destroy=(), refuse_kinds=()):
        self.responses = [(cached_regex(p), r) for p, r in (responses or [])]
        self.fail_create = set(fail_create)
        self.fail_destroy = set(fail_destroy)
        self.refuse_kinds = set(refuse_kinds)
        self.journal: list = []
        self.endpoints: dict[str, MockEndpoint] = {}
        self.clock = 0

    @classmethod
    def from_fixture(cls, path: str) -> "MockBackend":
        """A backend scripted by a YAML map of regex -> response map;
        ``ParseFailure`` for a key that is not a regex, a response that is
        not a map (an empty one is) or an ``exit`` that is not an integer."""
        responses = []
        for pattern, body in load_yaml_map(path).items():
            compile_regex(pattern, repr(pattern))
            if body is None:
                body = {}
            if not isinstance(body, dict):
                raise ParseFailure(f"the response to {pattern!r} must be a map, got a {type(body).__name__}")
            code = body.get("exit", 0)
            if type(code) is not int:
                raise ParseFailure(f"the exit of {pattern!r} must be an integer, got {code!r}")
            responses.append((pattern, body))
        return cls(responses=responses)

    def create_endpoint(self, spec, image, addresses) -> MockEndpoint:
        kind = "vm" if hasattr(spec, "path") else "container"
        if kind in self.refuse_kinds:
            raise RuntimeError(f"backend refuses to host {kind} endpoints")
        if spec.name in self.endpoints and not self.endpoints[spec.name].destroyed:
            return self.endpoints[spec.name]
        if spec.name in self.fail_create:
            raise RuntimeError(f"injected creation failure for {spec.name!r}")
        handle = MockEndpoint(name=spec.name)
        self.endpoints[spec.name] = handle
        self.journal.append(("create", spec.name))
        return handle

    def destroy(self, handle: MockEndpoint) -> None:
        if handle.destroyed:
            return
        if handle.name in self.fail_destroy:
            raise RuntimeError(f"injected destroy failure for {handle.name!r}")
        handle.destroyed = True
        self.journal.append(("destroy", handle.name))

    def exec(self, handle: MockEndpoint, command: str) -> CommandResult:
        if handle.destroyed:
            raise EndpointGone(handle.name)
        started = self.clock
        match = _SLEEP_RE.match(command)
        if match:
            self.clock += int(match.group(1))
        self.journal.append(("exec", handle.name, command))
        for pattern, body in self.responses:
            if pattern.search(command):
                return CommandResult(
                    exit_code=int(body.get("exit", 0)),
                    stdout=str(body.get("stdout", "")).encode(),
                    stderr=str(body.get("stderr", "")).encode(),
                    started_at=started,
                    ended_at=self.clock,
                )
        return CommandResult(exit_code=0, started_at=started, ended_at=self.clock)

    def apply_plan(self, plan: ConnectivityPlan) -> None:
        self.journal.append(("apply_plan",))


class Deployment:
    """Live scenario state: backend handles and per-endpoint states."""

    def __init__(self, scenario, assignment, plan, backend):
        self.scenario = scenario
        self.assignment = assignment
        self.plan = plan
        self.backend = backend
        self.states: dict[str, str] = {}
        self.handles: dict = {}

    def exec(self, endpoint: str, command: str) -> CommandResult:
        if endpoint not in self.states:
            raise UnknownEndpoint(endpoint)
        if self.states[endpoint] != "running":
            raise EndpointNotRunning(endpoint)
        return self.backend.exec(self.handles[endpoint], command)

    def down(self) -> list[str]:
        """Destroy every endpoint not yet stopped, newest first; return the
        names still live.  An endpoint whose destroy fails stays in state
        ``destroy-failed``, and a later ``down()`` retries it."""
        live = []
        for name in reversed(self.handles):
            if self.states[name] == "stopped":
                continue
            try:
                self.backend.destroy(self.handles[name])
            except Exception:
                self.states[name] = "destroy-failed"
                live.append(name)
                continue
            self.states[name] = "stopped"
        return live

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """``down()``; a leak raises ``TeardownLeak`` unless the block raised."""
        live = self.down()
        if live and exc_type is None:
            raise TeardownLeak(live)


def up(scenario: Scenario, backend: Backend, registry: Optional[toolreg.RegistryIndex] = None) -> Deployment:
    """Bring a scenario up; all-or-nothing, tearing down on any failure.

    With a registry, every container's module stack is resolved up front;
    unresolvable modules fail before anything is created.  Without one,
    specs are handed to the backend uncomposed.
    """
    diagnostics = validate(scenario)
    if has_errors(diagnostics):
        raise DeploymentFailure(None, f"scenario invalid: {diagnostics[0]}")

    images: dict[str, object] = {}
    if registry is not None:
        try:
            for container in scenario.containers:
                images[container.name] = toolreg.resolve(container, registry)
        except toolreg.UnknownModule as exc:
            raise DeploymentFailure(None, exc) from exc

    assignment = allocate_addresses(scenario)
    plan = build_connectivity_plan(scenario, assignment)
    deployment = Deployment(scenario, assignment, plan, backend)

    specs = endpoint_specs(scenario)

    try:
        for name, kind in endpoints(scenario):
            spec = specs[name]
            image = images.get(name) if kind == "container" else spec.path
            handle = backend.create_endpoint(spec, image, dict(assignment.addresses_of(name)))
            deployment.handles[name] = handle
            deployment.states[name] = "created"
        backend.apply_plan(plan)
        for name in deployment.handles:
            deployment.states[name] = "running"
    except Exception as exc:
        failed = next((n for n, _ in endpoints(scenario) if n not in deployment.states), None)
        raise DeploymentFailure(failed, exc, deployment.down()) from exc
    return deployment

