"""Deployment lifecycle against a pluggable backend.

A backend owns endpoint creation/destruction and command execution; the
orchestrator owns ordering (create everything, apply the connectivity plan,
mark running) and the all-or-nothing guarantee on failure.  The mock backend
is fully deterministic: scripted responses, a logical clock for ``sleep``,
and a journal the tests assert on.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Optional, Protocol

from . import toolreg
from .model import Scenario, endpoint_specs, endpoints, has_errors, validate
from .netplan import ConnectivityPlan, UnknownEndpoint, allocate_addresses, build_connectivity_plan
from .parser import ParseFailure, load_yaml_map


class EndpointNotRunning(Exception):
    pass


class EndpointGone(Exception):
    pass


class DeploymentFailure(Exception):
    def __init__(self, endpoint: Optional[str], cause, events):
        self.endpoint = endpoint
        self.cause = cause
        self.events = list(events)
        super().__init__(f"deployment failed at endpoint {endpoint!r}: {cause}")


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

    def exec(self, handle, command: str, env: Optional[dict] = None) -> CommandResult:
        ...

    def apply_plan(self, plan: ConnectivityPlan) -> None:
        ...


_SLEEP_RE = re.compile(r"^sleep\s+(\d+)\s*$")


@dataclass
class MockEndpoint:
    name: str
    journal: list = field(default_factory=list)
    destroyed: bool = False


class MockBackend:
    """Deterministic in-memory backend.

    ``responses`` is an ordered list of (regex, CommandResult-ish dict);
    the first matching pattern wins, anything else exits 0 with no output.
    ``sleep N`` advances a logical clock instead of waiting.
    """

    def __init__(self, responses=None, fail_create=(), fail_destroy=(), refuse_kinds=()):
        self.responses = [(re.compile(p), r) for p, r in (responses or [])]
        self.fail_create = set(fail_create)
        self.fail_destroy = set(fail_destroy)
        self.refuse_kinds = set(refuse_kinds)
        self.journal: list = []
        self.endpoints: dict[str, MockEndpoint] = {}
        self.clock = 0
        self._lock = threading.Lock()

    @classmethod
    def from_fixture(cls, path: str) -> "MockBackend":
        """A backend scripted by a YAML map of regex -> response map;
        ``ParseFailure`` for a key that is not a regex or a response that is
        not a map (an empty one is)."""
        responses = []
        for pattern, body in load_yaml_map(path).items():
            try:
                re.compile(pattern)
            except (TypeError, re.error) as exc:
                raise ParseFailure(f"{pattern!r} is not a regex: {exc}") from exc
            if body is None:
                body = {}
            if not isinstance(body, dict):
                raise ParseFailure(f"the response to {pattern!r} must be a map, got a {type(body).__name__}")
            responses.append((pattern, body))
        return cls(responses=responses)

    def create_endpoint(self, spec, image, addresses) -> MockEndpoint:
        with self._lock:
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
        with self._lock:
            if handle.destroyed:
                return
            if handle.name in self.fail_destroy:
                raise RuntimeError(f"injected destroy failure for {handle.name!r}")
            handle.destroyed = True
            self.journal.append(("destroy", handle.name))

    def exec(self, handle: MockEndpoint, command: str, env: Optional[dict] = None) -> CommandResult:
        with self._lock:
            if handle.destroyed:
                raise EndpointGone(handle.name)
            started = self.clock
            match = _SLEEP_RE.match(command)
            if match:
                self.clock += int(match.group(1))
            handle.journal.append(command)
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
        with self._lock:
            self.journal.append(("apply_plan",))


class Deployment:
    """Live scenario state: handles, per-endpoint states, append-only events."""

    def __init__(self, scenario, assignment, plan, backend):
        self.scenario = scenario
        self.assignment = assignment
        self.plan = plan
        self.backend = backend
        self.states: dict[str, str] = {}
        self.handles: dict = {}
        self.events: list = []
        self.created_order: list[str] = []
        self._lock = threading.Lock()

    def log(self, *event) -> None:
        with self._lock:
            self.events.append(tuple(event))

    def exec(self, endpoint: str, command: str, env: Optional[dict] = None) -> CommandResult:
        if endpoint not in self.states:
            raise UnknownEndpoint(endpoint)
        if self.states[endpoint] != "running":
            raise EndpointNotRunning(endpoint)
        result = self.backend.exec(self.handles[endpoint], command, env)
        self.log("exec", endpoint, command)
        return result

    def down(self) -> None:
        for name in reversed(self.created_order):
            if self.states.get(name) in ("stopped", None):
                continue
            try:
                self.backend.destroy(self.handles[name])
                self.log("destroy", name)
            except Exception as exc:
                self.log("destroy-failed", name, str(exc))
            self.states[name] = "stopped"


def up(scenario: Scenario, backend: Backend, registry: Optional[toolreg.RegistryIndex] = None) -> Deployment:
    """Bring a scenario up; all-or-nothing, tearing down on any failure.

    With a registry, every container's module stack is resolved up front;
    unresolvable modules fail before anything is created.  Without one,
    specs are handed to the backend uncomposed.
    """
    diagnostics = validate(scenario)
    if has_errors(diagnostics):
        raise DeploymentFailure(None, f"scenario invalid: {diagnostics[0]}", [])

    images: dict[str, object] = {}
    if registry is not None:
        try:
            for container in scenario.containers:
                images[container.name] = toolreg.resolve(container, registry)
        except toolreg.UnknownModule as exc:
            raise DeploymentFailure(None, exc, []) from exc

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
            deployment.created_order.append(name)
            deployment.log("create", name)
        backend.apply_plan(plan)
        deployment.log("apply_plan")
        for name in deployment.created_order:
            deployment.states[name] = "running"
            deployment.log("run", name)
    except Exception as exc:
        failed = next((n for n, _ in endpoints(scenario) if n not in deployment.states), None)
        deployment.down()
        raise DeploymentFailure(failed, exc, deployment.events) from exc
    return deployment

