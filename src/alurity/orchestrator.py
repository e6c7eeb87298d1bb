"""Deployment lifecycle against a pluggable backend.

A backend owns endpoint creation/destruction and command execution; the
orchestrator owns ordering (create everything, then apply the connectivity
plan) and the all-or-nothing guarantee on failure.  The mock backend
is fully deterministic: scripted responses, a logical clock for ``sleep``,
and a journal of every create, apply and destroy.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Protocol

from . import toolreg
from .model import Scenario, first_error, validate  # noqa: F401  validate: read by nothing here, a site bench/spans.py traces
from .netplan import ConnectivityPlan, UnknownEndpoint, allocate_addresses, build_connectivity_plan
from .parser import ParseFailure, compile_regex, load_yaml_map, map_or_empty, text_field


class EndpointNotRunning(Exception):
    pass


class EndpointGone(Exception):
    pass


def _left_live(live: dict[str, str]) -> str:
    """``live`` maps each endpoint left live to why its destroy failed, as
    ``Deployment.destroy_errors`` does."""
    named = ", ".join(f"{name} ({error})" for name, error in live.items())
    return f"left {len(live)} endpoint(s) live: {named}"


class DeploymentFailure(Exception):
    """A failed bring-up; ``endpoint`` is the one whose creation failed, else None, and ``live`` names what its rollback left live."""

    def __init__(self, endpoint: Optional[str], cause, live: Optional[dict[str, str]] = None):
        self.endpoint = endpoint
        self.live = list(live or ())
        message = f"deployment failed at endpoint {endpoint!r}: {cause}" if endpoint is not None else f"deployment failed: {cause}"
        if live:
            message += f"; rollback {_left_live(live)}"
        super().__init__(message)


class TeardownLeak(Exception):
    def __init__(self, live: dict[str, str]):
        self.live = list(live)
        super().__init__(f"teardown {_left_live(live)}")


class CommandResult(NamedTuple):
    """What one command did: an immutable tuple, so a changed copy comes
    from ``_replace``, not ``dataclasses.replace``."""

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


@functools.lru_cache(maxsize=16)
def _first_match(patterns: tuple):
    """A function from a command to its ``sleep`` ticks and the index of the
    first of ``patterns`` whose ``search`` matches it, or ``None``: patterns
    compiled once, 4,096 answers kept for every backend with these patterns."""
    compiled = tuple(enumerate(map(re.compile, patterns)))

    @functools.lru_cache(maxsize=4096)
    def first(command: str) -> tuple[int, Optional[int]]:
        sleep = _SLEEP_RE.match(command)
        ticks = int(sleep.group(1)) if sleep else 0
        for index, pattern in compiled:
            if pattern.search(command):
                return ticks, index
        return ticks, None

    return first


@dataclass
class MockEndpoint:
    name: str
    destroyed: bool = False


class MockBackend:
    """Deterministic in-memory backend.

    ``responses`` is an ordered list of (regex, CommandResult-ish dict);
    the first matching pattern wins, anything else exits 0 with no output.
    ``sleep N`` advances a logical clock instead of waiting.  A command is
    matched once per process against each distinct list of patterns (a
    bounded memo, ``_first_match``); each backend builds its answer to a
    response once, from its own body.
    """

    def __init__(self, responses=None):
        responses = list(responses or ())
        self._first = _first_match(tuple(map(operator.itemgetter(0), responses)))
        self._bodies = tuple(map(operator.itemgetter(1), responses))  # IndexError for a bodiless response
        self._answers: dict = {}  # response index or None -> (exit, stdout, stderr)
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
            body = map_or_empty(body, f"the response to {pattern!r}")
            code = body.get("exit", 0)
            if type(code) is not int:
                raise ParseFailure(f"the exit of {pattern!r} must be an integer, got {code!r}")
            responses.append((pattern, body))
        return cls(responses=responses)

    def create_endpoint(self, spec, image, addresses) -> MockEndpoint:
        if spec.name in self.endpoints and not self.endpoints[spec.name].destroyed:
            raise RuntimeError(f"an endpoint named {spec.name!r} is already live")
        handle = MockEndpoint(name=spec.name)
        self.endpoints[spec.name] = handle
        self.journal.append(("create", spec.name))
        return handle

    def destroy(self, handle: MockEndpoint) -> None:
        if handle.destroyed:
            return
        handle.destroyed = True
        self.journal.append(("destroy", handle.name))

    def exec(self, handle: MockEndpoint, command: str) -> CommandResult:
        if handle.destroyed:
            raise EndpointGone(handle.name)
        ticks, index = self._first(command)
        if (answer := self._answers.get(index)) is None:
            body = {} if index is None else self._bodies[index]
            answer = self._answers[index] = (
                int(body.get("exit", 0)), text_field(body, "stdout").encode(), text_field(body, "stderr").encode()
            )
        self.clock += ticks
        # tuple.__new__ builds the NamedTuple without a Python call to its generated __new__
        return tuple.__new__(CommandResult, (*answer, self.clock - ticks, self.clock))

    def apply_plan(self, plan: ConnectivityPlan) -> None:
        self.journal.append(("apply_plan",))


class Deployment:
    """Live scenario state: the address assignment, the backend, its handles
    and per-endpoint states."""

    def __init__(self, assignment, backend):
        self.assignment = assignment
        self.backend = backend
        self.states: dict[str, str] = {}
        self.handles: dict = {}
        self.destroy_errors: dict[str, str] = {}

    def exec(self, endpoint: str, command: str) -> CommandResult:
        if endpoint not in self.states:
            raise UnknownEndpoint(endpoint)
        if self.states[endpoint] != "running":
            raise EndpointNotRunning(endpoint)
        return self.backend.exec(self.handles[endpoint], command)

    def down(self) -> list[str]:
        """Destroy every endpoint not yet stopped, newest first; return the
        names still live.  An endpoint whose destroy fails stays in state
        ``destroy-failed``, and a later ``down()`` retries it.
        ``destroy_errors`` maps each name returned to its destroy's error."""
        self.destroy_errors = {}
        for name in reversed(self.handles):
            if self.states[name] == "stopped":
                continue
            try:
                self.backend.destroy(self.handles[name])
            except Exception as exc:
                self.states[name] = "destroy-failed"
                self.destroy_errors[name] = str(exc) or type(exc).__name__
                continue
            self.states[name] = "stopped"
        return list(self.destroy_errors)

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """``down()``; a leak raises ``TeardownLeak`` unless the block raised."""
        if self.down() and exc_type is None:
            raise TeardownLeak(self.destroy_errors)


def up(scenario: Scenario, backend: Backend, registry: Optional[toolreg.RegistryIndex] = None) -> Deployment:
    """Bring a scenario up; all-or-nothing, tearing down on any failure.

    With a registry, every container's module stack is resolved up front;
    unresolvable modules fail before anything is created.  Without one,
    specs are handed to the backend uncomposed.  What was derived from ``scenario`` is reused.
    """
    if (error := first_error(scenario)) is not None:
        raise DeploymentFailure(None, f"scenario invalid: {error}")

    images: dict[str, object] = {vm.name: vm.path for vm in scenario.vms}  # endpoint name -> a VM's path or a composed image
    if registry is not None:
        try:
            for container in scenario.containers:
                images[container.name] = toolreg.resolve(container, registry)
        except toolreg.UnknownModule as exc:
            raise DeploymentFailure(None, exc) from exc

    assignment = allocate_addresses(scenario)
    plan = build_connectivity_plan(scenario, assignment)
    deployment = Deployment(assignment, backend)

    name = None  # the endpoint being created, to blame if that fails
    try:
        for spec in (*scenario.containers, *scenario.vms):  # a valid scenario names each endpoint once
            name = spec.name
            deployment.handles[name] = backend.create_endpoint(spec, images.get(name), dict(assignment._by_endpoint.get(name, ())))
            deployment.states[name] = "running"  # at once: a failed up hands back no Deployment
        name = None
        backend.apply_plan(plan)
    except Exception as exc:
        deployment.down()
        raise DeploymentFailure(name, exc, deployment.destroy_errors) from exc
    return deployment

