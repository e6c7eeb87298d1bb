import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from alurity.model import Scenario
from alurity.parser import parse_flow, parse_scenario
from alurity.toolreg import load_registry_index

from stub_tracker import StubTracker
from yaml_classes import pure_python_classes

FIXTURES = Path(__file__).parent / "fixtures"

# Filled in by the acceptance suite's budget guard; echoed after the run so
# the per-criterion verdicts survive output capturing.
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def listing1_text() -> str:
    return (FIXTURES / "listing1.yaml").read_text()


@pytest.fixture(scope="session")
def listing2_text() -> str:
    return (FIXTURES / "listing2.yaml").read_text()


@pytest.fixture(scope="session")
def listing3_text() -> str:
    return (FIXTURES / "listing3.yaml").read_text()


@pytest.fixture
def listing1(listing1_text) -> Scenario:
    return parse_scenario(listing1_text)


@pytest.fixture
def listing2(listing2_text) -> Scenario:
    return parse_scenario(listing2_text)


@pytest.fixture
def listing3(listing3_text):
    return parse_flow(listing3_text)


@pytest.fixture
def merged12(listing1, listing2) -> Scenario:
    return replace(listing1, vms=listing2.vms)


@pytest.fixture
def pure_python_yaml():
    """The YAML layer on PyYAML's pure-Python classes."""
    with pure_python_classes():
        yield


@pytest.fixture
def registry():
    return load_registry_index(str(FIXTURES / "registry_index.yaml"))


@pytest.fixture
def tracker():
    stub = StubTracker()
    url = stub.start()
    yield stub, url
    stub.stop()
