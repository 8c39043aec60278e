"""Shared fixtures: the two bundled scenarios and their simulated traces.

Traces are expensive enough (a few hundred ms each) that everything is
session-scoped; tests must treat them as read-only.
"""

import dataclasses
import json
import time
from importlib import resources

import pytest

from covacc import load_scenario, run

from reference import blind


def _bundled(name):
    text = resources.files("covacc").joinpath(f"scenarios/{name}.json").read_text()
    return json.loads(text)


@pytest.fixture(scope="session", autouse=True)
def session_clock():
    return time.monotonic()


_SUITE_START = time.monotonic()


def pytest_terminal_summary(terminalreporter):
    # the suite carries a 30 second budget; make the total visible even
    # when per-test prints are captured
    elapsed = time.monotonic() - _SUITE_START
    terminalreporter.write_line(f"suite wall time {elapsed:.1f}s (budget 30s)")


@pytest.fixture(scope="session")
def fullrank_config():
    with pytest.warns(RuntimeWarning, match="one-way|reverse"):
        return load_scenario(_bundled("five_node_fullrank"))


@pytest.fixture(scope="session")
def lowrank_config():
    with pytest.warns(RuntimeWarning, match="one-way|reverse"):
        return load_scenario(_bundled("five_node_lowrank"))


@pytest.fixture(scope="session")
def fullrank_trace(fullrank_config):
    return run(fullrank_config)


@pytest.fixture(scope="session")
def lowrank_trace(lowrank_config):
    return run(lowrank_config)


@pytest.fixture(scope="session")
def fullrank_blind_trace(fullrank_config):
    """Attacked run with detection disabled: estimates stay nominal."""
    return run(blind(fullrank_config))


@pytest.fixture(scope="session")
def attack_free_trace(fullrank_config):
    cfg = dataclasses.replace(fullrank_config, attack=None)
    return run(cfg)


@pytest.fixture(scope="session")
def attack_free_lowrank_trace(lowrank_config):
    cfg = dataclasses.replace(lowrank_config, attack=None)
    return run(cfg)


@pytest.fixture(scope="session")
def attack_free_long_trace(fullrank_config):
    cfg = dataclasses.replace(fullrank_config, attack=None, horizon=500)
    return run(cfg)
