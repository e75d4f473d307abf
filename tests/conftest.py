"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# A single moderate profile: the property tests run vectorized NumPy per
# example, so a smaller example count keeps the suite fast while still
# exploring the space well.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def gated_dispatch(monkeypatch):
    """Hold the sort service's dispatcher inside its world jobs until the
    test opens the gate, so queueing behind a busy dispatcher is forced
    whatever the host speed.  ``started`` is set once a job has reached a
    world; ``release`` lets every held and later job run.  In-process
    events: threads-backend requests only.  The gate opens at teardown
    so a failing test never wedges the service's close."""
    import repro.service.service as service_mod

    gate = SimpleNamespace(started=threading.Event(), release=threading.Event())
    job = service_mod.sort_shards_job

    def gated_job(comm, *args):
        gate.started.set()
        gate.release.wait(60)
        return job(comm, *args)

    monkeypatch.setattr(service_mod, "sort_shards_job", gated_job)
    yield gate
    gate.release.set()


def pytest_addoption(parser):
    parser.addoption(
        "--full-sizes",
        action="store_true",
        default=False,
        help="run size-sweep tests at the paper's full problem sizes",
    )
