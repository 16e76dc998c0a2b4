"""Shared fixtures: every obs test starts with a clean, disabled state."""

import pytest

from repro.obs import sink
from repro.obs.metrics import METRICS


@pytest.fixture(autouse=True)
def clean_obs_state(monkeypatch):
    """Isolate the obs sink, metrics globals and the REPRO_* env between tests."""
    for name in (
        "REPRO_TRACE",
        "REPRO_TRACE_SAMPLE",
        "REPRO_TELEM",
        "REPRO_TELEM_INTERVAL",
        "REPRO_PROFILE",
        "REPRO_WORKERS",
    ):
        monkeypatch.delenv(name, raising=False)
    sink.reset()
    METRICS.reset()
    yield
    sink.reset()
    METRICS.reset()
