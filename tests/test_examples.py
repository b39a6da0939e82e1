"""Smoke tests: every example script must run to completion.

Examples are user-facing documentation; a release in which an example
crashes is broken no matter how green the unit tests are. Each test runs
an example's ``main()`` in-process (reduced output checked for its key
headline) — slow ones are trimmed via monkeypatching their sweep ranges
where the module exposes them.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path():
    sys.path.insert(0, str(EXAMPLES_DIR))
    yield
    sys.path.remove(str(EXAMPLES_DIR))


def _run_example(name: str, capsys) -> str:
    module = importlib.import_module(name)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run_example("quickstart", capsys)
    assert "distributed trade-off" in out
    assert "LP lower bound" in out


def test_sensor_network(capsys):
    out = _run_example("sensor_network", capsys)
    assert "aggregation-hub placement plans" in out
    assert "jain-vazirani" in out


def test_content_caching(capsys):
    out = _run_example("content_caching", capsys)
    assert "cache deployment" in out
    assert "paper_envelope" in out


def test_fault_injection(capsys):
    out = _run_example("fault_injection", capsys)
    assert "message loss vs protocol completeness" in out
    assert "crash demo" in out


def test_tradeoff_explorer(capsys, monkeypatch):
    import tradeoff_explorer

    # Trim the sweep so the smoke test stays fast.
    monkeypatch.setattr(tradeoff_explorer, "K_VALUES", (1, 4))
    monkeypatch.setattr(tradeoff_explorer, "SEEDS", (0,))
    monkeypatch.setattr(tradeoff_explorer, "FAMILIES", ("uniform",))
    tradeoff_explorer.main()
    out = capsys.readouterr().out
    assert "family=uniform" in out
    assert "rounds needed for a target" in out


def test_tracing(capsys):
    out = _run_example("tracing", capsys)
    assert "one span tree, client to simulator round" in out
    assert "client.session" in out
    assert "worker.solve" in out
    assert "critical path" in out
    assert "availability" in out  # the SLO table rendered
    assert "wrote chrome trace" in out


def test_serving(capsys):
    out = _run_example("serving", capsys)
    assert "mixed batch through the solve service" in out
    # Two duplicate requests in the workload -> two dedup hits, and the
    # table marks the duplicates themselves.
    assert "dedup_hits = 2.000" in out
    assert "hit" in out
    assert "cache_hits_instance = 2.000" in out
