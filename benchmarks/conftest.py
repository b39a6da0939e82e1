"""Shared benchmark infrastructure.

Each ``bench_e*.py`` file regenerates one experiment of the index in
DESIGN.md: it runs the experiment (quick configuration by default — set
``REPRO_BENCH_FULL=1`` for the full EXPERIMENTS.md configuration), asserts
the reproduced claim, writes the rendered table to
``benchmarks/_artifacts/<ID>.txt`` plus a BENCH file ``<ID>.json`` (one
record keyed by the experiment id: params, per-column metric summary,
wall-clock; ``repro compare old_dir/ new_dir/`` pairs them by filename),
and times a representative core operation through pytest-benchmark.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

import pytest

if TYPE_CHECKING:
    from repro.analysis.experiments import ExperimentResult

ARTIFACT_DIR = Path(__file__).parent / "_artifacts"


def is_full_run() -> bool:
    """Whether the full (EXPERIMENTS.md-sized) configuration is requested."""
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    ARTIFACT_DIR.mkdir(exist_ok=True)
    return ARTIFACT_DIR


@pytest.fixture(scope="session")
def quick() -> bool:
    return not is_full_run()


def save_table(artifact_dir: Path, experiment_id: str, table: str) -> None:
    """Persist a rendered experiment table as a benchmark artifact."""
    (artifact_dir / f"{experiment_id}.txt").write_text(table + "\n")


def save_result(artifact_dir: Path, result: "ExperimentResult") -> None:
    """Persist both faces of an experiment: the table and the BENCH file.

    The ``.txt`` is for humans and EXPERIMENTS.md diffs; the ``.json`` is
    the BENCH file ``repro compare`` diffs across versions.
    """
    from repro.obs.bench import write_bench

    save_table(artifact_dir, result.experiment_id, result.table)
    write_bench(
        result.experiment_id,
        {result.experiment_id: result.to_record()},
        artifact_dir / f"{result.experiment_id}.json",
    )
