"""Versioned benchmark trajectory files: the one benchmark record format.

A ``BENCH_<name>.json`` file is a *trajectory point*: one snapshot of a
named measurement's outputs at one package version. The file is
deliberately deterministic for a given set of inputs — no timestamps,
sorted keys — so committing one per release (or per PR, in CI) yields a
diffable history, and :mod:`repro.obs.compare` can diff any two of them
under regression thresholds.

Every verb that measures writes one through :func:`write_bench`:
``repro bench --suite micro|scale``, ``repro loadtest -o``, ``repro
chaos -o`` and ``repro chaos-serve -o``, and ``repro experiment ID|all
-o DIR``, which writes ``DIR/<ID>.json`` next to each rendered table
(:func:`repro.analysis.experiments.save_result`; the quick records are
committed in ``benchmarks/_artifacts/``).

Document shape::

    {"type": "bench", "schema": 1, "name": ..., "version": ...,
     "records": {<record id>: {"wall_seconds": ..., "metrics": {...},
                               "params": {...}}, ...}}

An experiment record has no ``wall_seconds`` and adds ``"claims":
{<name>: {"value": ..., "bound": ..., "better": "lower"|"higher"}}``,
which :mod:`repro.obs.compare` gates with no threshold.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

__all__ = ["write_bench", "bench_path_for"]

BENCH_SCHEMA = 1


def bench_path_for(name: str, directory: str | Path) -> Path:
    """Canonical path of the ``BENCH_<name>.json`` file in a directory."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
    return Path(directory) / f"BENCH_{safe}.json"


def write_bench(
    name: str,
    records: Mapping[str, Mapping[str, Any]],
    out: str | Path,
) -> Path:
    """Write one ``BENCH_<name>.json`` trajectory point.

    ``out`` may be a directory (the canonical filename is used) or an
    explicit file path. Output is deterministic: sorted keys, no
    timestamps — rerunning on the same inputs writes the same bytes.
    """
    from repro import __version__

    target = Path(out)
    if target.is_dir() or not target.suffix:
        target = bench_path_for(name, target)
    document = {
        "type": "bench",
        "schema": BENCH_SCHEMA,
        "name": name,
        "version": __version__,
        "records": {key: dict(value) for key, value in sorted(records.items())},
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target
