"""Deterministic process-pool fan-out for sweep grids.

Every experiment sweep and chaos grid in the repo reduces to mapping a
pure function over a list of independent *cells* — one (instance, k,
seed, fault) configuration each. :class:`SweepExecutor` parallelizes
exactly that shape while keeping the serial semantics:

* **Ordered merge.** Results come back in cell order (via
  ``concurrent.futures.Executor.map``), so the merged output is
  byte-identical to running the cells serially — parallelism is purely a
  wall-clock optimization, never a semantics change. Every cell carries
  its own seeds; nothing about the decomposition perturbs any random
  stream.
* **Spawn-safe payloads.** Worker functions must be module-level (their
  qualified name is how child interpreters import them) and cells must
  pickle; both are validated eagerly with a clear error instead of the
  pool's opaque pickling traceback, so the executor also works on
  platforms whose default start method is ``spawn``.
* **In-process fallback.** ``workers=1`` (the default) runs cells in a
  plain loop with no pool, no pickling and no subprocess — the executor
  can be threaded through every sweep helper unconditionally.

The per-cell work here is milliseconds to seconds of pure Python/numpy,
so process fan-out beats threads (the GIL) despite the fork cost; the
pool is bounded by the cell count to avoid spawning idle workers.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ReproError
from repro.flags import flag

__all__ = ["SweepExecutor"]


@dataclass(frozen=True)
class SweepExecutor:
    """Maps a worker function over sweep cells, serially or in a pool.

    Parameters
    ----------
    workers:
        Process count. ``1`` runs in-process (no pool); higher values
        fan out over a ``ProcessPoolExecutor``.
    chunksize:
        Cells handed to a worker per dispatch. The default of 1 gives
        the best load balance for heterogeneous cells; raise it when
        cells are tiny and dispatch overhead dominates.
    """

    workers: int = flag(
        1, "--workers", help="worker processes for the sweep's cells; the "
        "output is identical whatever the value")
    chunksize: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers}")
        if self.chunksize < 1:
            raise ReproError(f"chunksize must be >= 1, got {self.chunksize}")

    def map_cells(
        self,
        worker: Callable[[Any], Any],
        cells: Iterable[Any],
    ) -> list[Any]:
        """Apply ``worker`` to every cell, returning results in cell order.

        The output is identical — element for element — whatever
        ``workers`` is; tests assert bit-identical records between
        ``workers=1`` and ``workers=4`` sweeps.
        """
        items: Sequence[Any] = list(cells)
        if self.workers == 1 or len(items) <= 1:
            return [worker(cell) for cell in items]
        _check_spawn_safe(worker, items)
        max_workers = min(self.workers, len(items))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(worker, items, chunksize=self.chunksize))


def _check_spawn_safe(worker: Callable[[Any], Any], items: Sequence[Any]) -> None:
    """Fail fast, with a actionable message, on un-shippable payloads."""
    qualname = getattr(worker, "__qualname__", "")
    if "<locals>" in qualname or not getattr(worker, "__module__", None):
        raise ReproError(
            f"worker {qualname or worker!r} is not spawn-safe: parallel "
            "sweeps require a module-level function (child interpreters "
            "import it by qualified name)"
        )
    try:
        pickle.dumps(items[0])
    except Exception as error:
        raise ReproError(
            f"sweep cell {type(items[0]).__name__} is not picklable and "
            f"cannot be shipped to worker processes: {error}"
        ) from error
