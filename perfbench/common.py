"""Shared pieces of the benchmark: statistics, spans, checks and output.

Nothing here imports the program under test; the workload modules do,
after :func:`import_program` has put the checkout's ``src`` directory on
the import path.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: How many times a workload repeats its set-up; ``setup_s`` is the
#: median, so one slow set-up cannot move the metric. (solve_1m, whose
#: set-up builds a 10^6-node instance, repeats it fewer times.)
SETUP_REPEATS = 5


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources.

    Raises ``SystemExit`` with a message when the sources are missing,
    so the benchmark fails without printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Statistics


def median(values: list[float]) -> float:
    """Median, or 0.0 for no samples (a layer the workload never called)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank


def stratified_median(values: list[float], strata: list[Any]) -> float:
    """Mean over strata of each stratum's median.

    When operation cost depends mostly on the operation's kind, the plain
    median of all operations falls between the kinds' clusters and jumps
    with small shifts; the median within each kind does not.
    """
    groups: dict[Any, list[float]] = {}
    for value, stratum in zip(values, strata):
        groups.setdefault(stratum, []).append(value)
    return statistics.fmean(median(group) for group in groups.values())


def ms(seconds: list[float]) -> "Metric":
    """Median of durations in seconds, as a metric in milliseconds."""
    return Metric(median(seconds) * 1e3, "ms", len(seconds))


def us(seconds: list[float]) -> "Metric":
    """Median of durations in seconds, as a metric in microseconds."""
    return Metric(median(seconds) * 1e6, "us", len(seconds))


def ratio(hits: int, misses: int) -> "Metric":
    """Hit ratio with its base (hits plus misses) as the sample count."""
    base = hits + misses
    return Metric(hits / base if base else 0.0, "ratio", base)


# ----------------------------------------------------------------------
# Process facts


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU time a process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def l3_cache_bytes() -> int | None:
    """Size of the last-level cache from sysfs, or None when unknown."""
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def shm_segments() -> int:
    """Entries in ``/dev/shm`` (shared-memory segments alive right now)."""
    try:
        return len(os.listdir("/dev/shm"))
    except OSError:
        return 0


def base_params(seed: int) -> dict[str, Any]:
    """The parameters every run records, whatever the workload."""
    import numpy

    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


#: Prefix of every helper process's code: the kernel kills the helper when
#: the benchmark dies, even by SIGKILL, so no helper outlives its run.
#: ``sys.argv[1]`` is the benchmark's pid; a helper whose parent is
#: already gone exits at once.
DIE_WITH_PARENT = """
import ctypes, os, signal, sys
ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
if os.getppid() != int(sys.argv[1]):
    sys.exit(1)
"""


def adopt_orphans() -> None:
    """Become the parent of every orphan among this process's descendants.

    A process that outlives the one that started it (multiprocessing's
    resource tracker does, by design) is then re-parented to the
    benchmark instead of to init, so :func:`end_children` can stop it.
    """
    ctypes.CDLL(None, use_errno=True).prctl(36, 1)  # PR_SET_CHILD_SUBREAPER


def live_children() -> list[int]:
    """Processes whose parent is this one and that have not exited yet."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            state, ppid = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if int(ppid) == me and state != "Z":
            pids.append(int(entry))
    return pids


def end_children(grace_s: float = 5.0) -> list[int]:
    """Wait until every process under the benchmark has ended, killing
    those still running after ``grace_s``; returns the pids killed.

    The resource tracker that multiprocessing starts for shared memory
    and for spawned pools exits only after the process that started it,
    so ours is stopped here, the way multiprocessing's own tests stop it;
    one a helper started ends by itself once that helper has gone.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace_s
    while (running := live_children()) and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in running:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return running


def helper_command(code: str, *args: str) -> list[str]:
    """The command line of a helper process that dies with the benchmark."""
    return [sys.executable, "-c", DIE_WITH_PARENT + code, str(os.getpid()), *args]


_SPIN = """
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
os.sched_setaffinity(0, {int(sys.argv[2])})
while True:
    pass
"""


@contextmanager
def cpus_kept_awake() -> Iterator[None]:
    """Keep every CPU busy with ``SCHED_IDLE`` spinners while the block runs.

    On a virtual machine an idle vCPU halts, and waking it for the next
    loopback message then waits on the hypervisor; that wait varies
    between runs by more than the work being measured. A spinner at
    idle priority runs only when nothing else wants its CPU, so the
    measured processes keep the CPUs they would have had while wake-ups
    stay inside the guest.
    """
    spinners = [
        subprocess.Popen(helper_command(_SPIN, str(cpu)))
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


# ----------------------------------------------------------------------
# Host speed: factoring drift of a shared machine out of the gated timings


#: Host-speed kernel for interpreter-bound work: dict lookups and float
#: arithmetic.
INTERPRETER_KERNEL = """
def kernel():
    table, total = {}, 0.0
    for i in range(60_000):
        key = i % 997
        table[key] = table.get(key, 0.0) + i * 0.5
        total += key / (i + 1)
"""

#: Host-speed kernel for memory-bound numpy work: a random gather from a
#: 32 MiB array, a segmented sum and a stable argsort, the operations the
#: columnar engine spends its time in. The arrays live in the helper, so
#: they add nothing to the benchmark's own peak RSS.
NUMPY_KERNEL = """
import numpy as np

_rng = np.random.default_rng(0)
_values = _rng.random(4_000_000)
_picks = _rng.integers(0, len(_values), 2_000_000)
_starts = np.arange(0, len(_picks), 3)

def kernel():
    gathered = _values[_picks]
    np.add.reduceat(gathered, _starts)
    np.argsort(gathered[:500_000], kind="stable")
"""

#: The helper's loop, after the kernel's code: it reads a CPU number per
#: line, runs the kernel once on that CPU with the collector off and
#: prints its wall time.
_KERNEL_LOOP = """
import gc, time

gc.disable()
for line in sys.stdin:
    os.sched_setaffinity(0, {int(line)})
    start = time.perf_counter()
    kernel()
    print(time.perf_counter() - start, flush=True)
"""


class HostSpeed:
    """How fast the host's CPUs run a fixed kernel of the benchmark's own.

    On a shared virtual machine the same work takes up to twice as long
    from one minute to the next, which no amount of work per run
    averages away. A workload picks the kernel whose work is like its
    own (:data:`INTERPRETER_KERNEL` or :data:`NUMPY_KERNEL`) and calls
    :meth:`sample` between its operations, while the program is idle,
    so the kernel never competes with the program for a CPU; it runs
    once on every CPU the program may use. Gated timings are reported
    at the host speed where the kernel takes ``nominal_s``
    (:meth:`each_at_reference_speed`), and the raw figures are printed
    beside them.

    The kernel runs in a helper process, started here and stopped when
    the ``with`` block that holds the object ends.
    """

    def __init__(self, kernel: str = INTERPRETER_KERNEL, nominal_s: float = 0.02) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self._helper = subprocess.Popen(
            helper_command(kernel + _KERNEL_LOOP),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def sample(self) -> float:
        """Run the kernel once on every CPU; returns the median of these runs."""
        taken = []
        for cpu in self.cpus:
            self._helper.stdin.write(f"{cpu}\n")
            self._helper.stdin.flush()
            taken.append(float(self._helper.stdout.readline()))
        self.samples.extend(taken)
        return median(taken)

    def each_at_reference_speed(
        self, durations: list[float], kernel_at: list[float]
    ) -> list[float]:
        """Each duration at the reference host speed.

        ``kernel_at[i]`` and ``kernel_at[i + 1]`` are the :meth:`sample`
        results taken just before and just after operation ``i``; the
        host's speed moves within a run, so each operation is scaled by
        its own samples rather than by the run's median.
        """
        return [
            duration * 2.0 * self.nominal_s / (before + after)
            for duration, before, after in zip(durations, kernel_at, kernel_at[1:])
        ]


# ----------------------------------------------------------------------
# Spans: timing calls into the program from outside


class Spans:
    """Durations of calls into the program, grouped by span name.

    :meth:`timed` times a block the benchmark runs itself; :meth:`wrapping`
    replaces a module or class attribute with a timing wrapper for the
    length of a ``with`` block, so calls the program makes internally
    are timed too.
    """

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = {}

    def add(self, name: str, seconds: float) -> None:
        self.durations.setdefault(name, []).append(seconds)

    def get(self, name: str) -> list[float]:
        return self.durations.get(name, [])

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    @contextmanager
    def wrapping(self, owner: Any, attr: str, name: str) -> Iterator[None]:
        """Time every call of ``owner.attr`` under ``name`` inside the block."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        target = original.__func__ if is_classmethod else original

        def timed_call(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)

        setattr(owner, attr, classmethod(timed_call) if is_classmethod else timed_call)
        try:
            yield
        finally:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Checks and results


@dataclass
class Checks:
    """Output checks: operations attempted, and those whose output was wrong."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """Count one checked operation; it fails when it has any problem."""
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """Everything one run reports.

    ``metrics`` holds the gated metrics of the run's mode (end-to-end,
    or per-layer for a traced run); ``details`` holds the workload's own
    named measurements, printed beside them for people to read.
    """

    metrics: dict[str, Metric]
    details: dict[str, Metric]
    params: dict[str, Any]
    checks: Checks
    notes: dict[str, str] = field(default_factory=dict)


def emit(outcome: Outcome, out=sys.stdout) -> None:
    """Print the readable report, then the one-line JSON result last."""
    for title, table in (("metric", outcome.metrics), ("detail", outcome.details)):
        for name, metric in table.items():
            print(
                f"{title} {name} = {metric.value:.6g} {metric.unit} "
                f"(samples={metric.samples})",
                file=out,
            )
    for failure in outcome.checks.failures[:20]:
        print(f"check failed: {failure}", file=out)
    params = dict(outcome.params)
    params["samples"] = {
        name: metric.samples
        for name, metric in {**outcome.metrics, **outcome.details}.items()
    }
    if outcome.notes:
        params["notes"] = outcome.notes
    print("params " + json.dumps(params, sort_keys=True), file=out)
    result = {
        "correct": outcome.checks.failed == 0,
        "attempted": max(1, outcome.checks.attempted),
        "failed": outcome.checks.failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in outcome.metrics.items()
        },
    }
    print(json.dumps(result), file=out)
    out.flush()
