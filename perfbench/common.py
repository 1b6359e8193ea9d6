"""Shared pieces of the benchmark: results, percentiles, spans, memory
and the machine's speed.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import ctypes
import heapq
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Result:
    """What one workload run produced.

    ``end_to_end`` and ``per_layer`` hold the metrics named in
    ``BENCHMARK.json``; ``extra`` holds the issue's workload-specific
    end-to-end figures (``reject_share``, ``cost_ratio``, ...) that are
    printed for people but are not tracked, because they are zero or
    undefined on some workloads.
    """

    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        """Count *count* failed operations and keep the first reasons."""
        if count <= 0:
            return
        self.failed += count
        if len(self.checks) < 20:
            self.checks.append(why)

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def quantile(values, q: float) -> float:
    """The *q* quantile (0 < q < 1) by linear interpolation; nan if empty."""
    data = sorted(values)
    if not data:
        return math.nan
    if len(data) == 1:
        return float(data[0])
    pos = q * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    data = list(values)
    return statistics.median(data) if data else math.nan


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the denominator is 0 (layer not used)."""
    return num / den if den else 0.0


class Tracer:
    """In-memory spans recorded by the benchmark around layer calls.

    Each span is ``(span_id, name, start, end, parent_id)`` with
    ``perf_counter`` times; spans stay in memory until the run ends and
    are summarised by name.  The program's own spans are read from its
    trace output separately.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []
        self._next = 1

    def span(self, name: str):
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called *name*."""
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def mean_us(self, name: str) -> float:
        durs = self.durations(name)
        return 1e6 * sum(durs) / len(durs) if durs else 0.0


class _Span:
    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.span_id = tracer._next
        tracer._next += 1
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append(
            (self.span_id, self.name, self.start, end, self.parent)
        )
        return False


_PR_SET_PDEATHSIG = 1


def child_setup(cpu: int | None):
    """A ``preexec_fn`` for the benchmark's child processes: pin the
    child to *cpu* (unless None) and have the kernel send it SIGTERM if
    the benchmark dies first, so no child outlives a killed run."""

    def setup() -> None:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG,
                                                signal.SIGTERM)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    return setup


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the ppid follows its ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sets (VmHWM) of *pid* and its descendants."""
    return sum(_status_kb(p, "VmHWM") for p in _descendants(pid)) / 1024.0


# -- the machine's speed ------------------------------------------------------
#
# The benchmark was sized on 2 vCPUs of a shared host, and other
# tenants' load reaches a run in two ways.  The vCPUs run slower: a
# fixed pure-Python loop ran 1.3x slower in one ten-second stretch than
# in the next.  And the host does not run a vCPU at once when it has
# work: /proc/stat counted up to 31 % of a ``serve-repeat`` run's CPU
# time as stolen, and the throughput fell to about half.  No statistic
# over one run removes a drift longer than the run, so each workload
# reports its timings at nominal speed: a wall time is divided by the
# slowness k of ``reference_work`` timed alongside (a rate is
# multiplied).  Where the CPUs are busy throughout a stretch (a
# ``solve-batch`` pass, an interval of the closed loop), stolen time is
# taken out as well: the time is multiplied by ``running_share``, CPU
# time received over CPU time wanted, from /proc/stat.  The reference is
# benchmark code and steal is the host's, so a change to the program
# moves the reported figures and the host's load does not.  The raw
# figures, k (``host.slowness``) and the stolen share
# (``host.stolen_share``) are printed as well.

#: Seconds one ``reference_work()`` call takes at nominal speed: about
#: its median on the machine the benchmark was sized on (Xeon, KVM,
#: 2 vCPUs, CPython 3.11).  Any constant would do; it cancels when two
#: runs are compared.
REFERENCE_NOMINAL_S = 0.003
HERE = Path(__file__).resolve().parent


class _Node:
    __slots__ = ("level", "value", "items")

    def __init__(self, level: int, value: float, items: tuple) -> None:
        self.level, self.value, self.items = level, value, items


def reference_work() -> float:
    """Run a fixed interpreter-bound loop; return its seconds.

    Half of it is dict and float arithmetic, half small objects on a
    heap, as in the solvers' search loops.  Against one branch-and-bound
    instance timed alternately with it for 70 s on a busy host, the
    solve time over either half alone varied by 5-7 % (CV) where the
    raw solve time varied by 16 %.
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(4000):
        key = (i * 7919) % 257
        acc += key / (1 + (i & 15))
        table[key] = table.get(key, 0.0) + acc
    acc += sorted(table, key=table.__getitem__)[0]
    heap: list = []
    for i in range(1250):
        node = _Node(i % 13, (i * 7919) % 1009 / 7.0, (i, i + 1))
        heapq.heappush(heap, (node.value, i, node))
        if len(heap) > 64:
            value, _, node = heapq.heappop(heap)
            acc += value * node.level + len(node.items)
    return time.perf_counter() - t0


def slowness(reference_seconds) -> float:
    """How many times slower than nominal the machine ran, from
    ``reference_work`` timings (their median)."""
    return median(reference_seconds) / REFERENCE_NOMINAL_S


def cpu_ticks() -> tuple[int, int]:
    """(run, stolen) clock ticks of all CPUs since boot, from /proc/stat:
    time spent running anything, and time a vCPU had work while the
    host ran something else."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(
        int, fields[1:9])
    return user + nice + system + irq + softirq, steal


def running_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Of the CPU time wanted between two ``cpu_ticks`` readings, the
    share the host gave (1 when nothing ran or nothing was stolen)."""
    run, stolen = after[0] - before[0], after[1] - before[1]
    return run / (run + stolen) if run + stolen > 0 else 1.0


class SpeedProbe:
    """Measures the speed of this process's CPU and of another one.

    A helper interpreter pinned to *cpu* waits on a pipe; ``measure``
    runs ``reference_work`` *reps* times here and there at once and
    returns the geometric mean of the two slownesses.  Use it while the
    measured program is idle, and close it (it waits for the helper to
    exit) on every path out.
    """

    def __init__(self, cpu: int | None) -> None:
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import common; common._probe_loop()")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code, str(HERE)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=child_setup(cpu),
        )

    def measure(self, reps: int) -> float:
        self.proc.stdin.write(f"{reps}\n")
        self.proc.stdin.flush()
        here = slowness([reference_work() for _ in range(reps)])
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("speed probe helper exited")
        there = slowness(json.loads(line))
        return math.sqrt(here * there)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _probe_loop() -> None:
    """The helper side of ``SpeedProbe``: time *reps* references per
    request line until stdin closes."""
    for line in sys.stdin:
        times = [reference_work() for _ in range(int(line))]
        print(json.dumps(times), flush=True)
