"""Rescale CPU-busy host seconds to a reference host speed.

The benchmark's reference box is a shared 2-vCPU VM whose speed for
CPU-bound Python drifts by up to 1.8x within a minute. A short
calibration kernel, timed between units of work, slows down with the
host, and dividing the work's CPU-busy seconds by the kernel's
slowdown removes most of that drift. Repeated passes of the
``fig5-value`` workload on one seed varied 11.3% raw and 2.7% rescaled
(coefficient of variation).

Only CPU seconds are rescaled: this process's own, and its children's
by the same factor. Time spent waiting, on sockets or timeouts, is kept
as measured. A product change that costs CPU moves the rescaled seconds
exactly as it moves the raw ones, since the kernel is the benchmark's
own code and never calls into the program.
"""

from __future__ import annotations

import time
from typing import Callable, List

#: Seconds :func:`kernel_seconds` takes at the reference speed: the
#: fastest reading on the 2-vCPU box that pinned the benchmark (see
#: README.md). It only sets the unit; comparisons need it constant.
REFERENCE_KERNEL_S = 0.00035


class _Item:
    __slots__ = ("key", "value", "rank")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.rank = key ^ value


def kernel() -> int:
    """A fixed interpreter-bound loop: dict updates, small-object
    allocation and attribute scans, the mix the engines spend on."""
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = i & 127
        table[key] = table.get(key, 0) + i
        acc += len(table) ^ key
    items = [_Item(i, i & 7) for i in range(800)]
    best = items[0]
    for item in items:
        if item.rank > best.rank:
            best = item
    return acc + best.key


def kernel_seconds(
    repeats: int = 3, clock: Callable[[], float] = time.perf_counter
) -> float:
    """Best of ``repeats`` kernel timings; the best resists interrupts."""
    best = float("inf")
    for _ in range(repeats):
        start = clock()
        kernel()
        best = min(best, clock() - start)
    return best


class Stopwatch:
    """Host seconds between marks, with the host speed around each.

    Call :meth:`mark` at the end of every unit of work (it fits a
    ``progress`` callback): it records the time, then times the kernel.
    The kernel runs are excluded from the measured intervals. Only this
    process's CPU seconds in an interval count as busy, the part that
    stretches with the host. ``speed`` is the busy-time weighted ratio
    of reference to measured kernel time, below 1 when the host runs
    slow. With ``calibrate=False`` no kernel runs and ``speed`` is 1.

    ``clock`` times the kernel. Where other processes of the workload
    hold the CPUs, pass ``time.thread_time``: the kernel's CPU time
    leaves out its wait for a CPU, which depends on their load, and
    keeps the speed a running thread gets, which they get as well.
    """

    def __init__(
        self,
        calibrate: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.calibrate = calibrate
        self._clock = clock
        self.host_s = 0.0
        self.cpu_self_s = 0.0
        self.busy_s = 0.0
        self.marks: List[float] = []
        self._busy_weighted = 0.0
        self._kernel = kernel_seconds(clock=clock) if calibrate else 0.0
        self._cpu = time.process_time()
        self.start = self._t = time.perf_counter()

    def mark(self, *_progress: object) -> None:
        now = time.perf_counter()
        cpu = time.process_time() - self._cpu
        self.marks.append(now)
        self.host_s += now - self._t
        self.cpu_self_s += cpu
        if self.calibrate:
            measured = kernel_seconds(clock=self._clock)
            mean = (self._kernel + measured) / 2
            self.busy_s += cpu
            self._busy_weighted += cpu * REFERENCE_KERNEL_S / mean
            self._kernel = measured
        self._cpu = time.process_time()
        self._t = time.perf_counter()

    @property
    def speed(self) -> float:
        if self.busy_s <= 0:
            return 1.0
        return self._busy_weighted / self.busy_s

    def reference_wall(self) -> float:
        """Wall seconds with the busy share at reference speed."""
        return self.host_s - self.busy_s + self._busy_weighted


def reference_seconds(run) -> float:
    """Time ``run()`` (a CPU-bound child, say) at reference speed."""
    before = kernel_seconds()
    start = time.perf_counter()
    run()
    elapsed = time.perf_counter() - start
    after = kernel_seconds()
    return elapsed * REFERENCE_KERNEL_S * 2 / (before + after)
