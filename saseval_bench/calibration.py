"""Host-speed calibration: time metrics in reference-host seconds.

A shared host drifts: each virtual CPU flips between a fast and a slow
speed (about 1.7x apart) every fraction of a second to a few seconds,
so the same pass can take a third longer a minute later, in CPU time
as well as in wall time.  While a pass runs, a sampler thread wakes
every ``PERIOD_S``, takes the GIL and times a small fixed pure-Python
kernel (events popped off a heap, slotted objects, a dict fan-out and
an HMAC-SHA256 per event: the simulator's mix).  Each measured
interval then loses the kernel time that fell inside it and is scaled
by ``REFERENCE_S`` over the mean kernel time of the samples inside it
(or the ``MIN_SAMPLES`` nearest, for short intervals).  A scaled time
reads as the seconds the same work would take on the reference host,
a 2-CPU Intel Xeon on which the kernel runs in ``REFERENCE_S`` at its
fast speed.

The CPUs drift independently, and a woken sampler would land on the
idle one, so the benchmark pins itself to one CPU first
(:func:`pin_to_one_cpu`): the kernel then times the CPU the work runs
on.  The workloads are one closed-loop caller, so they lose little by
it; a workload meant to show parallel speed-up would need another
scheme.

The kernel, ``KERNEL_ROUNDS`` and ``REFERENCE_S`` are part of the
benchmark's definition: changing any of them re-bases every time metric.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import heapq
import hmac
import os
import threading
import time

#: Kernel time on the reference host at its fast speed.
REFERENCE_S = 0.57e-3
KERNEL_ROUNDS = 100
#: Sampler period; the kernel takes about 2% of a pass.
PERIOD_S = 0.02
#: Fewest samples an interval's scale is taken from.
MIN_SAMPLES = 3
WARMUP_RUNS = 20

_KEY = b"saseval-bench-calibration-key-32"


class _Node:
    __slots__ = ("ident", "pos", "speed", "inbox")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.pos = ident * 40.0
        self.speed = 20.0 + ident % 7
        self.inbox: dict = {}


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """A fixed amount of simulator-like interpreter work."""
    nodes = [_Node(i) for i in range(32)]
    queue = [(0.0, i, i) for i in range(32)]
    heapq.heapify(queue)
    seq = len(queue)
    total = 0
    for _ in range(rounds):
        when, _seq, who = heapq.heappop(queue)
        node = nodes[who]
        node.pos += node.speed * 0.1
        message = b"%d:%d" % (who, int(node.pos))
        tag = hmac.new(_KEY, message, hashlib.sha256).digest()
        for other in nodes[who % 4 :: 4]:
            if abs(other.pos - node.pos) < 500.0:
                other.inbox[who] = tag
                total += len(other.inbox)
        seq += 1
        heapq.heappush(queue, (when + 0.1, seq, who))
    return total


def pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts later, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Uncalibrated:
    """Samples nothing and scales nothing (traced runs)."""

    def running(self):
        return contextlib.nullcontext()

    def scale(self, start: float, end: float) -> float:
        return end - start

    def kernel_s(self, start: float, end: float) -> float:
        return 0.0


class Calibrator:
    """Kernel samples taken while work runs, and the scaling they imply."""

    def __init__(self) -> None:
        for _ in range(WARMUP_RUNS):
            kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stop = threading.Event()
        self._sampler: threading.Thread | None = None

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)

    def start(self) -> None:
        """Start sampling in a background thread."""
        self._stop.clear()
        self._sampler = threading.Thread(
            target=self._sample_until_stopped,
            name="bench-calibration",
            daemon=True,
        )
        self._sampler.start()

    def stop(self) -> None:
        """Stop sampling and wait for the thread; safe to repeat."""
        if self._sampler is not None:
            self._stop.set()
            self._sampler.join()
            self._sampler = None

    @contextlib.contextmanager
    def running(self):
        """Sample for the duration of the block."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def kernel_s(self, start: float, end: float) -> float:
        """Kernel time that fell inside ``[start, end]``."""
        low = max(0, bisect.bisect_left(self.starts, start) - 1)
        high = bisect.bisect_right(self.starts, end)
        return sum(
            max(0.0, min(self.ends[i], end) - max(self.starts[i], start))
            for i in range(low, high)
        )

    def _window(self, start: float, end: float) -> range:
        """Samples inside ``[start, end]``, widened to ``MIN_SAMPLES``."""
        low = bisect.bisect_left(self.starts, start)
        high = max(low, bisect.bisect_right(self.ends, end))
        middle = (start + end) / 2
        while high - low < MIN_SAMPLES and (low > 0 or high < len(self.starts)):
            if high >= len(self.starts) or (
                low > 0 and middle - self.ends[low - 1] <= self.starts[high] - middle
            ):
                low -= 1
            else:
                high += 1
        return range(low, high)

    def scale(self, start: float, end: float) -> float:
        """Reference-host seconds of the work done in ``[start, end]``."""
        window = self._window(start, end)
        if not window:
            raise RuntimeError("no calibration samples")
        mean_kernel = sum(self.ends[i] - self.starts[i] for i in window) / len(
            window
        )
        work = end - start - self.kernel_s(start, end)
        return work * REFERENCE_S / mean_kernel

    def median_kernel_s(self) -> float:
        runs = sorted(end - start for start, end in zip(self.starts, self.ends))
        return runs[len(runs) // 2]
