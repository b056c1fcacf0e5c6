"""The host's current speed, from a fixed pure-Python reference kernel.

The shared hosts this benchmark runs on change speed by 20 % or more
over tens of seconds, as neighbours come and go; a run of tens of
seconds cannot average that away. So the benchmark times this kernel
between the parts of every repetition, and scales each part's host
time to the speed at which the kernel takes :data:`NOMINAL_S`.

The kernel does what the simulator's hot loop does — resumes
generators off a heap and updates a dict — and uses no code of
``repro``, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["NOMINAL_S", "reference_seconds"]

#: The kernel's time on the host the bounds were set on (a 2-vCPU x86
#: VM, Python 3.11.7), in a quiet moment.
NOMINAL_S = 0.010
_PROCESSES = 1000
_STEPS = 8


def _process(state: dict, key: int):
    for step in range(_STEPS):
        yield step * 0.5
        state[key] = state.get(key, 0) + step


def _kernel() -> int:
    state: dict = {}
    heap = [(0.0, key, _process(state, key)) for key in range(_PROCESSES)]
    heapq.heapify(heap)
    while heap:
        now, key, process = heapq.heappop(heap)
        try:
            delay = next(process)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, key, process))
    return len(state)


def reference_seconds() -> float:
    """Host seconds the kernel takes now: the median of three runs, so
    a burst that hits one run does not count, with the cyclic collector
    paused so a collection of the workload's heap is not charged to
    it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()
