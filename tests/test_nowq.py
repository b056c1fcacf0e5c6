"""The kernel's now-queue: zero-delay work off the heap.

Zero-delay events and deferred calls (``Simulator._defer``) wait on a
FIFO now-queue instead of the heap, each with the sequence number it
would have had there.  The contract is that this changes nothing but
cost: work runs in exactly the heap's ``(time, seq)`` order.  The tests
pin the ordering rule's corners and fuzz the kernel against a reference
scheduler that keeps everything on one heap.
"""

import heapq
import random

import pytest

from repro.sim import Simulator, StalledError
from repro.sim.events import Timeout


def test_reserved_event_at_now_runs_before_pending_now_queue_work():
    sim = Simulator()
    log = []
    # Reserved before the deferred call is queued, so it has the lower
    # seq: pushed back at the current instant, it must run first.
    reserved = sim._reserve(sim.now)
    sim._defer(lambda tag: log.append((tag, sim._cur_seq)), "deferred")
    sim._push_reserved(sim.now, reserved,
                       lambda _arg: log.append(("reserved", sim._cur_seq)))
    sim.run()
    assert log == [("reserved", reserved), ("deferred", reserved + 1)]


def test_stall_ending_now_beats_work_queued_at_that_instant():
    # The NIC's case: a timer fires at t=1 ahead of a stall reserved to
    # end at (1, r); work it queues at t=1 lands behind the pushed stall.
    sim = Simulator()
    log = []
    timer = sim.timeout(1.0)
    reserved = sim._reserve(1.0)

    def at_one(_event):
        sim.timeout(0.0).callbacks.append(lambda _e: log.append("zero"))
        sim._defer(log.append, "deferred")
        sim._push_reserved(1.0, reserved, log.append, "stall-end")

    timer.callbacks.append(at_one)
    sim.run()
    assert log == ["stall-end", "zero", "deferred"]
    assert sim.now == 1.0


def test_deferred_calls_and_zero_delay_events_interleave_in_seq_order():
    sim = Simulator()
    log = []
    manual = sim.event()
    manual.callbacks.append(lambda _e: log.append("succeed"))

    def proc():
        log.append("kickoff")
        yield sim.timeout(0.0)

    sim._defer(log.append, "defer-1")
    sim.timeout(0.0).callbacks.append(lambda _e: log.append("timeout"))
    manual.succeed(None)
    sim._defer(log.append, "defer-2")
    sim.process(proc())
    Timeout(sim, 0.0).callbacks.append(lambda _e: log.append("Timeout"))
    sim._defer(log.append, "defer-3")
    sim.run()
    assert log == ["defer-1", "timeout", "succeed", "defer-2", "kickoff",
                   "Timeout", "defer-3"]
    # Events: the timeout, the manual event, the kickoff, the Timeout,
    # the process's own timeout and its completion.  Deferred calls are
    # not events.
    assert sim.events_processed == 6


def test_kickoffs_created_before_run_go_first_in_creation_order():
    sim = Simulator()
    log = []

    def body(tag):
        log.append((sim.now, tag))
        yield sim.timeout(0.0)
        log.append((sim.now, tag + "'"))

    sim.timeout(1.0).callbacks.append(lambda _e: log.append((1.0, "t1")))
    for tag in "abc":
        sim.process(body(tag))
    sim.run()
    assert log == [(0.0, "a"), (0.0, "b"), (0.0, "c"), (0.0, "a'"),
                   (0.0, "b'"), (0.0, "c'"), (1.0, "t1")]


def test_peek_returns_now_while_work_is_pending():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(3.0)
    assert sim.peek() == 3.0
    sim._defer(lambda _arg: None, None)
    assert sim.peek() == 0.0
    sim.step()
    assert sim.peek() == 3.0
    seen = []

    def at_three(_event):
        sim.event().succeed(None)
        seen.append(sim.peek())

    sim.timeout(3.0).callbacks.append(at_three)
    sim.run()
    assert seen == [3.0]
    assert sim.peek() == float("inf")


def test_step_runs_one_deferred_call_without_counting_it():
    sim = Simulator()
    log = []
    sim._defer(log.append, "x")
    sim.timeout(0.0).callbacks.append(lambda _e: log.append("t"))
    sim.step()
    assert (log, sim.events_processed) == (["x"], 0)
    sim.step()
    assert (log, sim.events_processed) == (["x", "t"], 1)
    with pytest.raises(RuntimeError, match="no events"):
        sim.step()


def test_pending_deferred_call_is_not_a_drained_simulator():
    # The stop event is triggered only by queued now-queue work: the run
    # must get there rather than report a stall.
    sim = Simulator()
    done = sim.event()
    sim._defer(lambda value: done.succeed(value), "ok")
    assert sim.run(stop_event=done) == "ok"


def test_stalled_error_and_drained_clock_horizon_are_unchanged():
    sim = Simulator()
    sim._defer(lambda _arg: None, None)
    sim.timeout(0.0)
    with pytest.raises(StalledError):
        sim.run(stop_event=sim.event())
    assert sim.now == 0.0

    # A reserved event nobody pushed still advances a drained clock ...
    sim = Simulator()
    sim._reserve(10.0)
    sim._defer(lambda _arg: None, None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    # ... and a pending stop event times out, rather than stalls, until
    # the clock has reached the last reserved instant.
    stop = sim.event()
    with pytest.raises(TimeoutError) as excinfo:
        sim.run(until=6.0, stop_event=stop)
    assert not isinstance(excinfo.value, StalledError)
    assert sim.now == 6.0
    with pytest.raises(StalledError):
        sim.run(stop_event=stop)
    assert sim.now == 10.0


def test_only_normal_priority_is_accepted():
    sim = Simulator()
    event = sim.event()
    event._ok, event._value = True, None
    with pytest.raises(ValueError, match="priority"):
        sim._schedule(event, 0.0, priority=0)


# ---------------------------------------------------------------------------
# Fuzz: the kernel against a one-heap reference scheduler.
# ---------------------------------------------------------------------------

DELAYS = (0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.5)


class _Reference:
    """Everything on one ``(time, seq)`` heap, as before the now-queue:
    a zero-delay event or deferred call is a heap entry like any other.
    Sequence numbers are taken exactly where the kernel takes them."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.heap = []
        self.events = 0

    def _push(self, when, seq, fn, is_event):
        heapq.heappush(self.heap, (when, seq, fn, is_event))

    def timeout(self, delay, fn):
        self.seq += 1
        self._push(self.now + delay, self.seq, fn, True)

    def defer(self, fn):
        self.seq += 1
        self._push(self.now, self.seq, fn, False)

    def reserve(self, when):
        self.seq += 1
        return self.seq

    def push_reserved(self, when, seq, fn):
        self._push(when, seq, fn, True)

    def run(self):
        while self.heap:
            when, seq, fn, is_event = heapq.heappop(self.heap)
            self.now = when
            self.events += is_event
            fn(seq)


class _Kernel:
    """The same operations on a real :class:`Simulator`."""

    def __init__(self):
        self.sim = Simulator()

    @property
    def now(self):
        return self.sim.now

    def timeout(self, delay, fn):
        sim = self.sim
        sim.timeout(delay).callbacks.append(lambda _e: fn(sim._cur_seq))

    def defer(self, fn):
        self.sim._defer(lambda _arg: fn(self.sim._cur_seq), None)

    def reserve(self, when):
        return self.sim._reserve(when)

    def push_reserved(self, when, seq, fn):
        sim = self.sim
        sim._push_reserved(when, seq, lambda _arg: fn(sim._cur_seq))

    def run(self):
        self.sim.run()

    def step_all(self):
        while True:
            try:
                self.sim.step()
            except RuntimeError as exc:
                assert "no events" in str(exc)
                return

    @property
    def events(self):
        return self.sim.events_processed


def _play(sched, seed, drive="run"):
    """A seeded cascade of timeouts, deferred calls and reserved events
    that are pushed back at their own instant; returns the log of
    ``(time, tag, seq)`` and the event count."""
    log = []
    budget = [300]

    def action(tag):
        def fire(seq):
            log.append((sched.now, tag, seq))
            rng = random.Random(f"{seed}:{tag}")
            for child in range(rng.randrange(1, 4)):
                if budget[0] <= 0:
                    return
                budget[0] -= 1
                name = f"{tag}.{child}"
                kind = rng.choice(("timeout", "timeout", "defer", "defer",
                                   "reserve"))
                if kind == "timeout":
                    sched.timeout(rng.choice(DELAYS), action(name))
                elif kind == "defer":
                    sched.defer(action(name))
                else:
                    # A timer created *before* the reservation pushes it
                    # when it fires at the reserved instant: the pushed
                    # event lands at (now, lower seq) than anything the
                    # timer's own callbacks queue.
                    delay = rng.choice(DELAYS)
                    when = sched.now + delay
                    holder = []
                    sched.timeout(delay, lambda _seq, w=when, h=holder,
                                  n=name: sched.push_reserved(
                                      w, h[0], action(n + "!")))
                    holder.append(sched.reserve(when))
        return fire

    for root in range(4):
        sched.timeout(random.Random(seed * 31 + root).choice(DELAYS),
                      action(f"r{root}"))
    sched.defer(action("d"))
    if drive == "step":
        sched.step_all()
    else:
        sched.run()
    return log, sched.now, sched.events


@pytest.mark.parametrize("seed", range(25))
def test_now_queue_runs_in_reference_heap_order(seed):
    want = _play(_Reference(), seed)
    assert _play(_Kernel(), seed) == want
    assert _play(_Kernel(), seed, drive="step") == want
    assert len(want[0]) > 300
