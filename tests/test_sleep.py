"""Event-free suspensions: process sleeps, timed calls and parked waits.

``Simulator.sleep`` suspends the running process without building an
event, ``Simulator._call_later`` runs a callback after a delay without
one, and a parked process (``Simulator._park``) is resumed by a
deferred call (``Simulator._unpark``).  The contract is that none of
this changes a schedule: each takes the sequence number the equivalent
``timeout()`` or ``succeed()`` would have taken, so work runs in exactly
the same ``(time, seq)`` order.  The tests pin the corners and fuzz the
kernel against a reference written only with ``timeout()`` and events.
"""

import random

import pytest

from repro.sim import Interrupt, Simulator
from repro.sim.process import Wait


# ---------------------------------------------------------------------------
# Corners.
# ---------------------------------------------------------------------------

def test_sleep_outside_a_running_process_raises():
    sim = Simulator()
    with pytest.raises(RuntimeError, match="outside a running process"):
        sim.sleep(1.0)
    with pytest.raises(RuntimeError, match="outside a running process"):
        sim.sleep(0.0)
    with pytest.raises(RuntimeError, match="outside a running process"):
        sim._park("nobody")


@pytest.mark.parametrize("bad,match", [(-1.0, "negative sleep delay"),
                                       (float("nan"), "non-finite"),
                                       (float("inf"), "non-finite")])
def test_sleep_rejects_bad_delays(bad, match):
    sim = Simulator()
    caught = []

    def body():
        try:
            yield sim.sleep(bad)
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(body())
    sim.run()
    assert len(caught) == 1 and match in caught[0]


def test_sleep_matches_timeout_position_and_count():
    def run(wait):
        sim = Simulator()
        log = []

        def body(tag, delays):
            for delay in delays:
                yield wait(sim, delay)
                log.append((sim.now, tag, sim._cur_seq))

        sim.process(body("a", (1.0, 0.0, 2.5)))
        sim.process(body("b", (1.0, 1.0, 0.0, 1.5)))
        sim.timeout(1.0).callbacks.append(
            lambda _e: log.append((sim.now, "t", sim._cur_seq)))
        sim.run()
        return log, sim.now, sim.events_processed

    assert run(lambda sim, d: sim.sleep(d)) == \
        run(lambda sim, d: sim.timeout(d))


def test_interrupt_during_a_sleep_drops_the_stale_wake():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.sleep(5.0)
            log.append(("woke early", sim.now))
        except Interrupt as intr:
            log.append((intr.cause, sim.now))
        yield sim.sleep(10.0)
        log.append(("woke", sim.now))

    proc = sim.process(sleeper())
    sim.timeout(1.0).callbacks.append(lambda _e: proc.interrupt("poke"))
    sim.run()
    assert log == [("poke", 1.0), ("woke", 11.0)]
    # The stale wake at t=5 still counts, like an abandoned timeout:
    # kickoff, t=1 timer, interrupt bridge, stale wake, wake, completion.
    assert sim.events_processed == 6


def test_a_sleep_never_yielded_is_dropped():
    sim = Simulator()
    log = []

    def body():
        sim.sleep(2.0)  # token discarded
        yield sim.timeout(5.0)
        log.append(sim.now)

    sim.process(body())
    sim.run()
    assert log == [5.0]


def test_a_sleep_token_is_yielded_once():
    sim = Simulator()

    def body():
        token = sim.sleep(1.0)
        yield token
        yield token

    proc = sim.process(body())
    with pytest.raises(TypeError, match="non-event"):
        sim.run(stop_event=proc)


def test_sleep_zero_keeps_its_now_queue_position():
    sim = Simulator()
    log = []

    def first():
        sim._defer(log.append, "d1")
        yield sim.sleep(0)
        log.append("first")

    def second():
        log.append("second")
        sim._defer(log.append, "d2")
        yield sim.sleep(0)

    sim.process(first())
    sim.process(second())
    sim.run()
    assert log == ["second", "d1", "first", "d2"]
    # Two kickoffs, two zero sleeps, two completions; no deferred call.
    assert sim.events_processed == 6


def test_zero_delay_timed_call_runs_at_its_seq_among_now_work():
    sim = Simulator()
    log = []

    def tag(name):
        return lambda _arg: log.append((name, sim._cur_seq))

    sim._defer(tag("d1"), None)
    sim._call_later(0.0, tag("call"), None)
    sim._defer(tag("d2"), None)
    sim.timeout(0.0).callbacks.append(tag("t"))

    def nested(_arg):
        # Queued from inside now-queue work: lower seqs still go first.
        log.append(("nested", sim._cur_seq))
        sim._call_later(0.0, tag("late-call"), None)
        sim._defer(tag("late-defer"), None)

    sim._defer(nested, None)
    sim.run()
    assert log == [("d1", 1), ("call", 2), ("d2", 3), ("t", 4),
                   ("nested", 5), ("late-call", 6), ("late-defer", 7)]
    assert sim.now == 0.0
    # The timed calls and the timeout are events; deferred calls not.
    assert sim.events_processed == 3


def test_timed_call_carries_its_argument_and_counts():
    sim = Simulator()
    seen = []
    sim._call_later(2.0, seen.append, "payload")
    sim._call_later(1.0, lambda arg: seen.append((sim.now, arg)), 7)
    sim.run()
    assert seen == [(1.0, 7), "payload"]
    assert sim.events_processed == 2
    with pytest.raises(ValueError, match="negative timeout delay"):
        sim._call_later(-1.0, seen.append, None)


def test_stop_event_fires_when_the_last_driver_finishes_on_a_wake():
    sim = Simulator()

    def driver(delay):
        yield sim.sleep(delay)
        return delay

    drivers = [sim.process(driver(d)) for d in (3.0, 7.0, 5.0)]
    sim.timeout(100.0)  # later work the stop must not reach
    result = sim.run(stop_event=sim.all_of(drivers))
    assert sorted(result.values()) == [3.0, 5.0, 7.0]
    assert sim.now == 7.0
    assert sim.peek() == 100.0


def test_waiting_on_names_sleeps_and_parks():
    sim = Simulator()
    parked = []

    def sleeper():
        yield sim.sleep(4.0)

    def parker():
        wait = sim._park("am-wakeup[3]")
        parked.append(wait)
        yield wait
        return sim.now

    sleeping = sim.process(sleeper())
    waiting = sim.process(parker())
    sim.step()
    sim.step()
    assert repr(sleeping.waiting_on) == "<Wait sleep until t=4.0>"
    assert waiting.waiting_on is parked[0]
    assert repr(waiting.waiting_on) == "<Wait am-wakeup[3]>"
    assert isinstance(waiting.waiting_on, Wait)
    sim.timeout(2.0).callbacks.append(lambda _e: sim._unpark(parked[0]))
    assert sim.run(stop_event=waiting) == 2.0
    assert waiting.waiting_on is None


def test_unpark_after_an_interrupt_is_dropped():
    sim = Simulator()
    log = []
    parks = []

    def parker():
        for _round in range(2):
            wait = sim._park("p")
            parks.append(wait)
            try:
                yield wait
                log.append(("resumed", sim.now))
            except Interrupt:
                log.append(("interrupted", sim.now))

    proc = sim.process(parker())

    def at_one(_event):
        proc.interrupt()
        sim._unpark(parks[0])  # stale: the interrupt detached it

    sim.timeout(1.0).callbacks.append(at_one)
    sim.timeout(2.0).callbacks.append(lambda _e: sim._unpark(parks[1]))
    sim.run()
    assert log == [("interrupted", 1.0), ("resumed", 2.0)]


# ---------------------------------------------------------------------------
# Fuzz: the kernel against a reference with only timeouts and events.
# ---------------------------------------------------------------------------

DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5)


class _Reference:
    """Every suspension and timer as a ``timeout()`` or an event."""

    def __init__(self):
        self.sim = Simulator()

    def sleep(self, delay):
        return self.sim.timeout(delay)

    def call_later(self, delay, fn, arg):
        self.sim.timeout(delay).callbacks.append(lambda _e: fn(arg))

    def defer(self, fn, arg):
        event = self.sim.event()
        event.callbacks.append(lambda _e: fn(arg))
        event.succeed(None)

    def park(self):
        return self.sim.event()

    def unpark(self, wait):
        wait.succeed(None)


class _Kernel:
    """The same operations through the event-free kernel paths."""

    def __init__(self):
        self.sim = Simulator()

    def sleep(self, delay):
        return self.sim.sleep(delay)

    def call_later(self, delay, fn, arg):
        self.sim._call_later(delay, fn, arg)

    def defer(self, fn, arg):
        self.sim._defer(fn, arg)

    def park(self):
        return self.sim._park("fuzz")

    def unpark(self, wait):
        self.sim._unpark(wait)


def _play(sched, seed, drive="run", n_procs=4, ops=30):
    """A seeded mix of processes (sleeps, timeouts, parks) and callbacks
    (timed and deferred calls that kick, interrupt and spawn more).
    Returns the trace, the final clock, the event count, and how many
    kicks and deferred calls ran (events in the reference only)."""
    sim = sched.sim
    log = []
    parked = [None] * n_procs
    procs = []
    started = [False] * n_procs
    tally = {"kicks": 0, "defers": 0}
    budget = [250]

    def note(tag):
        log.append((sim.now, sim._cur_seq, tag))

    def kick(pid):
        wait = parked[pid]
        if wait is not None:
            parked[pid] = None
            tally["kicks"] += 1
            sched.unpark(wait)

    def callback(tag):
        def fire(_arg):
            note(tag)
            rng = random.Random(f"{seed}:{tag}")
            for child in range(rng.randrange(0, 3)):
                if budget[0] <= 0:
                    return
                budget[0] -= 1
                name = f"{tag}.{child}"
                kind = rng.choice(("call", "call", "defer", "kick",
                                   "kick", "interrupt"))
                if kind == "call":
                    sched.call_later(rng.choice(DELAYS), callback(name),
                                     None)
                elif kind == "defer":
                    tally["defers"] += 1
                    sched.defer(callback(name), None)
                elif kind == "kick":
                    kick(rng.randrange(n_procs))
                else:
                    pid = rng.randrange(n_procs)
                    if started[pid] and procs[pid].is_alive:
                        note(f"{name}->interrupt {pid}")
                        procs[pid].interrupt(name)
        return fire

    def body(pid):
        started[pid] = True
        rng = random.Random(f"{seed}:proc{pid}")
        for step in range(ops):
            tag = f"p{pid}.{step}"
            kind = rng.choice(("sleep", "sleep", "sleep", "timeout",
                               "park", "call", "defer", "kick"))
            try:
                if kind == "sleep":
                    yield sched.sleep(rng.choice(DELAYS))
                elif kind == "timeout":
                    value = yield sim.timeout(rng.choice(DELAYS), tag)
                    assert value == tag
                elif kind == "park":
                    if rng.random() < 0.7:
                        # Arrange our own wakeup; otherwise wait for a
                        # stray kick (or stay parked for good).
                        sched.call_later(rng.choice(DELAYS),
                                         lambda _arg, p=pid: kick(p), None)
                    wait = parked[pid] = sched.park()
                    yield wait
                elif kind == "call":
                    sched.call_later(rng.choice(DELAYS), callback(tag),
                                     None)
                elif kind == "defer":
                    tally["defers"] += 1
                    sched.defer(callback(tag), None)
                else:
                    kick(rng.randrange(n_procs))
                note(f"{tag}:{kind}")
            except Interrupt as intr:
                note(f"{tag}:interrupted by {intr.cause}")

    for pid in range(n_procs):
        procs.append(sim.process(body(pid)))
    sched.call_later(0.5, callback("root"), None)
    if drive == "step":
        while True:
            try:
                sim.step()
            except RuntimeError as exc:
                assert "no events" in str(exc)
                break
    else:
        sim.run()
    return log, sim.now, sim.events_processed, tally


@pytest.mark.parametrize("seed", range(25))
def test_event_free_kernel_matches_timeout_reference(seed):
    want_log, want_now, want_events, tally = _play(_Reference(), seed)
    got = _play(_Kernel(), seed)
    assert got[:2] == (want_log, want_now)
    # The reference's kicks and deferred calls are events; the kernel's
    # unparks and deferred calls are not.  Everything else counts alike.
    assert got[3] == tally
    assert got[2] == want_events - tally["kicks"] - tally["defers"]
    assert _play(_Kernel(), seed, drive="step") == got
    assert len(want_log) > 100
