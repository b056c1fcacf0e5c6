"""The discrete-event simulator core loop.

The :class:`Simulator` owns the clock, the event heap and the now-queue.
Events are processed in strict ``(time, priority, sequence)`` order,
making every run fully deterministic for a given seedable workload.
Every priority is ``NORMAL``; :meth:`Simulator._schedule` rejects any
other, because the now-queue's ordering rule below relies on it.

Work due at the current instant never touches the heap.  A zero-delay
event (``timeout(0)``, ``succeed()``, a process kickoff, an interrupt or
late-callback bridge) and a deferred call (:meth:`Simulator._defer`, a
plain ``fn(arg)`` with no event behind it) are appended to a FIFO
now-queue with the sequence number they would have had on the heap.
Sequence numbers only grow, so the queue is in heap order by
construction.  Before each entry runs, the loop checks the heap top: an
event at ``(now, lower seq)`` -- a reserved event pushed back at the
current instant, say -- runs first.  The clock never advances while the
queue holds work, so the two structures together process exactly the
heap's ``(time, seq)`` order.

The event loop is the hot path of every experiment (a full LogGP sweep
is ~10^7 events), so :meth:`Simulator.run` inlines the per-event work
with the heap and bookkeeping hoisted into locals, and
:meth:`Simulator.timeout` builds the (overwhelmingly common) Timeout
event without going through the generic ``Event`` constructor.

Closed-form servers (the NIC contexts, see ARCHITECTURE.md section 3)
skip events nobody would observe.  The kernel lets them keep such an
event's heap position without scheduling it: :meth:`Simulator._reserve`
takes the sequence number the event would have had, and
:meth:`Simulator._push_reserved` schedules it at that position only if
something turns out to depend on it.  ``_cur_seq`` (the sequence number
of the event being processed) tells a server whether a reserved event
would already have fired.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

__all__ = ["Simulator", "StalledError"]

_INF = float("inf")


def _reject_delay(kind: str, delay: float) -> None:
    """Raise the ValueError for a delay outside ``[0, inf)``.

    Callers only land here after ``0.0 <= delay < _INF`` failed, i.e.
    the delay is negative, ``+inf``, or NaN.  NaN compares false against
    everything, so the previous ``delay < 0`` checks silently admitted
    NaN delays and corrupted the schedule order — non-finite values get
    their own explicit message; finite negatives keep the legacy text.
    """
    if delay != delay or delay in (_INF, -_INF):
        raise ValueError(
            f"non-finite {kind}: {delay!r} (delays must be finite and >= 0)")
    if kind == "timeout delay":
        raise ValueError(f"negative timeout delay: {delay}")
    raise ValueError(f"cannot schedule into the past: delay={delay}")


class StalledError(TimeoutError):
    """The simulator drained while a ``stop_event`` was still pending.

    Distinct from the plain :class:`TimeoutError` raised when the
    ``until`` horizon elapses with events still queued: a drained
    simulator (heap and now-queue both empty) means no future event can
    ever trigger the stop condition -- the workload is deadlocked, not
    merely slow.  Subclasses
    :class:`TimeoutError` so existing "did not complete" handling keeps
    working.
    """

#: The priority of every scheduled event.  Heap entries keep the field,
#: but the now-queue has none: its merge with the heap is only exact
#: while all priorities are equal.
NORMAL = 1


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in *microseconds*.  Typical use::

        sim = Simulator()

        def ping():
            yield sim.timeout(5.0)
            return "pong"

        proc = sim.process(ping())
        sim.run()
        assert sim.now == 5.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        #: Work due at ``now``, in sequence order: ``(seq, None, event)``
        #: for a zero-delay event, ``(seq, fn, arg)`` for a deferred call.
        self._nowq: Deque[Tuple[int, Optional[Callable[[Any], None]],
                                Any]] = deque()
        self._seq = 0
        #: Sequence number of the event being processed (0 before any).
        self._cur_seq = 0
        #: Latest time of any reserved event: a drained heap still
        #: "fires" reserved events up to here (see :meth:`run`).
        self._horizon = 0.0
        self._event_count = 0
        self._stop_requested: Optional[Event] = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (diagnostic).

        Deferred calls (:meth:`_defer`) are not events and do not count.
        """
        return self._event_count

    # -- factories ----------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` microseconds from now.

        This is the dominant event type (every compute region, stall and
        wire hop is a timeout), so the event is assembled directly —
        pre-triggered and pre-scheduled — without the generic
        ``Event.__init__``/``_schedule`` machinery.
        """
        if not 0.0 <= delay < _INF:
            _reject_delay("timeout delay", delay)
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.name = ""
        event.callbacks = []
        event._value = value
        event._ok = True
        event._scheduled = True
        event._defused = False
        event.delay = delay
        self._seq += 1
        if delay:
            heappush(self._heap, (self._now + delay, NORMAL, self._seq,
                                  event))
        else:
            self._nowq.append((self._seq, None, event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Composite event succeeding when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def all_of(self, events: List[Event]) -> AllOf:
        """Composite event succeeding when all of ``events`` succeed."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        """Schedule a triggered event ``delay`` from now (internal API)."""
        if not 0.0 <= delay < _INF:
            _reject_delay("schedule delay", delay)
        if priority != NORMAL:
            raise ValueError(
                f"unsupported priority {priority}: the now-queue orders "
                f"work by sequence alone, so every priority is NORMAL")
        if event._scheduled:
            raise RuntimeError(f"{event!r} is already scheduled")
        event._scheduled = True
        self._push(event, delay)

    def _reject(self, delay: float) -> None:
        """Raise for a bad timeout delay (hook for ``Timeout.__init__``,
        which cannot import this module's helpers — circular import)."""
        _reject_delay("timeout delay", delay)

    def _push(self, event: Event, delay: float) -> None:
        """Queue a pre-validated, pre-triggered event: on the now-queue
        if ``delay`` is zero, else on the heap (the path of ``_schedule``
        and the ``Timeout`` constructor)."""
        self._seq += 1
        if delay:
            heappush(self._heap, (self._now + delay, NORMAL, self._seq,
                                  event))
        else:
            self._nowq.append((self._seq, None, event))

    def _defer(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Call ``fn(arg)`` at the current instant, where a zero-delay
        event created now would fire, without creating an event.

        For callbacks nobody else can wait on (the NIC's hand-off): the
        call keeps its place among same-instant events but is not an
        event, so it does not count in :attr:`events_processed`.
        """
        self._seq += 1
        self._nowq.append((self._seq, fn, arg))

    def _reserve(self, when: float) -> int:
        """Take the sequence number of an event due at ``when`` without
        scheduling it.

        The event counts as fired once the clock passes ``(when, seq)``;
        :meth:`_push_reserved` schedules it at exactly that position if
        it turns out to matter before then.
        """
        self._seq += 1
        if when > self._horizon:
            self._horizon = when
        return self._seq

    def _push_reserved(self, when: float, seq: int) -> Event:
        """Schedule a reserved event at its ``(when, seq)`` position and
        return it, for the caller to attach callbacks.

        It goes on the heap even when ``when`` is now: its seq may be
        older than work already on the now-queue, which the run loop's
        heap-top check then lets it overtake.
        """
        event = Event(self)
        event._ok = True
        event._value = None
        event._scheduled = True
        heappush(self._heap, (when, NORMAL, seq, event))
        return event

    # -- execution --------------------------------------------------------
    def step(self) -> None:
        """Process exactly one unit of work: an event or a deferred call."""
        nowq = self._nowq
        heap = self._heap
        if nowq and not (heap and heap[0][0] == self._now
                         and heap[0][2] < nowq[0][0]):
            seq, fn, event = nowq.popleft()
            self._cur_seq = seq
            if fn is not None:
                fn(event)
                return
        elif heap:
            when, _priority, seq, event = heappop(heap)
            self._now = when
            self._cur_seq = seq
        else:
            raise RuntimeError("no events to process")
        self._event_count += 1
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # A failed event nobody waited on is a programming error:
            # surface it rather than letting it pass silently.
            raise event.value

    def peek(self) -> float:
        """Time of the next unit of work, or ``inf`` if there is none."""
        if self._nowq:
            return self._now
        return self._heap[0][0] if self._heap else _INF

    def run(self, until: Optional[float] = None,
            stop_event: Optional[Event] = None) -> Any:
        """Run until drained, ``until`` time, or ``stop_event``.

        Returns the value of ``stop_event`` if given and triggered.
        Raises :class:`TimeoutError` if ``until`` elapses while
        ``stop_event`` is still pending.
        """
        if stop_event is not None:
            if stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value
            stop_event._defused = True
            stop_event.add_callback(self._stop_callback)
        # The loop is step() unrolled with the queues and the event
        # counter in locals; the two must stay semantically identical.
        # Only the heap can lie beyond ``until``: now-queue work is due
        # at ``now``.
        heap = self._heap
        pop = heappop
        nowq = self._nowq
        popleft = nowq.popleft
        stop_at = _INF if until is None else until
        count = self._event_count
        try:
            while True:
                if nowq:
                    if heap and heap[0][0] == self._now \
                            and heap[0][2] < nowq[0][0]:
                        # Same instant, earlier seq: no clock change.
                        when, _priority, seq, event = pop(heap)
                    else:
                        seq, fn, event = popleft()
                        if fn is not None:
                            self._cur_seq = seq
                            fn(event)
                            continue
                elif heap:
                    if heap[0][0] > stop_at:
                        self._now = until
                        break
                    when, _priority, seq, event = pop(heap)
                    self._now = when
                else:
                    break
                self._cur_seq = seq
                count += 1
                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event._defused:
                    raise event.value
                if self._stop_requested is not None:
                    stopped = self._stop_requested
                    self._stop_requested = None
                    if stopped._ok is False:
                        raise stopped.value
                    return stopped.value
        finally:
            self._event_count = count
        # The loop only ends with the now-queue empty.
        drained = not heap
        if drained and self._horizon > self._now:
            # Reserved events nobody pushed still advance the clock, as
            # if they had been scheduled: up to the horizon, or to
            # ``until`` if the horizon lies beyond it.
            self._now = self._horizon if until is None \
                else min(self._horizon, until)
        # Everything up to now has fired, reserved events included.
        self._cur_seq = self._seq
        if stop_event is not None:
            if drained and self._now >= self._horizon:
                raise StalledError(
                    f"event heap drained at t={self._now} with "
                    f"{stop_event!r} still pending")
            raise TimeoutError(
                f"simulation ended at t={self._now} before "
                f"{stop_event!r} triggered")
        if until is not None and self._now < until:
            self._now = until
        return None

    def _stop_callback(self, event: Event) -> None:
        self._stop_requested = event
