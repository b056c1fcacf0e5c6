"""The discrete-event simulator core loop.

The :class:`Simulator` owns the clock, the event heap and the now-queue.
Work is processed in strict ``(time, sequence)`` order, making every run
fully deterministic for a given seedable workload.  Every event has the
same priority; :meth:`Simulator._schedule` rejects any other, because
the now-queue's ordering rule below relies on it.

Heap entries are ``(when, seq, fn, arg)``.  With ``fn`` None, ``arg`` is
an :class:`~repro.sim.events.Event` whose callbacks run; otherwise the
entry is a *timed call* ``fn(arg)`` with no event behind it.  Timed
calls serve everything nobody but one callback or one process ever
sees:

* :meth:`Simulator._call_later` -- a callback after a delay (the wire's
  transit, the NIC's service and retransmission timers);
* :meth:`Simulator.sleep` -- the running process suspended for a delay
  without building an event: the wake resumes it directly;
* :meth:`Simulator._push_reserved` -- a reserved position (below)
  scheduled after all.

Each takes the sequence number ``timeout(delay)`` would have taken at
that moment, so it runs exactly where the equivalent timeout would have
fired, and each counts in :attr:`Simulator.events_processed` like one.

Work due at the current instant never touches the heap unless it holds
a reserved or timed position.  A zero-delay event (``timeout(0)``,
``succeed()``, a process kickoff, an interrupt or late-callback bridge)
and a deferred call (:meth:`Simulator._defer`, a plain ``fn(arg)`` that
is not an event) are appended to a FIFO now-queue with the sequence
number they would have had on the heap.  Sequence numbers only grow, so
the queue is in heap order by construction.  Before each entry runs,
the loop checks the heap top: work at ``(now, lower seq)`` -- a reserved
event pushed back at the current instant, say -- runs first.  The clock
never advances while the queue holds work, so the two structures
together process exactly the heap's ``(time, seq)`` order.

A process blocked on something only one party can end is *parked*
(:meth:`Simulator._park`) rather than given an event to wait on;
:meth:`Simulator._unpark` resumes it with a deferred call at the
position the waking event's ``succeed()`` would have taken.  The AM
layer parks its host process this way between message arrivals.

What :attr:`Simulator.events_processed` counts: every event processed,
every timed call (sleep wakes included, even stale ones), and nothing
run from the now-queue as a deferred call (hand-offs and unparks).

The event loop is the hot path of every experiment (a full LogGP sweep
is ~10^7 events), so :meth:`Simulator.run` inlines the per-entry work
with the heap and bookkeeping hoisted into locals.

Closed-form servers (the NIC contexts, see ARCHITECTURE.md section 3)
skip events nobody would observe.  The kernel lets them keep such an
event's heap position without scheduling it: :meth:`Simulator._reserve`
takes the sequence number the event would have had, and
:meth:`Simulator._push_reserved` schedules a timed call at that
position only if something turns out to depend on it.  ``_cur_seq``
(the sequence number of the work being processed) tells a server
whether a reserved event would already have fired.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, Wait

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
    if kind in ("timeout delay", "sleep delay"):
        raise ValueError(f"negative {kind}: {delay}")
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

#: The priority of every scheduled event.  Neither queue stores it: the
#: now-queue's merge with the heap is only exact while all are equal.
NORMAL = 1

#: The ``fn`` of a queue entry -- heap ``(when, seq, fn, arg)``, now-queue
#: ``(seq, fn, arg)``: a call ``fn(arg)``, or None when ``arg`` is an event.
_Call = Optional[Callable[[Any], None]]


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in *microseconds*.  Typical use::

        sim = Simulator()

        def ping():
            yield sim.sleep(5.0)
            return "pong"

        proc = sim.process(ping())
        sim.run()
        assert sim.now == 5.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, _Call, Any]] = []
        #: Work due at ``now``, in sequence order: ``(seq, None, event)``
        #: for a zero-delay event, ``(seq, fn, arg)`` for a deferred call.
        self._nowq: Deque[Tuple[int, _Call, Any]] = deque()
        self._seq = 0
        #: Sequence number of the work being processed (0 before any).
        self._cur_seq = 0
        #: Latest time of any reserved event: a drained heap still
        #: "fires" reserved events up to here (see :meth:`run`).
        self._horizon = 0.0
        self._event_count = 0
        self._stop_requested: Optional[Event] = None
        #: The process whose generator is running; None between resumes.
        self._active: Optional[Process] = None
        #: Token of the latest :meth:`sleep` until a process yields it:
        #: the only sleep token a process may yield, and only once.
        self._sleep_token: Optional[int] = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (diagnostic).

        Timed calls (:meth:`_call_later`, :meth:`sleep` wakes,
        :meth:`_push_reserved`) count as the timeouts they replace;
        deferred calls (:meth:`_defer`, :meth:`_unpark`) are not events
        and do not count.
        """
        return self._event_count

    # -- factories ----------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` microseconds from now.

        The composable timer: use it where the timer is combined
        (``any_of``/``all_of``), given callbacks, or carries a value.  A
        process that only waits should :meth:`sleep` instead.  The event
        is assembled directly -- pre-triggered and pre-scheduled --
        without the generic ``Event.__init__``/``_schedule`` machinery.
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
            heappush(self._heap, (self._now + delay, self._seq, None, event))
        else:
            self._nowq.append((self._seq, None, event))
        return event

    def sleep(self, delay: float) -> Any:
        """Suspend the running process for ``delay`` microseconds.

        ``yield sim.sleep(d)`` behaves exactly like ``yield
        sim.timeout(d)`` -- the same position in the schedule, the same
        event count -- but builds no event: the wake is a timed call
        that resumes the process directly.  The returned token must be
        yielded at once; a wake whose token the process is no longer
        waiting on (after an interrupt, or a sleep never yielded) is
        dropped.  ``sleep(0)`` is a zero-delay :meth:`timeout`.
        """
        proc = self._active
        if proc is None:
            raise RuntimeError(
                "sleep() called outside a running process; use "
                "timeout() for a timer outside process code")
        if not 0.0 < delay < _INF:
            if delay == 0.0:
                return self.timeout(0.0)
            _reject_delay("sleep delay", delay)
        self._seq += 1
        token = self._seq
        heappush(self._heap, (self._now + delay, token, proc._wake, token))
        self._sleep_token = token
        return token

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
            heappush(self._heap, (self._now + delay, self._seq, None, event))
        else:
            self._nowq.append((self._seq, None, event))

    def _call_later(self, delay: float, fn: Callable[[Any], None],
                    arg: Any = None) -> None:
        """Call ``fn(arg)`` ``delay`` from now, where ``timeout(delay)``
        created now would fire, without creating an event.

        For timers only their own callback sees (wire transit, NIC
        service and retransmission).  The call goes on the heap even at
        zero delay and counts in :attr:`events_processed`, exactly as
        the timeout it replaces.
        """
        if not 0.0 <= delay < _INF:
            _reject_delay("timeout delay", delay)
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, fn, arg))

    def _defer(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Call ``fn(arg)`` at the current instant, where a zero-delay
        event created now would fire, without creating an event.

        For callbacks nobody else can wait on (the NIC's hand-off): the
        call keeps its place among same-instant events but is not an
        event, so it does not count in :attr:`events_processed`.
        """
        self._seq += 1
        self._nowq.append((self._seq, fn, arg))

    def _park(self, name: str) -> Wait:
        """Park the running process: it yields the returned placeholder
        and stays suspended until :meth:`_unpark` resumes it.

        ``name`` labels the wait in stall diagnostics
        (:attr:`Process.waiting_on`).
        """
        proc = self._active
        if proc is None:
            raise RuntimeError("_park() called outside a running process")
        return Wait(proc, name)

    def _unpark(self, wait: Wait) -> None:
        """Resume the process parked on ``wait`` at the current instant,
        where ``succeed()`` on an event it waited on would fire.

        A deferred call, so not an event.  If the process has since
        stopped waiting on ``wait`` (an interrupt), the resume is
        dropped.
        """
        self._seq += 1
        self._nowq.append((self._seq, wait.process._wake, wait))

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

    def _push_reserved(self, when: float, seq: int,
                       fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule the timed call ``fn(arg)`` at a reserved event's
        ``(when, seq)`` position.

        It goes on the heap even when ``when`` is now: its seq may be
        older than work already on the now-queue, which the run loop's
        heap-top check then lets it overtake.
        """
        heappush(self._heap, (when, seq, fn, arg))

    # -- execution --------------------------------------------------------
    def step(self) -> None:
        """Process exactly one unit of work: an event, a timed call or a
        deferred call."""
        nowq = self._nowq
        heap = self._heap
        if nowq and not (heap and heap[0][0] == self._now
                         and heap[0][1] < nowq[0][0]):
            seq, fn, arg = nowq.popleft()
            self._cur_seq = seq
            if fn is not None:
                fn(arg)
                return
        elif heap:
            when, seq, fn, arg = heappop(heap)
            self._now = when
            self._cur_seq = seq
        else:
            raise RuntimeError("no events to process")
        self._event_count += 1
        if fn is not None:
            fn(arg)
            return
        callbacks = arg.callbacks
        arg.callbacks = None  # mark processed
        for callback in callbacks:
            callback(arg)
        if arg._ok is False and not arg._defused:
            # A failed event nobody waited on is a programming error:
            # surface it rather than letting it pass silently.
            raise arg.value

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
        # at ``now``.  Only an event's callbacks can request the stop,
        # so calls skip that check.
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
                            and heap[0][1] < nowq[0][0]:
                        # Same instant, earlier seq: no clock change.
                        when, seq, fn, arg = pop(heap)
                    else:
                        seq, fn, arg = popleft()
                        if fn is not None:
                            self._cur_seq = seq
                            fn(arg)
                            continue
                elif heap:
                    if heap[0][0] > stop_at:
                        self._now = until
                        break
                    when, seq, fn, arg = pop(heap)
                    self._now = when
                else:
                    break
                self._cur_seq = seq
                count += 1
                if fn is not None:
                    fn(arg)
                    continue
                callbacks = arg.callbacks
                arg.callbacks = None  # mark processed
                if len(callbacks) == 1:
                    callbacks[0](arg)
                else:
                    for callback in callbacks:
                        callback(arg)
                if arg._ok is False and not arg._defused:
                    raise arg.value
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
