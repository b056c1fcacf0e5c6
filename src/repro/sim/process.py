"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator yields
:class:`~repro.sim.events.Event` objects (or other processes, which are
events themselves) to suspend; it resumes with the event's value via
``send`` or, on event failure, has the exception thrown into it.  The
process is itself an event that triggers when the generator returns.

Two suspensions need no event.  ``yield sim.sleep(d)`` yields a sleep
token; the kernel's timed wake resumes the process directly.  A process
*parked* by the kernel (``Simulator._park``, the AM layer's wait for
the next arrival) yields a :class:`Wait` placeholder and is resumed by
``Simulator._unpark``.  Both resume through :meth:`Process._wake`,
which drops any token the process is no longer waiting on.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Union

from repro.sim.events import Event

__all__ = ["Process", "Interrupt", "Wait"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Wait:
    """A named placeholder for a suspension without an event: what
    :attr:`Process.waiting_on` reports for a parked or sleeping
    process, so stall diagnostics can say what it is blocked on."""

    __slots__ = ("process", "name")

    def __init__(self, process: "Process", name: str) -> None:
        self.process = process
        self.name = name

    def __repr__(self) -> str:
        return f"<Wait {self.name}>"


class Process(Event):
    """A running simulation process; also an event (its own completion)."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator",  # noqa: F821
                 generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(generator)!r};"
                " did you forget a 'yield'?")
        super().__init__(sim, name=name or getattr(
            generator, "__name__", "process"))
        self._generator = generator
        # Kick off on the next simulator step at the current time.  The
        # kickoff event doubles as the initial _waiting_on target so stray
        # wakeups can never resume the process.
        kickoff = Event(sim, name=f"init:{self.name}")
        #: What the process is suspended on: an event, a sleep token
        #: (int) or a parked :class:`Wait`; None while running.
        self._waiting_on: Union[Event, int, Wait, None] = kickoff
        kickoff.callbacks.append(self._resume)
        kickoff.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def waiting_on(self) -> Union[Event, Wait, None]:
        """What this process is currently suspended on, if anything.

        Diagnostic surface for simsan's stall reports: a live process
        with a never-triggering target here is a blocked rank.  A
        sleeping or parked process reports a named :class:`Wait`.
        """
        target = self._waiting_on
        if target.__class__ is int:
            when = next((entry[0] for entry in self.sim._heap
                         if entry[1] == target), None)
            return Wait(self, f"sleep until t={when}")
        return target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt wins over whatever the process is currently
        waiting on; that event's eventual trigger (or that sleep's wake)
        is then ignored.  Interrupting a finished process is an error.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished {self!r}")
        # Detach from the current wait so its wakeup is discarded.
        self._waiting_on = None
        bridge = Event(self.sim, name=f"interrupt:{self.name}")
        bridge.callbacks.append(lambda _e: self._throw(Interrupt(cause)))
        bridge.succeed(None)

    # -- stepping ---------------------------------------------------------
    # ``_resume`` and ``_wake`` run once per process wakeup, so each
    # inlines the send rather than sharing a helper; ``sim._active``
    # names the running process for ``Simulator.sleep`` and
    # ``Simulator._park`` while its generator runs.
    def _resume(self, event: Event) -> None:
        # A processed event always has ``_ok`` decided, so read the slot
        # directly rather than the raising ``ok`` property.
        if event is not self._waiting_on:
            # Stale wakeup from an event abandoned by an interrupt.
            return
        self._waiting_on = None
        if not event._ok:
            event._defused = True
            self._throw(event._value)
            return
        sim = self.sim
        sim._active = self
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001
            # simlint: disable=broad-except - any generator death must
            # become a process failure, never a lost exception.
            self.fail(exc)
            return
        finally:
            sim._active = None
        self._wait_on(target)

    def _wake(self, token: Any) -> None:
        """Resume from a sleep wake or an unpark carrying ``token``."""
        if token is not self._waiting_on:
            # A sleep abandoned by an interrupt or never yielded.
            return
        self._waiting_on = None
        sim = self.sim
        sim._active = self
        try:
            target = self._generator.send(None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001
            # simlint: disable=broad-except - any generator death must
            # become a process failure, never a lost exception.
            self.fail(exc)
            return
        finally:
            sim._active = None
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        sim = self.sim
        sim._active = self
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001
            # simlint: disable=broad-except - any generator death must
            # become a process failure, never a lost exception.
            self.fail(err)
            return
        finally:
            sim._active = None
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        cls = target.__class__
        if cls is int and target == self.sim._sleep_token:
            self.sim._sleep_token = None
            self._waiting_on = target
            return
        if cls is Wait and target.process is self:
            self._waiting_on = target
            return
        if not isinstance(target, Event):
            exc = TypeError(
                f"process {self.name!r} yielded non-event {target!r}")
            self._throw(exc)
            return
        if target.sim is not self.sim:
            self._throw(ValueError(
                "yielded event belongs to a different simulator"))
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: add_callback bridges via a fresh event.
            target.add_callback(self._resume)
        else:
            callbacks.append(self._resume)
