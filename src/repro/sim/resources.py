"""Shared resources for simulation processes.

:class:`Resource` is a counted, FCFS resource (a disk arm, a shared
medium, a switch link).  ``request()`` returns an event that succeeds
when a slot is granted; ``release()`` frees it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.events import Event

__all__ = ["Resource", "ResourceError"]


class ResourceError(RuntimeError):
    """Raised on misuse of a resource (e.g. releasing more than held)."""


class Resource:
    """A counted FCFS resource.

    Typical use inside a process::

        req = resource.request()
        yield req
        try:
            yield sim.sleep(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,  # noqa: F821
                 name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently granted."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Event:
        """Ask for a slot; the returned event succeeds when granted."""
        event = Event(self.sim, name=f"req:{self.name}")
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(None)
        else:
            self._queue.append(event)
        return event

    def release(self) -> None:
        """Free one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise ResourceError(f"release() on idle resource {self.name!r}")
        if self._queue:
            # Hand the slot straight to the next waiter; _in_use unchanged.
            self._queue.popleft().succeed(None)
        else:
            self._in_use -= 1

    def cancel(self, request: Event) -> bool:
        """Withdraw a pending request.  Returns False if already granted."""
        try:
            self._queue.remove(request)
        except ValueError:
            return False
        return True

