"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, Simulator
from repro.sim.resources import ResourceError


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    first, second, third = res.request(), res.request(), res.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert res.in_use == 2 and res.queue_length == 1


def test_resource_release_wakes_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append(("got", tag, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(user("a", 5.0))
    sim.process(user("b", 3.0))
    sim.process(user("c", 1.0))
    sim.run()
    assert order == [("got", "a", 0.0), ("got", "b", 5.0),
                     ("got", "c", 8.0)]


def test_resource_release_idle_is_error():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(ResourceError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_cancel_pending_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = res.request()
    pending = res.request()
    assert res.cancel(pending) is True
    assert res.queue_length == 0
    assert res.cancel(granted) is False  # already granted, not queued

