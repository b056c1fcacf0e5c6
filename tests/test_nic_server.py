"""The NIC's closed-form FIFO servers.

The LANai's transmit and receive contexts are callback-driven FIFO
servers (``repro.network.nic._FifoServer``) rather than generator
processes.  They must place every event that has an effect at the same
``(time, seq)`` heap position the process model did, so every simulated
result stays bit-identical.  Two kinds of check hold them to that:

* a table of digests (runtime, every stats counter, the application
  output) of small runs over every NIC path, recorded with the
  process-based NIC;
* unit tests of the tie-breaks, each driving the same scenario through
  the server and through a reference copy of the process model (a
  generator context on a put/get FIFO) and comparing what happened when.
"""

import hashlib
import json
import random
from collections import deque

import numpy as np
import pytest

from repro import Cluster, TuningKnobs
from repro.apps import Barnes, NowSort, RadixSort
from repro.network.faults import FaultPlan
from repro.serve import KVServe
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Recorded digests over every NIC path.
# ---------------------------------------------------------------------------

def _canonical(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return [data.dtype.str, list(data.shape),
                hashlib.sha256(data.tobytes()).hexdigest()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if hasattr(value, "to_dict"):
        return _canonical(value.to_dict())
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _digest(result):
    value = {"runtime_us": result.runtime_us,
             "stats": result.stats.to_dict(),
             "output": result.output}
    text = json.dumps(_canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _radix():
    return RadixSort(keys_per_proc=64)


def _nowsort():
    return NowSort(records_per_proc=256)


#: name → (cluster, application factory).  Small runs, one per NIC path.
CASES = {
    # The transmit stall after every injection (delta_g).
    "delta_g": (lambda: Cluster(4, seed=1,
                                knobs=TuningKnobs(delta_g=20.0)), _radix),
    # The receive delay queue (delta_L).
    "delta_L": (lambda: Cluster(4, seed=1,
                                knobs=TuningKnobs(delta_L=25.0)), _radix),
    # The per-byte stall after each bulk fragment (delta_G).
    "delta_G": (lambda: Cluster(4, seed=1,
                                knobs=TuningKnobs(delta_G=0.05)), _nowsort),
    # Occupancy at both contexts: the receive server and pre-injection
    # time on short packets and on DMAed fragments.
    "delta_occ": (lambda: Cluster(4, seed=1,
                                  knobs=TuningKnobs(delta_occ=3.0)), _radix),
    "delta_occ_bulk": (lambda: Cluster(4, seed=1,
                                       knobs=TuningKnobs(delta_occ=3.0)),
                       _nowsort),
    # Occupancy above the gap: pre-injection time covers the whole gap,
    # so every stall is zero.
    "occ_over_gap": (lambda: Cluster(4, seed=1,
                                     knobs=TuningKnobs(delta_occ=6.0)),
                     _radix),
    # Every dial at once.
    "all_dials": (lambda: Cluster(4, seed=2, knobs=TuningKnobs(
        delta_o=2.0, delta_g=7.0, delta_L=11.0, delta_G=0.02,
        delta_occ=1.5)), _nowsort),
    # Drops of every kind: ARQ retransmits through the transmit queue.
    "drop_all": (lambda: Cluster(4, seed=3,
                                 faults=FaultPlan(drop_rate=0.03)), _radix),
    # Drops of CREDITs only: every retransmit is a CREDIT, which
    # bypasses the transmit context.
    "drop_credit": (lambda: Cluster(4, seed=3, faults=FaultPlan(
        drop_rate=0.4, drop_kinds=("credit",))), _nowsort),
    # Drops under a dialed gap: retransmits queue behind stalls.
    "drop_gap": (lambda: Cluster(4, seed=4, knobs=TuningKnobs(delta_g=9.0),
                                 faults=FaultPlan(drop_rate=0.03)),
                 _nowsort),
    # One-way bulk transfers at baseline (NOW-sort).
    "oneway_bulk": (lambda: Cluster(4, seed=1), _nowsort),
    # Bulk replies (Barnes fetches cells with reply_bulk).
    "bulk_reply": (lambda: Cluster(4, seed=1),
                   lambda: Barnes(bodies_per_proc=8, steps=1)),
    # A serving point past its knee (o dialed to 25 us): deep receive
    # queues, credit back-pressure, a "saturated" verdict.
    "serve_saturated": (lambda: Cluster(8, seed=5,
                                        knobs=TuningKnobs(delta_o=22.1)),
                        lambda: KVServe(replication="primary-backup",
                                        offered_rps=400_000.0,
                                        max_requests=2000,
                                        duration_us=20_000.0,
                                        max_backlog=256)),
    # The switched and shared-medium fabrics drive the same NIC.
    "myrinet": (lambda: Cluster(4, seed=1, fabric="myrinet",
                                knobs=TuningKnobs(delta_g=5.0)), _radix),
    "ethernet": (lambda: Cluster(4, seed=1, fabric="ethernet"), _radix),
}

#: Digests recorded with the process-based NIC contexts (generator
#: loops on a put/get FIFO), before the closed-form servers replaced them.
DIGESTS = {
    "all_dials": ("7a22b91979f45293b3331541e78c8c8ab0f58adb"
                  "b27b3f0221e25b701ac3a368"),
    "bulk_reply": ("93437d8c5a0e2dd0b923406353a81584d50b88dd"
                   "5ad5740951aa40da35121469"),
    "delta_G": ("c8c189b7c4cbbf8288cb5fabfa1cd88d15ab354f"
                "76f2f38823651535a89626cf"),
    "delta_L": ("6bad5099bcc460172b298940d8f462400f646afb"
                "0bcf6b59e1ddffb86eb4a908"),
    "delta_g": ("7e8b517cb7e95bedb05ab445c6f703e1ff7c4cdc"
                "4ef1f3e13776072ba3ebf5e7"),
    "delta_occ": ("7bbafdb03b923dc4f6cf682b059dbbdad6ef59c1"
                  "3b8b108ab42391b57029ba65"),
    "delta_occ_bulk": ("6027d7b5f09de2ed9758054b25d490a92f9956ae"
                       "6ae836366aff421f022e4151"),
    "drop_all": ("3bb4af45ed9ab0b40f0dde1c8a71812556dea290"
                 "b161bf58862842b582c0b5b9"),
    "drop_credit": ("7d6c76a8b4df44a65b3ba0779be1e031c60da152"
                    "ec00c66b2798e8a3ce4fe53f"),
    "drop_gap": ("9e52ecf80fbc1d07d2b84094b705035a47973403"
                 "256a55e2b7274d2176d7e707"),
    "ethernet": ("e8b466a9dbabf78800553501228779cc067a5f5e"
                 "c6c9cc1342ef932869d26cec"),
    "myrinet": ("fe1ae3272670ce162ad43213d874980dfb979627"
                "b60d64c14d867cbd65fc8520"),
    "occ_over_gap": ("e1075ac9198bb0fcf357cece8009938e9ea94534"
                     "fe1abf14396037ce7e014313"),
    "oneway_bulk": ("c5590231679bf3640f41d51efc1f592bccf9cf9b"
                    "102bcf70f69c87d12b4d1b6e"),
    "serve_saturated": ("f5dc38f399f978ce7e55df22aa9d740077b5b7bd"
                        "0c32e874ea972a9ede9e58a5"),
}


def _run_case(name):
    make_cluster, make_app = CASES[name]
    return make_cluster().run(make_app())


@pytest.mark.parametrize("name", sorted(CASES))
def test_nic_paths_match_recorded_digests(name):
    assert _digest(_run_case(name)) == DIGESTS[name]


# ---------------------------------------------------------------------------
# Tie-breaks, against a reference copy of the process model.
# ---------------------------------------------------------------------------

class _ReferenceContext:
    """The model the servers replaced: a generator context blocked on a
    put/get FIFO.  ``put`` schedules a no-op put event, as the FIFO's
    put did; the hand-off is the succeeded ``get``."""

    def __init__(self, sim, pre, act):
        self.sim = sim
        self._items = deque()
        self._getters = deque()
        sim.process(self._loop(pre, act))

    def put(self, packet):
        done = self.sim.event()
        if self._getters:
            self._getters.popleft().succeed(packet)
        else:
            self._items.append(packet)
        done.succeed(None)

    def _get(self):
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def _loop(self, pre, act):
        while True:
            packet = yield self._get()
            pre_time = pre(packet)
            if pre_time > 0:
                yield self.sim.timeout(pre_time)
            stall = act(packet, pre_time)
            if stall > 0:
                yield self.sim.timeout(stall)


def _server(sim, pre, act):
    from repro.network.nic import _FifoServer
    return _FifoServer(sim, pre, act)


def _play(make, packets, puts, probes=(), early_probes=()):
    """Drive one context through a scenario; return what happened when.

    ``packets`` maps a packet name to its ``(pre, stall)``.  ``puts``
    lists ``(created_at, delay, name)``: a timer created at
    ``created_at`` puts ``name`` ``delay`` later (``created_at=None``
    puts it directly, before the run).  Probes are ``(created_at, delay,
    tag)`` timers that log when they fire, to pin where the context's
    actions fall among other same-instant events; ``early_probes`` are
    created before the context itself.
    """
    sim = Simulator()
    log = []

    def later(created_at, delay, callback):
        if created_at == 0.0:
            sim.timeout(delay).callbacks.append(callback)
        else:
            sim.timeout(created_at).callbacks.append(
                lambda _e: sim.timeout(delay).callbacks.append(callback))

    def probe(created_at, delay, tag):
        later(created_at, delay,
              lambda _e: log.append((sim.now, "probe", tag)))

    for args in early_probes:
        probe(*args)

    def act(name, pre):
        log.append((sim.now, "act", name, pre))
        return packets[name][1]

    context = make(sim, lambda name: packets[name][0], act)
    for created_at, delay, name in puts:
        if created_at is None:
            context.put(name)
        else:
            later(created_at, delay,
                  lambda _e, name=name: context.put(name))
    for args in probes:
        probe(*args)
    sim.run()
    return log, sim.now, sim.events_processed


def _assert_same(packets, puts, probes=(), early_probes=()):
    got, now, events = _play(_server, packets, puts, probes, early_probes)
    want, want_now, want_events = _play(_ReferenceContext, packets, puts,
                                        probes, early_probes)
    assert got == want
    assert now == want_now
    assert events <= want_events
    return got, want_events - events


def test_enqueue_at_free_at_before_the_reserved_seq_waits_for_the_stall():
    # A's stall ends at t=5.  B's put timer was created before the stall
    # reserved its place, so at t=5 B finds the stall still running: the
    # stall-end event is pushed at its reserved place and hands B off.
    log, saved = _assert_same({"A": (0.0, 5.0), "B": (0.0, 5.0)},
                              puts=[(0.0, 0.0, "A"), (0.0, 5.0, "B")],
                              probes=[(1.0, 4.0, "made-at-1")])
    assert log == [(0.0, "act", "A", 0.0), (5.0, "probe", "made-at-1"),
                   (5.0, "act", "B", 0.0)]
    # Saved: the kickoff, both puts, B's final stall, and both
    # hand-offs (deferred calls, which are not events).
    assert saved == 6


def test_enqueue_at_free_at_after_the_reserved_seq_starts_at_once():
    # B's put timer is created at t=1, after A's stall reserved its
    # place: at t=5 the stall has already ended, so B is handed off by
    # its put -- behind the probe that was already scheduled for t=5.
    log, saved = _assert_same({"A": (0.0, 5.0), "B": (0.0, 5.0)},
                              puts=[(0.0, 0.0, "A"), (1.0, 4.0, "B")],
                              probes=[(1.0, 4.0, "made-at-1")])
    assert log == [(0.0, "act", "A", 0.0), (5.0, "probe", "made-at-1"),
                   (5.0, "act", "B", 0.0)]
    # Saved: the kickoff, both puts, both stalls, and both hand-offs.
    assert saved == 7


def test_enqueue_at_time_zero_before_the_first_event():
    # The server starts in a virtual stall at (0, its construction
    # seq): a put before the run pushes it, so the hand-off lands behind
    # every zero-delay event created before the server was.
    log, _ = _assert_same({"A": (0.0, 2.0), "B": (0.0, 2.0)},
                          puts=[(None, 0.0, "A"), (None, 0.0, "B")],
                          probes=[(0.0, 0.0, "after")],
                          early_probes=[(0.0, 0.0, "before")])
    assert log == [(0.0, "probe", "before"), (0.0, "probe", "after"),
                   (0.0, "act", "A", 0.0), (2.0, "act", "B", 0.0)]


def test_zero_stall_hands_off_the_next_packet_at_once():
    # A zero stall (delta_g=0 with the gap already covered, as by a long
    # DMA): nothing separates back-to-back packets but the hand-off.
    log, _ = _assert_same({name: (0.0, 0.0) for name in "ABC"},
                          puts=[(0.0, 1.0, "A"), (0.0, 1.0, "B"),
                                (0.0, 1.0, "C"), (0.0, 3.0, "A")],
                          probes=[(0.0, 1.0, "t1"), (0.0, 3.0, "t3")])
    assert [entry[:3] for entry in log] == [
        (1.0, "probe", "t1"), (1.0, "act", "A"), (1.0, "act", "B"),
        (1.0, "act", "C"), (3.0, "probe", "t3"), (3.0, "act", "A")]


@pytest.mark.parametrize("source", ["dma", "occupancy"])
def test_pre_injection_time_delays_service_not_the_hand_off(source):
    # Time before injection: a DMA of the fragment (bulk only) or
    # dialed occupancy (every packet).  A fragment's DMA outlasts the
    # gap, leaving no stall; occupancy adds to every packet.
    if source == "dma":
        packets = {"frag": (4096 / 38.0, 0.0), "short": (0.0, 5.8)}
    else:
        packets = {"frag": (3.0 + 4096 / 38.0, 0.0), "short": (3.0, 2.8)}
    log, _ = _assert_same(packets,
                          puts=[(0.0, 0.0, "frag"), (0.0, 0.0, "short"),
                                (0.0, 50.0, "frag"), (0.0, 500.0, "short"),
                                (0.0, 501.0, "short")],
                          probes=[(0.0, 500.0, "t500")])
    acts = [entry for entry in log if entry[1] == "act"]
    assert [entry[2] for entry in acts] == \
        ["frag", "short", "frag", "short", "short"]
    assert all(entry[3] == packets[entry[2]][0] for entry in acts)


def test_drained_run_ends_at_the_last_virtual_stall():
    # Nothing waits behind the final stall, so it is never scheduled;
    # the drained run still ends when it would have.
    _, now, _ = _play(_server, {"A": (1.0, 7.0)}, puts=[(0.0, 2.0, "A")])
    assert now == 10.0
    _assert_same({"A": (1.0, 7.0)}, puts=[(0.0, 2.0, "A")])


@pytest.mark.parametrize("seed", range(20))
def test_random_schedules_match_the_process_model(seed):
    rng = random.Random(seed)
    times = (0.0, 0.5, 1.0, 1.0, 2.5, 4.0, 5.8, 7.0)
    packets = {f"p{i}": (rng.choice((0.0, 0.0, 1.0, 2.5)),
                         rng.choice((0.0, 1.0, 2.5, 5.8)))
               for i in range(8)}
    names = sorted(packets)
    puts = [(rng.choice((None,) + times[:4]), rng.choice(times),
             rng.choice(names))
            for _ in range(rng.randrange(3, 14))]
    probes = [(rng.choice(times[:4]), rng.choice(times), f"q{i}")
              for i in range(rng.randrange(0, 6))]
    _assert_same(packets, puts, probes,
                 early_probes=[(0.0, rng.choice(times), "early")])
