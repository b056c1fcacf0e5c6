"""Parallel sweep engine, on-disk run cache, and determinism regression.

The parallel harness promises results *bit-identical* to the serial
path (same seed → same ``runtime_us`` and ``events_processed``), the
same ``N/A`` handling for livelocked / over-budget points, and that a
cache hit reproduces the original run's counters exactly.
"""

import json

import pytest

from repro.am.tuning import TuningKnobs
from repro.apps import Barnes, RadixSort
from repro.cluster.machine import Cluster
from repro.harness import RunCache, overhead_sweep
from repro.harness.parallel import default_jobs, run_experiments_parallel
from repro.harness.runcache import run_key_spec
from repro.harness.sweeps import SweepPoint, SweepResult, run_sweep
from repro.network.loggp import LogGPParams


def tiny_radix():
    return RadixSort(keys_per_proc=32)


def sweep_fingerprint(sweep):
    """Everything determinism guarantees: runtimes, events, failures."""
    return [(p.value,
             p.runtime_us,
             p.result.events_processed if p.completed else None,
             p.failure is not None)
            for p in sweep.points]


# ---------------------------------------------------------------------------
# Determinism regression.
# ---------------------------------------------------------------------------

def test_same_config_runs_identically_twice():
    knobs = TuningKnobs.added_overhead(10.0)
    first = Cluster(n_nodes=4, knobs=knobs, seed=3).run(tiny_radix())
    second = Cluster(n_nodes=4, knobs=knobs, seed=3).run(tiny_radix())
    assert first.runtime_us == second.runtime_us
    assert first.events_processed == second.events_processed
    assert (first.stats.matrix == second.stats.matrix).all()


def test_parallel_sweep_bit_identical_to_serial():
    serial = overhead_sweep(tiny_radix(), n_nodes=4,
                            overheads=(2.9, 22.9, 52.9), seed=7)
    for jobs in (2, default_jobs()):
        parallel = overhead_sweep(tiny_radix(), n_nodes=4,
                                  overheads=(2.9, 22.9, 52.9), seed=7,
                                  jobs=jobs)
        assert sweep_fingerprint(serial) == sweep_fingerprint(parallel)


def test_run_sweep_parallel_defaults_match_serial():
    serial = run_sweep(tiny_radix(), 4, "overhead", (0.0, 20.0),
                       TuningKnobs.added_overhead)
    parallel = run_sweep(tiny_radix(), 4, "overhead", (0.0, 20.0),
                         TuningKnobs.added_overhead, jobs=default_jobs())
    assert sweep_fingerprint(serial) == sweep_fingerprint(parallel)


# ---------------------------------------------------------------------------
# N/A (livelock and run-budget) points through both engines.
# ---------------------------------------------------------------------------

def test_budget_exceeded_point_is_na_serial_and_parallel():
    baseline = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    limit = baseline.runtime_us * 2.0
    for jobs in (None, 2):
        sweep = overhead_sweep(tiny_radix(), n_nodes=4,
                               overheads=(2.9, 102.9),
                               run_limit_us=limit, jobs=jobs)
        assert sweep.points[0].completed
        assert not sweep.points[1].completed
        assert "budget exceeded" in sweep.points[1].failure
        assert sweep.slowdowns() == [1.0, None]
        assert sweep.as_rows()[1]["slowdown"] == "N/A"


def test_livelock_point_is_na_serial_and_parallel():
    # The baseline machine peaks at 88 failed lock attempts per rank;
    # +25 us of overhead blows far past it (the paper's Barnes DNF
    # regime), so a 150-attempt budget separates the two points.
    app = Barnes(bodies_per_proc=16, steps=1)
    for jobs in (None, 2):
        sweep = overhead_sweep(app, n_nodes=8, overheads=(2.9, 27.9),
                               seed=21, livelock_limit=150, jobs=jobs)
        assert sweep.points[0].completed
        assert not sweep.points[1].completed
        assert "livelock" in sweep.points[1].failure
        assert sweep.slowdowns() == [1.0, None]


def test_series_raises_clearly_on_failed_baseline():
    sweep = SweepResult(app_name="Radix", n_nodes=4, parameter="overhead")
    sweep.points = [SweepPoint(value=2.9, knobs=TuningKnobs(),
                               failure="livelock: budget"),
                    SweepPoint(value=12.9, knobs=TuningKnobs())]
    with pytest.raises(RuntimeError, match="baseline run did not complete"):
        sweep.series()
    with pytest.raises(RuntimeError, match="baseline run did not complete"):
        sweep.slowdowns()


def test_step_on_empty_heap_raises_clear_error():
    from repro.sim import Simulator
    with pytest.raises(RuntimeError, match="no events to process"):
        Simulator().step()


# ---------------------------------------------------------------------------
# Run cache: miss, hit, invalidation.
# ---------------------------------------------------------------------------

def test_cache_miss_then_hit_restores_counters(tmp_path):
    cache = RunCache(tmp_path)
    cold = overhead_sweep(tiny_radix(), n_nodes=4,
                          overheads=(2.9, 22.9), cache=cache)
    assert cache.misses == 2 and cache.hits == 0
    assert len(cache) == 2

    warm = overhead_sweep(tiny_radix(), n_nodes=4,
                          overheads=(2.9, 22.9), cache=cache)
    assert cache.hits == 2
    assert sweep_fingerprint(cold) == sweep_fingerprint(warm)
    # Full stats survive the JSON round-trip (Table 5/6 need them).
    assert (warm.points[0].result.stats.matrix
            == cold.points[0].result.stats.matrix).all()
    # finalize() output is deliberately not cached.
    assert warm.points[0].result.output is None


def test_cache_stores_failures_too(tmp_path):
    cache = RunCache(tmp_path)
    app = Barnes(bodies_per_proc=16, steps=1)
    kwargs = dict(n_nodes=8, overheads=(2.9, 27.9), seed=21,
                  livelock_limit=150, cache=cache)
    cold = overhead_sweep(app, **kwargs)
    warm = overhead_sweep(app, **kwargs)
    assert cache.hits == 2
    assert not warm.points[1].completed
    assert warm.points[1].failure == cold.points[1].failure


def test_cache_key_depends_on_full_configuration(tmp_path):
    params = LogGPParams.berkeley_now()
    base = dict(n_nodes=4, params=params, knobs=TuningKnobs(), seed=0)
    key = RunCache.key_for(run_key_spec(tiny_radix(), **base))
    assert key == RunCache.key_for(run_key_spec(tiny_radix(), **base))

    variations = [
        run_key_spec(tiny_radix(), **{**base, "seed": 1}),
        run_key_spec(tiny_radix(), **{**base, "n_nodes": 8}),
        run_key_spec(tiny_radix(),
                     **{**base, "knobs": TuningKnobs.added_gap(5.0)}),
        run_key_spec(RadixSort(keys_per_proc=64), **base),
        run_key_spec(tiny_radix(), **base, run_limit_us=10.0),
        run_key_spec(tiny_radix(), **base, livelock_limit=5),
    ]
    keys = {RunCache.key_for(spec) for spec in variations}
    assert len(keys) == len(variations)  # all distinct...
    assert key not in keys  # ...and none collides with the base


def test_cache_corrupt_entry_counts_as_miss(tmp_path):
    cache = RunCache(tmp_path)
    spec = run_key_spec(tiny_radix(), 4, LogGPParams.berkeley_now(),
                        TuningKnobs(), seed=0)
    result = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    cache.put(spec, result=result)
    path = cache._path(cache.key_for(spec))
    path.write_text("{not json")
    assert cache.get(spec) is None
    # A fresh put repairs the entry.
    cache.put(spec, result=result)
    restored, failure = cache.get(spec)
    assert failure is None
    assert restored.runtime_us == result.runtime_us


def test_cache_format_bump_invalidates(tmp_path):
    cache = RunCache(tmp_path)
    spec = run_key_spec(tiny_radix(), 4, LogGPParams.berkeley_now(),
                        TuningKnobs(), 0)
    result = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    cache.put(spec, result=result)
    path = cache._path(cache.key_for(spec))
    data = json.loads(path.read_text())
    data["spec"]["format"] = -1
    path.write_text(json.dumps(data))
    assert cache.get(spec) is None


def test_cache_clear(tmp_path):
    cache = RunCache(tmp_path)
    overhead_sweep(tiny_radix(), n_nodes=2, overheads=(2.9,), cache=cache)
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Experiment-level fan-out.
# ---------------------------------------------------------------------------

def test_run_experiments_parallel_matches_serial():
    requests = [
        ("table3_baseline_runtimes",
         {"node_counts": (4,), "scale": 0.02, "names": ["Radix"]}),
        ("table3_baseline_runtimes",
         {"node_counts": (4,), "scale": 0.02, "names": ["Connect"]}),
    ]
    serial = run_experiments_parallel(requests, jobs=1)
    fanned = run_experiments_parallel(requests, jobs=2)
    assert [t.runtimes for t in serial] == [t.runtimes for t in fanned]


def test_run_experiments_parallel_rejects_unknown_name():
    with pytest.raises(KeyError, match="no_such_experiment"):
        run_experiments_parallel([("no_such_experiment", {})])
