"""Campaign manager, result store, and crash-safety regressions.

The campaign layer's contract is that no completed point is ever lost:
a SIGKILLed worker, an interrupted campaign, or a mid-sweep crash must
leave every finished point durable (store row and/or cache entry), and
the rerun must recompute exactly the points that never completed —
producing artifacts byte-identical to an uninterrupted run.
"""

import json
import os
import signal
import sqlite3
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.am.tuning import TuningKnobs
from repro.apps import RadixSort
from repro.cluster.machine import Cluster
from repro.coll.tuner import CollConfig
from repro.harness import (CampaignInterrupted, CampaignSpec, ResultStore,
                           RunCache, ensemble_from_store, overhead_sweep,
                           render_campaign, run_campaign,
                           run_experiments_parallel, run_sweep,
                           sweep_from_store)
from repro.harness import parallel as parallel_mod
from repro.harness.parallel import execute_point
from repro.harness.runcache import run_key_spec
from repro.harness.store import STORE_SCHEMA_VERSION
from repro.harness.sweeps import knob_factory
from repro.network.faults import DelaySpike, FaultPlan, SlowdownWindow
from repro.network.loggp import LogGPParams
from repro.serve import KVServe, serving_sweep


def tiny_radix():
    return RadixSort(keys_per_proc=32)


def sweep_fingerprint(sweep):
    """Everything determinism guarantees: runtimes, events, failures."""
    return [(p.value,
             p.runtime_us,
             p.result.events_processed if p.completed else None,
             p.failure is not None)
            for p in sweep.points]


def base_spec():
    return run_key_spec(tiny_radix(), 4, LogGPParams.berkeley_now(),
                        TuningKnobs(), 0)


# ---------------------------------------------------------------------------
# Crashing execute_point stand-ins.  Module-level so fork workers can
# unpickle them by qualified name; configured through module globals,
# which the forked children inherit.
# ---------------------------------------------------------------------------

#: Sweep value whose worker SIGKILLs itself.  Last in every grid below,
#: and the sleep lets the other workers finish and the parent drain
#: their results first, so the crash point is deterministic.
_CRASH_VALUE = 42.9
_CRASH_FLAG = {"path": None}


def _kill_worker_on_marker(task):
    if task.value == _CRASH_VALUE:
        time.sleep(0.6)
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_point(task)


def _kill_worker_once(task):
    """SIGKILL on the marker value only on the first encounter."""
    if task.value == _CRASH_VALUE and not os.path.exists(
            _CRASH_FLAG["path"]):
        open(_CRASH_FLAG["path"], "w").close()
        time.sleep(0.6)
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_point(task)


def _raise_on_marker(task):
    """A bug outside the failure taxonomy, on the marker value only."""
    if task.value == _CRASH_VALUE:
        raise RuntimeError("planted bug in one task")
    return execute_point(task)


# ---------------------------------------------------------------------------
# Satellite 1 regression: a worker crash must not discard the points
# that already finished (the old engine cached only after the batch).
# ---------------------------------------------------------------------------

def test_worker_sigkill_keeps_completed_points(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel_mod, "execute_point",
                        _kill_worker_on_marker)
    cache = RunCache(tmp_path)
    grid = (2.9, 22.9, _CRASH_VALUE)
    # The marker point kills every worker it lands on, so the runner's
    # re-queue rounds run out and the crash surfaces.
    with pytest.raises(BrokenProcessPool):
        overhead_sweep(tiny_radix(), n_nodes=4, overheads=grid,
                       cache=cache, jobs=2)
    # The two points that completed before the crash are already on
    # disk — this is the regression: they used to be lost.
    assert len(cache) == 2

    monkeypatch.undo()  # rerun with the real execute_point
    rerun = overhead_sweep(tiny_radix(), n_nodes=4, overheads=grid,
                           cache=cache, jobs=2)
    assert cache.hits == 2  # only the crashed point was resimulated
    assert cache.misses == 4  # 3 cold probes + the crashed point's rerun
    serial = overhead_sweep(tiny_radix(), n_nodes=4, overheads=grid)
    assert sweep_fingerprint(rerun) == sweep_fingerprint(serial)


def test_serial_sweep_caches_per_point(tmp_path, monkeypatch):
    cache = RunCache(tmp_path)
    seen = []
    real_put = RunCache.put

    def tracking_put(self, spec, result=None, failure=None):
        real_put(self, spec, result=result, failure=failure)
        seen.append(len(self))

    monkeypatch.setattr(RunCache, "put", tracking_put)
    overhead_sweep(tiny_radix(), n_nodes=4, overheads=(2.9, 22.9),
                   cache=cache)
    # Each point landed the moment it finished, not as a final batch.
    assert seen == [1, 2]


# ---------------------------------------------------------------------------
# Satellite 3: address-bearing reprs must fail fast, not silently miss.
# ---------------------------------------------------------------------------

def test_key_for_rejects_address_bearing_repr():
    spec = base_spec()
    spec["app"]["kwargs"]["rng"] = object()  # default repr: <... at 0x...>
    with pytest.raises(ValueError,
                       match=r"spec\.app\.kwargs\.rng .* address"):
        RunCache.key_for(spec)


def test_key_for_allows_address_like_strings():
    # String *content* that merely looks like an address is JSON-native
    # and perfectly stable — only repr fallbacks are rejected.
    spec = base_spec()
    spec["app"]["kwargs"]["note"] = "<thing object at 0xdeadbeef>"
    assert RunCache.key_for(spec) == RunCache.key_for(spec)


def test_campaign_points_fail_fast_on_unstable_app_kwargs(monkeypatch):
    import repro.harness.runcache as runcache_mod
    real = runcache_mod.app_fingerprint

    def poisoned(app):
        fingerprint = real(app)
        fingerprint["kwargs"]["handle"] = object()
        return fingerprint

    monkeypatch.setattr(runcache_mod, "app_fingerprint", poisoned)
    spec = CampaignSpec(name="bad", apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", (2.9,)),), scale=0.05)
    # The error surfaces at expansion time, before any simulation.
    with pytest.raises(ValueError, match="address-bearing repr"):
        spec.points()


# ---------------------------------------------------------------------------
# Satellite 2: orphaned temp files.
# ---------------------------------------------------------------------------

def test_clear_removes_orphaned_tmps(tmp_path):
    cache = RunCache(tmp_path)
    overhead_sweep(tiny_radix(), n_nodes=2, overheads=(2.9,), cache=cache)
    (tmp_path / "orphan123.tmp").write_text("half-written")
    assert cache.clear() == 2  # one entry + one orphan
    assert len(cache) == 0
    assert not (tmp_path / "orphan123.tmp").exists()


def test_sweep_stale_tmps_is_age_gated(tmp_path):
    cache = RunCache(tmp_path)
    fresh = tmp_path / "fresh.tmp"
    fresh.write_text("worker mid-put")
    stale = tmp_path / "stale.tmp"
    stale.write_text("orphan")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    assert cache.sweep_stale_tmps(older_than_s=3600.0) == 1
    assert fresh.exists()  # too young to be an orphan
    assert not stale.exists()


# ---------------------------------------------------------------------------
# Result store.
# ---------------------------------------------------------------------------

def test_store_roundtrip_result_and_failure_rows(tmp_path):
    result = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    spec = base_spec()
    key = RunCache.key_for(spec)
    with ResultStore(tmp_path / "s.sqlite") as store:
        store.put("c", key, app="Radix", n_nodes=4, parameter="overhead",
                  value=2.9, seed=0, spec=spec, result=result)
        store.put("c", "k-na", app="Radix", n_nodes=4,
                  parameter="overhead", value=102.9, seed=0, spec=spec,
                  failure="livelock: budget")
        restored, failure = store.get("c", key)
        assert failure is None
        assert restored.runtime_us == result.runtime_us
        assert restored.events_processed == result.events_processed
        assert (restored.stats.matrix == result.stats.matrix).all()
        assert store.get("c", "k-na") == (None, "livelock: budget")
        assert store.get("c", "absent") is None
        assert store.keys("c") == {key, "k-na"}
        assert store.count("c") == 2 and len(store) == 2
        assert store.count_failures("c") == 1
        assert store.campaigns() == ["c"]
        points = list(store.points("c"))
        assert [p.completed for p in points] == [True, False]
        with pytest.raises(ValueError, match="exactly one"):
            store.put("c", "k-bad", app="Radix", n_nodes=4,
                      parameter="overhead", value=0.0, seed=0, spec=spec)


def test_store_put_is_idempotent_per_key(tmp_path):
    spec = base_spec()
    with ResultStore(tmp_path / "s.sqlite") as store:
        for _ in range(2):  # INSERT OR REPLACE: reruns never duplicate
            store.put("c", "k", app="Radix", n_nodes=4,
                      parameter="overhead", value=2.9, seed=0, spec=spec,
                      failure="budget exceeded: x")
        assert store.count("c") == 1


def test_store_schema_version_mismatch_refuses(tmp_path):
    path = tmp_path / "s.sqlite"
    ResultStore(path).close()
    db = sqlite3.connect(path)
    with db:
        db.execute("UPDATE meta SET value='999' WHERE key='schema'")
    db.close()
    with pytest.raises(ValueError, match="schema v999"):
        ResultStore(path)
    assert STORE_SCHEMA_VERSION != 999


# ---------------------------------------------------------------------------
# Campaign spec: validation and JSON round trip.
# ---------------------------------------------------------------------------

def test_campaign_spec_validation():
    good = dict(apps=("Radix",), node_counts=(4,),
                dials=(("overhead", (2.9,)),))
    with pytest.raises(ValueError, match="non-empty name"):
        CampaignSpec(name="", **good)
    with pytest.raises(ValueError, match="unknown machine"):
        CampaignSpec(name="c", machine="cray-t3d", **good)
    with pytest.raises(ValueError, match="unknown dial"):
        CampaignSpec(name="c", apps=("Radix",), node_counts=(4,),
                     dials=(("frobnication", (1.0,)),))
    with pytest.raises(ValueError, match="no values"):
        CampaignSpec(name="c", apps=("Radix",), node_counts=(4,),
                     dials=(("overhead", ()),))
    spec = CampaignSpec(name="c", **good)
    assert spec.values_for("overhead") == (2.9,)
    with pytest.raises(KeyError, match="no dial"):
        spec.values_for("gap")


def test_campaign_spec_json_round_trip_with_faults_and_coll():
    spec = CampaignSpec(
        name="rt", apps=("Radix", "Connect"), node_counts=(4, 8),
        dials=(("overhead", (2.9, 22.9)), ("drop_rate", (0.0, 0.01))),
        seeds=(0, 7), scale=0.25, machine="meiko-cs2",
        run_limit_us=1e6, livelock_limit=5000, window=4,
        faults=FaultPlan(
            drop_rate=0.001, drop_kinds=("bulk",),
            spikes=(DelaySpike(node=1, start_us=10.0, duration_us=5.0),),
            slowdowns=(SlowdownWindow(node=2, start_us=0.0,
                                      duration_us=50.0, factor=2.0),),
            salt=3),
        coll=CollConfig(policy="model",
                        choices=(("broadcast", "chain"),)))
    round_tripped = CampaignSpec.from_json(spec.to_json())
    assert round_tripped == spec
    # And the round trip preserves point identity, not just equality.
    assert ([p.key for p in round_tripped.points()]
            == [p.key for p in spec.points()])


def test_campaign_spec_from_dict_ignores_stored_engine():
    """Specs stored while the simulator had a selectable scheduling
    engine carry an ``engine`` field; loading ignores it."""
    spec = CampaignSpec(name="legacy", apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", (2.9,)),), scale=0.05)
    stored = dict(spec.to_dict(), engine="calendar")
    loaded = CampaignSpec.from_dict(stored)
    assert loaded == spec
    assert "engine" not in loaded.to_dict()
    assert CampaignSpec.from_json(json.dumps(stored)) == spec


def test_campaign_points_order_and_keys_are_deterministic():
    spec = CampaignSpec(name="order", apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", (2.9, 22.9)),), scale=0.05)
    points = spec.points()
    assert [(p.parameter, p.value) for p in points] == \
        [("overhead", 2.9), ("overhead", 22.9)]
    assert points[0].key != points[1].key
    assert points[0].key == RunCache.key_for(points[0].spec)


# ---------------------------------------------------------------------------
# Tentpole: resumable runner.
# ---------------------------------------------------------------------------

def small_campaign(name, values=(2.9, 12.9, 22.9, 32.9)):
    return CampaignSpec(name=name, apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", values),), scale=0.05)


def test_interrupted_campaign_resumes_byte_identical(tmp_path):
    """Satellite 4: the crash-resume differential."""
    spec = small_campaign("diff")
    with ResultStore(tmp_path / "full.sqlite") as full:
        uninterrupted = run_campaign(spec, full, jobs=1)
        assert uninterrupted.computed_points == 4
        reference = render_campaign([spec], full)

    with ResultStore(tmp_path / "crash.sqlite") as store:
        with pytest.raises(CampaignInterrupted):
            run_campaign(spec, store, jobs=1, interrupt_after=2)
        assert store.count("diff") == 2  # interrupted half-way, durable
        # Query-side generation refuses to render the partial series.
        with pytest.raises(KeyError, match="missing 2/4"):
            sweep_from_store(store, spec, "Radix", 4, "overhead")

        resumed = run_campaign(spec, store, jobs=1)
        assert resumed.resumed_points == 2  # skipped via the store...
        assert resumed.computed_points == 2  # ...recomputed only the rest
        assert render_campaign([spec], store) == reference


def test_campaign_resumes_across_store_sessions(tmp_path):
    spec = small_campaign("sessions", values=(2.9, 22.9))
    with ResultStore(tmp_path / "s.sqlite") as store:
        run_campaign(spec, store, jobs=1)
    with ResultStore(tmp_path / "s.sqlite") as store:  # fresh connection
        report = run_campaign(spec, store, jobs=1)
        assert report.resumed_points == 2
        assert report.computed_points == 0


def test_campaign_cache_fills_store_without_simulating(tmp_path):
    spec = small_campaign("cachefill", values=(2.9, 22.9))
    cache = RunCache(tmp_path / "cache")
    with ResultStore(tmp_path / "a.sqlite") as store:
        run_campaign(spec, store, cache=cache, jobs=1)
    # A second store over the same grid is filled purely from the cache.
    with ResultStore(tmp_path / "b.sqlite") as store:
        report = run_campaign(spec, store, cache=cache, jobs=1)
        assert report.cache_hits == 2
        assert report.computed_points == 0
        assert store.count("cachefill") == 2


def test_run_campaign_requeues_after_worker_crash(tmp_path, monkeypatch):
    _CRASH_FLAG["path"] = str(tmp_path / "crashed.flag")
    monkeypatch.setattr(parallel_mod, "execute_point", _kill_worker_once)
    spec = small_campaign("requeue", values=(2.9, 22.9, _CRASH_VALUE))
    with ResultStore(tmp_path / "s.sqlite") as store:
        report = run_campaign(spec, store, jobs=2)
        # The crash broke the first pool; the lost task(s) were re-queued
        # on a fresh one and the campaign still finished in one call.
        assert report.requeued_points >= 1
        assert report.computed_points == 3
        assert store.count("requeue") == 3
        assert os.path.exists(_CRASH_FLAG["path"])


def test_campaign_report_bench_payload(tmp_path):
    spec = small_campaign("bench", values=(2.9, 22.9))
    with ResultStore(tmp_path / "s.sqlite") as store:
        report = run_campaign(spec, store, jobs=1)
    payload = report.to_dict()
    assert payload["schema"] == "repro-campaign-bench-v1"
    assert payload["campaign"] == "bench"
    assert payload["total_points"] == 2
    assert payload["computed_points"] == 2
    assert payload["resumed_points"] == 0
    assert payload["points_per_sec"] >= 0.0
    assert "bench" in report.describe()


# ---------------------------------------------------------------------------
# Query side: store-generated sweeps match engine-generated ones.
# ---------------------------------------------------------------------------

def test_ensemble_from_store_mean_and_ci(tmp_path):
    spec = CampaignSpec(name="ens", apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", (2.9, 12.9)),),
                        scale=0.05, seeds=(0, 7))
    with ResultStore(tmp_path / "s.sqlite") as store:
        run_campaign(spec, store, jobs=1)
        ens = ensemble_from_store(store, spec, "Radix", 4, "overhead")
        # Cross-check against the per-seed series the ensemble is built
        # from: mean of each seed's own slowdown, CI from their spread.
        per_seed = [sweep_from_store(store, spec, "Radix", 4, "overhead",
                                     seed=s).slowdowns()
                    for s in spec.seeds]
        means = ens.mean_slowdowns()
        widths = ens.ci_halfwidths()
        for i, value in enumerate(ens.values):
            samples = [s[i] for s in per_seed]
            assert means[i] == pytest.approx(sum(samples) / len(samples))
        assert means[0] == pytest.approx(1.0)  # baseline of each seed
        assert widths[0] == pytest.approx(0.0)
        assert all(wd >= 0.0 for wd in widths)
        rows = ens.rows()
        assert [r["completed_seeds"] for r in rows] == [2, 2]
        # The rendered campaign carries the ensemble table only for
        # multi-seed specs.
        text = render_campaign([spec], store)
        assert "Seed ensemble (2 seeds" in text
    single = small_campaign("one", values=(2.9, 12.9))
    with ResultStore(tmp_path / "one.sqlite") as store:
        run_campaign(single, store, jobs=1)
        assert "Seed ensemble" not in render_campaign([single], store)


def test_sweep_from_store_matches_direct_sweep(tmp_path):
    values = (2.9, 12.9, 22.9)
    spec = small_campaign("match", values=values)
    with ResultStore(tmp_path / "s.sqlite") as store:
        run_campaign(spec, store, jobs=1)
        from_store = sweep_from_store(store, spec, "Radix", 4, "overhead")
    app = spec.points()[0].task.app
    direct = overhead_sweep(app, n_nodes=4, overheads=values)
    assert sweep_fingerprint(from_store) == sweep_fingerprint(direct)
    assert from_store.slowdowns() == direct.slowdowns()


# ---------------------------------------------------------------------------
# One runner, one crash contract: every fan-out entry point survives a
# SIGKILLed worker and keeps every other point when one task raises.
# ---------------------------------------------------------------------------

#: The marker point goes first, so a planted raise reaches the parent
#: while the other points are still running.
_CRASH_GRID = (_CRASH_VALUE, 2.9, 22.9)


def _via_run_sweep(cache, store, jobs):
    sweep = run_sweep(tiny_radix(), 4, "overhead", _CRASH_GRID,
                      knob_factory("overhead"), cache=cache, jobs=jobs)
    return [sweep_fingerprint(sweep)], None


def _via_serving_sweep(cache, store, jobs):
    app = KVServe(offered_rps=300_000.0, n_users=1_000,
                  duration_us=2_000.0, max_requests=40, service_us=4.0)
    sweep = serving_sweep(app, 4, "overhead", _CRASH_GRID, cache=cache,
                          jobs=jobs)
    return [sweep_fingerprint(sweep)], None


def _via_run_campaign(cache, store, jobs):
    spec = small_campaign("crash", values=_CRASH_GRID)
    report = run_campaign(spec, store, cache=cache, jobs=jobs)
    sweep = sweep_from_store(store, spec, "Radix", 4, "overhead")
    return [sweep_fingerprint(sweep)], report


def _via_run_experiments_parallel(cache, store, jobs):
    def request(overheads):
        return ("figure5_overhead",
                {"n_nodes": 4, "scale": 0.05, "names": ["Radix"],
                 "overheads": overheads, "cache": cache})
    figures = run_experiments_parallel(
        [request((2.9, 22.9)), request((_CRASH_VALUE, 2.9))], jobs=jobs)
    return [sweep_fingerprint(figure.sweeps["Radix"])
            for figure in figures], None


_ENTRY_POINTS = {"run_sweep": _via_run_sweep,
                 "serving_sweep": _via_serving_sweep,
                 "run_campaign": _via_run_campaign,
                 "run_experiments_parallel": _via_run_experiments_parallel}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("crash", ["sigkill", "raise"])
def test_crash_contract_on_every_entry_point(entry, crash, tmp_path,
                                             monkeypatch):
    run = _ENTRY_POINTS[entry]
    reference_cache = RunCache(tmp_path / "ref-cache")
    with ResultStore(tmp_path / "ref.sqlite") as store:
        reference, _ = run(reference_cache, store, jobs=1)

    if crash == "sigkill":
        # The lost task is re-queued on a fresh pool and the call
        # finishes with exactly the serial results.
        _CRASH_FLAG["path"] = str(tmp_path / "crashed.flag")
        monkeypatch.setattr(parallel_mod, "execute_point",
                            _kill_worker_once)
        with ResultStore(tmp_path / "s.sqlite") as store:
            fanned, report = run(RunCache(tmp_path / "cache"), store,
                                 jobs=2)
        assert os.path.exists(_CRASH_FLAG["path"])
        assert fanned == reference
        if report is not None:
            assert report.requeued_points >= 1
        return
    # Every other point finishes and is persisted before the planted
    # error surfaces, in-process and pooled alike.
    monkeypatch.setattr(parallel_mod, "execute_point", _raise_on_marker)
    for jobs in (1, 2):
        cache = RunCache(tmp_path / f"cache{jobs}")
        with ResultStore(tmp_path / f"s{jobs}.sqlite") as store:
            with pytest.raises(RuntimeError, match="planted bug"):
                run(cache, store, jobs=jobs)
            assert len(cache) == len(reference_cache) - 1
            if entry == "run_campaign":
                assert store.count("crash") == len(_CRASH_GRID) - 1
