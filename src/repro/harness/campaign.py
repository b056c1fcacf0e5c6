"""Resumable simulation campaigns over a sqlite result store.

The paper's methodology is an argument product: every sensitivity
figure is (app × P × dial × value × seed), and each open ROADMAP item
multiplies the grid further.  A grid that takes hours must survive
being interrupted — by a crash, a Ctrl-C, a preempted CI runner, or a
single worker dying — without losing the points that already finished.
This module is that contract, modeled on MBradbury/slp's
``skip_completed_simulations`` + ``create_*_results.py`` split:

* :class:`CampaignSpec` — a declarative, JSON-round-trippable argument
  product over (app, P, dial, values, seed, faults, coll).
  ``points()`` expands it into concrete
  :class:`~repro.harness.parallel.PointTask` work units, each tagged
  with the same content-addressed key the
  :class:`~repro.harness.runcache.RunCache` uses.
* :func:`run_campaign` — the resumable runner.  Points already in the
  :class:`~repro.harness.store.ResultStore` are skipped outright; the
  rest are probed against the RunCache, and only genuine misses are
  simulated, through the same
  :func:`~repro.harness.parallel.run_tasks` runner sweeps use, and
  **persisted the moment each one finishes**.
* query-side generation — :func:`sweep_from_store` /
  :func:`figure_from_store` / :func:`render_campaign` rebuild
  EXPERIMENTS-style artifacts from stored rows alone, so regeneration
  is a ``SELECT``, not a resimulation, and an interrupted-then-resumed
  campaign renders byte-identically to an uninterrupted one.

Crash-safety guarantees, precisely (the runner gives sweeps and
experiment fan-out the same ones):

1. a point is either fully persisted (store row + cache entry) or will
   be re-run — there is no partial state;
2. restarting the same campaign recomputes exactly the points that
   never completed (``tests/test_campaign.py`` pins this with a
   differential interrupted-vs-uninterrupted test);
3. a SIGKILLed worker loses at most the points in flight; the runner
   finishes the campaign in the same invocation by re-queuing them;
4. a point that raises outside the failure taxonomy is re-raised only
   after every other point has finished and been persisted.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.am.tuning import TuningKnobs
from repro.cluster.presets import MACHINE_PRESETS
from repro.harness import parallel
from repro.harness.parallel import PointTask, default_jobs
from repro.harness.runcache import RunCache
from repro.harness.store import ResultStore
from repro.harness.suite import suite_for
from repro.harness.sweeps import (MACHINE_DIALS, SweepPoint, SweepResult,
                                  knob_factory)
from repro.network.faults import DelaySpike, FaultPlan, SlowdownWindow

__all__ = ["CampaignSpec", "CampaignPoint", "CampaignReport",
           "CampaignInterrupted", "run_campaign", "sweep_from_store",
           "EnsembleSweep", "ensemble_from_store",
           "figure_from_store", "render_campaign", "CAMPAIGN_DIALS",
           "SERVING_CAMPAIGN_DIALS"]

#: Dials a campaign can sweep: the paper's four machine dials plus the
#: fault injector's drop rate (Figure 9).
CAMPAIGN_DIALS = MACHINE_DIALS + ("drop_rate",)

#: Additionally sweepable when the campaign declares a ``workload``
#: (open-system serving): the client tier's offered load.
SERVING_CAMPAIGN_DIALS = CAMPAIGN_DIALS + ("offered_rps",)


class CampaignInterrupted(RuntimeError):
    """Raised when a campaign stops early (``interrupt_after``).

    Everything computed so far is already persisted; re-running the
    same campaign resumes from the store.  Exists so tests and drills
    can interrupt a campaign at a deterministic point instead of
    SIGKILLing the process (CI does both).
    """


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded point of a campaign's argument product."""

    app_name: str
    n_nodes: int
    parameter: str
    value: float
    seed: int
    task: PointTask
    #: Canonical key-spec dict (``run_key_spec``) and its SHA-256 — the
    #: identity shared by the store and the run cache.
    spec: Dict[str, Any]
    key: str


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative argument product over the simulation grid.

    ``dials`` pairs each swept parameter with its value grid; the
    product over (apps × node_counts × dials × seeds × values) is the
    campaign.  Value order within a dial is preserved — the first
    value is that sweep's baseline, exactly as in
    :mod:`repro.harness.sweeps`.
    """

    name: str
    apps: Tuple[str, ...]
    node_counts: Tuple[int, ...]
    dials: Tuple[Tuple[str, Tuple[float, ...]], ...]
    seeds: Tuple[int, ...] = (0,)
    scale: float = 1.0
    machine: str = "berkeley-now"
    run_limit_us: Optional[float] = None
    livelock_limit: int = 200_000
    window: int = 8
    #: Base fault plan applied to every point (the ``drop_rate`` dial
    #: overrides its drop rate per value).
    faults: Optional[FaultPlan] = None
    #: Collective tuning config applied to every point.
    coll: Optional[Any] = None
    #: Open-system serving workload: the constructor-knob dict a
    #: :func:`repro.serve.apps.serving_app_from_dict` builds from
    #: (``{"app": "kvserve", ...}``).  When set, ``apps`` must name
    #: exactly that scenario, the ``offered_rps`` dial becomes
    #: sweepable, and ``scale`` does not apply (the client tier's own
    #: knobs size the run).  Stored as a sorted key/value tuple so the
    #: spec stays frozen/hashable; ``to_dict`` round-trips the dict.
    workload: Optional[Any] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", tuple(self.apps))
        object.__setattr__(self, "node_counts", tuple(self.node_counts))
        object.__setattr__(self, "dials", tuple(
            (parameter, tuple(values)) for parameter, values in self.dials))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.workload is not None:
            workload = dict(self.workload)
            object.__setattr__(self, "workload", tuple(
                (str(key), workload[key]) for key in sorted(workload)))
            if "app" not in workload:
                raise ValueError(
                    "workload needs an 'app' key naming the serving "
                    "scenario (see repro.serve.SERVING_APPS)")
            if self.apps != (workload["app"],):
                raise ValueError(
                    f"a workload campaign's apps must be exactly "
                    f"({workload['app']!r},), got {self.apps}")
        if not self.name:
            raise ValueError("campaign needs a non-empty name")
        if self.machine not in MACHINE_PRESETS:
            raise ValueError(
                f"unknown machine preset {self.machine!r}; "
                f"one of {sorted(MACHINE_PRESETS)}")
        allowed = (SERVING_CAMPAIGN_DIALS if self.workload is not None
                   else CAMPAIGN_DIALS)
        for parameter, values in self.dials:
            if parameter not in allowed:
                raise ValueError(
                    f"unknown dial {parameter!r}; one of {allowed}")
            if not values:
                raise ValueError(f"dial {parameter!r} has no values")

    # -- expansion ---------------------------------------------------------
    def values_for(self, parameter: str) -> Tuple[float, ...]:
        """The value grid of one dial, in sweep (baseline-first) order."""
        for dial, values in self.dials:
            if dial == parameter:
                return values
        raise KeyError(f"campaign {self.name!r} has no dial {parameter!r}")

    def points(self) -> List[CampaignPoint]:
        """The full argument product as concrete work units.

        Deterministic order: apps × node_counts × dials × seeds ×
        values.  Raises early (before any simulation) if an app name is
        unknown or a key-spec value has an unstable repr.
        """
        params = MACHINE_PRESETS[self.machine]
        base_plan = self.faults if self.faults is not None else FaultPlan()
        points: List[CampaignPoint] = []
        for app_name, n_nodes in itertools.product(self.apps,
                                                   self.node_counts):
            if self.workload is not None:
                from repro.serve.apps import serving_app_from_dict
                app = serving_app_from_dict(dict(self.workload))
            else:
                app = suite_for(n_nodes, scale=self.scale,
                                names=[app_name])[0]
            for (parameter, values), seed in itertools.product(
                    self.dials, self.seeds):
                def app_for(_value: float) -> Any:
                    return app
                if parameter == "drop_rate":
                    def knob_for(_value: float) -> TuningKnobs:
                        return TuningKnobs()

                    def fault_for(value: float) -> FaultPlan:
                        return base_plan.with_changes(drop_rate=value)
                elif parameter == "offered_rps":
                    def knob_for(_value: float) -> TuningKnobs:
                        return TuningKnobs()

                    def fault_for(_value: float) -> Optional[FaultPlan]:
                        return self.faults

                    def app_for(value: float) -> Any:
                        return app.with_changes(offered_rps=value)
                else:
                    knob_for = knob_factory(parameter, params)

                    def fault_for(_value: float) -> Optional[FaultPlan]:
                        return self.faults
                for value in values:
                    task = PointTask(
                        app=app_for(value), n_nodes=n_nodes, value=value,
                        knobs=knob_for(value), params=params, seed=seed,
                        run_limit_us=self.run_limit_us,
                        livelock_limit=self.livelock_limit,
                        window=self.window, faults=fault_for(value),
                        coll=self.coll)
                    spec = task.key_spec()
                    points.append(CampaignPoint(
                        app_name=app_name, n_nodes=n_nodes,
                        parameter=parameter, value=value, seed=seed,
                        task=task, spec=spec,
                        key=RunCache.key_for(spec)))
        return points

    # -- JSON round trip (spec files for the CLI / CI) ---------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; ``from_dict`` round-trips it exactly."""
        import dataclasses
        return {
            "name": self.name,
            "apps": list(self.apps),
            "node_counts": list(self.node_counts),
            "dials": [[parameter, list(values)]
                      for parameter, values in self.dials],
            "seeds": list(self.seeds),
            "scale": self.scale,
            "machine": self.machine,
            "run_limit_us": self.run_limit_us,
            "livelock_limit": self.livelock_limit,
            "window": self.window,
            "faults": (dataclasses.asdict(self.faults)
                       if self.faults is not None else None),
            "coll": (dataclasses.asdict(self.coll)
                     if self.coll is not None else None),
            "workload": (dict(self.workload)
                         if self.workload is not None else None),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec produced by :meth:`to_dict` (or hand-written).

        Specs stored while the simulator had a selectable engine carry an
        ``engine`` field; it never affected results or keys, and is
        ignored.
        """
        faults = data.get("faults")
        if faults is not None:
            faults = FaultPlan(**{
                **faults,
                "spikes": tuple(DelaySpike(**s)
                                for s in faults.get("spikes", ())),
                "slowdowns": tuple(SlowdownWindow(**s)
                                   for s in faults.get("slowdowns", ())),
                "drop_kinds": (tuple(faults["drop_kinds"])
                               if faults.get("drop_kinds") else None),
            })
        coll = data.get("coll")
        if coll is not None:
            from repro.coll.tuner import CollConfig
            coll = CollConfig(
                policy=coll.get("policy", "fixed"),
                choices=tuple(tuple(c) for c in coll.get("choices", ())),
                table=tuple(tuple(c) for c in coll.get("table", ())))
        return cls(
            name=data["name"],
            apps=tuple(data["apps"]),
            node_counts=tuple(data["node_counts"]),
            dials=tuple((parameter, tuple(values))
                        for parameter, values in data["dials"]),
            seeds=tuple(data.get("seeds", (0,))),
            scale=data.get("scale", 1.0),
            machine=data.get("machine", "berkeley-now"),
            run_limit_us=data.get("run_limit_us"),
            livelock_limit=data.get("livelock_limit", 200_000),
            window=data.get("window", 8),
            faults=faults, coll=coll,
            workload=data.get("workload"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class CampaignReport:
    """Resume and throughput accounting for one ``run_campaign`` call."""

    campaign: str
    total_points: int
    #: Points skipped because the store already had them (the resume).
    resumed_points: int
    #: Store misses served from the RunCache without simulating.
    cache_hits: int
    #: Points actually simulated by this invocation.
    computed_points: int
    #: Tasks re-queued after a worker crash broke the pool.
    requeued_points: int
    #: Points (stored or computed) that ended as N/A failures.
    na_points: int
    stale_tmps_removed: int
    jobs: int
    elapsed_s: float

    @property
    def points_per_sec(self) -> float:
        """Computed-point throughput of this invocation."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.computed_points / self.elapsed_s

    def to_dict(self) -> Dict[str, Any]:
        """The ``BENCH_campaign_*.json`` payload."""
        return {
            "schema": "repro-campaign-bench-v1",
            "campaign": self.campaign,
            "total_points": self.total_points,
            "resumed_points": self.resumed_points,
            "cache_hits": self.cache_hits,
            "computed_points": self.computed_points,
            "requeued_points": self.requeued_points,
            "na_points": self.na_points,
            "stale_tmps_removed": self.stale_tmps_removed,
            "jobs": self.jobs,
            "elapsed_s": round(self.elapsed_s, 3),
            "points_per_sec": round(self.points_per_sec, 3),
        }

    def describe(self) -> str:
        """One-line summary for CLI output."""
        return (f"campaign {self.campaign}: {self.total_points} points "
                f"({self.resumed_points} resumed, {self.cache_hits} cache "
                f"hits, {self.computed_points} computed, "
                f"{self.requeued_points} requeued after crashes) in "
                f"{self.elapsed_s:.1f}s "
                f"[{self.points_per_sec:.2f} points/s]")


def _merge_reports(name: str,
                   reports: Sequence[CampaignReport]) -> CampaignReport:
    """Aggregate sub-campaign reports into one BENCH payload."""
    return CampaignReport(
        campaign=name,
        total_points=sum(r.total_points for r in reports),
        resumed_points=sum(r.resumed_points for r in reports),
        cache_hits=sum(r.cache_hits for r in reports),
        computed_points=sum(r.computed_points for r in reports),
        requeued_points=sum(r.requeued_points for r in reports),
        na_points=sum(r.na_points for r in reports),
        stale_tmps_removed=sum(r.stale_tmps_removed for r in reports),
        jobs=max((r.jobs for r in reports), default=1),
        elapsed_s=sum(r.elapsed_s for r in reports))


def run_campaign(spec: CampaignSpec, store: ResultStore,
                 cache: Optional[RunCache] = None,
                 jobs: Optional[int] = None,
                 interrupt_after: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignReport:
    """Run (or resume) one campaign; every finished point is durable.

    The store is consulted first — points with rows are never re-run.
    Store misses are probed against the RunCache (a hit is persisted
    to the store without simulating).  Remaining points run through
    :func:`~repro.harness.parallel.run_tasks`; each is written to the
    store *and* the cache the moment it finishes, so progress survives
    any interruption.

    ``interrupt_after=N`` raises :class:`CampaignInterrupted` after N
    newly simulated points have been persisted — the deterministic
    stand-in for a mid-campaign crash.  A worker killed out from under
    the pool does *not* abort the campaign: the runner re-queues the
    tasks it lost (counted in ``requeued_points``).
    """
    started = time.perf_counter()
    say = progress if progress is not None else (lambda _line: None)
    stale = cache.sweep_stale_tmps() if cache is not None else 0
    if stale:
        say(f"swept {stale} stale cache tmp file(s)")

    points = spec.points()
    stored: Set[str] = store.keys(spec.name)
    pending = [p for p in points if p.key not in stored]
    resumed = len(points) - len(pending)
    if resumed:
        say(f"resume: {resumed}/{len(points)} points already stored")

    def persist(point: CampaignPoint, result, failure,
                to_cache: bool) -> None:
        store.put(spec.name, point.key, app=point.app_name,
                  n_nodes=point.n_nodes, parameter=point.parameter,
                  value=point.value, seed=point.seed, spec=point.spec,
                  result=result, failure=failure)
        if to_cache and cache is not None:
            cache.put(point.spec, result=result, failure=failure)

    # Cache probe in the parent: hits become store rows without a
    # single simulated event.
    cache_hits = 0
    todo: List[CampaignPoint] = []
    for point in pending:
        outcome = cache.get(point.spec) if cache is not None else None
        if outcome is not None:
            result, failure = outcome
            persist(point, result, failure, to_cache=False)
            cache_hits += 1
        else:
            todo.append(point)
    if cache_hits:
        say(f"run cache filled {cache_hits} point(s)")

    workers = jobs if jobs is not None else default_jobs()
    computed = 0

    def finish(index: int, sweep_point: SweepPoint) -> None:
        nonlocal computed
        persist(todo[index], sweep_point.result, sweep_point.failure,
                to_cache=True)
        computed += 1
        if computed % 10 == 0 or computed == len(todo):
            say(f"{computed}/{len(todo)} computed "
                f"({store.count(spec.name)}/{len(points)} stored)")
        if interrupt_after is not None and computed >= interrupt_after:
            raise CampaignInterrupted(
                f"campaign {spec.name!r} interrupted after {computed} "
                f"computed points (all persisted; re-run to resume)")

    # Looked up per call: tests and ``--profile`` patch the module seam.
    requeued = parallel.run_tasks(parallel.execute_point,
                                  [point.task for point in todo],
                                  workers, finish)
    elapsed = time.perf_counter() - started

    na_points = store.count_failures(spec.name)
    report = CampaignReport(
        campaign=spec.name, total_points=len(points),
        resumed_points=resumed, cache_hits=cache_hits,
        computed_points=computed, requeued_points=requeued,
        na_points=na_points, stale_tmps_removed=stale,
        jobs=workers, elapsed_s=elapsed)
    say(report.describe())
    return report


# ---------------------------------------------------------------------------
# Query side: rebuild sweep/figure artifacts from the store alone.
# ---------------------------------------------------------------------------

def sweep_from_store(store: ResultStore, spec: CampaignSpec,
                     app_name: str, n_nodes: int, parameter: str,
                     seed: Optional[int] = None) -> SweepResult:
    """One (app, P, dial) series, reconstructed purely from store rows.

    Point order follows the spec's value grid (baseline first), not
    completion or storage order, so the result is bit-identical to the
    :func:`~repro.harness.sweeps.run_sweep` shape regardless of how
    the campaign was scheduled, interrupted, or resumed.  Raises
    :class:`KeyError` when the store is missing points (campaign not
    finished) — query-side generation never silently drops data.
    """
    seed = seed if seed is not None else spec.seeds[0]
    values = spec.values_for(parameter)
    by_value: Dict[float, Any] = {}
    for stored in store.points(spec.name, app=app_name, n_nodes=n_nodes,
                               parameter=parameter, seed=seed):
        by_value[stored.value] = stored
    missing = [value for value in values if value not in by_value]
    if missing:
        raise KeyError(
            f"campaign {spec.name!r} store is missing "
            f"{len(missing)}/{len(values)} points of "
            f"({app_name}, P={n_nodes}, {parameter}) at values "
            f"{missing}; run the campaign to completion first")
    params = MACHINE_PRESETS[spec.machine]
    knob_for = (knob_factory(parameter, params)
                if parameter in MACHINE_DIALS
                else (lambda _value: TuningKnobs()))
    sweep = SweepResult(app_name=app_name, n_nodes=n_nodes,
                        parameter=parameter)
    sweep.points = [
        SweepPoint(value=value, knobs=knob_for(value),
                   result=by_value[value].result,
                   failure=by_value[value].failure)
        for value in values
    ]
    return sweep


@dataclass
class EnsembleSweep:
    """Seed-ensemble statistics for one (app, P, dial) series.

    The query-side aggregation over a campaign's ``seeds`` axis: one
    :func:`sweep_from_store` reconstruction per seed, collapsed to a
    per-value mean slowdown with a 95% confidence half-width (normal
    approximation, ``1.96 * s / sqrt(n)`` over the seeds whose run
    completed).  Values with zero completed seeds report ``None`` for
    both statistics, mirroring the single-seed N/A convention.
    """

    app_name: str
    n_nodes: int
    parameter: str
    seeds: Tuple[int, ...]
    values: List[float] = field(default_factory=list)
    #: seed -> per-value slowdowns (None where that seed's point is N/A).
    slowdowns_by_seed: Dict[int, List[Optional[float]]] = \
        field(default_factory=dict)

    def _samples(self, index: int) -> List[float]:
        return [per_seed[index]
                for per_seed in self.slowdowns_by_seed.values()
                if per_seed[index] is not None]

    def mean_slowdowns(self) -> List[Optional[float]]:
        """Per-value mean slowdown over completed seeds."""
        means = []
        for index in range(len(self.values)):
            samples = self._samples(index)
            means.append(statistics.fmean(samples) if samples else None)
        return means

    def ci_halfwidths(self) -> List[Optional[float]]:
        """Per-value 95% CI half-width (0.0 for a single seed)."""
        widths: List[Optional[float]] = []
        for index in range(len(self.values)):
            samples = self._samples(index)
            if not samples:
                widths.append(None)
            elif len(samples) == 1:
                widths.append(0.0)
            else:
                widths.append(1.96 * statistics.stdev(samples)
                              / math.sqrt(len(samples)))
        return widths

    def rows(self) -> List[dict]:
        """Flat per-value rows: mean, ci95, and seed counts."""
        rows = []
        means = self.mean_slowdowns()
        widths = self.ci_halfwidths()
        for index, value in enumerate(self.values):
            rows.append({
                "app": self.app_name,
                self.parameter: value,
                "mean_slowdown": (round(means[index], 4)
                                  if means[index] is not None else None),
                "ci95": (round(widths[index], 4)
                         if widths[index] is not None else None),
                "completed_seeds": len(self._samples(index)),
                "seeds": len(self.seeds),
            })
        return rows


def ensemble_from_store(store: ResultStore, spec: CampaignSpec,
                        app_name: str, n_nodes: int,
                        parameter: str) -> EnsembleSweep:
    """Mean/CI slowdown statistics over the campaign's ``seeds`` axis.

    Reconstructs one :func:`sweep_from_store` series per seed (so the
    same missing-point contract applies: an unfinished campaign raises
    :class:`KeyError`) and normalises each seed against *its own*
    baseline point before aggregating — slowdowns compare shape across
    seeds, not absolute runtimes.
    """
    values = list(spec.values_for(parameter))
    ensemble = EnsembleSweep(app_name=app_name, n_nodes=n_nodes,
                             parameter=parameter,
                             seeds=tuple(spec.seeds), values=values)
    for seed in spec.seeds:
        sweep = sweep_from_store(store, spec, app_name, n_nodes,
                                 parameter, seed=seed)
        base = sweep.baseline.runtime_us
        per_seed: List[Optional[float]] = []
        for point in sweep.points:
            if base is None or not point.completed:
                per_seed.append(None)
            else:
                per_seed.append(point.runtime_us / base)
        ensemble.slowdowns_by_seed[seed] = per_seed
    return ensemble


#: Axis labels for the dials a campaign can sweep.
_DIAL_LABELS = {"overhead": "overhead (us)", "gap": "gap (us)",
                "latency": "latency (us)",
                "bulk_mb_s": "bulk bandwidth (MB/s)",
                "drop_rate": "drop rate",
                "offered_rps": "offered load (req/s)"}


def figure_from_store(store: ResultStore, spec: CampaignSpec,
                      parameter: str, n_nodes: int,
                      seed: Optional[int] = None
                      ) -> "SensitivityFigure":  # noqa: F821
    """All apps' sweeps for one (P, dial), from store rows alone."""
    # Imported lazily: experiments pulls in every paper entry point.
    from repro.harness.experiments import SensitivityFigure
    figure = SensitivityFigure(
        title=f"campaign {spec.name} ({n_nodes} nodes): sensitivity "
              f"to {parameter}",
        x_label=_DIAL_LABELS.get(parameter, parameter))
    for app_name in spec.apps:
        figure.sweeps[app_name] = sweep_from_store(
            store, spec, app_name, n_nodes, parameter, seed=seed)
    return figure


def render_campaign(specs: Sequence[CampaignSpec],
                    store: ResultStore) -> str:
    """Markdown EXPERIMENTS artifacts for finished campaigns.

    Deterministic text only (no wall-clock, no store paths), so two
    stores holding the same results render byte-identically — the
    property the crash-resume CI drill diffs on.
    """
    out: List[str] = []
    w = out.append
    w("# CAMPAIGN ARTIFACTS — generated from the result store\n")
    for spec in specs:
        w(f"## Campaign `{spec.name}`\n")
        w(f"- apps: {', '.join(spec.apps)}")
        w(f"- node counts: {', '.join(str(p) for p in spec.node_counts)}")
        w(f"- machine: {spec.machine}; scale: {spec.scale:g}; "
          f"seeds: {', '.join(str(s) for s in spec.seeds)}\n")
        for n_nodes in spec.node_counts:
            for parameter, _values in spec.dials:
                figure = figure_from_store(store, spec, parameter,
                                           n_nodes)
                w(f"### {parameter} @ {n_nodes} nodes\n")
                w("```\n" + figure.render() + "\n```")
                w("| app | max slowdown | N/A points |")
                w("|---|---|---|")
                for app_name, sweep in figure.sweeps.items():
                    slowdown = figure.max_slowdown(app_name)
                    na = sum(1 for p in sweep.points if not p.completed)
                    w(f"| {app_name} | "
                      f"{'N/A' if slowdown is None else f'{slowdown:.2f}x'}"
                      f" | {na} |")
                w("")
                if len(spec.seeds) > 1:
                    w(f"Seed ensemble ({len(spec.seeds)} seeds, "
                      "mean slowdown ± 95% CI):\n")
                    w(f"| app | {parameter} | mean | ±95% CI | seeds |")
                    w("|---|---|---|---|---|")
                    for app_name in spec.apps:
                        ens = ensemble_from_store(store, spec, app_name,
                                                  n_nodes, parameter)
                        for row in ens.rows():
                            mean = row["mean_slowdown"]
                            ci = row["ci95"]
                            w(f"| {app_name} | {row[parameter]:g} | "
                              f"{'N/A' if mean is None else f'{mean:.2f}x'}"
                              f" | {'N/A' if ci is None else f'{ci:.3f}'} |"
                              f" {row['completed_seeds']}/{row['seeds']} |")
                    w("")
    return "\n".join(out) + "\n"
