"""One crash-safe task runner for sweeps, campaigns and experiments.

Every point of Figures 5-8 (and every table artifact) is an independent
deterministic simulation, so the evaluation is embarrassingly parallel.
:func:`run_tasks` is the one place that fans such work out; its three
callers are thin:

* **sweep points** — :func:`run_sweep_points` (behind ``run_sweep``,
  ``fault_sweep`` and ``serving_sweep``) runs the cache misses of one
  (value, knobs) grid.  Each worker runs the exact same
  :func:`execute_point` the in-process path uses, so results are
  bit-identical to serial execution (same seed → same ``runtime_us``
  and ``events_processed``) and livelocked / over-budget points come
  back as the same ``N/A`` :class:`~repro.harness.sweeps.SweepPoint`.
* **campaigns** — :func:`repro.harness.campaign.run_campaign` runs the
  store and cache misses of a campaign grid through :func:`run_tasks`.
* **experiments** — :func:`run_experiments_parallel` fans whole
  figure/table entry points of :mod:`repro.harness.experiments` across
  workers, for drivers like ``scripts/generate_experiments.py``.

Crash safety is therefore the same on every path:

1. each result reaches its caller the moment its task finishes, and
   sweeps and campaigns persist it right there (cache entry, store
   row), so an interrupted run keeps every point that finished and
   the rerun resimulates only the lost ones;
2. a worker killed mid-task (``BrokenProcessPool``) loses only the
   tasks in flight, which are re-queued on a fresh pool, up to
   :data:`MAX_REQUEUES` times, within the same call;
3. a task that raises outside the failure taxonomy does not cost the
   other tasks: its error is re-raised once they have all finished
   and been handed over.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.am.tuning import TuningKnobs
from repro.cluster.machine import Cluster
from repro.gas.runtime import LivelockError
from repro.harness.runcache import RunCache, run_key_spec
from repro.harness.sweeps import SweepPoint, SweepResult
from repro.network.faults import FaultError, FaultPlan
from repro.network.loggp import LogGPParams
from repro.sanitize.reports import DeadlockError

__all__ = ["run_tasks", "MAX_REQUEUES", "execute_point",
           "run_sweep_points", "run_experiments_parallel", "default_jobs",
           "PointTask"]

#: Fresh pools one :func:`run_tasks` call may start after its workers
#: died (``BrokenProcessPool``) before it gives up on the lost tasks.
MAX_REQUEUES = 8


def default_jobs() -> int:
    """Worker count when unspecified: one per available core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _pool(jobs: int) -> ProcessPoolExecutor:
    """A process pool preferring fork (cheap, pytest-safe) over spawn."""
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


def run_tasks(fn: Callable[[Any], Any], tasks: Sequence[Any], jobs: int,
              done: Callable[[int, Any], None]) -> int:
    """Run ``fn(task)`` for every task; hand each result to ``done``.

    ``done(index, result)`` runs in the calling process the moment
    ``tasks[index]`` finishes, in completion order, so callers persist
    each result before the next one arrives.  ``jobs <= 1`` runs the
    tasks in-process, in order; otherwise they stream through a pool
    of ``min(jobs, len(tasks))`` workers.

    A worker killed mid-task breaks the pool; the tasks that never
    finished are re-queued, in task order, on a fresh pool, up to
    :data:`MAX_REQUEUES` times (then ``BrokenProcessPool`` is raised).
    A task's own exception is re-raised (the first one) only after
    every other task has finished and been handed to ``done``.  An
    exception raised by ``done`` itself stops the run at once.

    Returns the number of tasks re-queued after worker crashes.
    """
    error: Optional[Exception] = None
    requeued = 0
    if jobs <= 1:
        for index, task in enumerate(tasks):
            try:
                result = fn(task)
            # Deferred, not swallowed: re-raised after the other tasks.
            except Exception as exc:  # simlint: disable=broad-except
                error = error or exc
                continue
            done(index, result)
    pending = list(range(len(tasks))) if jobs > 1 else []
    rounds = 0
    while pending:
        lost: List[int] = []
        with _pool(min(jobs, len(pending))) as pool:
            futures = {pool.submit(fn, tasks[index]): index
                       for index in pending}
            try:
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # Lost with a dead worker (or never started).
                        lost.append(index)
                        continue
                    # Deferred, not swallowed: re-raised after the drain.
                    except Exception as exc:  # simlint: disable=broad-except
                        error = error or exc
                        continue
                    done(index, result)
            except BaseException:
                # done() raised, or the caller was interrupted: run
                # nothing more than what is already in flight.
                pool.shutdown(cancel_futures=True)
                raise
        if lost and rounds == MAX_REQUEUES:
            raise BrokenProcessPool(
                f"workers kept crashing after {MAX_REQUEUES} re-queue "
                f"rounds; {len(lost)} task(s) unfinished (every "
                "completed result was handed over)")
        requeued += len(lost)
        rounds += 1
        pending = sorted(lost)
    if error is not None:
        raise error
    return requeued


@dataclass(frozen=True)
class PointTask:
    """One sweep point's full configuration (picklable work unit)."""

    app: Any
    n_nodes: int
    value: float
    knobs: TuningKnobs
    params: LogGPParams
    seed: int = 0
    run_limit_us: Optional[float] = None
    livelock_limit: int = 200_000
    window: int = 8
    faults: Optional[FaultPlan] = None
    #: Collective tuning config (``repro.coll.tuner.CollConfig``), or
    #: None for the legacy fixed schedules.
    coll: Optional[Any] = None
    #: Run under simsan.  Never part of :meth:`key_spec` — sanitized
    #: points bypass the cache entirely instead of forking the key space
    #: (the run itself is bit-identical either way).
    sanitize: bool = False

    def key_spec(self) -> Dict[str, Any]:
        """The cache key-spec for this point."""
        return run_key_spec(
            self.app, self.n_nodes, self.params, self.knobs, self.seed,
            run_limit_us=self.run_limit_us,
            livelock_limit=self.livelock_limit, window=self.window,
            faults=self.faults, coll=self.coll)


def execute_point(task: PointTask) -> SweepPoint:
    """Run one sweep point to completion (or to its N/A failure).

    This is the single execution path shared by the serial sweep loop
    and the process-pool workers — which is what guarantees parallel
    results are bit-identical to serial ones.
    """
    cluster = Cluster(n_nodes=task.n_nodes, params=task.params,
                      knobs=task.knobs, seed=task.seed,
                      run_limit_us=task.run_limit_us,
                      livelock_limit=task.livelock_limit,
                      window=task.window, faults=task.faults,
                      sanitize=task.sanitize, coll=task.coll)
    point = SweepPoint(value=task.value, knobs=task.knobs)
    # Failure taxonomy: the prefix before ":" is the category that
    # SweepPoint.failure_category surfaces.  DeadlockError must be
    # caught before TimeoutError (it is a subclass).
    try:
        point.result = cluster.run(task.app)
    except DeadlockError as exc:
        point.failure = f"deadlock: {exc}"
    except LivelockError as exc:
        point.failure = f"livelock: {exc}"
    except TimeoutError as exc:
        point.failure = f"budget exceeded: {exc}"
    except FaultError as exc:
        point.failure = f"fault: {exc}"
    return point


def run_sweep_points(app: Any, n_nodes: int, parameter: str,
                     values: Sequence[float],
                     knob_for: Callable[[float], TuningKnobs],
                     params: Optional[LogGPParams] = None,
                     seed: int = 0,
                     run_limit_us: Optional[float] = None,
                     livelock_limit: int = 200_000,
                     window: int = 8,
                     jobs: Optional[int] = None,
                     cache: Optional[RunCache] = None,
                     fault_for: Optional[
                         Callable[[float], Optional[FaultPlan]]] = None,
                     sanitize: bool = False,
                     coll: Optional[Any] = None,
                     app_for: Optional[
                         Callable[[float], Any]] = None) -> SweepResult:
    """The sweep engine behind :func:`repro.harness.sweeps.run_sweep`.

    ``jobs=None`` or ``jobs<=1`` runs points serially in-process;
    ``jobs>1`` fans cache misses across a process pool.  Point order in
    the returned :class:`SweepResult` always matches ``values``.

    ``fault_for`` maps each dialed value to the
    :class:`~repro.network.faults.FaultPlan` for that point (or None
    for a perfectly reliable fabric), so fault sweeps reuse this exact
    engine — including the cache and process pool.

    ``sanitize=True`` runs every point under simsan and bypasses the
    cache in both directions (no gets, no puts): cached entries carry no
    sanitizer report, and sanitized results must not shadow clean ones.

    ``coll`` applies one collective tuning config
    (:class:`~repro.coll.tuner.CollConfig`) to every point; it is part
    of the cache key unless it is the default fixed config.

    ``app_for`` maps each dialed value to the application instance for
    that point, for sweeps whose axis is an *application* knob rather
    than a machine dial — e.g. the serving tier's offered-load axis.
    The per-point app participates in the cache key via its
    fingerprint, so such sweeps cache exactly like dial sweeps.
    """
    params = params if params is not None else LogGPParams.berkeley_now()
    if sanitize:
        cache = None
    tasks = [
        PointTask(app=app_for(value) if app_for is not None else app,
                  n_nodes=n_nodes, value=value,
                  knobs=knob_for(value), params=params, seed=seed,
                  run_limit_us=run_limit_us,
                  livelock_limit=livelock_limit, window=window,
                  faults=fault_for(value) if fault_for is not None else None,
                  sanitize=sanitize, coll=coll)
        for value in values
    ]
    points: List[Optional[SweepPoint]] = [None] * len(tasks)

    pending: List[int] = []
    for index, task in enumerate(tasks):
        if cache is not None:
            outcome = cache.get(task.key_spec())
            if outcome is not None:
                result, failure = outcome
                points[index] = SweepPoint(value=task.value,
                                           knobs=task.knobs,
                                           result=result, failure=failure)
                continue
        pending.append(index)

    def finish(slot: int, point: SweepPoint) -> None:
        """Record one computed point and cache it *immediately*, so an
        interrupted sweep keeps every point that finished."""
        index = pending[slot]
        points[index] = point
        if cache is not None:
            cache.put(tasks[index].key_spec(),
                      result=point.result, failure=point.failure)

    run_tasks(execute_point, [tasks[index] for index in pending],
              jobs if jobs is not None else 1, finish)

    sweep = SweepResult(app_name=app.name, n_nodes=n_nodes,
                        parameter=parameter)
    sweep.points = points
    return sweep


# ---------------------------------------------------------------------------
# Experiment-level fan-out.
# ---------------------------------------------------------------------------

def _run_experiment(request: Tuple[str, Dict[str, Any]]) -> Any:
    from repro.harness import experiments
    name, kwargs = request
    return getattr(experiments, name)(**kwargs)


def run_experiments_parallel(requests: Sequence[Tuple[str, Dict[str, Any]]],
                             jobs: Optional[int] = None) -> List[Any]:
    """Run many experiment entry points, fanned across worker processes.

    ``requests`` is a sequence of ``(name, kwargs)`` pairs where ``name``
    is an attribute of :mod:`repro.harness.experiments` (e.g.
    ``"figure5_overhead"``).  Results come back in request order, each
    exactly what the named entry point returns.  ``jobs`` defaults to
    one worker per core; ``jobs<=1`` runs the requests in-process
    (identical results, no pool).
    """
    from repro.harness import experiments
    for name, _kwargs in requests:
        if not hasattr(experiments, name):
            raise KeyError(f"unknown experiment {name!r}")
    results: List[Any] = [None] * len(requests)

    def finish(index: int, result: Any) -> None:
        results[index] = result

    run_tasks(_run_experiment,
              [(name, dict(kwargs)) for name, kwargs in requests],
              jobs if jobs is not None else default_jobs(), finish)
    return results
