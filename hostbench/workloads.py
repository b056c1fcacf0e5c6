"""The benchmark's four workloads.

Constructing a workload is its set-up (inputs, caches, snapshot);
``run()`` is the timed region and calls only public entry points of
``repro``.  Everything the correctness gate and the metrics need is read
off the workload after ``run()`` returns, outside the timed region.

Each workload names its operations up front (one application run,
sweep point, predicted sweep or lint pass each), so an operation that
raises still counts as attempted and failed.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import tarfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro import Cluster
from repro.analysis import (analyze_paths, analyze_program, build_program,
                            default_rules, load_source)
from repro.analysis.core import iter_python_files
from repro.cost import record_run
from repro.harness import RunCache, fault_sweep, run_sweep, suite_for
from repro.harness.sweeps import knob_factory, predicted_sweep
from repro.serve import FanoutServe, KVServe

from hostbench import speed
from hostbench.canon import run_value

__all__ = ["WORKLOADS", "SIZES", "build", "cpu_seconds"]

N_NODES = 32
#: Least host time between two speed samples (see :mod:`hostbench.speed`).
SPEED_EVERY_S = 1.0
#: Flow-control window of every sweep point and recording (the
#: ``run_sweep`` default, so recorded baselines equal sweep baselines).
WINDOW = 8
#: The frozen input of ``lint_tree``: ``src/repro`` as of commit
#: e2dc340, packed with ``git archive e2dc340 src/repro | xz -9``.
SNAPSHOT = Path(__file__).resolve().parent / "snapshot" / \
    "repro-src-e2dc340.tar.xz"
SNAPSHOT_SHA256 = \
    "8e3e395ebd331beaad5f4a705888b94977d3a0747919312350b9c957f69fc497"

#: ``full`` is what the benchmark measures; ``small`` is the reduced
#: pass its own tests run.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "scale": 0.1,
        "suite_apps": None,
        "sweep_apps": ("Sample", "EM3D(read)", "NOW-sort"),
        "kv_requests": 20_000,
        "fanout_requests": 5_000,
        "saturated_requests": 20_000,
        "grids": {"overhead": (2.9, 7.9, 23.0, 103.0),
                  "gap": (5.8, 30.0, 105.0),
                  "latency": (5.0, 30.0, 105.0),
                  "bulk_mb_s": (38.0, 10.0, 3.0)},
        "drop_rates": (0.0, 0.01),
        "lint_dirs": ("src/repro",),
    },
    "small": {
        "scale": 0.01,
        "suite_apps": ("Radix", "Sample", "P-Ray", "Murphi", "NOW-sort",
                       "Radb"),
        "sweep_apps": ("Sample", "NOW-sort"),
        "kv_requests": 400,
        "fanout_requests": 200,
        "saturated_requests": 600,
        "grids": {"overhead": (2.9, 23.0),
                  "gap": (5.8, 30.0),
                  "latency": (5.0, 30.0),
                  "bulk_mb_s": (38.0, 3.0)},
        "drop_rates": (0.0, 0.01),
        "lint_dirs": ("src/repro/sim",),
    },
}


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _simulated_counts(results: Iterable[Any]) -> Dict[str, int]:
    """Messages, events and retransmissions over simulated runs."""
    counts = {"msgs": 0, "events": 0, "retx": 0}
    for result in results:
        counts["msgs"] += result.stats.total_messages
        counts["events"] += result.events_processed
        counts["retx"] += result.stats.total_retransmissions
    return counts


class Workload:
    """Common bookkeeping: operation ids, errors, timed parts."""

    name = ""
    #: Whether ``jobs`` fans work across a process pool.
    pooled = False
    #: Least host time between two speed samples between parts.
    speed_every_s = SPEED_EVERY_S

    def __init__(self, seed: int, size: Dict[str, Any], tmp: Path,
                 jobs: int) -> None:
        self.seed = seed
        self.size = size
        self.tmp = tmp
        self.jobs = jobs
        self.ops: List[str] = []
        self.errors: Dict[str, str] = {}
        #: ``(name, wall_s, cpu_s, scale)`` of every timed part, in run
        #: order; ``scale`` takes its host seconds to reference speed.
        self.parts: List[tuple] = []
        #: ``(perf_counter, reference kernel seconds)``, oldest first.
        self.speed_samples: List[tuple] = []
        self._unscaled: List[tuple] = []

    @contextmanager
    def attempt(self, ops: Sequence[str]):
        """Run one unit of work; an error fails ``ops`` and the run
        goes on with the next unit."""
        try:
            yield
        except Exception as exc:  # the benchmark must finish and report
            traceback.print_exc(file=sys.stderr)
            for op in ops:
                self.errors[op] = f"{type(exc).__name__}: {exc}"

    def sample_speed(self, force: bool = False) -> float:
        """Time the reference kernel if ``force`` or if the last sample
        is older than ``speed_every_s``; return the latest sample.

        Each finished part waits for the next sample and is scaled by
        the mean of the samples just before and just after it.
        """
        samples = self.speed_samples
        if force or \
                time.perf_counter() - samples[-1][0] >= self.speed_every_s:
            samples.append((time.perf_counter(), speed.reference_seconds()))
            for name, wall_s, cpu_s, before in self._unscaled:
                scale = speed.NOMINAL_S / ((before + samples[-1][1]) / 2)
                self.parts.append((name, wall_s, cpu_s, scale))
            self._unscaled.clear()
        return samples[-1][1]

    @contextmanager
    def part(self, name: str):
        """Time the block as part ``name``: host wall and CPU seconds.

        Parts are a workload's units of work (a run, a sweep call, a
        lint phase), named the same in every repetition, so the
        end-to-end figures can take each part's median across
        repetitions.
        """
        before = self.sample_speed(force=not self.speed_samples)
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self._unscaled.append((name, time.perf_counter() - wall0,
                                   cpu_seconds() - cpu0, before))
            self.sample_speed()

    def seconds(self, prefix: str, column: int = 1) -> float:
        """Summed wall (or, with ``column=2``, CPU) seconds of the parts
        whose name starts with ``prefix``."""
        return sum(part[column] for part in self.parts
                   if part[0].startswith(prefix))

    def run(self) -> None:
        raise NotImplementedError

    def items(self) -> Dict[str, Any]:
        """Operation id → the value its digest pins."""
        raise NotImplementedError

    def check_failures(self) -> Dict[str, str]:
        """Operation id → why a check other than the pin failed."""
        return {}

    def values(self) -> Dict[str, float]:
        """Metrics of this repetition, by benchmark metric name, plus
        the raw ``msgs`` and ``retx`` counts the traced ratios divide
        by.  Rates and timings are in unscaled host seconds."""
        raise NotImplementedError


class _Runs(Workload):
    """A workload of independent ``Cluster.run`` calls, one operation
    each: ``self.runs`` holds ``(op, cluster, app)``."""

    def __init__(self, seed: int, size: Dict[str, Any], tmp: Path,
                 jobs: int) -> None:
        super().__init__(seed, size, tmp, jobs)
        self.runs: List[tuple] = []
        self.results: Dict[str, Any] = {}

    def run(self) -> None:
        for op, cluster, app in self.runs:
            with self.attempt([op]), self.part(op):
                self.results[op] = cluster.run(app)

    def items(self) -> Dict[str, Any]:
        return {op: run_value(result)
                for op, result in self.results.items()}

    def values(self) -> Dict[str, float]:
        counts = _simulated_counts(self.results.values())
        wall_s = self.seconds("")
        return {"msgs_per_s": counts["msgs"] / wall_s,
                "sim.events": counts["events"],
                "sim.events_per_s": counts["events"] / wall_s,
                "msgs": counts["msgs"], "retx": counts["retx"]}


class Suite32(_Runs):
    """The ten paper applications, one run each at baseline dials."""

    name = "suite32"

    def __init__(self, seed: int, size: Dict[str, Any], tmp: Path,
                 jobs: int) -> None:
        super().__init__(seed, size, tmp, jobs)
        cluster = Cluster(N_NODES, seed=seed)
        self.runs = [(f"run/{app.name}", cluster, app)
                     for app in suite_for(N_NODES, size["scale"],
                                          names=size["suite_apps"])]
        self.ops = [op for op, _, _ in self.runs]


class Serve32(_Runs):
    """Three open-loop serving scenarios on 32 nodes."""

    name = "serve32"
    RATE_RPS = 400_000.0

    def __init__(self, seed: int, size: Dict[str, Any], tmp: Path,
                 jobs: int) -> None:
        super().__init__(seed, size, tmp, jobs)
        kv = {"replication": "primary-backup", "read_anywhere": True,
              "offered_rps": self.RATE_RPS}
        base = Cluster(N_NODES, seed=seed)
        self.runs = [
            ("serve/kv-pb-poisson", base,
             KVServe(max_requests=size["kv_requests"],
                     duration_us=self._horizon(size["kv_requests"]), **kv)),
            ("serve/fanout4-mmpp", base,
             FanoutServe(fanout=4, arrivals="bursty",
                         offered_rps=self.RATE_RPS,
                         max_requests=size["fanout_requests"],
                         duration_us=self._horizon(
                             size["fanout_requests"]))),
            ("serve/kv-pb-o25-saturated",
             base.with_knobs(knob_factory("overhead")(25.0)),
             KVServe(max_requests=size["saturated_requests"],
                     duration_us=self._horizon(
                         size["saturated_requests"]), **kv)),
        ]
        self.ops = [op for op, _, _ in self.runs]

    @classmethod
    def _horizon(cls, requests: int) -> float:
        """A trace length the request cap always ends first."""
        return 4.0 * requests / cls.RATE_RPS * 1e6

    def values(self) -> Dict[str, float]:
        served = [result.output for result in self.results.values()]
        requests = sum(m.completed + m.dropped for m in served)
        values = super().values()
        values.update({"requests_per_s": requests / self.seconds(""),
                       "serve.requests": requests,
                       "serve.dropped": sum(m.dropped for m in served)})
        return values


class TimedRunCache(RunCache):
    """A :class:`RunCache` that times its lookups and stores and keeps
    every simulated result it is handed."""

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.get_s = 0.0
        self.put_s = 0.0
        #: One bool per lookup, in order: was it a hit?
        self.lookups: List[bool] = []
        self.simulated: List[Any] = []

    def get(self, spec):
        start = time.perf_counter()
        outcome = super().get(spec)
        self.get_s += time.perf_counter() - start
        self.lookups.append(outcome is not None)
        return outcome

    def put(self, spec, result=None, failure=None) -> None:
        start = time.perf_counter()
        super().put(spec, result=result, failure=failure)
        self.put_s += time.perf_counter() - start
        if result is not None:
            self.simulated.append(result)


def _point_value(point: Any) -> Dict[str, Any]:
    return {"value": point.value, "failure": point.failure_category,
            "result": (run_value(point.result, with_output=False)
                       if point.result is not None else None)}


class Sweep32(Workload):
    """Cold dial sweeps into a fresh cache, the same grid warm, and
    predicted sweeps replayed from one recording per application."""

    name = "sweep32"
    pooled = True
    FAULT_DIAL = "drop_rate"

    def __init__(self, seed: int, size: Dict[str, Any], tmp: Path,
                 jobs: int) -> None:
        super().__init__(seed, size, tmp, jobs)
        self.apps = suite_for(N_NODES, size["scale"],
                              names=size["sweep_apps"])
        self.grids = dict(size["grids"])
        self.dials = list(self.grids) + [self.FAULT_DIAL]
        self.grids[self.FAULT_DIAL] = size["drop_rates"]
        self.cache = TimedRunCache(tmp / "runcache")
        if tmp.resolve() not in self.cache.root.resolve().parents:
            raise RuntimeError(f"run cache {self.cache.root} escapes {tmp}")
        self.sweeps: Dict[str, Dict[tuple, Any]] = {"cold": {}, "warm": {}}
        self.recorded: Dict[str, Any] = {}
        self.predicted: Dict[tuple, Any] = {}
        for label in ("cold", "warm"):
            for app in self.apps:
                for dial in self.dials:
                    self.ops += self._point_ops(label, app.name, dial)
        for app in self.apps:
            self.ops.append(f"record/{app.name}")
            self.ops += [f"pred/{app.name}/{dial}" for dial in self.grids
                         if dial != self.FAULT_DIAL]

    def _point_ops(self, label: str, app: str, dial: str) -> List[str]:
        return [f"{label}/{app}/{dial}/{value!r}"
                for value in self.grids[dial]]

    def _pass(self, label: str) -> None:
        for app in self.apps:
            for dial in self.dials:
                with self.attempt(self._point_ops(label, app.name, dial)), \
                        self.part(f"{label}/{app.name}/{dial}"):
                    if dial == self.FAULT_DIAL:
                        sweep = fault_sweep(
                            app, N_NODES, drop_rates=self.grids[dial],
                            seed=self.seed, jobs=self.jobs,
                            cache=self.cache)
                    else:
                        sweep = run_sweep(
                            app, N_NODES, dial, self.grids[dial],
                            knob_factory(dial), seed=self.seed,
                            window=WINDOW, jobs=self.jobs,
                            cache=self.cache)
                    self.sweeps[label][(app.name, dial)] = sweep

    def run(self) -> None:
        cache = self.cache
        self._pass("cold")
        self.cold_simulated = len(cache.simulated)
        self.cold_lookups = len(cache.lookups)
        self._pass("warm")
        for app in self.apps:
            ops = [f"record/{app.name}"] + [
                f"pred/{app.name}/{dial}" for dial in self.grids
                if dial != self.FAULT_DIAL]
            with self.attempt(ops):
                with self.part(f"record/{app.name}"):
                    graph, result = record_run(app, N_NODES, seed=self.seed,
                                               window=WINDOW)
                self.recorded[app.name] = result
                for dial, grid in self.grids.items():
                    if dial == self.FAULT_DIAL:
                        continue
                    with self.part(f"pred/{app.name}/{dial}"):
                        self.predicted[(app.name, dial)] = predicted_sweep(
                            app, N_NODES, dial, grid, graph=graph)

    def _points(self, label: str):
        """``(op, point)`` for every point the pass produced."""
        for (app, dial), sweep in self.sweeps[label].items():
            for op, point in zip(self._point_ops(label, app, dial),
                                 sweep.points):
                yield op, point

    def items(self) -> Dict[str, Any]:
        items = {op: _point_value(point)
                 for label in ("cold", "warm")
                 for op, point in self._points(label)}
        for app, result in self.recorded.items():
            items[f"record/{app}"] = run_value(result)
        for (app, dial), sweep in self.predicted.items():
            items[f"pred/{app}/{dial}"] = [
                [point.value, point.runtime_us] for point in sweep.points]
        return items

    def check_failures(self) -> Dict[str, str]:
        failures: Dict[str, str] = {}
        cold = {op.split("/", 1)[1]: _point_value(point)
                for op, point in self._points("cold")}
        warm_ops = []
        for op, point in self._points("warm"):
            warm_ops.append(op)
            if _point_value(point) != cold.get(op.split("/", 1)[1]):
                failures[op] = "warm point differs from cold point"
        warm_hits = self.cache.lookups[self.cold_lookups:]
        if len(warm_hits) != len(warm_ops):
            for op in warm_ops:
                failures.setdefault(op, "warm lookups do not match points")
        else:
            for op, hit in zip(warm_ops, warm_hits):
                if not hit:
                    failures.setdefault(op, "warm point missed the cache")
        for app, result in self.recorded.items():
            baseline = cold.get(f"{app}/{self.dials[0]}/"
                                f"{self.grids[self.dials[0]][0]!r}")
            if baseline is None or baseline["result"] != run_value(
                    result, with_output=False):
                failures[f"record/{app}"] = \
                    "recorded run differs from the sweep baseline"
        return failures

    def _median_rel_err(self) -> float:
        """Median |predicted - simulated| / simulated runtime over the
        dialed (non-baseline) points both sweeps resolved."""
        errors = []
        for (app, dial), predicted in self.predicted.items():
            simulated = self.sweeps["cold"].get((app, dial))
            if simulated is None:
                continue
            for sim_point, pred_point in list(
                    zip(simulated.points, predicted.points))[1:]:
                if sim_point.completed:
                    errors.append(abs(pred_point.runtime_us
                                      - sim_point.runtime_us)
                                  / sim_point.runtime_us)
        return median(errors) if errors else 0.0

    def values(self) -> Dict[str, float]:
        simulated = self.cache.simulated
        cold = _simulated_counts(simulated[:self.cold_simulated])
        counts = _simulated_counts(list(simulated)
                                   + list(self.recorded.values()))
        cold_s = self.seconds("cold/")
        points = sum(len(sweep.points)
                     for sweep in self.sweeps["cold"].values())
        hits = sum(self.cache.lookups)
        return {"msgs_per_s": cold["msgs"] / cold_s,
                "points_per_s": points / cold_s,
                "sim.events": counts["events"],
                "sim.events_per_s": counts["events"] / self.seconds(""),
                "harness.cache.hits": hits,
                "harness.cache.misses": len(self.cache.lookups) - hits,
                "harness.cache.get_s": self.cache.get_s,
                "harness.cache.put_s": self.cache.put_s,
                "harness.warm_pass_s": self.seconds("warm/"),
                "harness.pool_util": self.seconds("cold/", column=2)
                / (self.jobs * cold_s),
                "cost.record_s": self.seconds("record/"),
                "cost.predict_s": self.seconds("pred/"),
                "cost.median_rel_err": self._median_rel_err(),
                "msgs": counts["msgs"], "retx": counts["retx"]}


class LintTree(Workload):
    """``python -m repro.analysis --deep`` over a frozen source tree."""

    name = "lint_tree"

    def __init__(self, seed: int, size: Dict[str, Any], tmp: Path,
                 jobs: int) -> None:
        super().__init__(seed, size, tmp, jobs)
        packed = SNAPSHOT.read_bytes()
        if hashlib.sha256(packed).hexdigest() != SNAPSHOT_SHA256:
            raise RuntimeError(f"{SNAPSHOT.name} does not match its digest")
        self.root = tmp / "snapshot"
        with tarfile.open(SNAPSHOT) as archive:
            archive.extractall(self.root, filter="data")
        self.paths = [self.root / d for d in size["lint_dirs"]]
        self.rules = default_rules()
        self.ops = ["lint"]
        self.report: Optional[Dict[str, Any]] = None

    def run(self) -> None:
        with self.attempt(self.ops):
            # One part per file, so a burst on the host spoils few parts
            # and speed samples fall inside the per-file pass; the
            # findings and count are those of one call over the tree.
            findings, checked = [], 0
            for path in iter_python_files(self.paths):
                with self.part(f"lint/{path.relative_to(self.root)}"):
                    found, count = analyze_paths([path], self.rules,
                                                 root=self.root)
                findings += found
                checked += count
            with self.part("flow_build"):
                sources = {}
                for path in iter_python_files(self.paths):
                    source = load_source(
                        path, str(path.relative_to(self.root)))
                    sources[source.path] = source
                build_program(sources)
            with self.part("flow_check"):
                flow = analyze_program(sources)
            self.report = {"files_checked": checked, "findings": findings,
                           "flow_findings": flow}

    def items(self) -> Dict[str, Any]:
        if self.report is None:
            return {}
        report = dict(self.report)
        for key in ("findings", "flow_findings"):
            report[key] = [finding.to_dict() for finding in report[key]]
        return {"lint": report}

    def values(self) -> Dict[str, float]:
        files = self.report["files_checked"] if self.report else 0
        return {"analysis.lint_s": self.seconds("lint/"),
                "analysis.flow_build_s": self.seconds("flow_build"),
                "analysis.flow_check_s": self.seconds("flow_check"),
                "analysis.files": files, "sim.events": 0, "msgs": 0,
                "retx": 0}


WORKLOADS = {cls.name: cls for cls in (Suite32, Serve32, Sweep32, LintTree)}


def build(name: str, seed: int, size: str, tmp: Path,
          jobs: int) -> Workload:
    """Set up workload ``name`` (this is what ``setup_s`` times)."""
    return WORKLOADS[name](seed, SIZES[size], tmp, jobs)
