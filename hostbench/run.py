#!/usr/bin/env python3
"""Host-time benchmark of the cluster simulator.

Measure one workload (the last stdout line is the JSON result; a table
of every metric by name and unit goes to stderr)::

    python3 hostbench/run.py --workload suite32 --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, medians over repetitions
that each run in a fresh interpreter; ``--trace 1`` reports the
per-layer metrics of one untraced and one traced repetition.

List every metric with its unit, or re-pin the correctness digests
(after a change that is meant to alter simulated results)::

    python3 hostbench/run.py --list-metrics
    python3 hostbench/run.py --write-pins

Run from anywhere inside a checkout; set-up, caches and the source
snapshot live under ``.hostbench_tmp/`` in the checkout and are removed
on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path
from statistics import median
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
PINS = Path(__file__).resolve().parent / "pins.json"
#: The seed whose digests are pinned; other seeds check rerun identity.
DEFAULT_SEED = 0
MIN_REPS = 3
#: ``setup_s`` is the median of at least this many fresh set-ups.
SETUP_SAMPLES = 5
#: Every invocation ends well inside the 180 s a run may take.
RUN_LIMIT_S = 165.0


def pool_jobs() -> int:
    """Sweep workers: two, or one on a single-core machine."""
    return min(2, len(os.sched_getaffinity(0)))


class Runner:
    """Starts worker processes for one workload under one temp root."""

    def __init__(self, tmp: Path, workload: str, seed: int, size: str,
                 deadline: float) -> None:
        self.tmp = tmp
        self.workload = workload
        self.seed = seed
        self.size = size
        self.deadline = deadline
        self.count = 0

    def rep(self, jobs: int, traced: bool = False, setup_only: bool = False,
            use_pins: bool = True) -> Dict[str, Any]:
        """Run one repetition in a fresh interpreter; return its record."""
        self.count += 1
        rep_tmp = self.tmp / f"rep{self.count}"
        rep_tmp.mkdir()
        out = rep_tmp / "record.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   TMPDIR=str(rep_tmp))
        env.pop("REPRO_CACHE_DIR", None)
        cmd = [sys.executable, "-m", "hostbench.worker",
               "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, "--tmp", str(rep_tmp), "--out", str(out),
               "--jobs", str(jobs)]
        cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
        cmd += ["--no-pins"] * (not use_pins)
        cmd += ["--t0", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            # The worker's own pool has ended by now unless it was cut
            # short; either way nothing of its session outlives it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"{self.workload} worker exited with "
                               f"code {proc.returncode}")
        record = json.loads(out.read_text())
        shutil.rmtree(rep_tmp)
        print(f"[{self.workload} rep {self.count}] " + " ".join(
            f"{key}={record[key]:.4f}" for key in
            ("setup_s", "wall_s", "cpu_s", "peak_rss_mb") if key in record),
            file=sys.stderr)
        return record


def failed_ops(records: List[Dict[str, Any]]) -> List[set]:
    """Per record, the operations that failed: its own verdicts plus
    every digest that differs from the first record's (rerun
    identity)."""
    reference = records[0]["digests"]
    return [set(record["failed"]) | {
                op for op, value in record["digests"].items()
                if reference.get(op) != value}
            for record in records]


def sum_of_part_medians(records: List[Dict[str, Any]], column: int
                        ) -> float:
    """Sum over a workload's parts (its runs, sweep calls, lint phases)
    of each part's median across repetitions, in reference-speed
    seconds: wall for ``column=1``, CPU for ``column=2``."""
    samples: Dict[str, List[float]] = {}
    for record in records:
        for name, wall_s, cpu_s, scale in record["parts"]:
            seconds = wall_s if column == 1 else cpu_s
            samples.setdefault(name, []).append(seconds * scale)
    return sum(median(values) for values in samples.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(plain: Dict[str, Any], traced: Dict[str, Any],
                  base: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from an untraced and a traced repetition.

    Timings and rates come from the untraced one; self-time shares and
    boundary call counts from the traced one.
    """
    values = dict(plain["values"])
    msgs = values.pop("msgs")
    retx = values.pop("retx")
    calls = traced["calls"]
    metrics = {f"{layer}.self_share": share
               for layer, share in traced["shares"].items()}
    metrics.update(values)
    metrics.update({
        "sim.events_per_msg": _ratio(values["sim.events"], msgs),
        "sim.timeouts_per_msg": _ratio(calls["sim.timeout"], msgs),
        "sim.processes_per_msg": _ratio(calls["sim.process"], msgs),
        "am.send_request.calls": calls["am.send_request"],
        "am.reply.calls": calls["am.reply"],
        "am.bulk_store.calls": calls["am.bulk_store"],
        "am.waits_per_msg": _ratio(calls["am.wait_until"], msgs),
        "network.packets_per_msg": _ratio(calls["network.carry"], msgs),
        "network.retx_per_packet": _ratio(retx, calls["network.carry"]),
        "gas.read.calls": calls["gas.read"],
        "gas.write.calls": calls["gas.write"],
        "gas.barrier.calls": calls["gas.barrier"],
        "instruments.on_send.calls": calls["instruments.on_send"],
        "trace.overhead": traced["wall_s"] / base["wall_s"],
    })
    return metrics


def measure(runner: Runner, seconds: float, trace: bool
            ) -> Dict[str, Any]:
    """Run the repetitions for one invocation and build its result."""
    jobs = pool_jobs()
    start = time.monotonic()
    if trace:
        plain = runner.rep(jobs)
        # The traced run stays in-process (jobs=1) so the profile sees
        # every simulation; its overhead is taken against an untraced
        # run of the same shape.
        traced = runner.rep(1, traced=True)
        base = runner.rep(1) if plain["pooled"] and jobs != 1 else plain
        records = [plain, traced] + ([base] if base is not plain else [])
    else:
        # Repetitions until the next one would end past ``seconds``.
        records = []
        last = 0.0
        while len(records) < MIN_REPS or \
                time.monotonic() - start + last <= seconds:
            began = time.monotonic()
            records.append(runner.rep(jobs))
            last = time.monotonic() - began
        setups = list(records)
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.rep(jobs, setup_only=True))

    failures = failed_ops(records)
    for record, ops in zip(records, failures):
        for op in sorted(ops)[:10]:
            why = record["failed"].get(op, "differs from the first run")
            print(f"FAILED {op}: {why}", file=sys.stderr)
    failed = sum(len(ops) for ops in failures)
    attempted = sum(record["attempted"] for record in records)
    if trace:
        metrics = layer_metrics(plain, traced, base)
        metrics["failed_frac"] = failed / attempted
    else:
        metrics = {"setup_s": median(record["setup_s"] * record["setup_scale"]
                                     for record in setups),
                   "wall_s": sum_of_part_medians(records, 1),
                   "cpu_s": sum_of_part_medians(records, 2),
                   "peak_rss_mb": median(record["peak_rss_mb"]
                                         for record in records)}
        print("unscaled: " + " ".join(
            f"{name}={median(record[name] for record in samples):.4f}"
            for name, samples in (("setup_s", setups), ("wall_s", records),
                                  ("cpu_s", records))),
              file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def temp_root() -> Path:
    tmp = ROOT / ".hostbench_tmp" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tmp.mkdir(parents=True)
    return tmp


def remove_temp_root(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.parent.rmdir()
    except OSError:
        pass  # another invocation still uses it


def list_metrics(spec: Dict[str, Any]) -> None:
    print("end-to-end (--trace 0), medians over repetitions, timings "
          "scaled to reference host speed:")
    for metric in spec["end_to_end"]:
        print(f"  {metric['name']:28s} {metric['unit']:12s} "
              f"{metric['better']:6s} bound {metric['bound']}")
    print("per layer (--trace 1):")
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:28s} {metric['unit']:12s} "
              f"{metric['better']}")


def write_pins(spec: Dict[str, Any]) -> None:
    """Pin the digests of every workload at both sizes, for the default
    seed, after two fresh repetitions agree."""
    pins: Dict[str, Any] = {}
    tmp = temp_root()
    try:
        for workload in spec["workloads"]:
            name = workload["name"]
            for size in ("full", "small"):
                runner = Runner(tmp, name, DEFAULT_SEED, size,
                                time.monotonic() + 900)
                records = [runner.rep(pool_jobs(), use_pins=False)
                           for _ in range(2)]
                bad = set().union(*failed_ops(records))
                if bad:
                    raise SystemExit(f"{name}/{size}: not pinned, failed "
                                     f"{sorted(bad)}")
                pins.setdefault(name, {}).setdefault(size, {})[
                    str(DEFAULT_SEED)] = records[0]["digests"]
                print(f"pinned {name}/{size}", file=sys.stderr)
    finally:
        remove_temp_root(tmp)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the cluster simulator.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small is the reduced pass of the tests")
    parser.add_argument("--list-metrics", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hostbench: {ROOT} holds no src/repro; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.list_metrics:
        list_metrics(spec)
        return 0
    if args.write_pins:
        write_pins(spec)
        return 0
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    tmp = temp_root()
    try:
        runner = Runner(tmp, args.workload, args.seed, args.size,
                        time.monotonic() + RUN_LIMIT_S)
        result = measure(runner, args.seconds, bool(args.trace))
    finally:
        remove_temp_root(tmp)

    produced = result["metrics"]
    if args.trace:
        # A layer metric of a mechanism the workload does not use (the
        # cache on suite32, serving on sweep32, ...) reads 0.
        listed = spec["per_layer"]
        produced = {m["name"]: produced.get(m["name"], 0) for m in listed}
    else:
        listed = spec["end_to_end"]
    result["metrics"] = {m["name"]: {"value": produced[m["name"]],
                                     "unit": m["unit"]} for m in listed}
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}",
              file=sys.stderr)
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
