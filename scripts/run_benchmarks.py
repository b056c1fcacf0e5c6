#!/usr/bin/env python3
"""Measure event-kernel throughput and emit machine-readable BENCH JSON.

Runs the two storm workloads from ``benchmarks/test_engine_throughput``
on each kernel configuration and writes per-configuration events/second
plus the speedup to a JSON file:

* ``naive`` — the engine driven one ``step()`` call per event: the
  pre-optimisation kernel shape (no hoisting, per-event dispatch).
* ``heap``  — the engine's inlined ``run()`` loop.

The committed ``BENCH_6.json`` is an earlier output of this script, from
when a calendar-queue tier also existed; it is kept as history.

Methodology (the box is noisy, so all of this matters): every
measurement runs in its own freshly forked interpreter; tiers are
interleaved at the process level so thermal/background drift hits all
tiers equally; each process does one untimed warmup run, then ``gc``
collects before each timed iteration (gc stays *enabled* during timing
— that is the production configuration); the reported figure is the
best iteration across all processes.  Event counts are asserted
identical across tiers — both run the same engine, so a count mismatch
fails the whole benchmark run.

Usage:
    python scripts/run_benchmarks.py [--out bench-engine.json] [--procs 3]
        [--inner 7] [--tiers naive,heap]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
_BENCH = os.path.join(_ROOT, "benchmarks")

STORMS = ("event_storm", "am_storm")
TIERS = ("naive", "heap")


# ---------------------------------------------------------------------------
# Worker: one process, one (tier, storm), N timed iterations.
# ---------------------------------------------------------------------------

def _naive_run(self, until=None, stop_event=None):
    """The pre-inlining kernel: one ``step()`` method call per event.

    Together with ``_naive_timeout`` and ``_naive_resume`` below this
    reconstructs the kernel before the ARCHITECTURE §7 hot-path work
    (per-event dispatch, generic event construction, raising property
    reads) — the denominator of the committed speedup trajectory.
    """
    if stop_event is not None:
        if stop_event.processed:
            if stop_event.ok:
                return stop_event.value
            raise stop_event.value
        stop_event._defused = True
        stop_event.add_callback(self._stop_callback)
    # peek() sees the now-queue as well as the heap, so this drains
    # zero-delay work and deferred calls exactly as run() does.
    while self.peek() < float("inf"):
        if until is not None and self.peek() > until:
            self._now = until
            break
        self.step()
        if self._stop_requested is not None:
            stopped = self._stop_requested
            self._stop_requested = None
            if stopped._ok is False:
                raise stopped.value
            return stopped.value
    if stop_event is not None:
        raise TimeoutError(
            f"simulation ended at t={self._now} before "
            f"{stop_event!r} triggered")
    if until is not None and self._now < until:
        self._now = until
    return None


def _naive_timeout(self, delay, value=None):
    """Timeout via the generic constructor (pre-§7 construction path)."""
    from repro.sim.events import Timeout
    return Timeout(self, delay, value)


def _naive_resume(self, event):
    """Process wakeup through the raising ``ok``/``value`` properties
    instead of direct slot reads (the pre-§7 resume path).  It still
    names the running process, which ``Simulator.sleep`` needs."""
    if event is not self._waiting_on:
        return
    self._waiting_on = None
    sim = self.sim
    sim._active = self
    try:
        if event.ok:
            target = self._generator.send(event.value)
        else:
            event._defused = True
            target = self._generator.throw(event.value)
    except StopIteration as stop:
        self.succeed(stop.value)
        return
    except BaseException as exc:  # noqa: BLE001
        # simlint: disable=broad-except - mirrors Process._resume.
        self.fail(exc)
        return
    finally:
        sim._active = None
    self._wait_on(target)


def _worker(tier: str, storm: str, inner: int) -> None:
    import gc
    import time

    sys.path.insert(0, _SRC)
    sys.path.insert(0, _BENCH)

    from repro.sim import engine as engine_mod
    from repro.sim.process import Process

    if tier == "naive":
        engine_mod.Simulator.run = _naive_run
        engine_mod.Simulator.timeout = _naive_timeout
        Process._resume = _naive_resume
    elif tier != "heap":
        raise SystemExit(f"unknown tier {tier!r}")

    from test_engine_throughput import run_am_storm, run_event_storm
    run = run_event_storm if storm == "event_storm" else run_am_storm

    events = run()  # untimed warmup
    best = None
    for _ in range(inner):
        gc.collect()
        start = time.perf_counter()
        got = run()
        elapsed = time.perf_counter() - start
        assert got == events, f"event count drifted: {got} != {events}"
        if best is None or elapsed < best:
            best = elapsed
    print(json.dumps({"events": events, "best_seconds": best}))


# ---------------------------------------------------------------------------
# Parent: interleave worker processes, aggregate, emit JSON.
# ---------------------------------------------------------------------------

def _spawn(tier: str, storm: str, inner: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--worker", tier, storm, "--inner", str(inner)],
        capture_output=True, text=True, cwd=_ROOT)
    if out.returncode != 0:
        raise RuntimeError(
            f"worker {tier}/{storm} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="bench-engine.json")
    parser.add_argument("--procs", type=int, default=3,
                        help="worker processes per (tier, storm) pair")
    parser.add_argument("--inner", type=int, default=7,
                        help="timed iterations inside each worker")
    parser.add_argument("--tiers", default=",".join(TIERS))
    parser.add_argument("--worker", nargs=2, metavar=("TIER", "STORM"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        _worker(args.worker[0], args.worker[1], args.inner)
        return 0

    tiers = tuple(t.strip() for t in args.tiers.split(",") if t.strip())
    samples = {(tier, storm): [] for tier in tiers for storm in STORMS}
    for proc in range(args.procs):
        # Interleaved: every tier measures under the same box
        # conditions within each pass.
        for storm in STORMS:
            for tier in tiers:
                result = _spawn(tier, storm, args.inner)
                samples[(tier, storm)].append(result)
                rate = result["events"] / result["best_seconds"]
                print(f"pass {proc + 1}/{args.procs} {storm:11s} "
                      f"{tier:8s} {rate:10.0f} events/s", flush=True)

    report = {
        "schema": "repro-bench-v1",
        "workloads": "benchmarks/test_engine_throughput.py",
        "method": {
            "isolation": "one forked interpreter per measurement, "
                         "tiers interleaved per pass",
            "passes": args.procs,
            "iterations_per_pass": args.inner,
            "statistic": "best iteration over all passes",
            "gc": "enabled during timing, collected before each "
                  "iteration",
            "python": sys.version.split()[0],
        },
        "tiers": {
            "naive": "heap engine with the pre-optimisation kernel "
                     "shape reconstructed: step()-per-event dispatch, "
                     "generic Timeout construction, property-based "
                     "process resume",
            "heap": "the engine's inlined run() loop",
        },
        "storms": {},
    }
    for storm in STORMS:
        entry = {"tiers": {}}
        counts = set()
        for tier in tiers:
            runs = samples[(tier, storm)]
            counts.update(run["events"] for run in runs)
            best = min(run["best_seconds"] for run in runs)
            entry["tiers"][tier] = {
                "events": runs[0]["events"],
                "best_seconds": round(best, 6),
                "events_per_s": round(runs[0]["events"] / best),
                "per_pass_events_per_s": [
                    round(run["events"] / run["best_seconds"])
                    for run in runs],
            }
        if len(counts) != 1:
            raise SystemExit(
                f"bit-identity violated on {storm}: event counts "
                f"diverged across tiers: {sorted(counts)}")
        entry["events"] = counts.pop()
        speedups = {}
        for base in ("naive", "heap"):
            if base not in entry["tiers"]:
                continue
            base_rate = entry["tiers"][base]["events_per_s"]
            speedups[f"vs_{base}"] = {
                tier: round(entry["tiers"][tier]["events_per_s"]
                            / base_rate, 2)
                for tier in tiers}
        entry["speedup"] = speedups
        report["storms"][storm] = entry

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {args.out}")
    for storm, entry in report["storms"].items():
        summary = ", ".join(
            f"{tier} {entry['tiers'][tier]['events_per_s']:,}/s"
            for tier in tiers)
        print(f"  {storm}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
