"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this as ``python -m hostbench.worker`` from the root of
the checkout, with ``PYTHONPATH`` set to its ``src``, once per
repetition, so every repetition pays imports and set-up and no warm
state leaks between them.  It writes one JSON record to ``--out``.

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process; ``setup_s`` runs from there to the first timed call.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time
from pathlib import Path
from typing import Any, Dict, Optional

PINS = Path(__file__).resolve().parent / "pins.json"


def load_pins(workload: str, size: str, seed: int
              ) -> Optional[Dict[str, str]]:
    """Pinned digests for this configuration, or None if none exist."""
    try:
        pins = json.loads(PINS.read_text())
    except FileNotFoundError:
        return None
    return pins.get(workload, {}).get(size, {}).get(str(seed))


def gate(workload: Any, pins: Optional[Dict[str, str]]
         ) -> Dict[str, Any]:
    """Digest every operation and decide which failed, and why.

    An operation fails when it raised, when a workload check failed
    (warm differs from cold, a warm miss, ...), when it produced
    nothing, or when pins exist and its digest differs from its pin.
    """
    from hostbench.canon import digest
    digests = {op: digest(value) for op, value in workload.items().items()}
    failed = dict(workload.check_failures())
    failed.update(workload.errors)
    for op in workload.ops:
        if op not in digests:
            failed.setdefault(op, "produced no result")
        elif pins is not None and pins.get(op) != digests[op]:
            failed.setdefault(op, "digest differs from its pin")
    return {"digests": digests, "failed": failed,
            "attempted": len(workload.ops)}


def measure(name: str, seed: int, size: str, tmp: Path, jobs: int,
            t0: float, traced: bool = False, setup_only: bool = False,
            use_pins: bool = True) -> Dict[str, Any]:
    """Set up and run one repetition; return its record."""
    from hostbench import speed, workloads
    workload = workloads.build(name, seed, size, tmp, jobs)
    record: Dict[str, Any] = {"workload": name, "seed": seed, "size": size,
                              "jobs": jobs, "traced": traced,
                              "pooled": workload.pooled}
    tracer = None
    if traced:
        from hostbench.layers import Tracer
        tracer = Tracer()
        # Sample speed only outside the profile: the kernel's heapq
        # calls would count as ``other``.
        workload.speed_every_s = math.inf
    record["setup_s"] = time.monotonic() - t0
    record["setup_scale"] = speed.NOMINAL_S / workload.sample_speed(True)
    if setup_only:
        return record

    if tracer is not None:
        with tracer:
            workload.run()
    else:
        workload.run()
    workload.sample_speed(force=True)
    # Unscaled host seconds of the parts, without the speed samples.
    record["wall_s"] = workload.seconds("")
    record["cpu_s"] = workload.seconds("", column=2)
    record["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    record["parts"] = workload.parts
    record["values"] = workload.values()
    if tracer is not None:
        record["shares"] = tracer.self_shares()
        record["calls"] = tracer.calls()
    record.update(gate(workload, load_pins(name, size, seed)
                       if use_pins else None))
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-pins", action="store_true")
    args = parser.parse_args()

    import repro
    src = Path(repro.__file__).resolve().parent.parent
    expected = (Path.cwd() / "src").resolve()
    if src != expected:
        raise SystemExit(f"imported repro from {src}, expected {expected}")
    record = measure(args.workload, args.seed, args.size, args.tmp,
                     args.jobs, args.t0, traced=args.trace,
                     setup_only=args.setup_only,
                     use_pins=not args.no_pins)
    args.out.write_text(json.dumps(record))


if __name__ == "__main__":
    main()
