"""Tests of the host-time benchmark itself.

Run from the root of a checkout::

    python3 -m pytest hostbench/tests -q

They drive ``hostbench/run.py`` at the reduced ``small`` size, so they
check the plumbing (every metric, units, the correctness gate), not
performance.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "hostbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

#: Metrics that must read above zero on the workloads that exercise them.
APPLIES = {
    "suite32": ["msgs_per_s", "sim.events", "am.send_request.calls",
                "network.packets_per_msg", "instruments.on_send.calls",
                "apps.self_share", "sim.self_share"],
    "serve32": ["msgs_per_s", "requests_per_s", "serve.requests",
                "serve.self_share", "am.waits_per_msg"],
    "sweep32": ["msgs_per_s", "points_per_s", "harness.cache.hits",
                "harness.cache.misses", "harness.cache.get_s",
                "harness.cache.put_s", "harness.warm_pass_s",
                "harness.pool_util", "cost.record_s", "cost.predict_s",
                "cost.self_share", "network.retx_per_packet"],
    "lint_tree": ["analysis.lint_s", "analysis.flow_build_s",
                  "analysis.flow_check_s", "analysis.files",
                  "analysis.self_share"],
}


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args],
                          capture_output=True, text=True, timeout=600)


def result_of(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = result_of(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in listed}
        assert {name: metric["unit"] for name, metric
                in result["metrics"].items()} == units
        values = {name: metric["value"]
                  for name, metric in result["metrics"].items()}
        assert all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in values.values())
        if trace == 0:
            assert all(v > 0 for v in values.values()), values
            continue
        shares = [v for name, v in values.items()
                  if name.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
        assert values["trace.overhead"] > 1.0
        assert values["failed_frac"] == 0
        for name in APPLIES[workload]:
            assert values[name] > 0, name


def test_perturbed_overhead_trips_the_digest_gate(tmp_path):
    from repro import TuningKnobs
    from hostbench import worker, workloads
    pins = worker.load_pins("suite32", "small", 0)
    assert pins is not None
    workload = workloads.build("suite32", 0, "small", tmp_path, 1)
    perturbed = TuningKnobs.added_overhead(1.0)
    workload.runs = [(op, cluster.with_knobs(perturbed), app)
                     for op, cluster, app in workload.runs]
    workload.run()
    verdict = worker.gate(workload, pins)
    assert verdict["attempted"] == len(pins)
    assert set(verdict["failed"]) == set(pins)
    assert set(verdict["failed"].values()) == {"digest differs from its pin"}


def test_rerun_identity_flags_a_differing_digest():
    sys.path.insert(0, str(RUN.parent))
    try:
        import run
    finally:
        sys.path.remove(str(RUN.parent))
    first = {"digests": {"a": "1", "b": "2"}, "failed": {}}
    second = {"digests": {"a": "1", "b": "3"}, "failed": {}}
    assert run.failed_ops([first, second]) == [set(), {"b"}]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "hostbench", tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "suite32",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
