"""The traced run: host self time per ``repro`` package, and call counts
at public layer boundaries.

Self time comes from :mod:`cProfile` and is grouped by the
``repro.<package>`` that defines each function; everything else
(stdlib, numpy, heapq, builtins, this benchmark) is ``other``.

Call counts come from counting wrappers the traced run installs on a
few public methods.  cProfile cannot give them: it counts every resume
of a generator as a call, and most boundaries here are generators.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import os
import pstats
from pathlib import Path
from typing import Dict, List

__all__ = ["LAYERS", "BOUNDARIES", "Tracer"]

#: Every package of ``repro``; the shares of these plus ``other`` sum to 1.
LAYERS = ("am", "analysis", "apps", "calibrate", "cluster", "coll", "cost",
          "gas", "harness", "instruments", "models", "network", "sanitize",
          "serve", "sim", "other")

#: Boundary name → (module, class, method) whose calls are counted.
BOUNDARIES = {
    "sim.timeout": ("repro.sim", "Simulator", "timeout"),
    "sim.process": ("repro.sim", "Simulator", "process"),
    "am.send_request": ("repro.am", "AmLayer", "send_request"),
    "am.reply": ("repro.am", "AmLayer", "reply"),
    "am.bulk_store": ("repro.am", "AmLayer", "bulk_store"),
    "am.wait_until": ("repro.am", "AmLayer", "wait_until"),
    "network.carry": ("repro.network", "Wire", "carry"),
    "gas.read": ("repro.gas", "Proc", "read"),
    "gas.write": ("repro.gas", "Proc", "write"),
    "gas.barrier": ("repro.gas", "Proc", "barrier"),
    "instruments.on_send": ("repro.instruments", "ClusterStats", "on_send"),
}


def _counting(method, cell: List[int]):
    @functools.wraps(method)
    def counted(*args, **kwargs):
        cell[0] += 1
        return method(*args, **kwargs)
    return counted


class Tracer:
    """Profiles a block and counts boundary calls inside it.

    ``with tracer:`` installs the counters, profiles the block and
    removes the counters again.
    """

    def __init__(self) -> None:
        import repro
        self._src = str(Path(repro.__file__).resolve().parent) + os.sep
        self._own = str(Path(__file__).resolve().parent) + os.sep
        self._profile = cProfile.Profile()
        self._cells = {name: [0] for name in BOUNDARIES}
        self._saved = []

    def __enter__(self) -> "Tracer":
        for name, (module, cls_name, method) in BOUNDARIES.items():
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, _counting(original, self._cells[name]))
        self._profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profile.disable()
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def calls(self) -> Dict[str, int]:
        """Boundary name → calls made inside the block."""
        return {name: cell[0] for name, cell in self._cells.items()}

    def _layer_of(self, filename: str) -> str:
        if not filename.startswith(self._src):
            return "other"
        package = filename[len(self._src):].split(os.sep, 1)[0]
        return package if package in LAYERS else "other"

    def self_shares(self) -> Dict[str, float]:
        """Layer → its share of the block's self time, leaving out the
        benchmark's own frames (its loops and the counting wrappers)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for (filename, _line, _name), row in \
                pstats.Stats(self._profile).stats.items():
            filename = os.path.realpath(filename)
            if filename.startswith(self._own):
                continue  # the benchmark's loops and counting wrappers
            totals[self._layer_of(filename)] += row[2]
        total = sum(totals.values())
        return {layer: seconds / total if total else 0.0
                for layer, seconds in totals.items()}
