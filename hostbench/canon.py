"""Canonical digests of simulated results, for the correctness gate.

A digest is the SHA-256 of a canonical JSON rendering: dict keys
sorted, floats written with ``repr`` (exact round trip), numpy arrays
reduced to dtype, shape and a hash of their bytes.  Two results digest
equal exactly when they are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

__all__ = ["canonical", "digest", "run_value"]


def canonical(value: Any) -> Any:
    """A JSON-native, order-stable rendering of ``value``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {"ndarray": data.dtype.str, "shape": list(data.shape),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest()}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if hasattr(value, "to_dict"):
        return canonical(value.to_dict())
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value: Any) -> str:
    """SHA-256 hex digest of ``canonical(value)``."""
    text = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_value(result: Any, with_output: bool = True) -> dict:
    """What a ``RunResult`` pins: simulated runtime, every
    ``ClusterStats`` counter and (``with_output``) the application's
    output.  Sweep points leave the output out, because a point served
    from the run cache carries none.

    ``events_processed`` is deliberately left out: it counts the
    simulator's own bookkeeping, which an engine change may alter
    without changing any simulated result.
    """
    value = {"runtime_us": result.runtime_us,
             "stats": result.stats.to_dict()}
    if with_output:
        value["output"] = result.output
    return value
