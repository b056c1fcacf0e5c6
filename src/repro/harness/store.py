"""Sqlite-backed result store for resumable simulation campaigns.

The on-disk :class:`~repro.harness.runcache.RunCache` is content
addressed — perfect for "have I ever run this exact configuration?" —
but a million-point study also needs the *query side*: which points of
campaign X are done, which (app, P, dial) series exist, and enough
payload to rebuild tables and figures without touching a simulator.
That is a relational problem, so this layer is one sqlite database:

* one row per **completed** point, keyed by the campaign name plus the
  same SHA-256 the RunCache derives from the canonical ``run_key_spec``
  JSON — the store and the cache agree, by construction, on what "the
  same point" means;
* denormalised (app, P, parameter, value, seed) columns so table and
  figure generation is a ``SELECT``, not a resimulation;
* full :class:`~repro.cluster.machine.RunResult` payloads via the
  existing ``to_dict`` serialization (or the failure string for N/A
  points), stored as canonical sorted-keys JSON so regenerated
  artifacts are byte-identical no matter which process stored the row;
* WAL journal mode, so concurrent writers (multi-process campaign
  runners sharing one store) never block readers.

Rows are committed one `put` at a time: the moment a point's row is
visible, a crashed-and-restarted campaign will skip it.  That is the
store's entire crash-safety contract — there is no "in progress" state
to clean up, because only finished points are ever written.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.cluster.machine import RunResult

__all__ = ["ResultStore", "StoredPoint"]

#: Bump to invalidate stores when the row schema changes shape.
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    campaign  TEXT    NOT NULL,
    key       TEXT    NOT NULL,  -- RunCache.key_for(run_key_spec) sha
    app       TEXT    NOT NULL,
    n_nodes   INTEGER NOT NULL,
    parameter TEXT    NOT NULL,
    value     REAL    NOT NULL,
    seed      INTEGER NOT NULL,
    failure   TEXT,              -- exactly one of failure/result is set
    result    TEXT,              -- RunResult.to_dict() as canonical JSON
    spec      TEXT    NOT NULL,  -- canonical key-spec JSON (provenance)
    created_s REAL    NOT NULL,
    PRIMARY KEY (campaign, key)
);
CREATE INDEX IF NOT EXISTS idx_results_series
    ON results (campaign, app, n_nodes, parameter, seed);
"""


class StoredPoint:
    """One completed campaign point restored from the store."""

    __slots__ = ("campaign", "key", "app", "n_nodes", "parameter",
                 "value", "seed", "failure", "result")

    def __init__(self, campaign: str, key: str, app: str, n_nodes: int,
                 parameter: str, value: float, seed: int,
                 failure: Optional[str],
                 result: Optional[RunResult]) -> None:
        self.campaign = campaign
        self.key = key
        self.app = app
        self.n_nodes = n_nodes
        self.parameter = parameter
        self.value = value
        self.seed = seed
        self.failure = failure
        self.result = result

    @property
    def completed(self) -> bool:
        return self.result is not None


class ResultStore:
    """One sqlite database of completed campaign points.

    Safe to share between processes: WAL mode keeps readers unblocked
    by writers, and every :meth:`put` is its own transaction, so a row
    is either fully visible or absent — never half-written.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(self.path, timeout=30.0)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._check_schema_version()

    def _check_schema_version(self) -> None:
        row = self._db.execute(
            "SELECT value FROM meta WHERE key='schema'").fetchone()
        if row is None:
            with self._db:
                self._db.execute(
                    "INSERT OR REPLACE INTO meta VALUES ('schema', ?)",
                    (str(STORE_SCHEMA_VERSION),))
        elif int(row[0]) != STORE_SCHEMA_VERSION:
            raise ValueError(
                f"result store {self.path} has schema v{row[0]}, this "
                f"code expects v{STORE_SCHEMA_VERSION}; migrate or "
                "start a fresh store")

    # -- store / lookup ----------------------------------------------------
    def put(self, campaign: str, key: str, *, app: str, n_nodes: int,
            parameter: str, value: float, seed: int,
            spec: Dict[str, Any],
            result: Optional[RunResult] = None,
            failure: Optional[str] = None) -> None:
        """Persist one finished point (its own committed transaction)."""
        if (result is None) == (failure is None):
            raise ValueError("exactly one of result/failure must be given")
        payload = None if result is None else json.dumps(
            result.to_dict(), sort_keys=True)
        with self._db:
            self._db.execute(
                "INSERT OR REPLACE INTO results VALUES "
                "(?,?,?,?,?,?,?,?,?,?,?)",
                (campaign, key, app, n_nodes, parameter, value, seed,
                 failure, payload, json.dumps(spec, sort_keys=True,
                                              default=repr),
                 time.time()))

    def get(self, campaign: str, key: str
            ) -> Optional[Tuple[Optional[RunResult], Optional[str]]]:
        """The stored ``(result, failure)`` outcome, or None on a miss."""
        row = self._db.execute(
            "SELECT failure, result FROM results "
            "WHERE campaign=? AND key=?", (campaign, key)).fetchone()
        if row is None:
            return None
        failure, payload = row
        if failure is not None:
            return (None, failure)
        return (RunResult.from_dict(json.loads(payload)), None)

    def keys(self, campaign: str) -> Set[str]:
        """Every stored point key of one campaign (the resume set)."""
        return {row[0] for row in self._db.execute(
            "SELECT key FROM results WHERE campaign=?", (campaign,))}

    def count(self, campaign: Optional[str] = None) -> int:
        """Stored points, for one campaign or the whole store."""
        if campaign is None:
            query, args = "SELECT COUNT(*) FROM results", ()
        else:
            query = "SELECT COUNT(*) FROM results WHERE campaign=?"
            args = (campaign,)
        return self._db.execute(query, args).fetchone()[0]

    def count_failures(self, campaign: str) -> int:
        """Stored N/A points (failure string, no result payload)."""
        return self._db.execute(
            "SELECT COUNT(*) FROM results "
            "WHERE campaign=? AND failure IS NOT NULL",
            (campaign,)).fetchone()[0]

    def campaigns(self) -> List[str]:
        """Every campaign with at least one stored point."""
        return [row[0] for row in self._db.execute(
            "SELECT DISTINCT campaign FROM results ORDER BY campaign")]

    # -- query side (table/figure generation) ------------------------------
    def points(self, campaign: str, app: Optional[str] = None,
               n_nodes: Optional[int] = None,
               parameter: Optional[str] = None,
               seed: Optional[int] = None) -> Iterator[StoredPoint]:
        """Stored points of one campaign, optionally filtered.

        Rows stream back ordered by (app, n_nodes, parameter, seed,
        value) so series reconstruction is deterministic regardless of
        completion order.
        """
        query = ("SELECT campaign, key, app, n_nodes, parameter, value, "
                 "seed, failure, result FROM results WHERE campaign=?")
        args: List[Any] = [campaign]
        for column, wanted in (("app", app), ("n_nodes", n_nodes),
                               ("parameter", parameter), ("seed", seed)):
            if wanted is not None:
                query += f" AND {column}=?"
                args.append(wanted)
        query += " ORDER BY app, n_nodes, parameter, seed, value"
        for row in self._db.execute(query, args):
            (campaign_, key, app_, nodes, dial, value, seed_, failure,
             payload) = row
            result = None if payload is None else RunResult.from_dict(
                json.loads(payload))
            yield StoredPoint(campaign_, key, app_, nodes, dial, value,
                              seed_, failure, result)

    # -- garbage collection ------------------------------------------------
    def prune(self, campaign: str) -> int:
        """Delete every stored point of one campaign; returns the count.

        One committed transaction: either all of the campaign's rows
        are gone or none are.  Other campaigns' rows are untouched.
        Space is only returned to the filesystem by :meth:`vacuum`.
        """
        with self._db:
            cursor = self._db.execute(
                "DELETE FROM results WHERE campaign=?", (campaign,))
        return cursor.rowcount

    def vacuum(self) -> None:
        """Compact the database file after pruning (sqlite VACUUM).

        Runs outside any transaction (sqlite requires it) and blocks
        concurrent writers for the duration — call it from maintenance
        paths like ``python -m repro.harness --store-gc``, not from a
        live campaign.
        """
        self._db.execute("VACUUM")

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return self.count()

    def describe(self) -> str:
        """One-line summary for CLI output."""
        return (f"ResultStore({self.path}, {len(self)} points in "
                f"{len(self.campaigns())} campaigns)")
