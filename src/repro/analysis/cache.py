"""Two-tier content-addressed artifact cache.

:class:`ArtifactCache` stores analysis artifacts — structural tables,
reachability/coverability/GSPN graphs, decision graphs, performance
expressions — keyed on ``(net fingerprint, stage, params)``:

* an **in-memory tier**: an LRU-bounded ``OrderedDict`` holding decoded
  artifacts, so repeated requests within a process return the *same*
  object (like ``NetTables.of``),
* an optional **disk tier**: a single-file SQLite database of encoded
  payloads (the same pickle machinery and transaction discipline as
  :mod:`repro.engine.store`'s spill layer), so identical requests across
  process restarts hit disk instead of rebuilding.

Keys are plain strings — ``<fingerprint>/<presentation>/<stage>?<params>``
via :meth:`ArtifactCache.key_for` — deterministic across processes (no
Python ``hash()`` anywhere).  Artifacts whose natural serialized form is
not their pickle (timed graphs ride the compact codec of
:mod:`repro.analysis.codec`) pass explicit ``encode``/``decode`` callables
to :meth:`fetch`.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..engine import faults
from ..engine.store import _decode, _encode, locked_retry
from ..petri.fingerprint import net_cache_key
from ..petri.net import TimedPetriNet

#: Default bound of the in-memory artifact tier (decoded artifacts held at
#: once; graphs dominate, so the default is deliberately small).
DEFAULT_MEMORY_LIMIT = 32

#: Disk database file name inside a cache directory.
DISK_FILE = "artifacts.db"

#: Tier labels reported by :meth:`ArtifactCache.fetch`.
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_BUILT = "built"


def params_token(params: Optional[Mapping[str, object]]) -> str:
    """Canonical text of a stage's parameters, stable across processes.

    Keys are sorted; Fractions render as ``numerator/denominator``; nested
    mappings (e.g. GSPN rate assignments) are canonicalized recursively.
    """
    if not params:
        return ""

    def render(value: object) -> str:
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, Mapping):
            inner = ",".join(
                f"{key}={render(value[key])}" for key in sorted(value)
            )
            return "{" + inner + "}"
        if isinstance(value, (list, tuple)):
            return "[" + ",".join(render(item) for item in value) + "]"
        return repr(value)

    return "&".join(f"{key}={render(params[key])}" for key in sorted(params))


class ArtifactCache:
    """In-memory LRU + optional SQLite disk tier for analysis artifacts.

    Parameters
    ----------
    directory:
        Cache directory for the disk tier (created on demand).  ``None``
        keeps the cache memory-only.
    memory_limit:
        Decoded artifacts held in the in-memory tier at once.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        memory_limit: int = DEFAULT_MEMORY_LIMIT,
    ):
        if not isinstance(memory_limit, int) or isinstance(memory_limit, bool) or memory_limit < 1:
            raise ValueError(
                f"memory_limit must be a positive integer, got {memory_limit!r}"
            )
        self.directory = directory
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        self._memory_limit = memory_limit
        self._connection: Optional[sqlite3.Connection] = None
        # One cache instance may serve many request-handler threads (the
        # analysis server shares a single cache across its job pool).  The
        # lock serializes the memory tier, the counters and every statement
        # on the shared SQLite connection; builds themselves never run
        # under it.
        self._lock = threading.RLock()
        self._counters: Dict[str, int] = {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
        }

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    @staticmethod
    def key_for(
        net: TimedPetriNet, stage: str, params: Optional[Mapping[str, object]] = None
    ) -> str:
        """The cache key of a stage run on ``net`` with ``params``.

        ``net_cache_key`` contributes both the content fingerprint and the
        declaration-order digest, so a hit is bit-identical to a cold
        build (see :mod:`repro.petri.fingerprint`).
        """
        return f"{net_cache_key(net)}/{stage}?{params_token(params)}"

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------

    def _connect(self, *, create: bool) -> Optional[sqlite3.Connection]:
        with self._lock:
            return self._connect_locked(create=create)

    def _connect_locked(self, *, create: bool) -> Optional[sqlite3.Connection]:
        if self._connection is not None:
            return self._connection
        if self.directory is None:
            return None
        path = os.path.join(self.directory, DISK_FILE)
        if not create and not os.path.exists(path):
            return None
        os.makedirs(self.directory, exist_ok=True)
        # The connection is shared across the server's worker threads;
        # self._lock serializes every statement on it.
        connection = sqlite3.connect(path, check_same_thread=False)
        # Same discipline as the engine's spill stores: throughput over
        # mid-transaction durability — a torn write loses a cache entry,
        # never correctness, because artifacts are rebuildable.
        connection.execute("PRAGMA journal_mode=TRUNCATE")
        connection.execute("PRAGMA synchronous=OFF")
        connection.execute(
            "CREATE TABLE IF NOT EXISTS artifacts ("
            "key TEXT PRIMARY KEY, stage TEXT NOT NULL, payload BLOB NOT NULL)"
        )
        connection.commit()
        self._connection = connection
        return connection

    def _disk_get(self, key: str) -> Optional[bytes]:
        connection = self._connect(create=False)
        if connection is None:
            return None

        # A concurrent writer holding the database (another analysis process
        # sharing the cache directory) is transient, not fatal — same
        # bounded-backoff retry as the engine's spill stores.  The lock is
        # taken inside the retried operation so backoff sleeps never hold it.
        def read():
            with self._lock:
                return connection.execute(
                    "SELECT payload FROM artifacts WHERE key = ?", (key,)
                ).fetchone()

        row = locked_retry(read, what=f"artifact cache read of {key!r}")
        return None if row is None else row[0]

    def _disk_put(self, key: str, stage: str, payload: bytes) -> None:
        connection = self._connect(create=True)
        if connection is None:
            return

        def write():
            with self._lock:
                faults.on_store_write()
                connection.execute(
                    "INSERT OR REPLACE INTO artifacts (key, stage, payload) "
                    "VALUES (?, ?, ?)",
                    (key, stage, payload),
                )
                connection.commit()

        locked_retry(write, what=f"artifact cache write of {key!r}")

    # ------------------------------------------------------------------
    # Memory tier
    # ------------------------------------------------------------------

    def _memory_put(self, key: str, artifact: object) -> None:
        with self._lock:
            self._memory[key] = artifact
            self._memory.move_to_end(key)
            while len(self._memory) > self._memory_limit:
                self._memory.popitem(last=False)
                self._counters["evictions"] += 1

    # ------------------------------------------------------------------
    # The one lookup path
    # ------------------------------------------------------------------

    def fetch(
        self,
        key: str,
        *,
        stage: str,
        build: Callable[[], object],
        encode: Callable[[object], bytes] = _encode,
        decode: Callable[[bytes], object] = _decode,
    ) -> Tuple[object, str]:
        """The artifact under ``key``, building and storing on miss.

        Returns ``(artifact, tier)`` with ``tier`` one of ``"memory"``,
        ``"disk"`` or ``"built"``.  Disk hits are decoded once and promoted
        to the memory tier.
        """
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self._counters["memory_hits"] += 1
                return cached, TIER_MEMORY
        payload = self._disk_get(key)
        if payload is not None:
            artifact = decode(payload)
            with self._lock:
                self._counters["disk_hits"] += 1
            self._memory_put(key, artifact)
            return artifact, TIER_DISK
        with self._lock:
            self._counters["misses"] += 1
        # The build itself runs outside the lock: one slow build must not
        # serialize every other thread's cache traffic.
        artifact = build()
        if self.directory is not None:
            # A memory-only cache would drop the bytes: skip the encode.
            self._disk_put(key, stage, encode(artifact))
        with self._lock:
            self._counters["stores"] += 1
        self._memory_put(key, artifact)
        return artifact, TIER_BUILT

    # ------------------------------------------------------------------
    # Maintenance / reporting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters plus current occupancy of both tiers.

        The disk scan runs under the same :func:`locked_retry` bounded
        backoff as :meth:`fetch`'s read/write paths: a concurrent writer
        sharing the cache directory (an analysis server's job pool, or
        ``repro-tpn cache stats`` next to a running analysis) holds the
        database only transiently, and must surface as a retried wait — or
        a typed :class:`~repro.exceptions.StoreError` — never as a raw
        ``sqlite3.OperationalError``.
        """
        with self._lock:
            stats: Dict[str, object] = dict(self._counters)
            stats["memory_entries"] = len(self._memory)
            stats["memory_limit"] = self._memory_limit
        connection = self._connect(create=False)
        if connection is not None:

            def scan():
                with self._lock:
                    faults.on_store_write()
                    row = connection.execute(
                        "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                        "FROM artifacts"
                    ).fetchone()
                    by_stage = connection.execute(
                        "SELECT stage, COUNT(*) FROM artifacts "
                        "GROUP BY stage ORDER BY stage"
                    ).fetchall()
                    return row, by_stage

            row, by_stage = locked_retry(scan, what="artifact cache stats scan")
            stats["disk_entries"], stats["disk_bytes"] = row
            stats["disk_stages"] = {stage: count for stage, count in by_stage}
        else:
            stats["disk_entries"] = 0
            stats["disk_bytes"] = 0
            stats["disk_stages"] = {}
        return stats

    def clear(self) -> int:
        """Drop both tiers; returns the number of disk entries removed.

        Like :meth:`stats`, the delete transaction runs under
        :func:`locked_retry` so a concurrent writer sharing the directory
        cannot make it raise a raw ``sqlite3.OperationalError``.
        """
        with self._lock:
            self._memory.clear()
        connection = self._connect(create=False)
        if connection is None:
            return 0

        def wipe():
            with self._lock:
                faults.on_store_write()
                (count,) = connection.execute(
                    "SELECT COUNT(*) FROM artifacts"
                ).fetchone()
                connection.execute("DELETE FROM artifacts")
                connection.commit()
                return count

        return locked_retry(wipe, what="artifact cache clear")

    def close(self) -> None:
        """Close the disk connection (the cache directory stays reopenable)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "ArtifactCache":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = [
    "ArtifactCache",
    "DEFAULT_MEMORY_LIMIT",
    "DISK_FILE",
    "TIER_BUILT",
    "TIER_DISK",
    "TIER_MEMORY",
    "params_token",
]
