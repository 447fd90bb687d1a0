"""LSM-style key-value store (paper Sec. IV-E2, the "KV store" tier).

An update-optimized store in the log-structured-merge mold: writes go to a
WAL and an in-memory memtable; when the memtable exceeds its budget it is
flushed to an immutable sorted run (SSTable); reads consult the memtable and
then runs newest-first; ranged scans merge all runs.  A tiered compactor
bounds the run count.  Deletes are tombstones.

This is the storage tier the disaggregated architecture (Fig. 7) mounts for
hot structured data; the experiments that use it care about its update-heavy
performance profile, which the LSM design provides.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ..core.errors import ConfigurationError, FaultInjectedError, KeyNotFoundError
from ..core.metrics import MetricsRegistry
from ..obs.tracing import NoopTracer, Tracer
from .wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultInjector

_TOMBSTONE = object()

#: The greatest code point: no key character sorts above it.
_MAX_CHAR = chr(0x10FFFF)


def prefix_successor(prefix: str) -> str | None:
    """The least key that sorts above every key starting with ``prefix``.

    ``None`` when there is none (``prefix`` is empty or all U+10FFFF), so
    the range of keys under ``prefix`` has no upper end.  Keys under
    ``prefix`` are exactly those in ``[prefix, successor)``.
    """
    stem = prefix.rstrip(_MAX_CHAR)
    if not stem:
        return None
    return stem[:-1] + chr(ord(stem[-1]) + 1)


def scan_prefix(scan, prefix: str) -> list[tuple[str, object]]:
    """Every ``(key, value)`` whose key starts with ``prefix``.

    ``scan(lo, hi)`` is any inclusive range scan that reads ``hi=None``
    as "no upper end"; the successor bound is exclusive, so its own row
    (if any) is dropped.
    """
    hi = prefix_successor(prefix)
    return [(key, value) for key, value in scan(prefix, hi) if key != hi]


class _Versioned(NamedTuple):
    """A value with its global write sequence number.

    A NamedTuple rather than a (frozen) dataclass: versioned cells are
    minted once per mutation on the hottest write path, and tuple
    construction is several times cheaper than a frozen dataclass's
    ``object.__setattr__`` init.
    """

    seqno: int
    value: object  # _TOMBSTONE marks deletion


class MemTable:
    """Sorted in-memory write buffer."""

    def __init__(self) -> None:
        self._keys: list[str] = []
        self._data: dict[str, _Versioned] = {}
        self.approx_bytes = 0

    def put(self, key: str, versioned: _Versioned) -> None:
        if key not in self._data:
            insort(self._keys, key)
            self.approx_bytes += len(key)
        self._data[key] = versioned
        if versioned.value is not _TOMBSTONE:
            self.approx_bytes += _value_size(versioned.value)

    def mput(self, entries: list[tuple[str, _Versioned]], value_bytes: int) -> None:
        """Bulk insert: one sorted merge instead of N ``insort`` calls.

        Observably identical to putting each entry in order (later
        duplicates win); ``value_bytes`` is the caller's size estimate
        for the whole batch, standing in for per-value sizing.
        """
        fresh: list[str] = []
        for key, versioned in entries:
            if key not in self._data:
                fresh.append(key)
            self._data[key] = versioned
        if fresh:
            self.approx_bytes += sum(len(key) for key in fresh)
            fresh.sort()
            self._keys = sorted(self._keys + fresh) if self._keys else fresh
        self.approx_bytes += value_bytes

    def get(self, key: str) -> _Versioned | None:
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)

    def scan(self, lo: str, hi: str | None) -> Iterator[tuple[str, _Versioned]]:
        start = bisect_left(self._keys, lo)
        for idx in range(start, len(self._keys)):
            key = self._keys[idx]
            if hi is not None and key > hi:
                return
            yield key, self._data[key]

    def items(self) -> Iterator[tuple[str, _Versioned]]:
        for key in self._keys:
            yield key, self._data[key]


class SSTable:
    """An immutable sorted run."""

    def __init__(self, entries: list[tuple[str, _Versioned]]) -> None:
        self._keys = [k for k, _ in entries]
        self._values = [v for _, v in entries]
        self.min_key = self._keys[0] if self._keys else ""
        self.max_key = self._keys[-1] if self._keys else ""

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key: str) -> _Versioned | None:
        if not self._keys or not (self.min_key <= key <= self.max_key):
            return None
        idx = bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return None

    def scan(self, lo: str, hi: str | None) -> Iterator[tuple[str, _Versioned]]:
        idx = bisect_left(self._keys, lo)
        while idx < len(self._keys) and (hi is None or self._keys[idx] <= hi):
            yield self._keys[idx], self._values[idx]
            idx += 1

    def items(self) -> Iterator[tuple[str, _Versioned]]:
        yield from zip(self._keys, self._values)


def _value_size(value: object) -> int:
    try:
        return len(json.dumps(value))
    except (TypeError, ValueError):
        return len(repr(value))


class KVStore:
    """The public LSM store.

    Parameters
    ----------
    memtable_budget_bytes:
        Flush threshold for the memtable.
    max_runs:
        Compact (merge all runs) once the run count exceeds this.
    wal:
        Optional external WAL; a fresh one is created when omitted.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`; consulted
        at the ``kv.get`` / ``kv.put`` sites (an injected ``crash`` raises
        :class:`FaultInjectedError` before any state changes).  A WAL
        created internally shares the injector (site ``wal.append``).
    """

    def __init__(
        self,
        memtable_budget_bytes: int = 64 * 1024,
        max_runs: int = 6,
        wal: WriteAheadLog | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        if memtable_budget_bytes <= 0 or max_runs < 1:
            raise ConfigurationError("invalid KVStore configuration")
        self.memtable_budget_bytes = memtable_budget_bytes
        self.max_runs = max_runs
        self.wal = wal if wal is not None else WriteAheadLog(faults=faults)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.faults = faults
        self._memtable = MemTable()
        self._runs: list[SSTable] = []  # newest first
        self._seqno = 0
        # Every live key, kept where the memtable is written (flush and
        # compaction never change liveness), so key listings and counts
        # cost the live set rather than a merged scan of every run.
        self._live: set[str] = set()

    def _maybe_fault(self, site: str, key: str) -> None:
        if self.faults is not None:
            decision = self.faults.decide(site, target=key, kinds=("crash", "delay"))
            if decision.kind == "crash":
                raise FaultInjectedError(f"injected crash at {site}")
            if decision.kind == "delay":
                self.faults.clock.advance(decision.delay_s)

    # -- mutations ----------------------------------------------------------

    def put(self, key: str, value: object) -> None:
        """Insert or overwrite ``key``. Value must be JSON-serializable."""
        self._maybe_fault("kv.put", key)
        self._log("put", key, value)
        self._apply_put(key, value)

    def mput(self, items: "list[tuple[str, object]]") -> None:
        """Group-committed bulk insert: one WAL entry, one memtable merge.

        Equivalent to ``for k, v in items: put(k, v)`` for every read
        (get/scan): the same values win under the same ordering and
        seqnos still increase in item order.  The group amortizes the
        bookkeeping — one WAL append (group commit) instead of N, one
        sorted memtable merge instead of N ``insort`` calls, and one
        flush-threshold check, so run boundaries may differ from the
        per-record path, which reads cannot observe.  Fault decisions
        stay per key (site ``kv.put``) so injector streams match the
        per-record path exactly.
        """
        items = list(items)
        if not items:
            return
        if self.faults is not None:
            for key, _ in items:
                self._maybe_fault("kv.put", key)
        payload = json.dumps(
            {"op": "mput", "items": [list(item) for item in items]},
            separators=(",", ":"),
        ).encode("utf-8")
        self.wal.append(payload)
        base = self._seqno
        self._seqno += len(items)
        entries = [
            (key, _Versioned(base + offset, value))
            for offset, (key, value) in enumerate(items, start=1)
        ]
        self._memtable.mput(entries, value_bytes=len(payload))
        self._live.update(key for key, _ in items)
        self.metrics.counter("kv.puts").inc(len(items))
        self._maybe_flush()

    def delete(self, key: str) -> None:
        """Delete ``key`` (idempotent — deleting a missing key is a no-op)."""
        self._log("del", key, None)
        self._apply_delete(key)

    def _log(self, op: str, key: str, value: object) -> None:
        payload = json.dumps({"op": op, "k": key, "v": value}).encode("utf-8")
        self.wal.append(payload)

    def _apply_put(self, key: str, value: object) -> None:
        self._seqno += 1
        self._memtable.put(key, _Versioned(self._seqno, value))
        self._live.add(key)
        self.metrics.counter("kv.puts").inc()
        self._maybe_flush()

    def _apply_delete(self, key: str) -> None:
        self._seqno += 1
        self._memtable.put(key, _Versioned(self._seqno, _TOMBSTONE))
        self._live.discard(key)
        self.metrics.counter("kv.deletes").inc()
        self._maybe_flush()

    # -- reads --------------------------------------------------------------

    def get(self, key: str) -> object:
        """Return the live value for ``key`` or raise KeyNotFoundError."""
        self._maybe_fault("kv.get", key)
        self.metrics.counter("kv.gets").inc()
        with self.tracer.span("kv.get"):
            found = self._memtable.get(key)
            if found is None:
                for run in self._runs:
                    found = run.get(key)
                    if found is not None:
                        break
            if found is None or found.value is _TOMBSTONE:
                raise KeyNotFoundError(key)
            return found.value

    def get_or(self, key: str, default: object = None) -> object:
        try:
            return self.get(key)
        except KeyNotFoundError:
            return default

    def __contains__(self, key: str) -> bool:
        return self.get_or(key, _TOMBSTONE) is not _TOMBSTONE

    def scan(self, lo: str, hi: str | None) -> Iterator[tuple[str, object]]:
        """Yield live (key, value) pairs with lo <= key <= hi, ascending;
        ``hi=None`` leaves the range open above."""
        self.metrics.counter("kv.scans").inc()
        best: dict[str, _Versioned] = {}
        for source in [self._memtable, *self._runs]:
            for key, versioned in source.scan(lo, hi):
                current = best.get(key)
                if current is None or versioned.seqno > current.seqno:
                    best[key] = versioned
        for key in sorted(best):
            if best[key].value is not _TOMBSTONE:
                yield key, best[key].value

    def keys(self) -> list[str]:
        return sorted(self._live)

    def __len__(self) -> int:
        return len(self._live)

    # -- maintenance ----------------------------------------------------------

    @property
    def run_count(self) -> int:
        return len(self._runs)

    def _maybe_flush(self) -> None:
        if self._memtable.approx_bytes >= self.memtable_budget_bytes:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new run."""
        if len(self._memtable) == 0:
            return
        with self.tracer.span("kv.flush", entries=len(self._memtable)):
            self._runs.insert(0, SSTable(list(self._memtable.items())))
            self._memtable = MemTable()
            self.metrics.counter("kv.flushes").inc()
            if len(self._runs) > self.max_runs:
                self.compact()

    def compact(self) -> None:
        """Merge all runs into one, discarding shadowed versions/tombstones."""
        with self.tracer.span("kv.compact", runs=len(self._runs)):
            best: dict[str, _Versioned] = {}
            for run in self._runs:
                for key, versioned in run.items():
                    current = best.get(key)
                    if current is None or versioned.seqno > current.seqno:
                        best[key] = versioned
            live = [
                (key, versioned)
                for key, versioned in sorted(best.items())
                if versioned.value is not _TOMBSTONE
            ]
            self._runs = [SSTable(live)] if live else []
            self.metrics.counter("kv.compactions").inc()

    # -- checkpointing ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Full live state as a JSON-serializable checkpoint payload.

        Tombstones materialize as absence (a checkpoint needs no delete
        history), and the write seqno rides along so recovery continues
        version numbering instead of colliding with the WAL suffix.
        """
        return {
            "seqno": self._seqno,
            "items": [[key, value] for key, value in self.scan("", None)],
        }

    def load_snapshot(self, state: dict) -> int:
        """Install a checkpoint snapshot without WAL logging; returns the
        number of entries loaded.

        Recovery path: call on a fresh store *before* replaying the WAL
        suffix, so reads land byte-identical to a full-history replay.
        """
        entries = []
        for key, value in state["items"]:
            self._seqno += 1
            entries.append((key, _Versioned(self._seqno, value)))
        if entries:
            self._memtable.mput(
                entries,
                value_bytes=sum(_value_size(v.value) for _, v in entries),
            )
            self._live.update(key for key, _ in entries)
            self._maybe_flush()
        self._seqno = max(self._seqno, int(state.get("seqno", 0)))
        self.metrics.counter("kv.snapshot_loads").inc()
        return len(entries)

    # -- recovery ---------------------------------------------------------

    def recover(self) -> int:
        """Rebuild state by replaying the WAL; return entries applied.

        Used after simulated crashes: construct a fresh ``KVStore`` sharing
        the old WAL, call ``recover()``, and the committed prefix returns.
        """
        applied = 0
        for entry in self.wal.replay():
            record = json.loads(entry.payload.decode("utf-8"))
            if record["op"] == "put":
                self._apply_put(record["k"], record["v"])
                applied += 1
            elif record["op"] == "mput":
                for key, value in record["items"]:
                    self._apply_put(key, value)
                    applied += 1
            else:
                self._apply_delete(record["k"])
                applied += 1
        return applied
