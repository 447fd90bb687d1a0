"""Cross-region replication logs: async shipping of absolute post-states.

Each region is the *home* (primary) for the keys it owns on the region
ring.  :class:`GeoReplicator` is the geo placement of
:class:`~repro.storage.replica_log.ReplicaLog`, which owns the op format,
the fold and compaction: each home has one replica log whose primary
assigns LSNs and whose per-region copies adopt them verbatim, so a
replication message lost on the WAN stays visible as an LSN hole instead
of being silently renumbered.

The placement adds only geo policy — contiguous-prefix watermarks per
(home, destination) pair, outstanding entry counts (replication lag),
log-time stamps (staleness in simulated seconds), primary-as-truth
anti-entropy, and a ``>= compact_threshold`` compaction trigger.
Shipping entries over the simulated WAN and applying ops to region
clusters is the deployment's job (:mod:`repro.geo.deployment`), which
keeps this class deterministic and network-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.metrics import MetricsRegistry
from ..storage.replica_log import ReplicaLog, decode

__all__ = ["GeoReplicator"]


@dataclass
class _Feed:
    """One destination's progress through a home's primary log."""

    received: set[int] = field(default_factory=set)  # LSNs adopted
    idx: int = 0  # primary LSNs before this index are all adopted
    outstanding: int = 0  # primary entries not yet adopted (the lag)

    def advance(self, lsns: list[int]) -> None:
        while self.idx < len(lsns) and lsns[self.idx] in self.received:
            self.idx += 1


class GeoReplicator:
    """Per-home replica logs with watermarks, hints, anti-entropy."""

    def __init__(
        self,
        regions,
        metrics: MetricsRegistry | None = None,
        compact_threshold: int | None = 4096,
    ) -> None:
        self.regions = tuple(regions)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.compact_threshold = compact_threshold
        self._logs = {
            home: ReplicaLog(home, [dst for dst in self.regions if dst != home])
            for home in self.regions
        }
        self._feeds = {
            home: {dst: _Feed() for dst in log.replicas}
            for home, log in self._logs.items()
        }
        # Set twin of each primary's LSN list, for O(1) membership.
        self._primary_set: dict[str, set[int]] = {h: set() for h in self.regions}
        #: Simulated log time per primary LSN, for staleness-in-seconds.
        self._logged_at: dict[str, dict[int, float]] = {h: {} for h in self.regions}

    def pairs(self):
        """Every (home, destination) pair, in region order."""
        for home, feeds in self._feeds.items():
            for dst in feeds:
                yield home, dst

    # -- primary side ------------------------------------------------------

    def log_op(self, home: str, op: dict, now: float) -> tuple[int, bytes]:
        """Append ``op`` to ``home``'s primary log; return (lsn, payload)."""
        lsn, payload = self._logs[home].append(op)
        self._primary_set[home].add(lsn)
        self._logged_at[home][lsn] = now
        for feed in self._feeds[home].values():
            feed.outstanding += 1
        self.metrics.counter("geo.repl.logged").inc()
        return lsn, payload

    # -- destination side --------------------------------------------------

    def deliver(self, home: str, dst: str, lsn: int, payload: bytes) -> dict | None:
        """Adopt one shipped entry into ``dst``'s copy of ``home``'s log.

        Idempotent: hints and anti-entropy can re-ship an entry that is
        also in flight, so a duplicate LSN is skipped (returns ``None``)
        rather than applied twice.  Returns the decoded op for the caller
        to apply to the destination's cluster state.
        """
        feed = self._feeds[home][dst]
        if lsn in feed.received:
            self.metrics.counter("geo.repl.duplicates").inc()
            return None
        self._logs[home].adopt(dst, lsn, payload)
        feed.received.add(lsn)
        if lsn in self._primary_set[home]:
            feed.outstanding -= 1
        feed.advance(self._logs[home].lsns)
        self.metrics.counter("geo.repl.delivered").inc()
        return decode(payload)

    # -- lag / staleness ---------------------------------------------------

    def watermark(self, home: str, dst: str) -> int:
        """Highest LSN below which ``dst`` has every primary entry."""
        idx = self._feeds[home][dst].idx
        return self._logs[home].lsns[idx - 1] if idx else 0

    def high_water(self, home: str) -> int:
        """The primary's last assigned LSN (0 when nothing logged)."""
        return self._logs[home].primary.next_lsn - 1

    def lag(self, home: str, dst: str) -> int:
        """Primary entries not yet adopted by ``dst`` (0 = converged)."""
        return self._feeds[home][dst].outstanding

    def staleness_s(self, home: str, dst: str, now: float) -> float:
        """Age (simulated seconds) of the oldest entry ``dst`` is missing."""
        feed = self._feeds[home][dst]
        lsns = self._logs[home].lsns
        if feed.outstanding == 0 or feed.idx >= len(lsns):
            return 0.0
        return max(0.0, now - self._logged_at[home].get(lsns[feed.idx], now))

    # -- hinted handoff ----------------------------------------------------

    def buffer_hint(self, home: str, dst: str, lsn: int, payload: bytes) -> None:
        """Park an entry bound for an unreachable ``dst`` (ship order)."""
        self._logs[home].hints.setdefault(dst, []).append((lsn, payload))
        self.metrics.counter("geo.repl.hints_buffered").inc()

    def has_hints(self, home: str, dst: str) -> bool:
        return bool(self._logs[home].hints.get(dst))

    def take_hints(self, home: str, dst: str) -> list[tuple[int, bytes]]:
        """Drain the hint buffer for re-shipping (caller re-buffers on
        failure, preserving order)."""
        return self._logs[home].hints.pop(dst, [])

    # -- anti-entropy ------------------------------------------------------

    def antientropy(self, home: str, dst: str) -> list[tuple[int, bytes]]:
        """Reconverge ``dst``'s copy with ``home``'s primary log.

        On a Merkle-root mismatch the copy is rebuilt from the primary (a
        home that accepted the write defines the truth), its pending hints
        are dropped, and the entries ``dst`` had never adopted are
        returned for the caller to apply to the destination cluster.
        """
        log = self._logs[home]
        primary_entries = log.entries(home)
        if not log.diverged([dst], primary_entries):
            return []
        feed = self._feeds[home][dst]
        missing = [e for e in primary_entries if e.lsn not in feed.received]
        log.rebuild([dst], primary_entries)
        feed.received = {e.lsn for e in primary_entries}
        log.hints.pop(dst, None)
        self._recompute(home, dst)
        self.metrics.counter("geo.antientropy.rounds").inc()
        self.metrics.counter("geo.antientropy.repaired_entries").inc(len(missing))
        return [(e.lsn, e.payload) for e in missing]

    def _recompute(self, home: str, dst: str) -> None:
        """Rebuild watermark/lag bookkeeping after a rebuild/compaction."""
        feed = self._feeds[home][dst]
        lsns = self._logs[home].lsns
        feed.idx = 0
        feed.advance(lsns)
        feed.outstanding = sum(1 for lsn in lsns if lsn not in feed.received)

    # -- compaction --------------------------------------------------------

    def should_compact(self, home: str) -> bool:
        threshold = self.compact_threshold
        return threshold is not None and len(self._logs[home].lsns) >= threshold

    def compact(self, home: str) -> int:
        """Collapse superseded post-states in ``home``'s primary and every
        copy (each compacted independently — a copy with holes may keep an
        op the primary dropped; the next anti-entropy round reconciles).
        Returns the number of primary entries removed."""
        log = self._logs[home]
        removed = log.compact(home)
        self._primary_set[home] = set(log.lsns)
        times = self._logged_at[home]
        self._logged_at[home] = {lsn: times[lsn] for lsn in log.lsns}
        for dst in log.replicas:
            log.compact(dst)
            self._recompute(home, dst)
        self.metrics.counter("geo.repl.compactions").inc()
        self.metrics.counter("geo.repl.compacted_entries").inc(removed)
        return removed

    # -- introspection -----------------------------------------------------

    def primary_entries(self, home: str):
        """Valid entries of ``home``'s primary log (tests, audits)."""
        return self._logs[home].entries(home)

    def copy_entries(self, home: str, dst: str):
        """Valid entries of ``dst``'s copy of ``home``'s log."""
        return self._logs[home].entries(dst)
