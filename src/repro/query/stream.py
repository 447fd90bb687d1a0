"""Streaming engine: windows, aggregation, and operator parallelism.

Paper Sec. IV-G: "To sustain high stream ingress traffic, data processing
operators have to be replicated and run in parallel threads" ([91], [88]).
This engine models exactly that: a :class:`StreamPipeline` partitions
records by key hash across operator replicas; each replica accrues
simulated processing time; pipeline completion is the max over replicas, so
speedup and skew effects are measurable (experiment E18).

Windowing is event-time based with tumbling and sliding variants.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..core.errors import ConfigurationError, QueryError
from ..core.records import DataRecord
from ..net.overlay import stable_hash


@dataclass(frozen=True)
class WindowResult:
    """One emitted window for one key."""

    key: Any
    window_start: float
    window_end: float
    value: float
    count: int


class TumblingWindow:
    """Fixed, non-overlapping event-time windows with incremental aggregates.

    ``agg`` is one of ``sum``/``count``/``avg``/``min``/``max``.  Feed
    records with :meth:`add`; completed windows are emitted when a record
    arrives past the window end (per key) or on :meth:`flush`.
    """

    _AGGS = ("sum", "count", "avg", "min", "max")

    def __init__(self, size: float, field: str, agg: str = "avg") -> None:
        if size <= 0:
            raise ConfigurationError("window size must be positive")
        if agg not in self._AGGS:
            raise QueryError(f"unknown aggregate {agg!r}")
        self.size = size
        self.field = field
        self.agg = agg
        self._state: dict[tuple[Any, int], list[float]] = defaultdict(list)
        self._watermark: dict[Any, int] = {}

    def _window_index(self, timestamp: float) -> int:
        return int(math.floor(timestamp / self.size))

    def add(self, record: DataRecord) -> list[WindowResult]:
        """Add a record; return any windows this closes for the record's key."""
        if self.field not in record.payload:
            return []
        idx = self._window_index(record.timestamp)
        key = record.key
        emitted: list[WindowResult] = []
        last = self._watermark.get(key)
        if last is not None and idx > last:
            for closed in range(last, idx):
                result = self._emit(key, closed)
                if result is not None:
                    emitted.append(result)
        if last is None or idx > last:
            self._watermark[key] = idx
        self._state[(key, idx)].append(float(record.payload[self.field]))
        return emitted

    def _emit(self, key: Any, idx: int) -> WindowResult | None:
        values = self._state.pop((key, idx), None)
        if not values:
            return None
        return WindowResult(
            key=key,
            window_start=idx * self.size,
            window_end=(idx + 1) * self.size,
            value=self._aggregate(values),
            count=len(values),
        )

    def _aggregate(self, values: list[float]) -> float:
        if self.agg == "sum":
            return sum(values)
        if self.agg == "count":
            return float(len(values))
        if self.agg == "avg":
            return sum(values) / len(values)
        if self.agg == "min":
            return min(values)
        return max(values)

    def flush(self) -> list[WindowResult]:
        """Emit every open window (end of stream)."""
        out = []
        for key, idx in sorted(self._state, key=lambda t: (str(t[0]), t[1])):
            result = self._emit(key, idx)
            if result is not None:
                out.append(result)
        return out


class SlidingWindow:
    """Overlapping event-time windows (size, slide) via paned aggregation.

    Records land in non-overlapping panes of width ``slide``; each emitted
    window combines ``size / slide`` consecutive panes, so per-record work
    is O(1) regardless of overlap.  Supported aggregates: sum/count/avg.
    """

    _AGGS = ("sum", "count", "avg")

    def __init__(self, size: float, slide: float, field: str, agg: str = "avg") -> None:
        if slide <= 0 or size <= 0 or slide > size:
            raise ConfigurationError("need 0 < slide <= size")
        ratio = size / slide
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError("size must be a multiple of slide")
        if agg not in self._AGGS:
            raise QueryError(f"unknown aggregate {agg!r}")
        self.size = size
        self.slide = slide
        self.field = field
        self.agg = agg
        self._panes: dict[Any, dict[int, tuple[float, int]]] = defaultdict(dict)

    def add(self, record: DataRecord) -> None:
        if self.field not in record.payload:
            return
        idx = int(math.floor(record.timestamp / self.slide))
        total, count = self._panes[record.key].get(idx, (0.0, 0))
        self._panes[record.key][idx] = (
            total + float(record.payload[self.field]),
            count + 1,
        )

    def results(self) -> list[WindowResult]:
        """Emit all sliding windows covering at least one pane."""
        panes_per_window = int(round(self.size / self.slide))
        out: list[WindowResult] = []
        for key, panes in self._panes.items():
            if not panes:
                continue
            lo, hi = min(panes), max(panes)
            for start in range(lo - panes_per_window + 1, hi + 1):
                covered = [
                    panes[i]
                    for i in range(start, start + panes_per_window)
                    if i in panes
                ]
                if not covered:
                    continue
                total = sum(v for v, _ in covered)
                count = sum(c for _, c in covered)
                if self.agg == "sum":
                    value = total
                elif self.agg == "count":
                    value = float(count)
                else:
                    value = total / count
                out.append(
                    WindowResult(
                        key=key,
                        window_start=start * self.slide,
                        window_end=start * self.slide + self.size,
                        value=value,
                        count=count,
                    )
                )
        return out


@dataclass
class ReplicaStats:
    records: int = 0
    busy_time: float = 0.0


class StreamPipeline:
    """A partitioned-parallel operator (paper's replicated stream operators).

    ``work_fn(record)`` returns the simulated seconds of work a record
    costs; records are routed to ``parallelism`` replicas by key hash, and
    :meth:`process` returns the simulated makespan (max busy time across
    replicas).  Perfect scaling halves the makespan when parallelism
    doubles; key skew shows up as imbalance, exactly the effects [91]
    studies.
    """

    def __init__(
        self,
        parallelism: int,
        work_fn: Callable[[DataRecord], float] | None = None,
        handler: Callable[[DataRecord], None] | None = None,
    ) -> None:
        if parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.work_fn = work_fn if work_fn is not None else (lambda _: 1e-6)
        self.handler = handler
        self.replicas = [ReplicaStats() for _ in range(parallelism)]

    def _route(self, record: DataRecord) -> int:
        # Stable routing (Python's str hash is randomized per process).
        return stable_hash(str(record.key)) % self.parallelism

    def process(self, records: Iterable[DataRecord]) -> float:
        """Process a batch; return simulated makespan in seconds."""
        start_busy = [r.busy_time for r in self.replicas]
        for record in records:
            replica = self.replicas[self._route(record)]
            replica.records += 1
            replica.busy_time += self.work_fn(record)
            if self.handler is not None:
                self.handler(record)
        return max(
            r.busy_time - s for r, s in zip(self.replicas, start_busy)
        )

    def throughput(self, records: list[DataRecord]) -> float:
        """Records per simulated second for this batch."""
        makespan = self.process(records)
        if makespan <= 0:
            return float("inf")
        return len(records) / makespan

    def imbalance(self) -> float:
        """Max/mean busy-time ratio (1.0 = perfectly balanced)."""
        times = [r.busy_time for r in self.replicas]
        mean = sum(times) / len(times)
        if mean == 0:
            return 1.0
        return max(times) / mean
