"""In-memory span tracing around the public functions of each layer.

The benchmark traces the program from outside: :func:`install` swaps
each named class attribute for a wrapper that records one span per
call, and :func:`uninstall` puts the originals back.  Nothing under
``src/`` knows it is being traced.

A span is ``[name, start, end, parent, step]``: the wrapped layer, its
``perf_counter`` interval, the index of the enclosing span (``-1`` at
the top) and the id of the workload step it served.  Spans stay in
memory until :meth:`SpanRecorder.write` dumps them at the end of a run.

A layer's *self* time is its span's duration minus the part covered by
its child spans.  The program is single-threaded, so children of one
span never overlap and the covered part is the sum of their durations.

Besides spans, a few wrappers only count work (WAL entries scanned,
Merkle leaves hashed, engine gets made while answering a spatial
query); those counts do not depend on the host.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

from repro import LocalStorageEngine, RemoteStorageEngine
from repro.cluster.cluster import PlatformCluster
from repro.cluster.coordinator import CrossShardCoordinator
from repro.cluster.failover import FailoverManager
from repro.core.columns import RecordBatch
from repro.fusion import TruthFusion
from repro.geo.deployment import GeoDeployment
from repro.geo.replication import GeoReplicator
from repro.ledger.merkle import MerkleTree
from repro.platform.platform import MetaversePlatform
from repro.query.plane import PrefixScanModality, QueryExecutor, SpatialModality
from repro.semantic import SemanticIndex, SemanticModality
from repro.storage.wal import WriteAheadLog
from repro.txn.mvcc import TransactionManager

#: Public storage-engine operations, timed as ``storage.rpc_s`` on the
#: remote engine and ``storage.local_s`` on the local one.
_ENGINE_OPS = (
    "get", "put", "delete", "scan", "keys", "mget", "mput", "put_product",
    "get_product", "delete_product", "products", "put_object", "get_object",
)

#: (class, attribute, span name).  The span name is the per-layer metric
#: its self time feeds.
TIMED = [
    (TruthFusion, "fuse_batch", "fusion.fuse_s"),
    (RecordBatch, "from_records", "columns.batch_build_s"),
    (PlatformCluster, "ingest", "cluster.ingest_s"),
    (PlatformCluster, "ingest_many", "cluster.ingest_s"),
    (PlatformCluster, "ingest_batch", "cluster.ingest_s"),
    (PlatformCluster, "flush", "cluster.flush_s"),
    (PlatformCluster, "tick", "cluster.tick_s"),
    (PlatformCluster, "read", "cluster.read_s"),
    (PlatformCluster, "write_record", "cluster.write_s"),
    (PlatformCluster, "query", "cluster.scatter_s"),
    (PlatformCluster, "run_plan", "cluster.scatter_s"),
    (PlatformCluster, "process_purchases", "cluster.purchase_route_s"),
    (PlatformCluster, "process_basket", "cluster.basket_s"),
    (MetaversePlatform, "write_record", "platform.write_s"),
    (MetaversePlatform, "write_record_batch", "platform.write_s"),
    (MetaversePlatform, "spatial_items", "platform.spatial_s"),
    (MetaversePlatform, "process_purchases", "platform.purchase_s"),
    (QueryExecutor, "resolve", "query.plan_s"),
    (PrefixScanModality, "execute", "query.execute_s.prefix"),
    (SpatialModality, "execute", "query.execute_s.spatial"),
    (SemanticModality, "execute", "query.execute_s.semantic"),
    (PrefixScanModality, "merge", "query.merge_s"),
    (SpatialModality, "merge", "query.merge_s"),
    (SemanticModality, "merge", "query.merge_s"),
    (SemanticIndex, "search", "semantic.search_s"),
    (SemanticIndex, "index_record", "semantic.index_s"),
    (TransactionManager, "commit", "txn.commit_s"),
    (CrossShardCoordinator, "execute", "twopc.execute_s"),
    (FailoverManager, "log_entity", "failover.log_s"),
    (FailoverManager, "log_drop_entity", "failover.log_s"),
    (FailoverManager, "log_product", "failover.log_s"),
    (FailoverManager, "log_stock", "failover.log_s"),
    (FailoverManager, "tick", "failover.tick_s"),
    (GeoDeployment, "write_record", "geo.write_s"),
    (GeoDeployment, "read", "geo.read_s"),
    (GeoDeployment, "tick", "geo.tick_s"),
    (GeoReplicator, "antientropy", "geo.antientropy_s"),
    *[(RemoteStorageEngine, op, "storage.rpc_s") for op in _ENGINE_OPS],
    *[(LocalStorageEngine, op, "storage.local_s") for op in _ENGINE_OPS],
]

#: Every span name, in report order.
LAYERS = list(dict.fromkeys(name for _, _, name in TIMED))


class SpanRecorder:
    """Spans and work counts of one traced episode."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = -1
        self.counts: dict[str, float] = defaultdict(float)
        #: Host-speed factor of each traced step (see run.HostSpeed).
        self.factors: list[float] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.step])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "step"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _timed(fn, name, rec):
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


def _spatial(fn, rec):
    """``spatial_items`` span plus the engine gets it made per hit."""
    def wrapper(*args, **kwargs):
        gets = rec.counts["engine.gets"]
        index = rec.open("platform.spatial_s")
        try:
            items = fn(*args, **kwargs)
        finally:
            rec.close(index)
        rec.counts["platform.spatial_gets"] += rec.counts["engine.gets"] - gets
        rec.counts["platform.spatial_hits"] += len(items)
        return items

    return wrapper


#: Modalities whose merge keeps every row (semantic top-k merges drop
#: rows by design), the ones ``cluster.rows_per_result`` is taken over.
_LOSSLESS = ("prefix", "spatial")


def _modality_execute(fn, name, rec):
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            items = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if name.rsplit(".", 1)[1] in _LOSSLESS:
            rec.counts["query.shard_rows"] += len(items)
        return items

    return wrapper


def _scatter(fn, rec):
    def wrapper(*args, **kwargs):
        outer = not any(
            rec.spans[i][0] == "cluster.scatter_s" for i in rec.stack
        )
        modality = getattr(args[1], "modality", None) or getattr(args[1], "name", None)
        if modality == "semantic":
            rec.counts["semantic.queries"] += 1
        index = rec.open("cluster.scatter_s")
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if outer and modality in _LOSSLESS:
            rec.counts["query.merged_rows"] += len(result.items)
        return result

    return wrapper


def _counting_evals(fn, name, calls, rec):
    """A semantic-index span that also counts distance evaluations."""
    def wrapper(self, *args, **kwargs):
        before = self.distance_evals
        index = rec.open(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.close(index)
            rec.counts[f"{calls}.evals"] += self.distance_evals - before
            rec.counts[f"{calls}.calls"] += 1

    return wrapper


def _twopc(fn, rec):
    """``twopc.execute_s`` plus the messages one basket's rounds sent."""
    def wrapper(self, *args, **kwargs):
        sent = self.metrics.counter("net.messages_sent")
        before = sent.value
        index = rec.open("twopc.execute_s")
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.close(index)
            rec.counts["twopc.messages"] += sent.value - before
            rec.counts["twopc.baskets"] += 1

    return wrapper


def _engine_get(fn, name, rec):
    def wrapper(*args, **kwargs):
        rec.counts["engine.gets"] += 1
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


def _count_entries(fn, rec):
    def wrapper(self, *args, **kwargs):
        entries, lsn = fn(self, *args, **kwargs)
        rec.counts["wal.entries_scanned"] += len(entries)
        return entries, lsn

    return wrapper


def _count_replay(fn, rec):
    def wrapper(self, *args, **kwargs):
        inner = fn(self, *args, **kwargs)
        while True:
            try:
                entry = next(inner)
            except StopIteration as stop:
                return stop.value
            rec.counts["wal.entries_scanned"] += 1
            yield entry

    return wrapper


def _count_property(prop, rec):
    def getter(self):
        value = prop.fget(self)
        rec.counts["wal.entries_scanned"] += value
        return value

    return property(getter)


def _count_calls(fn, counter, rec):
    def wrapper(*args, **kwargs):
        rec.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(rec: SpanRecorder):
    """Wrap every traced function; returns the originals for
    :func:`uninstall`."""
    saved: list[tuple[type, str, object]] = []

    def patch(cls, attr, make):
        raw = cls.__dict__.get(attr)
        if raw is None:
            # Inherited: wrap the resolved function on this class only.
            raw = getattr(cls, attr)
            saved.append((cls, attr, None))
        else:
            saved.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, property):
            setattr(cls, attr, make(raw))
        else:
            setattr(cls, attr, make(raw))

    for cls, attr, name in TIMED:
        if cls is MetaversePlatform and attr == "spatial_items":
            patch(cls, attr, lambda fn: _spatial(fn, rec))
        elif attr == "execute" and name.startswith("query.execute_s"):
            patch(cls, attr, lambda fn, n=name: _modality_execute(fn, n, rec))
        elif cls is PlatformCluster and attr in ("query", "run_plan"):
            patch(cls, attr, lambda fn: _scatter(fn, rec))
        elif cls is SemanticIndex:
            calls = "semantic.search" if attr == "search" else "semantic.index"
            patch(cls, attr, lambda fn, n=name, c=calls: _counting_evals(fn, n, c, rec))
        elif cls is CrossShardCoordinator:
            patch(cls, attr, lambda fn: _twopc(fn, rec))
        elif attr == "get" and cls in (LocalStorageEngine, RemoteStorageEngine):
            patch(cls, attr, lambda fn, n=name: _engine_get(fn, n, rec))
        else:
            patch(cls, attr, lambda fn, n=name: _timed(fn, n, rec))
    patch(WriteAheadLog, "recover_prefix", lambda fn: _count_entries(fn, rec))
    patch(WriteAheadLog, "replay", lambda fn: _count_replay(fn, rec))
    patch(WriteAheadLog, "entry_count", lambda prop: _count_property(prop, rec))
    patch(MerkleTree, "append",
          lambda fn: _count_calls(fn, "geo.merkle_leaves_hashed", rec))
    return saved


def uninstall(saved) -> None:
    for cls, attr, raw in reversed(saved):
        if raw is None:
            delattr(cls, attr)
        else:
            setattr(cls, attr, raw)
