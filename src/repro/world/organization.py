"""Data-organization strategies for two-space data (paper Sec. IV-F).

"Should the location of a shopper in the physical mall be stored together
with the location of an online shopper? ... it may be possible to have a
hybrid strategy."  Three concrete organizations over the KV tier, sharing
one interface so experiment E15 can compare them on the same query mixes:

* :class:`TaggedUnifiedStore` — one store, keys carry a space tag in the
  payload.  Cross-space queries scan once; single-space queries must scan
  (and discard) the other space's rows.
* :class:`SeparateStores` — one store per space.  Single-space queries
  touch only their store; cross-space queries scan both and merge.
* :class:`HybridStore` — per-``kind`` routing: kinds listed in
  ``unified_kinds`` go to a shared store, the rest to per-space stores —
  the paper's "for certain data types, integrating them may be the best".

``rows_scanned`` counts the physical work, the comparison metric.
"""

from __future__ import annotations

from ..core.errors import ConfigurationError
from ..core.records import DataKind, DataRecord, Space
from ..storage.kv import KVStore, scan_prefix


class _BaseOrganization:
    def __init__(self) -> None:
        self.rows_scanned = 0
        self.rows_returned = 0

    @staticmethod
    def _encode(record: DataRecord) -> dict:
        return {
            "payload": record.payload,
            "space": record.space.value,
            "kind": record.kind.value,
            "timestamp": record.timestamp,
        }

    @staticmethod
    def _matches_prefix(key: str, prefix: str) -> bool:
        return key.startswith(prefix)


class TaggedUnifiedStore(_BaseOrganization):
    """One store for both spaces; rows are space-tagged."""

    name = "tagged-unified"

    def __init__(self) -> None:
        super().__init__()
        self._store = KVStore()

    def put(self, record: DataRecord) -> None:
        self._store.put(record.key, self._encode(record))

    def query_space(self, space: Space, prefix: str = "") -> list[dict]:
        """Single-space query: must scan all rows and filter by tag."""
        out = []
        for _, value in scan_prefix(self._store.scan, prefix):
            self.rows_scanned += 1
            if value["space"] == space.value:
                out.append(value)
        self.rows_returned += len(out)
        return out

    def query_cross(self, prefix: str = "") -> list[dict]:
        """Cross-space query: one unified scan, no merge needed."""
        out = [value for _, value in scan_prefix(self._store.scan, prefix)]
        self.rows_scanned += len(out)
        self.rows_returned += len(out)
        return out


class SeparateStores(_BaseOrganization):
    """One store per space."""

    name = "separate"

    def __init__(self) -> None:
        super().__init__()
        self._stores = {Space.PHYSICAL: KVStore(), Space.VIRTUAL: KVStore()}

    def put(self, record: DataRecord) -> None:
        self._stores[record.space].put(record.key, self._encode(record))

    def query_space(self, space: Space, prefix: str = "") -> list[dict]:
        out = [
            value for _, value in scan_prefix(self._stores[space].scan, prefix)
        ]
        self.rows_scanned += len(out)
        self.rows_returned += len(out)
        return out

    def query_cross(self, prefix: str = "") -> list[dict]:
        """Cross-space query: scan both stores and merge by timestamp."""
        out = []
        for store in self._stores.values():
            rows = [value for _, value in scan_prefix(store.scan, prefix)]
            self.rows_scanned += len(rows)
            out.extend(rows)
        out.sort(key=lambda v: v["timestamp"])
        # Merge overhead: the sort touches every row again.
        self.rows_scanned += len(out)
        self.rows_returned += len(out)
        return out


class HybridStore(_BaseOrganization):
    """Per-kind routing between a unified store and per-space stores."""

    name = "hybrid"

    def __init__(self, unified_kinds: set[DataKind] | None = None) -> None:
        super().__init__()
        if unified_kinds is None:
            # Default per the paper's intuition: cross-space-heavy kinds
            # (events, locations) unified; bulk single-space kinds separate.
            unified_kinds = {DataKind.EVENT, DataKind.LOCATION}
        self.unified_kinds = set(unified_kinds)
        self._unified = TaggedUnifiedStore()
        self._separate = SeparateStores()

    def put(self, record: DataRecord) -> None:
        if record.kind in self.unified_kinds:
            self._unified.put(record)
        else:
            self._separate.put(record)

    def _collect_counts(self) -> None:
        self.rows_scanned = self._unified.rows_scanned + self._separate.rows_scanned
        self.rows_returned = (
            self._unified.rows_returned + self._separate.rows_returned
        )

    def query_space(self, space: Space, prefix: str = "") -> list[dict]:
        out = self._separate.query_space(space, prefix)
        out += self._unified.query_space(space, prefix)
        self._collect_counts()
        return out

    def query_cross(self, prefix: str = "") -> list[dict]:
        out = self._unified.query_cross(prefix)
        out += self._separate.query_cross(prefix)
        self._collect_counts()
        return out


def make_organization(name: str) -> TaggedUnifiedStore | SeparateStores | HybridStore:
    """Factory used by benchmarks: 'tagged-unified' | 'separate' | 'hybrid'."""
    strategies = {
        "tagged-unified": TaggedUnifiedStore,
        "separate": SeparateStores,
        "hybrid": HybridStore,
    }
    if name not in strategies:
        raise ConfigurationError(f"unknown organization {name!r}")
    return strategies[name]()


def run_query_mix(
    organization,
    records: list[DataRecord],
    single_space_queries: int,
    cross_space_queries: int,
) -> int:
    """Load records, run the mix, return total rows scanned (the cost)."""
    for record in records:
        organization.put(record)
    for i in range(single_space_queries):
        space = Space.PHYSICAL if i % 2 == 0 else Space.VIRTUAL
        organization.query_space(space)
    for _ in range(cross_space_queries):
        organization.query_cross()
    return organization.rows_scanned
