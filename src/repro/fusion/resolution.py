"""Entity resolution across heterogeneous catalogs (paper Sec. IV-A).

Different sources name the same entity differently ("The C Programming
Language, 2nd ed." vs "C Programming Language (2e)").  Before fusion, their
records must be clustered per real-world entity:

* blocking by token prefix keys keeps the candidate pair count near-linear;
* pairwise scoring mixes token-set Jaccard with normalized edit similarity;
* transitive closure (union-find) over matched pairs yields clusters.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import ConfigurationError

_WORD = re.compile(r"[a-z0-9]+")


def tokens(text: str) -> set[str]:
    """Lower-cased alphanumeric tokens of ``text``."""
    return set(_WORD.findall(text.lower()))


def jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance (iterative two-row DP)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,        # deletion
                    current[j - 1] + 1,     # insertion
                    previous[j - 1] + (ca != cb),  # substitution
                )
            )
        previous = current
    return previous[-1]


def edit_similarity(a: str, b: str) -> float:
    """1 - normalized Levenshtein, in [0, 1]."""
    if not a and not b:
        return 1.0
    return 1.0 - edit_distance(a.lower(), b.lower()) / max(len(a), len(b))


def name_similarity(a: str, b: str, token_weight: float = 0.6) -> float:
    """Blended token-Jaccard / edit similarity."""
    return token_weight * jaccard(tokens(a), tokens(b)) + (
        1 - token_weight
    ) * edit_similarity(a, b)


@dataclass(frozen=True)
class SourceRecord:
    """A record as one source describes an entity."""

    record_id: str
    source: str
    name: str
    attributes: tuple[tuple[str, Any], ...] = field(default=())

    def attr(self) -> dict[str, Any]:
        return dict(self.attributes)


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self._parent.setdefault(x, x)
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


class EntityResolver:
    """Blocked pairwise matching with transitive clustering."""

    def __init__(self, threshold: float = 0.7, block_prefix: int = 4) -> None:
        if not 0 < threshold <= 1:
            raise ConfigurationError("threshold must be in (0, 1]")
        if block_prefix < 1:
            raise ConfigurationError("block_prefix must be >= 1")
        self.threshold = threshold
        self.block_prefix = block_prefix
        self.pairs_compared = 0

    def _blocks(self, records: list[SourceRecord]) -> dict[str, list[SourceRecord]]:
        blocks: dict[str, list[SourceRecord]] = defaultdict(list)
        for record in records:
            for token in tokens(record.name):
                blocks[token[: self.block_prefix]].append(record)
        return blocks

    def resolve(self, records: list[SourceRecord]) -> list[list[SourceRecord]]:
        """Cluster records referring to the same entity."""
        by_id = {r.record_id: r for r in records}
        if len(by_id) != len(records):
            raise ConfigurationError("record_ids must be unique")
        uf = _UnionFind()
        for record in records:
            uf.find(record.record_id)
        seen_pairs: set[frozenset[str]] = set()
        for block in self._blocks(records).values():
            for i in range(len(block)):
                for j in range(i + 1, len(block)):
                    a, b = block[i], block[j]
                    pair = frozenset((a.record_id, b.record_id))
                    if len(pair) == 1 or pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    self.pairs_compared += 1
                    if name_similarity(a.name, b.name) >= self.threshold:
                        uf.union(a.record_id, b.record_id)
        clusters: dict[str, list[SourceRecord]] = defaultdict(list)
        for record in records:
            clusters[uf.find(record.record_id)].append(record)
        return sorted(clusters.values(), key=lambda c: c[0].record_id)

    def merged_attributes(self, cluster: list[SourceRecord]) -> dict[str, Any]:
        """Union of attributes in a cluster; later sources fill gaps only."""
        merged: dict[str, Any] = {}
        for record in cluster:
            for key, value in record.attr().items():
                merged.setdefault(key, value)
        return merged
