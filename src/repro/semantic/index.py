"""Per-shard semantic index: embeddings + HNSW, fed from the ingest path.

:class:`SemanticIndex` is what a :class:`~repro.platform.platform.
MetaversePlatform` owns when built with ``semantic_index``: every entity
write (``write_record``, ``write_record_batch``, ``import_entity``) and
delete (``drop_entity``) keeps it coherent, exactly like the spatial
position memo — so shard failover promotion, which replays entities via
``import_entity``, rebuilds the graph for free.  Records whose payloads
carry nothing describable (pure numeric telemetry) embed to ``None`` and
are skipped; a record *updated* from describable to numeric is evicted.

Stored vectors are the payload embedding plus a tiny deterministic
per-key **tie-breaking jitter** (:func:`tie_break_jitter`).  Bag-of-words
embeddings give distinct objects with the same description *identical*
vectors; exact-duplicate clusters are the one input graph-based ANN
handles badly (they collapse into distance-zero cliques that can trap or
exclude the search beam), and they make "the top-k" ill-defined — any
tie member is as right as another.  An ~1e-4 key-derived offset gives
every query a strict total score order that is a pure function of
``(key, payload)``: the same record scores bit-identically on any shard
of any deployment, which is what lets E31 pin identical top-k across
1-vs-4-shard builds.  The brute-force oracle (:meth:`SemanticIndex.
exact_search`) reads the same stored vectors, so recall is measured
against the same order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError
from .embed import DEFAULT_DIM, embed_payload
from .hnsw import HNSWIndex, brute_force_topk, normalize

#: Jitter magnitude per component: large enough to order ties strictly
#: (float64 resolves ~1e-16), small enough to never reorder genuinely
#: different similarity scores (token-overlap steps are >= ~1e-2).
JITTER_SCALE = 1e-4


def tie_break_jitter(key: str, dim: int) -> np.ndarray:
    """A key-derived offset in [-scale/2, +scale/2]^dim.

    Components come straight from counter-mode SHA-256 of the key, not a
    seeded RNG, so the bytes (and every artifact derived from them) are
    identical on every host, numpy version, and run.
    """
    out = np.empty(dim, dtype=np.float64)
    filled, block = 0, 0
    while filled < dim:
        digest = hashlib.sha256(f"jitter:{key}:{block}".encode()).digest()
        take = min(dim - filled, len(digest))
        out[filled:filled + take] = [
            byte / 255.0 - 0.5 for byte in digest[:take]
        ]
        filled += take
        block += 1
    return out * JITTER_SCALE


def indexed_vector(key: str, payload: dict, dim: int = DEFAULT_DIM) -> np.ndarray | None:
    """The exact vector the index stores for ``(key, payload)`` —
    embedding plus jitter, normalized — or ``None`` if undescribable.
    Benchmarks build their brute-force oracle matrices from this."""
    vector = embed_payload(payload, dim)
    if vector is None:
        return None
    return normalize(vector + tie_break_jitter(key, dim))


@dataclass(frozen=True)
class SemanticIndexConfig:
    """Shape of one shard's semantic index."""

    dim: int = DEFAULT_DIM
    m: int = 8
    ef_construction: int = 64
    ef_search: int = 48

    def validate(self) -> "SemanticIndexConfig":
        if self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if self.m < 2:
            raise ConfigurationError("m must be >= 2")
        if self.ef_construction < self.m or self.ef_search < 1:
            raise ConfigurationError(
                "ef_construction must be >= m and ef_search >= 1"
            )
        return self


class SemanticIndex:
    """Embeds payloads and maintains the shard-local ANN graph."""

    def __init__(self, config: SemanticIndexConfig | None = None) -> None:
        self.config = (config or SemanticIndexConfig()).validate()
        self.hnsw = HNSWIndex(
            dim=self.config.dim,
            m=self.config.m,
            ef_construction=self.config.ef_construction,
            ef_search=self.config.ef_search,
        )

    def __len__(self) -> int:
        return len(self.hnsw)

    def __contains__(self, key: str) -> bool:
        return key in self.hnsw

    @property
    def distance_evals(self) -> int:
        return self.hnsw.distance_evals

    def index_record(self, key: str, payload: dict) -> bool:
        """(Re-)index one entity; True when it landed in the graph."""
        vector = indexed_vector(key, payload, self.config.dim)
        if vector is None:
            self.hnsw.discard(key)
            return False
        # A move rewrites the payload but not its description: when the
        # row ``add`` would store is bit-identical to the stored one, a
        # re-insert would only tombstone a node and rebuild it in place.
        # ``add`` normalizes again, which can flip a last bit, so compare
        # against that second normalization, not ``vector`` itself.
        if key in self.hnsw and (
            self.hnsw.vector_of(key).tobytes() == normalize(vector).tobytes()
        ):
            return True
        self.hnsw.add(key, vector)
        return True

    def discard(self, key: str) -> bool:
        return self.hnsw.discard(key)

    def search(
        self, vector: np.ndarray, k: int, ef: int | None = None
    ) -> list[tuple[str, float]]:
        return self.hnsw.search(vector, k, ef=ef)

    def exact_search(self, vector: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Brute-force oracle over the *live* indexed vectors (recall floor)."""
        keys = self.hnsw.keys()
        if not keys:
            return []
        matrix = np.stack([self.hnsw.vector_of(key) for key in keys])
        return brute_force_topk(keys, matrix, normalize(vector), k)
