"""repro — a metaverse data platform.

A laptop-scale, from-scratch prototype of the data-management system
envisioned by "The Metaverse Data Deluge: What Can We Do About It?"
(Ooi et al., ICDE 2023).  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the claim-by-claim benchmark index.

The one-stop user-facing surface is re-exported here::

    from repro import MetaversePlatform, MetaverseWorld, Tracer

    tracer = Tracer()
    platform = MetaversePlatform(tracer=tracer)
    ...
    print(tracer.render_tree())

Subsystem packages (``repro.spatial``, ``repro.query``, ``repro.obs``,
...) remain importable directly for everything else.
"""

from .api.dataplane import DataPlane, GatherResult
from .cluster.cluster import PlatformCluster
from .cluster.config import ClusterConfig
from .cluster.router import ShardRouter
from .core.clock import EventScheduler, SimulationClock
from .core.columns import RecordBatch
from .fusion.batch import ObservationBatch
from .core.metrics import MetricsRegistry
from .core.records import DataKind, DataRecord, Space
from .geo.deployment import GeoConfig, GeoDeployment, GeoSession
from .ledger.ledgerdb import LedgerDB
from .obs.export import render_json, render_prometheus, write_snapshot
from .obs.logsink import LogSink
from .obs.tracing import NoopTracer, Span, Tracer
from .platform.gateway import DeviceGateway
from .platform.platform import MetaversePlatform
from .resilience.degrade import DegradationController
from .resilience.faults import FaultInjector, FaultPlan, FaultRule
from .resilience.policies import CircuitBreaker, RetryPolicy, Timeout
from .storage.engine import (
    LocalStorageEngine,
    RemoteStorageEngine,
    StorageEngine,
    StorageNode,
    StorageTier,
)
from .world.twin import MetaverseWorld

__version__ = "1.2.0"

__all__ = [
    "CircuitBreaker",
    "ClusterConfig",
    "DataKind",
    "DataPlane",
    "DataRecord",
    "DegradationController",
    "DeviceGateway",
    "EventScheduler",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "GatherResult",
    "GeoConfig",
    "GeoDeployment",
    "GeoSession",
    "LedgerDB",
    "LocalStorageEngine",
    "LogSink",
    "MetaversePlatform",
    "MetaverseWorld",
    "MetricsRegistry",
    "NoopTracer",
    "ObservationBatch",
    "PlatformCluster",
    "RecordBatch",
    "RemoteStorageEngine",
    "RetryPolicy",
    "ShardRouter",
    "SimulationClock",
    "Space",
    "Span",
    "StorageEngine",
    "StorageNode",
    "StorageTier",
    "Timeout",
    "Tracer",
    "render_json",
    "render_prometheus",
    "write_snapshot",
    "__version__",
]
