"""The modality-agnostic query plane: one dispatch path for every modality.

Every query modality used to be a hand-rolled vertical — ``scan_prefix``,
``query_spatial``, and continuous queries each re-implemented dispatch,
deadline handling, partial results, and merge logic in
:class:`~repro.platform.platform.MetaversePlatform`,
:class:`~repro.cluster.cluster.PlatformCluster`, and
:class:`~repro.geo.deployment.GeoDeployment`.  This module factors the
modality out of the deployment shape:

* a :class:`QueryRequest` names a modality and carries its parameters;
* the modality (a :class:`QueryModality` in a :class:`ModalityRegistry`)
  turns the request into a :class:`QueryPlan` (:meth:`~QueryModality.plan`
  + the optional :meth:`~QueryModality.rewrite` planner hook, which feeds
  :func:`repro.query.optimizer.order_predicates`), runs the plan against
  one shard (:meth:`~QueryModality.execute`), and combines per-shard
  partial results order-deterministically (:meth:`~QueryModality.merge`);
* the deployment layers own *only* dispatch: the platform is a
  single-shard :class:`QueryExecutor`, the cluster scatter-gathers
  ``execute`` across its ring under per-shard deadlines, and the geo
  deployment fans out per consistency mode.  None of them know which
  modalities exist — registering a new modality (see
  :mod:`repro.semantic`) requires zero edits to any dispatch code.

``merge`` receives the per-shard partial lists in deterministic ring
order and must itself be order-deterministic (every built-in sorts by an
explicit total order), so a query answers identically regardless of how
the corpus is sharded — the property E31 pins for the semantic modality
and the conformance suite pins for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..api.dataplane import GatherResult
from ..core.errors import ConfigurationError
from ..storage.kv import scan_prefix
from .optimizer import order_predicates


@dataclass(frozen=True)
class QueryRequest:
    """One query as the caller states it: a modality name + parameters.

    ``params`` is treated as immutable; planning copies it into the
    :class:`QueryPlan` rather than mutating it in place.
    """

    modality: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class QueryPlan:
    """A planned (and possibly rewritten) query, ready to execute.

    Plans are shard-agnostic: the same plan object is handed to every
    shard's ``execute``, so per-query work (parameter validation, filter
    ordering, text embedding) happens exactly once at planning time.
    """

    modality: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class PlanFilter:
    """A residual predicate pushed down to shard-local execution.

    Mirrors :class:`repro.query.operators.Filter`'s cost model (abstract
    per-item ``cost``, expected pass fraction ``selectivity``) without the
    operator-tree ``child``, so :func:`repro.query.optimizer.order_predicates`
    can rank it directly.  ``predicate`` takes one result item (e.g. a
    ``(key, value)`` pair) and keeps it on True.
    """

    predicate: Callable[[Any], bool]
    cost: float = 1.0
    selectivity: float = 0.5
    label: str = ""


class QueryModality:
    """One query modality: shard-local execution + deterministic merge.

    Subclasses set :attr:`name` and implement :meth:`execute` /
    :meth:`merge`; :meth:`plan`, :meth:`rewrite`, and :meth:`item_key`
    have useful defaults.  ``item_key`` is what keeps ownership filtering
    modality-agnostic: the cluster restricts shared-storage scans to each
    shard's ring slice, and the geo layer restricts each region to its
    home keyspace, both by calling ``item_key`` instead of assuming the
    item shape.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def plan(self, request: QueryRequest) -> QueryPlan:
        """Validate the request and freeze it into a plan."""
        return QueryPlan(request.modality, dict(request.params))

    def rewrite(self, plan: QueryPlan) -> QueryPlan:
        """Planner hook, applied once per query before any dispatch.

        The default rewrite rank-orders any pushed-down ``filters``
        (:class:`PlanFilter` list) with the Hellerstein ordering from
        :func:`repro.query.optimizer.order_predicates`, so cheap/selective
        predicates run first on every shard.
        """
        filters = plan.params.get("filters")
        if filters:
            params = dict(plan.params)
            params["filters"] = tuple(order_predicates(list(filters)))
            return QueryPlan(plan.modality, params)
        return plan

    def execute(self, shard, plan: QueryPlan) -> list:
        """Run the plan against one shard; returns that shard's items."""
        raise NotImplementedError

    def merge(self, partials: list[list], plan: QueryPlan) -> list:
        """Combine per-shard partials (given in deterministic ring order)
        into the final item list.  Must be order-deterministic."""
        raise NotImplementedError

    def item_key(self, item) -> str:
        """The routing key of one result item (default: ``item[0]``)."""
        return item[0]

    @staticmethod
    def apply_filters(plan: QueryPlan, items: list) -> list:
        """Apply the plan's (already rank-ordered) residual filters."""
        filters = plan.params.get("filters")
        if not filters:
            return items
        for filt in filters:
            items = [item for item in items if filt.predicate(item)]
        return items


def _sorted_by_key(partials: list[list]) -> list:
    items = [item for partial in partials for item in partial]
    items.sort(key=lambda kv: kv[0])
    return items


class PrefixScanModality(QueryModality):
    """Range query: every ``(key, stored_value)`` under a key prefix."""

    name = "prefix"

    def plan(self, request: QueryRequest) -> QueryPlan:
        params = dict(request.params)
        if not isinstance(params.get("prefix"), str):
            raise ConfigurationError("prefix queries need a string 'prefix'")
        return QueryPlan(request.modality, params)

    def execute(self, shard, plan: QueryPlan) -> list:
        prefix = plan.params["prefix"]
        return self.apply_filters(plan, scan_prefix(shard.scan, prefix))

    def merge(self, partials: list[list], plan: QueryPlan) -> list:
        return _sorted_by_key(partials)


class SpatialModality(QueryModality):
    """Entities whose payload position (``x``/``y``) lies in a ``BBox``."""

    name = "spatial"

    def plan(self, request: QueryRequest) -> QueryPlan:
        params = dict(request.params)
        region = params.get("region")
        if region is None or not hasattr(region, "x_min"):
            raise ConfigurationError("spatial queries need a BBox 'region'")
        return QueryPlan(request.modality, params)

    def execute(self, shard, plan: QueryPlan) -> list:
        return self.apply_filters(plan, shard.spatial_items(plan.params["region"]))

    def merge(self, partials: list[list], plan: QueryPlan) -> list:
        return _sorted_by_key(partials)


class ModalityRegistry:
    """Name → :class:`QueryModality` lookup shared by every executor."""

    def __init__(self) -> None:
        self._modalities: dict[str, QueryModality] = {}

    def register(
        self, modality: QueryModality, *, replace: bool = False
    ) -> QueryModality:
        if not replace and modality.name in self._modalities:
            raise ConfigurationError(
                f"query modality {modality.name!r} already registered"
            )
        self._modalities[modality.name] = modality
        return modality

    def get(self, name: str) -> QueryModality:
        try:
            return self._modalities[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown query modality {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._modalities)


#: Process-wide default registry.  Built-in modalities register here at
#: import; add-on packages (``repro.semantic``) register theirs the same
#: way, which is the *only* step a new modality needs — no dispatch edits.
DEFAULT_REGISTRY = ModalityRegistry()


def register_modality(
    modality: QueryModality,
    *,
    registry: ModalityRegistry | None = None,
    replace: bool = False,
) -> QueryModality:
    """Register ``modality`` (default registry unless one is given)."""
    return (registry or DEFAULT_REGISTRY).register(modality, replace=replace)


class QueryExecutor:
    """Binds a modality registry to one deployment shape's dispatch.

    :meth:`resolve` is the shared planning front half (registry lookup →
    ``plan`` → ``rewrite``); :meth:`run_single` is the whole back half
    for a single-shard deployment.  Multi-shard deployments call
    :meth:`resolve` and scatter ``modality.execute`` themselves.
    """

    def __init__(self, registry: ModalityRegistry | None = None) -> None:
        self.registry = registry or DEFAULT_REGISTRY

    def resolve(self, request: QueryRequest) -> tuple[QueryModality, QueryPlan]:
        modality = self.registry.get(request.modality)
        return modality, modality.rewrite(modality.plan(request))

    def run_single(self, shard, request: QueryRequest) -> GatherResult:
        modality, plan = self.resolve(request)
        items = modality.merge([modality.execute(shard, plan)], plan)
        return GatherResult(items=items)


def prefix_query(prefix: str, filters: list[PlanFilter] | None = None) -> QueryRequest:
    """A :class:`QueryRequest` for the built-in prefix-scan modality."""
    params: dict[str, Any] = {"prefix": prefix}
    if filters:
        params["filters"] = tuple(filters)
    return QueryRequest("prefix", params)


def spatial_query(region, filters: list[PlanFilter] | None = None) -> QueryRequest:
    """A :class:`QueryRequest` for the built-in spatial modality."""
    params: dict[str, Any] = {"region": region}
    if filters:
        params["filters"] = tuple(filters)
    return QueryRequest("spatial", params)


register_modality(PrefixScanModality())
register_modality(SpatialModality())
