"""Physical query operators (paper Sec. IV-G).

Operators are composable record-stream transformers: each consumes an
iterable of :class:`~repro.core.records.DataRecord` and yields records,
counting the rows it processed so plans can be costed after the fact.  The
metaverse-specific operators the paper calls for are here:

* :class:`Interpolate` — "sensor data may have to be interpolated ... for
  them to be consumed by the virtual space";
* :class:`SpaceFilter` / :class:`SpaceMerge` — space-aware processing over
  tagged data (Sec. IV-F);
* :class:`ApplyUdf` — user-defined (possibly expensive) predicates and
  transforms, the optimizer's placement target ([39]).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

from ..core.errors import QueryError
from ..core.records import DataRecord, Space


class Operator:
    """Base operator: iterate to execute; ``rows_in``/``rows_out`` count flow."""

    def __init__(self) -> None:
        self.rows_in = 0
        self.rows_out = 0

    def __iter__(self) -> Iterator[DataRecord]:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


class Scan(Operator):
    """Source operator over a record collection."""

    def __init__(self, records: Iterable[DataRecord]) -> None:
        super().__init__()
        self._records = records

    def __iter__(self) -> Iterator[DataRecord]:
        for record in self._records:
            self.rows_out += 1
            yield record


class Filter(Operator):
    """Keep records satisfying ``predicate``.

    ``cost`` is the abstract per-row evaluation cost and ``selectivity`` the
    expected pass fraction; both feed the optimizer's expensive-predicate
    ordering.
    """

    def __init__(
        self,
        child: Operator,
        predicate: Callable[[DataRecord], bool],
        cost: float = 1.0,
        selectivity: float = 0.5,
        label: str = "",
    ) -> None:
        super().__init__()
        if cost <= 0 or not 0.0 <= selectivity <= 1.0:
            raise QueryError("invalid filter cost/selectivity")
        self.child = child
        self.predicate = predicate
        self.cost = cost
        self.selectivity = selectivity
        self.label = label or "filter"

    def __iter__(self) -> Iterator[DataRecord]:
        for record in self.child:
            self.rows_in += 1
            if self.predicate(record):
                self.rows_out += 1
                yield record


class Project(Operator):
    """Keep only the named payload fields."""

    def __init__(self, child: Operator, fields: list[str]) -> None:
        super().__init__()
        self.child = child
        self.fields = list(fields)

    def __iter__(self) -> Iterator[DataRecord]:
        for record in self.child:
            self.rows_in += 1
            self.rows_out += 1
            record.payload = {
                f: record.payload[f] for f in self.fields if f in record.payload
            }
            yield record


class ApplyUdf(Operator):
    """Apply a user-defined transform to each record's payload."""

    def __init__(
        self,
        child: Operator,
        udf: Callable[[dict[str, Any]], dict[str, Any]],
        cost: float = 10.0,
        label: str = "udf",
    ) -> None:
        super().__init__()
        self.child = child
        self.udf = udf
        self.cost = cost
        self.label = label

    def __iter__(self) -> Iterator[DataRecord]:
        for record in self.child:
            self.rows_in += 1
            record.payload = self.udf(record.payload)
            self.rows_out += 1
            yield record


class SpaceFilter(Operator):
    """Keep records tagged with the given space (Sec. IV-F tagging)."""

    def __init__(self, child: Operator, space: Space) -> None:
        super().__init__()
        self.child = child
        self.space = space

    def __iter__(self) -> Iterator[DataRecord]:
        for record in self.child:
            self.rows_in += 1
            if record.space is self.space:
                self.rows_out += 1
                yield record


class SpaceMerge(Operator):
    """Interleave two per-space streams into a unified, time-ordered view."""

    def __init__(self, physical: Operator, virtual: Operator) -> None:
        super().__init__()
        self.physical = physical
        self.virtual = virtual

    def __iter__(self) -> Iterator[DataRecord]:
        merged = sorted(
            list(self.physical) + list(self.virtual), key=lambda r: r.timestamp
        )
        for record in merged:
            self.rows_in += 1
            self.rows_out += 1
            yield record


class Interpolate(Operator):
    """Resample a numeric sensor field onto a regular grid per key.

    Consumes the child fully (it is a pipeline breaker), groups by record
    key, linearly interpolates ``field`` at multiples of ``interval``
    between each key's first and last sample, and emits one record per grid
    point.  This is the paper's "sensor data may have to be interpolated"
    operator: the virtual space wants regularly spaced values even when the
    physical sensors report irregularly.
    """

    def __init__(self, child: Operator, field: str, interval: float) -> None:
        super().__init__()
        if interval <= 0:
            raise QueryError("interval must be positive")
        self.child = child
        self.field = field
        self.interval = interval

    def __iter__(self) -> Iterator[DataRecord]:
        by_key: dict[str, list[DataRecord]] = defaultdict(list)
        for record in self.child:
            self.rows_in += 1
            if self.field in record.payload:
                by_key[record.key].append(record)
        for key, records in by_key.items():
            records.sort(key=lambda r: r.timestamp)
            times = [r.timestamp for r in records]
            values = [float(r.payload[self.field]) for r in records]
            t = times[0]
            idx = 0
            while t <= times[-1] + 1e-9:
                while idx + 1 < len(times) and times[idx + 1] < t:
                    idx += 1
                value = self._interp(times, values, idx, t)
                template = records[min(idx, len(records) - 1)]
                self.rows_out += 1
                yield DataRecord(
                    key=key,
                    payload={self.field: value},
                    space=template.space,
                    timestamp=t,
                    kind=template.kind,
                    source="interpolate",
                )
                t += self.interval

    @staticmethod
    def _interp(times: list[float], values: list[float], idx: int, t: float) -> float:
        if idx + 1 >= len(times) or t <= times[idx]:
            return values[idx]
        t0, t1 = times[idx], times[idx + 1]
        if t >= t1:
            return values[idx + 1]
        frac = (t - t0) / (t1 - t0)
        return values[idx] + frac * (values[idx + 1] - values[idx])


class HashJoin(Operator):
    """Equi-join two record streams on payload fields.

    Output records merge both payloads (right-side fields prefixed when they
    collide) and keep the left record's space/timestamp.
    """

    def __init__(
        self, left: Operator, right: Operator, left_field: str, right_field: str
    ) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.left_field = left_field
        self.right_field = right_field

    def __iter__(self) -> Iterator[DataRecord]:
        table: dict[Any, list[DataRecord]] = defaultdict(list)
        for record in self.right:
            self.rows_in += 1
            table[record.payload.get(self.right_field)].append(record)
        for record in self.left:
            self.rows_in += 1
            for match in table.get(record.payload.get(self.left_field), []):
                payload = dict(record.payload)
                for field, value in match.payload.items():
                    if field in payload and field != self.left_field:
                        payload[f"right_{field}"] = value
                    else:
                        payload.setdefault(field, value)
                self.rows_out += 1
                yield DataRecord(
                    key=record.key,
                    payload=payload,
                    space=record.space,
                    timestamp=record.timestamp,
                    kind=record.kind,
                    source="join",
                )


class Aggregate(Operator):
    """Group-by aggregation; a pipeline breaker emitting one record per group.

    ``aggregations`` maps output-field -> (input-field, fn) where fn is one
    of ``sum``/``count``/``avg``/``min``/``max``.
    """

    _FNS = ("sum", "count", "avg", "min", "max")

    def __init__(
        self,
        child: Operator,
        group_by: str | None,
        aggregations: dict[str, tuple[str, str]],
    ) -> None:
        super().__init__()
        for _, (_, fn) in aggregations.items():
            if fn not in self._FNS:
                raise QueryError(f"unknown aggregate fn {fn!r}")
        self.child = child
        self.group_by = group_by
        self.aggregations = aggregations

    def __iter__(self) -> Iterator[DataRecord]:
        groups: dict[Any, list[DataRecord]] = defaultdict(list)
        for record in self.child:
            self.rows_in += 1
            group_key = (
                record.payload.get(self.group_by) if self.group_by else "_all"
            )
            groups[group_key].append(record)
        for group_key, records in groups.items():
            payload: dict[str, Any] = {}
            if self.group_by:
                payload[self.group_by] = group_key
            for out_field, (in_field, fn) in self.aggregations.items():
                values = [
                    float(r.payload[in_field])
                    for r in records
                    if in_field in r.payload
                ]
                payload[out_field] = self._apply(fn, values, len(records))
            self.rows_out += 1
            yield DataRecord(
                key=str(group_key),
                payload=payload,
                space=records[0].space,
                timestamp=max(r.timestamp for r in records),
                source="aggregate",
            )

    @staticmethod
    def _apply(fn: str, values: list[float], count: int) -> float:
        if fn == "count":
            return float(count)
        if not values:
            return 0.0
        if fn == "sum":
            return sum(values)
        if fn == "avg":
            return sum(values) / len(values)
        if fn == "min":
            return min(values)
        return max(values)


class Limit(Operator):
    """Yield at most ``n`` records."""

    def __init__(self, child: Operator, n: int) -> None:
        super().__init__()
        if n < 0:
            raise QueryError("limit must be >= 0")
        self.child = child
        self.n = n

    def __iter__(self) -> Iterator[DataRecord]:
        for record in self.child:
            self.rows_in += 1
            if self.rows_out >= self.n:
                return
            self.rows_out += 1
            yield record


def execute(operator: Operator) -> list[DataRecord]:
    """Run a plan to completion and return the result rows."""
    return list(operator)


def _children_of(operator: Operator) -> list[Operator]:
    out = []
    for attr in ("child", "left", "right", "physical", "virtual"):
        node = getattr(operator, attr, None)
        if isinstance(node, Operator):
            out.append(node)
    return out


def explain(operator: Operator, indent: int = 0) -> str:
    """An EXPLAIN-style rendering of a plan tree with row-flow stats.

    Call after execution to see per-operator input/output counts — the
    observability hook the optimizer tests and benchmarks use.
    """
    label = getattr(operator, "label", "")
    detail = f" [{label}]" if label and label != operator.name.lower() else ""
    line = (
        "  " * indent
        + f"{operator.name}{detail} (in={operator.rows_in}, out={operator.rows_out})"
    )
    lines = [line]
    for child in _children_of(operator):
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
