"""R-tree with quadratic split (Guttman).

The read-optimized spatial index: good at static range and nearest-neighbour
queries over rectangles, but expensive under the update-intensive workloads
the paper highlights (Sec. IV-F) — experiment E6 quantifies exactly that
trade-off against the grid and Bx-style indexes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

from ..core.errors import ConfigurationError, KeyNotFoundError
from .geometry import BBox, Point


class _Entry:
    __slots__ = ("box", "child", "object_id")

    def __init__(self, box: BBox, child: "_RNode | None" = None, object_id: Any = None):
        self.box = box
        self.child = child
        self.object_id = object_id


class _RNode:
    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[_Entry] = []

    def bbox(self) -> BBox:
        box = self.entries[0].box
        for entry in self.entries[1:]:
            box = box.union(entry.box)
        return box


class RTree:
    """An R-tree mapping object ids to bounding boxes."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 4:
            raise ConfigurationError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 2)
        self._root = _RNode(is_leaf=True)
        self._size = 0
        self._boxes: dict[Any, BBox] = {}

    def __len__(self) -> int:
        return self._size

    def __contains__(self, object_id: Any) -> bool:
        return object_id in self._boxes

    # -- insertion ------------------------------------------------------------

    def insert(self, object_id: Any, box: BBox) -> None:
        if object_id in self._boxes:
            self.remove(object_id)
        self._boxes[object_id] = box
        entry = _Entry(box, object_id=object_id)
        split = self._insert(self._root, entry)
        if split is not None:
            left, right = split
            new_root = _RNode(is_leaf=False)
            new_root.entries = [
                _Entry(left.bbox(), child=left),
                _Entry(right.bbox(), child=right),
            ]
            self._root = new_root
        self._size += 1

    def insert_point(self, object_id: Any, point: Point) -> None:
        self.insert(object_id, BBox(point.x, point.y, point.x, point.y))

    def _insert(self, node: _RNode, entry: _Entry) -> tuple[_RNode, _RNode] | None:
        if node.is_leaf:
            node.entries.append(entry)
        else:
            best = min(
                node.entries,
                key=lambda e: (e.box.enlargement(entry.box), e.box.area),
            )
            assert best.child is not None
            split = self._insert(best.child, entry)
            best.box = best.box.union(entry.box)
            if split is not None:
                left, right = split
                node.entries.remove(best)
                node.entries.append(_Entry(left.bbox(), child=left))
                node.entries.append(_Entry(right.bbox(), child=right))
        if len(node.entries) > self.max_entries:
            return self._quadratic_split(node)
        return None

    def _quadratic_split(self, node: _RNode) -> tuple[_RNode, _RNode]:
        entries = node.entries
        # Pick the pair wasting the most area as seeds.
        worst, seeds = -1.0, (0, 1)
        for i, j in itertools.combinations(range(len(entries)), 2):
            waste = (
                entries[i].box.union(entries[j].box).area
                - entries[i].box.area
                - entries[j].box.area
            )
            if waste > worst:
                worst, seeds = waste, (i, j)
        left = _RNode(is_leaf=node.is_leaf)
        right = _RNode(is_leaf=node.is_leaf)
        left.entries.append(entries[seeds[0]])
        right.entries.append(entries[seeds[1]])
        remaining = [e for idx, e in enumerate(entries) if idx not in seeds]
        for pos, entry in enumerate(remaining):
            unassigned = len(remaining) - pos
            # Force assignment when a side needs every remaining entry to
            # reach min_entries.
            if len(left.entries) + unassigned <= self.min_entries:
                left.entries.append(entry)
                continue
            if len(right.entries) + unassigned <= self.min_entries:
                right.entries.append(entry)
                continue
            growth_l = left.bbox().enlargement(entry.box)
            growth_r = right.bbox().enlargement(entry.box)
            if growth_l < growth_r or (
                growth_l == growth_r and len(left.entries) <= len(right.entries)
            ):
                left.entries.append(entry)
            else:
                right.entries.append(entry)
        return left, right

    # -- removal ----------------------------------------------------------------

    def remove(self, object_id: Any) -> None:
        """Remove by id; reinserts orphaned entries (condense-tree)."""
        box = self._boxes.pop(object_id, None)
        if box is None:
            raise KeyNotFoundError(object_id)
        orphans: list[_Entry] = []
        removed = self._remove(self._root, object_id, box, orphans)
        if not removed:  # pragma: no cover - defensive, box map keeps us honest
            raise KeyNotFoundError(object_id)
        self._size -= 1
        if not self._root.is_leaf and len(self._root.entries) == 1:
            child = self._root.entries[0].child
            if child is not None:
                self._root = child
        for orphan in orphans:
            if orphan.object_id is not None:
                self._boxes.pop(orphan.object_id, None)
                self._size -= 1
                self.insert(orphan.object_id, orphan.box)

    def _remove(
        self, node: _RNode, object_id: Any, box: BBox, orphans: list[_Entry]
    ) -> bool:
        if node.is_leaf:
            for entry in node.entries:
                if entry.object_id == object_id:
                    node.entries.remove(entry)
                    return True
            return False
        for entry in list(node.entries):
            if entry.box.intersects(box) and entry.child is not None:
                if self._remove(entry.child, object_id, box, orphans):
                    if len(entry.child.entries) < self.min_entries and entry.child.is_leaf:
                        orphans.extend(entry.child.entries)
                        node.entries.remove(entry)
                    elif entry.child.entries:
                        entry.box = entry.child.bbox()
                    else:
                        node.entries.remove(entry)
                    return True
        return False

    # -- queries ------------------------------------------------------------------

    def query_range(self, box: BBox) -> list[Any]:
        """Object ids whose boxes intersect ``box``."""
        out: list[Any] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if entry.box.intersects(box):
                    if node.is_leaf:
                        out.append(entry.object_id)
                    elif entry.child is not None:
                        stack.append(entry.child)
        return out

    def nearest(self, point: Point, k: int = 1) -> list[Any]:
        """Best-first k-nearest-neighbour search."""
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        counter = itertools.count()
        heap: list[tuple[float, int, _RNode | None, Any]] = [
            (0.0, next(counter), self._root, None)
        ]
        found: list[Any] = []
        while heap and len(found) < k:
            dist, _, node, object_id = heapq.heappop(heap)
            if node is None:
                found.append(object_id)
                continue
            for entry in node.entries:
                d = entry.box.min_distance_to(point)
                if node.is_leaf:
                    heapq.heappush(heap, (d, next(counter), None, entry.object_id))
                else:
                    heapq.heappush(heap, (d, next(counter), entry.child, None))
        return found

    def bbox_of(self, object_id: Any) -> BBox:
        try:
            return self._boxes[object_id]
        except KeyError:
            raise KeyNotFoundError(object_id) from None

    def depth(self) -> int:
        depth = 1
        node = self._root
        while not node.is_leaf:
            assert node.entries[0].child is not None
            node = node.entries[0].child
            depth += 1
        return depth

    @classmethod
    def bulk_load(cls, items: list[tuple[Any, BBox]], max_entries: int = 8) -> "RTree":
        """Sort-tile-recursive-flavoured bulk load (x then y ordering)."""
        tree = cls(max_entries=max_entries)
        ordered = sorted(items, key=lambda kv: (kv[1].center.x, kv[1].center.y))
        for object_id, box in ordered:
            tree.insert(object_id, box)
        return tree
