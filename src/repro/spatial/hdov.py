"""HDoV-style visibility tree for virtual walkthroughs (paper Sec. IV-F; [70], [71]).

In a virtual walkthrough only a tiny fraction of a large scene is visible at
any viewpoint, and distant objects can be rendered at coarse level-of-detail
(LOD).  The hierarchical degree-of-visibility tree couples a spatial
hierarchy (here a quadtree) with per-node visibility summaries so a
walkthrough client fetches only visible objects, each at the LOD its degree
of visibility warrants — cutting per-frame bytes by orders of magnitude
versus fetching the full scene (experiment E7).

Degree of visibility of an object at distance ``d`` is modelled as the
apparent size ``radius / d`` (clamped to 1), the standard projected-extent
proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError
from .geometry import BBox, Point


@dataclass(frozen=True)
class SceneObject:
    """A renderable object with progressive LOD representations.

    ``lod_bytes`` lists the transfer size of each representation from
    coarsest (index 0) to finest; the finest is the "full fidelity" asset.
    """

    object_id: str
    position: Point
    radius: float
    lod_bytes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ConfigurationError("object radius must be positive")
        if not self.lod_bytes or any(b <= 0 for b in self.lod_bytes):
            raise ConfigurationError("lod_bytes must be non-empty and positive")
        if list(self.lod_bytes) != sorted(self.lod_bytes):
            raise ConfigurationError("lod_bytes must be ascending (coarse to fine)")

    @property
    def finest_bytes(self) -> int:
        return self.lod_bytes[-1]


@dataclass(frozen=True)
class VisibleObject:
    """Query result: an object, its chosen LOD, and the transfer cost."""

    obj: SceneObject
    dov: float
    lod_level: int
    transfer_bytes: int


class _QuadNode:
    __slots__ = ("box", "objects", "children", "max_radius", "count")

    def __init__(self, box: BBox) -> None:
        self.box = box
        self.objects: list[SceneObject] = []
        self.children: list[_QuadNode] | None = None
        self.max_radius = 0.0  # visibility summary: largest object below
        self.count = 0


class HDoVTree:
    """Quadtree with degree-of-visibility pruning and LOD selection.

    ``dov_thresholds`` maps degree-of-visibility to LOD level: an object with
    DoV below ``dov_thresholds[0]`` is culled entirely; between thresholds
    ``i`` and ``i+1`` it is fetched at LOD ``i``; above the last threshold at
    the finest LOD.  Interior nodes store the max object radius beneath them,
    so whole subtrees whose *best possible* DoV is below the cull threshold
    are pruned without visiting their objects — the "hierarchical" in HDoV.
    """

    def __init__(
        self,
        domain: BBox,
        leaf_capacity: int = 16,
        dov_thresholds: tuple[float, ...] = (0.002, 0.01, 0.05),
        max_depth: int = 10,
    ) -> None:
        if leaf_capacity < 1:
            raise ConfigurationError("leaf_capacity must be >= 1")
        if not dov_thresholds or list(dov_thresholds) != sorted(dov_thresholds):
            raise ConfigurationError("dov_thresholds must be ascending, non-empty")
        self.domain = domain
        self.leaf_capacity = leaf_capacity
        self.dov_thresholds = dov_thresholds
        self.max_depth = max_depth
        self._root = _QuadNode(domain)
        self.nodes_visited = 0  # instrumentation for pruning assertions
        # Dynamic-scene support (the paper: "a more robust and dynamic
        # structure to cater to the frequent updates"): the tree stores
        # possibly-stale copies; ``_objects`` holds the live instance per id
        # and queries skip stale copies.  Rebuilds amortize the garbage.
        self._objects: dict[str, SceneObject] = {}
        self._stale = 0

    def __len__(self) -> int:
        return len(self._objects)

    # -- construction and updates -----------------------------------------------

    def insert(self, obj: SceneObject) -> None:
        if not self.domain.contains_point(obj.position):
            raise ConfigurationError(f"{obj.object_id} lies outside the domain")
        if obj.object_id in self._objects:
            raise ConfigurationError(f"duplicate object {obj.object_id!r}")
        self._objects[obj.object_id] = obj
        self._insert(self._root, obj, depth=0)

    def remove(self, object_id: str) -> None:
        """Remove an object (lazy: its tree copy becomes garbage)."""
        if object_id not in self._objects:
            raise ConfigurationError(f"unknown object {object_id!r}")
        del self._objects[object_id]
        self._stale += 1
        self._maybe_rebuild()

    def update_position(self, object_id: str, position: Point) -> None:
        """Move an object; O(log n) insert plus one unit of garbage."""
        current = self._objects.get(object_id)
        if current is None:
            raise ConfigurationError(f"unknown object {object_id!r}")
        if not self.domain.contains_point(position):
            raise ConfigurationError("new position outside the domain")
        moved = SceneObject(
            object_id=object_id,
            position=position,
            radius=current.radius,
            lod_bytes=current.lod_bytes,
        )
        self._objects[object_id] = moved
        self._insert(self._root, moved, depth=0)
        self._stale += 1
        self._maybe_rebuild()

    def _maybe_rebuild(self) -> None:
        if self._stale > max(16, len(self._objects) // 4):
            self.rebuild()

    def rebuild(self) -> None:
        """Rebuild the quadtree from the live object set."""
        self._root = _QuadNode(self.domain)
        self._stale = 0
        for obj in self._objects.values():
            self._insert(self._root, obj, depth=0)

    def _insert(self, node: _QuadNode, obj: SceneObject, depth: int) -> None:
        node.count += 1
        node.max_radius = max(node.max_radius, obj.radius)
        if node.children is None:
            node.objects.append(obj)
            if len(node.objects) > self.leaf_capacity and depth < self.max_depth:
                self._split(node, depth)
            return
        child = self._child_for(node, obj.position)
        self._insert(child, obj, depth + 1)

    def _split(self, node: _QuadNode, depth: int) -> None:
        box = node.box
        cx, cy = box.center.x, box.center.y
        node.children = [
            _QuadNode(BBox(box.x_min, box.y_min, cx, cy)),
            _QuadNode(BBox(cx, box.y_min, box.x_max, cy)),
            _QuadNode(BBox(box.x_min, cy, cx, box.y_max)),
            _QuadNode(BBox(cx, cy, box.x_max, box.y_max)),
        ]
        objects, node.objects = node.objects, []
        for obj in objects:
            child = self._child_for(node, obj.position)
            self._insert(child, obj, depth + 1)

    def _child_for(self, node: _QuadNode, point: Point) -> _QuadNode:
        assert node.children is not None
        cx, cy = node.box.center.x, node.box.center.y
        idx = (1 if point.x > cx else 0) + (2 if point.y > cy else 0)
        return node.children[idx]

    # -- visibility query -------------------------------------------------------

    @staticmethod
    def degree_of_visibility(obj_radius: float, distance: float) -> float:
        """Apparent size of a ``obj_radius`` object at ``distance``."""
        if distance <= obj_radius:
            return 1.0
        return min(1.0, obj_radius / distance)

    def _lod_for(self, dov: float, lod_count: int) -> int | None:
        """LOD level for a DoV, or None if culled."""
        if dov < self.dov_thresholds[0]:
            return None
        level = 0
        for threshold in self.dov_thresholds[1:]:
            if dov >= threshold:
                level += 1
        return min(level, lod_count - 1)

    def query_visible(self, viewpoint: Point, view_radius: float) -> list[VisibleObject]:
        """Visible objects around ``viewpoint``, each with its chosen LOD."""
        if view_radius <= 0:
            raise ConfigurationError("view_radius must be positive")
        self.nodes_visited = 0
        out: list[VisibleObject] = []
        view_box = BBox.around(viewpoint, view_radius)
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.nodes_visited += 1
            if node.count == 0 or not node.box.intersects(view_box):
                continue
            # Hierarchical prune: even the largest object below this node,
            # at the node's closest approach, would fall under the cull DoV.
            nearest = node.box.min_distance_to(viewpoint)
            if nearest > 0:
                best_dov = self.degree_of_visibility(node.max_radius, nearest)
                if best_dov < self.dov_thresholds[0]:
                    continue
            if node.children is not None:
                stack.extend(node.children)
            for obj in node.objects:
                if self._objects.get(obj.object_id) is not obj:
                    continue  # stale copy of a moved/removed object
                distance = obj.position.distance_to(viewpoint)
                if distance > view_radius:
                    continue
                dov = self.degree_of_visibility(obj.radius, distance)
                level = self._lod_for(dov, len(obj.lod_bytes))
                if level is None:
                    continue
                out.append(
                    VisibleObject(
                        obj=obj,
                        dov=dov,
                        lod_level=level,
                        transfer_bytes=obj.lod_bytes[level],
                    )
                )
        return out

    def walkthrough_bytes(self, path: list[Point], view_radius: float) -> int:
        """Total transfer for a walkthrough, fetching deltas per step.

        An object already fetched at a given (or finer) LOD is not fetched
        again; moving closer upgrades pay only the finer level's bytes.
        """
        fetched: dict[str, int] = {}
        total = 0
        for viewpoint in path:
            for visible in self.query_visible(viewpoint, view_radius):
                have = fetched.get(visible.obj.object_id)
                if have is None or visible.lod_level > have:
                    total += visible.transfer_bytes
                    fetched[visible.obj.object_id] = visible.lod_level
        return total

    def full_scene_bytes(self) -> int:
        """Baseline: fetch every object at finest LOD (no visibility culling)."""
        return sum(obj.finest_bytes for obj in self._objects.values())
