"""Point-to-trixel lookups on the shared trixel mesh.

``lookup_id(ra, dec, depth)`` descends the triangular mesh from the
octahedron face containing the point down to ``depth`` levels,
returning the 64-bit trixel id.  The SkyServer stores 20-deep ids, at
which level "individual triangles are less than 0.1 arcseconds on a
side" (paper §9.1.4), and indexes them with an ordinary B-tree because
every descendant of a trixel falls in a contiguous id range.

Lookups and covers walk one process-wide, lazily built mesh of
:class:`MeshNode` objects instead of re-deriving ``Trixel`` geometry on
every call (``cover.py`` documents the design and why its answers are
byte-identical to a ``Trixel`` descent).
"""

from __future__ import annotations

from typing import Sequence

from .trixel import _EDGE_EPSILON, ROOT_TRIXELS, Trixel, htm_level, trixel_from_id
from .vectors import Vector, angular_distance, centroid, cross, dot, midpoint, radec_to_unit

#: The SkyServer's storage depth for HTM ids.
DEFAULT_DEPTH = 20

#: Deepest level whose mesh nodes outlive the call that built them
#: (level-6 trixels are ~1.4 degrees on a side).  A survey footprint
#: touches a few hundred of them; even a whole-sky workload retains at
#: most 8 * (4**7 - 1) / 3 = 43,688 nodes, ~44 MB with every memo
#: filled.  Retaining deeper levels measured no faster: a cover spends
#: most of its time below any level worth keeping.
RETAINED_LEVEL = 6


class MeshNode:
    """One trixel of the shared mesh, with its derived geometry memoised.

    It answers the same questions as :class:`Trixel` (``corners``,
    ``level``, ``htm_id``, ``children()``, ``bounding_cap()``,
    ``contains()``), so ``Region.classify`` accepts either.  Concurrent
    callers may race to fill a memo; both compute the same value from
    the same inputs and the last whole-tuple store wins, so no lock is
    needed.
    """

    __slots__ = ("htm_id", "level", "corners", "_children", "_normals", "_cap")

    def __init__(self, htm_id: int, level: int, corners: tuple[Vector, Vector, Vector]):
        self.htm_id = htm_id
        self.level = level
        self.corners = corners
        self._children: tuple[MeshNode, MeshNode, MeshNode, MeshNode] | None = None
        self._normals: tuple[Vector, Vector, Vector] | None = None
        self._cap: tuple[Vector, float] | None = None

    def children(self) -> tuple["MeshNode", "MeshNode", "MeshNode", "MeshNode"]:
        """The four children, kept for the process above ``RETAINED_LEVEL``."""
        children = self._children
        if children is None:
            v0, v1, v2 = self.corners
            w0 = midpoint(v1, v2)
            w1 = midpoint(v0, v2)
            w2 = midpoint(v0, v1)
            base = self.htm_id << 2
            next_level = self.level + 1
            children = (
                MeshNode(base | 0, next_level, (v0, w2, w1)),
                MeshNode(base | 1, next_level, (v1, w0, w2)),
                MeshNode(base | 2, next_level, (v2, w1, w0)),
                MeshNode(base | 3, next_level, (w0, w1, w2)),
            )
            if self.level < RETAINED_LEVEL:
                self._children = children
        return children

    def bounding_cap(self) -> tuple[Vector, float]:
        """A (center, angular-radius-in-degrees) cap containing the trixel."""
        cap = self._cap
        if cap is None:
            v0, v1, v2 = self.corners
            center = centroid(self.corners)
            radius = max(angular_distance(center, v0), angular_distance(center, v1),
                         angular_distance(center, v2))
            cap = self._cap = (center, radius)
        return cap

    def contains(self, vector: Sequence[float]) -> bool:
        """True when ``vector`` lies inside (or on the boundary of) the trixel."""
        normals = self._normals
        if normals is None:
            v0, v1, v2 = self.corners
            normals = self._normals = (cross(v0, v1), cross(v1, v2), cross(v2, v0))
        return (dot(normals[0], vector) >= _EDGE_EPSILON
                and dot(normals[1], vector) >= _EDGE_EPSILON
                and dot(normals[2], vector) >= _EDGE_EPSILON)


#: The octahedron faces: the roots of the shared mesh.
ROOT_NODES: tuple[MeshNode, ...] = tuple(
    MeshNode(htm_id, 0, corners) for _name, htm_id, corners in ROOT_TRIXELS)


def _node_containing(nodes: Sequence[MeshNode], vector: Sequence[float]) -> MeshNode:
    """The first of ``nodes`` containing ``vector`` (``Trixel`` descent order)."""
    for node in nodes:
        if node.contains(vector):
            return node
    # Numerical corner case (point exactly on shared vertices/edges):
    # fall back to the node whose centroid is closest.
    return min(nodes, key=lambda node: angular_distance(centroid(node.corners), vector))


def lookup_vector(vector: Sequence[float], depth: int = DEFAULT_DEPTH) -> int:
    """The HTM id of the depth-``depth`` trixel containing ``vector``."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    current = _node_containing(ROOT_NODES, vector)
    for _level in range(depth):
        current = _node_containing(current.children(), vector)
    return current.htm_id


def lookup_id(ra: float, dec: float, depth: int = DEFAULT_DEPTH) -> int:
    """The HTM id of the trixel containing (ra, dec), both in degrees."""
    return lookup_vector(radec_to_unit(ra, dec), depth)


def id_range_at_depth(htm_id: int, depth: int) -> tuple[int, int]:
    """The inclusive range of depth-``depth`` ids descending from ``htm_id``.

    This is the property that makes a B-tree on HTM ids a spatial index:
    "all the HTM IDs within the triangle 6,1,2,2 have HTM IDs that are
    between 6,1,2,2 and 6,1,2,3" (paper §9.1.4).
    """
    level = htm_level(htm_id)
    if depth < level:
        raise ValueError(f"target depth {depth} is shallower than id level {level}")
    shift = 2 * (depth - level)
    low = htm_id << shift
    high = ((htm_id + 1) << shift) - 1
    return low, high


def parent_id(htm_id: int, levels: int = 1) -> int:
    """The ancestor id ``levels`` levels above ``htm_id``."""
    level = htm_level(htm_id)
    if levels > level:
        raise ValueError(f"id {htm_id} has only {level} levels above the root")
    return htm_id >> (2 * levels)


def trixel(htm_id: int) -> Trixel:
    """The trixel geometry for an id (corner vectors, level, name)."""
    return trixel_from_id(htm_id)


def triangle_side_arcsec(depth: int) -> float:
    """Approximate side length (arcseconds) of a depth-``depth`` trixel.

    Level 0 sides are 90 degrees; each level halves the side, so 20-deep
    triangles are well under the paper's quoted 0.1 arcsecond... at
    depth 20 the side is 90 * 3600 / 2**20 ≈ 0.31", the same order of
    magnitude as the paper's figure.
    """
    return 90.0 * 3600.0 / (2 ** depth)
