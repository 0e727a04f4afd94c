"""HTM covers: turning a region into trixel-id ranges.

``spHTM_Cover(<area>)`` "returns a table containing a row with start
and end of an HTM triangle.  The union of these triangles covers the
specified area.  One can join this table with the PhotoObj table to get
a spatial subset of photo objects" (paper §9.1.4).  The cover here is a
superset cover: every object inside the region is guaranteed to fall in
one of the returned ranges; callers re-check the exact geometric
predicate on the candidate rows (as the SkyServer's higher-level
functions do).

How a cover is computed, once per piece of geometry:

* **Region constants once per region.** A circle's halfspace, a cap's
  angular radius, a polygon's edge halfspaces and a box's bounding cap
  are ``cached_property``s of the frozen region (``regions.py``).
* **Shared upper mesh.** The descent walks ``mesh.ROOT_NODES``, a
  process-wide mesh built lazily and shared by every caller (pool
  workers, cluster fragment threads).  Each node computes its children
  and bounding cap at most once; nodes down to ``mesh.RETAINED_LEVEL``
  (6) keep their children, deeper ones are built per call and dropped,
  so the retained mesh is at most 43,688 nodes (~44 MB whole-sky, a few
  hundred nodes for a survey footprint).
* **A fast test for circles.** A circle's or halfspace's classify
  spends most of its time on the angular distance from a node's cap
  to the region's center, needed only for a node with no corner inside.
  ``_halfspace_classifier`` compares ``dot(center, normal)`` with
  ``cos(R + r)`` instead (``R`` the region's radius, per region; the
  node's ``cos r`` and ``sin r`` from ``MeshNode.cap_terms``, kept on
  retained nodes).  Within ``CLASSIFY_BAND`` of that threshold, where
  the two computations could round to different sides, it calls the
  exact ``Region.classify``; outside it they cannot disagree (the
  float errors are ~1e-16), so the answer is still the reference's.
* **Cover memo.** ``cover`` answers — circles (``cover_circle``),
  rectangles (``fGetObjFromRectEq``), any hashable region — are kept in
  one LRU of ``COVER_MEMO_SIZE`` entries keyed by ``(frozen region,
  cover_depth, storage_depth)``, as immutable tuples (~2 MB at capacity
  for 1' cones); every caller gets a fresh list.  A cover depends only
  on its arguments, never on the data, so the memo cannot serve stale
  rows.  A region that is not a frozen dataclass, or does not hash (a
  polygon over a list of vertices), is covered afresh each call.

Answers are byte-identical to the plain recursive descent over
``Trixel.children()`` and ``Region.classify`` (the oracle in
``tests/test_property_htm.py``): nodes compute every vector with the
same helpers (``midpoint``, ``centroid``, ``angular_distance``) and the
same operations in the same order as ``Trixel``, and the regions
classify exactly as before.  Floating-point sums are never reordered or
inlined — CPython 3.12+ ``sum()`` compensates float rounding where
3.10/3.11 does not — so each interpreter agrees with its own reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .mesh import DEFAULT_DEPTH, ROOT_NODES, MeshNode, id_range_at_depth
from .regions import Circle, Halfspace, Markup, Region
from .vectors import dot

#: Covers remembered, keyed by (region, cover_depth, storage_depth).
COVER_MEMO_SIZE = 1024

#: Half-width of the band around a circle's ``cos(R + r)`` threshold
#: inside which a node is classified exactly (``Region.classify``).
CLASSIFY_BAND = 1.0e-12


@dataclass(frozen=True)
class HtmRange:
    """One inclusive range of storage-depth HTM ids."""

    low: int
    high: int

    def __iter__(self) -> Iterator[int]:
        return iter((self.low, self.high))


def cover(region: Region, *, cover_depth: int = 8,
          storage_depth: int = DEFAULT_DEPTH) -> list[HtmRange]:
    """Compute a superset cover of ``region`` as storage-depth id ranges.

    ``cover_depth`` bounds the descent: trixels still classified PARTIAL
    at that depth are included whole.  Deeper covers are tighter but
    produce more ranges; 8 levels (trixels ≈ 20 arcminutes on a side) is
    a good default for arcminute-scale searches.

    The descent walks the shared mesh (``mesh.MeshNode``) depth-first in
    id order, so ranges come out sorted and disjoint; ``merge_ranges``
    then only joins neighbours.  The result is sorted, disjoint and
    non-adjacent, so each range is one index seek and no id is returned
    twice.  Answers are memoised (see the module notes).
    """
    if cover_depth < 0 or storage_depth < cover_depth:
        raise ValueError("need 0 <= cover_depth <= storage_depth")
    if not _memoisable(region):
        return _descend(region, cover_depth, storage_depth)
    return list(_memoised_cover(region, cover_depth, storage_depth))


def _memoisable(region: Region) -> bool:
    """A frozen dataclass region that hashes: equal ones cover alike."""
    params = getattr(region, "__dataclass_params__", None)
    if params is None or not params.frozen:
        return False
    try:
        hash(region)
    except TypeError:
        return False
    return True


@lru_cache(maxsize=COVER_MEMO_SIZE)
def _memoised_cover(region: Region, cover_depth: int,
                    storage_depth: int) -> tuple[HtmRange, ...]:
    return tuple(_descend(region, cover_depth, storage_depth))


def _descend(region: Region, cover_depth: int, storage_depth: int) -> list[HtmRange]:
    """The cover of ``region``, computed."""
    classify = _classifier(region)
    ranges: list[HtmRange] = []
    pending = list(reversed(ROOT_NODES))
    while pending:
        node = pending.pop()
        markup = classify(node)
        if markup is Markup.OUTSIDE:
            continue
        if markup is Markup.INSIDE or node.level >= cover_depth:
            ranges.append(HtmRange(*id_range_at_depth(node.htm_id, storage_depth)))
        else:
            pending.extend(reversed(node.children()))
    return merge_ranges(ranges)


def _classifier(region: Region) -> Callable[[MeshNode], Markup]:
    """``region.classify``, or its fast form for a circle or halfspace."""
    if type(region) is Circle:
        return _halfspace_classifier(region.halfspace)
    if type(region) is Halfspace:
        return _halfspace_classifier(region)
    return region.classify


def _halfspace_classifier(halfspace: Halfspace) -> Callable[[MeshNode], Markup]:
    """:meth:`Halfspace.classify` over mesh nodes, deciding OUTSIDE
    without the angular distance.

    The reference calls a node with no corner inside OUTSIDE when
    ``angular_distance(center, normal) > R + r`` (degrees, ``r`` the
    node's cap radius), never when ``R + r`` reaches 180.  For ``R + r``
    below 180 that is ``dot(center, normal) < cos(R + r)``; the sides
    of the band around the threshold are decided here, the band itself
    (and ``R + r`` near 180) by the reference.
    """
    normal = halfspace.normal
    n0, n1, n2 = normal
    bound = halfspace.offset - 1.0e-12          # Halfspace.contains' test
    radius = math.radians(halfspace.angular_radius)
    cos_radius, sin_radius = math.cos(radius), math.sin(radius)
    exact = halfspace.classify
    inside, partial, outside = Markup.INSIDE, Markup.PARTIAL, Markup.OUTSIDE

    def classify(node: MeshNode) -> Markup:
        # dot(normal, corner) >= bound, spelled out: the same products
        # summed in the same order.
        corners_inside = 0
        for x, y, z in node.corners:
            corners_inside += n0 * x + n1 * y + n2 * z >= bound
        if corners_inside == 3:
            return inside
        if corners_inside:
            return partial
        center, cos_cap, sin_cap = node.cap_terms()
        if cos_cap <= CLASSIFY_BAND - cos_radius:
            return exact(node)                  # R + r at or near 180
        threshold = cos_radius * cos_cap - sin_radius * sin_cap
        separation = dot(center, normal)
        if separation < threshold - CLASSIFY_BAND:
            return outside
        if separation > threshold + CLASSIFY_BAND:
            return partial
        return exact(node)

    return classify


def cover_circle(ra: float, dec: float, radius_arcmin: float, *,
                 cover_depth: int | None = None,
                 storage_depth: int = DEFAULT_DEPTH) -> list[HtmRange]:
    """Cover of a circular cap; picks a cover depth matched to the radius.

    Answers are memoised as :func:`cover`'s: a cover is a function of
    its arguments alone, never of the data, so a repeated cone search
    skips the geometry but still reads its candidates through the live
    ``htmID`` index.  Each caller gets a fresh list.
    """
    if cover_depth is None:
        cover_depth = depth_for_radius(radius_arcmin)
    return cover(Circle(ra, dec, radius_arcmin), cover_depth=cover_depth,
                 storage_depth=storage_depth)


def depth_for_radius(radius_arcmin: float) -> int:
    """A cover depth whose trixels are comparable in size to the search radius."""
    side_arcmin = 90.0 * 60.0
    depth = 0
    while side_arcmin > max(radius_arcmin, 0.05) and depth < 14:
        side_arcmin /= 2.0
        depth += 1
    return depth


def merge_ranges(ranges: Iterable[HtmRange]) -> list[HtmRange]:
    """Sort and merge overlapping or adjacent id ranges."""
    ordered = sorted(ranges, key=lambda r: (r.low, r.high))
    merged: list[HtmRange] = []
    for current in ordered:
        if merged and current.low <= merged[-1].high + 1:
            previous = merged[-1]
            merged[-1] = HtmRange(previous.low, max(previous.high, current.high))
        else:
            merged.append(current)
    return merged


def ranges_contain(ranges: Sequence[HtmRange], htm_id: int) -> bool:
    """Binary-search membership test of an id against a sorted range list."""
    low, high = 0, len(ranges) - 1
    while low <= high:
        middle = (low + high) // 2
        candidate = ranges[middle]
        if htm_id < candidate.low:
            high = middle - 1
        elif htm_id > candidate.high:
            low = middle + 1
        else:
            return True
    return False
