"""Property-based tests for the HTM spatial index."""

import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import htm
from repro.htm.mesh import ROOT_NODES
from repro.htm.regions import Markup
from repro.htm.vectors import angular_distance, centroid


ras = st.floats(min_value=0.0, max_value=359.999, allow_nan=False)
decs = st.floats(min_value=-89.5, max_value=89.5, allow_nan=False)


@given(ras, decs, st.integers(min_value=0, max_value=14))
@settings(max_examples=80)
def test_lookup_returns_containing_trixel(ra, dec, depth):
    """The trixel returned by lookup always geometrically contains the point."""
    htm_id = htm.lookup_id(ra, dec, depth)
    assert htm.htm_level(htm_id) == depth
    assert htm.trixel(htm_id).contains(htm.radec_to_unit(ra, dec))


@given(ras, decs)
@settings(max_examples=80)
def test_deep_id_falls_in_shallow_ancestor_range(ra, dec):
    """B-tree property: descendants occupy a contiguous id range of the ancestor."""
    shallow = htm.lookup_id(ra, dec, 6)
    deep = htm.lookup_id(ra, dec, 20)
    low, high = htm.id_range_at_depth(shallow, 20)
    assert low <= deep <= high


@given(ras, decs, st.floats(min_value=0.1, max_value=30.0, allow_nan=False))
@settings(max_examples=80)
def test_cover_never_misses_the_center(ra, dec, radius_arcmin):
    ranges = htm.cover_circle(ra, dec, radius_arcmin)
    assert htm.ranges_contain(ranges, htm.lookup_id(ra, dec))


@given(ras, decs,
       st.floats(min_value=0.2, max_value=10.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False))
@settings(max_examples=80)
def test_cover_contains_every_point_inside_the_circle(ra, dec, radius_arcmin,
                                                      radial_fraction, angle):
    """Superset property: any point inside the circle falls inside the cover."""
    ranges = htm.cover_circle(ra, dec, radius_arcmin)
    offset_deg = radius_arcmin / 60.0 * radial_fraction * 0.98
    point_dec = max(-89.9, min(89.9, dec + offset_deg * math.sin(angle)))
    cos_dec = max(0.05, math.cos(math.radians(dec)))
    point_ra = (ra + offset_deg * math.cos(angle) / cos_dec) % 360.0
    if htm.arcmin_between(ra, dec, point_ra, point_dec) <= radius_arcmin:
        assert htm.ranges_contain(ranges, htm.lookup_id(point_ra, point_dec))


@given(ras, decs, ras, decs)
@settings(max_examples=80)
def test_angular_distance_is_a_metric(ra1, dec1, ra2, dec2):
    forward = htm.angular_distance_radec(ra1, dec1, ra2, dec2)
    backward = htm.angular_distance_radec(ra2, dec2, ra1, dec1)
    assert forward == backward
    assert 0.0 <= forward <= 180.0 + 1e-9
    assert htm.angular_distance_radec(ra1, dec1, ra1, dec1) < 1e-9


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 12),
                          st.integers(min_value=0, max_value=10 ** 6)),
                max_size=30))
@settings(max_examples=80)
def test_merge_ranges_preserves_membership(raw):
    ranges = [htm.HtmRange(low, low + span) for low, span in raw]
    merged = htm.merge_ranges(ranges)
    # Sorted and non-overlapping.
    for first, second in zip(merged, merged[1:]):
        assert first.high + 1 < second.low
    # Every original endpoint is still covered.
    for original in ranges:
        assert htm.ranges_contain(merged, original.low)
        assert htm.ranges_contain(merged, original.high)


# ---------------------------------------------------------------------------
# Oracle: the shared-mesh descent against the plain recursive descent
# ---------------------------------------------------------------------------
#
# ``htm.cover`` and ``htm.lookup_vector`` walk the memoised shared mesh
# (and ``cover_circle`` adds an LRU memo).  The references below are the
# original recursive descents over ``Trixel.children()`` and
# ``Region.classify``.  They are compared on the running interpreter,
# never against stored output, because CPython 3.12+ ``sum()`` rounds
# floats differently from 3.10/3.11: what must hold is "identical to the
# reference on this interpreter".

def reference_cover(region, cover_depth, storage_depth=htm.DEFAULT_DEPTH):
    ranges = []

    def visit(trixel):
        markup = region.classify(trixel)
        if markup is Markup.OUTSIDE:
            return
        if markup is Markup.INSIDE or trixel.level >= cover_depth:
            low, high = htm.id_range_at_depth(trixel.htm_id, storage_depth)
            ranges.append(htm.HtmRange(low, high))
            return
        for child in trixel.children():
            visit(child)

    for root in htm.root_trixels():
        visit(root)
    return htm.merge_ranges(ranges)


def reference_lookup(ra, dec, depth=htm.DEFAULT_DEPTH):
    vector = htm.radec_to_unit(ra, dec)

    def containing(trixels):
        for trixel in trixels:
            if trixel.contains(vector):
                return trixel
        return min(trixels, key=lambda t: angular_distance(centroid(t.corners), vector))

    current = containing(list(htm.root_trixels()))
    for _level in range(depth):
        current = containing(current.children())
    return current.htm_id


#: Octahedron vertices and edges, the RA 0/360 seam, the poles, signed zero.
special_ras = st.sampled_from([0.0, -0.0, 90.0, 180.0, 270.0, 360.0, 359.9999999, 1e-9, 45.0])
special_decs = st.sampled_from([0.0, -0.0, 90.0, -90.0, 89.9999, -89.9999, 35.26438968, 1e-9])
oracle_ras = st.one_of(special_ras, st.floats(min_value=0.0, max_value=360.0, allow_nan=False))
oracle_decs = st.one_of(special_decs, st.floats(min_value=-90.0, max_value=90.0, allow_nan=False))
#: 0.05 arcminutes to 10 degrees, log-uniform.
radii_arcmin = st.floats(min_value=math.log10(0.05), max_value=math.log10(600.0)).map(
    lambda exponent: 10.0 ** exponent)
oracle = settings(max_examples=60, deadline=None)


def region_degrees(depth, factor):
    """A region size of ``factor`` trixel sides at ``depth``, so a deep
    cover stays a few hundred classifications; at most 30 degrees, so
    shallow polygons never wrap onto themselves."""
    return min(30.0, factor * 90.0 / 2 ** depth)


@oracle
@given(oracle_ras, oracle_decs, radii_arcmin, st.data())
def test_circle_cover_matches_reference(ra, dec, radius_arcmin, data):
    depth = data.draw(st.integers(min_value=0, max_value=htm.depth_for_radius(radius_arcmin)))
    expected = reference_cover(htm.Circle(ra, dec, radius_arcmin), depth)
    assert htm.cover_circle(ra, dec, radius_arcmin, cover_depth=depth) == expected
    # The second call is a memo hit and must give the same answer.
    assert htm.cover_circle(ra, dec, radius_arcmin, cover_depth=depth) == expected
    default = htm.depth_for_radius(radius_arcmin)
    assert htm.cover_circle(ra, dec, radius_arcmin) == reference_cover(
        htm.Circle(ra, dec, radius_arcmin), default)


@oracle
@given(oracle_ras, oracle_decs, st.integers(min_value=0, max_value=14),
       st.floats(min_value=0.25, max_value=8.0), st.floats(min_value=0.25, max_value=8.0))
def test_rectangle_cover_matches_reference(ra, dec, depth, width, height):
    ra_extent = region_degrees(depth, width)
    dec_extent = region_degrees(depth, height)
    ra_min = ra % 360.0
    ra_max = (ra + ra_extent) % 360.0
    dec_min = max(-90.0, dec - dec_extent / 2)
    dec_max = min(90.0, dec + dec_extent / 2)
    region = htm.RectangleEq(ra_min, ra_max, dec_min, dec_max)
    assert htm.cover(region, cover_depth=depth) == reference_cover(region, depth)


@oracle
@given(oracle_ras, st.floats(min_value=-88.0, max_value=88.0),
       st.integers(min_value=0, max_value=14),
       st.floats(min_value=0.25, max_value=6.0), st.integers(min_value=3, max_value=6))
def test_polygon_cover_matches_reference(ra, dec, depth, size, corners):
    radius = region_degrees(depth, size)
    vertices = tuple(
        (ra + radius * math.cos(2 * math.pi * k / corners) / max(0.05, math.cos(math.radians(dec))),
         max(-89.9, min(89.9, dec + radius * math.sin(2 * math.pi * k / corners))))
        for k in range(corners))
    region = htm.Polygon(vertices)
    assert htm.cover(region, cover_depth=depth) == reference_cover(region, depth)


@oracle
@given(st.lists(st.tuples(oracle_ras, oracle_decs, st.floats(min_value=0.25, max_value=8.0)),
                min_size=1, max_size=3),
       st.integers(min_value=0, max_value=14))
def test_convex_cover_matches_reference(caps, depth):
    halfspaces = tuple(
        htm.Halfspace(htm.radec_to_unit(ra, dec),
                      math.cos(math.radians(region_degrees(depth, size))))
        for ra, dec, size in caps)
    region = htm.Convex(halfspaces)
    assert htm.cover(region, cover_depth=depth) == reference_cover(region, depth)


@settings(max_examples=150, deadline=None)
@given(oracle_ras, oracle_decs)
def test_lookup_matches_reference_descent(ra, dec):
    assert htm.lookup_id(ra, dec, 20) == reference_lookup(ra, dec, 20)


# ---------------------------------------------------------------------------
# The fast circle/halfspace test against the reference, at its boundaries
# ---------------------------------------------------------------------------
#
# ``cover._halfspace_classifier`` decides a node with no corner inside by
# ``dot(center, normal)`` against ``cos(R + r)`` and hands the band
# around the threshold, and ``R + r`` near 180 degrees, to
# ``Region.classify``.  These regions sit where that could go wrong.

BOUNDARY_CENTERS = [(0.0, 90.0), (0.0, -90.0), (0.0, 0.0), (359.9999999, 0.0),
                    (1e-9, -0.0), (180.0, 45.0), (45.0, 35.26438968),
                    (270.0, -89.9999)]


def cover_module():
    """``repro.htm.cover`` the module (``htm.cover`` is the function)."""
    return importlib.import_module("repro.htm.cover")


@pytest.mark.parametrize("ra, dec", BOUNDARY_CENTERS)
@pytest.mark.parametrize("radius_arcmin", [0.05, 600.0])
def test_circle_fast_test_matches_reference_at_poles_and_seam(ra, dec, radius_arcmin):
    default = htm.depth_for_radius(radius_arcmin)
    for depth in sorted({0, 3, default // 2, default}):
        region = htm.Circle(ra, dec, radius_arcmin)
        assert cover_module()._descend(region, depth, htm.DEFAULT_DEPTH) \
            == reference_cover(region, depth), depth


def _cap_radius(level: int) -> float:
    """The bounding-cap radius, in degrees, of one level-``level`` trixel."""
    node = ROOT_NODES[0]
    for _ in range(level):
        node = node.children()[3]
    return node.bounding_cap()[1]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("nudge", [-1e-9, 0.0, 1e-9])
def test_circle_fast_test_matches_reference_near_180_degrees(level, nudge):
    """Radii that put ``R + r`` at 180 degrees for the trixels of one
    level (the cosine of ``R + r`` wraps there), for circles and their
    halfspaces."""
    radius_degrees = 180.0 - _cap_radius(level) + nudge
    for ra, dec in BOUNDARY_CENTERS[:4]:
        circle = htm.Circle(ra, dec, radius_degrees * 60.0)
        for depth in (level, level + 1):
            expected = reference_cover(circle, depth)
            assert cover_module()._descend(circle, depth, htm.DEFAULT_DEPTH) == expected
            assert cover_module()._descend(circle.halfspace, depth,
                                           htm.DEFAULT_DEPTH) == expected
