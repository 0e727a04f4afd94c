"""Unit tests for the Hierarchical Triangular Mesh package."""

import math

import pytest

from repro import htm


class TestVectors:
    def test_radec_roundtrip(self):
        for ra, dec in [(0.0, 0.0), (185.0, -0.5), (359.9, 89.0), (42.0, -42.0)]:
            vector = htm.radec_to_unit(ra, dec)
            back_ra, back_dec = htm.unit_to_radec(vector)
            assert back_ra == pytest.approx(ra, abs=1e-9)
            assert back_dec == pytest.approx(dec, abs=1e-9)

    def test_unit_vector_is_normalised(self):
        x, y, z = htm.radec_to_unit(123.4, 56.7)
        assert x * x + y * y + z * z == pytest.approx(1.0)

    def test_angular_distance_quarter_circle(self):
        assert htm.angular_distance((1, 0, 0), (0, 1, 0)) == pytest.approx(90.0)

    def test_angular_distance_small_angles_accurate(self):
        a = htm.radec_to_unit(185.0, -0.5)
        b = htm.radec_to_unit(185.0, -0.5 + 1.0 / 3600.0)   # one arcsecond
        assert htm.angular_distance(a, b) * 3600.0 == pytest.approx(1.0, rel=1e-6)

    def test_arcmin_between(self):
        assert htm.arcmin_between(185.0, 0.0, 185.0, 0.5) == pytest.approx(30.0, rel=1e-9)

    def test_normalize_zero_vector_raises(self):
        with pytest.raises(ValueError):
            htm.normalize((0.0, 0.0, 0.0))


class TestTrixels:
    def test_eight_roots_cover_the_sphere(self):
        total_area = sum(trixel.area_steradians() for trixel in htm.root_trixels())
        assert total_area == pytest.approx(4.0 * math.pi, rel=1e-9)

    def test_children_partition_parent_area(self):
        parent = next(htm.root_trixels())
        child_area = sum(child.area_steradians() for child in parent.children())
        assert child_area == pytest.approx(parent.area_steradians(), rel=1e-9)

    def test_child_ids_extend_parent_id(self):
        parent = next(htm.root_trixels())
        for index, child in enumerate(parent.children()):
            assert child.htm_id == (parent.htm_id << 2) | index
            assert htm.htm_level(child.htm_id) == 1

    def test_name_roundtrip(self):
        htm_id = htm.lookup_id(185.0, -0.5, 8)
        name = htm.htm_id_to_name(htm_id)
        assert htm.htm_name_to_id(name) == htm_id

    def test_invalid_ids_rejected(self):
        with pytest.raises(ValueError):
            htm.htm_level(5)
        with pytest.raises(ValueError):
            htm.htm_level(16)       # odd bit length

    def test_level_encoding(self):
        assert htm.htm_level(8) == 0
        assert htm.htm_level(8 << 2) == 1
        assert htm.htm_level(15 << 40) == 20


class TestLookup:
    def test_lookup_id_contained_in_returned_trixel(self):
        for ra, dec in [(185.0, -0.5), (0.1, 0.1), (270.0, 45.0), (90.0, -60.0)]:
            htm_id = htm.lookup_id(ra, dec, 10)
            trixel = htm.trixel(htm_id)
            assert trixel.contains(htm.radec_to_unit(ra, dec))

    def test_lookup_depth_controls_level(self):
        assert htm.htm_level(htm.lookup_id(10.0, 10.0, 6)) == 6
        assert htm.htm_level(htm.lookup_id(10.0, 10.0, 20)) == 20

    def test_deeper_lookup_is_descendant_of_shallower(self):
        shallow = htm.lookup_id(185.0, -0.5, 8)
        deep = htm.lookup_id(185.0, -0.5, 14)
        assert htm.parent_id(deep, 6) == shallow

    def test_id_range_at_depth_nesting(self):
        htm_id = htm.lookup_id(185.0, -0.5, 8)
        low, high = htm.id_range_at_depth(htm_id, 20)
        deep = htm.lookup_id(185.0, -0.5, 20)
        assert low <= deep <= high

    def test_id_range_shallower_than_id_rejected(self):
        htm_id = htm.lookup_id(185.0, -0.5, 8)
        with pytest.raises(ValueError):
            htm.id_range_at_depth(htm_id, 4)

    def test_triangle_side_shrinks_with_depth(self):
        assert htm.triangle_side_arcsec(20) < 1.0
        assert htm.triangle_side_arcsec(6) > htm.triangle_side_arcsec(10)

    def test_poles_and_equator_resolve(self):
        for ra, dec in [(0, 90), (0, -90), (180, 0), (0, 0)]:
            assert htm.htm_level(htm.lookup_id(ra, dec, 12)) == 12


class TestCovers:
    def test_circle_cover_contains_center(self):
        ranges = htm.cover_circle(185.0, -0.5, 1.0)
        center_id = htm.lookup_id(185.0, -0.5)
        assert htm.ranges_contain(ranges, center_id)

    def test_circle_cover_contains_all_interior_points(self):
        import random

        rng = random.Random(11)
        ranges = htm.cover_circle(185.0, -0.5, 2.0)
        for _ in range(200):
            d_ra = rng.uniform(-2 / 60, 2 / 60)
            d_dec = rng.uniform(-2 / 60, 2 / 60)
            ra, dec = 185.0 + d_ra, -0.5 + d_dec
            if htm.arcmin_between(185.0, -0.5, ra, dec) <= 2.0:
                assert htm.ranges_contain(ranges, htm.lookup_id(ra, dec))

    def test_far_away_points_not_covered(self):
        ranges = htm.cover_circle(185.0, -0.5, 1.0)
        assert not htm.ranges_contain(ranges, htm.lookup_id(10.0, 60.0))

    def test_ranges_are_sorted_and_disjoint(self):
        # Sorted, disjoint and non-adjacent: the spatial functions probe
        # each range once and keep no dedup set.
        covers = [
            htm.cover_circle(185.0, -0.5, 5.0),
            htm.cover(htm.RectangleEq(184.0, 186.0, -1.0, 0.0), cover_depth=8),
            htm.cover(htm.Polygon(((184.5, -1.0), (185.5, -1.0), (185.5, 0.0), (184.5, 0.0))),
                      cover_depth=9),
        ]
        for ranges in covers:
            assert ranges
            for first, second in zip(ranges, ranges[1:]):
                assert first.high + 1 < second.low

    def test_smaller_radius_gives_no_larger_cover(self):
        small = htm.cover_circle(185.0, -0.5, 0.5, cover_depth=10)
        large = htm.cover_circle(185.0, -0.5, 5.0, cover_depth=10)
        area_small = sum(r.high - r.low + 1 for r in small)
        area_large = sum(r.high - r.low + 1 for r in large)
        assert area_small <= area_large

    def test_rectangle_region_contains(self):
        region = htm.RectangleEq(184.0, 186.0, -1.0, 0.0)
        assert region.contains_radec(185.0, -0.5)
        assert not region.contains_radec(190.0, -0.5)

    def test_rectangle_wrap_around_zero_ra(self):
        region = htm.RectangleEq(359.0, 1.0, -1.0, 1.0)
        assert region.contains_radec(0.5, 0.0)
        assert region.contains_radec(359.5, 0.0)
        assert not region.contains_radec(180.0, 0.0)

    def test_rectangle_wrapping_ra_zero_covers_like_one_at_ra_180(self, monkeypatch):
        # The box across ra = 0 is centred there, not on the far side of
        # the sky: its cover costs what the same box at ra = 180 costs.
        import random

        visits = []
        classify = htm.RectangleEq.classify

        def counting(region, trixel):
            visits.append(trixel)
            return classify(region, trixel)

        monkeypatch.setattr(htm.RectangleEq, "classify", counting)

        def measured_cover(region):
            visits.clear()
            _cover_module()._memoised_cover.cache_clear()   # count a real descent
            return htm.cover(region, cover_depth=6), len(visits)

        wrapped, wrapped_visits = measured_cover(htm.RectangleEq(359.9, 0.1, -0.1, 0.1))
        plain, plain_visits = measured_cover(htm.RectangleEq(179.9, 180.1, -0.1, 0.1))
        assert len(wrapped) <= len(plain) + 2
        assert wrapped_visits <= 2 * plain_visits
        rng = random.Random(26)
        for _ in range(300):
            ra = (359.9 + rng.uniform(0.0, 0.2)) % 360.0
            dec = rng.uniform(-0.1, 0.1)
            assert htm.ranges_contain(wrapped, htm.lookup_id(ra, dec))

    def test_rectangle_wider_than_180_degrees_covers_every_point(self):
        import random

        rng = random.Random(180)
        for region in (htm.RectangleEq(100.0, 60.0, -20.0, 20.0),
                       htm.RectangleEq(10.0, 300.0, -5.0, 30.0)):
            ranges = htm.cover(region, cover_depth=3)
            for _ in range(300):
                ra, dec = rng.uniform(0.0, 360.0), rng.uniform(-20.0, 30.0)
                if region.contains_radec(ra, dec):
                    assert htm.ranges_contain(ranges, htm.lookup_id(ra, dec))

    def test_polygon_region(self):
        polygon = htm.Polygon(((184.5, -1.0), (185.5, -1.0), (185.5, 0.0), (184.5, 0.0)))
        assert polygon.contains_radec(185.0, -0.5)
        assert not polygon.contains_radec(183.0, -0.5)

    def test_polygon_cover_contains_interior(self):
        polygon = htm.Polygon(((184.8, -0.7), (185.2, -0.7), (185.2, -0.3), (184.8, -0.3)))
        ranges = htm.cover(polygon, cover_depth=9)
        assert htm.ranges_contain(ranges, htm.lookup_id(185.0, -0.5))

    def test_halfspace_hemisphere(self):
        hemisphere = htm.Halfspace((0.0, 0.0, 1.0), 0.0)
        assert hemisphere.contains(htm.radec_to_unit(10.0, 45.0))
        assert not hemisphere.contains(htm.radec_to_unit(10.0, -45.0))

    def test_merge_ranges(self):
        merged = htm.merge_ranges([htm.HtmRange(10, 20), htm.HtmRange(21, 30),
                                   htm.HtmRange(50, 60), htm.HtmRange(55, 58)])
        assert merged == [htm.HtmRange(10, 30), htm.HtmRange(50, 60)]

    def test_depth_for_radius_monotone(self):
        assert htm.depth_for_radius(0.5) >= htm.depth_for_radius(30.0)


def _cover_module():
    """``repro.htm.cover`` the module (the package attribute is the function)."""
    import importlib

    return importlib.import_module("repro.htm.cover")


class TestSharedMesh:
    """The process-wide mesh and circle memo behind ``cover``/``lookup_id``."""

    POSITIONS = [(185.0 + 0.37 * k, -1.2 + 0.11 * k) for k in range(12)] + [
        (0.0, 90.0), (359.99, 0.0), (90.0, 0.0)]

    def serial_answers(self):
        region = htm.RectangleEq(184.0, 186.0, -1.0, 0.0)
        return ([htm.cover_circle(ra, dec, 1.5) for ra, dec in self.POSITIONS],
                [htm.lookup_id(ra, dec) for ra, dec in self.POSITIONS],
                htm.cover(region, cover_depth=9))

    def test_threads_on_a_cold_mesh_agree_with_serial(self):
        import importlib
        import sys
        import threading

        # ``repro.htm.cover`` the attribute is the function; fetch the module.
        cover_module = importlib.import_module("repro.htm.cover")
        mesh = importlib.import_module("repro.htm.mesh")

        def make_cold():
            for root in mesh.ROOT_NODES:
                root._children = None
            cover_module._memoised_cover.cache_clear()

        make_cold()
        expected = self.serial_answers()
        make_cold()
        results, errors = [], []

        def worker():
            try:
                results.append(self.serial_answers())
            except Exception as error:   # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [expected] * 8

    def test_memoised_covers_equal_fresh_ones(self):
        """One LRU keyed by (region, cover_depth, storage_depth) answers
        rectangles (Q10's fGetObjFromRectEq) and circles alike: an equal
        region's second cover is a memo hit, equal to the descent, and a
        list of its own; a region that does not hash is covered afresh."""
        cover_module = _cover_module()
        memo = cover_module._memoised_cover
        for make, depth in ((lambda: htm.RectangleEq(184.9, 185.1, -0.55, -0.45), 8),
                            (lambda: htm.RectangleEq(359.9, 0.1, -0.1, 0.1), 6),
                            (lambda: htm.Circle(185.0, -0.5, 1.0), 9)):
            fresh = cover_module._descend(make(), depth, htm.DEFAULT_DEPTH)
            first = htm.cover(make(), cover_depth=depth)
            hits = memo.cache_info().hits
            again = htm.cover(make(), cover_depth=depth)
            assert memo.cache_info().hits == hits + 1
            assert first == again == fresh
            assert again is not first
        vertices = [(184.8, -0.7), (185.2, -0.7), (185.2, -0.3), (184.8, -0.3)]
        size = memo.cache_info().currsize
        assert htm.cover(htm.Polygon(vertices), cover_depth=9) == \
            cover_module._descend(htm.Polygon(vertices), 9, htm.DEFAULT_DEPTH)
        assert memo.cache_info().currsize == size

    def test_mutating_a_returned_cover_does_not_reach_the_memo(self):
        first = htm.cover_circle(185.0, -0.5, 1.0)
        expected = list(first)
        first.reverse()
        first.append(htm.HtmRange(0, 0))
        assert htm.cover_circle(185.0, -0.5, 1.0) == expected
        assert htm.cover_circle(185.0, -0.5, 1.0) is not htm.cover_circle(185.0, -0.5, 1.0)

    def test_sphtm_cover_rows_identical_on_a_second_call(self):
        from repro.engine import Database, SqlSession
        from repro.skyserver.spatial import register_spatial_functions

        database = Database("cover-rows")
        register_spatial_functions(database)
        session = SqlSession(database)
        sql = "select htmIDstart, htmIDend from spHTM_Cover(185.0, -0.5, 1.0)"
        first = session.query(sql).rows
        first[0]["htmIDstart"] = -1
        second = session.query(sql).rows
        assert second == [{"htmIDstart": r.low, "htmIDend": r.high}
                          for r in htm.cover_circle(185.0, -0.5, 1.0)]
