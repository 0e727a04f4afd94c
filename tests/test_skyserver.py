"""Integration tests for the SkyServer service layer on the loaded survey."""

import pytest

from repro.engine import QueryLimitExceeded
from repro.htm import arcmin_between
from repro.schema.flags import PhotoFlags, PhotoType
from repro.skyserver import (DATA_MINING_QUERIES, QueryAnalyzer, QueryLimits,
                             SkyServer, extract_personal_skyserver, hubble_diagram,
                             old_time_astronomy_targets, project_catalog,
                             query_by_id, render_csv, render_fits_table,
                             render_grid, render_xml, url_for_object)


class TestSpatialFunctions:
    def test_cone_search_respects_radius(self, skyserver):
        rows = skyserver.cone_search(185.0, -0.5, 1.0)
        assert rows
        for row in rows:
            assert row["distance"] <= 1.0
            assert arcmin_between(185.0, -0.5, row["ra"], row["dec"]) <= 1.0 + 1e-9

    def test_cone_search_matches_brute_force(self, skyserver, loaded_database):
        rows = skyserver.cone_search(185.0, -0.5, 1.5)
        expected = 0
        for _rid, row in loaded_database.table("PhotoObj").iter_rows():
            if arcmin_between(185.0, -0.5, row["ra"], row["dec"]) <= 1.5:
                expected += 1
        assert len(rows) == expected

    def test_cone_answers_equal_at_every_cover_depth(self, loaded_database):
        """The cone search's cover is a superset at any depth and the
        exact distance filter decides: depths 9 to 13 (13 is
        ``depth_for_radius(1.0)``) give one answer, the brute-force one."""
        from repro.htm import cover_circle
        from repro.skyserver.spatial import (_candidate_rows, get_nearby_objects,
                                             nearby_from_candidates)

        def nearby_at(ra, dec, radius, depth):
            ranges = cover_circle(ra, dec, radius, cover_depth=depth)
            return nearby_from_candidates(_candidate_rows(loaded_database, ranges),
                                          ra, dec, radius)

        photo = list(loaded_database.table("PhotoObj").iter_rows(["ra", "dec", "objid"]))
        centres = [(185.0, -0.5, 1.0), (185.02, -0.03, 1.0), (184.9, -0.61, 2.5),
                   (photo[0][1]["ra"], photo[0][1]["dec"], 0.3)]
        for ra, dec, radius in centres:
            expected = sorted(row["objid"] for _rid, row in photo
                              if arcmin_between(ra, dec, row["ra"], row["dec"]) <= radius)
            answers = {depth: nearby_at(ra, dec, radius, depth)
                       for depth in range(9, 14)}
            assert sorted(row["objID"] for row in answers[13]) == expected
            for depth, rows in answers.items():
                assert repr(rows) == repr(answers[13]), (ra, dec, radius, depth)
            assert repr(get_nearby_objects(loaded_database, ra, dec, radius)) == repr(
                answers[13])

    def test_cone_search_sorted_by_distance(self, skyserver):
        rows = skyserver.cone_search(185.0, -0.5, 2.0)
        distances = [row["distance"] for row in rows]
        assert distances == sorted(distances)

    def test_nearest_object(self, skyserver):
        rows = skyserver.cone_search(185.0, -0.5, 1.0)
        nearest = skyserver.query(
            "select objID from fGetNearestObjEq(185, -0.5, 1)").rows
        assert nearest[0]["objID"] == rows[0]["objID"]

    def test_rectangle_search(self, skyserver):
        rows = skyserver.rectangle_search(184.95, -0.55, 185.05, -0.45)
        assert rows
        for row in rows:
            assert 184.95 <= row["ra"] <= 185.05
            assert -0.55 <= row["dec"] <= -0.45

    def test_htm_cover_function_through_sql(self, skyserver):
        result = skyserver.query("select * from spHTM_Cover(185, -0.5, 1)")
        assert result.rows
        assert all(row["htmIDstart"] <= row["htmIDend"] for row in result.rows)

    def test_htm_and_url_scalar_functions_through_sql(self, skyserver):
        row = skyserver.query(
            "select top 1 objID, htmID, specObjID, "
            "dbo.fHTM_Lookup(ra, dec) as htm, "
            "dbo.fGetUrlSpecImg(specObjID) as spec, "
            "dbo.fGetUrlFrameImg(objID, 2) as frame "
            "from PhotoObj where specObjID > 0 order by objID").rows[0]
        assert row["htm"] == row["htmID"]
        assert row["spec"].endswith(f"specById.asp?id={row['specObjID']}")
        assert "frameByRCFZ.asp?run=" in row["frame"]
        assert row["frame"].endswith("&zoom=2")


class TestDataMiningQueries:
    def test_query1_returns_unsaturated_galaxies_near_the_spot(self, skyserver):
        execution = skyserver.run_data_mining_query("Q1")
        assert 5 <= execution.row_count <= 60
        saturated = int(PhotoFlags.SATURATED)
        for row in execution.result.rows:
            detail = skyserver.explore_object(row["objID"])
            assert detail["photo"]["flags"] & saturated == 0
            assert detail["photo"]["type"] == int(PhotoType.GALAXY)

    def test_query1_plan_shape_matches_figure10(self, skyserver):
        execution = skyserver.run_data_mining_query("Q1")
        plan = execution.plan_text()
        assert "Table-valued Function" in plan
        assert "Nested Loop" in plan
        assert "Sort" in plan
        assert "Table Insert" in plan

    def test_query15a_finds_planted_asteroids(self, skyserver):
        execution = skyserver.run_data_mining_query("Q15A")
        assert execution.row_count > 0
        for row in execution.result.rows:
            assert 50.0 <= row["velocity"] ** 2 <= 1000.0 + 1e-6
            assert row["Url"].startswith("http")

    def test_query15a_plan_is_a_table_scan(self, skyserver):
        plan = skyserver.run_data_mining_query("Q15A").plan_text()
        assert "Table Scan" in plan

    def test_query15b_finds_planted_neo_pairs(self, skyserver):
        execution = skyserver.run_data_mining_query("Q15B")
        assert 1 <= execution.row_count <= 12
        for row in execution.result.rows:
            assert row["rId"] != row["gId"]

    def test_query15b_uses_indexes(self, skyserver):
        plan = skyserver.run_data_mining_query("Q15B").plan_text()
        assert "Index" in plan

    def test_all_twenty_queries_run(self, skyserver):
        executions = skyserver.run_all_data_mining_queries()
        assert len(executions) == len(DATA_MINING_QUERIES)
        by_id = {execution.query_id: execution for execution in executions}
        # Every query returns a result object; most return rows on the synthetic sky.
        non_empty = [qid for qid, execution in by_id.items() if execution.row_count > 0]
        assert len(non_empty) >= 16
        assert by_id["Q16"].row_count == 12       # one row per field

    def test_additional_simple_queries_run(self, skyserver):
        executions = skyserver.run_all_data_mining_queries(
            ["SX1", "SX2", "SX3", "SX4", "SX5"])
        assert all(execution.row_count >= 1 for execution in executions)

    def test_cpu_seconds_count_only_the_query_thread(self, skyserver, busy_neighbour,
                                                     monkeypatch):
        """A suite query running while another thread burns CPU is
        charged its own thread's CPU only."""
        run_query = skyserver.query

        def waiting_query(sql):
            busy_neighbour()
            return run_query(sql)

        monkeypatch.setattr(skyserver, "query", waiting_query)
        execution = skyserver.run_data_mining_query("SX1")
        assert execution.row_count >= 1
        assert execution.cpu_seconds < 0.2

    def test_query_lookup_by_id(self):
        assert query_by_id("q15b").verbatim
        with pytest.raises(KeyError):
            query_by_id("Q99")


class TestLimitsAndFormats:
    def test_public_row_limit_enforced(self, loaded_database):
        public = SkyServer(loaded_database, limits=QueryLimits.public())
        with pytest.raises(QueryLimitExceeded):
            public.query("select objID from PhotoObj")

    def test_public_limit_allows_small_queries(self, loaded_database):
        public = SkyServer(loaded_database, limits=QueryLimits.public())
        result = public.query("select top 10 objID from PhotoObj")
        assert len(result.rows) == 10

    def test_grid_format(self, skyserver):
        result = skyserver.query("select top 3 objID, ra, dec from PhotoObj")
        grid = render_grid(result)
        assert "objID" in grid and "(3 row(s) affected)" in grid

    def test_csv_format_roundtrip(self, skyserver):
        import csv
        import io

        result = skyserver.query("select top 5 objID, ra from PhotoObj")
        text = render_csv(result)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["objID", "ra"]
        assert len(parsed) == 6

    def test_xml_format_well_formed(self, skyserver):
        import xml.etree.ElementTree as ET

        result = skyserver.query("select top 4 objID, type from PhotoObj")
        root = ET.fromstring(render_xml(result))
        assert len(root.findall("Row")) == 4

    def test_fits_format_block_structure(self, skyserver):
        result = skyserver.query("select top 3 objID, ra from PhotoObj")
        payload = render_fits_table(result)
        assert len(payload) % 2880 == 0
        assert payload[:6] == b"SIMPLE"

    def test_submit_renders_choice(self, skyserver):
        csv_text = skyserver.submit("select top 2 objID from PhotoObj", "csv")
        assert isinstance(csv_text, str) and csv_text.startswith("objID")


class TestExplorerAndTool:
    def test_explore_object_links_everything(self, skyserver, loaded_database):
        spec = next(iter(loaded_database.table("SpecObj")))
        detail = skyserver.explore_object(spec["objid"])
        assert detail["photo"]["objid"] == spec["objid"]
        assert detail["spectrum"] is not None
        assert detail["spectral_lines"]
        assert detail["explorer_url"] == url_for_object(spec["objid"])

    def test_explore_unknown_object_raises(self, skyserver):
        with pytest.raises(KeyError):
            skyserver.explore_object(999999999999)

    def test_famous_places_are_bright_and_extended(self, skyserver):
        places = skyserver.famous_places(5)
        assert len(places) == 5
        assert all(place["petroRad_r"] > 2 for place in places)

    def test_query_analyzer_statistics_and_browser(self, skyserver):
        analyzer = QueryAnalyzer(skyserver, user="student")
        output = analyzer.execute("select top 5 objID from PhotoObj", "grid")
        assert output.statistics.row_count == 5
        assert "student" in output.statistics.describe()
        assert "PhotoObj" in analyzer.tables()
        assert "Galaxy" in analyzer.views()
        tooltip = analyzer.tooltip("PhotoObj", "htmID")
        assert "HTM" in tooltip or "Mesh" in tooltip
        constraints = analyzer.constraints("SpecObj")
        assert constraints["primary_key"] == ["specobjid"]
        assert any(fk["references"] == "Plate" for fk in constraints["foreign_keys"])
        assert analyzer.dependencies("Galaxy")[-1] == "PhotoObj"
        columns = {column["name"]: column for column in analyzer.columns("PhotoObj")}
        assert columns["htmID"]["type"] == "bigint"
        indexes = {index["name"].lower(): index for index in analyzer.indexes("PhotoObj")}
        assert indexes["ix_photoobj_htm"]["columns"] == ["htmid"]
        functions = analyzer.functions()
        assert "fGetNearbyObjEq" in {entry["name"] for entry in functions["table_valued"]}
        assert "fPhotoFlags" in {entry["name"] for entry in functions["scalar"]}
        nearby = next(entry for entry in functions["table_valued"]
                      if entry["name"] == "fGetNearbyObjEq")
        assert "distance" in nearby["columns"]
        assert "Index Seek" in analyzer.explain(
            "select objID from PhotoObj where objID = 1")

    def test_site_statistics(self, skyserver):
        stats = skyserver.site_statistics()
        assert stats["total_bytes"] > 0
        assert any(entry["table"] == "PhotoObj" for entry in stats["tables"])


class TestPersonalAndEducation:
    def test_personal_extract_is_consistent_subset(self, loaded_database):
        personal, summary = extract_personal_skyserver(
            loaded_database, center_ra=185.0, center_dec=-0.5, size_degrees=0.2)
        assert 0 < summary.row_counts["PhotoObj"] < summary.source_row_counts["PhotoObj"]
        # Referential integrity holds inside the subset.
        reports = personal.validate(["PhotoObj", "SpecObj", "Neighbors", "Profile"])
        assert all(report.ok for report in reports)
        # The extract answers the same cone search as the full server.
        subset_server = SkyServer(personal)
        rows = subset_server.cone_search(185.0, -0.5, 1.0)
        assert rows

    def test_personal_subset_fraction(self, loaded_database):
        _personal, summary = extract_personal_skyserver(
            loaded_database, center_ra=185.0, center_dec=-0.5, size_degrees=0.1)
        assert summary.subset_fraction("PhotoObj") < 0.35

    def test_hubble_diagram_shows_expansion(self, skyserver):
        diagram = hubble_diagram(skyserver, count=9)
        assert len(diagram.points) >= 5
        assert diagram.is_expanding()
        assert all(point.velocity_km_s >= 0 for point in diagram.points)

    def test_old_time_astronomy_targets(self, skyserver):
        targets = old_time_astronomy_targets(skyserver, count=4)
        assert len(targets) == 4
        assert all(target.explorer_url.startswith("http") for target in targets)

    def test_project_catalog_levels(self):
        catalog = project_catalog()
        levels = {entry.level for entry in catalog}
        assert "For Kids" in levels and "Challenges" in levels
