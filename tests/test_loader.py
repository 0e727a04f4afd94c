"""Tests for the loader: steps, events, undo, validation, image pyramid."""

import datetime as dt
import hashlib
import math
import random
import zlib
from array import array

import pytest

from repro.engine import Database, PrimaryKey, bigint, floating, timestamp
from repro.engine.types import CURRENT_TIMESTAMP
from repro.loader import (LoadStep, LoadEventLog, SkyServerLoader, STATUS_FAILED,
                          STATUS_SUCCESS, STATUS_UNDONE, build_pyramid, decode_tile,
                          nonlinear_rgb, render_field_image, undo_load_event,
                          undo_time_window, validate_database)
from repro.schema import create_skyserver_database


def tiny_database():
    database = Database("loader-test")
    database.create_table("Target", [
        bigint("id"),
        floating("value"),
        timestamp("insertTime", default=CURRENT_TIMESTAMP),
    ], primary_key=PrimaryKey(["id"]))
    return database


class TestLoadSteps:
    def test_successful_step_inserts_all_rows(self):
        database = tiny_database()
        step = LoadStep("Target", rows=[{"id": i, "value": float(i)} for i in range(10)])
        result = step.execute(database)
        assert result.succeeded and result.inserted_rows == 10
        assert database.table("Target").row_count == 10

    def test_duplicate_key_fails_the_step(self):
        database = tiny_database()
        rows = [{"id": 1, "value": 1.0}, {"id": 1, "value": 2.0}]   # duplicate PK
        result = LoadStep("Target", rows=rows).execute(database)
        # Uniqueness of bulk loads is checked at index rebuild time, so the step
        # fails as a whole and the operator UNDOes it (the paper's workflow).
        assert not result.succeeded
        assert "duplicate key" in result.error

    def test_not_null_violation_reports_row_number(self):
        database = tiny_database()
        rows = [{"id": 1, "value": 1.0}, {"id": 2, "value": None}, {"id": 3, "value": 3.0}]
        result = LoadStep("Target", rows=rows).execute(database)
        assert not result.succeeded
        assert result.failed_row_number == 2
        assert result.inserted_rows == 1

    def test_csv_step_with_type_conversion(self, tmp_path):
        from repro.pipeline import write_csv

        database = tiny_database()
        path = tmp_path / "Target.csv"
        write_csv(path, [{"id": "5", "value": "2.5"}], ["id", "value"])
        result = LoadStep.from_csv("Target", path).execute(database)
        assert result.succeeded
        row = next(iter(database.table("Target")))
        assert row["id"] == 5 and row["value"] == 2.5

    def test_file_reference_blob_placement(self, tmp_path):
        from repro.engine import blob

        database = Database("blob-test")
        database.create_table("Img", [bigint("id"), blob("img", nullable=False)],
                              primary_key=PrimaryKey(["id"]))
        image_path = tmp_path / "tile.jpg"
        image_path.write_bytes(b"JFIFxxxx")
        step = LoadStep("Img", rows=[{"id": 1, "img": "file:tile.jpg"}],
                        base_directory=tmp_path)
        result = step.execute(database)
        assert result.succeeded
        assert next(iter(database.table("Img")))["img"] == b"JFIFxxxx"

    def test_missing_csv_raises(self, tmp_path):
        from repro.engine.errors import LoadError

        with pytest.raises(LoadError):
            LoadStep.from_csv("Target", tmp_path / "nope.csv")


class TestEventsAndUndo:
    def test_event_lifecycle(self):
        database = tiny_database()
        log = LoadEventLog(database)
        event_id = log.start("Target", "batch-1", 3)
        assert log.get(event_id).status == "running"
        log.finish(event_id, inserted_rows=3, status=STATUS_SUCCESS)
        event = log.get(event_id)
        assert event.succeeded and event.inserted_rows == 3
        assert event.end_time is not None

    def test_undo_removes_only_the_bad_window(self):
        database = tiny_database()
        table = database.table("Target")
        log = LoadEventLog(database)

        # First (good) load step.
        first_event = log.start("Target", "good", 5)
        for index in range(5):
            table.insert({"id": index, "value": 1.0})
        log.finish(first_event, inserted_rows=5, status=STATUS_SUCCESS)

        # Make sure the second step's window starts strictly later.
        base = dt.datetime.now(tz=dt.timezone.utc) + dt.timedelta(seconds=1)
        database.set_clock(lambda: base)
        second_event = log.start("Target", "bad", 5)
        for index in range(5, 10):
            table.insert({"id": index, "value": 2.0})
        log.finish(second_event, inserted_rows=5, status=STATUS_FAILED, message="boom")

        removed = undo_load_event(database, log, second_event)
        assert removed == 5
        assert table.row_count == 5
        assert all(row["value"] == 1.0 for row in table)
        assert log.get(second_event).status == STATUS_UNDONE

    def test_undo_is_idempotent(self):
        database = tiny_database()
        log = LoadEventLog(database)
        event = log.start("Target", "x", 1)
        database.table("Target").insert({"id": 1, "value": 1.0})
        log.finish(event, inserted_rows=1, status=STATUS_FAILED)
        assert undo_load_event(database, log, event) == 1
        assert undo_load_event(database, log, event) == 0

    def test_undo_time_window_requires_timestamp_column(self):
        from repro.engine.errors import LoadError

        database = Database("no-ts")
        database.create_table("Bare", [bigint("id")], primary_key=PrimaryKey(["id"]))
        with pytest.raises(LoadError):
            undo_time_window(database, "Bare",
                             dt.datetime.now(tz=dt.timezone.utc), None)


class TestValidation:
    def test_validation_passes_on_loaded_database(self, loaded_database):
        report = validate_database(loaded_database)
        assert report.ok, [str(issue) for issue in report.issues[:5]]
        assert report.rows_checked > 0

    def test_validation_catches_bad_coordinates(self):
        database = create_skyserver_database(with_indices=False)
        field = database.table("Field")
        field.insert({
            "fieldID": 1, "run": 1, "rerun": 1, "camcol": 1, "field": 1, "stripe": 10,
            "strip": "N", "mjd": 51000.0, "ra": 185.0, "dec": 0.0, "raMin": 184.9,
            "raMax": 185.1, "decMin": -0.1, "decMax": 0.1, "nObjects": 1, "nStars": 0,
            "nGalaxy": 1, "quality": 3, "seeing": 1.2, "skyBrightness": 21.0,
        }, database=database)
        photo = database.table("PhotoObj")
        row = {column.name: 0 for column in photo.columns if column.name != "insertTime"}
        row.update({"objID": 1, "fieldID": 1, "ra": 400.0, "dec": 0.0,
                    "cx": 1.0, "cy": 0.0, "cz": 0.0, "htmID": 8 << 40,
                    "type": 3, "probPSF": 0.1})
        for band in "ugriz":
            for kind in ("psfMag", "fiberMag", "petroMag", "modelMag", "expMag", "deVMag"):
                row[f"{kind}_{band}"] = 20.0
                row[f"{kind}Err_{band}"] = 0.02
        photo.insert(row, database=database, skip_fk=True)
        report = validate_database(database, expect_primary_fraction=None)
        assert not report.ok
        assert any("ra out of range" in issue.detail for issue in report.issues)


class TestLoaderIntegration:
    def test_full_load_report(self, survey_output):
        database = create_skyserver_database(with_indices=False)
        loader = SkyServerLoader(database)
        report = loader.load_pipeline_output(survey_output, build_neighbors=False)
        assert report.succeeded
        assert report.rows_loaded == sum(survey_output.counts().values())
        assert report.indices_created > 0
        assert report.throughput_mb_per_s() > 0
        events = loader.load_events()
        assert all(event.status == STATUS_SUCCESS for event in events)
        assert {event.table_name for event in events} == set(survey_output.tables)

    def test_failed_step_can_be_undone_and_reloaded(self, survey_output):
        database = create_skyserver_database(with_indices=False)
        loader = SkyServerLoader(database)
        field_rows = [dict(row) for row in survey_output.tables["Field"]]
        # Corrupt one row so the step fails part-way through (duplicate key).
        corrupted = field_rows + [dict(field_rows[0])]
        result, event_id = loader.run_step(LoadStep("Field", rows=corrupted, source="corrupt"))
        assert not result.succeeded
        assert database.table("Field").row_count == result.inserted_rows

        removed = loader.undo(event_id)
        assert removed == result.inserted_rows
        assert database.table("Field").row_count == 0

        # Fix the data (drop the duplicate) and re-execute, as the operator would.
        result2, _event2 = loader.run_step(LoadStep("Field", rows=field_rows, source="fixed"))
        assert result2.succeeded
        assert database.table("Field").row_count == len(field_rows)

    def test_foreign_key_violation_fails_the_step(self, survey_output):
        database = create_skyserver_database(with_indices=False)
        loader = SkyServerLoader(database)
        # Loading PhotoObj before Field violates the fieldID foreign key.
        result, _event = loader.run_step(
            LoadStep("PhotoObj", rows=survey_output.tables["PhotoObj"][:5]))
        assert not result.succeeded
        assert "no match" in result.error


def _image(bands: int, height: int, width: int, value) -> list[list[array]]:
    return [[array("d", [value(band, y, x) for x in range(width)])
             for y in range(height)] for band in range(bands)]


class TestImagePyramid:
    def test_pyramid_levels_and_decode_roundtrip(self):
        objects = [{"ra": 185.0, "dec": -0.5, "modelmag_r": 17.0, "modelmag_g": 17.5,
                    "modelmag_i": 16.8, "modelmag_u": 18.5, "modelmag_z": 16.5,
                    "petrorad_r": 3.0}]
        image = render_field_image(objects, ra_min=184.9, ra_max=185.1,
                                   dec_min=-0.6, dec_max=-0.4, width=64, height=48)
        assert (len(image), len(image[0]), len(image[0][0])) == (5, 48, 64)
        # The object sits at the centre and outshines the sky there.
        assert image[2][24][32] > 10 * image[2][0][0]
        tiles = build_pyramid(image)
        assert len(tiles) == 5                      # zoom 0 + 4 pyramid levels
        assert tiles[1].width == tiles[0].width // 2
        decoded = decode_tile(tiles[0])
        assert (len(decoded), len(decoded[0])) == (48, 64 * 3)
        assert decoded == nonlinear_rgb(image)

    def test_nonlinear_mapping_compresses_dynamic_range(self):
        image = _image(5, 8, 8, lambda _band, _y, _x: 0.0)
        for band in image:
            band[0][0] = 1000.0      # a very bright star
            band[4][4] = 1.0         # a faint galaxy
        rgb = nonlinear_rgb(image)
        assert all(isinstance(row, bytes) and len(row) == 8 * 3 for row in rgb)
        assert max(rgb[0][0:3]) <= 255
        assert max(rgb[4][12:15]) > 0   # faint object still visible
        assert max(rgb[1]) == 0         # empty sky stays black

    def test_pyramid_tiles_shrink(self):
        rng = random.Random(0)
        image = _image(5, 64, 64, lambda _band, _y, _x: rng.random())
        tiles = build_pyramid(image)
        sizes = [tile.encoded_bytes for tile in tiles]
        assert sizes[-1] < sizes[0]

    def test_tiles_match_the_float64_array_reference(self):
        """Header and RGB bytes of every level equal those the earlier
        float64-array implementation produced for this image (hashed
        after inflating, so the zlib build does not matter)."""
        def value(band, y, x):
            level = (math.sin(band * 7.1 + y * 0.37 + x * 0.113) + 1.0) * (
                0.05 + 0.1 * band)
            return level * 400.0 if (x * 7 + y * 3) % 41 == 0 else level

        tiles = build_pyramid(_image(5, 37, 45, value))
        assert [(tile.width, tile.height) for tile in tiles] == [
            (45, 37), (22, 18), (11, 9), (5, 4), (2, 2)]
        digest = hashlib.sha256(b"".join(
            tile.data[:9] + zlib.decompress(tile.data[9:]) for tile in tiles))
        assert digest.hexdigest() == (
            "d69065d69cbc988faf1758721d9974cc4da72bafab626199661980febc2222b8")
