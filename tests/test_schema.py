"""Tests for the SkyServer schema: tables, flags, views, indices."""

import pytest

from repro.engine.errors import SchemaError
from repro.schema import (IndexDefinition, MAX_KEY_COLUMNS, PhotoFlags, PhotoStatus,
                          PhotoType, SpecClass, create_indices, create_skyserver_database,
                          drop_indices, fphoto_flags, fphoto_type, fphoto_type_name,
                          fspec_class, standard_indices, standard_views,
                          table_load_order)
from repro.schema.photo import (PROFILE_BINS, pack_profile, profile_value,
                                unpack_profile)


class TestSchemaBuild:
    @pytest.fixture(scope="class")
    def schema(self):
        return create_skyserver_database()

    def test_all_fourteen_tables_exist(self, schema):
        assert len(schema.table_names()) == 14
        for name in table_load_order():
            assert schema.has_table(name)

    def test_photoobj_has_all_magnitude_kinds(self, schema):
        photo = schema.table("PhotoObj")
        for kind in ("psfMag", "fiberMag", "petroMag", "modelMag", "expMag", "deVMag"):
            for band in "ugriz":
                assert photo.has_column(f"{kind}_{band}")
                assert photo.has_column(f"{kind}Err_{band}")

    def test_photoobj_spatial_columns(self, schema):
        photo = schema.table("PhotoObj")
        for column in ("ra", "dec", "cx", "cy", "cz", "htmID"):
            assert photo.has_column(column)

    def test_every_table_has_insert_timestamp(self, schema):
        for name in table_load_order():
            assert schema.table(name).has_column("insertTime"), name

    def test_foreign_keys_form_the_snowflakes(self, schema):
        photo_fk = schema.table("PhotoObj").foreign_keys
        assert any(fk.referenced_table == "Field" for fk in photo_fk)
        spec_fk = schema.table("SpecObj").foreign_keys
        assert {fk.referenced_table for fk in spec_fk} == {"Plate", "PhotoObj"}
        line_fk = schema.table("SpecLine").foreign_keys
        assert line_fk[0].referenced_table == "SpecObj"

    def test_views_created(self, schema):
        for view_name in ("PhotoPrimary", "Star", "Galaxy", "SpecQSO"):
            assert schema.has_view(view_name)

    def test_view_chain_resolves_to_photoobj(self, schema):
        resolved = schema.resolve_relation("Galaxy")
        assert resolved.table_name == "PhotoObj"
        assert resolved.predicate is not None
        assert resolved.view_chain == ["Galaxy", "PhotoPrimary"]

    def test_standard_indices_created(self, schema):
        photo_indexes = {name.lower() for name in schema.table("PhotoObj").indexes}
        assert "ix_photoobj_htm" in photo_indexes
        assert "ix_photoobj_field" in photo_indexes

    def test_flag_functions_registered(self, schema):
        context = schema.evaluation_context()
        assert context.call("fPhotoFlags", ["saturated"]) == int(PhotoFlags.SATURATED)
        assert context.call("fPhotoType", ["galaxy"]) == int(PhotoType.GALAXY)
        assert context.call("fPhotoStatus", ["primary"]) == int(PhotoStatus.PRIMARY)
        assert context.call("fSpecClassN", [3]) == "qso"
        assert context.call("fPhotoFlagsN", [int(PhotoFlags.SATURATED)
                                             | int(PhotoFlags.PRIMARY)]) == "PRIMARY+SATURATED"
        assert context.call("fPhotoFlagsN", [0]) == "none"

    def test_table_load_order_respects_foreign_keys(self, schema):
        order = table_load_order()
        for name in order:
            table = schema.table(name)
            for foreign_key in table.foreign_keys:
                assert order.index(foreign_key.referenced_table) < order.index(name)

    def test_size_report_covers_all_tables(self, schema):
        report = schema.size_report()
        assert {entry["table"] for entry in report} >= set(table_load_order())


class TestFlags:
    def test_flag_lookup_aliases(self):
        assert fphoto_flags("OK run") == int(PhotoFlags.OK_RUN)
        assert fphoto_flags("saturated") == int(PhotoFlags.SATURATED)

    def test_type_lookup_and_reverse(self):
        assert fphoto_type("STAR") == 6
        assert fphoto_type_name(3) == "galaxy"

    def test_spec_class_aliases(self):
        assert fspec_class("quasar") == int(SpecClass.QSO)

    def test_unknown_flag_raises(self):
        with pytest.raises(KeyError):
            fphoto_flags("nonsense")

    def test_flags_are_distinct_bits(self):
        values = [int(flag) for flag in PhotoFlags]
        assert len(set(values)) == len(values)
        for value in values:
            assert value & (value - 1) == 0      # powers of two


class TestViews:
    def test_standard_views_reference_known_bases(self):
        names = {view.name for view in standard_views()}
        assert {"PhotoPrimary", "Star", "Galaxy", "SpecQSO"} <= names
        for view in standard_views():
            assert view.base in names | {"PhotoObj", "SpecObj"}

    def test_star_galaxy_disjoint(self, skyserver):
        stars = skyserver.query("select count(*) as n from Star").scalar()
        galaxies = skyserver.query("select count(*) as n from Galaxy").scalar()
        primaries = skyserver.query("select count(*) as n from PhotoPrimary").scalar()
        assert stars + galaxies <= primaries

    def test_primary_view_excludes_secondaries(self, skyserver):
        secondary_bit = int(PhotoFlags.SECONDARY)
        leaked = skyserver.query(
            f"select count(*) as n from PhotoPrimary where (flags & {secondary_bit}) > 0").scalar()
        assert leaked == 0


class TestIndices:
    def test_index_definitions_respect_key_limit(self):
        for definition in standard_indices():
            assert len(definition.key_columns) <= MAX_KEY_COLUMNS

    def test_over_wide_key_rejected(self):
        with pytest.raises(SchemaError):
            IndexDefinition("PhotoObj", "ix_too_wide", [f"c{i}" for i in range(17)])

    def test_create_indices_idempotent(self):
        database = create_skyserver_database(with_indices=False)
        first = create_indices(database)
        second = create_indices(database)
        assert first > 0 and second == 0

    def test_drop_indices_keeps_primary_key(self):
        database = create_skyserver_database()
        dropped = drop_indices(database, "PhotoObj")
        assert dropped > 0
        remaining = list(database.table("PhotoObj").indexes)
        assert remaining == ["pk_PhotoObj"]

    def test_neo_covering_index_covers_query_columns(self):
        database = create_skyserver_database()
        index = database.table("PhotoObj").indexes["ix_photoobj_field"]
        needed = ["run", "camcol", "field", "objID", "parentID", "q_r", "u_r",
                  "fiberMag_r", "fiberMag_g", "isoA_r", "isoB_r", "cx", "cy", "cz"]
        assert index.covers(needed)


class TestProfileBlobs:
    def test_pack_unpack_roundtrip(self):
        values = [float(i) * 0.5 for i in range(PROFILE_BINS * 5)]
        blob = pack_profile(values)
        assert unpack_profile(blob) == pytest.approx(values)

    def test_profile_value_extraction(self):
        values = [float(i) for i in range(PROFILE_BINS * 5)]
        blob = pack_profile(values)
        assert profile_value(blob, 0, 0) == 0.0
        assert profile_value(blob, 2, 3) == float(2 * PROFILE_BINS + 3)

    def test_profile_value_out_of_range(self):
        blob = pack_profile([1.0] * PROFILE_BINS)
        with pytest.raises(IndexError):
            profile_value(blob, 4, PROFILE_BINS - 1)
