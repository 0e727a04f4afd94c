"""Durability: segment format round-trips, WAL crash recovery, lifecycle.

Four promises under attack.  The storage codec is lossless — every
engine value (−0.0, NULLs, 2^60 ints, unicode, blobs) decodes back
bit-identical, through the generic tagged codec and through the
schema-driven insert frame, and a column store's checkpoint state
round-trips through it byte-for-byte.  Recovery is a *pure prefix*:
truncate the WAL anywhere — between frames or mid-frame — and the
reopened database is repr-identical to a twin that simply stopped after
the surviving operations, for row and columnar layouts on one node and
on 4 (column-store) shards; a bulk statement is one frame, so it recovers whole or not at
all.  A checkpoint that reuses the bytes of what did not change writes
exactly what a full encode would.  And the server lifecycle
(``create`` → ``close`` → ``open``) plus the online data-release flip
never change query answers.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import random
import shutil
import struct
from array import array

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.engine import (Database, PrimaryKey, SqlSession, bigint, blob,
                          boolean, floating, integer, make_session, text,
                          timestamp)
from repro.engine.durable import (MANIFEST_NAME, DurabilityManager,
                                  RecoveryError, table_snapshot)
from repro.engine.segments import SEGMENT_ROWS
from repro.engine.types import Column, DataType
from repro.storage import (INSERT_FRAME, FormatError, RowCodec,
                           decode_insert_frame, decode_value,
                           encode_insert_frame, encode_value,
                           storage_from_state, storage_state)
from repro.storage.wal import WriteAheadLog, replay_file


# ---------------------------------------------------------------------------
# The binary codec
# ---------------------------------------------------------------------------

AWKWARD_VALUES = [
    None, True, False,
    0, -1, 2 ** 60, -(2 ** 60), 2 ** 63 - 1, -(2 ** 63), 2 ** 100, 10 ** 30,
    0.0, -0.0, 1.5, -1e308, 5e-324, math.inf, -math.inf,
    "", "plain", "ünïcödé ∂éç 🌌", "line\nbreak\ttab", "\x00null byte",
    b"", b"\x00\xff\x7f", bytearray(b"mutable"),
    datetime.datetime(2002, 6, 3, 12, 30, 45),
    array("q", [1, -(2 ** 63), 2 ** 63 - 1]),
    array("d", [0.0, -0.0, math.inf]),
    [1, "two", None, [3.0]], (1, 2, "three"), {"k": [1, 2], "n": None},
]


class TestFormatRoundTrip:
    def test_awkward_values_round_trip_exactly(self):
        for value in AWKWARD_VALUES:
            decoded = decode_value(encode_value(value))
            assert repr(decoded) == repr(value) or (
                isinstance(value, bytearray) and decoded == bytes(value))

    def test_negative_zero_keeps_its_sign_bit(self):
        decoded = decode_value(encode_value(-0.0))
        assert math.copysign(1.0, decoded) == -1.0

    def test_nan_survives(self):
        decoded = decode_value(encode_value(float("nan")))
        assert math.isnan(decoded)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormatError):
            decode_value(encode_value(42) + b"x")

    def test_unknown_tag_rejected(self):
        with pytest.raises(FormatError):
            decode_value(b"\xfe")

    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_storage_state_round_trips(self, layout):
        database = Database("fmt")
        table = database.create_table(
            "obj",
            [bigint("objid"), floating("val", nullable=True),
             text("tag", nullable=True)],
            primary_key=PrimaryKey(["objid"]), storage=layout)
        rng = random.Random(99)
        for i in range(5000):
            table.insert({"objid": i,
                          "val": rng.choice([None, -0.0, rng.random()]),
                          "tag": rng.choice([None, "αβγ", "t" * 40])})
        for row_id in range(0, 5000, 7):
            table.delete_row(row_id)
        state = storage_state(table.storage)
        clone = storage_from_state(decode_value(encode_value(state)),
                                   table.columns)
        assert repr(list(clone.iter_rows())) == repr(list(table.storage.iter_rows()))


# ---------------------------------------------------------------------------
# WAL framing
# ---------------------------------------------------------------------------

class TestWalFraming:
    def test_replay_stops_at_torn_frame(self, tmp_path):
        path = tmp_path / "t.log"
        with WriteAheadLog(path) as wal:
            for i in range(10):
                wal.append(f"record-{i}".encode())
        records = list(replay_file(path))
        assert len(records) == 10
        # Tear inside frame 6: keep frame 5's end plus a few bytes.
        os.truncate(path, records[5].end_offset + 3)
        survived = [r.payload.decode() for r in replay_file(path)]
        assert survived == [f"record-{i}" for i in range(6)]

    def test_missing_file_replays_empty(self, tmp_path):
        assert list(replay_file(tmp_path / "absent.log")) == []

    def test_corrupt_payload_stops_replay(self, tmp_path):
        path = tmp_path / "c.log"
        with WriteAheadLog(path) as wal:
            wal.append(b"good")
            end = wal.append(b"to-corrupt")
        with open(path, "r+b") as handle:
            handle.seek(end - 1)
            handle.write(b"\x00")
        assert [r.payload for r in replay_file(path)] == [b"good"]


# ---------------------------------------------------------------------------
# Insert frames: rows encoded against the table schema
# ---------------------------------------------------------------------------

FRAME_COLUMNS = [bigint("id"), integer("small", nullable=True),
                 floating("val", nullable=True), boolean("flag", nullable=True),
                 text("tag", nullable=True), timestamp("at", nullable=True),
                 blob("raw"), bigint("wide", nullable=True)]

UTC = datetime.timezone.utc
FRAME_ROWS = [
    {"id": 0, "small": 0, "val": -0.0, "flag": False, "tag": "",
     "at": datetime.datetime(2002, 6, 3, 12, 30, 45, 123456), "raw": b"",
     "wide": -(2 ** 63)},
    {"id": 2 ** 63 - 1, "small": -1, "val": float("nan"), "flag": True,
     "tag": "MiXeD Case", "at": datetime.datetime(2003, 1, 1, tzinfo=UTC),
     "raw": b"\x00\xff", "wide": 2 ** 63 - 1},
    {"id": -(2 ** 63), "small": None, "val": None, "flag": None, "tag": None,
     "at": None, "raw": None, "wide": None},
    {"id": 7, "small": 2 ** 40, "val": math.inf, "flag": True,
     "tag": "ünïcödé ∂éç 🌌", "at": datetime.datetime(
         2004, 2, 29, 23, 59, 59, 1,
         tzinfo=datetime.timezone(datetime.timedelta(hours=-7))),
     "raw": bytes(range(256)), "wide": 0},
    {"id": 8, "small": None, "val": 5e-324, "flag": False, "tag": "line\nbreak",
     "at": None, "raw": b"x", "wide": None},
]


def _float_bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


class TestInsertFrames:
    def test_rows_round_trip_repr_exactly(self):
        codec = RowCodec(FRAME_COLUMNS)
        frame = encode_insert_frame(codec, "Frames", FRAME_ROWS, 12)
        assert frame is not None and frame[:1] == INSERT_FRAME
        table, sequence, rows = decode_insert_frame(frame, lambda name: codec)
        assert (table, sequence) == ("Frames", 12)
        assert repr(rows) == repr(FRAME_ROWS)
        for decoded, original in zip(rows, FRAME_ROWS):
            assert list(decoded) == list(original)
            # -0.0's sign and NaN's payload are bits, not just reprs.
            assert ([_float_bits(value) for value in decoded.values()]
                    == [_float_bits(value) for value in original.values()])
            assert ([type(value) for value in decoded.values()]
                    == [type(value) for value in original.values()])

    def test_a_row_decodes_as_the_generic_codec_would(self):
        codec = RowCodec(FRAME_COLUMNS)
        _table, _sequence, rows = decode_insert_frame(
            encode_insert_frame(codec, "t", FRAME_ROWS), lambda name: codec)
        assert repr(rows) == repr(decode_value(encode_value(FRAME_ROWS)))

    def test_null_in_every_column_type(self):
        columns = [Column(f"c_{dtype.value}", dtype, nullable=True)
                   for dtype in DataType]
        codec = RowCodec(columns)
        row = {column.name: None for column in columns}
        _table, sequence, rows = decode_insert_frame(
            encode_insert_frame(codec, "n", [row]), lambda name: codec)
        assert sequence is None and rows == [row]

    @pytest.mark.parametrize("wide", [2 ** 63, -(2 ** 63) - 1, 2 ** 100])
    def test_int_beyond_64_bits_falls_back_to_the_generic_codec(self, wide):
        codec = RowCodec(FRAME_COLUMNS)
        row = dict(FRAME_ROWS[0], wide=wide)
        assert encode_insert_frame(codec, "t", [FRAME_ROWS[1], row]) is None

    def test_value_of_another_type_falls_back(self):
        codec = RowCodec(FRAME_COLUMNS)
        assert encode_insert_frame(
            codec, "t", [dict(FRAME_ROWS[0], val=1)]) is None
        assert encode_insert_frame(
            codec, "t", [dict(FRAME_ROWS[0], small=True)]) is None

    def test_schema_frame_is_smaller_than_the_generic_record(self):
        codec = RowCodec(FRAME_COLUMNS)
        rows = FRAME_ROWS[:2]
        generic = encode_value({"op": "insert", "table": "t", "rows": rows})
        assert len(encode_insert_frame(codec, "t", rows)) * 2 < len(generic)

    def test_torn_or_padded_frame_is_rejected(self):
        codec = RowCodec(FRAME_COLUMNS)
        frame = encode_insert_frame(codec, "t", FRAME_ROWS)
        for broken in (frame[:-1], frame[:len(frame) // 2], frame + b"\x00"):
            with pytest.raises(FormatError):
                decode_insert_frame(broken, lambda name: codec)

    def test_int_beyond_64_bits_replays_through_the_generic_codec(self, tmp_path):
        database = Database("wide")
        table = database.create_table("t", FRAME_COLUMNS)
        manager = DurabilityManager.attach(database, tmp_path)
        table.insert_many([FRAME_ROWS[3], dict(FRAME_ROWS[0], wide=2 ** 100)])
        table.insert(FRAME_ROWS[1])
        payloads = [record.payload for record in replay_file(manager.wal.path)]
        assert [payload[:1] for payload in payloads] == [b"M", INSERT_FRAME]
        manager.close()
        recovered = DurabilityManager.open(tmp_path)
        assert (repr(list(recovered.database.table("t").storage.iter_rows()))
                == repr(list(table.storage.iter_rows())))
        recovered.close()


# ---------------------------------------------------------------------------
# Crash recovery: the prefix property
# ---------------------------------------------------------------------------

UNICODE_TAGS = [None, "αβγδ", "🌌🔭", "plain", "mixed ✓ text"]
BIG_INTS = [None, 2 ** 60, -(2 ** 60), 7, 0]


def _generate_ops(seed: int, count: int):
    """A deterministic DML script: every op is exactly one WAL record.

    Deletes target live *row ids* (dense append positions that restart
    after TRUNCATE), so every delete hits and logs exactly one frame.
    """
    rng = random.Random(seed)
    ops, live, next_id, next_row_id = [], [], 0, 0
    for _ in range(count):
        roll = rng.random()
        if live and roll < 0.25:
            ops.append(("delete", live.pop(rng.randrange(len(live)))))
        elif live and roll < 0.28:
            ops.append(("truncate", None))
            live.clear()
            next_row_id = 0
        else:
            row = {"objid": next_id,
                   "val": rng.choice([None, -0.0, 0.0, rng.uniform(-50, 50)]),
                   "tag": rng.choice(UNICODE_TAGS),
                   "big": rng.choice(BIG_INTS)}
            ops.append(("insert", row))
            live.append(next_row_id)
            next_id += 1
            next_row_id += 1
    return ops


def _build_db(layout: str, name: str = "crash") -> Database:
    database = Database(name)
    table = database.create_table(
        "obj",
        [bigint("objid"), floating("val", nullable=True),
         text("tag", nullable=True), bigint("big", nullable=True)],
        primary_key=PrimaryKey(["objid"]), storage=layout)
    table.create_index("ix_obj_big", ["big"])
    return database


def _apply(database: Database, ops) -> None:
    table = database.table("obj")
    for op, arg in ops:
        if op == "insert":
            table.insert(dict(arg))
        elif op == "delete":
            table.delete_row(arg)
        else:
            table.truncate()


def _state(database: Database) -> str:
    table = database.table("obj")
    rows = repr(list(table.storage.iter_rows()))
    index = repr([(key, sorted(table.indexes["ix_obj_big"].seek(key)))
                  for key in [(None,), (2 ** 60,), (-(2 ** 60),), (7,), (0,)]])
    return rows + "|" + index + f"|bytes={table.data_bytes}"


class TestCrashRecovery:
    @given(seed=st.integers(0, 10 ** 6),
           layout=st.sampled_from(["row", "column"]),
           checkpoint_after=st.integers(0, 40),
           tear=st.floats(0.0, 1.0))
    @settings(max_examples=15)
    def test_truncated_wal_recovers_exact_prefix(self, tmp_path_factory, seed,
                                                 layout, checkpoint_after, tear):
        """Random DML, kill at a random WAL offset, reopen: the result
        is repr-identical to a twin that ran only the surviving ops."""
        root = tmp_path_factory.mktemp("wal")
        ops = _generate_ops(seed, 80)
        checkpoint_after = min(checkpoint_after, len(ops))

        database = _build_db(layout)
        manager = DurabilityManager.attach(database, root)
        _apply(database, ops[:checkpoint_after])
        manager.checkpoint()
        _apply(database, ops[checkpoint_after:])
        wal_path = manager.wal.path
        manager.close()

        records = list(replay_file(wal_path))
        assert len(records) == len(ops) - checkpoint_after
        if records:
            survive = int(tear * len(records))
            if survive < len(records):
                # Truncate *inside* the next frame: a torn final record
                # must be discarded, keeping exactly ``survive`` frames.
                end = records[survive - 1].end_offset if survive else 0
                os.truncate(wal_path, end + 5)
            applied = checkpoint_after + survive
        else:
            applied = checkpoint_after

        recovered = DurabilityManager.open(root)
        twin = _build_db(layout, "twin")
        _apply(twin, ops[:applied])
        assert _state(recovered.database) == _state(twin)
        recovered.close()

    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_clean_close_reopens_replay_free(self, tmp_path, layout):
        database = _build_db(layout)
        manager = DurabilityManager.attach(database, tmp_path)
        _apply(database, _generate_ops(5, 120))
        manager.checkpoint()
        manager.close()
        recovered = DurabilityManager.open(tmp_path)
        assert recovered.records_since_checkpoint == 0
        assert _state(recovered.database) == _state(database)
        recovered.close()

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            DurabilityManager.open(tmp_path / "nowhere")


class TestStatementFrames:
    """One DML statement is one WAL frame: a torn frame loses the whole
    statement, an intact one recovers all of it."""

    def _tear_everywhere(self, root, wal_path, rows_if_intact, rows_if_torn):
        with open(wal_path, "rb") as handle:
            data = handle.read()
        assert len(list(replay_file(wal_path))) == 1
        for cut in range(len(data) + 1):
            with open(wal_path, "wb") as handle:
                handle.write(data[:cut])
            recovered = DurabilityManager.open(root)
            count = recovered.database.table("obj").row_count
            recovered.close()
            assert count == (rows_if_intact if cut == len(data)
                             else rows_if_torn), cut

    def test_torn_insert_many_recovers_all_or_nothing(self, tmp_path):
        database = _build_db("column")
        manager = DurabilityManager.attach(database, tmp_path)
        rows = [op[1] for op in _generate_ops(3, 200) if op[0] == "insert"][:50]
        database.table("obj").insert_many(rows)
        wal_path = manager.wal.path
        manager.close()
        self._tear_everywhere(tmp_path, wal_path, 50, 0)

    def test_torn_delete_where_recovers_all_or_nothing(self, tmp_path):
        database = _build_db("column")
        table = database.table("obj")
        table.insert_many({"objid": i, "val": i / 4.0, "tag": None, "big": 7}
                          for i in range(SEGMENT_ROWS + 60))
        manager = DurabilityManager.attach(database, tmp_path)
        # Victims on both sides of the seal: the segment and the tail.
        assert table.delete_where(
            lambda row: row["objid"] % 83 == 0) == (SEGMENT_ROWS + 60) // 83 + 1
        wal_path = manager.wal.path
        manager.close()
        self._tear_everywhere(tmp_path, wal_path, table.row_count,
                              SEGMENT_ROWS + 60)

    def test_bulk_replays_the_row_ids_singles_would(self, tmp_path):
        bulk = _build_db("column")
        manager = DurabilityManager.attach(bulk, tmp_path)
        ops = _generate_ops(8, 60)
        rows = [dict(op[1]) for op in ops if op[0] == "insert"]
        table = bulk.table("obj")
        table.insert_many(rows[:20])
        table.delete_where(lambda row: row["objid"] % 3 == 0)
        table.insert_many(rows[20:])
        manager.close()
        twin = _build_db("column", "twin")
        for row in rows[:20]:
            twin.table("obj").insert(row)
        for row_id, row in list(twin.table("obj").storage.iter_rows()):
            if row["objid"] % 3 == 0:
                twin.table("obj").delete_row(row_id)
        for row in rows[20:]:
            twin.table("obj").insert(row)
        recovered = DurabilityManager.open(tmp_path)
        assert _state(recovered.database) == _state(twin) == _state(bulk)
        recovered.close()

    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_wal_in_the_generic_format_still_replays(self, tmp_path, layout):
        """A log written before inserts and deletes had frames of their
        own: one generic record per row and per deleted row id."""
        ops = _generate_ops(11, 80)
        database = _build_db(layout)
        manager = DurabilityManager.attach(database, tmp_path)
        wal_path = manager.wal.path
        manager.close()
        with WriteAheadLog(wal_path) as wal:
            for op, arg in ops:
                if op == "insert":
                    record = {"row": database.table("obj")._prepare_row(arg)}
                elif op == "delete":
                    record = {"row_id": arg}
                else:
                    record = {}
                record.update(op=op, table="obj")
                wal.append(encode_value(record))
        recovered = DurabilityManager.open(tmp_path)
        twin = _build_db(layout, "twin")
        _apply(twin, ops)
        assert recovered.records_since_checkpoint == len(ops)
        assert _state(recovered.database) == _state(twin)
        recovered.close()


# ---------------------------------------------------------------------------
# Checkpoint reuse: every checkpoint writes what a full encode would
# ---------------------------------------------------------------------------

def _reuse_row(key: int) -> dict:
    return {"objid": key, "val": [None, -0.0, 0.0, key / 7.0][key % 4],
            "tag": UNICODE_TAGS[key % len(UNICODE_TAGS)],
            "big": BIG_INTS[key % len(BIG_INTS)]}


def _side_row(key: int) -> dict:
    return {"id": key, "note": UNICODE_TAGS[key % len(UNICODE_TAGS)]}


def _reuse_db(name: str, offset: int, rows: int) -> Database:
    """A sealed-segment column store plus a small row store, analyzed."""
    database = Database(name)
    obj = database.create_table(
        "obj",
        [bigint("objid"), floating("val", nullable=True),
         text("tag", nullable=True), bigint("big", nullable=True)],
        primary_key=PrimaryKey(["objid"]), storage="column")
    obj.create_index("ix_obj_big", ["big"])
    obj.insert_many(_reuse_row(offset + key) for key in range(rows))
    side = database.create_table("side", [bigint("id"),
                                          text("note", nullable=True)])
    side.insert_many(_side_row(offset + key) for key in range(6))
    database.analyze()
    return database


def _full_encode(table) -> bytes:
    """The table's checkpoint bytes encoded from scratch, with every
    sealed segment's cached encoding set aside (and put back)."""
    segments = (table.storage.segments()
                if table.storage.kind == "column" else ())
    cached = [segment.encoded for segment in segments]
    for segment in segments:
        segment.encoded = None
    try:
        return encode_value(table_snapshot(table))
    finally:
        for segment, body in zip(segments, cached):
            segment.encoded = body


def _assert_checkpoint_is_fresh(manager: DurabilityManager, workdir) -> None:
    """Every data file equals a fresh full encode of the live database,
    and the directory reopens to exactly the live database."""
    database = manager.database
    with open(os.path.join(manager.path, MANIFEST_NAME), encoding="utf-8") as handle:
        manifest = json.load(handle)
    data_dir = os.path.join(manager.path, manifest["data_dir"])
    assert [entry["name"] for entry in manifest["tables"]] == database.table_names()
    for entry in manifest["tables"]:
        with open(os.path.join(data_dir, entry["file"]), "rb") as handle:
            assert handle.read() == _full_encode(
                database.table(entry["name"])), entry["name"]
    with open(os.path.join(data_dir, "statistics.bin"), "rb") as handle:
        assert handle.read() == encode_value(dict(database.statistics))
    copy = os.path.join(workdir, "reopened")
    shutil.copytree(manager.path, copy)
    reopened = DurabilityManager.open(copy)
    try:
        assert reopened.database.table_names() == database.table_names()
        for name in database.table_names():
            assert (_full_encode(reopened.database.table(name))
                    == _full_encode(database.table(name))), name
    finally:
        reopened.close()
        shutil.rmtree(copy)


TABLE_OPS = ["insert", "insert_many", "delete_row", "delete_where", "truncate",
             "vacuum", "convert", "create_index", "drop_index", "analyze"]

reuse_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(TABLE_OPS), st.sampled_from(["obj", "side"]),
              st.integers(0, 10 ** 6)),
    st.tuples(st.sampled_from(["select_into", "flip", "checkpoint"]),
              st.just(""), st.integers(0, 10 ** 6))), max_size=8)


class TestCheckpointReuse:
    """Checkpoints reuse a table's last payload while its observed state
    (storage object, slot count, modification counter, index objects)
    is unchanged, and a sealed segment's cached encoding: whatever path
    changed a table, the files must be byte-identical to a full encode.
    The examples pin one path per reuse-key component."""

    @settings(max_examples=10, deadline=None)
    @given(ops=reuse_ops)
    @example(ops=[("delete_row", "obj", 5), ("checkpoint", "", 0)])
    @example(ops=[("delete_row", "side", 1), ("checkpoint", "", 0),
                  ("vacuum", "side", 0)])
    @example(ops=[("convert", "side", 0)])
    @example(ops=[("create_index", "side", 0)])
    @example(ops=[("insert", "obj", 0), ("analyze", "obj", 0)])
    @example(ops=[("delete_where", "obj", 0), ("checkpoint", "", 0),
                  ("delete_where", "obj", 1)])
    @example(ops=[("flip", "", 1), ("delete_row", "obj", 3)])
    def test_every_checkpoint_equals_a_full_encode(self, tmp_path_factory, ops):
        from repro.skyserver import SkyServer

        root = tmp_path_factory.mktemp("reuse")
        server = SkyServer(_reuse_db("reuse", 0, SEGMENT_ROWS + 40))
        database = server.database
        manager = DurabilityManager.attach(database, root / "db")
        _assert_checkpoint_is_fresh(manager, root)
        next_key = 10 ** 6
        for op, name, arg in ops:
            table = database.table(name) if name else None
            key_column = "objid" if name == "obj" else "id"
            make_row = _reuse_row if name == "obj" else _side_row
            if op == "insert":
                table.insert(make_row(next_key))
                next_key += 1
            elif op == "insert_many":
                count = 1 + arg % 60
                table.insert_many(make_row(next_key + key) for key in range(count))
                next_key += count
            elif op == "delete_row":
                live = [row_id for row_id, _row in table.storage.iter_rows()]
                if live:
                    table.delete_row(live[arg % len(live)])
            elif op == "delete_where":
                modulus = 2 + arg % 9
                table.delete_where(lambda row: row[key_column] % modulus == 0)
            elif op == "truncate":
                table.truncate()
            elif op == "vacuum":
                table.vacuum()
            elif op == "convert":
                table.convert_storage(
                    "row" if table.storage.kind == "column" else "column")
            elif op == "create_index":
                if "ix_extra" not in table.indexes:
                    table.create_index("ix_extra", [list(table.row_keys)[1]])
            elif op == "drop_index":
                if "ix_extra" in table.indexes:
                    table.drop_index("ix_extra")
            elif op == "analyze":
                database.analyze_table(name)
            elif op == "select_into":
                if database.has_table("objcopy"):
                    database.drop_table("objcopy")
                else:
                    server.session.query("select objid, tag into objcopy "
                                         "from obj where objid % 3 = 0")
            elif op == "flip":
                # The release flip's swap (load_release's last step), to
                # a fresh release with or without a sealed segment; it
                # checkpoints itself.
                rows = SEGMENT_ROWS + 10 if arg % 2 else 40
                server._flip_database(_reuse_db("fresh", arg % 1000, rows))
                _assert_checkpoint_is_fresh(manager, root)
            else:
                manager.checkpoint()
                _assert_checkpoint_is_fresh(manager, root)
        manager.checkpoint()
        _assert_checkpoint_is_fresh(manager, root)
        manager.close()

    def test_unchanged_tables_are_written_from_the_same_bytes(self, tmp_path):
        database = _reuse_db("same", 0, SEGMENT_ROWS + 40)
        manager = DurabilityManager.attach(database, tmp_path)
        before = dict(manager._payloads)
        segment = database.table("obj").storage.segments()[0]
        cached = segment.encoded
        assert cached is not None
        database.table("side").insert(_side_row(99))
        manager.checkpoint()
        assert manager._payloads["obj"][1] is before["obj"][1]
        assert manager._payloads["side"][1] is not before["side"][1]
        database.table("obj").insert(_reuse_row(10 ** 6))
        manager.checkpoint()
        # A changed table is encoded again around the segment's bytes.
        assert manager._payloads["obj"][1] is not before["obj"][1]
        assert any(piece is cached for piece in manager._payloads["obj"][1])
        manager.close()

    def test_a_server_that_never_checkpoints_fills_no_segment_cache(self):
        database = _reuse_db("plain", 0, SEGMENT_ROWS + 40)
        assert [segment.encoded
                for segment in database.table("obj").storage.segments()] == [None]


class TestClusterCrashRecovery:
    def _build_cluster(self, shards: int = 4):
        from repro.cluster import ShardCluster

        database = Database("cl")
        obj = database.create_table(
            "Obj", [bigint("objID"), floating("dec"),
                    floating("mag", nullable=True), text("tag", nullable=True)],
            primary_key=PrimaryKey(["objID"]))
        rng = random.Random(20020603)
        obj.insert_many({"objID": i * 7 + 1, "dec": rng.uniform(-30, 30),
                         "mag": rng.choice([None, -0.0, rng.random()]),
                         "tag": rng.choice(UNICODE_TAGS)}
                        for i in range(400))
        database.analyze()
        return ShardCluster.from_database(database, shards=shards, partition="zone",
                                          affinity={"obj": "objid"})

    def _online_dml(self, cluster, seed: int, inserts: int):
        rng = random.Random(seed)
        for i in range(inserts):
            cluster.insert("Obj", {"objID": 10 ** 6 + i,
                                   "dec": rng.uniform(-30, 30),
                                   "mag": rng.choice([None, -0.0, 1.5]),
                                   "tag": rng.choice(UNICODE_TAGS)})
        cluster.delete_where("Obj", lambda row: row["objid"] % 13 == 0)

    def _gathered(self, cluster) -> str:
        rows = sorted((row for _rid, row in cluster.gathered_rows("Obj")),
                      key=lambda row: row["objid"])
        return repr(rows) + repr(cluster._next_sequence)

    def test_crashed_cluster_matches_never_crashed_twin(self, tmp_path):
        cluster = self._build_cluster()
        cluster.make_durable(tmp_path)
        self._online_dml(cluster, seed=31, inserts=60)
        expected = self._gathered(cluster)
        # Crash: release the handles without the closing checkpoint —
        # recovery must replay the post-checkpoint DML from the WALs.
        for manager in [cluster.durability["coordinator"],
                        *cluster.durability["shards"]]:
            manager.close()

        from repro.cluster import ShardCluster

        recovered = ShardCluster.open_durable(tmp_path)
        assert self._gathered(recovered) == expected
        recovered.close_durable()

    def test_vacuum_and_convert_replay_through_the_shard_nodes(self, tmp_path):
        """A shard's WAL logs ``vacuum`` and ``convert`` like any table's;
        recovery replays them through the node (``ShardNode.
        replay_vacuum``/``replay_convert``), which remaps the global
        sequence list the way the live operation did."""
        from unittest import mock

        from repro.cluster import ClusterSession, ShardCluster, ShardNode

        cluster = self._build_cluster(shards=2)
        cluster.make_durable(tmp_path)
        self._online_dml(cluster, seed=41, inserts=30)   # ends in a delete
        for node in cluster.shards:
            assert node.vacuum("Obj") > 0
            # Shards are column stores: convert away and back.
            node.convert_storage("row")
            node.convert_storage("column")
        sql = ("select objID, mag, tag from Obj where dec > 0 "
               "order by mag, objID")

        def answers(cluster):
            return (self._gathered(cluster),
                    [node.sequence_list("Obj") for node in cluster.shards],
                    [node.table("Obj").storage.kind for node in cluster.shards],
                    repr(ClusterSession(cluster).query(sql).rows))

        expected = answers(cluster)
        for manager in [cluster.durability["coordinator"],
                        *cluster.durability["shards"]]:
            manager.close()         # a crash: no closing checkpoint
        with mock.patch.object(ShardNode, "replay_vacuum", autospec=True,
                               side_effect=ShardNode.replay_vacuum) as vacuum, \
                mock.patch.object(ShardNode, "replay_convert", autospec=True,
                                  side_effect=ShardNode.replay_convert) as convert:
            recovered = ShardCluster.open_durable(tmp_path)
        assert vacuum.call_count == 2 and convert.call_count == 4
        assert answers(recovered) == expected
        recovered.close_durable()

    def test_row_store_shards_reopen_as_column_stores(self, tmp_path):
        """A cluster saved with row-store shards opens with column
        stores, the only layout shard fragments read (``*`` included)."""
        from repro.cluster import ClusterSession, ShardCluster

        cluster = self._build_cluster(shards=2)
        for node in cluster.shards:
            node.convert_storage("row")
        cluster.make_durable(tmp_path)
        expected = self._gathered(cluster)
        cluster.close_durable()
        recovered = ShardCluster.open_durable(tmp_path)
        assert [node.table("Obj").storage.kind
                for node in recovered.shards] == ["column", "column"]
        assert self._gathered(recovered) == expected
        rows = ClusterSession(recovered).query(
            "select * from Obj where dec > 0 order by objID").rows
        assert [row["objid"] for row in rows] == sorted(
            row["objid"] for _sequence, row in recovered.gathered_rows("Obj")
            if row["dec"] > 0)
        recovered.close_durable()

    def test_torn_shard_wal_drops_only_that_shards_tail(self, tmp_path):
        cluster = self._build_cluster()
        cluster.make_durable(tmp_path)
        before = {row["objid"] for _rid, row in cluster.gathered_rows("Obj")}
        rng = random.Random(77)
        for i in range(40):
            cluster.insert("Obj", {"objID": 10 ** 6 + i,
                                   "dec": rng.uniform(-30, 30),
                                   "mag": 1.0, "tag": None})
        shard_managers = cluster.durability["shards"]
        wal_paths = [manager.wal.path for manager in shard_managers]
        cluster.durability["coordinator"].close()
        for manager in shard_managers:
            manager.close()
        # Tear shard 2's WAL in half (frame boundary): its tail is lost,
        # every other shard keeps all its post-checkpoint inserts.
        records = list(replay_file(wal_paths[2]))
        if records:
            os.truncate(wal_paths[2], records[len(records) // 2].end_offset)

        from repro.cluster import ShardCluster

        recovered = ShardCluster.open_durable(tmp_path)
        ids = {row["objid"] for _rid, row in recovered.gathered_rows("Obj")}
        assert before <= ids
        assert len(ids) <= len(before) + 40
        # The recovered sequence counter stays monotonic past every
        # surviving row, so post-recovery inserts cannot collide.
        shard = recovered.insert("Obj", {"objID": 5 * 10 ** 6, "dec": 0.0,
                                         "mag": 1.0, "tag": None})
        assert 0 <= shard < 4
        recovered.close_durable()


# ---------------------------------------------------------------------------
# The server lifecycle and online data releases
# ---------------------------------------------------------------------------

class TestServerLifecycle:
    def test_create_open_flip_round_trip(self, tmp_path):
        """One end-to-end pass: create a durable columnar server, close
        it, reopen it replay-free with identical answers, then flip to
        a second data release online and reopen again serving DR2."""
        from repro.pipeline import SurveyConfig, SyntheticSurvey
        from repro.skyserver import (ServerConfig, SkyServer, StorageConfig)

        root = tmp_path / "db"
        survey = SurveyConfig(scale=0.0003, seed=4, density_per_sq_deg=900.0)
        config = ServerConfig(survey=survey,
                              storage=StorageConfig(columnar=True,
                                                    path=str(root)))
        with SkyServer.create(config) as server:
            assert server.durable
            count_sql = "select count(*) as n from PhotoObj"
            dr1_count = server.query(count_sql).rows[0]["n"]
            dr1_galaxies = repr(server.query(
                "select top 5 objID, modelMag_r from Galaxy "
                "order by objID").rows)
            stats = server.durability_statistics()
            assert stats["on_disk_bytes"] > 0
            assert stats["checkpoints_written"] >= 1
            assert server.site_statistics()["storage"]["durability"] is not None

        reopened = SkyServer.open(root)
        assert reopened.query(count_sql).rows[0]["n"] == dr1_count
        assert repr(reopened.query(
            "select top 5 objID, modelMag_r from Galaxy "
            "order by objID").rows) == dr1_galaxies
        # WAL replay was unnecessary after a clean close.
        assert reopened.durability_statistics()[
            "wal_records_since_checkpoint"] == 0

        dr2 = SyntheticSurvey(SurveyConfig(scale=0.0003, seed=99,
                                           density_per_sq_deg=900.0)).run()
        info = reopened.load_release(dr2)
        assert info["release"] == 2
        assert info["checkpointed"]
        # The flip swapped every table's contents without logging; the
        # checkpoint it ended with, and the next one, are still exact.
        manager = reopened.database.durability
        _assert_checkpoint_is_fresh(manager, tmp_path)
        photo = reopened.database.table("PhotoObj")
        row_id, row = next(photo.storage.iter_rows())
        photo.delete_row(row_id)
        photo.insert(row, database=reopened.database)
        manager.checkpoint()
        _assert_checkpoint_is_fresh(manager, tmp_path)
        dr2_count = reopened.query(count_sql).rows[0]["n"]
        assert dr2_count == len(dr2.tables["PhotoObj"])
        dr2_galaxies = repr(reopened.query(
            "select top 5 objID, modelMag_r from Galaxy "
            "order by objID").rows)
        assert dr2_galaxies != dr1_galaxies
        reopened.close()

        final = SkyServer.open(root)
        assert final.query(count_sql).rows[0]["n"] == dr2_count
        assert repr(final.query(
            "select top 5 objID, modelMag_r from Galaxy "
            "order by objID").rows) == dr2_galaxies
        final.close()

    def test_fsync_server_recovers_byte_identical(self, tmp_path):
        """``StorageConfig(fsync=True)``: every WAL append and every
        checkpoint's directory entries reach stable storage, and a crash
        reopens to the same bytes."""
        from unittest import mock

        from repro.engine import durable
        from repro.pipeline import SurveyConfig
        from repro.skyserver import ServerConfig, SkyServer, StorageConfig

        root = tmp_path / "db"
        with mock.patch.object(durable, "_fsync_directory",
                               wraps=durable._fsync_directory) as directory:
            server = SkyServer.create(ServerConfig(
                survey=SurveyConfig(scale=0.0003, seed=4,
                                    density_per_sq_deg=900.0),
                storage=StorageConfig(columnar=True, path=str(root),
                                      fsync=True)))
            assert directory.call_count >= 2
        manager = server.database.durability
        assert manager.fsync and manager.wal.fsync
        photo = server.database.table("PhotoObj")
        rows = [row for _row_id, row in photo.iter_rows()]
        base = max(row["objid"] for row in rows) + 1
        with mock.patch.object(os, "fsync", wraps=os.fsync) as fsync:
            for offset, row in enumerate(rows[:5]):
                photo.insert(dict(row, objid=base + offset),
                             database=server.database)
            assert fsync.call_count >= 5
        server.checkpoint()
        photo.delete_where(lambda row: row["objid"] == base)
        server.query("select count(*) from PhotoObj where type = 3")

        def state(database):
            return {name: repr(list(database.table(name).storage.iter_rows()))
                    for name in database.table_names()}

        expected = state(server.database)
        manager.close()             # a crash: no closing checkpoint
        reopened = SkyServer.open(root, fsync=True)
        assert reopened.durability_statistics()[
            "wal_records_since_checkpoint"] > 0
        assert state(reopened.database) == expected
        reopened.close()


# ---------------------------------------------------------------------------
# The automatic checkpoint policy
# ---------------------------------------------------------------------------

def _tree(root) -> dict[str, bytes]:
    """Every file under ``root`` with its bytes."""
    files = {}
    for folder, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


class TestCheckpointPolicy:
    """``SkyServer.checkpoint_if_due`` → ``DurabilityManager.
    maybe_checkpoint`` on every manager: nothing while the WAL tail is
    under both limits, a checkpoint once it passes ``record_limit`` or
    grows older than ``age_limit``."""

    RECORD_LIMIT = 6

    @pytest.fixture
    def small_limits(self, monkeypatch):
        from repro.engine import durable

        monkeypatch.setattr(durable, "CHECKPOINT_RECORD_LIMIT", self.RECORD_LIMIT)
        return durable

    def _server(self, root, shards: int = 1):
        from repro.pipeline import SurveyConfig
        from repro.skyserver import (ClusterConfig, ServerConfig, SkyServer,
                                     StorageConfig)

        survey = SurveyConfig(scale=0.0003, seed=4, density_per_sq_deg=900.0)
        return SkyServer.create(ServerConfig(
            survey=survey, cluster=ClusterConfig(shards=shards),
            storage=StorageConfig(columnar=True, path=str(root))))

    def _insert(self, server, count: int, first: int = 0) -> list[int]:
        """``count`` PhotoObj rows, one WAL record each (per shard)."""
        photo = server.survey_output.tables["PhotoObj"]
        base = max(row["objID"] for row in photo) + 1 + first
        ids = [base + offset for offset in range(count)]
        for objid in ids:
            row = dict(photo[0], objID=objid)
            if server.cluster is not None:
                server.cluster.insert("PhotoObj", row)
            else:
                server.database.table("PhotoObj").insert(row, database=server.database)
        return ids

    @staticmethod
    def _answer(server, ids) -> str:
        listed = ", ".join(str(objid) for objid in ids)
        return repr((server.query("select count(*) as n from PhotoObj").rows,
                     server.query(f"select objID, ra, modelMag_r from PhotoObj "
                                  f"where objID in ({listed}) order by objID").rows))

    def test_under_both_limits_nothing_is_written(self, tmp_path, small_limits):
        root = tmp_path / "db"
        server = self._server(root)
        manager = server.database.durability
        assert server.checkpoint_if_due() is False      # nothing pending
        self._insert(server, self.RECORD_LIMIT - 1)
        before = _tree(root)
        checkpoints = manager.checkpoints_written
        assert server.checkpoint_if_due() is False
        assert manager.checkpoints_written == checkpoints
        assert manager.records_since_checkpoint == self.RECORD_LIMIT - 1
        assert _tree(root) == before
        server.close()

    def test_past_the_record_limit_it_checkpoints(self, tmp_path, small_limits):
        root = tmp_path / "db"
        server = self._server(root)
        manager = server.database.durability
        ids = self._insert(server, self.RECORD_LIMIT)
        expected = self._answer(server, ids)
        checkpoints = manager.checkpoints_written
        assert server.checkpoint_if_due() is True
        assert manager.checkpoints_written == checkpoints + 1
        assert manager.records_since_checkpoint == 0
        assert list(replay_file(manager.wal.path)) == []
        manager.close()         # a crash: no closing checkpoint
        from repro.skyserver import SkyServer

        reopened = SkyServer.open(root)
        assert reopened.durability_statistics()["wal_records_since_checkpoint"] == 0
        assert self._answer(reopened, ids) == expected
        reopened.close()

    def test_past_the_age_limit_it_checkpoints(self, tmp_path, monkeypatch):
        from repro.engine import durable

        root = tmp_path / "db"
        server = self._server(root)
        manager = server.database.durability
        self._insert(server, 1)
        now = manager.last_checkpoint_at + durable.CHECKPOINT_AGE_LIMIT
        monkeypatch.setattr(durable.time, "time", lambda: now - 1.0)
        assert server.checkpoint_if_due() is False
        monkeypatch.setattr(durable.time, "time", lambda: now + 1.0)
        assert server.checkpoint_if_due() is True
        assert manager.records_since_checkpoint == 0
        monkeypatch.undo()
        server.close()

    def test_every_shard_manager_follows_the_same_rules(self, tmp_path, small_limits):
        root = tmp_path / "db"
        server = self._server(root, shards=2)
        managers = server._durability_managers()
        assert len(managers) == 3                       # coordinator + 2 shards
        ids = self._insert(server, 2 * self.RECORD_LIMIT)
        pending = [manager.records_since_checkpoint for manager in managers]
        written = [manager.checkpoints_written for manager in managers]
        due = [count >= self.RECORD_LIMIT for count in pending]
        assert any(due) and not all(due), pending
        expected = self._answer(server, ids)
        assert server.checkpoint_if_due() is True
        for manager, was_pending, was_written, was_due in zip(
                managers, pending, written, due):
            assert manager.checkpoints_written == was_written + was_due
            assert manager.records_since_checkpoint == (0 if was_due else was_pending)
        assert server.checkpoint_if_due() is False      # each tail is short now
        for manager in managers:
            manager.close()     # a crash: shards not due replay their tails
        from repro.skyserver import SkyServer

        reopened = SkyServer.open(root)
        assert self._answer(reopened, ids) == expected
        reopened.close()


# ---------------------------------------------------------------------------
# One session class for both backends
# ---------------------------------------------------------------------------

class TestSessionProtocol:
    def test_make_session_single_node(self):
        database = _build_db("row")
        session = make_session(database, row_limit=10)
        assert isinstance(session, SqlSession)
        assert session.database is database
        for probe in ("execute", "query", "explain", "optimizer_statistics",
                      "execution_mode_statistics", "feedback_statistics"):
            assert callable(getattr(session, probe))

    def test_make_session_cluster(self):
        from repro.cluster import ClusterSession, ShardCluster

        database = Database("p")
        database.create_table("Obj", [bigint("objID"), floating("dec")],
                              primary_key=PrimaryKey(["objID"]))
        cluster = ShardCluster.from_database(database, shards=2)
        session = make_session(cluster.coordinator, cluster=cluster)
        assert isinstance(session, ClusterSession)
        assert isinstance(session, SqlSession)
        assert session.feedback_statistics() is not None
