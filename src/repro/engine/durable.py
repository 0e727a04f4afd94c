"""Durable databases: checkpoints, write-ahead logging and recovery.

This module is the orchestration layer over :mod:`repro.storage`: it
owns a database's on-disk directory, hooks every table's mutation
events into a write-ahead log, writes atomic checkpoints, and rebuilds
a :class:`~repro.engine.catalog.Database` from disk — replaying the WAL
tail so a process killed mid-write reopens to exactly the state whose
bytes reached the log.

Directory layout (one directory per database; a sharded cluster keeps
one per shard plus one for the coordinator — see
:mod:`repro.cluster.shard`)::

    <path>/
      MANIFEST.json       # the commit point: schema + pointers, renamed into place
      wal-<N>.log         # the WAL named by the manifest (per-checkpoint file)
      data-<N>/           # the checkpoint the manifest points to
        t0000.tbl ...     # per-table storage state (repro.storage.format codec)
        statistics.bin    # ANALYZE snapshots, serialized (never re-derived on open)
        extra-<name>.bin  # component state (e.g. a shard's sequence spine)

Crash-safety argument, in full:

1.  Every DML/DDL statement appends one WAL frame *inside* the
    mutating lock section, so per-table WAL order equals row-id
    assignment order; replaying the frames in order through the same
    code paths (``insert_many(skip_fk=True)`` with the already-prepared
    rows, ``delete_row`` per logged row id, real
    ``vacuum()``/``convert_storage()`` calls) reassigns identical row
    ids.  Recovery is bit-for-bit, not merely logically equivalent.
    A bulk statement is one frame, so it recovers whole or not at all.
2.  A checkpoint freezes the database under **read locks on every
    table** (writers drain, readers keep flowing), serializes storage
    state while frozen, then commits with a single atomic
    ``os.replace`` of ``MANIFEST.json``.  The new manifest names a
    *new, empty* WAL file created before the rename; the old WAL and
    old data directory are deleted only after the rename.  Whatever
    instant the process dies, the manifest on disk names one complete
    (checkpoint, WAL) pair: before the rename that is the old pair
    (old WAL intact — nothing lost), after it the new pair (new WAL
    empty — nothing replayed twice).  There is no window where stale
    WAL frames can be applied on top of a checkpoint that already
    contains them.
3.  WAL frames are CRC-framed; replay stops at the first torn frame
    (:mod:`repro.storage.wal`).  Mutations whose frames did not fully
    reach disk are the *suffix* of the log, so the reopened state is
    always a prefix of history — never a gap.

Frames come in two kinds (first payload byte): an insert statement is
an *insert frame* (``+``, :class:`~repro.storage.format.RowCodec` —
the rows encoded against the table's schema, decoded at replay against
the table as it is at that point of the log); everything else, and an
insert holding a value no fixed-width slot keeps exactly, is a generic
tagged-codec record (``M``).  Generic records of the older
one-frame-per-row form still replay.

Checkpoints cost what changed.  Every file is byte-identical to a full
encode, but a table whose observed state (:func:`_reuse_key`) is the
same as at the last checkpoint is written from the byte pieces that
checkpoint encoded, and a sealed segment keeps the encoding of its
immutable parts from the first checkpoint that wrote it.  Neither cache
listens to mutation hooks: a release flip swaps table contents without
logging.

What recovery may assume (and what it may not) is written down in
CONTRIBUTING.md; the format itself in ``engine/README.md``.

Sealing is intentionally *not* logged: segment boundaries are a pure
function of the append sequence (every ``SEGMENT_ROWS`` rows), so
replaying inserts re-seals identically.  ANALYZE is durable as of the
last checkpoint only — statistics are advisory and re-derivable.
Python-level CHECK-constraint callables cannot be serialized; replay
re-applies prepared rows with checks already passed, and reopened
tables keep declarative constraints (NOT NULL, PK, FK) only.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
import weakref
from array import array
from operator import is_
from typing import Any, Callable, Optional, Sequence

from ..storage import (INSERT_FRAME, RowCodec, decode_insert_frame,
                       decode_value, encode_insert_frame, encode_pieces,
                       encode_value)
from ..storage.wal import WriteAheadLog, replay_file
from ..telemetry.metrics import METRICS
from ..telemetry.trace import TRACER
from .catalog import Database
from .concurrency import lock_tables
from .constraints import ForeignKey, PrimaryKey
from .errors import CatalogError
from .table import Table
from .types import Column, DataType
from .view import View

FORMAT_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"

#: Default auto-checkpoint thresholds for :meth:`DurabilityManager.
#: maybe_checkpoint` — records appended since the last checkpoint, or
#: seconds elapsed with at least one record pending.
CHECKPOINT_RECORD_LIMIT = 50_000
CHECKPOINT_AGE_LIMIT = 300.0

# Cached instrument handles: the WAL append path is per-mutation hot,
# so skip the registry lookup (registry ``reset()`` zeroes in place,
# keeping these handles valid).
_WAL_APPENDS = METRICS.counter("wal.appends")
_WAL_BYTES = METRICS.counter("wal.bytes")
_CHECKPOINTS = METRICS.counter("durability.checkpoints")
_CHECKPOINT_SECONDS = METRICS.histogram("durability.checkpoint_seconds")


class RecoveryError(CatalogError):
    """The on-disk directory is not a readable database."""


def _fsync_directory(path: str) -> None:
    handle = os.open(path, os.O_RDONLY)
    try:
        os.fsync(handle)
    finally:
        os.close(handle)


_GENERATION_RE = re.compile(r"^(?:data-(\d+)|wal-(\d+)\.log)$")


def _generation_of(name: str) -> Optional[int]:
    """The checkpoint generation a ``data-N`` / ``wal-N.log`` entry
    belongs to (None for anything else, including the manifest)."""
    match = _GENERATION_RE.match(name)
    if match is None:
        return None
    return int(match.group(1) or match.group(2))


def _highest_generation(path: str) -> int:
    """The largest checkpoint generation already present at ``path``."""
    highest = 0
    try:
        names = os.listdir(path)
    except FileNotFoundError:
        return 0
    for name in names:
        generation = _generation_of(name)
        if generation is not None:
            highest = max(highest, generation)
    return highest


def _write_file(path: str, payload: bytes | Sequence[bytes], *,
                fsync: bool) -> None:
    """Write ``payload`` — bytes, or byte pieces written in order."""
    with open(path, "wb") as handle:
        if isinstance(payload, bytes):
            handle.write(payload)
        else:
            handle.writelines(payload)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def table_snapshot(table: Table) -> dict[str, Any]:
    """What a checkpoint writes for ``table`` (its ``t<N>.tbl`` file is
    this mapping's encoding).  Caller holds the table's lock."""
    return {
        "table": table.name,
        "state": table.storage.checkpoint_state(),
        "data_bytes": table._data_bytes,
        "modification_counter": table.modification_counter,
        "indexes": {index.name: index.entries_state()
                    for index in table.indexes.values()},
    }


def _reuse_key(table: Table) -> tuple:
    """What a table's checkpoint payload is a function of, as observed
    on the table itself: its storage object, slot count (tombstones
    included), modification counter and index objects.  The objects
    compare by identity (none defines ``__eq__``).

    Every path that changes the payload changes one of these: an
    insert, delete or non-empty truncate bumps the counter; a vacuum or
    a truncate of tombstones alone shrinks the slot count; a storage
    conversion or a release flip installs a new storage object; index
    DDL changes the index set.  The per-segment tombstone counts, the
    byte total and a column store's parts only change together with
    one of them.  Hook notifications are not consulted: a release flip
    swaps table contents without logging.
    """
    return (table.storage, len(table.storage), table.modification_counter,
            tuple(table.indexes.values()))


# -- schema <-> manifest JSON -------------------------------------------------

def _column_entry(column: Column) -> dict[str, Any]:
    return {"name": column.name, "dtype": column.dtype.value,
            "nullable": column.nullable, "default": column.default,
            "description": column.description, "unit": column.unit}


def _column_from_entry(entry: dict[str, Any]) -> Column:
    return Column(entry["name"], DataType(entry["dtype"]),
                  nullable=entry["nullable"], default=entry["default"],
                  description=entry["description"], unit=entry["unit"])


def _table_schema(table: Table) -> dict[str, Any]:
    pk = table.primary_key
    return {
        "name": table.name,
        "description": table.description,
        "storage": table.storage.kind,
        "columns": [_column_entry(column) for column in table.columns],
        "primary_key": ({"columns": list(pk.columns), "name": pk.name}
                        if pk is not None else None),
        "foreign_keys": [
            {"columns": list(fk.columns),
             "referenced_table": fk.referenced_table,
             "referenced_columns": list(fk.referenced_columns),
             "name": fk.name, "allow_null": fk.allow_null,
             "treat_zero_as_null": fk.treat_zero_as_null}
            for fk in table.foreign_keys],
        "indexes": [
            {"name": index.name, "columns": list(index.columns),
             "unique": index.unique,
             "included_columns": list(index.included_columns)}
            for index in table.indexes.values()],
    }


def _create_from_schema(database: Database, schema: dict[str, Any]) -> Table:
    pk = schema.get("primary_key")
    table = database.create_table(
        schema["name"],
        [_column_from_entry(entry) for entry in schema["columns"]],
        primary_key=(PrimaryKey(columns=pk["columns"], name=pk.get("name", ""))
                     if pk else None),
        foreign_keys=[
            ForeignKey(columns=entry["columns"],
                       referenced_table=entry["referenced_table"],
                       referenced_columns=entry["referenced_columns"],
                       name=entry.get("name", ""),
                       allow_null=entry.get("allow_null", True),
                       treat_zero_as_null=entry.get("treat_zero_as_null", False))
            for entry in schema.get("foreign_keys", ())],
        description=schema.get("description", ""),
        replace=True,
        storage=schema.get("storage", "row"))
    existing = {name.lower() for name in table.indexes}
    for index in schema.get("indexes", ()):
        if index["name"].lower() in existing:
            continue                      # the PK index auto-created above
        table.create_index(index["name"], index["columns"],
                           unique=index["unique"],
                           included_columns=index.get("included_columns", ()))
    return table


class DurabilityManager:
    """Owns one database directory: WAL, checkpoints, recovery.

    Create with :meth:`attach` (wrap a live database and write its
    first checkpoint) or :meth:`open` (rebuild a database from disk,
    replaying the WAL tail).  ``log_dml=False`` produces a
    checkpoint-only attachment with no WAL hooks — used for a cluster's
    coordinator, whose gather traffic (truncate/refill of routed
    tables, ``##temp`` results) would flood a log for state that is
    reconstructed from the shards anyway.
    """

    def __init__(self, database: Database, path: str | os.PathLike, *,
                 fsync: bool = False, log_dml: bool = True):
        self.database = database
        self.path = os.fspath(path)
        self.fsync = fsync
        self.log_dml = log_dml
        self.wal: Optional[WriteAheadLog] = None
        #: Innermost lock: serializes WAL appends and the WAL swap at
        #: checkpoint.  Never acquire a table lock while holding it.
        self._append_lock = threading.Lock()
        self._checkpoint_lock = threading.RLock()
        self._replaying = False
        self._staged_sequence: Optional[int] = None
        self._checkpoint_id = 0
        self.checkpoints_written = 0
        self.records_since_checkpoint = 0
        self.last_checkpoint_at: Optional[float] = None
        #: Extra component state serialized with every checkpoint
        #: (name -> zero-arg callable returning a codec-encodable value).
        #: A shard node registers its sequence spine here.
        self.state_providers: dict[str, Callable[[], Any]] = {}
        #: Recovery delegate for components that wrap table ops (a shard
        #: node remaps its sequence spine on vacuum/convert).  Optional
        #: methods: ``replay_insert(table, row, sequence)``,
        #: ``replay_vacuum(table)``, ``replay_convert(table, layout)``.
        self.replay_delegate: Any = None
        #: Each table's insert-frame codec, built on first use.
        self._row_codecs: "weakref.WeakKeyDictionary[Table, RowCodec]" = (
            weakref.WeakKeyDictionary())
        #: Table name -> (:func:`_reuse_key`, payload pieces) as of the
        #: last checkpoint; a table whose key still matches is written
        #: from these bytes instead of being encoded again.
        self._payloads: dict[str, tuple[tuple, list[bytes]]] = {}
        #: (the ANALYZE snapshots, their encoding) as of the last checkpoint.
        self._statistics_payload: Optional[tuple[dict, bytes]] = None

    # -- lifecycle --------------------------------------------------------

    @classmethod
    def attach(cls, database: Database, path: str | os.PathLike, *,
               fsync: bool = False, log_dml: bool = True,
               checkpoint: bool = True) -> "DurabilityManager":
        """Make a live in-memory database durable at ``path``."""
        manager = cls(database, path, fsync=fsync, log_dml=log_dml)
        os.makedirs(manager.path, exist_ok=True)
        # Resume the generation counter past anything already on disk:
        # re-attaching into a previously-used directory (a data-release
        # flip re-homes the new release at the same path) must write its
        # first checkpoint to a *fresh* generation, never into the
        # directory the existing manifest still points at.
        manager._checkpoint_id = _highest_generation(manager.path)
        database.durability = manager
        if checkpoint:
            manager.checkpoint()
        else:
            # No checkpoint yet: open an initial WAL so mutations are
            # logged from the very first attach (bulk-load callers
            # checkpoint once the load settles).  ``wal-0.log`` is never
            # referenced by any manifest (checkpoint generations start
            # at 1), so truncating a stale leftover is always safe.
            initial = WriteAheadLog(
                os.path.join(manager.path, "wal-0.log"), fsync=fsync)
            initial.truncate()
            manager.wal = initial
        manager._attach_hooks()
        return manager

    @classmethod
    def open(cls, path: str | os.PathLike, *,
             fsync: bool = False, log_dml: bool = True,
             prepare: Optional[Callable[["DurabilityManager"], None]] = None,
             ) -> "DurabilityManager":
        """Rebuild the database stored at ``path`` and replay its WAL tail.

        ``prepare`` runs after the checkpoint is restored but before the
        WAL replays — the hook where a wrapping component (a shard node)
        loads its extra checkpoint state and installs a replay delegate.
        """
        root = os.fspath(path)
        manifest_path = os.path.join(root, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise RecoveryError(f"no database at {root!r} (missing {MANIFEST_NAME})")
        except json.JSONDecodeError as error:
            raise RecoveryError(f"corrupt manifest at {manifest_path!r}: {error}")
        if manifest.get("format_version") != FORMAT_VERSION:
            raise RecoveryError(
                f"unsupported format version {manifest.get('format_version')!r}")

        database = Database(manifest["database"],
                            description=manifest.get("description", ""))
        manager = cls(database, root, fsync=fsync, log_dml=log_dml)
        manager._checkpoint_id = manifest["checkpoint_id"]
        manager.last_checkpoint_at = manifest.get("checkpoint_at")
        data_dir = os.path.join(root, manifest["data_dir"])

        for schema in manifest["tables"]:
            table = _create_from_schema(database, schema)
            with open(os.path.join(data_dir, schema["file"]), "rb") as handle:
                snapshot = decode_value(handle.read())
            table.storage.restore_state(snapshot["state"])
            table._data_bytes = snapshot["data_bytes"]
            table.modification_counter = snapshot["modification_counter"]
            index_states = snapshot.get("indexes")
            if (index_states is not None
                    and set(index_states) == set(table.indexes)):
                for name, index in table.indexes.items():
                    index.restore_entries(index_states[name])
            else:                       # pre-index-snapshot checkpoint
                table._rebuild_indexes_from_storage()

        for entry in manifest.get("views", ()):
            predicate = None
            if entry["predicate"]:
                from .sql.parser import parse_expression
                predicate = parse_expression(entry["predicate"])
            database.create_view(View(entry["name"], entry["base"], predicate,
                                      tuple(entry["columns"]),
                                      entry.get("description", "")),
                                 replace=True)

        statistics_path = os.path.join(data_dir, "statistics.bin")
        if os.path.exists(statistics_path):
            with open(statistics_path, "rb") as handle:
                database.statistics = decode_value(handle.read())

        manager._wal_path = os.path.join(root, manifest["wal"])
        if prepare is not None:
            prepare(manager)
        replayed = manager._replay_wal()
        manager.wal = WriteAheadLog(manager._wal_path, fsync=fsync)
        manager.records_since_checkpoint = replayed
        database.durability = manager
        manager._attach_hooks()
        return manager

    def close(self) -> None:
        """Release the WAL handle (does **not** checkpoint — callers that
        want a clean, replay-free reopen checkpoint first)."""
        self._detach_hooks()
        if self.database.durability is self:
            self.database.durability = None
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    # -- hooks ------------------------------------------------------------

    def _attach_hooks(self) -> None:
        if not self.log_dml:
            return
        for table in self.database.tables.values():
            self._hook_table(table)

    def _detach_hooks(self) -> None:
        for table in self.database.tables.values():
            table.on_mutation(None)

    def _hook_table(self, table: Table) -> None:
        def hook(op: str, payload: dict, _table: Table = table) -> None:
            self._log(op, _table, payload)
        table.on_mutation(hook)

    def table_created(self, table: Table) -> None:
        """Catalog notification: a table appeared after attach."""
        if not self.log_dml:
            return
        self._hook_table(table)
        self._log("create_table", table, {"schema": _table_schema(table)})

    def table_dropped(self, name: str) -> None:
        if not self.log_dml:
            return
        self._log("drop_table", None, {"table": name})

    def stage_sequence(self, sequence: int) -> None:
        """Bind the cluster's global sequence number to the *next* insert
        record, so the (row, sequence) pair is one atomic WAL frame and
        can never tear apart under truncation.  Caller holds the
        cluster's DML lock, which serializes staged inserts."""
        self._staged_sequence = sequence

    def _row_codec(self, table: Table) -> RowCodec:
        codec = self._row_codecs.get(table)
        if codec is None:
            codec = self._row_codecs[table] = RowCodec(table.columns)
        return codec

    def _log(self, op: str, table: Optional[Table], payload: dict) -> None:
        if self._replaying or self.wal is None:
            return
        name = table.name if table is not None else ""
        frame = None
        if op == "insert":
            sequence = self._staged_sequence
            self._staged_sequence = None
            rows = payload["rows"]
            frame = encode_insert_frame(self._row_codec(table), name, rows,
                                        sequence)
            if frame is None:       # a value without an exact fixed slot
                record = {"op": op, "table": name, "rows": list(rows)}
                if sequence is not None:
                    record["sequence"] = sequence
        elif op == "delete":
            record = {"op": op, "table": name,
                      "row_ids": array("q", payload["row_ids"])}
        else:
            record = dict(payload)
            record["op"] = op
            if table is not None:
                record["table"] = name
        if frame is None:
            frame = encode_value(record)
        tracer = TRACER
        if tracer.enabled and tracer.current() is not None:
            # Only attach WAL spans under an active query trace — bulk
            # loads append thousands of frames and would drown the
            # ring buffer with system noise.  Metrics count always.
            with tracer.span("wal.append", op=op, table=name):
                with self._append_lock:
                    if self.wal is not None:
                        self.wal.append(frame)
                        self.records_since_checkpoint += 1
        else:
            with self._append_lock:
                if self.wal is not None:
                    self.wal.append(frame)
                    self.records_since_checkpoint += 1
        _WAL_APPENDS.inc()
        _WAL_BYTES.inc(len(frame))

    # -- checkpoint -------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Write a checkpoint of every table and swing the manifest to it.

        Freezes the database under read locks on every table (writers
        drain; readers keep flowing), serializes while frozen, then
        commits via atomic manifest rename — see the module docstring
        for why the rename ordering makes every crash instant safe.
        """
        started = time.perf_counter()
        with self._checkpoint_lock:
            database = self.database
            tables = [database.table(name) for name in database.table_names()]
            # Read locks drain DML; the append lock additionally parks
            # catalog-level DDL (create_table takes no existing-table
            # lock), so its WAL record lands in the *new* log and is
            # replayed on top of this checkpoint rather than lost with
            # the old one.
            if TRACER.enabled:
                with TRACER.span("checkpoint", path=self.path,
                                 tables=len(tables)) as span:
                    with lock_tables([(table, "read") for table in tables]):
                        with self._append_lock:
                            report = self._checkpoint_frozen(tables)
                    span.attributes["bytes"] = report.get("bytes", 0)
            else:
                with lock_tables([(table, "read") for table in tables]):
                    with self._append_lock:
                        report = self._checkpoint_frozen(tables)
        _CHECKPOINTS.inc()
        _CHECKPOINT_SECONDS.observe(time.perf_counter() - started)
        return report

    def _checkpoint_frozen(self, tables: list[Table]) -> dict[str, Any]:
        database = self.database
        checkpoint_id = self._checkpoint_id + 1
        data_name = f"data-{checkpoint_id}"
        data_dir = os.path.join(self.path, data_name)
        old_data = (os.path.join(self.path, f"data-{self._checkpoint_id}")
                    if self._checkpoint_id else None)
        os.makedirs(data_dir, exist_ok=True)

        table_entries = []
        on_disk = 0
        payloads: dict[str, tuple[tuple, list[bytes]]] = {}
        for position, table in enumerate(tables):
            file_name = f"t{position:04d}.tbl"
            key = _reuse_key(table)
            cached = self._payloads.get(table.name)
            if cached is not None and cached[0] == key:
                pieces = cached[1]
            else:
                pieces = encode_pieces(table_snapshot(table))
            payloads[table.name] = (key, pieces)
            _write_file(os.path.join(data_dir, file_name), pieces,
                        fsync=self.fsync)
            on_disk += sum(map(len, pieces))
            entry = _table_schema(table)
            entry["file"] = file_name
            table_entries.append(entry)
        self._payloads = payloads

        # ANALYZE replaces a table's snapshot object and never changes
        # one in place: the same objects in the same order encode alike.
        statistics = dict(database.statistics)
        cached_statistics = self._statistics_payload
        if (cached_statistics is not None
                and list(cached_statistics[0]) == list(statistics)
                and all(map(is_, cached_statistics[0].values(),
                            statistics.values()))):
            payload = cached_statistics[1]
        else:
            payload = encode_value(statistics)
        self._statistics_payload = (statistics, payload)
        _write_file(os.path.join(data_dir, "statistics.bin"), payload,
                    fsync=self.fsync)
        on_disk += len(payload)

        for name, provider in self.state_providers.items():
            payload = encode_value(provider())
            _write_file(os.path.join(data_dir, f"extra-{name}.bin"), payload,
                        fsync=self.fsync)
            on_disk += len(payload)

        wal_name = f"wal-{checkpoint_id}.log"
        new_wal = WriteAheadLog(os.path.join(self.path, wal_name),
                                fsync=self.fsync)
        if self.fsync:
            _fsync_directory(data_dir)
            _fsync_directory(self.path)

        manifest = {
            "format_version": FORMAT_VERSION,
            "database": database.name,
            "description": database.description,
            "checkpoint_id": checkpoint_id,
            "checkpoint_at": time.time(),
            "data_dir": data_name,
            "wal": wal_name,
            "schema_version": database.schema_version,
            "tables": table_entries,
            "views": [
                {"name": view.name, "base": view.base,
                 "predicate": (view.predicate.sql()
                               if view.predicate is not None else ""),
                 "columns": list(view.columns),
                 "description": view.description}
                for view in database.views.values()],
        }
        manifest_tmp = os.path.join(self.path, MANIFEST_NAME + ".tmp")
        _write_file(manifest_tmp,
                    json.dumps(manifest, separators=(",", ":")).encode("utf-8"),
                    fsync=self.fsync)
        # The commit point: everything before this rename is invisible
        # to recovery; everything after it is the new truth.
        os.replace(manifest_tmp, os.path.join(self.path, MANIFEST_NAME))
        if self.fsync:
            _fsync_directory(self.path)

        old_wal = self.wal                 # append lock held by checkpoint()
        self.wal = new_wal
        self.records_since_checkpoint = 0
        if old_wal is not None:
            old_wal.close()
            try:
                os.remove(old_wal.path)
            except FileNotFoundError:
                pass
        if old_data and os.path.isdir(old_data):
            shutil.rmtree(old_data, ignore_errors=True)
        # Sweep generations from any previous tenancy of this directory
        # (a re-attach after a release flip): the manifest now points at
        # ``checkpoint_id`` only, so every other generation is garbage.
        for name in os.listdir(self.path):
            generation = _generation_of(name)
            if generation is None or generation == checkpoint_id:
                continue
            stale = os.path.join(self.path, name)
            if os.path.isdir(stale):
                shutil.rmtree(stale, ignore_errors=True)
            else:
                try:
                    os.remove(stale)
                except FileNotFoundError:
                    pass

        self._checkpoint_id = checkpoint_id
        self.checkpoints_written += 1
        self.last_checkpoint_at = manifest["checkpoint_at"]
        return {"checkpoint_id": checkpoint_id, "tables": len(table_entries),
                "bytes": on_disk}

    def maybe_checkpoint(self, *, record_limit: Optional[int] = None,
                         age_limit: Optional[float] = None) -> bool:
        """Checkpoint when the WAL tail has grown past ``record_limit``
        records or is older than ``age_limit`` seconds (the periodic
        policy; cheap to call after any write).  The limits default to
        :data:`CHECKPOINT_RECORD_LIMIT` / :data:`CHECKPOINT_AGE_LIMIT` as
        they stand at the call."""
        if record_limit is None:
            record_limit = CHECKPOINT_RECORD_LIMIT
        if age_limit is None:
            age_limit = CHECKPOINT_AGE_LIMIT
        pending = self.records_since_checkpoint
        if not pending:
            return False
        age = (time.time() - self.last_checkpoint_at
               if self.last_checkpoint_at is not None else 0.0)
        if pending < record_limit and age < age_limit:
            return False
        self.checkpoint()
        return True

    # -- recovery ---------------------------------------------------------

    def _replay_wal(self) -> int:
        self._replaying = True
        count = 0
        try:
            for record in replay_file(self._wal_path):
                payload = record.payload
                if payload[:1] == INSERT_FRAME:
                    # Decoded against the table as it is at this point
                    # of the log (a later frame may drop and re-create it).
                    name, sequence, rows = decode_insert_frame(
                        payload, lambda name: self._row_codec(
                            self.database.table(name)))
                    self._replay_insert(self.database.table(name), rows,
                                        sequence)
                else:
                    self._apply(decode_value(payload))
                count += 1
        finally:
            self._replaying = False
        return count

    def _replay_insert(self, table: Table, rows: list[dict[str, Any]],
                       sequence: Optional[int]) -> None:
        delegate = self.replay_delegate
        if delegate is not None and hasattr(delegate, "replay_insert"):
            for row in rows:            # a sequenced frame holds one row
                delegate.replay_insert(table, row, sequence)
        else:
            table.insert_many(rows, skip_fk=True)

    def _apply(self, record: dict[str, Any]) -> None:
        op = record["op"]
        database = self.database
        if op == "create_table":
            _create_from_schema(database, record["schema"])
            return
        if op == "drop_table":
            database.drop_table(record["table"], if_exists=True)
            return
        table = database.table(record["table"])
        delegate = self.replay_delegate
        if op == "insert":
            # "row": a frame written before inserts became one frame per
            # statement.
            rows = record["rows"] if "rows" in record else [record["row"]]
            self._replay_insert(table, rows, record.get("sequence"))
        elif op == "delete":
            for row_id in (record["row_ids"] if "row_ids" in record
                           else (record["row_id"],)):
                table.delete_row(row_id)
        elif op == "truncate":
            table.truncate()
        elif op == "vacuum":
            if delegate is not None and hasattr(delegate, "replay_vacuum"):
                delegate.replay_vacuum(table)
            else:
                table.vacuum()
        elif op == "convert":
            if delegate is not None and hasattr(delegate, "replay_convert"):
                delegate.replay_convert(table, record["layout"])
            else:
                table.convert_storage(record["layout"])
        elif op == "create_index":
            if record["index"].lower() not in {n.lower() for n in table.indexes}:
                table.create_index(record["index"], record["columns"],
                                   unique=record["unique"],
                                   included_columns=record["included_columns"])
        elif op == "drop_index":
            try:
                table.drop_index(record["index"])
            except Exception:
                pass
        else:
            raise RecoveryError(f"unknown WAL op {op!r}")

    def read_extra(self, name: str) -> Any:
        """Decode a component's ``extra-<name>.bin`` from the checkpoint
        the manifest currently points to (None when absent)."""
        path = os.path.join(self.path, f"data-{self._checkpoint_id}",
                            f"extra-{name}.bin")
        if not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            return decode_value(handle.read())

    # -- reporting --------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """The durability slice of ``site_statistics()["storage"]``."""
        on_disk = 0
        data_dir = os.path.join(self.path, f"data-{self._checkpoint_id}")
        if os.path.isdir(data_dir):
            for entry in os.scandir(data_dir):
                on_disk += entry.stat().st_size
        manifest = os.path.join(self.path, MANIFEST_NAME)
        if os.path.exists(manifest):
            on_disk += os.path.getsize(manifest)
        wal_bytes = self.wal.size() if self.wal is not None else 0
        age = (time.time() - self.last_checkpoint_at
               if self.last_checkpoint_at is not None else None)
        return {
            "path": self.path,
            "on_disk_bytes": on_disk,
            "wal_bytes": wal_bytes,
            "wal_records_since_checkpoint": self.records_since_checkpoint,
            "checkpoint_id": self._checkpoint_id,
            "checkpoints_written": self.checkpoints_written,
            "last_checkpoint_age_seconds": age,
            "fsync": self.fsync,
        }
