"""Shard nodes and the cluster that owns them.

A :class:`ShardNode` is one in-process "server" of the cluster: it owns
a full engine :class:`~repro.engine.catalog.Database` holding its slice
of every partitioned table, with the same index definitions as the
single-node catalog, its own ANALYZE statistics, and column-oriented
storage whatever the coordinator's layout: every shard table is created
a column store (every fragment runs through the engine's batch inputs),
so a load appends each row once and builds each index once.  A shard
reuses ``vacuum`` and ``analyze`` exactly as a standalone database would.

Alongside each table the node keeps the **global sequence** of every
row: the position the row had in the single-node load order.  This is
the cluster's ordering spine — the scatter-gather executor merges shard
streams by sequence (or by index key, then sequence) so that a sharded
query emits rows in *exactly* the order the single-node engine would,
which is what makes the fig13 suite byte-identical across layouts.

A :class:`ShardCluster` carries the shard nodes, the per-table
:class:`~repro.cluster.partition.Placement` map, and the coordinator
database.  After :meth:`ShardCluster.from_database` partitions the data
the coordinator's tables are emptied — data lives in the shards — but
the coordinator keeps its schema, index definitions and ANALYZE
snapshots: the distributed planner runs the single-node optimizer
over them, and queries outside the distributable subset
*gather* their tables back into the coordinator (data shipping), cached
until DML on any shard invalidates the copy.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..engine import Database
from ..engine.concurrency import lock_tables, read_locks
from ..engine.durable import DurabilityManager, RecoveryError
from ..engine.table import Table
from ..engine.types import NULL
from ..htm import DEFAULT_DEPTH, id_range_at_depth
from ..telemetry.metrics import METRICS
from .partition import (DerivedPlacement, HashPlacement, HtmPlacement,
                        Placement, RangePlacement, SKYSERVER_AFFINITY,
                        PHOTO_CHILDREN, ZonePlacement, quantile_boundaries)

#: Spatial partition columns of the two range schemes.
ZONE_COLUMN = "dec"
HTM_COLUMN = "htmid"

#: Cached handle — cluster insert routing is per-row hot during loads.
_ROUTED_ROWS = METRICS.counter("cluster.rows_routed")


def _default_zone_boundaries(shards: int) -> list[float]:
    """Equal-width declination bands when no data is available."""
    step = 180.0 / shards
    return [-90.0 + step * i for i in range(1, shards)]


def _default_htm_boundaries(shards: int) -> list[int]:
    """Equal splits of the storage-depth HTM id space."""
    low, _ = id_range_at_depth(8, DEFAULT_DEPTH)
    _, high = id_range_at_depth(15, DEFAULT_DEPTH)
    span = high - low + 1
    return [low + (span * i) // shards for i in range(1, shards)]


class ShardNode:
    """One shard: a full engine database plus the global-sequence maps."""

    def __init__(self, shard_id: int, database: Database):
        self.shard_id = shard_id
        self.database = database
        #: table key (lower-cased) -> list indexed by row id, holding each
        #: row's global sequence number.  Row ids are dense append
        #: positions, so the list grows one entry per insert; deletes
        #: leave their entry behind (the tombstoned id never surfaces).
        self._sequences: dict[str, list[int]] = {}

    # -- loading -----------------------------------------------------------

    def bulk_load(self, table_name: str, rows: Sequence[dict[str, Any]],
                  sequences: Sequence[int]) -> int:
        """Append pre-validated rows (one exclusive section, deferred sort)."""
        table = self.database.table(table_name)
        key = table.name.lower()
        sequence_list = self._sequences.setdefault(key, [])
        manager = self.database.durability
        with lock_tables([(table, "write")]):
            for row, sequence in zip(rows, sequences):
                if manager is not None:
                    # Bind the sequence into the insert's WAL frame so
                    # the (row, sequence) pair can never tear apart.
                    manager.stage_sequence(sequence)
                table.insert(row, defer_index_sort=True, skip_fk=True)
            table.rebuild_indexes()
            sequence_list.extend(sequences)
        return len(rows)

    def insert(self, table_name: str, values: dict[str, Any], sequence: int) -> int:
        """Insert one routed row, recording its global sequence."""
        table = self.database.table(table_name)
        key = table.name.lower()
        sequence_list = self._sequences.setdefault(key, [])
        manager = self.database.durability
        with lock_tables([(table, "write")]):
            if manager is not None:
                manager.stage_sequence(sequence)
            row_id = table.insert(values, skip_fk=True)
            # Row ids are dense append positions, so the sequence list
            # stays exactly parallel to the slot array.
            assert row_id == len(sequence_list)
            sequence_list.append(sequence)
        return row_id

    def delete_where(self, table_name: str,
                     predicate: Callable[[dict[str, Any]], bool]) -> int:
        return self.database.table(table_name).delete_where(predicate)

    # -- compaction / statistics (per-shard reuse of the engine) -----------

    def vacuum(self, table_name: str) -> int:
        """Compact one table's storage, remapping its sequence list.

        Compaction keeps live rows in id order, so the new sequence list
        is the old one restricted to live ids.  The ids are read with no
        columns: a column store then decodes nothing but its live mask.
        """
        table = self.database.table(table_name)
        key = table.name.lower()
        old = self._sequences.get(key, [])
        live_ids = [row_id for row_id, _row in table.storage.iter_rows(())]
        reclaimed = table.vacuum()
        if reclaimed:
            self._sequences[key] = [old[row_id] for row_id in live_ids]
        return reclaimed

    def analyze(self) -> int:
        """ANALYZE every loaded table of this shard."""
        for key in self._sequences:
            self.database.analyze_table(key)
        return len(self._sequences)

    # -- durability --------------------------------------------------------

    def make_durable(self, path: str | os.PathLike, *, fsync: bool = False,
                     checkpoint: bool = True) -> DurabilityManager:
        """Attach this shard's database to an on-disk directory.

        The sequence spine rides along with every checkpoint (as an
        ``extra-sequences.bin`` state blob) and every online insert's
        WAL frame carries its global sequence, so recovery rebuilds the
        exact merge order the gather/scatter paths rely on.
        """
        manager = DurabilityManager.attach(self.database, path, fsync=fsync,
                                           checkpoint=False)
        manager.state_providers["sequences"] = self._sequence_state
        manager.replay_delegate = self
        if checkpoint:
            manager.checkpoint()
        return manager

    def _sequence_state(self) -> dict[str, array]:
        return {key: array("q", sequences)
                for key, sequences in self._sequences.items()}

    @classmethod
    def recover(cls, shard_id: int, path: str | os.PathLike, *,
                fsync: bool = False) -> tuple["ShardNode", DurabilityManager]:
        """Reopen one shard from disk, replaying its WAL tail through the
        node so the sequence spine tracks every recovered insert."""
        node_ref: list["ShardNode"] = []

        def prepare(manager: DurabilityManager) -> None:
            node = cls(shard_id, manager.database)
            state = manager.read_extra("sequences") or {}
            node._sequences = {key: list(sequences)
                               for key, sequences in state.items()}
            manager.replay_delegate = node
            manager.state_providers["sequences"] = node._sequence_state
            node_ref.append(node)

        manager = DurabilityManager.open(path, fsync=fsync, prepare=prepare)
        return node_ref[0], manager

    # -- WAL replay delegate (see repro.engine.durable) --------------------

    def replay_insert(self, table: Table, row: dict[str, Any],
                      sequence: Optional[int]) -> None:
        key = table.name.lower()
        sequence_list = self._sequences.setdefault(key, [])
        row_id = table.insert(row, skip_fk=True)
        if sequence is None:
            raise RecoveryError(
                f"shard {self.shard_id}: insert into {table.name!r} "
                "recovered without a global sequence")
        assert row_id == len(sequence_list)
        sequence_list.append(sequence)

    def replay_vacuum(self, table: Table) -> None:
        self.vacuum(table.name)

    # -- read access -------------------------------------------------------

    def table(self, table_name: str) -> Table:
        return self.database.table(table_name)

    def sequence_list(self, table_name: str) -> list[int]:
        return self._sequences.get(table_name.lower(), [])

    def row_count(self, table_name: str) -> int:
        if not self.database.has_table(table_name):
            return 0
        return self.database.table(table_name).row_count

    def iter_sequenced_rows(self, table_name: str
                            ) -> Iterator[tuple[int, dict[str, Any]]]:
        """(global sequence, row) pairs in shard-local (= sequence) order."""
        table = self.database.table(table_name)
        sequences = self.sequence_list(table_name)
        for row_id, row in table.iter_rows():
            yield sequences[row_id], row


class ShardRelease:
    """One data release's shard nodes and placement map, published as a
    unit: a scatter reads :attr:`ShardCluster.release` once and prunes
    and runs every fragment against it, so a release flip between two
    fragments cannot mix releases.  It answers the cluster's
    ``placement``/``shard_count``/``shards``/``coordinator`` reads, so
    :func:`prune_with_statistics` and the planner's ``candidate_shards``
    accept either."""

    __slots__ = ("coordinator", "shards", "placements")

    def __init__(self, coordinator: Database, shards: Sequence[ShardNode],
                 placements: dict[str, Placement]):
        self.coordinator = coordinator
        self.shards = tuple(shards)
        self.placements = placements

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def placement(self, table_name: str) -> Optional[Placement]:
        return self.placements.get(table_name.lower())


class ShardCluster:
    """N shard nodes, a placement map and the coordinator catalog."""

    def __init__(self, coordinator: Database, shards: Sequence[ShardNode],
                 placements: dict[str, Placement], scheme: str):
        self.coordinator = coordinator
        #: The serving release; :meth:`swap_release` replaces it whole.
        self.release = ShardRelease(coordinator, shards, placements)
        self.scheme = scheme
        #: Per-table next global sequence number (monotonic).
        self._next_sequence: dict[str, int] = {}
        #: Average row bytes recorded at partition time (the coordinator's
        #: copy is empty, so the planner reads widths from here).
        self.table_row_bytes: dict[str, float] = {}
        #: Gather cache: table key -> the per-shard modification counters
        #: the coordinator's materialised copy was built against.
        self._gathered: dict[str, tuple[int, ...]] = {}
        self._gather_lock = threading.Lock()
        #: Serialises cluster-level DML: global sequence numbers must be
        #: unique AND appended to each shard in ascending order (the
        #: merge relies on per-shard streams being sequence-sorted), so
        #: the sequence draw and the shard append form one section.
        self._dml_lock = threading.Lock()
        self.gather_count = 0
        self.gather_invalidations = 0
        self.rows_gathered = 0
        self._executor = None
        #: Durability managers once :meth:`make_durable` / :meth:`open_durable`
        #: ran: ``{"path": str, "coordinator": manager, "shards": [manager]}``.
        self.durability = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_database(cls, database: Database, *, shards: int,
                      partition: str = "hash",
                      affinity: Optional[dict[str, str]] = None,
                      analyze: bool = True,
                      build_indices: bool = True,
                      detach_rows: bool = True) -> "ShardCluster":
        """Partition every table of ``database`` across ``shards`` nodes.

        ``partition`` is ``"hash"``, ``"zone"`` (declination bands) or
        ``"htm"`` (trixel-id ranges); under the spatial schemes the
        photo snowflake arms derive their placement from PhotoObj so
        ``objID`` joins stay shard-local.  The shards' tables are column
        stores from creation, whatever ``database``'s layout.  With
        ``detach_rows`` (the default) the coordinator's tables are
        truncated afterwards — its schema, index definitions and ANALYZE
        snapshots remain for planning and for the gather (data-shipping)
        fallback.
        """
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        if partition not in ("hash", "zone", "htm"):
            raise ValueError(f"unknown partition scheme {partition!r} "
                             "(expected 'hash', 'zone' or 'htm')")
        affinity_map = dict(SKYSERVER_AFFINITY)
        if affinity:
            affinity_map.update({k.lower(): v.lower() for k, v in affinity.items()})
        nodes = [ShardNode(index, cls._shard_database(database, index))
                 for index in range(shards)]
        placements: dict[str, Placement] = {}
        cluster = cls(database, nodes, placements, partition)

        ordered = cls._split_order(database)
        photo_route: dict[Any, int] = {}
        for name in ordered:
            table = database.table(name)
            key = table.name.lower()
            placement = cls._placement_for(table, partition, shards,
                                           affinity_map, photo_route)
            placements[key] = placement
            cluster.table_row_bytes[key] = table.average_row_bytes()
            per_shard_rows: list[list[dict[str, Any]]] = [[] for _ in nodes]
            per_shard_sequences: list[list[int]] = [[] for _ in nodes]
            sequence = 0
            record_route = (key == "photoobj" and partition in ("zone", "htm"))
            for _row_id, row in table.iter_rows():
                shard = placement.shard_of(row)
                if record_route:
                    photo_route[row.get("objid")] = shard
                per_shard_rows[shard].append(row)
                per_shard_sequences[shard].append(sequence)
                sequence += 1
            cluster._next_sequence[key] = sequence
            for node, rows, sequences in zip(nodes, per_shard_rows,
                                             per_shard_sequences):
                node.bulk_load(table.name, rows, sequences)
        if build_indices:
            for node in nodes:
                cls._clone_indices(database, node.database)
        if analyze:
            for node in nodes:
                node.analyze()
        if detach_rows:
            for name in ordered:
                # Truncation drops the rows but keeps the schema, the
                # index definitions and — crucially — the ANALYZE
                # snapshots the distributed planner costs against.
                database.table(name).truncate()
        return cluster

    @staticmethod
    def _split_order(database: Database) -> list[str]:
        """PhotoObj first, so derived placements can record its routing."""
        names = database.table_names()
        return sorted(names, key=lambda name: (name.lower() != "photoobj",
                                               name.lower()))

    @staticmethod
    def _shard_database(database: Database, index: int) -> Database:
        """An empty clone of the coordinator's table schemas (no FKs/views),
        every table a column store."""
        shard_db = Database(f"{database.name}-shard{index}",
                            description=f"shard {index} of {database.name}")
        for name in database.table_names():
            table = database.table(name)
            shard_db.create_table(table.name, table.columns,
                                  primary_key=table.primary_key,
                                  description=table.description,
                                  storage="column")
        return shard_db

    @staticmethod
    def _clone_indices(database: Database, shard_db: Database) -> int:
        """Recreate the coordinator's secondary indexes on one shard."""
        created = 0
        for name in database.table_names():
            source = database.table(name)
            target = shard_db.table(name)
            existing = {index_name.lower() for index_name in target.indexes}
            for index in source.indexes.values():
                if index.name.lower() in existing:
                    continue
                target.create_index(index.name, index.columns,
                                    unique=index.unique,
                                    included_columns=index.included_columns)
                created += 1
        return created

    @classmethod
    def _placement_for(cls, table: Table, partition: str, shards: int,
                       affinity: dict[str, str],
                       photo_route: dict[Any, int]) -> Placement:
        key = table.name.lower()
        if partition in ("zone", "htm"):
            column = ZONE_COLUMN if partition == "zone" else HTM_COLUMN
            if key == "photoobj" and table.has_column(column):
                return cls._range_placement(table, partition, shards, column)
            if key in PHOTO_CHILDREN:
                return DerivedPlacement(table.name, "objid", shards,
                                        "photoobj", photo_route)
            if key != "photoobj" and table.has_column(column) and table.row_count:
                return cls._range_placement(table, partition, shards, column)
        return HashPlacement(table.name, cls._hash_column(table, affinity), shards)

    @staticmethod
    def _range_placement(table: Table, partition: str, shards: int,
                         column: str) -> RangePlacement:
        values = [row.get(column) for _row_id, row in table.iter_rows()]
        boundaries: Sequence[Any] = quantile_boundaries(values, shards)
        if len(boundaries) != shards - 1:
            boundaries = (_default_zone_boundaries(shards) if partition == "zone"
                          else _default_htm_boundaries(shards))
        placement_cls = ZonePlacement if partition == "zone" else HtmPlacement
        return placement_cls(table.name, column, shards, boundaries)

    @staticmethod
    def _hash_column(table: Table, affinity: dict[str, str]) -> str:
        column = affinity.get(table.name.lower())
        if column and table.has_column(column):
            return column
        if table.primary_key is not None and table.primary_key.columns:
            return table.primary_key.columns[0]
        return table.columns[0].name

    # -- identity / versions ----------------------------------------------

    @property
    def shards(self) -> tuple[ShardNode, ...]:
        return self.release.shards

    @property
    def placements(self) -> dict[str, Placement]:
        return self.release.placements

    @property
    def shard_count(self) -> int:
        return self.release.shard_count

    def placement(self, table_name: str) -> Optional[Placement]:
        return self.release.placement(table_name)

    def table_keys(self) -> list[str]:
        return sorted(self.placements)

    def total_rows(self, table_name: str) -> int:
        return sum(node.row_count(table_name) for node in self.shards)

    def average_row_bytes(self, table_name: str) -> float:
        return self.table_row_bytes.get(table_name.lower(), 0.0)

    def table_versions(self, table_name: str) -> tuple[int, ...]:
        """Per-shard modification counters: the cache-invalidation vector.

        A table that lives only on the coordinator (``##results``,
        ``QueryLog``) answers the coordinator's ``(modification_counter,)``,
        as :meth:`Database.table_versions` does.
        """
        return (tuple(node.table(table_name).modification_counter
                      for node in self.shards if node.database.has_table(table_name))
                or self.coordinator.table_versions(table_name))

    @property
    def schema_version(self) -> int:
        """The catalog version: the coordinator holds every table's schema."""
        return self.coordinator.schema_version

    @property
    def epoch(self) -> int:
        """Sum of every shard's snapshot epoch (monotonic under any write)."""
        return sum(node.database.epoch for node in self.shards)

    # -- DML ---------------------------------------------------------------

    def insert(self, table_name: str, values: dict[str, Any]) -> int:
        """Route one row to its shard; returns the shard id it landed on."""
        key = self.coordinator.table(table_name).name.lower()
        row = {name.lower(): value for name, value in values.items()}
        with self._dml_lock:
            placement = self.placements[key]
            shard = placement.shard_of(row)
            sequence = self._next_sequence.get(key, 0)
            self._next_sequence[key] = sequence + 1
            self.shards[shard].insert(table_name, values, sequence)
            # Children derived from this table must route future rows
            # with the new key to the same shard.
            for child in self.placements.values():
                if (isinstance(child, DerivedPlacement)
                        and child.parent_table == key):
                    child.route[row.get(child.column)] = shard
        _ROUTED_ROWS.inc()
        return shard

    def delete_where(self, table_name: str,
                     predicate: Callable[[dict[str, Any]], bool]) -> int:
        return sum(node.delete_where(table_name, predicate)
                   for node in self.shards)

    # -- gather (data-shipping fallback) -----------------------------------

    def gathered_rows(self, table_name: str
                      ) -> Iterator[tuple[int, dict[str, Any]]]:
        """All shards' (sequence, row) pairs merged into global order."""
        streams = [node.iter_sequenced_rows(table_name) for node in self.shards]
        return heapq.merge(*streams, key=lambda pair: pair[0])

    def ensure_local(self, table_names: Iterable[str]) -> int:
        """Materialise shard data into the coordinator's tables.

        Each table is rebuilt only when its per-shard modification
        counters moved since the last gather; rows arrive in global
        sequence order, so the coordinator copy — including every
        index's duplicate-key ordering — is indistinguishable from the
        original single-node load.  Returns the number of tables
        (re)gathered.
        """
        with self._gather_lock:
            return self._ensure_local_locked(table_names)

    def _ensure_local_locked(self, table_names: Iterable[str]) -> int:
        gathered = 0
        for name in table_names:
            if not self.coordinator.has_table(name):
                continue
            table = self.coordinator.table(name)
            key = table.name.lower()
            if key not in self.placements:
                continue
            versions = self.table_versions(name)
            if self._gathered.get(key) == versions:
                continue
            if key in self._gathered:
                self.gather_invalidations += 1
            with lock_tables([(table, "write")]):
                table.truncate()
                for _sequence, row in self.gathered_rows(name):
                    table.insert(row, defer_index_sort=True, skip_fk=True)
                    self.rows_gathered += 1
                table.rebuild_indexes()
            self._gathered[key] = versions
            self.gather_count += 1
            gathered += 1
        return gathered

    def swap_release(self, fresh: "ShardCluster") -> None:
        """Serve ``fresh``'s release from now on: its shard nodes and
        placements become :attr:`release` in one assignment, and the
        coordinator's tables take over its contents, under the DML,
        gather and coordinator table locks.

        A scatter that began on the old release keeps reading the old
        shard nodes, which the swap leaves untouched.  A durable cluster
        releases its WAL handles first and checkpoints the incoming
        release into the same directory before DML resumes (the
        manifest rename is the commit point, so a crash mid-swap
        recovers the old release).
        """
        coordinator = self.coordinator
        tables = [coordinator.table(name) for name in coordinator.table_names()]
        with self._dml_lock:
            durability = self.durability
            if durability is not None:
                self.close_durable()
            with self._gather_lock, lock_tables(
                    [(table, "write") for table in tables]):
                coordinator.adopt_release(fresh.coordinator)
                self.release = ShardRelease(coordinator, fresh.shards,
                                            fresh.placements)
                self.table_row_bytes = dict(fresh.table_row_bytes)
                self._next_sequence = dict(fresh._next_sequence)
                self._gathered.clear()
                self.gather_invalidations += 1
            if durability is not None:
                self.make_durable(durability["path"],
                                  fsync=durability["coordinator"].fsync)

    @contextmanager
    def gathered(self, table_names: Sequence[str]) -> Iterator[ShardRelease]:
        """Gather ``table_names`` into the coordinator and hold their
        copies' read locks for the block; yields the release they hold.

        The locks keep a concurrent re-gather or release flip (both
        replace the copies' contents) out until the block ends.  They
        are taken after the gather, never before it (a read→write
        upgrade is forbidden), so a flip that lands in between sends
        the gather round again.
        """
        while True:
            release = self.release
            self.ensure_local(table_names)
            tables = [self.coordinator.table(name) for name in table_names
                      if self.coordinator.has_table(name)]
            with read_locks(tables):
                if self.release is release:
                    yield release
                    return

    def first_row(self, table_name: str) -> Optional[dict[str, Any]]:
        """The globally first row (sequence 0) of a table, if any."""
        for _sequence, row in self.gathered_rows(table_name):
            return row
        return None

    # -- durability --------------------------------------------------------

    CLUSTER_MANIFEST = "CLUSTER.json"

    def make_durable(self, path: str | os.PathLike, *,
                     fsync: bool = False) -> dict[str, Any]:
        """Attach the whole cluster to an on-disk directory tree.

        Each shard gets its own durable directory (WAL + checkpoints);
        the coordinator is checkpoint-only (``log_dml=False``) — its
        gather traffic re-materialises shard data that is already
        durable on the shards, and logging every truncate/refill would
        swamp the log for state recovery can rebuild anyway.  The
        cluster manifest records the static partitioning facts
        (scheme, columns, boundaries); dynamic facts — derived routes,
        next sequence numbers — are recomputed from the shards on open.
        """
        root = os.fspath(path)
        os.makedirs(root, exist_ok=True)
        coordinator_manager = DurabilityManager.attach(
            self.coordinator, os.path.join(root, "coordinator"),
            fsync=fsync, log_dml=False, checkpoint=False)
        shard_managers = [
            node.make_durable(os.path.join(root, f"shard-{node.shard_id}"),
                              fsync=fsync, checkpoint=False)
            for node in self.shards]
        self.durability = {"path": root, "coordinator": coordinator_manager,
                           "shards": shard_managers}
        self.checkpoint()
        return self.durability

    def checkpoint(self) -> dict[str, Any]:
        """Checkpoint the coordinator and every shard; rewrite the
        cluster manifest last (it only holds static facts, but keeping
        it newest-on-disk makes the directory self-describing)."""
        if self.durability is None:
            raise RecoveryError("cluster is not durable (call make_durable)")
        reports = {"coordinator": self.durability["coordinator"].checkpoint(),
                   "shards": [manager.checkpoint()
                              for manager in self.durability["shards"]]}
        manifest = {
            "format_version": 1,
            "shards": self.shard_count,
            "scheme": self.scheme,
            "table_row_bytes": self.table_row_bytes,
            "placements": {key: self._placement_entry(placement)
                           for key, placement in self.placements.items()},
        }
        root = self.durability["path"]
        tmp = os.path.join(root, self.CLUSTER_MANIFEST + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
        os.replace(tmp, os.path.join(root, self.CLUSTER_MANIFEST))
        return reports

    @staticmethod
    def _placement_entry(placement: Placement) -> dict[str, Any]:
        entry = {"scheme": placement.scheme, "table": placement.table_name,
                 "column": placement.column, "shards": placement.shard_count}
        if isinstance(placement, RangePlacement):
            entry["boundaries"] = list(placement.boundaries)
        if isinstance(placement, DerivedPlacement):
            entry["parent"] = placement.parent_table
        return entry

    @staticmethod
    def _placement_from_entry(entry: dict[str, Any]) -> Placement:
        scheme = entry["scheme"]
        if scheme == "hash":
            return HashPlacement(entry["table"], entry["column"], entry["shards"])
        if scheme in ("range", "zone", "htm"):
            placement_cls = {"range": RangePlacement, "zone": ZonePlacement,
                             "htm": HtmPlacement}[scheme]
            return placement_cls(entry["table"], entry["column"],
                                 entry["shards"], entry["boundaries"])
        if scheme == "derived":
            # The key→shard route is dynamic state; open_durable rebuilds
            # it by scanning the recovered parent tables.
            return DerivedPlacement(entry["table"], entry["column"],
                                    entry["shards"], entry["parent"], {})
        raise RecoveryError(f"unknown placement scheme {scheme!r}")

    @classmethod
    def open_durable(cls, path: str | os.PathLike, *,
                     fsync: bool = False) -> "ShardCluster":
        """Reopen a durable cluster: recover the coordinator and every
        shard (each replaying its own WAL tail), then recompute the
        dynamic routing state from the recovered data."""
        root = os.fspath(path)
        manifest_path = os.path.join(root, cls.CLUSTER_MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise RecoveryError(f"no cluster at {root!r} (missing "
                                f"{cls.CLUSTER_MANIFEST})")
        coordinator_manager = DurabilityManager.open(
            os.path.join(root, "coordinator"), fsync=fsync, log_dml=False)
        nodes: list[ShardNode] = []
        shard_managers: list[DurabilityManager] = []
        for shard_id in range(manifest["shards"]):
            node, manager = ShardNode.recover(
                shard_id, os.path.join(root, f"shard-{shard_id}"), fsync=fsync)
            nodes.append(node)
            shard_managers.append(manager)
        placements = {key: cls._placement_from_entry(entry)
                      for key, entry in manifest["placements"].items()}
        cluster = cls(coordinator_manager.database, nodes, placements,
                      manifest["scheme"])
        cluster.table_row_bytes = dict(manifest["table_row_bytes"])
        cluster.durability = {"path": root, "coordinator": coordinator_manager,
                              "shards": shard_managers}
        # Recompute the dynamic facts the manifest deliberately omits.
        for key in placements:
            highest = -1
            for node in nodes:
                sequences = node.sequence_list(key)
                if sequences:
                    highest = max(highest, max(sequences))
            cluster._next_sequence[key] = highest + 1
        for placement in placements.values():
            if not isinstance(placement, DerivedPlacement):
                continue
            parent_key = placement.parent_table
            column = placement.column
            for node in nodes:
                if not node.database.has_table(parent_key):
                    continue
                for row in node.table(parent_key).storage.iter_dicts((column,)):
                    placement.route[row.get(column)] = node.shard_id
        return cluster

    def close_durable(self) -> None:
        """Release every WAL handle (checkpoint first for a clean reopen)."""
        if self.durability is None:
            return
        self.durability["coordinator"].close()
        for manager in self.durability["shards"]:
            manager.close()
        self.durability = None

    # -- executor / statistics --------------------------------------------

    @property
    def executor(self):
        """The cluster's scatter-gather executor (created lazily)."""
        if self._executor is None:
            from .executor import ClusterExecutor

            self._executor = ClusterExecutor(self)
        return self._executor

    def size_report(self) -> list[dict[str, Any]]:
        """Per-table record counts and bytes summed across the shards."""
        report = []
        for key in self.table_keys():
            table_name = self.coordinator.table(key).name
            records = self.total_rows(key)
            data_bytes = sum(node.table(key).data_bytes for node in self.shards)
            index_bytes = sum(node.table(key).index_bytes() for node in self.shards)
            report.append({"table": table_name, "records": records,
                           "data_bytes": data_bytes, "index_bytes": index_bytes,
                           "total_bytes": data_bytes + index_bytes})
        return report

    def statistics(self) -> dict[str, Any]:
        """The ``site_statistics()["cluster"]`` payload."""
        per_shard = [
            {"shard": node.shard_id,
             "rows": sum(node.row_count(key) for key in self.table_keys()),
             "epoch": node.database.epoch}
            for node in self.shards]
        payload: dict[str, Any] = {
            "shards": self.shard_count,
            "partition": self.scheme,
            "placements": {key: self.placements[key].describe()
                           for key in self.table_keys()},
            "per_shard": per_shard,
            "epoch": self.epoch,
            "gather": {
                "tables_materialized": len(self._gathered),
                "gathers": self.gather_count,
                "invalidations": self.gather_invalidations,
                "rows_gathered": self.rows_gathered,
            },
        }
        if self._executor is not None:
            payload.update(self._executor.statistics())
        return payload


def prune_with_statistics(cluster: ShardCluster | ShardRelease, table_name: str,
                          column: str, low: Any, high: Any) -> set[int]:
    """Shards whose ANALYZE min/max for ``column`` intersect [low, high].

    This is the statistics-driven half of partition pruning: even when a
    predicate is not on the partition column, a shard whose observed
    value range is disjoint from the predicate's range cannot contribute
    rows.  Shards without statistics — or with *stale* statistics, i.e.
    any DML since the snapshot, which could have introduced values
    outside the recorded min/max — are conservatively kept.
    """
    survivors: set[int] = set()
    column = column.lower()
    for node in cluster.shards:
        table = node.table(table_name)
        statistics = node.database.table_statistics(table_name)
        if statistics is None or statistics.is_stale(table):
            survivors.add(node.shard_id)
            continue
        column_stats = statistics.column(column)
        if column_stats is None:
            survivors.add(node.shard_id)
            continue
        minimum, maximum = column_stats.minimum, column_stats.maximum
        if minimum is None or maximum is None:
            # Only NULLs (or no rows at all) at snapshot time: no
            # comparison predicate can match any of this shard's rows.
            continue
        try:
            if low is not None and low is not NULL and maximum < low:
                continue
            if high is not None and high is not NULL and minimum > high:
                continue
        except TypeError:
            survivors.add(node.shard_id)
            continue
        survivors.add(node.shard_id)
    return survivors
