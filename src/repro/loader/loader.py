"""The SkyServer loader: orchestrates load steps, events, validation and UNDO.

"From the SkyServer administrator's perspective, the main task is data
loading — which includes data validation ... we wanted this loading
process to be as automatic as possible." (paper §9.4)

``SkyServerLoader`` loads a pipeline output (in-memory tables or a CSV
directory) into a schema database in dependency order, records one
loadEvents row per step, optionally rebuilds the standard index set and
the Neighbors materialised view, runs the validation pass, and exposes
UNDO for any step.  Timing of the steps feeds the load-throughput
benchmark (the paper reports ≈5 GB/hour, conversion-bound).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from ..engine import Database
from ..pipeline.survey import PipelineOutput
from ..schema.build import table_load_order
from ..schema.indices import create_indices
from ..schema.neighbors import compute_neighbors
from .events import (LoadEventLog, STATUS_FAILED, STATUS_SUCCESS)
from .steps import LoadStep, LoadStepResult, steps_from_directory, steps_from_tables
from .undo import undo_load_event
from .validate import ValidationReport, validate_database


@dataclass
class LoadReport:
    """Summary of one full load run."""

    step_results: list[LoadStepResult] = field(default_factory=list)
    event_ids: list[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    indices_created: int = 0
    neighbor_pairs: int = 0
    #: Tables converted to column-oriented storage after the load.
    columnar_tables: int = 0
    #: Tables whose optimizer statistics were collected after the load.
    tables_analyzed: int = 0
    #: Shard count and partition scheme when the load built a cluster.
    shards: int = 1
    partition: Optional[str] = None
    #: The built :class:`~repro.cluster.ShardCluster` (``shards > 1``).
    cluster: Optional[object] = None
    validation: Optional[ValidationReport] = None

    @property
    def succeeded(self) -> bool:
        steps_ok = all(result.succeeded for result in self.step_results)
        validation_ok = self.validation.ok if self.validation is not None else True
        return steps_ok and validation_ok

    @property
    def rows_loaded(self) -> int:
        return sum(result.inserted_rows for result in self.step_results)

    @property
    def bytes_loaded(self) -> int:
        return sum(result.data_bytes for result in self.step_results)

    def throughput_mb_per_s(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.bytes_loaded / 1.0e6 / self.elapsed_seconds

    def summary(self) -> str:
        status = "OK" if self.succeeded else "FAILED"
        return (f"load {status}: {self.rows_loaded} rows / "
                f"{self.bytes_loaded / 1.0e6:.1f} MB in {self.elapsed_seconds:.2f} s "
                f"({self.throughput_mb_per_s():.1f} MB/s), "
                f"{self.indices_created} indices, {self.neighbor_pairs} neighbour pairs")


class SkyServerLoader:
    """Loads survey pipeline output into a SkyServer schema database.

    With ``columnar=True`` the loaded tables (and the derived Neighbors
    table) of a single-node load are converted to column-oriented
    storage at the very end of the run — after index builds, the
    neighbor computation and validation, which are
    point-lookup/row-iteration heavy — so the scan-heavy query workload
    that follows runs through the engine's vectorized batch pipeline.
    Loading itself stays row-at-a-time — the row store is the
    write-optimised path.  A sharded load's shards are column stores
    whatever ``columnar`` says (:meth:`ShardCluster.from_database`).
    """

    def __init__(self, database: Database, *, columnar: bool = False,
                 analyze: bool = True, shards: int = 1,
                 partition: str = "hash"):
        self.database = database
        self.columnar = columnar
        #: Collect optimizer statistics (ANALYZE) for every loaded table
        #: — including the derived Neighbors table — once the load
        #: succeeds, so the cost-based planner never sees a freshly
        #: loaded table without statistics.
        self.analyze = analyze
        #: With ``shards > 1`` the fully loaded (indexed, neighbor-built,
        #: validated, analyzed) database is partitioned across that many
        #: in-process shard nodes at the very end of the run; the
        #: resulting :class:`~repro.cluster.ShardCluster` is exposed on
        #: the load report (and on :attr:`cluster`).
        self.shards = shards
        self.partition = partition
        self.cluster = None
        self.events = LoadEventLog(database)

    # -- entry points --------------------------------------------------------

    def load_pipeline_output(self, output: PipelineOutput, *,
                             build_indices: bool = True,
                             build_neighbors: bool = True,
                             validate: bool = True,
                             enforce_foreign_keys: bool = True) -> LoadReport:
        """Load a pipeline run directly from memory."""
        steps = steps_from_tables(output.tables, table_load_order())
        return self.run_steps(steps, build_indices=build_indices,
                              build_neighbors=build_neighbors, validate=validate,
                              enforce_foreign_keys=enforce_foreign_keys)

    def load_directory(self, directory: Path, *,
                       build_indices: bool = True,
                       build_neighbors: bool = True,
                       validate: bool = True,
                       enforce_foreign_keys: bool = True) -> LoadReport:
        """Load from a directory of ``<table>.csv`` files (the DTS hand-off)."""
        steps = steps_from_directory(Path(directory), table_load_order())
        return self.run_steps(steps, build_indices=build_indices,
                              build_neighbors=build_neighbors, validate=validate,
                              enforce_foreign_keys=enforce_foreign_keys)

    # -- the load loop ----------------------------------------------------------

    def run_steps(self, steps: Sequence[LoadStep], *,
                  build_indices: bool = True,
                  build_neighbors: bool = True,
                  validate: bool = True,
                  stop_on_failure: bool = True,
                  enforce_foreign_keys: bool = True) -> LoadReport:
        report = LoadReport()
        started = time.perf_counter()
        for step in steps:
            result, event_id = self.run_step(step, enforce_foreign_keys=enforce_foreign_keys)
            report.step_results.append(result)
            report.event_ids.append(event_id)
            if not result.succeeded and stop_on_failure:
                break
        if all(result.succeeded for result in report.step_results):
            if build_indices:
                report.indices_created = create_indices(self.database)
            if build_neighbors and self.database.has_table("Neighbors"):
                report.neighbor_pairs = compute_neighbors(self.database)
            if validate:
                report.validation = validate_database(self.database)
            loaded_names = [result.table_name for result in report.step_results]
            if build_neighbors and self.database.has_table("Neighbors"):
                loaded_names.append("Neighbors")
            loaded_names = list(dict.fromkeys(loaded_names))
            if self.columnar and self.shards <= 1:
                # Convert last: index builds, the neighbor computation and
                # validation are point-lookup/row-iteration heavy — the row
                # store's strength — while everything after the load is
                # scan-heavy query traffic.  The derived Neighbors table
                # converts too.  (A sharded load's shards are always
                # column stores, below.)
                for name in loaded_names:
                    self.database.table(name).convert_storage("column")
                    report.columnar_tables += 1
            if self.analyze:
                # Statistics come last so they see the final storage
                # layout (after neighbours, UNDO-free data and any
                # columnar conversion).  A sharded load keeps these
                # full-data snapshots: the distributed planner costs
                # against them after the rows move to the shards.
                for name in loaded_names:
                    self.database.analyze_table(name)
                    report.tables_analyzed += 1
            if self.shards > 1:
                from ..cluster import ShardCluster

                self.cluster = ShardCluster.from_database(
                    self.database, shards=self.shards,
                    partition=self.partition, analyze=self.analyze)
                report.cluster = self.cluster
                report.shards = self.shards
                report.partition = self.partition
                report.columnar_tables = len(loaded_names)
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def run_step(self, step: LoadStep, *,
                 enforce_foreign_keys: bool = True) -> tuple[LoadStepResult, int]:
        """Execute one load step under a loadEvents record."""
        event_id = self.events.start(step.table_name, step.source, len(step.rows))
        result = step.execute(self.database, enforce_foreign_keys=enforce_foreign_keys)
        self.events.finish(
            event_id,
            inserted_rows=result.inserted_rows,
            status=STATUS_SUCCESS if result.succeeded else STATUS_FAILED,
            message=result.error,
        )
        return result, event_id

    # -- operator actions ----------------------------------------------------------

    def undo(self, event_id: int) -> int:
        """The operations-interface UNDO button for one load step."""
        return undo_load_event(self.database, self.events, event_id)

    def load_events(self) -> list:
        """The loadEvents view the web operations page displays."""
        return self.events.events()


def load_release_database(output: PipelineOutput, *,
                          columnar: bool = False,
                          shards: int = 1,
                          partition: str = "hash",
                          analyze: bool = True,
                          build_neighbors: bool = True
                          ) -> tuple[Database, LoadReport]:
    """Load one pipeline release into a brand-new schema database.

    The standalone ingest behind online data releases: a fresh catalog
    with the full SkyServer schema, populated, indexed, validated and
    (optionally) analyzed, without touching any serving database.  The
    report's ``cluster`` is set when ``shards > 1``.
    """
    from ..schema.build import create_skyserver_database

    database = create_skyserver_database(with_indices=False)
    loader = SkyServerLoader(database, columnar=columnar, analyze=analyze,
                             shards=shards, partition=partition)
    report = loader.load_pipeline_output(output,
                                         build_neighbors=build_neighbors)
    if not report.succeeded:
        failures = [result.error for result in report.step_results
                    if not result.succeeded]
        raise RuntimeError("release load failed: " + "; ".join(failures))
    return database, report
