"""Durable storage: fast reopen and the online DR1→DR2 release flip.

Section 8 of "When Database Systems Meet the Grid" describes the
operational side of SkyServer: the archive must survive restarts
without re-running the export pipeline, and a new data release goes
online while the old one keeps answering queries.  PR 9 adds the
durable segment format (checkpoints preserve encodings and zone maps,
so reopening is a header parse plus lazy reads) and the
``load_release`` flip, and this benchmark gates both:

* **reopen speedup** — reopening a checkpointed server from disk must
  be >= 5x faster than rebuilding the same database through the
  schema → loader path from the already-generated survey.  Reopening
  never re-encodes a column store and never rebuilds an index from
  scratch — it parses headers and replays an empty WAL tail.
* **online flip** — while a pooled server ingests and flips to a new
  release, every concurrently submitted query must succeed (queries
  admitted before the flip finish on the segments they hold; queries
  admitted after see the new release; none fail), and the twenty
  data-mining queries must return byte-identical rows before and
  after a flip to an identical release.
* **durable writes cost what they change** — three ratios, so the gate
  holds on any host: a durable single insert into the 148-column
  PhotoObj column store costs at most 1.5x a non-durable one (the row
  is one schema-driven WAL frame); a checkpoint after 300 changed rows
  costs at most 0.35x a cold checkpoint of the same database (tables
  and sealed segments that did not change are written from the bytes
  the last checkpoint encoded); and the WAL writes at most half the
  bytes per row the generic tagged codec writes for that row.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time

from conftest import print_report
from repro.bench import ExperimentReport
from repro.engine import Database
from repro.engine.durable import DurabilityManager
from repro.loader import load_release_database
from repro.skyserver import SkyServer
from repro.storage import encode_value

#: Reopen must beat the loader path by at least this factor.
REOPEN_SPEEDUP_FLOOR = 5.0

#: A durable single insert may cost at most this much a plain one.
DURABLE_INSERT_CEILING = 1.5
#: Pairs of 100-insert blocks, one plain and one durable, whose
#: per-pair ratios' median is gated.
PAIRED_BLOCKS = 7
#: A checkpoint after a write round may cost at most this much a cold one.
WARM_CHECKPOINT_CEILING = 0.35
#: WAL bytes per row at most this much the generic codec's record.
WAL_BYTES_CEILING = 0.5

#: Queries pumped through the pool while the release flip runs: an
#: index lookup, a selective scan and an aggregate, with a rotating
#: predicate so the result cache cannot absorb the load.
FLIP_LOAD_SQL = [
    "select count(*) as n from PhotoObj where htmid % 97 = {k}",
    "select objid, ra, dec from PhotoObj where objid % 997 = {k} "
    "order by objid asc",
    "select count(*) as n, min(z) as zmin from SpecObj where specobjid % 53 = {k}",
]


def _loader_path_seconds(output) -> tuple[float, object]:
    """Time the full schema -> loader rebuild of the bench survey."""
    started = time.perf_counter()
    database, _report = load_release_database(output, columnar=True)
    return time.perf_counter() - started, database


def test_durable_reopen_speedup_gate(bench_survey):
    """Reopening a checkpoint must be >= 5x faster than reloading."""
    root = tempfile.mkdtemp(prefix="bench-durable-")
    try:
        load_seconds, database = _loader_path_seconds(bench_survey)
        photoobj_rows = database.table("PhotoObj").row_count
        manager = DurabilityManager.attach(database, root)
        stats = manager.statistics()
        manager.close()

        open_seconds = float("inf")
        for _attempt in range(2):  # best-of-2 shields the gate from noise
            started = time.perf_counter()
            reopened = DurabilityManager.open(root)
            open_seconds = min(open_seconds, time.perf_counter() - started)
            assert (reopened.database.table("PhotoObj").row_count
                    == photoobj_rows)
            # The reopened store still answers queries (lazy segment reads).
            total = sum(
                1 for _ in reopened.database.table("PhotoObj").iter_rows())
            assert total == photoobj_rows
            reopened.close()

        speedup = load_seconds / max(open_seconds, 1e-9)
        report = ExperimentReport(
            "Durable reopen vs. loader rebuild",
            "Checkpointed on-disk segments reopen as a header parse plus "
            "lazy reads; the loader path re-runs schema creation, ingest, "
            "index builds and statistics.")
        report.add("loader rebuild", "minutes at archive scale",
                   f"{load_seconds:.2f}", unit="s")
        report.add("durable reopen", "seconds", f"{open_seconds:.2f}",
                   unit="s")
        report.add("reopen speedup", f">= {REOPEN_SPEEDUP_FLOOR:.0f}x",
                   f"{speedup:.1f}x")
        report.add("on-disk size", "n/a",
                   f"{stats['on_disk_bytes'] / 1e6:.1f}", unit="MB")
        print_report(report)
        assert speedup >= REOPEN_SPEEDUP_FLOOR, (
            f"reopen only {speedup:.1f}x faster than the loader path "
            f"(floor {REOPEN_SPEEDUP_FLOOR}x)")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _fig13_fingerprint(server: SkyServer) -> dict[str, str]:
    """Byte-exact answers of the twenty data-mining queries."""
    fingerprint = {}
    for execution in server.run_all_data_mining_queries():
        fingerprint[execution.query_id] = repr(execution.result.rows)
    return fingerprint


def test_online_release_flip_gate(bench_survey):
    """Zero failed queries during the flip; fig13 byte-identical."""
    root = tempfile.mkdtemp(prefix="bench-flip-")
    server = None
    try:
        database, _report = load_release_database(bench_survey, columnar=True)
        server = SkyServer(database)
        server.survey_output = bench_survey
        server.make_durable(root)
        pool = server.start_pool(workers=4)

        before = _fig13_fingerprint(server)

        import threading

        flip_info = {}

        def _flip():
            # Same survey output -> an identical release: the flip
            # machinery runs for real, and correctness is byte-exact.
            flip_info.update(server.load_release(bench_survey))

        flipper = threading.Thread(target=_flip, name="release-flip")
        submitted = 0
        failed: list[str] = []
        flip_started = time.perf_counter()
        flipper.start()
        k = 0
        while flipper.is_alive():
            tickets = []
            for template in FLIP_LOAD_SQL:
                sql = template.format(k=k % 89)
                tickets.append((sql, pool.submit(sql)))
                submitted += 1
            k += 1
            for sql, ticket in tickets:
                try:
                    ticket.result(timeout=60)
                except Exception as exc:  # noqa: BLE001 - gate counts failures
                    failed.append(f"{sql!r}: {exc}")
        flipper.join()
        flip_seconds = time.perf_counter() - flip_started

        after = _fig13_fingerprint(server)
        mismatched = [qid for qid in before if before[qid] != after.get(qid)]

        report = ExperimentReport(
            "Online data release flip under load",
            "A pooled server ingests a new release into fresh segments and "
            "atomically swaps serving tables; admitted queries keep the "
            "segments they hold, so none fail.")
        report.add("flip wall time", "hours at archive scale",
                   f"{flip_seconds:.2f}", unit="s")
        report.add("queries during flip", "> 0", str(submitted))
        report.add("failed queries", "0", str(len(failed)))
        report.add("fig13 mismatches after flip", "0", str(len(mismatched)))
        report.add("serving release", "2", str(flip_info.get("release")))
        report.add("checkpointed after flip", "True",
                   str(flip_info.get("checkpointed")))
        print_report(report)

        assert submitted > 0, "the flip finished before any query ran"
        assert not failed, f"{len(failed)} queries failed during the flip: " \
                           f"{failed[:3]}"
        assert not mismatched, (
            f"fig13 answers changed across an identical-release flip: "
            f"{mismatched}")
        assert flip_info.get("release") == 2
        assert flip_info.get("checkpointed") is True
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(root, ignore_errors=True)


def _fresh_photo_rows(table, count: int, start: int) -> list[dict]:
    """``count`` copies of a loaded PhotoObj row under new object ids."""
    _row_id, template = next(table.storage.iter_rows())
    rows = []
    for key in range(start, start + count):
        row = dict(template)
        row["objid"] = key
        rows.append(row)
    return rows


def _best_block(run, blocks: int = 3) -> float:
    best = float("inf")
    for block in range(blocks):
        started = time.perf_counter()
        run(block)
        best = min(best, time.perf_counter() - started)
    return best


def _forget_encodings(manager: DurabilityManager) -> None:
    """Make the next checkpoint cold: no table payload or sealed-segment
    encoding of an earlier checkpoint is left to reuse."""
    manager._payloads.clear()
    manager._statistics_payload = None
    for table in manager.database.tables.values():
        if table.storage.kind == "column":
            for segment in table.storage.segments():
                segment.encoded = None


def test_durable_write_path_gate(bench_survey):
    """Durable insert <= 1.5x plain; warm checkpoint <= 0.35x cold; WAL
    bytes per row <= 0.5x the generic codec's."""
    root = tempfile.mkdtemp(prefix="bench-durable-writes-")
    try:
        # Plain and durable inserts go to two loads of one survey in
        # alternating blocks, so a drift in the host's speed moves both
        # sides of each block pair's ratio alike.
        plain_database, _report = load_release_database(bench_survey,
                                                         columnar=True)
        database, _report = load_release_database(bench_survey, columnar=True)
        photo = database.table("PhotoObj")
        assert len(photo.columns) == 148
        manager = DurabilityManager.attach(database, root)
        next_key = [10 ** 15]

        def inserts(target: Database, count: int = 100) -> None:
            table = target.table("PhotoObj")
            for row in _fresh_photo_rows(table, count, next_key[0]):
                table.insert(row, database=target)
            next_key[0] += count

        def timed_block(target: Database) -> float:
            started = time.perf_counter()
            inserts(target)
            return time.perf_counter() - started

        plain_blocks, durable_blocks = [], []
        for pair in range(PAIRED_BLOCKS):
            # Each side runs first in every other pair.
            if pair % 2:
                durable_blocks.append(timed_block(database))
                plain_blocks.append(timed_block(plain_database))
            else:
                plain_blocks.append(timed_block(plain_database))
                durable_blocks.append(timed_block(database))
        insert_ratio = statistics.median(
            durable_s / plain_s
            for plain_s, durable_s in zip(plain_blocks, durable_blocks))
        plain = statistics.median(plain_blocks)
        durable = statistics.median(durable_blocks)
        del plain_database

        # WAL bytes of one insert against the generic record of its row.
        wal_before = manager.wal.size()
        (row,) = _fresh_photo_rows(photo, 1, next_key[0])
        next_key[0] += 1
        photo.insert(row, database=database)
        frame_bytes = manager.wal.size() - wal_before
        generic_bytes = 12 + len(encode_value(
            {"row": photo._prepare_row(row), "op": "insert", "table": "PhotoObj"}))

        def write_round(_block: int) -> None:
            manager.checkpoint()
            for _batch in range(2):
                inserts(database)
                bulk = _fresh_photo_rows(photo, 50, next_key[0])
                next_key[0] += 50
                photo.insert_many(bulk, database=database)
            victims = {bulk_row["objid"] for bulk_row in bulk}
            photo.delete_where(lambda row: row["objid"] in victims)

        warm = float("inf")
        for block in range(3):
            write_round(block)
            started = time.perf_counter()
            manager.checkpoint()
            warm = min(warm, time.perf_counter() - started)

        def cold_checkpoint(_block: int) -> None:
            _forget_encodings(manager)
            manager.checkpoint()
        cold = _best_block(cold_checkpoint)
        on_disk = manager.statistics()["on_disk_bytes"]
        manager.close()

        report = ExperimentReport(
            "Durable writes cost what they change",
            "Each DML statement is one schema-driven WAL frame, and a "
            "checkpoint writes unchanged tables and sealed segments from "
            "the bytes the last checkpoint encoded.")
        report.add("plain insert", "n/a", f"{plain / 100 * 1e6:.0f}", unit="us")
        report.add("durable insert", "n/a", f"{durable / 100 * 1e6:.0f}", unit="us")
        report.add("durable / plain insert (median of paired blocks)",
                   f"<= {DURABLE_INSERT_CEILING}x", f"{insert_ratio:.2f}x")
        report.add("checkpoint after 300 rows", "n/a", f"{warm * 1e3:.1f}", unit="ms")
        report.add("cold checkpoint", "n/a", f"{cold * 1e3:.1f}", unit="ms")
        report.add("warm / cold checkpoint", f"<= {WARM_CHECKPOINT_CEILING}x",
                   f"{warm / cold:.2f}x")
        report.add("WAL bytes per row", "n/a", str(frame_bytes), unit="B")
        report.add("generic codec bytes per row", "n/a", str(generic_bytes), unit="B")
        report.add("WAL / generic bytes", f"<= {WAL_BYTES_CEILING}x",
                   f"{frame_bytes / generic_bytes:.2f}x")
        report.add("on-disk size", "n/a", f"{on_disk / 1e6:.1f}", unit="MB")
        print_report(report)

        assert insert_ratio <= DURABLE_INSERT_CEILING, (
            f"a durable insert costs {insert_ratio:.2f}x a plain one "
            f"(ceiling {DURABLE_INSERT_CEILING}x)")
        assert warm <= WARM_CHECKPOINT_CEILING * cold, (
            f"a checkpoint after 300 changed rows costs {warm / cold:.2f}x "
            f"a cold one (ceiling {WARM_CHECKPOINT_CEILING}x)")
        assert frame_bytes <= WAL_BYTES_CEILING * generic_bytes, (
            f"{frame_bytes} WAL bytes per row against the generic codec's "
            f"{generic_bytes} (ceiling {WAL_BYTES_CEILING}x)")
    finally:
        shutil.rmtree(root, ignore_errors=True)
