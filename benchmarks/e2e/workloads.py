"""The five workloads of the SkyServer benchmark.

Every workload runs the same lifecycle on its own freshly built server:
set-up (generate, load, attach, warm up) -> read phase (the workload's
own traffic) -> write burst -> answer and state checks.  The workloads
differ in the server configuration and the read traffic, which is what
decides the layers that do the work; ``README.md`` has the table.

All work is sized by *count*, in proportion to ``--seconds``, so the
program's own counters (cache hits, WAL bytes) repeat run to run.  The
data seed is fixed: ``--seed`` drives only the request streams and the
statement order, and the program sees only the generated SQL and rows.

Every reported time is *reference* time (``harness.SpeedMeter``): wall
time divided by how slow a fixed loop ran beside it, because the host's
speed drifts by tens of percent within a run.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.engine import SqlSession
from repro.loader import load_release_database
from repro.pipeline import OBJECTS_PER_SQ_DEG, SurveyConfig, SyntheticSurvey
from repro.skyserver import (ClusterConfig, PoolConfig, ServerConfig, SkyServer,
                             StorageConfig)
from repro.skyserver.queries import DATA_MINING_QUERIES

from harness import (REFERENCE_KERNEL_S, SpanRecorder, SpeedMeter, Zipf, fingerprint,
                     geometric_mean, highest_supported_percentile, median, percentile)
from manifest import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
GOLDEN_PATH = os.path.join(HERE, "golden_fig13.json")

#: The survey every workload loads.  The seed is fixed because the
#: golden answers depend on it.  The density is a quarter of the
#: generator's default (4.3k PhotoObj rows: one sealed 4096-row segment
#: plus a tail per column) because the driver's time cap leaves 30 s per
#: run, set-up included; see README "What was cut".
DATA_SEED = 2002
DENSITY_FRACTION = 0.25
SMOKE_DENSITY_FRACTION = 0.04

#: Statements that are ~80 % of the suite's time; ``fig13.light_s`` leaves them out.
HEAVY_FIVE = frozenset({"Q10A", "Q13", "Q15B", "Q18", "Q20"})

WRITER_PERIOD_S = 0.020
CHECKED_STATEMENTS = 60
#: The burst is half a second long: it samples the machine's speed
#: every 50 ms, not the read phases' 100 ms.
BURST_SAMPLE_GAP_S = 0.050
JOIN_TIMEOUT_S = 150.0

Interval = tuple[float, float]


def survey_config(smoke: bool) -> SurveyConfig:
    fraction = SMOKE_DENSITY_FRACTION if smoke else DENSITY_FRACTION
    return SurveyConfig(scale=0.001, seed=DATA_SEED,
                        density_per_sq_deg=OBJECTS_PER_SQ_DEG * fraction)


# ---------------------------------------------------------------------------
# One run's bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """State of one benchmark run: arguments, tallies and results."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    started: float                      # perf_counter at process start
    meter: SpeedMeter = field(default_factory=SpeedMeter)
    recorder: SpanRecorder = field(default_factory=SpanRecorder)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    setup_ended: float = 0.0

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a false ``ok`` is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def count(self, per_second: float, *, floor: int, smoke: int) -> int:
        """Work sized in proportion to ``--seconds``."""
        if self.smoke:
            return smoke
        return max(floor, round(self.seconds * per_second))

    def scratch_dir(self) -> str:
        path = os.path.join(OUT_DIR, f"tmp-{self.workload}-{os.getpid()}")
        os.makedirs(path, exist_ok=True)
        return path

    def reference(self, interval: Interval) -> float:
        """The interval's length in reference seconds."""
        return self.meter.reference_seconds(*interval)


@dataclass
class Reads:
    """What a read phase measured (intervals are wall ``(start, end)``)."""

    #: Per statement class, in completion order.  A class is a fig13
    #: statement id, or a request kind, or ``hit`` for a request the
    #: result cache served (any kind: a hit costs the same).
    by_class: dict[str, list[Interval]] = field(default_factory=dict)
    by_kind: dict[str, list[Interval]] = field(default_factory=dict)
    #: The same, split by whether the span recorder was on for the block.
    traced: dict[str, list[Interval]] = field(default_factory=dict)
    untraced: dict[str, list[Interval]] = field(default_factory=dict)
    blocks: list[Interval] = field(default_factory=list)
    requests: int = 0
    fixed_suite: bool = False
    first_span: int = 0
    traced_requests: int = 0
    # result-side counters
    executed: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    batch_executions: int = 0
    segments_scanned: int = 0
    segments_skipped: int = 0
    plan_cache_hits: int = 0
    cache_hits: int = 0
    queue_waits: list[Interval] = field(default_factory=list)
    services: list[Interval] = field(default_factory=list)
    last_result: dict[str, Any] = field(default_factory=dict)
    warmup_pass: Interval = (0.0, 0.0)

    def add(self, kind: str, hit: bool, interval: Interval, traced: bool) -> None:
        label = "hit" if hit else kind
        self.by_class.setdefault(label, []).append(interval)
        self.by_kind.setdefault(kind, []).append(interval)
        (self.traced if traced else self.untraced).setdefault(label, []).append(interval)
        self.requests += 1
        self.traced_requests += traced
        self.cache_hits += hit

    def note_result(self, kind: str, result: Any) -> None:
        """Counters of one *executed* (not cache-served) statement."""
        stats = result.statistics
        self.executed += 1
        self.rows_scanned += getattr(stats, "rows_scanned", 0)
        self.rows_returned += len(result.rows)
        self.batch_executions += bool(getattr(stats, "batches_processed", 0))
        self.segments_scanned += getattr(stats, "segments_scanned", 0)
        self.segments_skipped += getattr(stats, "segments_skipped", 0)
        self.last_result[kind] = result


def class_medians(run: Run, classes: dict[str, list[Interval]]) -> dict[str, float]:
    """Median reference seconds per statement class."""
    return {label: median([run.reference(interval) for interval in intervals])
            for label, intervals in classes.items()}


def suite_seconds(medians: dict[str, float], *, skip: frozenset = frozenset()) -> float:
    """Sum over statements of that statement's median: steadier than a
    median of pass sums, whose single passes wander."""
    return sum(value for label, value in medians.items() if label not in skip)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def build_server(run: Run, config: ServerConfig):
    """``SkyServer.create(config)`` spelled out with the same public
    calls, so the load is timed on its own (``LoadReport``) and the
    request generator can read the survey it will ask about."""
    meter = run.meter
    meter.sample()
    output = SyntheticSurvey(config.survey).run()
    meter.sample()
    with run.recorder.span("loader.load"):
        database, report = load_release_database(
            output,
            columnar=config.storage.columnar,
            analyze=config.planner.analyze,
            shards=config.cluster.shards,
            partition=config.cluster.partition,
            build_neighbors=config.build_neighbors)
    meter.sample()
    server = SkyServer(database, limits=config.limits, site_name=config.site_name,
                       cluster=report.cluster, telemetry=config.telemetry)
    server.survey_output = output
    if config.storage.path is not None:
        server.make_durable(config.storage.path, fsync=config.storage.fsync)
    if config.pool.workers:
        server.start_pool(workers=config.pool.workers,
                          result_cache_size=config.pool.result_cache_size,
                          parallelism=config.planner.parallelism)
    meter.sample()
    return server, report, output


def end_setup(run: Run) -> None:
    """Set-up ends where the first timed read begins; every run enters
    its read phase with the load's garbage already collected."""
    gc.collect()
    run.meter.sample()
    run.setup_ended = time.perf_counter()
    run.recorder.enabled = False


# ---------------------------------------------------------------------------
# Read phase: the Figure-13 suite, one client, straight through server.query()
# ---------------------------------------------------------------------------

def golden_data_key() -> dict:
    """What the committed answer hashes were made from."""
    config = survey_config(smoke=False)
    return {"seed": config.seed, "scale": config.scale,
            "density_fraction": DENSITY_FRACTION}


def load_golden(run: Run) -> Optional[dict[str, str]]:
    """The committed answer hashes for this workload, or None when they
    were made from other data (``--smoke``): the run then checks every
    pass against its own warm-up pass."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    if run.smoke or golden["data"] != golden_data_key():
        return None
    answers = dict(golden["answers"])
    answers.update(golden["overrides"].get(run.workload, {}))
    return answers


def read_fig13(run: Run, server: SkyServer, passes_per_second: float) -> Reads:
    statements = [(query.query_id, query.sql) for query in DATA_MINING_QUERIES]
    reads = Reads(fixed_suite=True)
    recorder, meter = run.recorder, run.meter

    # Warm-up pass: fills the plan cache (the 22 statements fit its 128
    # entries) and, on shards, pays the one-off data-shipping gather.
    started = time.perf_counter()
    warm = {qid: fingerprint(server.query(sql).rows) for qid, sql in statements}
    reads.warmup_pass = (started, time.perf_counter())
    expected = load_golden(run) or warm
    for qid, _sql in statements:
        run.check(warm[qid] == expected[qid], f"warm-up {qid} answer differs from golden")

    passes = run.count(passes_per_second, floor=3, smoke=2)
    rng = random.Random(run.seed)
    end_setup(run)
    reads.first_span = len(recorder.spans)
    request_id = 0
    for pass_index in range(passes):
        order = list(statements)
        rng.shuffle(order)
        recorder.enabled = run.trace and pass_index % 2 == 0
        pass_started = time.perf_counter()
        for qid, sql in order:
            meter.sample_if_stale()
            request_id += 1
            result = None
            with recorder.span("request", request=request_id):
                begun = time.perf_counter()
                try:
                    result = server.query(sql)
                except Exception as error:  # a failed statement is a failed operation
                    run.check(False, f"{qid} raised {type(error).__name__}: {error}")
                ended = time.perf_counter()
            if result is None:
                continue
            reads.add(qid, False, (begun, ended), recorder.enabled)
            reads.note_result(qid, result)
            reads.plan_cache_hits += getattr(result.statistics, "plan_cache_hits", 0)
            run.check(fingerprint(result.rows) == expected[qid],
                      f"{qid} answer differs from golden")
        reads.blocks.append((pass_started, time.perf_counter()))
    meter.sample()
    recorder.enabled = False
    return reads


# ---------------------------------------------------------------------------
# Read phase: a seeded request stream through the pool, closed loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    sql: str


#: Figure-5 public traffic: share of each request kind.
WEB_MIX = (("cone", 0.40), ("explore", 0.25), ("colour", 0.15),
           ("topn", 0.10), ("rect", 0.10))
#: The same kinds plus a group-by that every write invalidates.
INGEST_MIX = (("cone", 0.35), ("explore", 0.25), ("colour", 0.15),
              ("topn", 0.10), ("rect", 0.10), ("bytype", 0.05))


def make_requests(output, seed: int, count: int, mix) -> list[Request]:
    """``count`` requests drawn from ``mix``: positions Zipf(1.1) over up
    to 2,000 sampled objects, magnitude cuts Zipf(1.1) over 100 values."""
    rng = random.Random(seed)
    photo = output.tables["PhotoObj"]
    objects = rng.sample(photo, min(2000, len(photo)))
    places = Zipf(len(objects))
    cuts = Zipf(100)
    # Exact shares, shuffled: a run's cost must not depend on how many
    # expensive requests its seed happened to draw.
    kinds = [kind for kind, share in mix for _ in range(round(count * share))]
    kinds += [mix[0][0]] * (count - len(kinds))
    rng.shuffle(kinds)
    requests = []
    for index, kind in enumerate(kinds[:count]):
        target = objects[places.draw(rng)]
        ra, dec = target["ra"], target["dec"]
        magnitude = 16.0 + 0.06 * cuts.draw(rng)
        if kind == "cone":
            sql = (f"select N.objID, N.distance "
                   f"from fGetNearbyObjEq({ra:.5f}, {dec:.5f}, 1.0) as N")
        elif kind == "explore":
            sql = f"select * from PhotoObj where objID = {target['objID']}"
        elif kind == "colour":
            sql = (f"select count(*) as n from Galaxy "
                   f"where modelMag_g - modelMag_r > 0.7 and modelMag_r < {magnitude:.2f}")
        elif kind == "topn":
            sql = (f"select top 50 objID, psfMag_r from Star "
                   f"where psfMag_r < {magnitude:.2f} order by psfMag_r")
        elif kind == "rect":
            sql = (f"select count(*) as n from PhotoObj "
                   f"where ra between {ra - 0.1:.4f} and {ra + 0.1:.4f} "
                   f"and dec between {dec - 0.1:.4f} and {dec + 0.1:.4f}")
        else:
            sql = "select type, count(*) as n from PhotoObj group by type"
        requests.append(Request(index, kind, sql))
    return requests


def _client(run: Run, pool, requests: list[Request], reads: Reads,
            lock: threading.Lock) -> None:
    """One closed-loop web user: the next page is asked for only once
    the previous one has arrived."""
    recorder = run.recorder
    for request in requests:
        ticket = result = None
        failure = ""
        with recorder.span("request", request=request.index) as span:
            begun = time.perf_counter()
            try:
                ticket = pool.submit(request.sql, "public")
                result = ticket.result(timeout=JOIN_TIMEOUT_S)
            except Exception as error:  # rejected, timed out or failed: all count
                failure = f"{request.kind} raised {type(error).__name__}: {error}"
            ended = time.perf_counter()
            if span is not None and result is not None:
                if ticket.started_at is None:      # served from the cache at the door
                    recorder.add("skyserver.pool.cache_hit", ticket.submitted_at,
                                 ticket.finished_at, span)
                else:
                    recorder.add("skyserver.pool.queue_wait", ticket.submitted_at,
                                 ticket.started_at, span)
                    recorder.add("skyserver.pool.service", ticket.started_at,
                                 ticket.finished_at, span)
                recorder.add("skyserver.pool.handoff", ticket.finished_at, ended, span)
        with lock:
            run.check(result is not None, failure)
            if result is None:
                continue
            reads.add(request.kind, ticket.cache_hit, (begun, ended), span is not None)
            if not ticket.cache_hit:
                reads.note_result(request.kind, result)
                reads.plan_cache_hits += ticket.plan_source == "cache"
            if ticket.started_at is not None:
                reads.queue_waits.append((ticket.submitted_at, ticket.started_at))
                reads.services.append((ticket.started_at, ticket.finished_at))


def serve_block(run: Run, pool, block: list[Request], clients: int, reads: Reads) -> None:
    lock = threading.Lock()
    threads = [threading.Thread(target=_client, name=f"client-{index}",
                                args=(run, pool, block[index::clients], reads, lock))
               for index in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
        run.check(not thread.is_alive(), "client thread did not finish")
    reads.blocks.append((started, time.perf_counter()))


def read_stream(run: Run, server: SkyServer, requests: list[Request], warmup: int,
                clients: int, block_size: int) -> Reads:
    """Warm up on a prefix of the stream, then serve the rest in blocks
    of about a quarter of a second, with a speed sample between blocks
    (the pool is idle then).  A traced run alternates traced and
    untraced blocks so both sample the whole stream (cache warmth
    drifts along it)."""
    pool = server.pool
    reads = Reads()
    serve_block(run, pool, requests[:warmup], clients, Reads())
    end_setup(run)
    reads.first_span = len(run.recorder.spans)
    for number, offset in enumerate(range(warmup, len(requests), block_size)):
        run.recorder.enabled = run.trace and number % 2 == 0
        serve_block(run, pool, requests[offset:offset + block_size], clients, reads)
        run.recorder.enabled = False
        run.meter.sample()
    return reads


def check_stream_answers(run: Run, server: SkyServer, requests: list[Request]) -> None:
    """One oracle for the pool workloads: 60 seeded distinct statements,
    asked of the pool again (cached entries included, so a stale entry
    shows) and of a fresh cache-less session, must agree."""
    limits = server.pool.service_classes["public"].limits
    oracle = SqlSession(server.database, row_limit=limits.max_rows,
                        time_limit_seconds=limits.max_seconds)
    distinct = sorted({request.sql for request in requests})
    random.Random(run.seed).shuffle(distinct)
    for sql in distinct[:CHECKED_STATEMENTS]:
        served = server.pool.execute(sql, "public", timeout=JOIN_TIMEOUT_S)
        run.check(fingerprint(served.rows) == fingerprint(oracle.query(sql).rows),
                  f"pool answer differs from a fresh session: {sql}")


# ---------------------------------------------------------------------------
# Writes
# ---------------------------------------------------------------------------

class Ledger:
    """Every acknowledged write, so the final state can be demanded."""

    def __init__(self, output):
        photo = output.tables["PhotoObj"]
        self.template = dict(photo[0])
        self.loaded = len(photo)
        self.first_fresh_id = max(row["objID"] for row in photo) + 1
        #: objIDs inserted and not deleted since.
        self.live: set[int] = set()
        self._next_id = self.first_fresh_id
        self._lock = threading.Lock()

    def fresh_rows(self, count: int) -> list[dict]:
        with self._lock:
            first = self._next_id
            self._next_id += count
        return [dict(self.template, objID=first + offset) for offset in range(count)]

    def inserted(self, rows: list[dict]) -> None:
        with self._lock:
            self.live.update(row["objID"] for row in rows)

    def deleted(self, rows: list[dict]) -> None:
        with self._lock:
            self.live.difference_update(row["objID"] for row in rows)


class PhotoWriter:
    """The write calls of whichever layout the server has: the cluster
    routes rows itself and has no bulk insert."""

    def __init__(self, server: SkyServer):
        self.server = server
        self.cluster = server.cluster
        self.table = None if self.cluster is not None else server.database.table("PhotoObj")

    def insert(self, row: dict) -> None:
        if self.cluster is not None:
            self.cluster.insert("PhotoObj", row)
        else:
            self.table.insert(row, database=self.server.database)

    def insert_many(self, rows: list[dict]) -> None:
        if self.cluster is not None:
            for row in rows:
                self.cluster.insert("PhotoObj", row)
        else:
            self.table.insert_many(rows, database=self.server.database)

    def delete(self, rows: list[dict]) -> int:
        victims = {row["objID"] for row in rows}

        def doomed(row: dict) -> bool:
            return row["objid"] in victims
        if self.cluster is not None:
            return self.cluster.delete_where("PhotoObj", doomed)
        return self.table.delete_where(doomed)


WRITE_ROUNDS = 3
WRITE_SPANS = {"insert": "engine.table.insert", "insert_many": "engine.table.insert_many",
               "delete_where": "engine.table.delete_where",
               "checkpoint": "skyserver.server.checkpoint"}


@dataclass
class Writes:
    inserts: list[Interval] = field(default_factory=list)
    rows: int = 0
    #: Per round: rows acknowledged and every operation's interval.
    rounds: list[tuple[int, list[Interval]]] = field(default_factory=list)
    checkpoints: list[Interval] = field(default_factory=list)
    wal_bytes: int = 0
    first_span: int = 0


def write_burst(run: Run, server: SkyServer, ledger: Ledger) -> Writes:
    """The writer alone, closed loop, in three equal rounds:
    ``server.checkpoint()`` (a no-op unless the server is durable), 200
    single inserts with an ``insert_many(50)`` after every 100, then a
    ``delete_where`` of the round's first bulk.
    Three rounds so the rate can be the median round's: a host hiccup
    spoils one."""
    singles = 10 if run.smoke else 200
    bulk_rows = 5 if run.smoke else 50
    recorder, meter = run.recorder, run.meter
    recorder.enabled = run.trace
    writer = PhotoWriter(server)
    writes = Writes(first_span=len(recorder.spans))

    def wal_bytes() -> int:
        stats = server.durability_statistics()
        return stats["wal_bytes"] if stats else 0

    gc.collect()
    for _round in range(WRITE_ROUNDS):
        # Checkpoint first: the last round's writes stay in the WAL tail,
        # which is what the crash reopen then has to replay.
        plan: list[tuple[str, list[dict]]] = [("checkpoint", [])]
        for index in range(singles):
            plan.append(("insert", ledger.fresh_rows(1)))
            if (index + 1) % (singles // 2) == 0:
                plan.append(("insert_many", ledger.fresh_rows(bulk_rows)))
        plan.append(("delete_where", plan[1 + singles // 2][1]))
        acknowledged = 0
        intervals: list[Interval] = []
        for op, rows in plan:
            meter.sample_if_stale(BURST_SAMPLE_GAP_S)
            ok = True
            with recorder.span(WRITE_SPANS[op]):
                begun = time.perf_counter()
                try:
                    if op == "insert":
                        writer.insert(rows[0])
                    elif op == "insert_many":
                        writer.insert_many(rows)
                    elif op == "delete_where":
                        ok = writer.delete(rows) == len(rows)
                    else:
                        server.checkpoint()
                except Exception as error:
                    run.check(False, f"{op} raised {type(error).__name__}: {error}")
                    continue
                interval = (begun, time.perf_counter())
            run.check(ok, f"{op} missed rows")
            intervals.append(interval)
            if op == "insert":
                writes.inserts.append(interval)
            if op == "checkpoint":
                writes.checkpoints.append(interval)
            elif op == "delete_where":
                ledger.deleted(rows)
            else:
                ledger.inserted(rows)
                acknowledged += len(rows)
        writes.wal_bytes += wal_bytes()      # the checkpoint began an empty WAL
        writes.rounds.append((acknowledged, intervals))
        writes.rows += acknowledged
    meter.sample()
    recorder.enabled = False
    return writes


class TrickleWriter(threading.Thread):
    """Open loop: one insert is due every ``WRITER_PERIOD_S`` of
    reference time (so the writer asks for the same share of the machine
    however fast the host runs just now) whether or not the last one is
    done.  How late each write started is kept."""

    def __init__(self, server: SkyServer, ledger: Ledger, meter: SpeedMeter):
        super().__init__(name="trickle-writer")
        self.meter = meter
        self.writer = PhotoWriter(server)
        self.ledger = ledger
        self.stop_event = threading.Event()
        self.lateness: list[float] = []
        self.errors: list[str] = []

    def run(self) -> None:
        due = time.perf_counter()
        while not self.stop_event.is_set():
            recent = self.meter.seconds[-3:]
            due += WRITER_PERIOD_S * (sum(recent) / len(recent)) / REFERENCE_KERNEL_S
            wait = due - time.perf_counter()
            if wait > 0 and self.stop_event.wait(wait):
                break
            rows = self.ledger.fresh_rows(1)
            begun = time.perf_counter()
            try:
                self.writer.insert(rows[0])
            except Exception as error:
                self.errors.append(f"trickle insert raised {type(error).__name__}: {error}")
                continue
            self.ledger.inserted(rows)
            self.lateness.append(begun - due)


# ---------------------------------------------------------------------------
# State checks
# ---------------------------------------------------------------------------

def check_state(run: Run, server: SkyServer, ledger: Ledger, where: str) -> None:
    """PhotoObj must hold the loaded rows plus exactly the acknowledged,
    undeleted inserts (compared by objID: the engine sums in floats)."""
    try:
        total = server.query("select count(*) as n from PhotoObj").rows[0]["n"]
        fresh = {row["id"] for row in server.query(
            f"select objID as id from PhotoObj where objID >= {ledger.first_fresh_id}").rows}
    except Exception as error:
        run.check(False, f"{where}: state query raised {type(error).__name__}: {error}")
        return
    run.check(total == ledger.loaded + len(ledger.live) and fresh == ledger.live,
              f"{where}: PhotoObj has {total} rows, {len(fresh)} of them written; the "
              f"ledger says {ledger.loaded + len(ledger.live)} and {len(ledger.live)}")


def crash_reopen(run: Run, server: SkyServer, ledger: Ledger, path: str) -> list[Interval]:
    """Process crash: copy the live directory *without* ``close()`` (the
    OS cache is intact; an OS crash needs fsync and is out of scope),
    reopen the copy, demand the ledger's state.  Returns the opens."""
    opens = []
    for attempt in range(3 if run.trace and not run.smoke else 1):
        copy = os.path.join(run.scratch_dir(), f"crash-{attempt}")
        shutil.copytree(path, copy)
        run.meter.sample()
        begun = time.perf_counter()
        try:
            reopened = SkyServer.open(copy)
        except Exception as error:
            run.check(False, f"reopen raised {type(error).__name__}: {error}")
            continue
        opens.append((begun, time.perf_counter()))
        run.meter.sample()
        try:
            check_state(run, reopened, ledger, "after crash reopen")
            run.per_layer["engine.durable.replayed_records"] = (
                reopened.durability_statistics()["wal_records_since_checkpoint"])
        finally:
            reopened.database.durability.close()
    return opens


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(run: Run, reads: Reads, writes: Writes) -> None:
    e2e = run.end_to_end
    medians = class_medians(run, reads.by_class)
    every = [run.reference(interval)
             for intervals in reads.by_class.values() for interval in intervals]
    if reads.fixed_suite:
        e2e["throughput_qps"] = len(medians) / suite_seconds(medians)
        # The three slowest statements, not the one: which of three
        # near-equal statements is slowest changes from run to run.
        e2e["latency_tail_ms"] = sum(sorted(medians.values())[-3:]) / 3.0 * 1000.0
        run.samples["latency_tail_ms"] = 3 * min(len(v) for v in reads.by_class.values())
    else:
        e2e["throughput_qps"] = reads.requests / sum(
            run.reference(block) for block in reads.blocks)
        e2e["latency_tail_ms"] = percentile(
            every, highest_supported_percentile(len(every))) * 1000.0
        run.samples["latency_tail_ms"] = len(every)
    e2e["setup_s"] = run.reference((run.started, run.setup_ended))
    e2e["latency_geomean_ms"] = geometric_mean(medians.values()) * 1000.0
    e2e["write_rows_per_s"] = median([
        rows / sum(run.reference(interval) for interval in intervals)
        for rows, intervals in writes.rounds])
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.samples.update(throughput_qps=reads.requests, latency_geomean_ms=reads.requests,
                       write_rows_per_s=writes.rows,
                       setup_s=1, peak_rss_mb=1)


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spec:
    """What distinguishes one workload: its server and its read traffic."""

    config: Callable[[SurveyConfig, Optional[str]], ServerConfig]
    #: fig13 passes, or pool requests, measured per second of ``--seconds``.
    rate: float
    mix: Optional[tuple] = None          # None: the Figure-13 suite
    clients: int = 1
    block_size: int = 0                  # requests between two speed samples
    #: Durable directory, a paced writer beside the reads, a crash reopen.
    ingest: bool = False
    parallel_probe: bool = False


SPECS: dict[str, Spec] = {
    "fig13_default": Spec(
        lambda survey, path: ServerConfig(survey=survey), rate=1.1),
    "fig13_columnar": Spec(
        lambda survey, path: ServerConfig(
            survey=survey, storage=StorageConfig(columnar=True)),
        rate=0.5, parallel_probe=True),
    "fig13_shards4": Spec(
        lambda survey, path: ServerConfig(
            survey=survey, storage=StorageConfig(columnar=True),
            cluster=ClusterConfig(shards=4, partition="hash")),
        rate=0.75),
    "web_mix": Spec(
        lambda survey, path: ServerConfig(survey=survey, pool=PoolConfig(workers=2)),
        rate=300.0, mix=WEB_MIX, clients=2, block_size=60),
    "ingest_durable": Spec(
        lambda survey, path: ServerConfig(
            survey=survey,
            storage=StorageConfig(columnar=True, path=path, fsync=False),
            pool=PoolConfig(workers=2)),
        rate=75.0, mix=INGEST_MIX, clients=1, block_size=12, ingest=True),
}


def run_workload(run: Run) -> None:
    """Run one workload start to finish, filling ``run``'s metrics."""
    spec = SPECS[run.workload]
    run.recorder.enabled = run.trace
    path = os.path.join(run.scratch_dir(), "live") if spec.ingest else None
    server = None

    def counters() -> dict:
        return {"locks": server.database.concurrency_statistics(),
                "pool": server.pool.statistics() if server.pool is not None else None}
    try:
        server, report, output = build_server(run, spec.config(survey_config(run.smoke), path))
        ledger = Ledger(output)
        disk_after_setup = None
        if spec.ingest:
            disk_after_setup = server.durability_statistics()["on_disk_bytes"]

        trickle = None
        before = counters()
        if spec.mix is None:
            reads = read_fig13(run, server, spec.rate)
        else:
            count = run.count(spec.rate, floor=200, smoke=120)
            warmup = count // 10
            requests = make_requests(output, run.seed, count + warmup, spec.mix)
            if spec.ingest:
                trickle = TrickleWriter(server, ledger, run.meter)
                trickle.start()
            try:
                reads = read_stream(run, server, requests, warmup,
                                    spec.clients, spec.block_size)
            finally:
                if trickle is not None:
                    trickle.stop_event.set()
                    trickle.join(JOIN_TIMEOUT_S)
                    run.check(not trickle.is_alive(), "trickle writer did not stop")
            if trickle is not None:
                for error in trickle.errors:
                    run.check(False, error)
                for _ in trickle.lateness:
                    run.check(True, "")
        after = counters()

        if spec.mix is not None:
            check_stream_answers(run, server, requests)
        writes = write_burst(run, server, ledger)
        check_state(run, server, ledger, "after the write burst")
        opens = crash_reopen(run, server, ledger, path) if spec.ingest else []

        end_to_end_metrics(run, reads, writes)
        if run.trace:
            import layers   # imports this module: only needed by a traced run
            layers.per_layer_metrics(run, server, report, reads, writes, opens, trickle,
                                     before, after, disk_after_setup)
            if server.cluster is None:
                layers.micro_probes(run, server, output, spec.parallel_probe)
            for metric in PER_LAYER:
                run.per_layer.setdefault(metric.name, 0.0)
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(run.scratch_dir(), ignore_errors=True)
