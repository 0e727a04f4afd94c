"""Concurrency primitives: reader–writer locks and snapshot epochs.

The public SkyServer is a *concurrent* service — "about 500 people
accessing about 4,000 pages per day" with sharp TV-show peaks (paper
§7) — while the loader keeps publishing new data behind it.  The
engine therefore follows the classic shared-nothing-reads /
exclusive-writes discipline of the SQL Server substrate:

* every :class:`~repro.engine.table.Table` owns a
  :class:`ReadWriteLock`; any number of SELECTs scan a table
  concurrently, while DML (INSERT/DELETE/TRUNCATE), VACUUM, storage
  conversion and index DDL take exclusive access;
* the :class:`~repro.engine.catalog.Database` keeps a monotonically
  increasing **epoch**: every completed exclusive (write) section and
  every DDL bump advances it.  A reader that records the epoch under
  its read locks has a consistent snapshot identifier — if the epoch is
  unchanged, nothing in the database has changed;
* :func:`read_locks` acquires a whole set of table locks in a single
  global order (lower-cased table name), which is what the serving
  pool (:mod:`repro.skyserver.pool`) uses to pin every table of a query
  for the duration of its execution without risking lock-order
  deadlocks.

The lock is reentrant: a thread may nest read sections, nest write
sections, and read while it writes (the FK checker reads referenced
tables from inside an INSERT's exclusive section).  Upgrading — asking
for the write lock while holding only the read lock — deadlocks two
upgraders against each other, so it raises :class:`LockUpgradeError`
immediately instead.

Writers are preferred: once a writer is waiting, new first-entry
readers queue behind it, so a steady SELECT stream cannot starve the
loader.  All counters (acquisitions and contentions per side) are
surfaced through ``site_statistics()["serving"]["locks"]``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Protocol


class LockUpgradeError(RuntimeError):
    """Raised when a thread holding a read lock asks for the write lock."""


class ReadWriteLock:
    """A reentrant many-readers / one-writer lock with contention counters."""

    __slots__ = ("name", "_cond", "_readers", "_writer", "_writer_depth",
                 "_waiting_writers", "on_exclusive_release",
                 "read_acquisitions", "write_acquisitions",
                 "read_contentions", "write_contentions")

    def __init__(self, name: str = "",
                 on_exclusive_release: Optional[Callable[[], None]] = None):
        self.name = name
        self._cond = threading.Condition(threading.Lock())
        #: thread ident -> nested read depth (writers may appear here too
        #: when they read inside their own exclusive section).
        self._readers: dict[int, int] = {}
        self._writer: Optional[int] = None
        self._writer_depth = 0
        self._waiting_writers = 0
        #: Fired (outside the internal mutex) when the outermost write
        #: section ends; the catalog hooks the database epoch bump here.
        self.on_exclusive_release = on_exclusive_release
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self.read_contentions = 0
        self.write_contentions = 0

    # -- read side ---------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            self.read_acquisitions += 1
            if self._writer == me or me in self._readers:
                # Nested read, or a read inside our own write section.
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            if self._writer is not None or self._waiting_writers:
                self.read_contentions += 1
                while self._writer is not None or self._waiting_writers:
                    self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            depth = self._readers.get(me, 0)
            if depth <= 0:
                raise RuntimeError(f"release_read without acquire_read on {self.name!r}")
            if depth == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- write side --------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            self.write_acquisitions += 1
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                raise LockUpgradeError(
                    f"thread holds the read lock on {self.name!r}; "
                    "read->write upgrades deadlock and are not supported")
            self._waiting_writers += 1
            try:
                if self._writer is not None or self._readers:
                    self.write_contentions += 1
                    while self._writer is not None or self._readers:
                        self._cond.wait()
                self._writer = me
                self._writer_depth = 1
            finally:
                self._waiting_writers -= 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError(f"release_write by a non-owner on {self.name!r}")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                # The hook fires while the internal mutex is still held:
                # no reader can acquire the lock before the epoch has
                # advanced, so "same epoch" really does mean "same data".
                # Hooks must therefore be cheap and take no other locks
                # beyond leaf mutexes (the catalog's epoch counter is).
                if self.on_exclusive_release is not None:
                    self.on_exclusive_release()
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- introspection -----------------------------------------------------

    def statistics(self) -> dict[str, int]:
        return {
            "read_acquisitions": self.read_acquisitions,
            "write_acquisitions": self.write_acquisitions,
            "read_contentions": self.read_contentions,
            "write_contentions": self.write_contentions,
        }


class _Lockable(Protocol):  # pragma: no cover - typing only
    name: str
    lock: ReadWriteLock


@contextmanager
def read_locks(tables: Iterable[_Lockable]) -> Iterator[None]:
    """Hold the read lock of every table for the duration of the block.

    Locks are acquired in one global order (lower-cased table name, with
    duplicates collapsed) so two queries locking overlapping table sets
    can never deadlock each other, and released in reverse order.
    """
    with lock_tables((table, "read") for table in tables):
        yield


@contextmanager
def lock_tables(specs: Iterable[tuple[_Lockable, str]]) -> Iterator[None]:
    """Acquire a mixed set of table locks in one global order.

    ``specs`` pairs each table with ``"read"`` or ``"write"``.  All
    locks a code path needs must be requested through one call —
    acquiring incrementally (taking a lock while already holding
    another out of name order) is what creates deadlock cycles.  A
    table requested in both modes is taken in ``"write"`` (the owner of
    the exclusive side may freely read).  Acquisition follows the
    lower-cased table-name order; release is reversed.
    """
    modes: dict[int, tuple[_Lockable, str]] = {}
    for table, mode in specs:
        if mode not in ("read", "write"):
            raise ValueError(f"unknown lock mode {mode!r}")
        previous = modes.get(id(table))
        if previous is None or (previous[1] == "read" and mode == "write"):
            modes[id(table)] = (table, mode)
    ordered = sorted(modes.values(), key=lambda spec: spec[0].name.lower())
    acquired: list[tuple[_Lockable, str]] = []
    try:
        for table, mode in ordered:
            if mode == "write":
                table.lock.acquire_write()
            else:
                table.lock.acquire_read()
            acquired.append((table, mode))
        yield
    finally:
        for table, mode in reversed(acquired):
            if mode == "write":
                table.lock.release_write()
            else:
                table.lock.release_read()
