"""A CRC-framed append-only write-ahead log.

Each record is one frame::

    <III  = magic, payload length, crc32(payload)   (12-byte header)
    payload                                          (opaque bytes)

Replay (:meth:`WriteAheadLog.replay`) yields payloads in write order and
**stops at the first frame that fails validation** — bad magic, a length
that runs past end-of-file, or a CRC mismatch.  A crash can only truncate
or tear the final frame (the OS appends within a single ``write`` call
in order), so everything before the first bad frame is exactly the set
of records whose bytes reached the file.  Recovery is therefore a pure
function of the file's contents; no repair pass, no ambiguity.

Durability levels: by default appends go through the buffered file
object and are ``flush``\\ ed per record (crash-of-*process* safe, which
is what the tests exercise by truncating the file at arbitrary offsets);
``fsync=True`` adds an ``os.fsync`` per append for crash-of-*machine*
safety at the usual cost.  Checkpoint truncation always syncs — a WAL
that claims to be empty must actually be empty before the checkpoint
manifest that supersedes it is allowed to land (see
:mod:`repro.engine.durable` for the ordering argument).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional

from ..telemetry.metrics import METRICS

_HEADER = struct.Struct("<III")
_MAGIC = 0x57414C09          # "WAL\t"

# Cached metric handles (appends themselves are counted one layer up,
# in DurabilityManager, where the logical op/table is known).
_FSYNCS = METRICS.counter("wal.fsyncs")
_REPLAYED = METRICS.counter("wal.frames_replayed")


@dataclass(frozen=True)
class WalRecord:
    """One replayed frame: its payload and the file offset of the *next*
    frame (i.e. where the log would be truncated to keep this record as
    the last one — the crash tests use it to compute tear points)."""

    payload: bytes
    end_offset: int


class WriteAheadLog:
    """Append/replay/truncate over a single log file.

    The instance owns an exclusive append handle from construction to
    :meth:`close`; replay uses an independent read handle so it can run
    against a live log (recovery, twins in tests).
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = False):
        self.path = os.fspath(path)
        self.fsync = fsync
        self._file = open(self.path, "ab")

    # -- writing ----------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Write one frame; returns the file offset after the frame."""
        frame = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload))
        handle = self._file
        handle.write(frame + payload)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
            _FSYNCS.inc()
        return handle.tell()

    def truncate(self) -> None:
        """Empty the log (after a successful checkpoint).  Always synced:
        the checkpoint's manifest rename must not become visible while
        stale WAL frames could still replay on top of it."""
        handle = self._file
        handle.flush()
        handle.truncate(0)
        handle.seek(0)
        os.fsync(handle.fileno())

    # -- reading ----------------------------------------------------------

    def size(self) -> int:
        self._file.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        self.close()
        return None


def replay_file(path: str | os.PathLike) -> Iterator[WalRecord]:
    """Yield valid frames from ``path`` in order, stopping at the first
    torn/corrupt frame (or cleanly at end-of-file).  A missing file
    replays as empty — a database checkpointed and cleanly closed may
    have no WAL at all."""
    try:
        handle = open(os.fspath(path), "rb")
    except FileNotFoundError:
        return
    with handle:
        offset = 0
        while True:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return                          # clean EOF or torn header
            magic, length, crc = _HEADER.unpack(header)
            if magic != _MAGIC:
                return
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return                          # torn or corrupt payload
            offset += _HEADER.size + length
            _REPLAYED.inc()
            yield WalRecord(payload, offset)
