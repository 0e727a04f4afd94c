"""Durable on-disk storage: binary segment format and write-ahead log.

This package is the disk half of the engine's storage layer.
:mod:`repro.storage.format` serializes the in-memory objects —
:class:`~repro.engine.segments.SealedSegment` with its encodings and
zone maps, row/column store state, ANALYZE statistics — to a compact
tagged binary format that round-trips every engine value bit-for-bit
(−0.0, NaN, > 64-bit integers, unicode, timezone-aware timestamps),
and encodes an insert statement's rows against its table's schema
(:class:`~repro.storage.format.RowCodec`) for the write-ahead log.
:mod:`repro.storage.wal` provides the CRC-framed append-only log whose
replay semantics (stop at the first torn frame) make crash recovery a
pure function of the bytes that reached disk.

The orchestration — checkpoints, recovery, the table mutation hooks —
lives in :mod:`repro.engine.durable`; this package knows only bytes.
"""

from .format import (INSERT_FRAME, FormatError, RowCodec, decode_insert_frame,
                     decode_value, encode_insert_frame, encode_pieces,
                     encode_value, storage_from_state, storage_state)
from .wal import WalRecord, WriteAheadLog

__all__ = [
    "FormatError",
    "encode_value",
    "decode_value",
    "encode_pieces",
    "RowCodec",
    "INSERT_FRAME",
    "encode_insert_frame",
    "decode_insert_frame",
    "storage_state",
    "storage_from_state",
    "WriteAheadLog",
    "WalRecord",
]
