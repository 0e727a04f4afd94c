"""The on-disk binary format: a tagged value codec that understands the
engine's storage objects.

Design constraints, in order:

* **Lossless.**  ``decode(encode(x)) == repr-identical x`` for every
  value the engine stores: NULL, bools, 64-bit and arbitrary-precision
  integers, floats including −0.0 and NaN (bit patterns preserved via
  IEEE-754 serialization), unicode strings, bytes, timezone-aware
  timestamps.  This extends the CONTRIBUTING ground rule for segment
  encodings to the disk boundary.
* **Encoding-preserving.**  A :class:`~repro.engine.segments.SealedSegment`
  serializes *as its encodings* — a dictionary column writes its
  dictionary and code bytes, an RLE column its runs, a delta column its
  base and offset array — plus the prebuilt zone maps.  Reopening a
  checkpoint therefore re-creates the exact in-memory segment objects
  without re-encoding or re-scanning anything.
* **Stdlib only.**  ``struct`` for fixed-width fields, raw
  ``array.tobytes()`` for buffers (item size recorded so a platform
  with different array widths can still decode via ``struct``), no
  pickle (a checkpoint file must never execute code on load).

Framing, CRCs and replay order are the write-ahead log's business
(:mod:`repro.storage.wal`); this module is pure value <-> bytes.
"""

from __future__ import annotations

import datetime as _dt
import struct
from array import array
from itertools import compress
from operator import is_not, itemgetter
from typing import Any, Callable, Optional, Sequence

from ..engine.segments import (DeltaColumn, DictColumn, PlainColumn,
                               RleColumn, SealedSegment, ZoneStats)
from ..engine.stats import ColumnStatistics, TableStatistics
from ..engine.types import NULL, STORED_TYPES, Column, DataType


class FormatError(ValueError):
    """Malformed bytes handed to the decoder."""


_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: ``array.array`` typecodes whose values are signed (drives the struct
#: fallback when the writing platform's item size differs from ours).
_SIGNED_TYPECODES = frozenset("bhilq")
_FLOAT_TYPECODES = frozenset("fd")
_STRUCT_BY_WIDTH = {
    (1, "uint"): "B", (1, "int"): "b",
    (2, "uint"): "H", (2, "int"): "h",
    (4, "uint"): "I", (4, "int"): "i", (4, "float"): "f",
    (8, "uint"): "Q", (8, "int"): "q", (8, "float"): "d",
}


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

def _put_bytes(out: bytearray, payload: bytes) -> None:
    out += _U32.pack(len(payload))
    out += payload


def _encode(out: bytearray, value: Any) -> None:
    if value is NULL:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int or isinstance(value, int):
        if -(1 << 63) <= value < (1 << 63):
            out += b"i"
            out += _I64.pack(value)
        else:
            # Arbitrary-precision integers (2^60 fits in i; 2^200 does
            # not): decimal text keeps them exact at any width.
            out += b"I"
            _put_bytes(out, str(value).encode("ascii"))
    elif isinstance(value, float):
        out += b"f"
        out += _F64.pack(value)
    elif isinstance(value, str):
        out += b"s"
        _put_bytes(out, value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray)):
        out += b"b"
        _put_bytes(out, bytes(value))
    elif isinstance(value, _dt.datetime):
        # isoformat round-trips microseconds and UTC offsets exactly.
        out += b"t"
        _put_bytes(out, value.isoformat().encode("ascii"))
    elif isinstance(value, array):
        out += b"A"
        out += value.typecode.encode("ascii")
        out += bytes([value.itemsize])
        _put_bytes(out, value.tobytes())
    elif isinstance(value, list):
        out += b"L"
        out += _U32.pack(len(value))
        for item in value:
            _encode(out, item)
    elif isinstance(value, tuple):
        out += b"u"
        out += _U32.pack(len(value))
        for item in value:
            _encode(out, item)
    elif isinstance(value, dict):
        out += b"M"
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode(out, key)
            _encode(out, item)
    elif isinstance(value, DataType):
        out += b"y"
        _put_bytes(out, value.value.encode("ascii"))
    elif isinstance(value, PlainColumn):
        out += b"P"
        _encode(out, value.dtype)
        _encode(out, value.values if isinstance(value.values, array)
                else list(value.values))
    elif isinstance(value, DictColumn):
        out += b"D"
        _encode(out, value.dtype)
        _encode(out, value.dictionary)
        _encode(out, value.codes)
    elif isinstance(value, RleColumn):
        out += b"R"
        _encode(out, value.dtype)
        _encode(out, value.dictionary)
        _encode(out, value.starts)
        _encode(out, value.run_codes)
        _encode(out, value.rows)
    elif isinstance(value, DeltaColumn):
        out += b"V"
        _encode(out, value.dtype)
        _encode(out, value.base)
        _encode(out, value.offsets)
    elif isinstance(value, ZoneStats):
        out += b"Z"
        _encode(out, [value.rows, value.null_count, value.has_null,
                      value.minimum, value.maximum, value.cmp_min,
                      value.cmp_max, value.kind, value.int_sum])
    elif isinstance(value, SealedSegment):
        out += b"S"
        _encode(out, value.base)
        _encode(out, value.rows)
        _encode(out, value.tombstones)
        body = value.encoded
        if body is None:
            # Everything after the tombstone count never changes once
            # sealed: encode it once and keep the bytes on the segment.
            buffer = bytearray()
            _encode(buffer, value.columns)
            _encode(buffer, value.masks)
            _encode(buffer, value.zones)
            body = value.encoded = bytes(buffer)
        if type(out) is _Pieces:
            out.share(body)
        else:
            out += body
    elif isinstance(value, ColumnStatistics):
        out += b"c"
        _encode(out, [value.column, value.dtype, value.row_count,
                      value.null_count, value.distinct_count, value.minimum,
                      value.maximum, list(value.histogram_bounds),
                      dict(value.mcvs)])
    elif isinstance(value, TableStatistics):
        out += b"j"
        _encode(out, [value.table, value.row_count, value.columns,
                      value.modification_counter])
    else:
        raise FormatError(f"cannot serialize {type(value).__name__}: {value!r}")


def encode_value(value: Any) -> bytes:
    """Serialize one value (scalar or engine storage object) to bytes."""
    out = bytearray()
    _encode(out, value)
    return bytes(out)


class _Pieces(bytearray):
    """An encode buffer that passes large shared byte strings (a sealed
    segment's cached encoding) through as pieces of their own instead
    of copying them in."""

    def __init__(self) -> None:
        super().__init__()
        self.pieces: list[bytes] = []

    def share(self, chunk: bytes) -> None:
        if self:
            self.pieces.append(bytes(self))
            del self[:]
        self.pieces.append(chunk)


def encode_pieces(value: Any) -> list[bytes]:
    """:func:`encode_value` as a list of byte strings whose concatenation
    is the same bytes; sealed segments contribute their cached encoding
    itself, so a checkpoint holds no byte of it twice."""
    out = _Pieces()
    _encode(out, value)
    if out:
        out.pieces.append(bytes(out))
    return out.pieces


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise FormatError("truncated value")
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def take_sized(self) -> bytes:
        (size,) = _U32.unpack(self.take(4))
        return self.take(size)


def _decode_array(reader: _Reader) -> array:
    typecode = reader.take(1).decode("ascii")
    itemsize = reader.take(1)[0]
    payload = reader.take_sized()
    native = array(typecode)
    if native.itemsize == itemsize:
        native.frombytes(payload)
        return native
    # A checkpoint written on a platform with different array widths
    # (e.g. 4-byte 'l'): decode item-by-item via struct.
    kind = ("float" if typecode in _FLOAT_TYPECODES
            else "int" if typecode in _SIGNED_TYPECODES else "uint")
    fmt = _STRUCT_BY_WIDTH.get((itemsize, kind))
    if fmt is None or len(payload) % itemsize:
        raise FormatError(
            f"cannot decode array typecode {typecode!r} itemsize {itemsize}")
    values = struct.unpack(f"<{len(payload) // itemsize}{fmt}", payload)
    return array(typecode, values)


def _decode(reader: _Reader) -> Any:
    tag = reader.take(1)
    if tag == b"N":
        return NULL
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return _I64.unpack(reader.take(8))[0]
    if tag == b"I":
        return int(reader.take_sized().decode("ascii"))
    if tag == b"f":
        return _F64.unpack(reader.take(8))[0]
    if tag == b"s":
        return reader.take_sized().decode("utf-8")
    if tag == b"b":
        return reader.take_sized()
    if tag == b"t":
        return _dt.datetime.fromisoformat(reader.take_sized().decode("ascii"))
    if tag == b"A":
        return _decode_array(reader)
    if tag == b"L":
        (count,) = _U32.unpack(reader.take(4))
        return [_decode(reader) for _ in range(count)]
    if tag == b"u":
        (count,) = _U32.unpack(reader.take(4))
        return tuple(_decode(reader) for _ in range(count))
    if tag == b"M":
        (count,) = _U32.unpack(reader.take(4))
        return {_decode(reader): _decode(reader) for _ in range(count)}
    if tag == b"y":
        return DataType(reader.take_sized().decode("ascii"))
    if tag == b"P":
        dtype = _decode(reader)
        return PlainColumn(_decode(reader), dtype)
    if tag == b"D":
        dtype = _decode(reader)
        return DictColumn(_decode(reader), _decode(reader), dtype)
    if tag == b"R":
        dtype = _decode(reader)
        return RleColumn(_decode(reader), _decode(reader), _decode(reader),
                         _decode(reader), dtype)
    if tag == b"V":
        dtype = _decode(reader)
        return DeltaColumn(_decode(reader), _decode(reader), dtype)
    if tag == b"Z":
        fields = _decode(reader)
        zone = ZoneStats(fields[0])
        (zone.rows, zone.null_count, zone.has_null, zone.minimum,
         zone.maximum, zone.cmp_min, zone.cmp_max, zone.kind,
         zone.int_sum) = fields
        return zone
    if tag == b"S":
        base = _decode(reader)
        rows = _decode(reader)
        tombstones = _decode(reader)
        columns = _decode(reader)
        masks = _decode(reader)
        zones = _decode(reader)
        return SealedSegment(base, rows, columns, masks, zones, tombstones)
    if tag == b"c":
        fields = _decode(reader)
        return ColumnStatistics(column=fields[0], dtype=fields[1],
                                row_count=fields[2], null_count=fields[3],
                                distinct_count=fields[4], minimum=fields[5],
                                maximum=fields[6], histogram_bounds=fields[7],
                                mcvs=fields[8])
    if tag == b"j":
        fields = _decode(reader)
        return TableStatistics(table=fields[0], row_count=fields[1],
                               columns=fields[2],
                               modification_counter=fields[3])
    raise FormatError(f"unknown tag {tag!r} at offset {reader.offset - 1}")


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`; raises :class:`FormatError` on
    malformed input and on trailing garbage."""
    reader = _Reader(bytes(data))
    value = _decode(reader)
    if reader.offset != len(reader.data):
        raise FormatError(
            f"{len(reader.data) - reader.offset} trailing bytes after value")
    return value


# ---------------------------------------------------------------------------
# Insert frames: one statement's rows, encoded against the table's schema
# ---------------------------------------------------------------------------

#: First byte of an insert frame.  Every generic WAL record is a dict,
#: which the tagged codec starts with ``b"M"``, so the two never collide.
INSERT_FRAME = b"+"

#: The fixed-width column types: their ``struct`` code and the filler a
#: NULL packs as.
_FIXED_WIDTH = {DataType.INTEGER: ("q", 0), DataType.BIGINT: ("q", 0),
                DataType.FLOAT: ("d", 0.0), DataType.BOOLEAN: ("?", False)}


def _tuple_getter(keys: Sequence[Any]) -> Callable[[Any], tuple]:
    """``itemgetter(*keys)`` that returns a tuple for any number of keys."""
    if len(keys) == 1:
        key = keys[0]
        return lambda container: (container[key],)
    if not keys:
        return lambda container: ()
    return itemgetter(*keys)


class RowCodec:
    """One table's prepared rows <-> the row part of an insert frame.

    A row is a NULL bitmap (bit ``i`` set: column ``i`` is NULL), one
    ``struct`` run of the fixed-width columns in column order
    (INTEGER/BIGINT as int64, FLOAT as an IEEE double — the bits of
    -0.0 and NaN kept —, BOOLEAN as one byte; a NULL packs the type's
    zero), then each non-NULL variable-width column in column order,
    length-prefixed: TEXT as UTF-8, BLOB raw, TIMESTAMP as ISO text —
    the generic codec's own spellings, so a row decodes to exactly what
    the generic codec would have returned.
    """

    def __init__(self, columns: Sequence[Column]):
        self.keys = tuple(column.name.lower() for column in columns)
        count = len(self.keys)
        self._positions = range(count)
        self._types = tuple(STORED_TYPES[column.dtype] for column in columns)
        fixed = [position for position, column in enumerate(columns)
                 if column.dtype in _FIXED_WIDTH]
        self._fixed = struct.Struct("<" + "".join(
            _FIXED_WIDTH[columns[position].dtype][0] for position in fixed))
        self._fixed_slot = {position: slot for slot, position in enumerate(fixed)}
        self._fixed_zero = [_FIXED_WIDTH[columns[position].dtype][1]
                            for position in fixed]
        self._variable = tuple((position, column.dtype)
                               for position, column in enumerate(columns)
                               if column.dtype not in _FIXED_WIDTH)
        self._values = _tuple_getter(self.keys)
        self._fixed_values = _tuple_getter(fixed)
        # Decoding yields the fixed values, then the variable ones; this
        # puts them back in column order.
        order = fixed + [position for position, _dtype in self._variable]
        slot_of = {position: slot for slot, position in enumerate(order)}
        self._reorder = _tuple_getter([slot_of[position]
                                       for position in range(count)])
        self._no_nulls = bytes((count + 7) // 8)

    def encode_rows(self, rows: Sequence[dict[str, Any]], out: bytearray) -> bool:
        """Append ``rows`` to ``out``; False (``out`` then holds a
        partial row) when some value has no exact slot here — a value
        not of its column's stored type, or an int beyond 64 bits."""
        values_of, fixed_of = self._values, self._fixed_values
        types, positions = self._types, self._positions
        pack = self._fixed.pack
        for row in rows:
            values = values_of(row)
            odd = list(compress(positions, map(is_not, map(type, values), types)))
            fixed = fixed_of(values)
            if odd:
                bitmap = bytearray(self._no_nulls)
                fixed = list(fixed)
                for position in odd:
                    if values[position] is not NULL:
                        return False
                    bitmap[position >> 3] |= 1 << (position & 7)
                    slot = self._fixed_slot.get(position)
                    if slot is not None:
                        fixed[slot] = self._fixed_zero[slot]
                out += bitmap
            else:
                out += self._no_nulls
            try:
                out += pack(*fixed)
            except struct.error:
                return False
            for position, dtype in self._variable:
                value = values[position]
                if value is NULL:
                    continue
                if dtype is DataType.TEXT:
                    data = value.encode("utf-8")
                elif dtype is DataType.TIMESTAMP:
                    data = value.isoformat().encode("ascii")
                else:
                    data = value
                out += _U32.pack(len(data))
                out += data
        return True

    def decode_rows(self, data: bytes, offset: int,
                    count: int) -> tuple[list[dict[str, Any]], int]:
        """``count`` rows starting at ``offset``, and the offset after them."""
        keys, fixed, reorder = self.keys, self._fixed, self._reorder
        width = len(self._no_nulls)
        rows = []
        for _ in range(count):
            bitmap = data[offset:offset + width]
            offset += width
            values = list(fixed.unpack_from(data, offset))
            offset += fixed.size
            for position, dtype in self._variable:
                if bitmap[position >> 3] >> (position & 7) & 1:
                    values.append(NULL)
                    continue
                (size,) = _U32.unpack_from(data, offset)
                offset += 4
                chunk = data[offset:offset + size]
                if len(chunk) != size:
                    raise FormatError("truncated insert frame")
                offset += size
                if dtype is DataType.TEXT:
                    values.append(chunk.decode("utf-8"))
                elif dtype is DataType.TIMESTAMP:
                    values.append(_dt.datetime.fromisoformat(chunk.decode("ascii")))
                else:
                    values.append(chunk)
            values = reorder(values)
            if bitmap != self._no_nulls:
                values = list(values)
                for byte_index, byte in enumerate(bitmap):
                    for bit in range(8):
                        if byte >> bit & 1:
                            values[byte_index * 8 + bit] = NULL
            rows.append(dict(zip(keys, values)))
        return rows, offset


def encode_insert_frame(codec: RowCodec, table: str,
                        rows: Sequence[dict[str, Any]],
                        sequence: Optional[int] = None) -> Optional[bytes]:
    """One insert statement as a WAL payload: the tag, the table name,
    the optional cluster sequence, the row count, then the rows.  None
    when a row needs the generic codec (:meth:`RowCodec.encode_rows`)."""
    out = bytearray(INSERT_FRAME)
    _put_bytes(out, table.encode("utf-8"))
    if sequence is None:
        out += b"\x00"
    elif -(1 << 63) <= sequence < (1 << 63):
        out += b"\x01"
        out += _I64.pack(sequence)
    else:
        return None
    out += _U32.pack(len(rows))
    if not codec.encode_rows(rows, out):
        return None
    return bytes(out)


def decode_insert_frame(payload: bytes, codec_for: Callable[[str], RowCodec]
                        ) -> tuple[str, Optional[int], list[dict[str, Any]]]:
    """(table name, sequence, rows) of an insert frame; ``codec_for``
    maps the table name to the codec of the table as it is now."""
    try:
        reader = _Reader(payload)
        if reader.take(1) != INSERT_FRAME:
            raise FormatError("not an insert frame")
        table = reader.take_sized().decode("utf-8")
        sequence = (_I64.unpack(reader.take(8))[0]
                    if reader.take(1) == b"\x01" else None)
        (count,) = _U32.unpack(reader.take(4))
        rows, offset = codec_for(table).decode_rows(payload, reader.offset, count)
    except (struct.error, IndexError, ValueError) as error:
        if isinstance(error, FormatError):
            raise
        raise FormatError(f"malformed insert frame: {error}") from error
    if offset != len(payload):
        raise FormatError(f"{len(payload) - offset} trailing bytes after insert frame")
    return table, sequence, rows


# ---------------------------------------------------------------------------
# Storage-state adapters
# ---------------------------------------------------------------------------

def storage_state(storage: Any) -> dict[str, Any]:
    """A codec-encodable snapshot of a table's row store.

    For a :class:`~repro.engine.storage.ColumnStore` the snapshot keeps
    the sealed segments *as objects* (the codec serializes their
    encodings and zone maps directly) plus the raw tail buffers; for a
    :class:`~repro.engine.storage.RowStore`, the slot list.  The caller
    must hold the owning table's write lock — the state shares buffers
    with the live store until it is encoded.
    """
    return storage.checkpoint_state()


def storage_from_state(state: dict[str, Any], columns: Any) -> Any:
    """Rebuild a storage engine from :func:`storage_state` output."""
    from ..engine.storage import make_storage

    storage = make_storage(state["kind"], columns)
    storage.restore_state(state)
    return storage
