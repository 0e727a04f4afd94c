"""Column types and value coercion for the relational engine.

The SkyServer schema uses a small set of SQL Server types: integers,
bigints (HTM IDs, object IDs, bit-flag words), floats (magnitudes,
positions), fixed strings (names, object classes), datetimes (the
per-row insert timestamp used by the loader's UNDO), and blobs (the
profile arrays and JPEG cutouts).  This module defines those types, the
NULL semantics, and byte-width accounting used by Table 1 and the I/O
model.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass
from typing import Any

from .errors import SchemaError, TypeMismatchError

#: The engine-wide NULL marker.  ``None`` is used directly so that Python
#: code interoperates naturally with query results.
NULL = None


class DataType(enum.Enum):
    """Supported column data types."""

    INTEGER = "integer"
    BIGINT = "bigint"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    TIMESTAMP = "timestamp"
    BLOB = "blob"

    @property
    def byte_width(self) -> int:
        """Nominal storage width in bytes, used for size accounting.

        Variable-width types (TEXT, BLOB) report a representative width;
        actual row sizes add the real payload length for those columns.
        """
        return _BYTE_WIDTHS[self._value_]


#: Nominal width of each :class:`DataType`, keyed by its value string
#: (a str key hashes in C; an enum member's hash is a Python call).
_BYTE_WIDTHS = {
    "integer": 4,
    "bigint": 8,
    "float": 8,
    "text": 16,
    "boolean": 1,
    "timestamp": 8,
    "blob": 32,
}


#: The exact Python type each column type stores.  A value already of
#: that type is stored as is: :func:`coerce_value` would return it
#: unchanged.
STORED_TYPES = {
    DataType.INTEGER: int, DataType.BIGINT: int, DataType.FLOAT: float,
    DataType.TEXT: str, DataType.BOOLEAN: bool,
    DataType.TIMESTAMP: _dt.datetime, DataType.BLOB: bytes,
}


#: Sentinel used for "default value is the insert timestamp", mirroring
#: SQL Server's ``CURRENT_TIMESTAMP`` column default that the loader's
#: UNDO mechanism depends on (paper section 9.4).
CURRENT_TIMESTAMP = "CURRENT_TIMESTAMP"


@dataclass
class Column:
    """A column definition.

    Parameters
    ----------
    name:
        Column name, case-preserved but matched case-insensitively.
    dtype:
        One of :class:`DataType`.
    nullable:
        Whether NULL values are allowed.  The paper insists that "all
        fields are non-null", so schema columns default to ``False``.
    default:
        Literal default value, or :data:`CURRENT_TIMESTAMP`.
    description:
        Human-readable documentation surfaced by the schema browser.
    unit:
        Physical unit (e.g. ``"mag"``, ``"deg"``) surfaced by the schema
        browser, mirroring the SkyServer's online schema documentation.
    """

    name: str
    dtype: DataType
    nullable: bool = False
    default: Any = None
    description: str = ""
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")

    @property
    def byte_width(self) -> int:
        return self.dtype.byte_width

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this column's type, or raise.

        NULL handling is done by the caller (:class:`~repro.engine.table.Table`),
        so ``value`` is assumed non-None here.
        """
        return coerce_value(value, self.dtype, column=self.name)


def coerce_value(value: Any, dtype: DataType, *, column: str = "") -> Any:
    """Coerce a Python value to the engine representation of ``dtype``."""
    if value is NULL:
        return NULL
    try:
        if dtype is DataType.INTEGER or dtype is DataType.BIGINT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value
            if isinstance(value, float):
                if value.is_integer():
                    return int(value)
                raise TypeMismatchError(
                    f"column {column!r}: cannot store non-integral float {value!r} as {dtype.value}"
                )
            if isinstance(value, str):
                return int(value.strip())
        elif dtype is DataType.FLOAT:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value.strip())
        elif dtype is DataType.TEXT:
            if isinstance(value, str):
                return value
            if isinstance(value, (int, float)):
                return str(value)
        elif dtype is DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return bool(value)
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1", "yes"):
                    return True
                if lowered in ("false", "f", "0", "no"):
                    return False
        elif dtype is DataType.TIMESTAMP:
            if isinstance(value, _dt.datetime):
                return value
            if isinstance(value, (int, float)):
                return _dt.datetime.fromtimestamp(float(value), tz=_dt.timezone.utc)
            if isinstance(value, str):
                return _dt.datetime.fromisoformat(value)
        elif dtype is DataType.BLOB:
            if isinstance(value, (bytes, bytearray)):
                return bytes(value)
            if isinstance(value, str):
                return value.encode("utf-8")
    except (ValueError, OverflowError) as exc:
        raise TypeMismatchError(
            f"column {column!r}: cannot coerce {value!r} to {dtype.value}: {exc}"
        ) from exc
    raise TypeMismatchError(
        f"column {column!r}: cannot coerce {type(value).__name__} value {value!r} to {dtype.value}"
    )


def value_byte_size(value: Any, dtype: DataType) -> int:
    """Actual storage size of a value, used for Table 1 byte accounting."""
    if value is NULL:
        return 1
    if dtype is DataType.TEXT:
        return max(1, len(str(value)))
    if dtype is DataType.BLOB:
        return max(1, len(value))
    return dtype.byte_width


# Convenience constructors keep schema definitions terse and readable.

def integer(name: str, *, nullable: bool = False, default: Any = None,
            description: str = "", unit: str = "") -> Column:
    """An INTEGER column."""
    return Column(name, DataType.INTEGER, nullable=nullable, default=default,
                  description=description, unit=unit)


def bigint(name: str, *, nullable: bool = False, default: Any = None,
           description: str = "", unit: str = "") -> Column:
    """A BIGINT column (object IDs, HTM IDs, flag words)."""
    return Column(name, DataType.BIGINT, nullable=nullable, default=default,
                  description=description, unit=unit)


def floating(name: str, *, nullable: bool = False, default: Any = None,
             description: str = "", unit: str = "") -> Column:
    """A FLOAT column (magnitudes, coordinates, velocities)."""
    return Column(name, DataType.FLOAT, nullable=nullable, default=default,
                  description=description, unit=unit)


def text(name: str, *, nullable: bool = False, default: Any = None,
         description: str = "", unit: str = "") -> Column:
    """A TEXT column."""
    return Column(name, DataType.TEXT, nullable=nullable, default=default,
                  description=description, unit=unit)


def boolean(name: str, *, nullable: bool = False, default: Any = None,
            description: str = "") -> Column:
    """A BOOLEAN column."""
    return Column(name, DataType.BOOLEAN, nullable=nullable, default=default,
                  description=description)


def timestamp(name: str, *, nullable: bool = False, default: Any = None,
              description: str = "") -> Column:
    """A TIMESTAMP column (defaults may be CURRENT_TIMESTAMP)."""
    return Column(name, DataType.TIMESTAMP, nullable=nullable, default=default,
                  description=description)


def blob(name: str, *, nullable: bool = True, default: Any = None,
         description: str = "") -> Column:
    """A BLOB column (image cutouts, profile arrays)."""
    return Column(name, DataType.BLOB, nullable=nullable, default=default,
                  description=description)
