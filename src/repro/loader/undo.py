"""UNDO of a load step via the per-row insert timestamp.

"The UNDO function works as follows: Each table in the database has a
timestamp field that tells when the record was inserted (the field has
Current_Timestamp as its default value.)  The load event record tells
the table name and the start and stop time of the load step.  Undo
consists of deleting all records of that table with an insert time
between the bad load step start and stop times." (paper §9.4)
"""

from __future__ import annotations

import datetime as _dt
from typing import Optional

from ..engine import Database
from ..engine.errors import LoadError
from .events import LoadEventLog, STATUS_UNDONE

#: Name of the insert-timestamp column every SkyServer table carries.
TIMESTAMP_COLUMN = "inserttime"


def undo_time_window(database: Database, table_name: str,
                     start: _dt.datetime, end: Optional[_dt.datetime]) -> int:
    """Delete every row of ``table_name`` inserted within [start, end].

    Returns the number of rows deleted.  ``end`` may be None for a step
    that never finished; in that case everything at or after ``start``
    goes.
    """
    table = database.table(table_name)
    if not table.has_column(TIMESTAMP_COLUMN):
        raise LoadError(f"table {table_name!r} has no insert-timestamp column; cannot UNDO")

    def inserted_in_window(row: dict) -> bool:
        inserted_at = row.get(TIMESTAMP_COLUMN)
        if inserted_at is None:
            return False
        if inserted_at < start:
            return False
        return end is None or inserted_at <= end

    deleted = table.delete_where(inserted_in_window)
    # A failed bulk step can tombstone a large fraction of the table;
    # compact so subsequent scans stop skipping dead slots.
    table.maybe_vacuum()
    return deleted


def undo_load_event(database: Database, log: LoadEventLog, event_id: int, *,
                    message: str = "") -> int:
    """The operations-interface UNDO button: revert one load step.

    Looks up the event's table and time window, deletes the rows that
    window inserted, and marks the event as undone.  Returns the number
    of rows removed.
    """
    event = log.get(event_id)
    if event.status == STATUS_UNDONE:
        return 0
    deleted = undo_time_window(database, event.table_name,
                               event.start_time, event.end_time)
    log.mark_undone(event_id, message or f"undo removed {deleted} rows")
    return deleted
