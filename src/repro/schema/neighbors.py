"""Pre-computation of the Neighbors table.

"One table, neighbors, is computed after the data is loaded.  For every
object the neighbors table contains a list of all other objects within
½ arcminute of the object (typically 10 objects).  This speeds
proximity searches." (paper §9.1.1)

:func:`compute_neighbors` builds it with a declination-band sweep that
is linear in the number of objects (how a production build would do it).
"""

from __future__ import annotations

import math
from typing import Iterable

from ..engine import Database
from ..htm import arcmin_between

#: The paper's neighbourhood radius: half an arcminute.
DEFAULT_RADIUS_ARCMIN = 0.5


def compute_neighbors(database: Database, *,
                      radius_arcmin: float = DEFAULT_RADIUS_ARCMIN,
                      truncate: bool = True) -> int:
    """Populate the Neighbors table by a declination-band sweep.

    Objects are bucketed into declination bands one search radius tall;
    each object is compared only against objects in its own and the two
    adjacent bands whose right ascension is within the (cos dec
    corrected) search window.  Returns the number of neighbour pairs
    inserted (each unordered pair contributes two rows, one per
    direction, exactly as the SkyServer table does).
    """
    photo = database.table("PhotoObj")
    neighbors = database.table("Neighbors")
    if truncate:
        neighbors.truncate()
    radius_degrees = radius_arcmin / 60.0
    band_height = max(radius_degrees, 1.0e-6)

    bands: dict[int, list[dict]] = {}
    for _row_id, row in photo.iter_rows():
        band = int(math.floor(row["dec"] / band_height))
        bands.setdefault(band, []).append(row)
    for rows in bands.values():
        rows.sort(key=lambda row: row["ra"])

    inserted = 0
    pairs: list[dict] = []
    for band, rows in bands.items():
        candidate_rows: list[dict] = []
        for neighbour_band in (band - 1, band, band + 1):
            candidate_rows.extend(bands.get(neighbour_band, ()))
        candidate_rows.sort(key=lambda row: row["ra"])
        for row in rows:
            cos_dec = max(0.05, math.cos(math.radians(row["dec"])))
            ra_window = radius_degrees / cos_dec
            for candidate in _ra_window(candidate_rows, row["ra"], ra_window):
                if candidate["objid"] == row["objid"]:
                    continue
                distance = arcmin_between(row["ra"], row["dec"],
                                          candidate["ra"], candidate["dec"])
                if distance <= radius_arcmin:
                    pairs.append({
                        "objID": row["objid"],
                        "neighborObjID": candidate["objid"],
                        "distance": distance,
                        "neighborType": candidate["type"],
                        "neighborMode": candidate["mode"],
                    })
                    inserted += 1
    neighbors.insert_many(pairs, database=database)
    return inserted


def _ra_window(sorted_rows: list[dict], ra: float, window: float) -> Iterable[dict]:
    """Rows whose RA lies within ``window`` degrees of ``ra`` (sorted input)."""
    import bisect

    ras = [row["ra"] for row in sorted_rows]
    low = bisect.bisect_left(ras, ra - window)
    high = bisect.bisect_right(ras, ra + window)
    for position in range(low, high):
        yield sorted_rows[position]
    # Handle RA wrap-around near 0/360 degrees.
    if ra - window < 0.0:
        low = bisect.bisect_left(ras, ra - window + 360.0)
        for position in range(low, len(sorted_rows)):
            yield sorted_rows[position]
    if ra + window > 360.0:
        high = bisect.bisect_right(ras, ra + window - 360.0)
        for position in range(0, high):
            yield sorted_rows[position]
