"""Spatial access functions (paper §9.1.4).

``spHTM_Cover(<area>)`` returns the HTM ranges covering an area, and the
"simpler functions" layered on top return actual objects:
``fGetNearbyObjEq(ra, dec, radius_arcmin)`` lists every object within
the radius (with its distance), ``fGetNearestObjEq`` returns the single
closest one, and ``fGetObjFromRectEq`` returns the objects inside an
(ra, dec) rectangle.  All of them are table-valued functions the SQL
layer can join against PhotoObj — Query 1's plan (Figure 10) is exactly
such a join.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..engine import Database, bigint, floating, integer
from ..engine.batch import row_dicts
from ..htm import (DEFAULT_DEPTH, HtmRange, RectangleEq, arcmin_between, cover,
                   cover_circle, lookup_id, ranges_contain)


def htm_cover_circle(ra: float, dec: float, radius_arcmin: float) -> list[dict]:
    """``spHTM_Cover`` for a circle: rows of (htmIDstart, htmIDend)."""
    return [{"htmIDstart": r.low, "htmIDend": r.high}
            for r in cover_circle(ra, dec, radius_arcmin)]


#: The PhotoObj columns :func:`nearby_from_candidates` and
#: :func:`rect_from_candidates` read (plus htmID for the scan fallback):
#: all a candidate row is materialised with.
CANDIDATE_COLUMNS = ("objid", "ra", "dec", "type", "mode", "modelmag_r", "htmid")


def _candidate_rows(database: Database, ranges: Sequence[HtmRange]) -> Iterable[dict]:
    """Rows of PhotoObj whose htmID falls in any cover range.

    Uses the htmID B-tree index when it exists (the design's fast path);
    falls back to a scan otherwise so the functions still work on
    databases loaded without indices.  ``ranges`` is a ``cover()``
    result — sorted, disjoint and non-adjacent — so each index region is
    scanned once and every candidate row surfaces once (no dedup set).
    Rows carry those of :data:`CANDIDATE_COLUMNS` the table has (a row
    store's, every column); a column store's are read through one
    :meth:`~repro.engine.storage.ColumnStore.gather` of every candidate.
    """
    photo = database.table("PhotoObj")
    columns = tuple(name for name in CANDIDATE_COLUMNS if name in photo.row_keys)
    index = photo.find_index_on(["htmID"])
    if index is not None:
        row_ids = [row_id for low, high in ranges
                   for row_id in index.range((low,), (high,))]
        if photo.storage.kind == "column":
            _live, gathered = photo.storage.gather(row_ids)
            yield from row_dicts(columns, zip(*[gathered[name] for name in columns]))
            return
        for row_id in row_ids:
            row = photo.get_row(row_id, columns)
            if row is not None:
                yield row
        return
    for _row_id, row in photo.iter_rows(columns):
        if ranges_contain(ranges, row["htmid"]):
            yield row


def nearby_from_candidates(candidates: Iterable[dict], ra: float, dec: float,
                           radius_arcmin: float) -> list[dict]:
    """Exact-distance filter + nearest-first sort over HTM candidates.

    Shared by the single-node path below and the cluster's scatter
    (:meth:`repro.cluster.ClusterExecutor.cone_candidate_rows`), which
    gathers the candidate rows from the surviving shards instead.
    """
    rows = []
    for row in candidates:
        distance = arcmin_between(ra, dec, row["ra"], row["dec"])
        if distance <= radius_arcmin:
            rows.append({
                "objID": row["objid"],
                "distance": distance,
                "type": row["type"],
                "mode": row["mode"],
                "ra": row["ra"],
                "dec": row["dec"],
            })
    # objID tiebreaker: candidate order differs between the single-node
    # path (htmID-index order) and the cluster scatter (shard order), so
    # exact distance ties must not decide by input order.
    rows.sort(key=lambda entry: (entry["distance"], entry["objID"]))
    return rows


def rect_from_candidates(candidates: Iterable[dict],
                         region: "RectangleEq") -> list[dict]:
    """Exact-containment filter + (ra, dec) sort over HTM candidates."""
    rows = []
    for row in candidates:
        if region.contains_radec(row["ra"], row["dec"]):
            rows.append({
                "objID": row["objid"],
                "ra": row["ra"],
                "dec": row["dec"],
                "type": row["type"],
                "mode": row["mode"],
                "modelMag_r": row["modelmag_r"],
            })
    rows.sort(key=lambda entry: (entry["ra"], entry["dec"], entry["objID"]))
    return rows


def get_nearby_objects(database: Database, ra: float, dec: float,
                       radius_arcmin: float) -> list[dict]:
    """``fGetNearbyObjEq``: objID, distance (arcmin), type and mode of nearby objects."""
    candidates = _candidate_rows(database, cover_circle(ra, dec, radius_arcmin))
    return nearby_from_candidates(candidates, ra, dec, radius_arcmin)


def get_nearest_object(database: Database, ra: float, dec: float,
                       radius_arcmin: float = 1.0) -> list[dict]:
    """``fGetNearestObjEq``: at most one row — the closest object within the radius."""
    nearby = get_nearby_objects(database, ra, dec, radius_arcmin)
    return nearby[:1]


def get_objects_in_rect(database: Database, ra_min: float, dec_min: float,
                        ra_max: float, dec_max: float) -> list[dict]:
    """``fGetObjFromRectEq``: objects inside an (ra, dec) bounding box."""
    region = RectangleEq(ra_min, ra_max, dec_min, dec_max)
    candidates = _candidate_rows(database, cover(region, cover_depth=8))
    return rect_from_candidates(candidates, region)


def get_htm_id(ra: float, dec: float, depth: int = DEFAULT_DEPTH) -> int:
    """``fHTM_Lookup``: the HTM id of a position at the given depth."""
    return lookup_id(ra, dec, depth)


def register_spatial_functions(database: Database) -> None:
    """Register the spatial table-valued and scalar functions on a database."""
    database.register_table_function(
        "spHTM_Cover",
        [bigint("htmIDstart"), bigint("htmIDend")],
        lambda ra, dec, radius: htm_cover_circle(ra, dec, radius),
        description="HTM trixel ranges covering a circle (ra, dec, radius arcmin)",
        row_estimate=12, replace=True)
    database.register_table_function(
        "fGetNearbyObjEq",
        [bigint("objID"), floating("distance"), integer("type"), integer("mode"),
         floating("ra"), floating("dec")],
        lambda ra, dec, radius: get_nearby_objects(database, ra, dec, radius),
        description="Objects within radius arcminutes of (ra, dec), nearest first",
        row_estimate=20, replace=True)
    database.register_table_function(
        "fGetNearestObjEq",
        [bigint("objID"), floating("distance"), integer("type"), integer("mode"),
         floating("ra"), floating("dec")],
        lambda ra, dec, radius=1.0: get_nearest_object(database, ra, dec, radius),
        description="The single nearest object within radius arcminutes of (ra, dec)",
        row_estimate=1, replace=True)
    database.register_table_function(
        "fGetObjFromRectEq",
        [bigint("objID"), floating("ra"), floating("dec"), integer("type"),
         integer("mode"), floating("modelMag_r")],
        lambda ra_min, dec_min, ra_max, dec_max: get_objects_in_rect(
            database, ra_min, dec_min, ra_max, dec_max),
        description="Objects inside an (ra, dec) rectangle",
        row_estimate=100, replace=True)
    database.register_scalar_function(
        "fHTM_Lookup", get_htm_id,
        description="HTM id of an (ra, dec) position", replace=True)
    database.register_scalar_function(
        "fDistanceArcMinEq", arcmin_between,
        description="Arc distance in arcminutes between two (ra, dec) positions",
        replace=True)
