"""Deblending and primary/secondary resolution.

"One star or galaxy often overlaps another, or a star is part of a
cluster.  In these cases child objects are deblended from the parent
object, and each child also appears in the database (deblended parents
are never primary.)  In the end about 80% of the photo objects are
primary." (paper §9)

The deblender here works on measured detection rows: a configurable
fraction of extended detections become blend *parents* with two child
rows each, and the primary/secondary pass then marks exactly one
detection family per true object as primary — children of the primary
detection are primary, blend parents never are, and detections in
overlap regions become secondaries.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from ..schema.flags import PhotoFlags, PhotoType

def _recompute_position_columns(row: dict) -> None:
    """Refresh the unit-vector and HTM columns after a position change."""
    if "cx" in row and "cy" in row and "cz" in row:
        from ..htm import lookup_id, radec_to_unit

        cx, cy, cz = radec_to_unit(row["ra"], row["dec"])
        row["cx"], row["cy"], row["cz"] = cx, cy, cz
        if "htmID" in row:
            row["htmID"] = lookup_id(row["ra"], row["dec"])


#: Fraction of extended detections that get deblended into two children.
#: Combined with the ~11% duplicate-detection rate this lands the primary
#: fraction near the paper's 80%.
DEFAULT_BLEND_FRACTION = 0.14


def deblend_family(row: dict, rng: random.Random, next_obj_number: int, *,
                   blend_fraction: float = DEFAULT_BLEND_FRACTION,
                   force: Optional[bool] = None) -> tuple[list[dict], int]:
    """Possibly deblend one detection into a parent plus two children.

    Returns ``(rows, next_obj_number)`` where rows is ``[row]`` when no
    deblending happened or ``[parent, child, child]`` otherwise.  Extended
    detections blend with probability ``blend_fraction``, stars with a
    quarter of it; pass ``force`` to override the draw (used by tests and
    by the survey generator to keep blend statistics stable).
    """
    should_blend = force
    if should_blend is None:
        probability = blend_fraction if row["type"] == int(PhotoType.GALAXY) \
            else blend_fraction * 0.25
        should_blend = rng.random() < probability
    if not should_blend:
        return [row], next_obj_number
    row["flags"] |= int(PhotoFlags.BLENDED)
    row["nChild"] = 2
    rows = [row]
    for child_index in range(2):
        child = dict(row)
        child["obj"] = next_obj_number
        child["objID"] = (row["objID"] & ~0xFFFF) | next_obj_number
        next_obj_number += 1
        child["parentID"] = row["objID"]
        child["nChild"] = 0
        child["flags"] = (row["flags"] & ~int(PhotoFlags.BLENDED)) | int(PhotoFlags.CHILD)
        offset_scale = max(row["petroRad_r"], 1.0) / 3600.0
        child["ra"] = row["ra"] + rng.gauss(0.0, offset_scale)
        child["dec"] = row["dec"] + rng.gauss(0.0, offset_scale)
        for key, value in list(child.items()):
            if isinstance(key, str) and ("mag_" in key.lower()) and "err" not in key.lower():
                child[key] = value + 0.75 + rng.gauss(0.0, 0.1)
        child["probPSF"] = min(1.0, max(0.0, rng.gauss(0.5, 0.3)))
        if child_index == 1 and rng.random() < 0.5:
            child["type"] = int(PhotoType.STAR)
        _recompute_position_columns(child)
        rows.append(child)
    return rows, next_obj_number


def resolve_primaries(families: Iterable[list[dict]]) -> tuple[int, int]:
    """Mark primary/secondary detections across duplicate families.

    ``families`` yields, for each true object, the list of all its
    detection rows (including deblended children) grouped by observation
    (the first group is the one in the object's primary field).  Returns
    ``(primary_count, secondary_count)``.
    """
    primary_count = 0
    secondary_count = 0
    for observations in families:
        for observation_index, rows in enumerate(observations):
            is_primary_observation = observation_index == 0
            for row in rows:
                is_parent = bool(row["flags"] & int(PhotoFlags.BLENDED))
                if is_primary_observation and not is_parent:
                    row["mode"] = 1
                    row["flags"] |= int(PhotoFlags.PRIMARY)
                    primary_count += 1
                else:
                    row["mode"] = 3 if is_parent and is_primary_observation else 2
                    row["flags"] |= int(PhotoFlags.SECONDARY)
                    secondary_count += 1
    return primary_count, secondary_count


def primary_fraction(photo_rows: Iterable[dict]) -> float:
    """Fraction of rows flagged primary (the paper's ~80% check)."""
    total = 0
    primary = 0
    for row in photo_rows:
        total += 1
        if row["flags"] & int(PhotoFlags.PRIMARY):
            primary += 1
    return primary / total if total else 0.0
