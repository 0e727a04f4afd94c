"""Partitioning schemes: how a table's rows map onto shard nodes.

"When Database Systems Meet the Grid" distributes the SDSS catalogs
across nodes with spatial partitioning so that query shipping touches
only the nodes whose sky region a query selects.  This module provides
the three placement functions the cluster supports:

* **hash** — a stable hash of one key column (``objID``, ``specObjID``)
  modulo the shard count.  Equality predicates on the key prune to a
  single shard; co-partitioned equi-joins (both sides hashed on their
  join column with the same shard count) execute shard-locally.
* **range** — contiguous value ranges of one column, split at explicit
  (or data-quantile) boundaries.  Used for the two spatial schemes:
  *zone* partitioning on ``dec`` (declination bands, the Neighbors
  sweep's geometry) and *HTM* partitioning on ``htmid`` (trixel-id
  ranges, so the existing :mod:`repro.htm` covers prune shards for
  cone/region searches).
* **derived** — rows placed wherever their *parent* row lives, via an
  explicit key→shard map recorded while the parent was partitioned.
  The snowflake arms (Neighbors, Profile, the cross-match tables) ride
  along with their PhotoObj owner under any scheme, which is what makes
  the ``n.objID = p.objID`` joins shard-local even under zone/HTM
  placement.

All placements are *stable*: the same value routes to the same shard in
every process (Python's randomised string hashing is never used).
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Iterable, Sequence

from ..engine.types import NULL


def stable_hash(value: Any) -> int:
    """A process-independent 64-bit hash of one partition-key value."""
    if value is NULL or value is None:
        return 0
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int):
        # splitmix64: spreads sequential ids (objID is a packed counter)
        # across shards far better than the identity hash would.
        x = value & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return x ^ (x >> 31)
    return zlib.crc32(repr(value).encode("utf-8"))


def quantile_boundaries(values: Sequence[Any], shards: int) -> list[Any]:
    """``shards - 1`` split points that balance ``values`` across shards."""
    ordered = sorted(value for value in values if value is not NULL and value is not None)
    if not ordered or shards <= 1:
        return []
    boundaries = []
    for i in range(1, shards):
        boundaries.append(ordered[min(len(ordered) - 1, (i * len(ordered)) // shards)])
    return boundaries


class Placement:
    """Base class: where one table's rows live in an N-shard cluster."""

    scheme = "abstract"

    def __init__(self, table_name: str, column: str, shard_count: int):
        self.table_name = table_name
        self.column = column.lower()
        self.shard_count = shard_count

    def shard_of(self, row: dict[str, Any]) -> int:
        """The shard that owns ``row`` (keys are lower-cased column names)."""
        raise NotImplementedError

    # -- pruning -----------------------------------------------------------

    def all_shards(self) -> set[int]:
        return set(range(self.shard_count))

    def prune_equal(self, value: Any) -> set[int]:
        """Candidate shards for ``column = value``."""
        return self.all_shards()

    def prune_range(self, low: Any, high: Any) -> set[int]:
        """Candidate shards for ``low <= column <= high`` (None = open)."""
        return self.all_shards()

    def prune_ranges(self, ranges: Iterable[tuple[Any, Any]]) -> set[int]:
        """Candidate shards for a union of inclusive ranges (an HTM cover)."""
        candidates: set[int] = set()
        for low, high in ranges:
            candidates |= self.prune_range(low, high)
            if len(candidates) == self.shard_count:
                break
        return candidates

    # -- co-partitioning ---------------------------------------------------

    def route_token(self) -> tuple:
        """Identity of the value→shard mapping (equality ⇒ same routing)."""
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        return {"table": self.table_name, "scheme": self.scheme,
                "column": self.column, "shards": self.shard_count}


class HashPlacement(Placement):
    """``shard = stable_hash(row[column]) % shards``."""

    scheme = "hash"

    def shard_of(self, row: dict[str, Any]) -> int:
        return stable_hash(row.get(self.column, NULL)) % self.shard_count

    def shard_of_value(self, value: Any) -> int:
        return stable_hash(value) % self.shard_count

    def prune_equal(self, value: Any) -> set[int]:
        return {self.shard_of_value(value)}

    def route_token(self) -> tuple:
        return ("hash", self.shard_count)


class RangePlacement(Placement):
    """Contiguous value ranges split at ``boundaries`` (len = shards - 1).

    Shard ``k`` owns values in ``(boundaries[k-1], boundaries[k]]`` with
    the first shard open below and the last open above; NULLs go to
    shard 0 (they sort first, as in the engine's index ordering).
    """

    scheme = "range"

    def __init__(self, table_name: str, column: str, shard_count: int,
                 boundaries: Sequence[Any]):
        super().__init__(table_name, column, shard_count)
        if len(boundaries) != shard_count - 1:
            raise ValueError(
                f"range placement over {shard_count} shards needs "
                f"{shard_count - 1} boundaries, got {len(boundaries)}")
        self.boundaries = list(boundaries)

    def shard_of(self, row: dict[str, Any]) -> int:
        return self.shard_of_value(row.get(self.column, NULL))

    def shard_of_value(self, value: Any) -> int:
        if value is NULL or value is None:
            return 0
        return bisect.bisect_left(self.boundaries, value)

    def prune_equal(self, value: Any) -> set[int]:
        return {self.shard_of_value(value)}

    def prune_range(self, low: Any, high: Any) -> set[int]:
        first = 0 if low is None else self.shard_of_value(low)
        last = self.shard_count - 1 if high is None else self.shard_of_value(high)
        if last < first:
            return set()
        return set(range(first, last + 1))

    def route_token(self) -> tuple:
        return ("range", self.shard_count, tuple(self.boundaries))

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["boundaries"] = list(self.boundaries)
        return description


class ZonePlacement(RangePlacement):
    """Declination-band range placement (the spatial 'zone' scheme)."""

    scheme = "zone"


class HtmPlacement(RangePlacement):
    """HTM trixel-id range placement; covers prune via :meth:`prune_ranges`."""

    scheme = "htm"


class DerivedPlacement(Placement):
    """Rows co-located with their parent row through a key→shard map.

    ``column`` is the child table's reference to the parent's unique key
    (e.g. Neighbors.objID → PhotoObj.objID).  The map is built while the
    parent is partitioned, so a child row always lands on the shard that
    owns its parent — co-partitioned joins on the key stay shard-local
    under *any* parent scheme.  Keys missing from the map (a dangling or
    late-arriving reference) fall back to the stable hash.
    """

    scheme = "derived"

    def __init__(self, table_name: str, column: str, shard_count: int,
                 parent_table: str, route: dict[Any, int]):
        super().__init__(table_name, column, shard_count)
        self.parent_table = parent_table.lower()
        self.route = route

    def shard_of(self, row: dict[str, Any]) -> int:
        return self.shard_of_value(row.get(self.column, NULL))

    def shard_of_value(self, value: Any) -> int:
        shard = self.route.get(value)
        if shard is None:
            return stable_hash(value) % self.shard_count
        return shard

    def prune_equal(self, value: Any) -> set[int]:
        return {self.shard_of_value(value)}

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["parent"] = self.parent_table
        return description


def colocated(left: Placement, left_column: str,
              right: Placement, right_column: str) -> bool:
    """True when ``left.left_column = right.right_column`` is shard-local.

    Holds when both sides route the join key identically: two hash/range
    placements with the same routing token keyed on the join columns, a
    derived child joined to its parent on the derivation key, or two
    children derived from the same parent on the same key.
    """
    left_column = left_column.lower()
    right_column = right_column.lower()
    if left.shard_count != right.shard_count:
        return False
    if left_column != left.column or right_column != right.column:
        # A derived child joined against its parent on the derivation key:
        # the parent's own placement column may differ (zone/htm parents),
        # but the parent's unique key IS the map key, so matching rows
        # share a shard.
        return (_derived_parent_join(left, left_column, right, right_column)
                or _derived_parent_join(right, right_column, left, left_column))
    if isinstance(left, DerivedPlacement) and isinstance(right, DerivedPlacement):
        return (left.parent_table == right.parent_table
                and left.column == right.column)
    if isinstance(left, DerivedPlacement) or isinstance(right, DerivedPlacement):
        return (_derived_parent_join(left, left_column, right, right_column)
                or _derived_parent_join(right, right_column, left, left_column))
    return left.route_token() == right.route_token()


def _derived_parent_join(child: Placement, child_column: str,
                         parent: Placement, parent_column: str) -> bool:
    if not isinstance(child, DerivedPlacement):
        return False
    return (child.column == child_column
            and parent.table_name.lower() == child.parent_table
            and parent_column == child_column)


#: Partition-key affinity of the SkyServer schema: each table's natural
#: placement column, and (parent, key) for the snowflake arms that ride
#: along with their owning row under the spatial schemes.
SKYSERVER_AFFINITY: dict[str, str] = {
    "field": "fieldid",
    "frame": "fieldid",
    "photoobj": "objid",
    "profile": "objid",
    "neighbors": "objid",
    "usno": "objid",
    "rosat": "objid",
    "first": "objid",
    "plate": "plateid",
    "specobj": "specobjid",
    "specline": "specobjid",
    "speclineindex": "specobjid",
    "xcredshift": "specobjid",
    "elredshift": "specobjid",
}

#: Children that derive their placement from PhotoObj's row placement
#: (so zone/HTM partitioning keeps the whole photo snowflake co-local).
PHOTO_CHILDREN = ("profile", "neighbors", "usno", "rosat", "first")
