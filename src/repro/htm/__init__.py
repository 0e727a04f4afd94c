"""Hierarchical Triangular Mesh (HTM) spatial indexing, built from scratch.

The Johns Hopkins HTM code was "added to SQL Server" as an extended
stored procedure (paper §9.1.4); here it is an ordinary Python package
whose ids are stored in BIGINT columns and range-scanned through the
engine's B-tree indices — the same B-tree-over-64-bit-ids design the
paper describes.

Lookups (``lookup_id``) and covers (``cover``, ``cover_circle``) walk
one shared, lazily built trixel mesh (``mesh.MeshNode``) that computes
each trixel's children, edge normals and bounding cap once, and circle
covers are memoised by their exact arguments; ``cover.py`` documents the
retained level, the memory bound and why the answers are byte-identical
to the plain ``Trixel`` descent that the tests keep as the oracle.
"""

from .cover import HtmRange, cover, cover_circle, depth_for_radius, merge_ranges, ranges_contain
from .mesh import (DEFAULT_DEPTH, id_range_at_depth, lookup_id, lookup_vector,
                   parent_id, triangle_side_arcsec, trixel)
from .regions import Circle, Convex, Halfspace, Markup, Polygon, RectangleEq, Region
from .trixel import Trixel, htm_id_to_name, htm_level, htm_name_to_id, root_trixels
from .vectors import (ARCMIN_PER_DEGREE, ARCSEC_PER_DEGREE, angular_distance,
                      angular_distance_radec, arcmin_between, cross, dot, midpoint,
                      normalize, radec_to_unit, unit_to_radec)

__all__ = [
    "DEFAULT_DEPTH",
    "lookup_id",
    "lookup_vector",
    "id_range_at_depth",
    "parent_id",
    "trixel",
    "triangle_side_arcsec",
    "Trixel",
    "root_trixels",
    "htm_level",
    "htm_id_to_name",
    "htm_name_to_id",
    "HtmRange",
    "cover",
    "cover_circle",
    "depth_for_radius",
    "merge_ranges",
    "ranges_contain",
    "Region",
    "Circle",
    "Halfspace",
    "Convex",
    "Polygon",
    "RectangleEq",
    "Markup",
    "radec_to_unit",
    "unit_to_radec",
    "angular_distance",
    "angular_distance_radec",
    "arcmin_between",
    "normalize",
    "dot",
    "cross",
    "midpoint",
    "ARCMIN_PER_DEGREE",
    "ARCSEC_PER_DEGREE",
]
