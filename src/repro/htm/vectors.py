"""Spherical coordinate utilities.

The SkyServer stores three coordinate representations for every object
(paper §9.1.4): right ascension / declination in the J2000 system, the
(x, y, z) components of the corresponding unit vector (kept because
"the dot product and the Cartesian difference of two vectors are quick
ways to determine the arc-angle or distance between them"), and the
HTM index.  This module provides the conversions and the arc-angle
arithmetic shared by the HTM code, the Neighbors pre-computation and
the spatial search functions.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Vector = tuple[float, float, float]

#: Arc-minutes and arc-seconds per degree, used throughout the spatial code.
ARCMIN_PER_DEGREE = 60.0
ARCSEC_PER_DEGREE = 3600.0


def radec_to_unit(ra_degrees: float, dec_degrees: float) -> Vector:
    """Convert (ra, dec) in degrees to a unit vector (x, y, z)."""
    ra = math.radians(ra_degrees)
    dec = math.radians(dec_degrees)
    cos_dec = math.cos(dec)
    return (cos_dec * math.cos(ra), cos_dec * math.sin(ra), math.sin(dec))


def unit_to_radec(vector: Sequence[float]) -> tuple[float, float]:
    """Convert a unit vector to (ra, dec) in degrees, with ra in [0, 360)."""
    x, y, z = vector
    ra = math.degrees(math.atan2(y, x))
    if ra < 0.0:
        ra += 360.0
    z_clamped = max(-1.0, min(1.0, z))
    dec = math.degrees(math.asin(z_clamped))
    return ra, dec


def normalize(vector: Sequence[float]) -> Vector:
    """Return the unit vector in the direction of ``vector``."""
    x, y, z = vector
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return (x / norm, y / norm, z / norm)


def dot(a: Sequence[float], b: Sequence[float]) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Sequence[float], b: Sequence[float]) -> Vector:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def midpoint(a: Sequence[float], b: Sequence[float]) -> Vector:
    """The normalized midpoint of two unit vectors (an HTM edge split)."""
    return normalize((a[0] + b[0], a[1] + b[1], a[2] + b[2]))


def angular_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Arc angle between two unit vectors, in degrees.

    Uses the atan2 form, which stays accurate for very small separations
    where ``acos(dot)`` loses precision (sub-arcsecond HTM triangles).
    """
    x, y, z = cross(a, b)
    # sum() of the same three squares in the same order as the original
    # generator form (3.12+ sums floats with compensation; math.hypot or
    # a chain of '+' would round differently and move HTM covers).
    cross_norm = math.sqrt(sum((x * x, y * y, z * z)))
    return math.degrees(math.atan2(cross_norm, dot(a, b)))


def angular_distance_radec(ra1: float, dec1: float, ra2: float, dec2: float) -> float:
    """Arc angle in degrees between two (ra, dec) positions in degrees."""
    return angular_distance(radec_to_unit(ra1, dec1), radec_to_unit(ra2, dec2))


def arcmin_between(ra1: float, dec1: float, ra2: float, dec2: float) -> float:
    """Arc distance in arcminutes between two (ra, dec) positions."""
    return angular_distance_radec(ra1, dec1, ra2, dec2) * ARCMIN_PER_DEGREE


def centroid(vectors: Iterable[Sequence[float]]) -> Vector:
    """The normalized centroid of a set of unit vectors."""
    sum_x = sum_y = sum_z = 0.0
    count = 0
    for vector in vectors:
        sum_x += vector[0]
        sum_y += vector[1]
        sum_z += vector[2]
        count += 1
    if count == 0:
        raise ValueError("centroid of an empty set of vectors")
    return normalize((sum_x, sum_y, sum_z))
