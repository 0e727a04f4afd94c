"""Spherical regions accepted by ``spHTM_Cover``.

The paper's cover function accepts "either a circle (ra, dec, radius),
a half-space (the intersection of planes), or a polygon defined by a
sequence of points" (§9.1.4).  Each region here knows how to classify a
trixel as fully inside, fully outside, or partially overlapping, which
is all the cover algorithm needs; classification errs on the side of
"partial" so covers are always supersets of the true region.

Regions are frozen, so everything a classification derives from the
region alone (a circle's halfspace, a cap's angular radius, a polygon's
edge halfspaces, a box's bounding cap) is a ``cached_property``: computed
once per region, not once per trixel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .trixel import Trixel
from .vectors import (Vector, angular_distance, cross, dot, normalize,
                      radec_to_unit, unit_to_radec)


class Markup(enum.Enum):
    """Classification of a trixel against a region."""

    INSIDE = "inside"
    PARTIAL = "partial"
    OUTSIDE = "outside"


class Region:
    """Base class for spherical regions."""

    def contains(self, vector: Sequence[float]) -> bool:
        raise NotImplementedError

    def contains_radec(self, ra: float, dec: float) -> bool:
        return self.contains(radec_to_unit(ra, dec))

    def classify(self, trixel: Trixel) -> Markup:
        """INSIDE/PARTIAL/OUTSIDE for a ``Trixel`` or a ``mesh.MeshNode``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Halfspace(Region):
    """The set of points p with p·normal >= offset.

    ``offset`` is the cosine of the cap's angular radius; offset 0 is a
    hemisphere, positive offsets are caps smaller than a hemisphere.
    """

    normal: Vector
    offset: float

    @cached_property
    def angular_radius(self) -> float:
        """Angular radius of the cap in degrees."""
        return math.degrees(math.acos(max(-1.0, min(1.0, self.offset))))

    def contains(self, vector: Sequence[float]) -> bool:
        return dot(self.normal, vector) >= self.offset - 1.0e-12

    def classify(self, trixel: Trixel) -> Markup:
        v0, v1, v2 = trixel.corners
        corners_inside = self.contains(v0) + self.contains(v1) + self.contains(v2)
        if corners_inside == 3:
            # The cap could still bulge out across an edge, so "inside" here is
            # only safe for covers (a superset); callers re-filter exact rows.
            return Markup.INSIDE
        if corners_inside > 0:
            return Markup.PARTIAL
        center, radius = trixel.bounding_cap()
        separation = angular_distance(center, self.normal)
        if separation > self.angular_radius + radius:
            return Markup.OUTSIDE
        return Markup.PARTIAL


@dataclass(frozen=True)
class Circle(Region):
    """A circular cap given by its center (ra, dec) and radius in arcminutes."""

    ra: float
    dec: float
    radius_arcmin: float

    @cached_property
    def halfspace(self) -> Halfspace:
        radius_degrees = self.radius_arcmin / 60.0
        return Halfspace(radec_to_unit(self.ra, self.dec),
                         math.cos(math.radians(radius_degrees)))

    def contains(self, vector: Sequence[float]) -> bool:
        return self.halfspace.contains(vector)

    def classify(self, trixel: Trixel) -> Markup:
        return self.halfspace.classify(trixel)


@dataclass(frozen=True)
class Convex(Region):
    """An intersection of halfspaces (the paper's 'half-space' region)."""

    halfspaces: tuple[Halfspace, ...]

    def contains(self, vector: Sequence[float]) -> bool:
        return all(halfspace.contains(vector) for halfspace in self.halfspaces)

    def classify(self, trixel: Trixel) -> Markup:
        worst = Markup.INSIDE
        for halfspace in self.halfspaces:
            markup = halfspace.classify(trixel)
            if markup is Markup.OUTSIDE:
                return Markup.OUTSIDE
            if markup is Markup.PARTIAL:
                worst = Markup.PARTIAL
        return worst


@dataclass(frozen=True)
class Polygon(Region):
    """A convex spherical polygon given by its (ra, dec) vertices.

    Each edge contributes a great-circle halfspace; vertices must be
    listed counter-clockwise as seen from outside the sphere (the
    constructor flips the orientation automatically if needed).
    """

    vertices: tuple[tuple[float, float], ...]

    @cached_property
    def convex(self) -> Convex:
        points = [radec_to_unit(ra, dec) for ra, dec in self.vertices]
        if len(points) < 3:
            raise ValueError("a polygon needs at least three vertices")
        interior = normalize(tuple(sum(coords) for coords in zip(*points)))
        halfspaces = []
        count = len(points)
        for position in range(count):
            a = points[position]
            b = points[(position + 1) % count]
            normal = normalize(cross(a, b))
            if dot(normal, interior) < 0:
                normal = (-normal[0], -normal[1], -normal[2])
            halfspaces.append(Halfspace(normal, 0.0))
        return Convex(tuple(halfspaces))

    def contains(self, vector: Sequence[float]) -> bool:
        return self.convex.contains(vector)

    def classify(self, trixel: Trixel) -> Markup:
        return self.convex.classify(trixel)


@dataclass(frozen=True)
class RectangleEq(Region):
    """An (ra, dec) bounding box, used by the web interface's rectangular searches."""

    ra_min: float
    ra_max: float
    dec_min: float
    dec_max: float

    def contains(self, vector: Sequence[float]) -> bool:
        ra, dec = unit_to_radec(vector)
        return self.contains_radec(ra, dec)

    def contains_radec(self, ra: float, dec: float) -> bool:
        if not (self.dec_min <= dec <= self.dec_max):
            return False
        if self.ra_min <= self.ra_max:
            return self.ra_min <= ra <= self.ra_max
        # The box wraps through ra = 0.
        return ra >= self.ra_min or ra <= self.ra_max

    def classify(self, trixel: Trixel) -> Markup:
        corners_inside = sum(1 for corner in trixel.corners if self.contains(corner))
        if corners_inside == 3:
            return Markup.INSIDE
        if corners_inside > 0:
            return Markup.PARTIAL
        center, radius = trixel.bounding_cap()
        box_center, half_diagonal = self.bounding_cap
        if angular_distance(center, box_center) > radius + half_diagonal:
            return Markup.OUTSIDE
        return Markup.PARTIAL

    @cached_property
    def bounding_cap(self) -> tuple[Vector, float]:
        """(box centre, half-diagonal in degrees): a cap around the box.

        A box wrapping through ra = 0 is centred half its wrapped width
        past ``ra_min``.  The corners bound a box at most 180° wide in
        ra; a wider one reaches farther along its edges, so its cap is
        the whole sphere.
        """
        if self.ra_min <= self.ra_max:
            center_ra = (self.ra_min + self.ra_max) / 2.0
            ra_width = self.ra_max - self.ra_min
        else:
            center_ra = (self.ra_min + self.ra_max + 360.0) / 2.0 % 360.0
            ra_width = self.ra_max + 360.0 - self.ra_min
        box_center = radec_to_unit(center_ra, (self.dec_min + self.dec_max) / 2.0)
        if ra_width > 180.0:
            return box_center, 180.0
        half_diagonal = max(
            angular_distance(box_center, radec_to_unit(self.ra_min, self.dec_min)),
            angular_distance(box_center, radec_to_unit(self.ra_max, self.dec_max)),
            angular_distance(box_center, radec_to_unit(self.ra_min, self.dec_max)),
            angular_distance(box_center, radec_to_unit(self.ra_max, self.dec_min)),
        )
        return box_center, half_diagonal
