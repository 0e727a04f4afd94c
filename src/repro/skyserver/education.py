"""Educational projects (paper §6).

Two of the paper's projects are data products this module can build
from a loaded server:

* the **Hubble diagram** project ("a plot of the velocities (or
  redshifts) of distant galaxies as a function of their distances from
  Earth"), for which the students need a small table of galaxy
  redshifts and magnitudes — Figure 4 plots nine of them;
* the **Old-Time Astronomy** sketching project, for which the students
  need cut-out images of a handful of photogenic objects.

Both are deliberately thin layers over public SQL so they double as
documentation of how the education pages use the same interfaces as the
astronomers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .server import SkyServer


@dataclass
class HubblePoint:
    """One galaxy on the student Hubble diagram."""

    obj_id: int
    redshift: float
    magnitude: float

    @property
    def velocity_km_s(self) -> float:
        """The low-redshift approximation v = c·z the project uses."""
        return 299792.458 * self.redshift


@dataclass
class HubbleDiagram:
    """The data behind Figure 4's right panel."""

    points: list[HubblePoint]

    def slope_mag_per_dex(self) -> float:
        """Least-squares slope of magnitude against log10(redshift).

        An expanding universe gives ≈5 magnitudes per decade of redshift
        at low z; the project asks students to "discover" the trend.
        """
        usable = [point for point in self.points if point.redshift > 0]
        if len(usable) < 2:
            return 0.0
        xs = [math.log10(point.redshift) for point in usable]
        ys = [point.magnitude for point in usable]
        n = len(usable)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        variance = sum((x - mean_x) ** 2 for x in xs)
        return covariance / variance if variance else 0.0

    def is_expanding(self) -> bool:
        """Fainter galaxies have higher redshift: the expansion signature."""
        return self.slope_mag_per_dex() > 0


def hubble_diagram(server: SkyServer, *, count: int = 9,
                   max_redshift: float = 0.5) -> HubbleDiagram:
    """Build the student Hubble diagram from confident galaxy spectra.

    Returns ``count`` galaxies spread over the available redshift range
    (Figure 4 uses nine), each with its redshift and r-band magnitude.
    """
    result = server.query(f"""
        select p.objID, s.z, p.petroMag_r
        from SpecGalaxy s
        join PhotoObj p on p.objID = s.objID
        where s.z > 0.001 and s.z < {max_redshift}
        order by s.z
    """)
    rows = result.rows
    if not rows:
        return HubbleDiagram(points=[])
    if len(rows) > count:
        stride = len(rows) / count
        rows = [rows[int(index * stride)] for index in range(count)]
    points = [HubblePoint(obj_id=row["objID"], redshift=row["z"],
                          magnitude=row["petroMag_r"]) for row in rows]
    return HubbleDiagram(points=points)


@dataclass
class SketchTarget:
    """One object for the Old-Time Astronomy sketching exercise."""

    obj_id: int
    ra: float
    dec: float
    magnitude: float
    petro_radius: float
    explorer_url: str


def old_time_astronomy_targets(server: SkyServer, *, count: int = 6) -> list[SketchTarget]:
    """Photogenic (bright, extended) galaxies for the sketching project."""
    rows = server.famous_places(count)
    return [SketchTarget(obj_id=row["objID"], ra=row["ra"], dec=row["dec"],
                         magnitude=row["modelMag_r"], petro_radius=row["petroRad_r"],
                         explorer_url=row["url"]) for row in rows]


@dataclass
class ProjectCatalogEntry:
    """One entry of the education-project catalog (the audience levels of §6)."""

    name: str
    level: str
    description: str
    teacher_site: bool = True


def project_catalog() -> list[ProjectCatalogEntry]:
    """The project ladder the paper describes, from 'For Kids' to 'Challenges'."""
    return [
        ProjectCatalogEntry(
            "Old Time Astronomy", "For Kids",
            "Sketch SDSS images the way pre-photography astronomers recorded the sky."),
        ProjectCatalogEntry(
            "Colors of Stars", "For Kids",
            "Compare the colours of bright stars using the five-band magnitudes."),
        ProjectCatalogEntry(
            "The Hubble Diagram", "Advanced / High School",
            "Plot redshift against relative distance for galaxies and discover the expansion."),
        ProjectCatalogEntry(
            "Galaxy Zoo Warm-up", "General Astronomy",
            "Classify galaxies as spirals or ellipticals from their images and profile fits."),
        ProjectCatalogEntry(
            "Quasar Hunting", "Challenges",
            "Use colour cuts and the spectroscopic tables to find quasars, then check redshifts."),
        ProjectCatalogEntry(
            "Asteroid Search", "Challenges",
            "Re-run the moving-object query and estimate how many asteroids the survey sees.",
            teacher_site=False),
    ]
