"""Population synthesis: the "true sky" behind the synthetic survey.

The generator draws stars, galaxies, quasars and moving objects with
magnitude and colour distributions close enough to the real sky that
the paper's data-mining queries are meaningful, and plants the specific
populations the paper's worked examples depend on:

* a cluster of unsaturated galaxies within 1 arcminute of
  (ra, dec) = (185°, −0.5°), so Query 1 returns a handful of rows;
* a few very bright, saturated objects near the same spot (the rows
  Query 1 must exclude);
* slow-moving asteroids whose row/column velocities satisfy
  50 ≤ rowv² + colv² ≤ 1000 (Query 15A);
* elongated red/green detection pairs in adjacent fields for the
  fast-moving NEO query (Query 15B), including one degenerate pair;
* quasars with the blue colours the colour-cut scan queries select.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .geometry import SurveyGeometry

#: Mean density of *unique* catalogued sources per square degree.  The Early
#: Data Release holds ≈30 000 catalog rows per square degree (14 M rows over
#: ~460 square degrees); each unique source yields ≈1.3 rows once duplicate
#: detections and deblended children are counted, so the true-sky density is
#: set to ≈23 000 per square degree.
OBJECTS_PER_SQ_DEG = 23000.0

#: Class mix of the detected population.
#: Asteroids are over-represented relative to the real sky (~1e-4) so the
#: moving-object query returns a usable sample at reproduction scale; the
#: substitution is recorded in DESIGN.md / EXPERIMENTS.md.
CLASS_FRACTIONS = {
    "galaxy": 0.566,
    "star": 0.405,
    "qso": 0.025,
    "asteroid": 0.004,
}


@dataclass
class TrueObject:
    """One astrophysical source before it is "observed" by the pipeline."""

    kind: str                      # 'star', 'galaxy', 'qso' or 'asteroid'
    ra: float
    dec: float
    mag_r: float                   # true r-band magnitude
    colors: dict[str, float]       # true magnitude in each band
    redshift: float = 0.0
    size_arcsec: float = 0.0       # effective radius (galaxies)
    axis_ratio: float = 1.0        # b/a
    position_angle: float = 0.0    # degrees
    is_de_vaucouleurs: bool = False
    has_emission_lines: bool = False
    rowv: float = 0.0              # row velocity (moving objects)
    colv: float = 0.0              # column velocity (moving objects)
    extinction_r: float = 0.05
    tag: str = ""                  # planted-population marker


@dataclass
class PlantedPopulations:
    """Knobs for the populations the paper's worked examples rely on."""

    q1_cluster_center: tuple[float, float] = (185.0, -0.5)
    q1_cluster_galaxies: int = 14
    q1_saturated_objects: int = 4
    q1_cluster_radius_arcmin: float = 0.9
    neo_pairs: int = 3
    neo_degenerate_pairs: int = 1
    high_extinction_fraction: float = 0.08
    high_extinction_value: float = 0.25


def synthesize_population(geometry: SurveyGeometry, *,
                          rng: Optional[random.Random] = None,
                          density_per_sq_deg: float = OBJECTS_PER_SQ_DEG,
                          planted: Optional[PlantedPopulations] = None) -> list[TrueObject]:
    """Draw the full true-sky population for the survey footprint."""
    rng = rng or random.Random(0)
    planted = planted or PlantedPopulations()
    area = geometry.total_area_sq_deg
    expected = density_per_sq_deg * area
    count = max(50, _poisson(rng, expected))
    objects: list[TrueObject] = []
    for _ in range(count):
        ra = rng.uniform(geometry.ra_min, geometry.ra_max)
        dec = rng.uniform(geometry.dec_min, geometry.dec_max)
        kind = _choose_class(rng)
        objects.append(_draw_object(rng, kind, ra, dec, planted))
    objects.extend(_plant_q1_cluster(rng, planted))
    objects.extend(_plant_neo_pairs(rng, geometry, planted))
    return objects


# ---------------------------------------------------------------------------
# Class and magnitude sampling
# ---------------------------------------------------------------------------

def _choose_class(rng: random.Random) -> str:
    roll = rng.random()
    cumulative = 0.0
    for kind, fraction in CLASS_FRACTIONS.items():
        cumulative += fraction
        if roll < cumulative:
            return kind
    return "galaxy"


def _sample_magnitude(rng: random.Random, bright: float = 14.0, faint: float = 23.0,
                      slope: float = 0.3) -> float:
    """Draw from the euclidean-ish number-magnitude law N(<m) ∝ 10^(slope·m)."""
    u = rng.random()
    log_bright = 10 ** (slope * bright)
    log_faint = 10 ** (slope * faint)
    return math.log10(log_bright + u * (log_faint - log_bright)) / slope


def _stellar_colors(rng: random.Random, mag_r: float) -> dict[str, float]:
    """Colours drawn along a simplified stellar locus."""
    g_r = rng.gauss(0.62, 0.30)
    u_g = 1.0 + 1.5 * max(0.0, g_r) + rng.gauss(0.0, 0.15)
    r_i = 0.4 * g_r + rng.gauss(0.0, 0.08)
    i_z = 0.2 * g_r + rng.gauss(0.0, 0.08)
    return _colors_from_offsets(mag_r, u_g, g_r, r_i, i_z)


def _galaxy_colors(rng: random.Random, mag_r: float, is_de_vaucouleurs: bool) -> dict[str, float]:
    if is_de_vaucouleurs:
        # Red, early-type galaxies.
        g_r = rng.gauss(0.85, 0.12)
        u_g = rng.gauss(1.75, 0.20)
    else:
        # Blue, star-forming disks.
        g_r = rng.gauss(0.55, 0.18)
        u_g = rng.gauss(1.25, 0.25)
    r_i = rng.gauss(0.40, 0.10)
    i_z = rng.gauss(0.25, 0.10)
    return _colors_from_offsets(mag_r, u_g, g_r, r_i, i_z)


def _quasar_colors(rng: random.Random, mag_r: float) -> dict[str, float]:
    """Quasars sit blueward of the stellar locus in u−g (the colour-cut queries)."""
    u_g = rng.gauss(0.10, 0.12)
    g_r = rng.gauss(0.20, 0.12)
    r_i = rng.gauss(0.15, 0.10)
    i_z = rng.gauss(0.05, 0.10)
    return _colors_from_offsets(mag_r, u_g, g_r, r_i, i_z)


def _asteroid_colors(rng: random.Random, mag_r: float) -> dict[str, float]:
    return _colors_from_offsets(mag_r, rng.gauss(1.5, 0.2), rng.gauss(0.5, 0.1),
                                rng.gauss(0.2, 0.1), rng.gauss(0.1, 0.1))


def _colors_from_offsets(mag_r: float, u_g: float, g_r: float,
                         r_i: float, i_z: float) -> dict[str, float]:
    mag_g = mag_r + g_r
    return {
        "u": mag_g + u_g,
        "g": mag_g,
        "r": mag_r,
        "i": mag_r - r_i,
        "z": mag_r - r_i - i_z,
    }


def _draw_object(rng: random.Random, kind: str, ra: float, dec: float,
                 planted: PlantedPopulations) -> TrueObject:
    mag_r = _sample_magnitude(rng)
    extinction = 0.03 + abs(rng.gauss(0.0, 0.03))
    if rng.random() < planted.high_extinction_fraction:
        extinction = planted.high_extinction_value + abs(rng.gauss(0.0, 0.05))
    if kind == "star":
        return TrueObject(kind, ra, dec, mag_r, _stellar_colors(rng, mag_r),
                          extinction_r=extinction)
    if kind == "qso":
        redshift = abs(rng.gauss(1.3, 0.7))
        return TrueObject(kind, ra, dec, mag_r, _quasar_colors(rng, mag_r),
                          redshift=redshift, has_emission_lines=True,
                          extinction_r=extinction)
    if kind == "asteroid":
        # Slow-moving solar-system objects: 50 <= rowv^2 + colv^2 <= 1000
        # in the paper's velocity units, with both components non-negative.
        speed = math.sqrt(rng.uniform(60.0, 950.0))
        angle = rng.uniform(0.05, math.pi / 2 - 0.05)
        return TrueObject(kind, ra, dec, min(mag_r, 21.0), _asteroid_colors(rng, mag_r),
                          rowv=speed * math.cos(angle), colv=speed * math.sin(angle),
                          extinction_r=extinction)
    # Galaxies.
    is_de_vaucouleurs = rng.random() < 0.4
    redshift = min(0.6, abs(rng.gauss(0.10, 0.08)) + 0.01)
    size = max(1.0, rng.gauss(4.0, 2.0)) / (1.0 + 4.0 * redshift)
    axis_ratio = min(1.0, max(0.25, rng.gauss(0.7, 0.2)))
    return TrueObject(kind, ra, dec, mag_r,
                      _galaxy_colors(rng, mag_r, is_de_vaucouleurs),
                      redshift=redshift, size_arcsec=size, axis_ratio=axis_ratio,
                      position_angle=rng.uniform(0.0, 180.0),
                      is_de_vaucouleurs=is_de_vaucouleurs,
                      has_emission_lines=not is_de_vaucouleurs and rng.random() < 0.7,
                      extinction_r=extinction)


# ---------------------------------------------------------------------------
# Planted populations
# ---------------------------------------------------------------------------

def _plant_q1_cluster(rng: random.Random, planted: PlantedPopulations) -> list[TrueObject]:
    """Galaxies (and a few saturated interlopers) within 1' of the Query 1 spot."""
    center_ra, center_dec = planted.q1_cluster_center
    objects: list[TrueObject] = []
    radius_deg = planted.q1_cluster_radius_arcmin / 60.0
    for index in range(planted.q1_cluster_galaxies):
        radius = radius_deg * math.sqrt(rng.random())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        ra = center_ra + radius * math.cos(angle) / max(0.2, math.cos(math.radians(center_dec)))
        dec = center_dec + radius * math.sin(angle)
        mag_r = rng.uniform(17.0, 20.5)
        galaxy = TrueObject("galaxy", ra, dec, mag_r,
                            _galaxy_colors(rng, mag_r, index % 3 == 0),
                            redshift=rng.gauss(0.08, 0.01),
                            size_arcsec=rng.uniform(2.0, 6.0),
                            axis_ratio=rng.uniform(0.5, 0.95),
                            position_angle=rng.uniform(0, 180),
                            is_de_vaucouleurs=index % 3 == 0,
                            has_emission_lines=index % 3 != 0,
                            tag="q1_cluster")
        objects.append(galaxy)
    for _ in range(planted.q1_saturated_objects):
        radius = radius_deg * math.sqrt(rng.random())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        ra = center_ra + radius * math.cos(angle)
        dec = center_dec + radius * math.sin(angle)
        mag_r = rng.uniform(11.0, 13.5)     # bright enough to saturate
        objects.append(TrueObject("galaxy", ra, dec, mag_r,
                                  _galaxy_colors(rng, mag_r, True),
                                  redshift=0.02, size_arcsec=8.0,
                                  axis_ratio=0.8, is_de_vaucouleurs=True,
                                  tag="q1_saturated"))
    return objects


def _plant_neo_pairs(rng: random.Random, geometry: SurveyGeometry,
                     planted: PlantedPopulations) -> list[TrueObject]:
    """Fast-moving object streak pairs for the NEO query (Query 15B).

    Each pair is two elongated detections — one dominated by the r band,
    one by the g band — within 4 arcminutes of one another, placed so
    the two detections land in adjacent fields of the same run/camcol.
    The degenerate pairs share (almost) the same position, mimicking the
    deblended duplicate the paper mentions.
    """
    objects: list[TrueObject] = []
    candidates = [geometry.fields[index] for index in range(len(geometry.fields))
                  if geometry.adjacent_fields(geometry.fields[index])]
    if not candidates:
        candidates = list(geometry.fields)
    total_pairs = planted.neo_pairs + planted.neo_degenerate_pairs
    for pair_index in range(total_pairs):
        home = candidates[pair_index % len(candidates)]
        neighbours = geometry.adjacent_fields(home)
        partner_field = neighbours[0] if neighbours else home
        degenerate = pair_index >= planted.neo_pairs
        base_mag = rng.uniform(17.0, 20.0)
        separation_deg = (0.002 if degenerate else rng.uniform(0.02, 0.055))
        dec_low = max(home.dec_min, partner_field.dec_min)
        dec_high = min(home.dec_max, partner_field.dec_max)
        dec_red = (rng.uniform(dec_low + 0.005, dec_high - 0.005)
                   if dec_high - dec_low > 0.01 else home.dec_center)
        if partner_field is home:
            # No adjacent field column exists (very small survey chunks):
            # keep both detections inside the home field.
            ra_red = home.ra_center - separation_deg / 2.0
            ra_green = ra_red + separation_deg
        elif partner_field.ra_min >= home.ra_max:
            ra_red = home.ra_max - 0.01
            ra_green = ra_red + separation_deg
        else:
            ra_red = home.ra_min + 0.01
            ra_green = ra_red - separation_deg
        dec_green = dec_red + rng.uniform(-0.005, 0.005)
        tag = f"neo_pair_{pair_index}" + ("_degenerate" if degenerate else "")
        red = TrueObject("asteroid", ra_red, dec_red, base_mag,
                         _colors_from_offsets(base_mag, 2.5, 2.2, -0.3, -0.2),
                         rowv=0.0, colv=0.0, size_arcsec=4.0, axis_ratio=0.35,
                         position_angle=rng.uniform(0, 180), tag=tag + "_red")
        green_mag = base_mag + rng.uniform(-1.2, 1.2)
        green = TrueObject("asteroid", ra_green, dec_green, green_mag + 2.2,
                           _colors_from_offsets(green_mag + 2.2, 2.0, -2.2, -2.4, -2.5),
                           rowv=0.0, colv=0.0, size_arcsec=4.0, axis_ratio=0.35,
                           position_angle=rng.uniform(0, 180), tag=tag + "_green")
        objects.extend([red, green])
    return objects


def _poisson(rng: random.Random, mean: float) -> int:
    """Poisson sample; falls back to a normal approximation for large means."""
    if mean > 500.0:
        return max(0, int(rng.gauss(mean, math.sqrt(mean))))
    total = 0
    threshold = math.exp(-mean)
    product = rng.random()
    while product > threshold:
        total += 1
        product *= rng.random()
    return total
