"""Survey geometry: stripes, strips, runs, camera columns and fields.

"The actual observations are taken in stripes about 2.5° wide and 120°
long ... these stripes are in fact the mosaic of two night's
observations (two strips) with about 10% overlap.  Consequently, about
11% of the objects appear more than once in the pipeline." (paper §9,
Figure 6).

The reproduction generates a configurable chunk of one equatorial
stripe: two interleaved strips (one run each), six camera columns per
strip whose bands overlap their neighbours by a few percent, and fields
tiling each band along right ascension.  Objects that fall inside the
overlap between two bands are detected twice, which is how the survey's
primary/secondary duplication arises downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

#: Geometry constants chosen to match the SDSS camera layout closely enough
#: that the derived statistics (objects per field, duplicate fraction) land
#: in the paper's range.
STRIPE_WIDTH_DEG = 2.5
CAMCOLS_PER_STRIP = 6
BANDS_PER_STRIPE = 2 * CAMCOLS_PER_STRIP
FIELD_LENGTH_DEG = 0.22
#: Each interior band boundary is doubly covered over 2 x this fraction of a
#: band height; 11 boundaries over 12 bands gives the paper's ~11% duplicates.
BAND_OVERLAP_FRACTION = 0.06
NORTH_RUN = 756
SOUTH_RUN = 745
DEFAULT_RERUN = 44
DEFAULT_STRIPE_NUMBER = 10


@dataclass(frozen=True)
class FieldGeometry:
    """One field: the unit of pipeline processing and of the Field table."""

    field_id: int
    run: int
    rerun: int
    camcol: int
    field: int
    stripe: int
    strip: str
    ra_min: float
    ra_max: float
    dec_min: float
    dec_max: float
    mjd: float
    seeing: float
    sky_brightness: float
    quality: int

    @property
    def ra_center(self) -> float:
        return (self.ra_min + self.ra_max) / 2.0

    @property
    def dec_center(self) -> float:
        return (self.dec_min + self.dec_max) / 2.0

    def contains(self, ra: float, dec: float) -> bool:
        return (self.ra_min <= ra < self.ra_max
                and self.dec_min <= dec < self.dec_max)


@dataclass
class SurveyGeometry:
    """The full set of fields of the generated survey chunk."""

    fields: list[FieldGeometry]
    ra_min: float
    ra_max: float
    dec_min: float
    dec_max: float
    stripe: int = DEFAULT_STRIPE_NUMBER

    def __iter__(self) -> Iterator[FieldGeometry]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    @property
    def total_area_sq_deg(self) -> float:
        """Footprint area (overlaps counted once)."""
        return (self.ra_max - self.ra_min) * (self.dec_max - self.dec_min)

    def fields_containing(self, ra: float, dec: float) -> list[FieldGeometry]:
        """Every field whose footprint contains the position (1 normally, 2 in overlaps)."""
        return [geometry for geometry in self.fields if geometry.contains(ra, dec)]

    def primary_field_for(self, ra: float, dec: float) -> Optional[FieldGeometry]:
        """The field that "wins" a duplicate detection (lowest run, then camcol)."""
        candidates = self.fields_containing(ra, dec)
        if not candidates:
            return None
        return min(candidates, key=lambda g: (g.run, g.camcol, g.field))

    def adjacent_fields(self, geometry: FieldGeometry) -> list[FieldGeometry]:
        """Fields in the same run/camcol with a field number differing by one."""
        return [other for other in self.fields
                if other.run == geometry.run and other.camcol == geometry.camcol
                and abs(other.field - geometry.field) == 1]


def make_geometry(n_fields: int, *, center_ra: float = 185.0,
                  stripe: int = DEFAULT_STRIPE_NUMBER,
                  mjd_start: float = 51433.0,
                  seed: int = 0) -> SurveyGeometry:
    """Build a survey chunk containing approximately ``n_fields`` fields.

    The chunk is a piece of one 2.5°-wide equatorial stripe centred on
    ``center_ra``: 12 camera-column bands (6 per strip) stacked in
    declination, tiled along right ascension with enough field columns
    to reach the requested count.
    """
    import random

    rng = random.Random(seed)
    n_fields = max(BANDS_PER_STRIPE, int(n_fields))
    columns = max(1, round(n_fields / BANDS_PER_STRIPE))
    ra_width = columns * FIELD_LENGTH_DEG
    ra_min = center_ra - ra_width / 2.0
    dec_min = -STRIPE_WIDTH_DEG / 2.0

    band_height = STRIPE_WIDTH_DEG / BANDS_PER_STRIPE
    overlap = band_height * BAND_OVERLAP_FRACTION

    fields: list[FieldGeometry] = []
    field_id = 0
    for band_index in range(BANDS_PER_STRIPE):
        strip = "N" if band_index % 2 == 0 else "S"
        run = NORTH_RUN if strip == "N" else SOUTH_RUN
        camcol = band_index // 2 + 1
        band_dec_min = dec_min + band_index * band_height - (overlap if band_index > 0 else 0.0)
        band_dec_max = dec_min + (band_index + 1) * band_height + (
            overlap if band_index < BANDS_PER_STRIPE - 1 else 0.0)
        for column in range(columns):
            field_id += 1
            field_number = 100 + column
            fields.append(FieldGeometry(
                field_id=field_id,
                run=run,
                rerun=DEFAULT_RERUN,
                camcol=camcol,
                field=field_number,
                stripe=stripe,
                strip=strip,
                ra_min=ra_min + column * FIELD_LENGTH_DEG,
                ra_max=ra_min + (column + 1) * FIELD_LENGTH_DEG,
                dec_min=band_dec_min,
                dec_max=band_dec_max,
                mjd=mjd_start + (0.0 if strip == "N" else 27.0),
                seeing=max(0.8, rng.gauss(1.4, 0.2)),
                sky_brightness=rng.gauss(21.0, 0.3),
                quality=rng.choices([1, 2, 3], weights=[0.05, 0.25, 0.70])[0],
            ))
    return SurveyGeometry(fields=fields,
                          ra_min=ra_min, ra_max=ra_min + ra_width,
                          dec_min=dec_min, dec_max=dec_min + STRIPE_WIDTH_DEG,
                          stripe=stripe)


def overlap_fraction(geometry: SurveyGeometry, sample_points: int = 4000,
                     seed: int = 1) -> float:
    """Monte-Carlo estimate of the fraction of the footprint seen by 2+ fields.

    Used by tests to confirm the generated geometry reproduces the
    paper's "about 11% of the objects appear more than once".
    """
    import random

    rng = random.Random(seed)
    duplicated = 0
    for _ in range(sample_points):
        ra = rng.uniform(geometry.ra_min, geometry.ra_max)
        dec = rng.uniform(geometry.dec_min, geometry.dec_max)
        if len(geometry.fields_containing(ra, dec)) >= 2:
            duplicated += 1
    return duplicated / sample_points
