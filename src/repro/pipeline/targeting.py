"""Spectroscopic target selection and plate design.

"About 600 spectra are observed at once using a single plate with
optical fibers going to different CCDs" (paper §9).  The targeting pass
selects roughly the Early Data Release's fraction of photometric
objects for spectroscopy — bright primary galaxies (the main galaxy
sample), colour-selected quasar candidates and a sprinkling of stars —
and packs them onto plates of at most 640 fibers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..schema.flags import PhotoFlags, PhotoType

#: Fibers per plate (640 drilled, ~600 used for science).
FIBERS_PER_PLATE = 640
SCIENCE_FIBERS_PER_PLATE = 600

#: Fraction of photometric objects that end up with a spectrum; Table 1's
#: SpecObj/PhotoObj ratio (63k / 14M ≈ 0.45%).
TARGET_FRACTION = 0.0045


@dataclass
class Target:
    """One object selected for spectroscopy."""

    obj_id: int
    ra: float
    dec: float
    kind: str               # 'galaxy', 'qso' or 'star'
    fiber_mag_g: float
    fiber_mag_r: float
    fiber_mag_i: float
    redshift_hint: float = 0.0
    has_emission_lines: bool = False


@dataclass
class PlateDesign:
    """A drilled plate and the fibers assigned on it."""

    plate_id: int
    plate_number: int
    mjd: float
    ra: float
    dec: float
    program: str
    targets: list[tuple[int, Target]] = field(default_factory=list)  # (fiber, target)

    @property
    def n_fibers(self) -> int:
        return len(self.targets)


def select_targets(photo_rows: Sequence[dict], true_lookup: dict[int, object], *,
                   rng: Optional[random.Random] = None,
                   target_fraction: float = TARGET_FRACTION) -> list[Target]:
    """Select spectroscopic targets from the photometric catalog.

    ``true_lookup`` maps objID to the originating
    :class:`~repro.pipeline.population.TrueObject` so the simulated
    spectra downstream can use the true redshift; unmatched rows are
    treated as stars.
    """
    rng = rng or random.Random(0)
    primaries = [row for row in photo_rows
                 if row["flags"] & int(PhotoFlags.PRIMARY)]
    if not primaries:
        return []
    wanted = max(3, int(round(len(photo_rows) * target_fraction)))

    galaxies = [row for row in primaries if row["type"] == int(PhotoType.GALAXY)]
    galaxies.sort(key=lambda row: row["petroMag_r"])
    quasar_candidates = [row for row in primaries
                         if row["type"] == int(PhotoType.STAR)
                         and (row["modelMag_u"] - row["modelMag_g"]) < 0.6
                         and row["modelMag_r"] < 20.5]
    stars = [row for row in primaries if row["type"] == int(PhotoType.STAR)]

    quota_galaxy = int(wanted * 0.80)
    quota_qso = int(wanted * 0.12)
    quota_star = max(1, wanted - quota_galaxy - quota_qso)

    chosen: list[dict] = []
    chosen.extend(galaxies[:quota_galaxy])
    chosen.extend(quasar_candidates[:quota_qso])
    remaining_stars = [row for row in stars if row not in quasar_candidates[:quota_qso]]
    rng.shuffle(remaining_stars)
    chosen.extend(remaining_stars[:quota_star])

    targets = []
    seen: set[int] = set()
    for row in chosen:
        if row["objID"] in seen:
            continue
        seen.add(row["objID"])
        targets.append(_target_from_row(row, true_lookup))
    return targets


def _target_from_row(row: dict, true_lookup: dict[int, object]) -> Target:
    source = true_lookup.get(row["objID"])
    kind = "star"
    redshift = 0.0
    emission = False
    if source is not None:
        kind = getattr(source, "kind", "star")
        if kind == "asteroid":
            kind = "star"
        redshift = getattr(source, "redshift", 0.0)
        emission = getattr(source, "has_emission_lines", False)
    elif row["type"] == int(PhotoType.GALAXY):
        kind = "galaxy"
        redshift = 0.1
    return Target(
        obj_id=row["objID"],
        ra=row["ra"],
        dec=row["dec"],
        kind=kind,
        fiber_mag_g=row["fiberMag_g"],
        fiber_mag_r=row["fiberMag_r"],
        fiber_mag_i=row["fiberMag_i"],
        redshift_hint=redshift,
        has_emission_lines=emission,
    )


def design_plates(targets: Sequence[Target], *, mjd_start: float = 51690.0,
                  plate_number_start: int = 266,
                  fibers_per_plate: int = SCIENCE_FIBERS_PER_PLATE,
                  program: str = "main") -> list[PlateDesign]:
    """Pack targets onto plates of at most ``fibers_per_plate`` fibers.

    Targets are sorted by position so each plate covers a compact patch
    of sky, as a drilled 3-degree plate would.
    """
    ordered = sorted(targets, key=lambda target: (round(target.dec, 1), target.ra))
    plates: list[PlateDesign] = []
    for plate_index in range(0, max(1, (len(ordered) + fibers_per_plate - 1) // fibers_per_plate)):
        chunk = ordered[plate_index * fibers_per_plate:(plate_index + 1) * fibers_per_plate]
        if not chunk and plates:
            break
        plate_number = plate_number_start + plate_index
        mjd = mjd_start + plate_index
        center_ra = sum(target.ra for target in chunk) / len(chunk) if chunk else 0.0
        center_dec = sum(target.dec for target in chunk) / len(chunk) if chunk else 0.0
        plate = PlateDesign(
            plate_id=(plate_number << 20) | int(mjd),
            plate_number=plate_number,
            mjd=mjd,
            ra=center_ra,
            dec=center_dec,
            program=program,
        )
        for fiber, target in enumerate(chunk, start=1):
            plate.targets.append((fiber, target))
        plates.append(plate)
    return plates
