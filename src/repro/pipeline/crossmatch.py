"""Cross-correlation with external surveys.

"The pipeline tries to correlate each object with objects in other
surveys: United States Naval Observatory [USNO], Röntgen Satellite
[ROSAT], Faint Images of the Radio Sky at Twenty-centimeters [FIRST],
and others.  Successful correlations are recorded in a set of
relationship tables." (paper §9)

The external catalogs are synthetic: for each SDSS detection the
matcher decides, with class- and brightness-dependent probabilities,
whether a counterpart exists, and if so synthesises that counterpart's
measurements (astrometric magnitudes for USNO, X-ray count rates for
ROSAT, radio fluxes for FIRST) around plausible values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..schema.flags import PhotoFlags, PhotoType


@dataclass
class CrossMatchOutput:
    """Rows for the three relationship tables."""

    usno: list[dict] = field(default_factory=list)
    rosat: list[dict] = field(default_factory=list)
    first: list[dict] = field(default_factory=list)


@dataclass
class MatchRates:
    """Probabilities that a counterpart exists in each external survey."""

    usno_bright_star: float = 0.65      # USNO is an astrometric star catalog
    usno_other: float = 0.02
    rosat_qso_like: float = 0.12        # X-ray bright AGN
    rosat_other: float = 0.002
    first_qso_like: float = 0.10        # radio-loud AGN
    first_galaxy: float = 0.015
    first_other: float = 0.001


class CrossMatcher:
    """Matches PhotoObj detections against the synthetic external catalogs."""

    def __init__(self, rng: Optional[random.Random] = None,
                 rates: Optional[MatchRates] = None):
        self.rng = rng or random.Random(0)
        self.rates = rates or MatchRates()
        self._usno_counter = 0
        self._rosat_counter = 0
        self._first_counter = 0

    def match(self, photo_rows: Sequence[dict]) -> CrossMatchOutput:
        output = CrossMatchOutput()
        for row in photo_rows:
            if not row["flags"] & int(PhotoFlags.PRIMARY):
                continue
            self._match_usno(row, output)
            self._match_rosat(row, output)
            self._match_first(row, output)
        return output

    # -- per-survey matching ---------------------------------------------------

    def _is_quasar_like(self, row: dict) -> bool:
        return (row["type"] == int(PhotoType.STAR)
                and (row["modelMag_u"] - row["modelMag_g"]) < 0.5)

    def _match_usno(self, row: dict, output: CrossMatchOutput) -> None:
        rng = self.rng
        is_bright_star = row["type"] == int(PhotoType.STAR) and row["psfMag_r"] < 19.0
        probability = self.rates.usno_bright_star if is_bright_star else self.rates.usno_other
        if rng.random() >= probability:
            return
        self._usno_counter += 1
        output.usno.append({
            "objID": row["objID"],
            "usnoID": 1000000000 + self._usno_counter,
            "distance": abs(rng.gauss(0.3, 0.2)),
            "bMag": row["psfMag_g"] + rng.gauss(0.3, 0.3),
            "rMag": row["psfMag_r"] + rng.gauss(0.1, 0.3),
            "properMotion": abs(rng.gauss(8.0, 12.0)),
            "properMotionAngle": rng.uniform(0.0, 360.0),
        })

    def _match_rosat(self, row: dict, output: CrossMatchOutput) -> None:
        rng = self.rng
        probability = (self.rates.rosat_qso_like if self._is_quasar_like(row)
                       else self.rates.rosat_other)
        if rng.random() >= probability:
            return
        self._rosat_counter += 1
        output.rosat.append({
            "objID": row["objID"],
            "rosatID": 2000000000 + self._rosat_counter,
            "distance": abs(rng.gauss(8.0, 5.0)),
            "countRate": abs(rng.gauss(0.05, 0.04)),
            "countRateErr": abs(rng.gauss(0.01, 0.005)),
            "hardnessRatio1": rng.uniform(-1.0, 1.0),
            "hardnessRatio2": rng.uniform(-1.0, 1.0),
            "exposure": abs(rng.gauss(400.0, 150.0)),
        })

    def _match_first(self, row: dict, output: CrossMatchOutput) -> None:
        rng = self.rng
        if self._is_quasar_like(row):
            probability = self.rates.first_qso_like
        elif row["type"] == int(PhotoType.GALAXY):
            probability = self.rates.first_galaxy
        else:
            probability = self.rates.first_other
        if rng.random() >= probability:
            return
        self._first_counter += 1
        peak_flux = abs(rng.gauss(3.0, 5.0)) + 0.75
        output.first.append({
            "objID": row["objID"],
            "firstID": 3000000000 + self._first_counter,
            "distance": abs(rng.gauss(1.0, 0.8)),
            "peakFlux": peak_flux,
            "integratedFlux": peak_flux * abs(rng.gauss(1.3, 0.3)),
            "rms": abs(rng.gauss(0.15, 0.05)),
            "majorAxis": abs(rng.gauss(4.0, 2.0)),
            "minorAxis": abs(rng.gauss(2.5, 1.5)),
        })
