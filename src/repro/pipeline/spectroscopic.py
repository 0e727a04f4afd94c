"""The spectroscopic (1D) pipeline: plates, spectra, lines and redshifts.

"The pipeline processing typically extracts about 30 spectral lines
from each spectrogram and carefully estimates the object's redshift ...
Each line is cross-correlated with a model and corrected for redshift.
The resulting attributes are stored in the xcRedShift table.  A
separate redshift is derived using only emission lines.  Those
quantities are stored in the elRedShift table." (paper §9.1.2)
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..schema.flags import SpecClass, SpecLineNames
from .photometric import encode_spec_obj_id
from .targeting import PlateDesign, Target

#: Emission lines (positive equivalent width) and absorption lines
#: (negative equivalent width) the simulated 1D pipeline measures.
EMISSION_LINES = [
    SpecLineNames.H_ALPHA, SpecLineNames.H_BETA, SpecLineNames.H_GAMMA,
    SpecLineNames.OIII_5007, SpecLineNames.OII_3727, SpecLineNames.NII_6585,
    SpecLineNames.SII_6718, SpecLineNames.LY_ALPHA, SpecLineNames.CIV_1549,
    SpecLineNames.MGII_2799,
]
ABSORPTION_LINES = [
    SpecLineNames.CA_K_3935, SpecLineNames.CA_H_3970, SpecLineNames.G_4306,
    SpecLineNames.MG_5177, SpecLineNames.NA_5896,
]

#: Named line-group indices stored in SpecLineIndex (the Lick/IDS system plus
#: the 4000 A break); Table 1 shows ≈29 SpecLineIndex rows per spectrum.
LINE_INDEX_NAMES = [
    "D4000", "HdeltaA", "HdeltaF", "CN1", "CN2", "Ca4227", "G4300", "HgammaA",
    "HgammaF", "Fe4383", "Ca4455", "Fe4531", "Fe4668", "Lick_Hb", "Fe5015",
    "Mg1", "Mg2", "Mg_b", "Fe5270", "Fe5335", "Fe5406", "Fe5709", "Fe5782",
    "NaD", "TiO1", "TiO2", "CaII_K", "CaII_H",
]

#: Number of cross-correlation templates (one xcRedShift row per template,
#: matching Table 1's ~30 xcRedShift rows per spectrum).
XC_TEMPLATES = 30

#: Bytes for the GIF rendering of a spectrum stored in SpecObj.img.
SPECTRUM_GIF_BYTES = 12288


@dataclass
class SpectroscopicOutput:
    """Rows produced by one run of the spectroscopic pipeline."""

    plates: list[dict] = field(default_factory=list)
    spec_objs: list[dict] = field(default_factory=list)
    spec_lines: list[dict] = field(default_factory=list)
    spec_line_indices: list[dict] = field(default_factory=list)
    xc_redshifts: list[dict] = field(default_factory=list)
    el_redshifts: list[dict] = field(default_factory=list)


class SpectroscopicPipeline:
    """Simulates the 2D+1D spectroscopic reductions for a set of plates."""

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random(0)
        self._line_counter = 0
        self._index_counter = 0
        self._xc_counter = 0
        self._el_counter = 0

    def process_plates(self, plates: Sequence[PlateDesign]) -> SpectroscopicOutput:
        output = SpectroscopicOutput()
        for plate in plates:
            output.plates.append(self._plate_row(plate))
            for fiber, target in plate.targets:
                spec_obj_id = encode_spec_obj_id(plate.plate_number, int(plate.mjd), fiber)
                spec_row = self._spec_obj_row(spec_obj_id, plate, fiber, target)
                output.spec_objs.append(spec_row)
                lines_before = len(output.spec_lines)
                self._measure_lines(spec_obj_id, target, spec_row["z"], output)
                self._pad_with_unidentified_lines(
                    spec_obj_id, len(output.spec_lines) - lines_before, output)
                self._line_group_indices(spec_obj_id, target, output)
                self._cross_correlate(spec_obj_id, target, spec_row["z"], output)
                # The emission-line redshift pipeline runs whenever it finds a
                # few usable lines; Table 1 shows elRedShift rows for ~80% of
                # spectra, not just the strongly star-forming ones.
                if (target.has_emission_lines or target.kind == "qso"
                        or self.rng.random() < 0.65):
                    self._emission_line_redshift(spec_obj_id, spec_row["z"], output)
        return output

    # -- row builders --------------------------------------------------------

    def _plate_row(self, plate: PlateDesign) -> dict:
        return {
            "plateID": plate.plate_id,
            "plateNumber": plate.plate_number,
            "mjd": plate.mjd,
            "ra": plate.ra,
            "dec": plate.dec,
            "nFibers": plate.n_fibers,
            "exposureTime": 45.0 * 60.0,
            "program": plate.program,
            "quality": self.rng.choices([1, 2, 3], weights=[0.03, 0.17, 0.80])[0],
        }

    def _spec_obj_row(self, spec_obj_id: int, plate: PlateDesign, fiber: int,
                      target: Target) -> dict:
        rng = self.rng
        true_z = target.redshift_hint
        if target.kind == "star":
            true_z = rng.gauss(0.0, 0.0003)
            spec_class = SpecClass.STAR
        elif target.kind == "qso":
            spec_class = SpecClass.HIZ_QSO if true_z > 2.3 else SpecClass.QSO
        else:
            spec_class = SpecClass.GALAXY
        z_error = max(1.0e-4, abs(rng.gauss(2.0e-4, 1.0e-4)))
        measured_z = true_z + rng.gauss(0.0, z_error)
        z_confidence = min(0.999, max(0.2, rng.gauss(0.95, 0.06)))
        if rng.random() < 0.02:
            # A few percent of redshifts fail; they get low confidence and UNKNOWN class.
            z_confidence = rng.uniform(0.0, 0.3)
            spec_class = SpecClass.UNKNOWN
        return {
            "specObjID": spec_obj_id,
            "plateID": plate.plate_id,
            "fiberID": fiber,
            "objID": target.obj_id,
            "ra": target.ra,
            "dec": target.dec,
            "z": measured_z,
            "zErr": z_error,
            "zConf": z_confidence,
            "zStatus": 4 if z_confidence > 0.35 else 1,
            "specClass": int(spec_class),
            "velDisp": abs(rng.gauss(150.0, 60.0)) if spec_class is SpecClass.GALAXY else 0.0,
            "velDispErr": abs(rng.gauss(15.0, 5.0)),
            "sn_0": abs(rng.gauss(12.0, 4.0)),
            "sn_1": abs(rng.gauss(15.0, 5.0)),
            "mag_0": target.fiber_mag_g,
            "mag_1": target.fiber_mag_r,
            "mag_2": target.fiber_mag_i,
            "img": _synthesize_spectrum_gif(spec_obj_id),
        }

    def _measure_lines(self, spec_obj_id: int, target: Target, redshift: float,
                       output: SpectroscopicOutput) -> None:
        """About 30 spectral lines per spectrum (emission and absorption)."""
        rng = self.rng
        emission_strength = 1.0 if (target.has_emission_lines or target.kind == "qso") else 0.15
        for line in EMISSION_LINES + ABSORPTION_LINES:
            # The pipeline measures every line position; weak ones get small EW.
            rest_wave = float(int(line))
            observed = rest_wave * (1.0 + redshift)
            if observed < 3800.0 or observed > 9200.0:
                continue
            is_emission = line in EMISSION_LINES
            if is_emission:
                equivalent_width = abs(rng.gauss(18.0, 14.0)) * emission_strength
                if line is SpecLineNames.H_ALPHA and target.has_emission_lines and rng.random() < 0.45:
                    # Strong star-forming galaxies: EW(Halpha) > 40 A (Query 8).
                    equivalent_width = rng.uniform(42.0, 120.0)
            else:
                equivalent_width = -abs(rng.gauss(3.0, 2.0))
            self._line_counter += 1
            output.spec_lines.append({
                "specLineID": (spec_obj_id << 8) | (self._line_counter & 0xFF),
                "specObjID": spec_obj_id,
                "lineID": int(line),
                "wave": observed + rng.gauss(0.0, 0.3),
                "waveErr": abs(rng.gauss(0.3, 0.1)),
                "ew": equivalent_width,
                "ewErr": abs(rng.gauss(1.0, 0.5)),
                "height": abs(rng.gauss(8.0, 4.0)) * (1.0 if is_emission else 0.4),
                "sigma": abs(rng.gauss(2.5, 0.8)),
                "continuum": abs(rng.gauss(10.0, 3.0)),
                "category": 1 if is_emission else 2,
            })
            # Measure each Balmer line twice (emission + absorption component),
            # nudging the per-spectrum line count toward the paper's ~30.
            if line in (SpecLineNames.H_BETA, SpecLineNames.H_GAMMA):
                self._line_counter += 1
                output.spec_lines.append({
                    "specLineID": (spec_obj_id << 8) | (self._line_counter & 0xFF),
                    "specObjID": spec_obj_id,
                    "lineID": int(line),
                    "wave": observed + rng.gauss(0.0, 0.5),
                    "waveErr": abs(rng.gauss(0.5, 0.2)),
                    "ew": -abs(rng.gauss(2.0, 1.0)),
                    "ewErr": abs(rng.gauss(1.0, 0.5)),
                    "height": abs(rng.gauss(3.0, 1.5)),
                    "sigma": abs(rng.gauss(4.0, 1.0)),
                    "continuum": abs(rng.gauss(10.0, 3.0)),
                    "category": 2,
                })

    #: Target number of measured lines per spectrum (Table 1: ~27 per SpecObj).
    LINES_PER_SPECTRUM = 27

    def _pad_with_unidentified_lines(self, spec_obj_id: int, measured: int,
                                     output: SpectroscopicOutput) -> None:
        """Low-significance, unidentified detections the 1D pipeline also records.

        The identified-line list above yields ~15 lines inside the
        spectrograph's wavelength coverage; the real pipeline reports
        about 30 line measurements per spectrum, the rest being weak or
        unidentified features, which is what these rows stand in for.
        """
        rng = self.rng
        for _ in range(max(0, self.LINES_PER_SPECTRUM - measured)):
            self._line_counter += 1
            output.spec_lines.append({
                "specLineID": (spec_obj_id << 8) | (self._line_counter & 0xFF),
                "specObjID": spec_obj_id,
                "lineID": int(SpecLineNames.UNKNOWN),
                "wave": rng.uniform(3800.0, 9200.0),
                "waveErr": abs(rng.gauss(1.0, 0.4)),
                "ew": rng.gauss(0.0, 1.5),
                "ewErr": abs(rng.gauss(1.5, 0.5)),
                "height": abs(rng.gauss(1.5, 0.8)),
                "sigma": abs(rng.gauss(3.0, 1.0)),
                "continuum": abs(rng.gauss(10.0, 3.0)),
                "category": 1 if rng.random() < 0.5 else 2,
            })

    def _line_group_indices(self, spec_obj_id: int, target: Target,
                            output: SpectroscopicOutput) -> None:
        rng = self.rng
        for name in LINE_INDEX_NAMES:
            self._index_counter += 1
            output.spec_line_indices.append({
                "specLineIndexID": (spec_obj_id << 8) | (self._index_counter & 0xFF),
                "specObjID": spec_obj_id,
                "name": name,
                "value": rng.gauss(1.5, 0.5) if name == "D4000" else rng.gauss(2.0, 1.5),
                "error": abs(rng.gauss(0.1, 0.05)),
                "continuum": abs(rng.gauss(10.0, 3.0)),
            })

    def _cross_correlate(self, spec_obj_id: int, target: Target, redshift: float,
                         output: SpectroscopicOutput) -> None:
        """One xcRedShift row per template; the best template carries the peak r."""
        rng = self.rng
        best_template = rng.randrange(XC_TEMPLATES)
        for template in range(XC_TEMPLATES):
            self._xc_counter += 1
            is_best = template == best_template
            output.xc_redshifts.append({
                "xcRedShiftID": (spec_obj_id << 8) | (self._xc_counter & 0xFF),
                "specObjID": spec_obj_id,
                "z": redshift + rng.gauss(0.0, 2.0e-4 if is_best else 3.0e-3),
                "zErr": abs(rng.gauss(2.0e-4, 1.0e-4)) * (1.0 if is_best else 5.0),
                "r": abs(rng.gauss(12.0, 2.0)) if is_best else abs(rng.gauss(4.0, 1.5)),
                "tempNo": template,
                "peakHeight": abs(rng.gauss(0.8, 0.1)) if is_best else abs(rng.gauss(0.3, 0.1)),
                "width": abs(rng.gauss(3.0, 1.0)),
            })

    def _emission_line_redshift(self, spec_obj_id: int, redshift: float,
                                output: SpectroscopicOutput) -> None:
        rng = self.rng
        self._el_counter += 1
        output.el_redshifts.append({
            "elRedShiftID": (spec_obj_id << 8) | (self._el_counter & 0xFF),
            "specObjID": spec_obj_id,
            "z": redshift + rng.gauss(0.0, 3.0e-4),
            "zErr": abs(rng.gauss(3.0e-4, 1.0e-4)),
            "nLines": rng.randint(2, 8),
            "quality": min(1.0, abs(rng.gauss(0.9, 0.1))),
        })


def _synthesize_spectrum_gif(seed: int) -> bytes:
    """A compressible stand-in for the GIF rendering of a spectrum."""
    generator = random.Random(seed)
    raw = bytes(generator.getrandbits(8) for _ in range(SPECTRUM_GIF_BYTES // 6))
    return b"GIF89a" + zlib.compress(raw * 6, 1)[:SPECTRUM_GIF_BYTES - 6]
