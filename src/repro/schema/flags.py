"""Photo flags, status bits, object types and spectral classes.

The processing pipeline "assigns about a hundred additional properties
to each object – these attributes are variously called flags, status,
and type and are encoded as bit flags" (paper §9).  The SkyServer
exposes the bit values through small scalar functions so queries can
say ``flags & fPhotoFlags('saturated')`` instead of magic numbers; the
same functions are registered into the engine here.
"""

from __future__ import annotations

import enum


class PhotoFlags(enum.IntFlag):
    """Bit flags of the ``flags`` column of PhotoObj.

    The real pipeline defines 59 bits across two 32-bit words; this
    reproduction keeps the bits the paper's queries and views use, plus
    the most common quality bits, in a single 64-bit word.
    """

    PRIMARY = 0x1            # best observation of a deblended object
    OK_RUN = 0x2             # the run met survey quality requirements
    SATURATED = 0x4          # at least one pixel is saturated (Query 1)
    BRIGHT = 0x8             # duplicate detection of a bright object
    EDGE = 0x10              # object too close to the frame edge
    BLENDED = 0x20           # object has deblended children
    CHILD = 0x40             # object is a deblended child
    DEBLENDED_AS_MOVING = 0x80   # deblend used a moving-object model (asteroids)
    COSMIC_RAY = 0x100       # contains a cosmic ray hit
    INTERP = 0x200           # interpolated over bad pixels
    NOPROFILE = 0x400        # too small / too faint to measure a radial profile
    SECONDARY = 0x800        # repeat observation in an overlap region
    MOVED = 0x1000           # detectably moved between band exposures


class PhotoStatus(enum.IntFlag):
    """Bits of the ``status`` column (survey bookkeeping)."""

    SET = 0x1
    GOOD = 0x2
    DUPLICATE = 0x4
    OK_RUN = 0x8
    RESOLVED = 0x10
    PSEGMENT = 0x20
    FIRST_FIELD = 0x100
    OK_SCANLINE = 0x200
    OK_STRIPE = 0x400
    SECONDARY = 0x1000
    PRIMARY = 0x2000
    TARGETED = 0x4000


class PhotoType(enum.IntEnum):
    """The classification assigned by the frames pipeline (``type`` column)."""

    UNKNOWN = 0
    COSMIC_RAY = 1
    DEFECT = 2
    GALAXY = 3
    GHOST = 4
    KNOWN_OBJECT = 5
    STAR = 6
    TRAIL = 7
    SKY = 8


class SpecClass(enum.IntEnum):
    """Spectroscopic classification (``specClass`` column of SpecObj)."""

    UNKNOWN = 0
    STAR = 1
    GALAXY = 2
    QSO = 3
    HIZ_QSO = 4
    SKY = 5
    STAR_LATE = 6
    GAL_EM = 7


class SpecLineNames(enum.IntEnum):
    """A subset of rest-frame spectral lines extracted by the 1D pipeline."""

    UNKNOWN = 0
    H_ALPHA = 6565
    H_BETA = 4863
    H_GAMMA = 4342
    OIII_5007 = 5008
    OII_3727 = 3727
    NII_6585 = 6585
    SII_6718 = 6718
    MG_5177 = 5177
    NA_5896 = 5896
    CA_K_3935 = 3935
    CA_H_3970 = 3970
    G_4306 = 4306
    LY_ALPHA = 1216
    CIV_1549 = 1549
    MGII_2799 = 2799


#: The five SDSS optical bands, in the canonical order.
BANDS = ("u", "g", "r", "i", "z")

#: The six ways the pipeline measures a magnitude in each band
#: ("These magnitudes are measured in six different ways", paper §9).
MAGNITUDE_KINDS = ("psfMag", "fiberMag", "petroMag", "modelMag", "expMag", "deVMag")


def fphoto_flags(name: str) -> int:
    """``fPhotoFlags('saturated')`` — the bit value for a named photo flag."""
    return int(PhotoFlags[_normalise(name)])


def fphoto_status(name: str) -> int:
    """``fPhotoStatus('primary')`` — the bit value for a named status flag."""
    return int(PhotoStatus[_normalise(name)])


def fphoto_type(name: str) -> int:
    """``fPhotoType('galaxy')`` — the numeric code for a named object type."""
    return int(PhotoType[_normalise(name)])


def fphoto_type_name(value: int) -> str:
    """``fPhotoTypeN(3)`` — the name for a numeric object type."""
    return PhotoType(int(value)).name.lower()


def fspec_class(name: str) -> int:
    """``fSpecClass('qso')`` — the numeric code for a spectral class."""
    return int(SpecClass[_normalise(name)])


def fspec_class_name(value: int) -> str:
    """``fSpecClassN(3)`` — the name for a numeric spectral class."""
    return SpecClass(int(value)).name.lower()


def fphoto_flags_describe(flags: int) -> str:
    """Render a flags word as a '+'-separated list of flag names."""
    names = [flag.name for flag in PhotoFlags if flag.name and flags & flag]
    return "+".join(names) if names else "none"


def _normalise(name: str) -> str:
    cleaned = name.strip().upper().replace(" ", "_").replace("-", "_")
    aliases = {
        "OKRUN": "OK_RUN",
        "OK RUN": "OK_RUN",
        "DEBLENDED_MOVING": "DEBLENDED_AS_MOVING",
        "QUASAR": "QSO",
        "HIZ_QUASAR": "HIZ_QSO",
    }
    return aliases.get(cleaned, cleaned)


def register_flag_functions(database) -> None:
    """Register the flag helper functions into an engine database."""
    database.register_scalar_function(
        "fPhotoFlags", fphoto_flags,
        description="Bit value of a named photo flag (e.g. 'saturated')", replace=True)
    database.register_scalar_function(
        "fPhotoStatus", fphoto_status,
        description="Bit value of a named status flag", replace=True)
    database.register_scalar_function(
        "fPhotoType", fphoto_type,
        description="Numeric code of a named photo type (e.g. 'galaxy')", replace=True)
    database.register_scalar_function(
        "fPhotoTypeN", fphoto_type_name,
        description="Name of a numeric photo type code", replace=True)
    database.register_scalar_function(
        "fSpecClass", fspec_class,
        description="Numeric code of a named spectral class", replace=True)
    database.register_scalar_function(
        "fSpecClassN", fspec_class_name,
        description="Name of a numeric spectral class code", replace=True)
    database.register_scalar_function(
        "fPhotoFlagsN", fphoto_flags_describe,
        description="Names of the flags set in a flags word", replace=True)
