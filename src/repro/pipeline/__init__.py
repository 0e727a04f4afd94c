"""Synthetic SDSS survey and processing pipeline (the data substitute)."""

from .crossmatch import CrossMatcher, CrossMatchOutput, MatchRates
from .csvexport import export_tables, read_csv, write_csv
from .deblend import (DEFAULT_BLEND_FRACTION, deblend_family,
                      primary_fraction, resolve_primaries)
from .geometry import (FieldGeometry, SurveyGeometry, make_geometry,
                       overlap_fraction)
from .photometric import (FramesPipeline, decode_obj_id, encode_field_id,
                          encode_obj_id, encode_spec_obj_id)
from .population import (CLASS_FRACTIONS, OBJECTS_PER_SQ_DEG, PlantedPopulations,
                         TrueObject, synthesize_population)
from .spectroscopic import SpectroscopicOutput, SpectroscopicPipeline
from .survey import (EDR_FIELD_COUNT, PipelineOutput, SurveyConfig,
                     SyntheticSurvey)
from .targeting import (FIBERS_PER_PLATE, SCIENCE_FIBERS_PER_PLATE,
                        TARGET_FRACTION, PlateDesign, Target, design_plates,
                        select_targets)

__all__ = [
    "SyntheticSurvey",
    "SurveyConfig",
    "PipelineOutput",
    "EDR_FIELD_COUNT",
    "FieldGeometry",
    "SurveyGeometry",
    "make_geometry",
    "overlap_fraction",
    "TrueObject",
    "PlantedPopulations",
    "synthesize_population",
    "CLASS_FRACTIONS",
    "OBJECTS_PER_SQ_DEG",
    "FramesPipeline",
    "encode_obj_id",
    "decode_obj_id",
    "encode_field_id",
    "encode_spec_obj_id",
    "deblend_family",
    "resolve_primaries",
    "primary_fraction",
    "DEFAULT_BLEND_FRACTION",
    "Target",
    "PlateDesign",
    "select_targets",
    "design_plates",
    "TARGET_FRACTION",
    "FIBERS_PER_PLATE",
    "SCIENCE_FIBERS_PER_PLATE",
    "SpectroscopicPipeline",
    "SpectroscopicOutput",
    "CrossMatcher",
    "CrossMatchOutput",
    "MatchRates",
    "write_csv",
    "read_csv",
    "export_tables",
]
