"""The DTS-style load / validate / undo pipeline."""

from .events import (LOAD_EVENTS_TABLE, LoadEvent, LoadEventLog, STATUS_FAILED,
                     STATUS_RUNNING, STATUS_SUCCESS, STATUS_UNDONE,
                     ensure_load_events_table)
from .imagepyramid import (PYRAMID_LEVELS, Tile, build_pyramid, decode_tile,
                           downsample, encode_tile, nonlinear_rgb,
                           render_field_image)
from .loader import LoadReport, SkyServerLoader, load_release_database
from .steps import LoadStep, LoadStepResult, steps_from_directory, steps_from_tables
from .undo import undo_load_event, undo_time_window
from .validate import ValidationIssue, ValidationReport, validate_database

__all__ = [
    "SkyServerLoader",
    "LoadReport",
    "load_release_database",
    "LoadStep",
    "LoadStepResult",
    "steps_from_directory",
    "steps_from_tables",
    "LoadEvent",
    "LoadEventLog",
    "ensure_load_events_table",
    "LOAD_EVENTS_TABLE",
    "STATUS_RUNNING",
    "STATUS_SUCCESS",
    "STATUS_FAILED",
    "STATUS_UNDONE",
    "undo_load_event",
    "undo_time_window",
    "validate_database",
    "ValidationReport",
    "ValidationIssue",
    "Tile",
    "build_pyramid",
    "render_field_image",
    "nonlinear_rgb",
    "downsample",
    "encode_tile",
    "decode_tile",
    "PYRAMID_LEVELS",
]
