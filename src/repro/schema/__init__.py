"""The SkyServer relational design: schemas, views, flags, indices, neighbours."""

from .build import (create_skyserver_database, register_schema_functions,
                    table_load_order)
from .flags import (BANDS, MAGNITUDE_KINDS, PhotoFlags, PhotoStatus, PhotoType,
                    SpecClass, SpecLineNames, fphoto_flags, fphoto_status,
                    fphoto_type, fphoto_type_name, fspec_class, fspec_class_name,
                    register_flag_functions)
from .indices import (MAX_KEY_COLUMNS, IndexDefinition, create_indices,
                      drop_indices, standard_indices)
from .neighbors import DEFAULT_RADIUS_ARCMIN, compute_neighbors
from .photo import photo_tables
from .spectro import spectro_tables
from .views import register_views, standard_views

__all__ = [
    "create_skyserver_database",
    "register_schema_functions",
    "table_load_order",
    "photo_tables",
    "spectro_tables",
    "standard_views",
    "register_views",
    "standard_indices",
    "create_indices",
    "drop_indices",
    "IndexDefinition",
    "MAX_KEY_COLUMNS",
    "compute_neighbors",
    "DEFAULT_RADIUS_ARCMIN",
    "PhotoFlags",
    "PhotoStatus",
    "PhotoType",
    "SpecClass",
    "SpecLineNames",
    "BANDS",
    "MAGNITUDE_KINDS",
    "fphoto_flags",
    "fphoto_status",
    "fphoto_type",
    "fphoto_type_name",
    "fspec_class",
    "fspec_class_name",
    "register_flag_functions",
]
