"""Views used as sub-classes.

The SkyServer replaces the object-oriented design's Star/Galaxy
sub-classes with relational views over the PhotoObj base table
(paper §9.1.3):

    photoPrimary: PhotoObj with flags('primary' & 'OK run')
    Star:         photoPrimary with type='star'
    Galaxy:       photoPrimary with type='galaxy'

"The SQL query optimizer rewrites such queries so that they map down to
the base photoObj table with the additional qualifiers" — the engine's
planner does exactly that rewrite: a view is a base table name plus an
additional predicate (and optionally a column subset), and view
references are folded into the referencing query before access-path
selection, so base-table indices benefit the views too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .expressions import BinaryOp, Expression


@dataclass
class View:
    """A filtered (and optionally projected) window over a base table or view."""

    name: str
    base: str
    predicate: Optional[Expression] = None
    columns: Sequence[str] = ()
    description: str = ""


@dataclass
class ResolvedRelation:
    """The result of resolving a relation name through any chain of views."""

    table_name: str
    predicate: Optional[Expression]
    columns: Sequence[str]
    view_chain: list[str] = field(default_factory=list)


def fold_view_chain(name: str, views: dict[str, View]) -> ResolvedRelation:
    """Resolve ``name`` through nested views down to a base table.

    Returns the base-table name, the AND of every predicate along the
    chain, and the narrowest declared column subset.  Names not found in
    ``views`` are returned unchanged with no predicate (the caller then
    treats them as base tables or raises if they do not exist).
    """
    chain: list[str] = []
    predicate: Optional[Expression] = None
    columns: Sequence[str] = ()
    current = name
    lowered_views = {key.lower(): value for key, value in views.items()}
    seen: set[str] = set()
    while current.lower() in lowered_views:
        if current.lower() in seen:
            raise ValueError(f"cyclic view definition involving {current!r}")
        seen.add(current.lower())
        view = lowered_views[current.lower()]
        chain.append(view.name)
        if view.predicate is not None:
            predicate = view.predicate if predicate is None else BinaryOp(
                "and", predicate, view.predicate)
        if view.columns:
            columns = view.columns if not columns else [
                column for column in view.columns if column.lower() in
                {existing.lower() for existing in columns}
            ]
        current = view.base
    return ResolvedRelation(current, predicate, columns, chain)
