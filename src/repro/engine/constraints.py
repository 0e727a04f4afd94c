"""Integrity constraints.

The paper (section 9.1.3) stresses that the database design includes "a
fairly complete set of foreign key declarations ... and we also insist
that all fields are non-null.  These integrity constraints are
invaluable tools in detecting errors during loading".  The loader
relies on these declarations both during row-at-a-time inserts and for
a post-load validation pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, TYPE_CHECKING

from .errors import (CheckViolation, ForeignKeyViolation, NotNullViolation,
                     SchemaError)
from .expressions import EvaluationContext, Expression, RowScope
from .types import NULL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .catalog import Database


@dataclass
class PrimaryKey:
    """A primary-key declaration (enforced through a unique index)."""

    columns: Sequence[str]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("primary key needs at least one column")
        self.columns = [column.lower() for column in self.columns]


@dataclass
class ForeignKey:
    """A foreign-key declaration referencing another table's primary key.

    ``allow_null`` lets optional relationships (e.g. PhotoObj.specObjID
    for the 99 % of objects without a spectrum) skip the reference check
    when the referencing value is NULL or zero, mirroring how the
    SkyServer links PhotoObj and SpecObj only "if a photo object has a
    measured spectrogram".
    """

    columns: Sequence[str]
    referenced_table: str
    referenced_columns: Sequence[str]
    name: str = ""
    allow_null: bool = True
    treat_zero_as_null: bool = False

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.referenced_columns):
            raise SchemaError(
                f"foreign key {self.name or self.columns}: column count mismatch")
        self.columns = [column.lower() for column in self.columns]
        self.referenced_columns = [column.lower() for column in self.referenced_columns]

    def key_of(self, row: dict[str, Any]) -> Optional[tuple]:
        """The referencing key of ``row``, or None when the FK does not apply."""
        key = tuple(row.get(column, NULL) for column in self.columns)
        if self.allow_null and any(part is NULL for part in key):
            return None
        if self.treat_zero_as_null and all(part in (0, NULL) for part in key):
            return None
        return key

    def check(self, row: dict[str, Any], database: "Database", *, table_name: str) -> None:
        key = self.key_of(row)
        if key is None:
            return
        referenced = database.table(self.referenced_table)
        if not referenced.has_key(self.referenced_columns, key):
            raise ForeignKeyViolation(
                f"{table_name}.{'/'.join(self.columns)} = {key!r} has no match in "
                f"{self.referenced_table}.{'/'.join(self.referenced_columns)}",
                table=table_name, constraint=self.name or "fk")


@dataclass
class CheckConstraint:
    """A row-level CHECK constraint expressed as an engine expression."""

    expression: Expression
    name: str = ""

    def check(self, row: dict[str, Any], *, table_name: str) -> None:
        scope = RowScope().bind(table_name, row)
        result = self.expression.evaluate(scope, EvaluationContext())
        if result is False:
            raise CheckViolation(
                f"CHECK {self.name or self.expression.sql()} failed for row in {table_name}",
                table=table_name, constraint=self.name or "check")


def check_not_null(row: dict[str, Any], columns: Sequence, *, table_name: str) -> None:
    """Raise when any non-nullable column holds NULL."""
    for column in columns:
        if not column.nullable and row.get(column.name.lower(), NULL) is NULL:
            raise NotNullViolation(
                f"column {column.name!r} of table {table_name!r} may not be NULL",
                table=table_name, constraint=f"nn_{column.name}")


@dataclass
class ConstraintReport:
    """Result of a full-table validation pass (used after bulk loads)."""

    table: str
    rows_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)
