"""Logical query description.

A :class:`LogicalQuery` is the engine's internal, declarative statement
of *what* to compute: select list, relations, join conditions, filters,
grouping, ordering, TOP and SELECT INTO target.  It is produced by the
SQL binder (:mod:`repro.engine.sql`) and consumed by the planner which
decides *how* to compute it (access paths, join order, join algorithms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .expressions import AggregateCall, ColumnRef, Expression, Variable


@dataclass
class SelectItem:
    """One output column: an expression and an optional alias."""

    expression: Expression
    alias: Optional[str] = None

    def output_name(self, position: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        if isinstance(self.expression, AggregateCall):
            return self.expression.result_key()
        return f"col{position + 1}"


@dataclass
class TableRef:
    """A reference to a table or view in the FROM clause."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return (self.alias or self.name).lower()


@dataclass
class FunctionRef:
    """A table-valued function in the FROM clause, e.g. fGetNearbyObjEq(185, -0.5, 1)."""

    name: str
    args: Sequence[Expression]
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return (self.alias or self.name).lower()


RelationRef = Union[TableRef, FunctionRef]


@dataclass
class Join:
    """An explicit JOIN clause (INNER joins only, as used by the paper's queries)."""

    relation: RelationRef
    condition: Optional[Expression] = None
    kind: str = "inner"


@dataclass
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


@dataclass
class LogicalQuery:
    """A complete logical SELECT statement."""

    select: list[SelectItem] = field(default_factory=list)
    relations: list[RelationRef] = field(default_factory=list)
    joins: list[Join] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    top: Optional[int] = None
    distinct: bool = False
    into: Optional[str] = None

    def all_relations(self) -> list[RelationRef]:
        return list(self.relations) + [join.relation for join in self.joins]

    def output_names(self) -> list[str]:
        return [item.output_name(position) for position, item in enumerate(self.select)]


def _iter_expressions(query: LogicalQuery):
    for item in query.select:
        yield item.expression
    for relation in query.all_relations():
        if isinstance(relation, FunctionRef):
            yield from relation.args
    for join in query.joins:
        if join.condition is not None:
            yield join.condition
    if query.where is not None:
        yield query.where
    yield from query.group_by
    if query.having is not None:
        yield query.having
    for order in query.order_by:
        yield order.expression


def referenced_tables(query: LogicalQuery) -> set[str]:
    """Names of every table or view the FROM/JOIN clauses reference.

    Names are returned as written (not resolved through views, not
    case-folded); table-valued functions are excluded — what they read
    internally is opaque at the logical level.  The serving layer uses
    this set to decide which table locks a query must hold and which
    modification counters its cached result depends on.
    """
    return {relation.name for relation in query.all_relations()
            if isinstance(relation, TableRef)}


def contains_variables(query: LogicalQuery) -> bool:
    """True when any expression of the query references a ``@variable``.

    Such a query's result depends on session state beyond the SQL text,
    so the shared result cache refuses to serve it across sessions.
    """

    def walk(expression: Expression) -> bool:
        if isinstance(expression, Variable):
            return True
        return any(walk(child) for child in expression.children())

    return any(walk(expression) for expression in _iter_expressions(query))
