"""Scalar and table-valued function registry.

The SkyServer exposes its spatial machinery through functions:
``fPhotoFlags('saturated')`` returns a flag bit mask, while
``fGetNearbyObjEq(ra, dec, radius)`` is a *table-valued* function whose
result is joined against PhotoObj (paper §9.1.4 and the Query 1 plan of
Figure 10).  The engine keeps both kinds in per-database registries so
the planner can build FunctionScan operators and the expression
evaluator can call scalar functions (including the ``dbo.`` prefix used
in T-SQL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .errors import CatalogError, UnknownFunctionError
from .types import Column


@dataclass
class ScalarFunction:
    """A registered scalar function."""

    name: str
    implementation: Callable[..., Any]
    description: str = ""

    def __call__(self, *args: Any) -> Any:
        return self.implementation(*args)


@dataclass
class TableValuedFunction:
    """A registered table-valued function.

    ``implementation`` receives the evaluated argument values and
    returns an iterable of row dictionaries whose keys match
    ``columns``.  ``row_estimate`` lets the planner guess cardinality
    (the HTM cover of a 1-arcminute circle returns a handful of rows,
    which is why Figure 10's plan nested-loop-joins it against the
    indexed PhotoObj table).
    """

    name: str
    columns: Sequence[Column]
    implementation: Callable[..., Iterable[Mapping[str, Any]]]
    description: str = ""
    row_estimate: int = 10
    #: Base tables the implementation reads, or None when undeclared
    #: (see :meth:`~repro.engine.catalog.Database.register_table_function`).
    reads: Optional[tuple[str, ...]] = None
    #: Argument values -> a test of a row of the one table in ``reads``.
    qualifier: Optional[Callable[..., Callable[[Mapping[str, Any]], Any]]] = None

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def row_keys(self) -> dict[str, str]:
        """Lower-cased column name -> its (declared) key in the result rows."""
        return {column.name.lower(): column.name for column in self.columns}

    def __call__(self, *args: Any) -> list[dict[str, Any]]:
        declared = self.row_keys()
        rows = []
        for raw in self.implementation(*args):
            row = {}
            for key, value in dict(raw).items():
                row[declared.get(key.lower(), key)] = value
            rows.append(row)
        return rows


def normalize_function_name(name: str) -> str:
    """Strip the T-SQL ``dbo.`` schema prefix and lower-case the name."""
    lowered = name.lower()
    if lowered.startswith("dbo."):
        lowered = lowered[len("dbo."):]
    return lowered


class FunctionRegistry:
    """Holds the scalar and table-valued functions of one database."""

    def __init__(self) -> None:
        self._scalar: dict[str, ScalarFunction] = {}
        self._table_valued: dict[str, TableValuedFunction] = {}

    # -- registration ------------------------------------------------------

    def register_scalar(self, name: str, implementation: Callable[..., Any], *,
                        description: str = "", replace: bool = False) -> ScalarFunction:
        key = normalize_function_name(name)
        if key in self._scalar and not replace:
            raise CatalogError(f"scalar function {name!r} already registered")
        function = ScalarFunction(name, implementation, description)
        self._scalar[key] = function
        return function

    def register_table_valued(self, name: str, columns: Sequence[Column],
                              implementation: Callable[..., Iterable[Mapping[str, Any]]], *,
                              description: str = "", row_estimate: int = 10,
                              replace: bool = False,
                              reads: Optional[Sequence[str]] = None,
                              qualifier: Optional[Callable[..., Any]] = None
                              ) -> TableValuedFunction:
        key = normalize_function_name(name)
        if key in self._table_valued and not replace:
            raise CatalogError(f"table-valued function {name!r} already registered")
        function = TableValuedFunction(
            name, list(columns), implementation, description, row_estimate,
            None if reads is None else tuple(reads), qualifier)
        self._table_valued[key] = function
        return function

    # -- lookup --------------------------------------------------------------

    def table_valued(self, name: str) -> TableValuedFunction:
        key = normalize_function_name(name)
        if key not in self._table_valued:
            raise UnknownFunctionError(f"unknown table-valued function {name!r}")
        return self._table_valued[key]

    def has_table_valued(self, name: str) -> bool:
        return normalize_function_name(name) in self._table_valued

    def scalar_callables(self) -> dict[str, Callable[..., Any]]:
        """Mapping used to build :class:`~repro.engine.expressions.EvaluationContext`."""
        callables: dict[str, Callable[..., Any]] = {}
        for key, function in self._scalar.items():
            callables[key] = function.implementation
            callables[f"dbo.{key}"] = function.implementation
        return callables

    def describe(self) -> dict[str, list[dict[str, str]]]:
        """Schema-browser metadata for the functions pane."""
        return {
            "scalar": [
                {"name": function.name, "description": function.description}
                for function in sorted(self._scalar.values(), key=lambda f: f.name.lower())
            ],
            "table_valued": [
                {
                    "name": function.name,
                    "description": function.description,
                    "columns": ", ".join(function.column_names()),
                }
                for function in sorted(self._table_valued.values(), key=lambda f: f.name.lower())
            ],
        }
