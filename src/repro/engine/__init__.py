"""An in-memory relational engine: the SQL Server 2000 stand-in.

The engine provides everything the SkyServer design of the paper relies
on from its commercial substrate: typed tables with integrity
constraints, B-tree indices (unique, composite, covering), views folded
into base-table queries, scalar and table-valued functions, a planner
that chooses between table scans, covering-index scans, index seeks and
index/hash/nested-loop joins, execution statistics, EXPLAIN output, and
a SQL subset front-end so the paper's query text runs verbatim.
"""

from .batch import BATCH_ROWS, ColumnBatch
from .catalog import Database
from .concurrency import LockUpgradeError, ReadWriteLock, lock_tables, read_locks
from .compile import (VectorCompileError, compile_expression,
                      compile_row_expression, compile_vector_predicate,
                      compile_vector_projection)
from .constraints import CheckConstraint, ForeignKey, PrimaryKey
from .errors import (BindError, CatalogError, CheckViolation, ConstraintViolation,
                     EngineError, ExpressionError, ForeignKeyViolation, LoadError,
                     NotNullViolation, PlanError, PrimaryKeyViolation,
                     QueryLimitExceeded, SchemaError, SQLSyntaxError,
                     TypeMismatchError, UnknownColumnError, UnknownFunctionError)
from .expressions import (AggregateCall, Between, BinaryOp, CaseWhen, ColumnRef,
                          EvaluationContext, Expression, FunctionCall, InList,
                          Like, Literal, RowScope, Star, UnaryOp, Variable)
from .index import BTreeIndex
from .logical import (FunctionRef, Join, LogicalQuery, OrderItem, SelectItem,
                      TableRef, contains_variables, referenced_tables)
from .operators import ExecutionStatistics, PhysicalPlan, QueryResult
from .planner import Planner
from .session import make_session
from .sql import PlanCache, SqlSession, parse_batch, parse_expression, parse_select
from .stats import (ColumnStatistics, TableStatistics, collect_table_statistics)
from .storage import ColumnStore, RowStore, TableStorage, make_storage
from .table import Table
from .types import (CURRENT_TIMESTAMP, Column, DataType, NULL, bigint, blob,
                    boolean, floating, integer, text, timestamp)
from .view import View

__all__ = [
    "Database",
    "Table",
    "TableStorage",
    "RowStore",
    "ColumnStore",
    "make_storage",
    "ColumnBatch",
    "BATCH_ROWS",
    "Column",
    "DataType",
    "NULL",
    "CURRENT_TIMESTAMP",
    "integer",
    "bigint",
    "floating",
    "text",
    "boolean",
    "timestamp",
    "blob",
    "PrimaryKey",
    "ForeignKey",
    "CheckConstraint",
    "BTreeIndex",
    "View",
    "LogicalQuery",
    "SelectItem",
    "TableRef",
    "FunctionRef",
    "Join",
    "OrderItem",
    "referenced_tables",
    "contains_variables",
    "ReadWriteLock",
    "LockUpgradeError",
    "read_locks",
    "lock_tables",
    "Planner",
    "PhysicalPlan",
    "QueryResult",
    "ExecutionStatistics",
    "SqlSession",
    "make_session",
    "PlanCache",
    "parse_batch",
    "parse_select",
    "parse_expression",
    "compile_expression",
    "compile_row_expression",
    "compile_vector_predicate",
    "compile_vector_projection",
    "ColumnStatistics",
    "TableStatistics",
    "collect_table_statistics",
    "VectorCompileError",
    "Expression",
    "Literal",
    "ColumnRef",
    "Variable",
    "Star",
    "BinaryOp",
    "UnaryOp",
    "Between",
    "InList",
    "Like",
    "FunctionCall",
    "CaseWhen",
    "AggregateCall",
    "RowScope",
    "EvaluationContext",
    "EngineError",
    "CatalogError",
    "SchemaError",
    "TypeMismatchError",
    "ConstraintViolation",
    "NotNullViolation",
    "PrimaryKeyViolation",
    "ForeignKeyViolation",
    "CheckViolation",
    "ExpressionError",
    "UnknownColumnError",
    "UnknownFunctionError",
    "SQLSyntaxError",
    "BindError",
    "PlanError",
    "QueryLimitExceeded",
    "LoadError",
]
