"""Expression compilation: each expression becomes one generated function.

The interpreted evaluator (:meth:`Expression.evaluate`) pays a virtual
dispatch, an operator-string comparison and often a fresh ``RowScope``
for every node of every row.  For the hot operators that is the
dominant CPU cost of a query, so each operator instead compiles its
expressions **once per execution**:

* :func:`compile_expression` binds the expression to a *layout* — the
  ordered alias → row-key shape of the bindings an operator emits — and
  returns ``Callable[[binding], Any]``.  Every column reference is
  resolved **once, here** (qualified, or unqualified with the first
  alias that has the column winning).  The emitter (:class:`_Emitter`)
  then walks the bound tree once and writes **one Python function** of
  straight-line code: inlined column reads (``b['p']['type']``), the
  interpreter's NULL checks, short-circuit AND/OR and CASE branches as
  ``if``/``else`` blocks, comparisons (strings lowered for the
  case-insensitive rule), arithmetic, bitwise operators, unary
  operators, BETWEEN, LIKE and scalar function calls — with the
  interpreter's SQL three-valued-NULL semantics and its error types
  and messages.  A reference the layout cannot resolve becomes a
  statement that raises :class:`UnknownColumnError` when (and only
  when) a row reaches it;
* :func:`compile_row_expression` is the one-alias case of the same
  emitter: the function takes the table's row dict itself, so a column
  read is ``r['type']``.  It is strict — :class:`RowCompileError` when
  a reference does not resolve against the one table.  The batch
  compilers' row-view fallback (:class:`_BatchRowEmitter`) is built on
  it;
* :func:`compile_vector_predicate` / :func:`compile_vector_projection`
  produce batch-at-a-time functions over
  :class:`~repro.engine.batch.ColumnBatch` selection vectors.  One
  compiler serves every batch: it takes a *schema* (binding → table).
  A scan's or a seek's batch is the one-binding case, with columns keyed
  by bare name; a batch join's output carries several bindings, with
  columns keyed ``"binding.column"`` (:func:`batch_key`).  Where
  three-valued logic provably cannot surface (NULL-free columns,
  constant non-column operands, statically compatible types) — or
  surfaces only as a column divisor's NULL where False is as good
  (:meth:`_VectorCodegen.guarded`) — the expression is translated into
  one **generated list comprehension** over the column buffers;
  otherwise a row-mode function is driven over a NULL-mask-aware batch
  row view.  :class:`VectorCompileError` signals that not even row mode
  applies.

**Constants.**  Constant subtrees are folded at compile time (``2*3+1``
evaluates once through the interpreter; session variables are frozen to
their per-execution values; constant LIKE patterns pre-compile their
regex; constant IN lists pre-evaluate their candidates).  Folding is
conservative: a constant subtree whose evaluation raises is emitted as
code, so the error surfaces exactly where the interpreter would raise it
(or not at all, when a short-circuit skips it).  Folded values are never
written into the source: the generated module is a *factory* whose
parameters ``_k0, _k1, …`` receive them, and the function closes over
those cells.  So web traffic's many distinct literals produce one source
text per expression shape (and constant types, which the emitter
specialises on).

**Embedded nodes.**  What is not written as code is called as a
namespace value: scalar functions (``_k3(_t1, _t2)``), the IN-list
membership helper, a variable that is undeclared at compile time (its
lookup raises per row), and any node class the emitter does not know,
which runs through the interpreter (binding mode only; row mode rejects
it).  Nothing is interpreted node by node per row.

**The code cache.**  ``compile()`` of the source is the expensive step,
so factories are cached by source text in a bounded LRU
(:data:`CODE_CACHE_SIZE` entries, ``_factory.cache_info()``); each
execution only walks its tree, renders the source, looks it up and
calls the factory with its constants.  :func:`generated_source` returns
the source an expression compiles to.

Thread safety: a generated function closes only over immutable compile
products (folded constants, pre-compiled regexes, the frozen variable
values, functions) and *reads* whatever binding, row dict or column
buffers it is handed — it never writes shared state; its locals are
per call.  The factory cache is an ``lru_cache`` (safe to share).  The
cluster's shard fragments and the serving pool's worker threads rely
on this: one cached factory serves every thread, each applying its
function to its own :class:`~repro.engine.batch.ColumnBatch`
concurrently.  Keep new codegen paths free of per-call mutable caches.
Runtime join filters (:class:`repro.engine.operators.RuntimeJoinFilter`)
obey the same contract — built once after the hash build, then only
*read* — so they compose with any function compiled here without
changing which rows those functions ultimately accept.
"""

from __future__ import annotations

import functools
import math
import re
import zlib
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import ExpressionError, UnknownColumnError, UnknownFunctionError
from .expressions import (_ARITHMETIC, _BITWISE, _BUILTIN_FUNCTIONS,
                          _COMPARISON, AggregateCall, Between,
                          BinaryOp, CaseWhen, ColumnRef, EvaluationContext,
                          Expression, FunctionCall, InList, Like, Literal,
                          RowScope, Star, UnaryOp, Variable, between_error,
                          like_regex, truncate_int_div)
from .types import DataType, NULL

#: A compiled scalar expression.  The single argument is a binding
#: (alias → row dict) for :func:`compile_expression` and a plain row
#: dict for :func:`compile_row_expression`.
CompiledExpression = Callable[[Any], Any]

#: The shape of the bindings an operator emits: ordered ``(binding key,
#: row keys)`` pairs, where ``row keys`` maps each column's lower-cased
#: name to the key it has in that alias's row dicts.  Order is the
#: unqualified-name search order (first alias with the column wins).
Layout = tuple[tuple[str, Mapping[str, str]], ...]

#: The relations a column batch carries: binding name → table, in the
#: row path's layout order.
Schema = Mapping[str, Any]


def batch_key(schema: Schema, binding: str, key: str) -> str:
    """The batch column holding ``binding``'s row key ``key``: the bare
    key in a batch of one binding (a scan's or a seek's), else
    ``"binding.key"`` (a batch join's output)."""
    return key if len(schema) == 1 else f"{binding.lower()}.{key}"


def row_keys(names: Iterable[str]) -> dict[str, str]:
    """Lower-cased name → row key; the first spelling of a name wins,
    as it would for a case-insensitive scan of the row."""
    keys: dict[str, str] = {}
    for name in names:
        keys.setdefault(name.lower(), name)
    return keys


def table_layout(table: Any, binding_name: str) -> Layout:
    """The one-alias layout of a base table's rows bound as ``binding_name``."""
    return ((binding_name, table.row_keys),)


def merge_layouts(first: Layout, second: Layout) -> Layout:
    """The layout of ``{**first_binding, **second_binding}``."""
    merged = dict(first)
    merged.update(second)
    return tuple(merged.items())


def resolve_column(layout: Layout, name: str,
                   qualifier: Optional[str] = None) -> tuple[str, str]:
    """``(binding key, row key)`` of a column reference under ``layout``.

    The resolution rules (and the messages of the
    :class:`UnknownColumnError` raised when they fail) are
    :meth:`RowScope.lookup`'s, applied once instead of per row.
    """
    lowered = name.lower()
    if qualifier:
        wanted = qualifier.lower()
        for binding_key, columns in layout:
            if binding_key.lower() == wanted:
                key = columns.get(lowered)
                if key is None:
                    raise UnknownColumnError(f"unknown column {qualifier}.{name}")
                return binding_key, key
        raise UnknownColumnError(f"unknown table alias {qualifier!r}")
    for binding_key, columns in layout:
        key = columns.get(lowered)
        if key is not None:
            return binding_key, key
    raise UnknownColumnError(f"unknown column {name!r}")


def resolve_function(evaluation: EvaluationContext, name: str
                     ) -> tuple[Optional[Callable[..., Any]], str]:
    """``(function, bare name)`` a scalar call resolves to (None when
    unknown): the session's functions first, under the ``dbo.``-prefixed
    or the bare name, then the built-ins."""
    lowered = name.lower()
    bare = lowered[len("dbo."):] if lowered.startswith("dbo.") else lowered
    functions = evaluation.functions
    func = functions.get(lowered) or functions.get(bare) or _BUILTIN_FUNCTIONS.get(bare)
    return func, bare


class RowCompileError(Exception):
    """An expression cannot be compiled in direct-row mode.

    Raised during :func:`compile_row_expression` when a node references
    a column outside the scanned table, contains an aggregate, or is a
    node type the row-mode emitter does not support.  Callers fall
    back to the general binding path.
    """


class VectorCompileError(Exception):
    """An expression cannot run in the vectorized batch path at all.

    Raised by :func:`compile_vector_predicate` /
    :func:`compile_vector_projection` when not even the per-row
    fallback (a row-mode function driven over a batch row view) can
    evaluate the expression against the batch's schema.  Callers fall
    back to the row-at-a-time operator pipeline.
    """


#: SQL comparison operators to their Python spellings.
_PY_COMPARATORS = {"=": "==", "<>": "!=", "!=": "!=",
                   "<": "<", "<=": "<=", ">": ">", ">=": ">="}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def compile_expression(expression: Expression, evaluation: EvaluationContext,
                       layout: Layout = (), *,
                       projected: bool = False) -> CompiledExpression:
    """Compile ``expression`` to a function of a binding shaped as ``layout``.

    ``compiled(binding)`` is equivalent to ``expression.evaluate(scope,
    evaluation)`` for a scope holding the binding's rows (session
    variables are frozen at compile time, which is sound because
    compilation happens per execution).  ``projected`` adds the
    select-list / order-key rule of :func:`repro.engine.operators.
    evaluate_projected`: above an aggregate the base columns are gone,
    so an expression with a reference the layout cannot resolve falls
    back to reading its name (a bare column) or SQL text (anything
    else) from the grouped output row.
    """
    return _Emitter(evaluation, layout).function(expression, projected)


def compile_row_expression(expression: Expression, evaluation: EvaluationContext,
                           table: "Any", binding_name: str) -> CompiledExpression:
    """Compile ``expression`` to a function of a plain row dict.

    Column references must resolve to columns of ``table`` (qualified by
    ``binding_name`` or unqualified); raises :class:`RowCompileError`
    otherwise.
    """
    return _RowEmitter(evaluation, table_layout(table, binding_name)).function(
        expression)


def generated_source(expression: Expression, evaluation: EvaluationContext,
                     layout: Layout = (), *, projected: bool = False) -> str:
    """The source :func:`compile_expression` generates (debugging aid)."""
    return _Emitter(evaluation, layout).source(expression, projected)


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------

#: Generated factories kept by the code cache (one per distinct source:
#: expression shape × layout × constant types).
CODE_CACHE_SIZE = 512

#: Deepest ``if``/``else`` nesting the emitter writes inline; a subtree
#: below it (a long right-nested OR, a CASE with dozens of branches) is
#: emitted as a function of its own, well inside Python's indentation
#: limit.
_MAX_NESTING = 24

#: The NULL marker as generated code spells it (``None``: a constant
#: load, not a global lookup).
_NULL = repr(NULL)

#: Folding evaluates constant subtrees through the interpreter; they
#: never read a row, so one empty scope serves every fold (and is never
#: bound).
_NO_ROW = RowScope()


def _fail(error_type: type, message: str) -> Any:
    raise error_type(message)


def _compare_error(op: str, left: Any, right: Any) -> ExpressionError:
    return ExpressionError(f"cannot compare {left!r} {op} {right!r}")


def _arithmetic_error(op: str, left: Any, right: Any) -> ExpressionError:
    return ExpressionError(f"cannot apply {op!r} to {left!r} and {right!r}")


def _in_candidates(value: Any, candidates: "Any", negated: bool) -> Any:
    saw_null = False
    value_is_str = isinstance(value, str)
    for candidate in candidates:
        if candidate is NULL:
            saw_null = True
            continue
        if value_is_str and isinstance(candidate, str):
            if value.lower() == candidate.lower():
                return not negated
        elif candidate == value:
            return not negated
    if saw_null:
        return NULL
    return negated


#: The generated module's globals: immutable helpers only.
_GENERATED_GLOBALS = {
    "_fail": _fail,
    "_compare_error": _compare_error,
    "_between_error": between_error,
    "_arithmetic_error": _arithmetic_error,
    "_in_candidates": _in_candidates,
    "_ExpressionError": ExpressionError,
    "_UnknownColumnError": UnknownColumnError,
    "_UnknownFunctionError": UnknownFunctionError,
    "_truncate_int_div": truncate_int_div,
    "_fmod": math.fmod,
    "_like_regex": like_regex,
    "_re": re,
}


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _factory(source: str) -> Callable[..., CompiledExpression]:
    """The compiled factory of one generated source (the code cache).

    The file name tells sources apart in tracebacks and profiles."""
    namespace = dict(_GENERATED_GLOBALS)
    filename = f"<expression {zlib.crc32(source.encode()):08x}>"
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_factory"]


class _Constant:
    """An operand folded at compile time; ``text`` is its factory
    parameter once the code refers to it."""

    __slots__ = ("value", "text")

    def __init__(self, value: Any):
        self.value = value
        self.text: Optional[str] = None


#: What :meth:`_Emitter.emit` returns: the name of the local holding a
#: subtree's value, or the subtree folded to a constant.
_Operand = Union[str, _Constant]


def _indented(lines: Sequence[str], levels: int = 1) -> list[str]:
    prefix = "    " * levels
    return [prefix + line for line in lines]


def _branches(cases: Sequence[tuple[str, list[str]]],
              otherwise: list[str]) -> list[str]:
    """``if c0: … elif c1: … else: otherwise`` (just ``otherwise``
    without cases)."""
    if not cases:
        return list(otherwise)
    lines: list[str] = []
    for position, (condition, body) in enumerate(cases):
        lines.append(f"{'elif' if position else 'if'} {condition}:")
        lines.extend(_indented(body))
    lines.append("else:")
    lines.extend(_indented(otherwise))
    return lines


def _with_literals(node: Expression, values: Sequence[Any]) -> Expression:
    """``node`` over its children's folded values (for the interpreter)."""
    literals = [Literal(value) for value in values]
    if isinstance(node, BinaryOp):
        return BinaryOp(node.op, *literals)
    if isinstance(node, UnaryOp):
        return UnaryOp(node.op, *literals)
    if isinstance(node, Between):
        return Between(*literals, negated=node.negated)
    if isinstance(node, InList):
        return InList(literals[0], literals[1:], node.negated)
    return Like(*literals, negated=node.negated)


class _Emitter:
    """Writes a bound expression tree as one generated function.

    :meth:`emit` appends the statements computing a subtree to
    ``lines`` — unindented; a caller that nests them in a block indents
    them — and returns its operand.  Locals are single-assignment
    (``_t0``, ``_t1``, …), so a nested block can read everything
    computed before it; a column read once is reused by later code of
    the same or an inner block (``reads``).
    """

    #: The generated function's parameter.
    argument = "b"

    def __init__(self, evaluation: EvaluationContext, layout: Layout = ()):
        self.evaluation = evaluation
        self.layout = layout
        #: Set once any reference failed to resolve (its code raises
        #: UnknownColumnError per row): only then can the projected
        #: fallback of :func:`compile_expression` ever trigger.
        self.has_unresolved = False
        self.constants: list[Any] = []
        self.functions: list[list[str]] = []
        self.lines: list[str] = []
        self.reads: dict[tuple[str, str], str] = {}
        self.nesting = 0
        self.locals = 0

    # -- the generated module ---------------------------------------------

    def source(self, expression: Expression, projected: bool = False) -> str:
        operand, lines = self.isolated(expression)
        body = [*lines, f"return {self.name(operand)}"]
        if projected and self.has_unresolved:
            bare = isinstance(expression, ColumnRef)
            fallback, fallback_lines = self.isolated(
                ColumnRef(expression.name if bare else expression.sql()))
            fallback_body = [*fallback_lines, f"return {self.name(fallback)}"]
            # A bare reference that did not resolve always falls back.
            body = fallback_body if bare else [
                "try:", *_indented(body),
                "except _UnknownColumnError:", *_indented(fallback_body)]
        parameters = ", ".join(f"_k{index}" for index in range(len(self.constants)))
        module = [f"def _factory({parameters}):"]
        for function in self.functions:
            module.extend(_indented(function))
        module.append(f"    def _fn({self.argument}):")
        module.extend(_indented(body, 2))
        module.append("    return _fn")
        return "\n".join(module)

    def function(self, expression: Expression,
                 projected: bool = False) -> CompiledExpression:
        source = self.source(expression, projected)
        return _factory(source)(*self.constants)

    # -- bookkeeping ------------------------------------------------------

    def name(self, operand: _Operand) -> str:
        """The source text of an operand (a constant becomes a parameter)."""
        if not isinstance(operand, _Constant):
            return operand
        if operand.text is None:
            operand.text = f"_k{len(self.constants)}"
            self.constants.append(operand.value)
        return operand.text

    def local(self) -> str:
        """A fresh local of the generated function."""
        self.locals += 1
        return f"_t{self.locals - 1}"

    def assign(self, value: str) -> str:
        target = self.local()
        self.lines.append(f"{target} = {value}")
        return target

    def nested(self, node: Expression) -> tuple[_Operand, list[str]]:
        """Emit ``node`` as the body of an inner block: its operand and
        lines; what it reads stays visible to that block only."""
        saved_lines, saved_reads = self.lines, self.reads
        self.lines, self.reads = [], dict(saved_reads)
        self.nesting += 1
        try:
            if self.nesting > _MAX_NESTING:
                operand = self.call(node)
            else:
                operand = self.emit(node)
            return operand, self.lines
        finally:
            self.lines, self.reads = saved_lines, saved_reads
            self.nesting -= 1

    def isolated(self, node: Expression) -> tuple[_Operand, list[str]]:
        """Emit ``node`` as the body of a function of its own."""
        saved = self.lines, self.reads, self.nesting
        self.lines, self.reads, self.nesting = [], {}, 0
        try:
            return self.emit(node), self.lines
        finally:
            self.lines, self.reads, self.nesting = saved

    def define(self, operand: _Operand, lines: list[str]) -> str:
        """A factory-level function returning ``operand``; its name."""
        name = f"_s{len(self.functions)}"
        self.functions.append([f"def {name}({self.argument}):",
                               *_indented([*lines, f"return {self.name(operand)}"])])
        return name

    def call(self, node: Expression) -> _Operand:
        """``node`` as a call of a function of its own (deep subtrees)."""
        operand, lines = self.isolated(node)
        if isinstance(operand, _Constant):
            return operand
        return self.assign(f"{self.define(operand, lines)}({self.argument})")

    def fold(self, node: Expression, operands: Sequence[_Operand]) -> Optional[_Constant]:
        """``node`` evaluated once when every operand is constant; None
        when one is not, or when the evaluation raises (the emitted code
        then raises per row, as the interpreter would)."""
        if not all(isinstance(operand, _Constant) for operand in operands):
            return None
        try:
            literal = _with_literals(node, [operand.value for operand in operands])
            return _Constant(literal.evaluate(_NO_ROW, self.evaluation))
        except Exception:
            return None

    def null_test(self, operands: Sequence[_Operand]) -> str:
        """The test that an operand is NULL ('' when none can be)."""
        return " or ".join(f"{self.name(operand)} is {_NULL}" for operand in operands
                           if not isinstance(operand, _Constant) or operand.value is NULL)

    def strict(self, operands: Sequence[_Operand], compute: list[str],
               result: str, cases: Sequence[tuple[str, list[str]]] = ()) -> str:
        """``result = NULL`` when an operand is NULL, else the ``cases``
        / ``compute`` statements (which assign ``result``)."""
        null = self.null_test(operands)
        null_cases = [(null, [f"{result} = {_NULL}"])] if null else []
        self.lines.extend(_branches([*null_cases, *cases], compute))
        return result

    # -- dispatch ---------------------------------------------------------

    def emit(self, node: Expression) -> _Operand:
        if isinstance(node, Literal):
            return _Constant(node.value)
        if isinstance(node, ColumnRef):
            return self.column(node)
        if isinstance(node, Variable):
            return self.variable(node)
        if isinstance(node, BinaryOp):
            op = node.op
            if op in ("and", "or"):
                return self.logical(node)
            if op in _COMPARISON:
                return self.comparison(node)
            if op in _ARITHMETIC:
                return self.arithmetic(node)
            if op in _BITWISE:
                return self.bitwise(node)
            return self.fallback(node)
        if isinstance(node, UnaryOp):
            return self.unary(node)
        if isinstance(node, Between):
            return self.between(node)
        if isinstance(node, InList):
            return self.in_list(node)
        if isinstance(node, Like):
            return self.like(node)
        if isinstance(node, FunctionCall):
            return self.function_call(node)
        if isinstance(node, CaseWhen):
            return self.case_when(node)
        if isinstance(node, AggregateCall):
            return self.aggregate(node)
        if isinstance(node, Star):
            message = "'*' cannot be evaluated as a scalar expression"
            return self.assign(f"_fail(_ExpressionError, {message!r})")
        return self.fallback(node)

    def fallback(self, node: Expression) -> _Operand:
        """A node the emitter does not write: the interpreter, embedded."""
        evaluation = self.evaluation
        self.has_unresolved = True  # the interpreter resolves names per row
        interpreter = self.name(_Constant(
            lambda binding: node.evaluate(RowScope.from_binding(binding), evaluation)))
        return self.assign(f"{interpreter}({self.argument})")

    # -- leaves -----------------------------------------------------------

    def column(self, node: ColumnRef) -> _Operand:
        try:
            alias, key = resolve_column(self.layout, node.name, node.qualifier)
        except UnknownColumnError as error:
            return self.unresolved(str(error))
        return self.read(alias, key)

    def read(self, alias: str, key: str) -> str:
        local = self.reads.get((alias, key))
        if local is None:
            local = self.reads[(alias, key)] = self.assign(self.reference(alias, key))
        return local

    def reference(self, alias: str, key: str) -> str:
        """The source reading one resolved column out of the argument."""
        return f"{self.argument}[{alias!r}][{key!r}]"

    def unresolved(self, message: str) -> _Operand:
        """A reference the layout cannot resolve fails per row, not here:
        over an empty input it must never raise at all."""
        self.has_unresolved = True
        return self.assign(f"_fail(_UnknownColumnError, {message!r})")

    def variable(self, node: Variable) -> _Operand:
        evaluation = self.evaluation
        try:
            return _Constant(evaluation.variable(node.name))
        except ExpressionError:
            # Undeclared: raise at evaluation time, exactly like the interpreter.
            lookup = self.name(_Constant(evaluation.variable))
            return self.assign(f"{lookup}({node.name!r})")

    def aggregate(self, node: AggregateCall) -> _Operand:
        # The aggregation operator's output row carries the computed
        # value under the aggregate's SQL text.
        try:
            alias, key = resolve_column(self.layout, node.result_key())
        except UnknownColumnError:
            message = f"aggregate {node.sql()} evaluated outside an aggregation operator"
            return self.assign(f"_fail(_ExpressionError, {message!r})")
        return self.read(alias, key)

    # -- operators --------------------------------------------------------

    def logical(self, node: BinaryOp) -> _Operand:
        left = self.emit(node.left)
        right, right_lines = self.nested(node.right)
        folded = self.fold(node, (left, right))
        if folded is not None:
            return folded
        stop = "False" if node.op == "and" else "True"
        left_text, right_text = self.name(left), self.name(right)
        result = self.local()
        cases = [(f"{right_text} is {stop}", [f"{result} = {stop}"])]
        null = self.null_test((left, right))
        if null:
            cases.append((null, [f"{result} = {_NULL}"]))
        combined = (f"{result} = True if {left_text} {node.op} {right_text} "
                    f"else False")
        self.lines.extend(_branches(
            [(f"{left_text} is {stop}", [f"{result} = {stop}"])],
            [*right_lines, *_branches(cases, [combined])]))
        return result

    def comparison(self, node: BinaryOp) -> _Operand:
        left, right = self.emit(node.left), self.emit(node.right)
        folded = self.fold(node, (left, right))
        if folded is not None:
            return folded
        op = node.op
        python_op = _PY_COMPARATORS[op]
        left_text, right_text = self.name(left), self.name(right)
        result = self.local()
        cases = []
        # The interpreter compares two strings case-insensitively: lower
        # both when both can be strings (a string constant once, here).
        runtime = [operand for operand in (left, right)
                   if not isinstance(operand, _Constant)]
        if len(runtime) == 2 or (runtime and any(
                isinstance(operand, _Constant) and isinstance(operand.value, str)
                for operand in (left, right))):
            lowered = [self.name(_Constant(operand.value.lower()))
                       if isinstance(operand, _Constant)
                       else f"{operand}.lower()" for operand in (left, right)]
            test = " and ".join(f"isinstance({operand}, str)" for operand in runtime)
            cases.append((test, [f"{result} = {lowered[0]} {python_op} {lowered[1]}"]))
        compute = ["try:",
                   f"    {result} = {left_text} {python_op} {right_text}",
                   "except TypeError as _e:",
                   f"    raise _compare_error({op!r}, {left_text}, {right_text}) from _e"]
        return self.strict((left, right), compute, result, cases)

    def arithmetic(self, node: BinaryOp) -> _Operand:
        left, right = self.emit(node.left), self.emit(node.right)
        folded = self.fold(node, (left, right))
        if folded is not None:
            return folded
        op = node.op
        left_text, right_text = self.name(left), self.name(right)
        result = self.local()
        if op == "/":
            operation = _branches(
                [(f"{right_text} == 0", [f"{result} = {_NULL}"]),
                 (f"isinstance({left_text}, int) and isinstance({right_text}, int)",
                  [f"{result} = _truncate_int_div({left_text}, {right_text})"])],
                [f"{result} = {left_text} / {right_text}"])
        elif op == "%":
            operation = _branches(
                [(f"{right_text} == 0", [f"{result} = {_NULL}"]),
                 (f"isinstance({left_text}, float) or isinstance({right_text}, float)",
                  [f"{result} = _fmod({left_text}, {right_text})"])],
                [f"{result} = {left_text} % {right_text}"])
        else:
            operation = [f"{result} = {left_text} {op} {right_text}"]
        compute = ["try:", *_indented(operation),
                   "except TypeError as _e:",
                   f"    raise _arithmetic_error({op!r}, {left_text}, {right_text}) from _e"]
        return self.strict((left, right), compute, result)

    def bitwise(self, node: BinaryOp) -> _Operand:
        left, right = self.emit(node.left), self.emit(node.right)
        folded = self.fold(node, (left, right))
        if folded is not None:
            return folded
        left_text, right_text = self.name(left), self.name(right)
        result = self.local()
        message = f"bitwise {node.op!r} requires integers"
        compute = ["try:",
                   f"    _left = int({left_text})",
                   f"    _right = int({right_text})",
                   "except (TypeError, ValueError) as _e:",
                   f"    raise _ExpressionError({message!r}) from _e",
                   f"{result} = _left {node.op} _right"]
        return self.strict((left, right), compute, result)

    def unary(self, node: UnaryOp) -> _Operand:
        op = node.op
        if op not in ("is null", "is not null", "-", "+", "not"):
            return self.fallback(node)
        operand = self.emit(node.operand)
        folded = self.fold(node, (operand,))
        if folded is not None:
            return folded
        value = self.name(operand)
        if op == "is null":
            return self.assign(f"{value} is {_NULL}")
        if op == "is not null":
            return self.assign(f"{value} is not {_NULL}")
        if op == "+":
            return operand
        negation = f"-{value}" if op == "-" else f"not {value}"
        return self.assign(f"{_NULL} if {value} is {_NULL} else {negation}")

    def between(self, node: Between) -> _Operand:
        operands = (self.emit(node.operand), self.emit(node.low), self.emit(node.high))
        folded = self.fold(node, operands)
        if folded is not None:
            return folded
        value, low, high = (self.name(operand) for operand in operands)
        test = f"{low} <= {value} <= {high}"
        result = self.local()
        compute = ["try:",
                   f"    {result} = not ({test})" if node.negated
                   else f"    {result} = {test}",
                   "except TypeError as _e:",
                   f"    raise _between_error({value}, {low}, {high}, "
                   f"{node.negated}) from _e"]
        return self.strict(operands, compute, result)

    def in_list(self, node: InList) -> _Operand:
        operand = self.emit(node.operand)
        # Items evaluate lazily (after the first match none runs), so
        # each is emitted apart and inlined only when it is a constant.
        items = [self.isolated(item) for item in node.items]
        negated = node.negated
        if all(isinstance(item, _Constant) for item, _lines in items):
            folded = self.fold(node, (operand, *(item for item, _lines in items)))
            if folded is not None:
                return folded
            candidates = self.name(_Constant(tuple(item.value for item, _lines in items)))
        else:
            functions = "".join(f"{self.define(item, lines)}, " for item, lines in items)
            candidates = f"(_item({self.argument}) for _item in ({functions}))"
        value = self.name(operand)
        return self.assign(f"{_NULL} if {value} is {_NULL} else "
                           f"_in_candidates({value}, {candidates}, {negated})")

    def like(self, node: Like) -> _Operand:
        operand, pattern = self.emit(node.operand), self.emit(node.pattern)
        folded = self.fold(node, (operand, pattern))
        if folded is not None:
            return folded
        value = self.name(operand)
        test = "is None" if node.negated else "is not None"
        if isinstance(pattern, _Constant):
            if pattern.value is NULL:
                return self.assign(_NULL)
            regex = self.name(_Constant(
                re.compile(like_regex(pattern.value), re.IGNORECASE)))
            return self.assign(f"{_NULL} if {value} is {_NULL} else "
                               f"{regex}.match(str({value})) {test}")
        pattern_text = self.name(pattern)
        return self.assign(
            f"{_NULL} if {value} is {_NULL} or {pattern_text} is {_NULL} else "
            f"_re.match(_like_regex({pattern_text}), str({value}), "
            f"flags=_re.IGNORECASE) {test}")

    def function_call(self, node: FunctionCall) -> _Operand:
        # Arguments evaluate first, as interpreted; functions may be
        # impure (fGetUrlExpId, random samplers), so a call never folds.
        arguments = ", ".join(self.name(self.emit(argument)) for argument in node.args)
        func, _bare = resolve_function(self.evaluation, node.name)
        if func is None:
            message = f"unknown function {node.name!r}"
            return self.assign(f"_fail(_UnknownFunctionError, {message!r})")
        return self.assign(f"{self.name(_Constant(func))}({arguments})")

    def case_when(self, node: CaseWhen) -> _Operand:
        if not node.branches:
            return self.emit(node.default if node.default is not None else Literal(NULL))
        (condition, value), rest = node.branches[0], node.branches[1:]
        test = self.emit(condition)
        then, then_lines = self.nested(value)
        otherwise, otherwise_lines = self.nested(
            CaseWhen(rest, node.default) if rest
            else node.default if node.default is not None else Literal(NULL))
        if all(isinstance(operand, _Constant) for operand in (test, then, otherwise)):
            return then if test.value is True else otherwise
        result = self.local()
        self.lines.extend(_branches(
            [(f"{self.name(test)} is True",
              [*then_lines, f"{result} = {self.name(then)}"])],
            [*otherwise_lines, f"{result} = {self.name(otherwise)}"]))
        return result


class _RowEmitter(_Emitter):
    """The one-argument case: the function takes a row dict itself
    (:func:`compile_row_expression`) or a batch row view
    (:class:`_BatchRowEmitter`), and a reference outside the layout is a
    compile-time error."""

    argument = "r"

    def reference(self, alias: str, key: str) -> str:
        # Every row carries every column the plan references.
        return f"r[{key!r}]"

    def unresolved(self, message: str) -> _Operand:
        raise RowCompileError(message)

    def aggregate(self, node: AggregateCall) -> _Operand:
        raise RowCompileError("aggregates cannot run in row mode")

    def fallback(self, node: Expression) -> _Operand:
        raise RowCompileError(f"unsupported node {type(node).__name__} in row mode")


# ---------------------------------------------------------------------------
# Vector compilation: expressions over column batches
# ---------------------------------------------------------------------------

#: A compiled vectorized expression.  Called with a
#: :class:`~repro.engine.batch.ColumnBatch` and a selection vector; a
#: predicate returns the narrowed selection, a projection returns one
#: value per selected position.  A function that runs a row-mode
#: function per position instead of a generated loop carries
#: ``row_fallback = True`` (counted in ``ExecutionStatistics.
#: vector_fallbacks``).
VectorExpression = Callable[[Any, list], list]


class _Unvectorizable(Exception):
    """Internal: the codegen fast path does not cover this expression.

    The vector compilers catch it and fall back to driving a row-mode
    function over the batch's row view (still batch-at-a-time, but one
    function call per row instead of one generated loop).
    """


#: Tags the codegen treats as orderable numbers (bool compares as 0/1,
#: exactly as the interpreter's comparison operators do).  ``"num"`` is
#: an int *or* a float, decided per value (``sign`` returns ``0`` or
#: ``±1.0``): it compares and adds like a number, but ``/``, ``%`` and
#: the bitwise operators, whose result type follows the operand types,
#: refuse it.
_NUMERIC_TAGS = frozenset(("int", "float", "bool", "num"))
_EXACT_NUMERIC_TAGS = frozenset(("int", "float", "bool"))

#: The tag of a boolean that is NULL on the row path where the generated
#: code has False: a comparison of a value whose column divisor may be
#: zero.  Only AND/OR and a predicate's root accept it (see
#: :meth:`_VectorCodegen.guarded`).
_NULLABLE_BOOL = "bool?"

_DTYPE_TAGS = {DataType.INTEGER: "int", DataType.BIGINT: "int",
               DataType.FLOAT: "float", DataType.BOOLEAN: "bool",
               DataType.TEXT: "str"}


def _value_tag(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    raise _Unvectorizable(f"constant of type {type(value).__name__}")


def _int_or_tag(tag: str) -> str:
    """``abs``/``square``/``round``: an int or bool operand gives an int,
    a float (or "num") operand keeps its tag."""
    return "int" if tag in ("int", "bool") else tag


#: The numeric built-ins the vector codegen translates: bare name ->
#: (argument counts it accepts, result tag given the first argument's
#: tag).  The generated loop calls the :data:`_BUILTIN_FUNCTIONS`
#: callable's NULL-free ``core`` (the callable itself for ``round``) —
#: its operands are never NULL there — so values and errors are the row
#: path's by construction.
_VECTOR_BUILTINS: dict[str, tuple[tuple[int, ...], Callable[[str], str]]] = {
    "abs": ((1,), _int_or_tag),
    "square": ((1,), _int_or_tag),
    "round": ((1, 2), _int_or_tag),
    "floor": ((1,), lambda _tag: "int"),
    "ceiling": ((1,), lambda _tag: "int"),
    "cast_int": ((1,), lambda _tag: "int"),
    # 0 for a zero operand, else math.copysign's float.
    "sign": ((1,), lambda _tag: "num"),
    **{name: ((2,), lambda _tag: "float") for name in ("power", "atn2")},
    **{name: ((1,), lambda _tag: "float")
       for name in ("sqrt", "exp", "log", "log10", "sin", "cos", "tan", "asin",
                    "acos", "atan", "radians", "degrees", "cast_float")},
}

#: The built-ins above that cannot raise on a number.  The rest can
#: (domain and range errors, ``int(nan)``) — ``may_raise``.
_TOTAL_BUILTINS = frozenset(("abs", "square"))


class _VectorCodegen:
    """Translates an expression tree into Python source over column buffers.

    The generated code reads the batch's column buffers inside one list
    comprehension — no per-row function calls, no dicts, no scopes.  A
    reference resolves against the ``schema`` (binding → table): a
    qualified one names its binding, an unqualified one must have one
    owner; it reads the batch column :func:`batch_key` names.  One
    binding over a row store (:attr:`dict_reads`) reads the stored dict
    of each position instead (``_r['ra']``): a
    :class:`~repro.engine.batch.RowBatch` has no buffers to index.  The
    translation is exact only where SQL three-valued logic cannot
    surface, or surfaces in a way the code reproduces: every referenced
    column must be NULL-free (checked against its store's null counts;
    a batch join's gathered buffers hold the same values), every
    non-column operand must fold
    to a non-NULL constant, and operand types must be statically
    compatible (so the interpreter's comparison/arithmetic errors cannot
    occur).  The numeric built-ins (:data:`_VECTOR_BUILTINS`) are called
    as the interpreter's own callables.  The one NULL left is a zero
    *column* divisor; :meth:`division` and :meth:`guarded` describe how
    it is handled.  Anything else raises :class:`_Unvectorizable` and
    the caller uses the row-view fallback.
    """

    #: Set when the code calls a function that can raise on a value
    #: (domain and range errors): such a predicate must see only the
    #: rows the row path evaluates, so it never runs over a segment's
    #: dictionary, whose values include dead rows'.
    may_raise = False

    #: Whether a column holding NULLs translates (only
    #: :func:`conjunct_hazards`, which never runs the code, allows it)
    #: and whether one was read.
    nulls_allowed = False
    reads_nullable = False

    #: Set once a non-constant divisor was translated: the value it
    #: divides may be NULL on the row path.
    divides = False

    #: Set once a comparison of a may-be-NULL value was emitted, and once
    #: code that may raise was emitted after it (see :meth:`guarded`).
    nullable_seen = False
    raises_after_nullable = False

    def __init__(self, evaluation: EvaluationContext, schema: Schema):
        self.start(evaluation)
        self.schema = {binding.lower(): table for binding, table in schema.items()}
        #: Batch column key -> generated identifier, in first-use order.
        self.columns: dict[str, str] = {}
        self.dict_reads = _dict_reads(schema)

    def start(self, evaluation: EvaluationContext) -> None:
        self.evaluation = evaluation
        self.env: dict[str, Any] = {}
        self._counter = 0
        #: The pending zero-divisor tests (``"<divisor> != 0"``) of the
        #: value being emitted, in evaluation order: the value is NULL
        #: on the row path unless all hold.
        self.guards: list[str] = []

    # -- helpers -----------------------------------------------------------

    def const(self, value: Any) -> str:
        name = f"_k{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name

    def constant_value(self, node: Expression) -> Any:
        """Fold ``node`` to a compile-time constant or raise.

        Calls never fold (functions may be impure), except the built-in
        ``pi()``: Q15B divides by it.
        """
        if (isinstance(node, FunctionCall) and not node.args
                and self.builtin(node) == "pi"):
            return math.pi
        operand = _Emitter(self.evaluation).emit(node)
        if not isinstance(operand, _Constant):
            raise _Unvectorizable(f"non-constant operand {node.sql()}")
        return operand.value

    def use_column(self, key: str) -> str:
        identifier = self.columns.get(key)
        if identifier is None:
            identifier = self.columns[key] = f"_c{len(self.columns)}"
        return identifier

    def note_may_raise(self) -> None:
        self.may_raise = True
        if self.nullable_seen:
            self.raises_after_nullable = True

    def capture(self, build: Callable[[], tuple[str, str]]
                ) -> tuple[str, str, list[str], bool]:
        """Run ``build`` (an emit) on its own: ``(source, tag, guards,
        may_raise)``, where ``guards`` are its zero-divisor tests (kept
        off the pending list) and ``may_raise`` whether its code can
        raise."""
        outer_guards, outer_raise = self.guards, self.may_raise
        self.guards, self.may_raise = [], False
        try:
            source, tag = build()
            return source, tag, self.guards, self.may_raise
        finally:
            self.guards = outer_guards
            self.may_raise = outer_raise or self.may_raise

    def guarded(self, build: Callable[[], tuple[str, str]]) -> tuple[str, str]:
        """A boolean test whose operands may carry zero-divisor guards.

        ``build`` emits the test.  Should a guard fail, the row path's
        operand is NULL and so is the test; the generated code has False
        instead (``guard and test``), tagged :data:`_NULLABLE_BOOL`.
        That is exact only where False and NULL lead to the same
        outcome and the same evaluation:

        * the result reaches a predicate's root through AND/OR only —
          every other consumer refuses the tag, so no NOT, CASE or IS
          NULL sits above it, and a projection never produces it;
        * nothing the failed guard skips can raise: the row path
          evaluates every operand of the test before it sees the NULL,
          so a test with code that may raise is refused;
        * nothing after it may raise: the row path's AND evaluates its
          right side after a NULL and stops only after a False
          (:attr:`raises_after_nullable`, checked at the root).
        """
        source, tag, guards, inner_raise = self.capture(build)
        if not guards:
            return source, tag
        if inner_raise:
            raise _Unvectorizable("a may-be-NULL test whose operands may raise")
        self.nullable_seen = True
        return f"({' and '.join(guards)} and {source})", _NULLABLE_BOOL

    # -- dispatch ------------------------------------------------------------

    def emit(self, node: Expression) -> tuple[str, str]:
        """(python source, type tag) for one subtree."""
        if isinstance(node, Literal):
            return self.literal(node.value)
        if isinstance(node, ColumnRef):
            return self.column(node)
        if isinstance(node, Variable):
            return self.variable(node)
        if isinstance(node, BinaryOp):
            return self.binary(node)
        if isinstance(node, UnaryOp):
            return self.unary(node)
        if isinstance(node, Between):
            return self.guarded(lambda: self.between(node))
        if isinstance(node, InList):
            return self.guarded(lambda: self.in_list(node))
        if isinstance(node, Like):
            return self.like(node)
        if isinstance(node, FunctionCall):
            return self.function_call(node)
        raise _Unvectorizable(f"node {type(node).__name__}")

    # -- leaves --------------------------------------------------------------

    def literal(self, value: Any) -> tuple[str, str]:
        if value is NULL:
            raise _Unvectorizable("NULL literal")
        return self.const(value), _value_tag(value)

    def column(self, node: ColumnRef) -> tuple[str, str]:
        qualifier = (node.qualifier or "").lower()
        if qualifier:
            binding, table = qualifier, self.schema.get(qualifier)
            if table is None:
                raise _Unvectorizable(f"column {node.sql()} outside the batch")
        else:
            owners = [(binding, table) for binding, table in self.schema.items()
                      if table.has_column(node.name)]
            if len(owners) != 1:
                raise _Unvectorizable(f"no single owner of column {node.name!r}")
            ((binding, table),) = owners
        column = table.column(node.name)
        if column is None:
            raise _Unvectorizable(f"no column {node.sql()}")
        if table.storage.column_null_count(node.name) > 0:
            if not self.nulls_allowed:
                raise _Unvectorizable(f"column {node.sql()} holds NULLs")
            self.reads_nullable = True
        tag = _DTYPE_TAGS.get(column.dtype)
        if tag is None:
            raise _Unvectorizable(f"column type {column.dtype.value}")
        key = batch_key(self.schema, binding, node.name.lower())
        identifier = self.use_column(key)
        if self.dict_reads:
            return f"_r[{key!r}]", tag
        return f"{identifier}[_i]", tag

    def variable(self, node: Variable) -> tuple[str, str]:
        try:
            value = self.evaluation.variable(node.name)
        except ExpressionError as exc:
            raise _Unvectorizable(str(exc)) from exc
        if value is NULL:
            raise _Unvectorizable(f"variable {node.name} is NULL")
        return self.const(value), _value_tag(value)

    # -- operators -------------------------------------------------------------

    def binary(self, node: BinaryOp) -> tuple[str, str]:
        op = node.op
        if op in ("and", "or"):
            left, left_tag = self.emit(node.left)
            right, right_tag = self.emit(node.right)
            tags = {left_tag, right_tag}
            if not tags <= {"bool", _NULLABLE_BOOL}:
                raise _Unvectorizable(f"non-boolean {op} operand")
            return (f"({left} {op} {right})",
                    _NULLABLE_BOOL if _NULLABLE_BOOL in tags else "bool")
        if op in _COMPARISON:
            return self.guarded(lambda: self.comparison(node))
        if op in ("+", "-", "*"):
            left, left_tag = self.emit(node.left)
            right, right_tag = self.emit(node.right)
            if left_tag not in _NUMERIC_TAGS or right_tag not in _NUMERIC_TAGS:
                raise _Unvectorizable(f"non-numeric {op!r}")
            tags = (left_tag, right_tag)
            tag = "float" if "float" in tags else "num" if "num" in tags else "int"
            return f"({left} {op} {right})", tag
        if op == "/":
            return self.division(node)
        if op == "%":
            return self.modulo(node)
        if op in _BITWISE:
            left, left_tag = self.emit(node.left)
            right, right_tag = self.emit(node.right)
            if left_tag not in ("int", "bool") or right_tag not in ("int", "bool"):
                raise _Unvectorizable(f"non-integer bitwise {op!r}")
            # The interpreter coerces both sides via int(), so booleans
            # produce int results (True & True is 1, not True).
            if left_tag == "bool":
                left = f"int({left})"
            if right_tag == "bool":
                right = f"int({right})"
            return f"({left} {op} {right})", "int"
        raise _Unvectorizable(f"operator {op!r}")

    def comparison(self, node: BinaryOp) -> tuple[str, str]:
        pyop = _PY_COMPARATORS[node.op]
        left, left_tag = self.emit(node.left)
        right, right_tag = self.emit(node.right)
        if left_tag in _NUMERIC_TAGS and right_tag in _NUMERIC_TAGS:
            return f"({left} {pyop} {right})", "bool"
        if left_tag == "str" and right_tag == "str":
            # The interpreter compares strings case-insensitively.
            return f"({left}.lower() {pyop} {right}.lower())", "bool"
        raise _Unvectorizable(f"comparison of {left_tag} with {right_tag}")

    def divisor(self, node: BinaryOp) -> tuple[str, str, Optional[Any]]:
        """``(dividend, its tag, constant divisor)`` of ``/`` or ``%``;
        the divisor is None when it is not a constant — then it is
        emitted here and its zero test becomes a guard."""
        left, left_tag = self.emit(node.left)
        if left_tag not in _EXACT_NUMERIC_TAGS:
            raise _Unvectorizable(f"dividend of tag {left_tag}")
        try:
            divisor = self.constant_value(node.right)
        except _Unvectorizable:
            return left, left_tag, None
        if divisor is NULL or not isinstance(divisor, (int, float)) or divisor == 0:
            # A zero (or NULL) divisor makes the whole expression NULL —
            # three-valued logic the fallback path handles exactly.
            raise _Unvectorizable("division by a zero or NULL constant")
        return left, left_tag, divisor

    def column_divisor(self, node: BinaryOp) -> tuple[str, str]:
        """A non-constant divisor: emitted, and its zero test pending.

        The row path's ``/`` and ``%`` are NULL when the divisor ``== 0``
        (``0.0`` and ``-0.0`` included, NaN not), after evaluating both
        operands; the guard is exactly that test."""
        right, right_tag = self.emit(node.right)
        if right_tag not in _EXACT_NUMERIC_TAGS:
            raise _Unvectorizable(f"divisor of tag {right_tag}")
        self.guards.append(f"{right} != 0")
        self.divides = True
        return right, right_tag

    def division(self, node: BinaryOp) -> tuple[str, str]:
        left, left_tag, divisor = self.divisor(node)
        if divisor is None:
            right, right_tag = self.column_divisor(node)
            if left_tag in ("int", "bool") and right_tag in ("int", "bool"):
                # The interpreter's isinstance(…, int) counts bools too.
                return f"{self.const(truncate_int_div)}({left}, {right})", "int"
            return f"({left} / {right})", "float"
        if left_tag in ("int", "bool") and isinstance(divisor, int):
            # bool divisors count as ints, exactly as the interpreter's
            # isinstance(right, int) check does (7 / (1=1) is 7, not 7.0).
            helper = self.const(truncate_int_div)
            return f"{helper}({left}, {self.const(int(divisor))})", "int"
        return f"({left} / {self.const(divisor)})", "float"

    def modulo(self, node: BinaryOp) -> tuple[str, str]:
        left, left_tag, divisor = self.divisor(node)
        if divisor is None:
            right, right_tag = self.column_divisor(node)
            floats = "float" in (left_tag, right_tag)
        else:
            right, floats = self.const(divisor), left_tag == "float" or isinstance(divisor, float)
        if floats:
            self.env.setdefault("_fmod", math.fmod)
            return f"_fmod({left}, {right})", "float"
        return f"({left} % {right})", "int"

    def unary(self, node: UnaryOp) -> tuple[str, str]:
        op = node.op
        if op in ("is null", "is not null"):
            return self.null_test(node)
        operand, tag = self.emit(node.operand)
        if op == "-":
            if tag not in _NUMERIC_TAGS:
                raise _Unvectorizable("negation of non-number")
            return f"(-{operand})", "int" if tag == "bool" else tag
        if op == "+":
            if tag not in _NUMERIC_TAGS:
                raise _Unvectorizable("unary + of non-number")
            return operand, tag
        if op == "not":
            if tag != "bool":
                raise _Unvectorizable("NOT of non-boolean")
            return f"(not {operand})", "bool"
        raise _Unvectorizable(f"unary {op!r}")

    def null_test(self, node: UnaryOp) -> tuple[str, str]:
        """IS [NOT] NULL: constant, except over a value with a column
        divisor, which is NULL exactly when one of its guards fails.  An
        operand that may raise is still evaluated, as the row path does."""
        source, tag, guards, may_raise = self.capture(lambda: self.emit(node.operand))
        if tag == _NULLABLE_BOOL:
            raise _Unvectorizable("IS NULL of a may-be-NULL test")
        if not guards:
            # Every other codegen-supported subtree is provably non-NULL.
            if may_raise:
                test = "is not" if node.op == "is not null" else "is"
                return f"({source} {test} {_NULL})", "bool"
            return self.const(node.op == "is not null"), "bool"
        if may_raise:
            raise _Unvectorizable("IS NULL of code that may raise")
        test = " and ".join(guards)
        return (f"({test})" if node.op == "is not null" else f"(not ({test}))"), "bool"

    def raising(self, node: Expression) -> tuple[str, str, bool]:
        """``emit(node)`` and whether that code may raise."""
        outer, self.may_raise = self.may_raise, False
        try:
            source, tag = self.emit(node)
            return source, tag, self.may_raise
        finally:
            self.may_raise = outer or self.may_raise

    def between(self, node: Between) -> tuple[str, str]:
        operand, operand_tag, operand_raises = self.raising(node.operand)
        low, low_tag, low_raises = self.raising(node.low)
        high, high_tag, high_raises = self.raising(node.high)
        if high_raises or (low_raises and operand_raises):
            # The row path evaluates operand, low and high, in that
            # order; `low <= operand <= high` evaluates low first and
            # high only when the first test holds.
            raise _Unvectorizable("BETWEEN bounds that may raise")
        tags = {operand_tag, low_tag, high_tag}
        if not (tags <= _NUMERIC_TAGS or tags == {"str"}):
            raise _Unvectorizable("mixed-type BETWEEN")
        # Unlike `<=` comparisons, the interpreter's BETWEEN compares
        # strings case-sensitively — so no .lower() here.
        source = f"({low} <= {operand} <= {high})"
        if node.negated:
            source = f"(not {source})"
        return source, "bool"

    def in_list(self, node: InList) -> tuple[str, str]:
        operand, operand_tag = self.emit(node.operand)
        candidates = [self.constant_value(item) for item in node.items]
        if any(candidate is NULL for candidate in candidates):
            # A NULL candidate makes a non-matching IN evaluate to NULL.
            raise _Unvectorizable("NULL in IN list")
        if operand_tag == "str":
            # Case-insensitive string matching, like the interpreter:
            # lower the operand once and every string candidate.
            folded = {candidate.lower() if isinstance(candidate, str) else candidate
                      for candidate in candidates}
            membership = self.const(frozenset(folded))
            source = f"({operand}.lower() in {membership})"
        elif operand_tag in _NUMERIC_TAGS:
            membership = self.const(frozenset(candidates))
            source = f"({operand} in {membership})"
        else:
            raise _Unvectorizable(f"IN over {operand_tag}")
        if node.negated:
            source = f"(not {source})"
        return source, "bool"

    def like(self, node: Like) -> tuple[str, str]:
        operand, operand_tag = self.emit(node.operand)
        if operand_tag != "str":
            raise _Unvectorizable("LIKE over non-string")
        pattern = self.constant_value(node.pattern)
        if pattern is NULL:
            raise _Unvectorizable("NULL LIKE pattern")
        regex = self.const(re.compile(like_regex(pattern), re.IGNORECASE))
        test = "is None" if node.negated else "is not None"
        return f"({regex}.match({operand}) {test})", "bool"

    def builtin(self, node: FunctionCall) -> Optional[str]:
        """The bare name of a call that resolves, as the row emitter
        resolves it, to the built-in function itself (None otherwise: a
        session function of the same name keeps its own semantics)."""
        func, bare = resolve_function(self.evaluation, node.name)
        if func is None or func is not _BUILTIN_FUNCTIONS.get(bare):
            return None
        return bare

    def function_call(self, node: FunctionCall) -> tuple[str, str]:
        name = self.builtin(node)
        if name == "pi" and not node.args:
            return self.const(math.pi), "float"
        spec = _VECTOR_BUILTINS.get(name) if name is not None else None
        if spec is None or len(node.args) not in spec[0]:
            raise _Unvectorizable(f"function {node.name}")
        arguments = []
        for argument in node.args:
            source, tag, guards, _raise = self.capture(lambda: self.emit(argument))
            if guards:
                # Not every built-in is NULL for a NULL argument (round's
                # digits go through int()): keep such calls on the row path.
                raise _Unvectorizable(f"{name} of a may-be-NULL value")
            if tag not in _NUMERIC_TAGS:
                raise _Unvectorizable(f"{name} of a non-number")
            arguments.append((source, tag))
        # Arguments evaluate first, as interpreted; operands are never
        # NULL here, so the built-in's NULL test is moot and its core
        # raises what the row path's call raises (sqrt(-1): ValueError
        # "math domain error").
        if name not in _TOTAL_BUILTINS:
            self.note_may_raise()
        function = _BUILTIN_FUNCTIONS[name]
        call = (f"{self.const(getattr(function, 'core', function))}"
                f"({', '.join(source for source, _tag in arguments)})")
        return call, spec[1](arguments[0][1])


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _vector_factory(source: str) -> Callable[..., VectorExpression]:
    """The compiled factory of one generated batch loop (the code cache
    of the vector codegen, keyed like :func:`_factory` by source text)."""
    namespace: dict[str, Any] = {}
    exec(compile(source, "<vector-codegen>", "exec"), namespace)
    return namespace["_factory"]


def _dict_reads(schema: Schema) -> bool:
    """Whether code over ``schema`` reads stored row dicts: one binding
    over a row store, whose batches hold them (a join's batches have
    gathered columns)."""
    return len(schema) == 1 and next(iter(schema.values())).storage.kind == "row"


def _vector_loop(env: Mapping[str, Any], reads: Mapping[str, str], body: str,
                 predicate: bool, dict_reads: bool = False) -> VectorExpression:
    """The generated loop over a batch's selection: ``reads`` binds each
    identifier to its column buffer, ``body`` is one position's value
    (or test).  ``env``'s values are the factory's arguments, so one
    expression shape compiles once whatever its constants.  With
    ``dict_reads`` the body reads ``_r``, each position's stored dict,
    bound once per position."""
    lines = [f"def _factory({', '.join(env)}):",
             "    def _vector_fn(_batch, _sel):"]
    if dict_reads:
        lines.append("        _rows = _batch.dicts")
        loop = "for _i in _sel for _r in (_rows[_i],)"
        if predicate:
            lines.append(f"        return [_i {loop} if {body}]")
        else:
            lines.append(f"        return [{body} {loop}]")
    else:
        lines.append("        _cols = _batch.columns")
        for identifier, key in reads.items():
            lines.append(f"        {identifier} = _cols[{key!r}]")
        if predicate:
            lines.append(f"        return [_i for _i in _sel if {body}]")
        else:
            lines.append(f"        return [{body} for _i in _sel]")
    lines.append("    return _vector_fn")
    return _vector_factory("\n".join(lines))(*env.values())


def _root(generator: _VectorCodegen, expression: Expression,
          predicate: bool) -> tuple[str, Optional[str]]:
    """``(body, tag)`` of a whole predicate or projection.

    A predicate must be boolean — `FilterOp` keeps rows only when it
    `is True`, so a truthy non-boolean must not pass — and may be a
    :data:`_NULLABLE_BOOL` only when no code after its may-be-NULL tests
    can raise (:meth:`_VectorCodegen.guarded`).  A projection is never
    one (it would show False for NULL); a projected value with a column
    divisor is written ``value if guards else None``, tagged None like
    the row-view fallback's values, which may hold NULLs too.
    """
    body, tag = generator.emit(expression)
    if predicate:
        if tag == _NULLABLE_BOOL and generator.raises_after_nullable:
            raise _Unvectorizable("code that may raise after a may-be-NULL test")
        if tag not in ("bool", _NULLABLE_BOOL):
            raise _Unvectorizable("predicate does not produce a boolean")
        return body, tag
    if tag == _NULLABLE_BOOL:
        raise _Unvectorizable("a may-be-NULL test as a value")
    if not generator.guards:
        return body, tag
    if generator.may_raise:
        raise _Unvectorizable("a may-be-NULL value of code that may raise")
    return f"({body} if {' and '.join(generator.guards)} else {_NULL})", None


def _codegen_vector(expression: Expression, evaluation: EvaluationContext,
                    schema: Schema, predicate: bool
                    ) -> tuple[VectorExpression, Optional[str]]:
    """Build a generated-loop vector function, or raise :class:`_Unvectorizable`."""
    generator = _VectorCodegen(evaluation, schema)
    body, tag = _root(generator, expression, predicate)
    reads = {identifier: key for key, identifier in generator.columns.items()}
    fn = _vector_loop(generator.env, reads, body, predicate, generator.dict_reads)
    fn.reads = list(generator.columns)
    # A single-column predicate can run over a sealed segment's
    # dictionary instead of its decoded rows (segments.SealedSegment.
    # code_filter); row-view fallbacks and code that may raise never
    # set this, so they always take the decoded path.
    fn.vector_columns = None if generator.may_raise else fn.reads
    return fn, tag


class _HazardCodegen(_VectorCodegen):
    """The vector codegen's type rules with NULL-holding columns allowed
    (a NULL operand makes the row path's result NULL, never an error)."""

    nulls_allowed = True


def conjunct_hazards(expression: Expression, evaluation: EvaluationContext,
                     schema: Schema) -> tuple[bool, bool]:
    """``(may_raise, may_be_null)`` of one predicate conjunct over ``schema``.

    Inside the vector codegen's subset the row path's evaluation raises
    only through the built-ins (:attr:`_VectorCodegen.may_raise`) and is
    NULL only through a column that holds NULLs or a column divisor
    (:attr:`_VectorCodegen.divides`); anything outside the subset may do
    both.  Segment skips consult this
    (:func:`repro.engine.segments.compile_zone_predicate`).
    """
    generator = _HazardCodegen(evaluation, schema)
    try:
        generator.emit(expression)
    except _Unvectorizable:
        return True, True
    return generator.may_raise, generator.reads_nullable or generator.divides


class _BatchRowEmitter(_RowEmitter):
    """The row emitter over a batch's row view
    (:class:`~repro.engine.batch.BatchRowView`): a reference reads its
    batch column, and the columns read are recorded (a batch join
    gathers exactly those).  A reference that does not resolve, and an
    aggregate outside an aggregation operator (``where count(*) > 1``),
    raise at the first selected position, as the row path raises at its
    first row: never over an empty input.  Under one binding the source
    is otherwise :func:`compile_row_expression`'s."""

    unresolved = _Emitter.unresolved
    aggregate = _Emitter.aggregate

    def __init__(self, evaluation: EvaluationContext, schema: Schema):
        super().__init__(evaluation, tuple((binding, table.row_keys)
                                           for binding, table in schema.items()))
        self.schema = schema
        self.keys: dict[str, None] = {}

    def reference(self, alias: str, key: str) -> str:
        column = batch_key(self.schema, alias, key)
        self.keys[column] = None
        return f"r[{column!r}]"


def _row_view_fallback(expression: Expression, evaluation: EvaluationContext,
                       schema: Schema, predicate: bool,
                       projected: bool = False) -> VectorExpression:
    """A row-mode function called once per selected position over the
    batch's NULL-mask-aware row view; raises VectorCompileError.

    The layout is the row path's (one table's, or ``HashJoin.layout``'s
    build bindings then probe), so names resolve as they do there, and
    ``projected`` is :func:`compile_expression`'s select-list rule; a
    node only the interpreter evaluates leaves the batch engine to the
    row path.
    """
    emitter = _BatchRowEmitter(evaluation, schema)
    try:
        row_fn = emitter.function(expression, projected)
    except RowCompileError as exc:
        raise VectorCompileError(str(exc)) from exc

    def dict_vector(batch: Any, selection: list) -> list:
        # One binding: the batch keys are the stored dicts' own keys.
        rows = batch.dicts
        if predicate:
            return [position for position in selection
                    if row_fn(rows[position]) is True]
        return [row_fn(rows[position]) for position in selection]

    def vector(batch: Any, selection: list) -> list:
        view = batch.row_view()
        out = []
        append = out.append
        for position in selection:
            view.index = position
            value = row_fn(view)
            if not predicate:
                append(value)
            elif value is True:
                append(position)
        return out

    if _dict_reads(schema):
        vector = dict_vector
    vector.row_fallback = True
    vector.reads = list(emitter.keys)
    return vector


def compile_vector_predicate(expression: Expression, evaluation: EvaluationContext,
                             schema: Schema) -> VectorExpression:
    """Compile a predicate to ``fn(batch, selection) -> narrowed selection``.

    ``schema`` maps each binding of the batch to its table (see
    :func:`batch_key` for the batch's column keys).  Prefers the
    generated-loop fast path; falls back to calling a row-mode function
    per selected position (NULL-mask aware) when the expression is
    outside the codegen subset.  ``fn.reads`` lists the batch columns
    either reads.  Raises :class:`VectorCompileError` when not even row
    mode applies.
    """
    try:
        fn, _tag = _codegen_vector(expression, evaluation, schema, predicate=True)
        return fn
    except _Unvectorizable:
        return _row_view_fallback(expression, evaluation, schema, predicate=True)


def compile_vector_projection(expression: Expression, evaluation: EvaluationContext,
                              schema: Schema, projected: bool = False
                              ) -> tuple[VectorExpression, Optional[str]]:
    """Compile a scalar to ``fn(batch, selection) -> [value, ...]``.

    Returns ``(fn, tag)`` where ``tag`` is the codegen type tag
    (``"int"``/``"float"``/``"bool"``/``"str"``) when the generated loop
    applies — the aggregation operator uses a numeric tag to take
    C-speed ``sum``/``min``/``max`` reductions — and ``None`` for the
    row-view fallback (whose values may include NULLs).  ``projected``
    adds the select-list rule of :func:`compile_expression`, which only
    an unresolved reference (always a row-view fallback) can trigger.
    """
    try:
        return _codegen_vector(expression, evaluation, schema, predicate=False)
    except _Unvectorizable:
        return _row_view_fallback(expression, evaluation, schema,
                                  predicate=False, projected=projected), None
