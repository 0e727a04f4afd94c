"""Recursive-descent parser for the engine's SQL subset.

The parser produces statement objects (:mod:`repro.engine.sql.ast`)
whose SELECT statements carry :class:`~repro.engine.logical.LogicalQuery`
instances built from the engine's expression AST, so the planner can be
used unchanged whether a query arrives as SQL text or through the
programmatic builder.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import SQLSyntaxError
from ..expressions import (AggregateCall, Between, BinaryOp, CaseWhen, ColumnRef,
                           Expression, FunctionCall, InList, Like, Literal,
                           Star, UnaryOp, Variable)
from ..logical import (FunctionRef, Join, LogicalQuery, OrderItem, RelationRef,
                       SelectItem, TableRef)
from .ast import (AnalyzeStatement, DeclareStatement, SelectStatement,
                  SetStatement, Statement)
from .lexer import Token, TokenType, tokenize

#: Words that terminate an expression / cannot be bare aliases.
_RESERVED = {
    "select", "from", "where", "group", "order", "having", "into", "join",
    "inner", "left", "right", "outer", "cross", "on", "and", "or", "not",
    "between", "in", "like", "is", "null", "as", "top", "distinct", "asc",
    "desc", "by", "declare", "set", "case", "when", "then", "else", "end",
    "union", "exists", "analyze",
}

#: Aggregate function names recognised by the parser.
_AGGREGATES = {"count", "sum", "avg", "min", "max"}


class _Parser:
    def __init__(self, tokens: Sequence[Token], text: str = ""):
        self.tokens = list(tokens)
        self.position = 0
        self.text = text

    # -- token helpers -------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        # The stream ends with END and ``advance`` never passes it, so
        # only a look-ahead can run off the end.
        if offset:
            return self.tokens[min(self.position + offset, len(self.tokens) - 1)]
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.END:
            self.position += 1
        return token

    def at_end(self) -> bool:
        return self.peek().type is TokenType.END

    def error(self, message: str) -> SQLSyntaxError:
        token = self.peek()
        return SQLSyntaxError(f"{message} (near {token.value!r})",
                              line=token.line, column=token.column)

    def expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        token = self.peek()
        if token.type is not token_type or (
                value is not None and token.value.lower() != value.lower()):
            expected = value or token_type.name
            raise self.error(f"expected {expected}")
        return self.advance()

    def accept_keyword(self, *keywords: str) -> bool:
        if self.peek().is_keyword(*keywords):
            self.advance()
            return True
        return False

    def expect_keyword(self, keyword: str) -> None:
        if not self.accept_keyword(keyword):
            raise self.error(f"expected {keyword.upper()}")

    # -- statements -----------------------------------------------------------

    def parse_batch(self) -> list[Statement]:
        statements: list[Statement] = []
        while not self.at_end():
            if self.peek().type is TokenType.SEMICOLON:
                self.advance()
                continue
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.is_keyword("declare"):
            return self.parse_declare()
        if token.is_keyword("set"):
            return self.parse_set()
        if token.is_keyword("select"):
            return SelectStatement(query=self.parse_select())
        if token.is_keyword("analyze"):
            return self.parse_analyze()
        raise self.error("expected DECLARE, SET, SELECT or ANALYZE")

    def parse_analyze(self) -> AnalyzeStatement:
        self.expect_keyword("analyze")
        table: Optional[str] = None
        token = self.peek()
        # A reserved word here starts the batch's next statement
        # (semicolons are optional): bare ANALYZE analyzes everything.
        if token.type is TokenType.NAME and token.value.lower() not in _RESERVED:
            table = self.parse_object_name()
        return AnalyzeStatement(table=table)

    def parse_declare(self) -> DeclareStatement:
        self.expect_keyword("declare")
        statement = DeclareStatement()
        while True:
            variable = self.expect(TokenType.VARIABLE)
            type_name = self.expect(TokenType.NAME).value
            if self.peek().type is TokenType.LPAREN:
                self.advance()
                self.expect(TokenType.NUMBER)
                self.expect(TokenType.RPAREN)
            statement.names.append(variable.value)
            statement.types.append(type_name)
            if self.peek().type is TokenType.COMMA:
                self.advance()
                continue
            break
        return statement

    def parse_set(self) -> SetStatement:
        self.expect_keyword("set")
        variable = self.expect(TokenType.VARIABLE)
        self.expect(TokenType.OPERATOR, "=")
        expression = self.parse_or()
        return SetStatement(name=variable.value, expression=expression)

    # -- SELECT ---------------------------------------------------------------

    def parse_select(self) -> LogicalQuery:
        self.expect_keyword("select")
        query = LogicalQuery()
        if self.accept_keyword("top"):
            count = self.expect(TokenType.NUMBER)
            query.top = int(float(count.value))
        if self.accept_keyword("distinct"):
            query.distinct = True
        query.select = self.parse_select_list()
        if self.accept_keyword("into"):
            query.into = self.parse_object_name()
        if self.accept_keyword("from"):
            query.relations.append(self.parse_from_item())
            while True:
                if self.peek().type is TokenType.COMMA:
                    self.advance()
                    query.relations.append(self.parse_from_item())
                    continue
                if self.peek().is_keyword("inner", "join"):
                    self.accept_keyword("inner")
                    self.expect_keyword("join")
                    relation = self.parse_from_item()
                    self.expect_keyword("on")
                    condition = self.parse_or()
                    query.joins.append(Join(relation, condition))
                    continue
                break
        if self.accept_keyword("where"):
            query.where = self.parse_or()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            query.group_by.append(self.parse_or())
            while self.peek().type is TokenType.COMMA:
                self.advance()
                query.group_by.append(self.parse_or())
        if self.accept_keyword("having"):
            query.having = self.parse_or()
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            query.order_by.append(self.parse_order_item())
            while self.peek().type is TokenType.COMMA:
                self.advance()
                query.order_by.append(self.parse_order_item())
        return query

    def parse_select_list(self) -> list[SelectItem]:
        items = [self.parse_select_item()]
        while self.peek().type is TokenType.COMMA:
            self.advance()
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self) -> SelectItem:
        if self.peek().type is TokenType.STAR:
            self.advance()
            return SelectItem(Star())
        # alias.* form
        if (self.peek().type is TokenType.NAME
                and self.peek(1).type is TokenType.DOT
                and self.peek(2).type is TokenType.STAR):
            qualifier = self.advance().value
            self.advance()
            self.advance()
            return SelectItem(Star(qualifier))
        expression = self.parse_or()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect(TokenType.NAME).value
        elif (self.peek().type is TokenType.NAME
              and self.peek().value.lower() not in _RESERVED):
            alias = self.advance().value
        return SelectItem(expression, alias)

    def parse_order_item(self) -> OrderItem:
        expression = self.parse_or()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return OrderItem(expression, descending)

    def parse_object_name(self) -> str:
        parts = [self.expect(TokenType.NAME).value]
        while self.peek().type is TokenType.DOT:
            self.advance()
            parts.append(self.expect(TokenType.NAME).value)
        # dbo.name -> name; keep only the trailing object name.
        return parts[-1]

    def parse_from_item(self) -> RelationRef:
        parts = [self.expect(TokenType.NAME).value]
        while self.peek().type is TokenType.DOT:
            self.advance()
            parts.append(self.expect(TokenType.NAME).value)
        args: Optional[list[Expression]] = None
        if self.peek().type is TokenType.LPAREN:
            self.advance()
            args = []
            if self.peek().type is not TokenType.RPAREN:
                args.append(self.parse_or())
                while self.peek().type is TokenType.COMMA:
                    self.advance()
                    args.append(self.parse_or())
            self.expect(TokenType.RPAREN)
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect(TokenType.NAME).value
        elif (self.peek().type is TokenType.NAME
              and self.peek().value.lower() not in _RESERVED):
            alias = self.advance().value
        name = parts[-1] if parts[0].lower() == "dbo" and len(parts) > 1 else ".".join(parts)
        if args is not None:
            return FunctionRef(name, args, alias)
        return TableRef(name, alias)

    # -- expressions -------------------------------------------------------------

    def parse_or(self) -> Expression:
        left = self.parse_and()
        while self.peek().is_keyword("or"):
            self.advance()
            left = BinaryOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> Expression:
        left = self.parse_not()
        while self.peek().is_keyword("and"):
            self.advance()
            left = BinaryOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> Expression:
        if self.peek().is_keyword("not"):
            self.advance()
            return UnaryOp("not", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expression:
        left = self.parse_additive()
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            operator = self.advance().value
            right = self.parse_additive()
            return BinaryOp(operator, left, right)
        negated = False
        if token.is_keyword("not") and self.peek(1).is_keyword("between", "in", "like"):
            negated = True
            self.advance()
            token = self.peek()
        if token.is_keyword("between"):
            self.advance()
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            return Between(left, low, high, negated)
        if token.is_keyword("in"):
            self.advance()
            self.expect(TokenType.LPAREN)
            items = [self.parse_or()]
            while self.peek().type is TokenType.COMMA:
                self.advance()
                items.append(self.parse_or())
            self.expect(TokenType.RPAREN)
            return InList(left, items, negated)
        if token.is_keyword("like"):
            self.advance()
            pattern = self.parse_additive()
            return Like(left, pattern, negated)
        if token.is_keyword("is"):
            self.advance()
            if self.accept_keyword("not"):
                self.expect_keyword("null")
                return UnaryOp("is not null", left)
            self.expect_keyword("null")
            return UnaryOp("is null", left)
        return left

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-", "&", "|", "^"):
                operator = self.advance().value
                left = BinaryOp(operator, left, self.parse_multiplicative())
                continue
            return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token.type is TokenType.STAR:
                self.advance()
                left = BinaryOp("*", left, self.parse_unary())
                continue
            if token.type is TokenType.OPERATOR and token.value in ("/", "%"):
                operator = self.advance().value
                left = BinaryOp(operator, left, self.parse_unary())
                continue
            return left

    def parse_unary(self) -> Expression:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value in ("-", "+"):
            operator = self.advance().value
            return UnaryOp(operator, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text.lower():
                return Literal(float(text))
            return Literal(int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.type is TokenType.VARIABLE:
            self.advance()
            return Variable(token.value)
        if token.type is TokenType.LPAREN:
            self.advance()
            expression = self.parse_or()
            self.expect(TokenType.RPAREN)
            return expression
        if token.is_keyword("case"):
            return self.parse_case()
        if token.is_keyword("null"):
            self.advance()
            return Literal(None)
        if token.type is TokenType.NAME:
            return self.parse_name_or_call()
        raise self.error("expected an expression")

    def parse_case(self) -> Expression:
        self.expect_keyword("case")
        branches: list[tuple[Expression, Expression]] = []
        default: Optional[Expression] = None
        while self.peek().is_keyword("when"):
            self.advance()
            condition = self.parse_or()
            self.expect_keyword("then")
            value = self.parse_or()
            branches.append((condition, value))
        if self.accept_keyword("else"):
            default = self.parse_or()
        self.expect_keyword("end")
        if not branches:
            raise self.error("CASE requires at least one WHEN branch")
        return CaseWhen(branches, default)

    def parse_name_or_call(self) -> Expression:
        parts = [self.advance().value]
        while self.peek().type is TokenType.DOT and self.peek(1).type is TokenType.NAME:
            self.advance()
            parts.append(self.advance().value)
        if self.peek().type is TokenType.LPAREN:
            name = ".".join(parts)
            self.advance()
            bare = name.split(".")[-1].lower()
            if bare in _AGGREGATES:
                return self.parse_aggregate_arguments(bare)
            args: list[Expression] = []
            if self.peek().type is not TokenType.RPAREN:
                args.append(self.parse_or())
                while self.peek().type is TokenType.COMMA:
                    self.advance()
                    args.append(self.parse_or())
            self.expect(TokenType.RPAREN)
            return FunctionCall(name, args)
        if len(parts) == 1:
            return ColumnRef(parts[0])
        if len(parts) == 2:
            return ColumnRef(parts[1], parts[0])
        raise self.error(f"cannot resolve dotted name {'.'.join(parts)!r}")

    def parse_aggregate_arguments(self, func: str) -> Expression:
        distinct = self.accept_keyword("distinct")
        if self.peek().type is TokenType.STAR:
            # T-SQL takes ``*`` in COUNT(*) alone.
            if func != "count" or distinct:
                raise self.error(f"{func.upper()}({'DISTINCT ' if distinct else ''}*)"
                                 " is not allowed; only COUNT(*) takes '*'")
            self.advance()
            self.expect(TokenType.RPAREN)
            return AggregateCall(func, None, distinct)
        argument = self.parse_or()
        self.expect(TokenType.RPAREN)
        return AggregateCall(func, argument, distinct)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def parse_batch(text: str) -> list[Statement]:
    """Parse a multi-statement SQL batch."""
    parser = _Parser(tokenize(text), text)
    statements = parser.parse_batch()
    for statement in statements:
        statement.sql_text = text
    return statements


def parse_select(text: str) -> LogicalQuery:
    """Parse a single SELECT statement into a logical query."""
    parser = _Parser(tokenize(text), text)
    query = parser.parse_select()
    if not parser.at_end() and parser.peek().type is not TokenType.SEMICOLON:
        raise parser.error("unexpected trailing tokens after SELECT")
    return query


def parse_expression(text: str) -> Expression:
    """Parse a standalone expression (used by view definitions and tests)."""
    parser = _Parser(tokenize(text), text)
    expression = parser.parse_or()
    if not parser.at_end():
        raise parser.error("unexpected trailing tokens after expression")
    return expression
