"""SQL tokenizer.

Produces a flat token stream from SQL text, handling the T-SQL
peculiarities the paper's queries use: ``@variables``, ``##temp`` table
names, ``--`` line comments, ``/* */`` block comments, single-quoted
strings with doubled-quote escapes, and dotted identifiers (split into
separate NAME/DOT tokens so the parser can distinguish ``dbo.f(...)``
from ``alias.column``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from ..errors import SQLSyntaxError


class TokenType(enum.Enum):
    NAME = "name"
    NUMBER = "number"
    STRING = "string"
    VARIABLE = "variable"
    OPERATOR = "operator"
    COMMA = "comma"
    DOT = "dot"
    LPAREN = "lparen"
    RPAREN = "rparen"
    SEMICOLON = "semicolon"
    STAR = "star"
    END = "end"


@dataclass(slots=True)
class Token:
    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, *keywords: str) -> bool:
        """Whether this is a NAME spelling one of ``keywords`` (given in
        lower case), in any case."""
        return self.type is TokenType.NAME and self.value.lower() in keywords

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r})"


#: Every token, comment and run of blanks, in the order the alternatives
#: are tried at each position; the last alternative takes any one
#: character, so the matches tile the text.  A number starts with a
#: digit or a dot before one: digits with at most one dot, then an
#: optional exponent (an ``e`` followed by a digit, or by a sign and any
#: digits).  Digits are Unicode decimal digits, what ``int()`` and
#: ``float()`` read; ``\w`` is exactly ``str.isalnum()`` or an
#: underscore.  A block comment or a bracketed name that never closes
#: runs to the end of the text, so many unclosed openers still lex in
#: linear time.
_TOKEN = re.compile(r"""
    \n
  | [ \t\r]+
  | --[^\n]*
  | /\*(?:[\s\S]*?\*/|[\s\S]*)
  | '[^']*(?:''[^']*)*'(?!')
  | (?=\d|\.\d)\d*\.?\d*(?:[eE](?:[+-]|(?=\d))\d*)?
  | @\w*
  | \#+\w*
  | \w+
  | \[[^\]]*\]?
  | <=|>=|<>|!=
  | [\s\S]
""", re.VERBOSE)

#: The tokens whose text alone says their type.
_FIXED = {",": TokenType.COMMA, ".": TokenType.DOT, "(": TokenType.LPAREN,
          ")": TokenType.RPAREN, ";": TokenType.SEMICOLON, "*": TokenType.STAR,
          **{operator: TokenType.OPERATOR
             for operator in ("<=", ">=", "<>", "!=", *"=<>+-/%&|^~")}}


def _after(raw: str, line: int, column: int) -> tuple[int, int]:
    """The line and column just past ``raw`` (which may span lines)
    when it starts at ``line``, ``column``."""
    newline = raw.rfind("\n")
    if newline < 0:
        return line, column + len(raw)
    return line + raw.count("\n"), len(raw) - newline


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`SQLSyntaxError` on unknown characters.

    Columns count characters from 1.  A comment does not advance the
    column (a block comment still counts its lines), and neither does a
    line break inside a ``[bracketed]`` name."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    column = 1
    position = 0

    def error(message: str) -> SQLSyntaxError:
        return SQLSyntaxError(message, line=line, column=column)

    for raw in _TOKEN.findall(text):
        first = raw[0]
        width = len(raw)
        if first in " \t\r":
            pass
        elif first.isalpha() or first == "_":
            append(Token(TokenType.NAME, raw, line, column))
        elif raw in _FIXED:
            append(Token(_FIXED[raw], raw, line, column))
        elif first.isdecimal() or first == ".":
            append(Token(TokenType.NUMBER, raw, line, column))
        elif first == "\n":
            line += 1
            column = 1
            width = 0
        elif first == "'":
            if width == 1:
                line, column = _after(text[position:], line, column)
                raise error("unterminated string literal")
            append(Token(TokenType.STRING, raw[1:-1].replace("''", "'"),
                         line, column))
            line, column = _after(raw, line, column)
            width = 0
        elif raw.startswith("--"):
            width = 0
        elif raw.startswith("/*"):
            if width < 4 or not raw.endswith("*/"):
                raise error("unterminated block comment")
            line += raw.count("\n")
            width = 0
        elif first == "@":
            if width == 1:
                raise error("'@' must be followed by a variable name")
            append(Token(TokenType.VARIABLE, raw[1:], line, column))
        elif first == "#":
            if raw.endswith("#"):
                raise error("'#' must start a temporary table name")
            append(Token(TokenType.NAME, raw, line, column))
        elif first == "[":
            if width == 1 or not raw.endswith("]"):
                raise error("unterminated [bracketed] identifier")
            append(Token(TokenType.NAME, raw[1:-1], line, column))
        else:
            raise error(f"unexpected character {first!r}")
        column += width
        position += len(raw)

    tokens.append(Token(TokenType.END, "", line, column))
    return tokens
