"""The lexer's token streams, pinned against a committed snapshot.

``tests/data/lexer_tokens.json`` holds, for every input below, the
``(type, value, line, column)`` stream the tokenizer produced when the
snapshot was written — or, for an input it rejects, the error message,
line and column.  The inputs are the 22 Figure-13 statements and the
simple extras, the six pool request templates of the web and ingest
mixes, the SQL in ``examples/``, the lexer unit tests' inputs and a set
of edge cases (number shapes, comments, brackets, error positions).  A
change to how the lexer works must leave every stream as it is.

Regenerate the file (only for a change meant to alter tokenization)
with::

    PYTHONPATH=src python tests/test_lexer_snapshot.py --write
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest
from request_templates import pool_templates

from repro.engine import SQLSyntaxError
from repro.engine.sql.lexer import tokenize
from repro.skyserver.queries import (ADDITIONAL_SIMPLE_QUERIES,
                                     DATA_MINING_QUERIES, fill_placeholders)

SNAPSHOT_FILE = Path(__file__).parent / "data" / "lexer_tokens.json"
EXAMPLES = Path(__file__).parent.parent / "examples"

#: One instance of the pool request templates per row: ra, dec, objID,
#: magnitude.
_TEMPLATE_VALUES = ((185.0, -0.5, 587722952230175035, 19.24),
                    (0.00012, 1.25, 1, 16.0),
                    (359.99999, -1.19999, 12345678901234, 21.94))

#: The lexer unit tests' inputs (``tests/test_engine_sql.py``).
_UNIT_TEST_INPUTS = (
    "select objID from PhotoObj where ra > 185.5",
    "select 'it''s'",
    "select 1 -- this is a comment\n + 2",
    "select /* noise */ 1",
    "set @saturated = 4",
    "select 1 into ##results",
    "select 1.5e-3",
    "select 'oops",
    "select ?",
)

#: Shapes the statements above do not reach, errors at known positions.
_EDGE_INPUTS = (
    "", "   ", "\n\n", "select\t1\r\n,2", "a.b.c", "dbo.fGetUrlExpId(objID)",
    "1 12 1.5 .5 5. 1.2.3 1..2 1e5 1E5 1e+5 1e-5 1.5e3 .5e-3 5.e3",
    "1e 1e+ 1e- 1ex 1e+x 1ee 1e5e6 1e5.5 0x1F 007 1_000",
    "x=1 x<>1 x!=1 x<=1 x>=1 x<1 x>1 a+b-c*d/e%f&g|h^~i",
    "select [my table].[col] from [dbo].[T]",
    "select _x, x_1, X1y2, ÄÖü, naïve, café2 from t",
    "select @a, @_b, @c1 from #t, ##tt, ###t3",
    "select 'a\nb' as s, 'line\n\nthree' from t -- trailing",
    "/* one\ntwo\nthree */ select 1 /* four */",
    "select 1 --",
    "select 1; select 2;;",
    "select /* unterminated\nblock",
    "select 'unterminated\nstring",
    "select [unterminated",
    "select @ from t",
    "select @1abc",
    "select # from t",
    "select #",
    "select 1\n  from t\n where x = ?",
    "select 1 from t where x = $1",
    "select `x`",
    "select \"x\" from t",
    "select 1 ! 2",
    "select\x0b1",
    "select \xa0 1",
    "select ١٢ from t",
)


def _examples_sql() -> list[str]:
    """Every string constant in ``examples/*.py`` that holds a SELECT."""
    found = []
    for path in sorted(EXAMPLES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "select" in node.value.lower()):
                found.append(node.value)
    return found


def _template_sql() -> list[str]:
    return [sql for values in _TEMPLATE_VALUES
            for sql in pool_templates(*values).values()]


def lexer_inputs() -> list[str]:
    fig13 = [fill_placeholders(query, objid=587722952230175035,
                               specobjid=75094093037420544)
             for query in DATA_MINING_QUERIES + ADDITIONAL_SIMPLE_QUERIES]
    return (fig13 + _template_sql() + _examples_sql()
            + list(_UNIT_TEST_INPUTS) + list(_EDGE_INPUTS))


def token_stream(sql: str) -> dict:
    """What the lexer makes of ``sql``, as the snapshot stores it."""
    try:
        tokens = tokenize(sql)
    except SQLSyntaxError as error:
        return {"sql": sql, "error": [str(error), error.line, error.column]}
    return {"sql": sql, "tokens": [[token.type.name, token.value, token.line,
                                    token.column] for token in tokens]}


def _snapshot() -> list[dict]:
    return json.loads(SNAPSHOT_FILE.read_text(encoding="utf-8"))


def test_snapshot_covers_every_input_kind():
    entries = _snapshot()
    stored = {entry["sql"] for entry in entries}
    assert len(entries) == len(stored) == len(set(lexer_inputs()))
    assert set(lexer_inputs()) == stored
    assert sum("error" in entry for entry in entries) >= 10


def test_lexer_reproduces_the_snapshot():
    moved = [entry["sql"] for entry in _snapshot()
             if token_stream(entry["sql"]) != entry]
    assert not moved, f"{len(moved)} inputs lex otherwise: {moved[:5]!r}"


def test_non_decimal_digits_are_not_numbers():
    # A number is Unicode decimal digits, what int() and float() read;
    # a superscript digit is no number (it used to lex as one and make
    # the parser raise ValueError).
    with pytest.raises(SQLSyntaxError):
        tokenize("select ² from t")
    assert [token.value for token in tokenize("select x²")][:2] == ["select", "x²"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_lexer_snapshot.py --write")
    unique = list(dict.fromkeys(lexer_inputs()))
    SNAPSHOT_FILE.parent.mkdir(exist_ok=True)
    SNAPSHOT_FILE.write_text(json.dumps([token_stream(sql) for sql in unique],
                                        indent=0, ensure_ascii=False) + "\n",
                             encoding="utf-8")
    print(f"wrote {SNAPSHOT_FILE} ({len(unique)} inputs)")
