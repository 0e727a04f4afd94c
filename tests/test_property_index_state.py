"""Property tests: index state stays exact under any mix of writes.

After any sequence of ``insert``, ``insert_many``, ``delete_row`` and
``delete_where`` on either storage layout, every index must hold exactly
one ``(key, row_id)`` entry per live row, in the order a from-scratch
sort gives under the reference key rule below — NULLs first, numbers
(bools as 0/1) by value, strings case-insensitively.  Keys that rank
equal (``1`` and ``1.0``, ``True`` and ``1``, ``"ab"`` and ``"AB"``)
are duplicates in a unique index, and a write that would add one
changes nothing.  A NaN key has no place in any order, so while one is
indexed only the entry set is compared; once the NaN rows are gone the
order must be exact again.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (Database, PrimaryKey, PrimaryKeyViolation, bigint,
                          boolean, floating, text)
from repro.engine.index import BTreeIndex

settings.register_profile("repro-index-state", deadline=None, max_examples=60)
settings.load_profile("repro-index-state")

NAN = float("nan")


class _ReferenceKey:
    """The index order as a Python comparison: a key's rank is one
    ``(type, number, text)`` triple per part, compared as tuples."""

    __slots__ = ("ranked",)

    def __init__(self, key: tuple):
        ranked = []
        for part in key:
            if part is None:
                ranked.append((0, 0, ""))
            elif isinstance(part, bool):
                ranked.append((1, int(part), ""))
            elif isinstance(part, (int, float)):
                ranked.append((1, part, ""))
            elif isinstance(part, str):
                ranked.append((2, 0, part.lower()))
            else:
                ranked.append((3, 0, str(part)))
        self.ranked = tuple(ranked)

    def __lt__(self, other: "_ReferenceKey") -> bool:
        return self.ranked < other.ranked

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReferenceKey) and self.ranked == other.ranked


def _has_nan(key: tuple) -> bool:
    return any(isinstance(part, float) and math.isnan(part) for part in key)


def _canonical(key: tuple) -> tuple:
    """``key`` with NaN replaced by a marker, so equal keys compare equal."""
    return tuple("<nan>" if isinstance(part, float) and math.isnan(part)
                 else (type(part), part) for part in key)


def _entries(index: BTreeIndex) -> list[tuple[tuple, int]]:
    return [(_canonical(key), row_id) for _rank, row_id, key in index._entries]


def assert_exact(index: BTreeIndex, live: dict[int, tuple]) -> None:
    """``index`` holds exactly ``live`` (row id -> key), sorted by the
    reference rule (as a set while some key is NaN)."""
    actual = _entries(index)
    if any(_has_nan(key) for key in live.values()):
        assert sorted(actual, key=lambda entry: entry[1]) == [
            (_canonical(live[row_id]), row_id) for row_id in sorted(live)]
        return
    ordered = sorted(live.items(),
                     key=lambda item: (_ReferenceKey(item[1]), item[0]))
    assert actual == [(_canonical(key), row_id) for row_id, key in ordered]


def assert_round_trips(index: BTreeIndex) -> None:
    restored = BTreeIndex(index.name, index.table, index.columns,
                          unique=index.unique)
    restored.restore_entries(index.entries_state())
    assert _entries(restored) == _entries(index)
    assert restored._nan_entries == index._nan_entries


# ---------------------------------------------------------------------------
# The index alone, fed raw heterogeneous keys
# ---------------------------------------------------------------------------

RAW_PARTS = [None, True, False, 0, 1, 1.0, 2, -0.0, 2.5, "ab", "AB", "Ab", "b"]


def raw_ops(parts: list) -> st.SearchStrategy:
    keys = st.tuples(st.sampled_from(parts), st.sampled_from(parts))
    return st.lists(st.one_of(
        st.tuples(st.just("insert"), keys),
        st.tuples(st.just("batch"), st.lists(keys, max_size=12)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10 ** 6)),
    ), max_size=40)


def _ranks_equal(left: tuple, right: tuple) -> bool:
    return _ReferenceKey(left) == _ReferenceKey(right)


def _run_raw_ops(ops: list, unique: bool) -> None:
    table = SimpleNamespace(name="t")
    index = BTreeIndex("ix", table, ["a", "b"], unique=unique)
    live: dict[int, tuple] = {}
    next_id = 0
    for op, argument in ops:
        if op == "insert":
            key = argument
            clash = unique and any(_ranks_equal(key, other) for other in live.values())
            try:
                index.insert(next_id, {"a": key[0], "b": key[1]})
            except PrimaryKeyViolation:
                assert clash
            else:
                assert not clash
                live[next_id] = key
            next_id += 1
        elif op == "batch":
            keys = argument
            clash = unique and any(
                _ranks_equal(key, other)
                for position, key in enumerate(keys)
                for other in list(live.values()) + keys[position + 1:])
            rows = [{"a": key[0], "b": key[1]} for key in keys]
            try:
                batch = index.batch_entries(rows, next_id)
            except PrimaryKeyViolation:
                assert clash
            else:
                assert not clash
                index.merge(batch)
                live.update(zip(range(next_id, next_id + len(keys)), keys))
            next_id += len(keys)
        elif live:
            row_id = sorted(live)[argument % len(live)]
            key = live.pop(row_id)
            index.remove(row_id, {"a": key[0], "b": key[1]})
        assert_exact(index, live)
    assert_round_trips(index)


@given(raw_ops(RAW_PARTS + [NAN]))
def test_raw_keys_keep_the_reference_order(ops):
    _run_raw_ops(ops, unique=False)


@given(raw_ops(RAW_PARTS))
def test_unique_index_rejects_every_equal_rank(ops):
    """A NaN has no equal, so uniqueness is only promised without one."""
    _run_raw_ops(ops, unique=True)


# ---------------------------------------------------------------------------
# Tables on both layouts
# ---------------------------------------------------------------------------

FLOATS = [None, 0.0, 1, 1.0, True, -0.0, 2.5, NAN]
TEXTS = [None, "ab", "AB", "Ab", "b", ""]
BOOLS = [None, True, False, 1, 0]
row_values = st.fixed_dictionaries({
    "f": st.sampled_from(FLOATS),
    "s": st.sampled_from(TEXTS),
    "b": st.sampled_from(BOOLS),
    # Mostly zero: long runs of one key, as PhotoObj.specObjID has.
    "n": st.sampled_from([0, 0, 0, 0, 1, 2]),
})
table_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), row_values, st.booleans()),
    st.tuples(st.just("insert_many"), st.lists(row_values, max_size=30),
              st.booleans()),
    st.tuples(st.just("delete_row"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("delete_where"), st.integers(min_value=0, max_value=2)),
), max_size=25)

INDEXES = {"ix_f": ["f"], "ix_s": ["s"], "ix_bn": ["b", "n"], "ix_n": ["n"]}


def _table(layout: str):
    database = Database("index-state")
    table = database.create_table("T", [
        bigint("id"), floating("f", nullable=True), text("s", nullable=True),
        boolean("b", nullable=True), bigint("n")],
        primary_key=PrimaryKey(["id"]), storage=layout)
    for name, columns in INDEXES.items():
        table.create_index(name, columns)
    table.create_index("ux_s", ["s", "n"], unique=True)
    return table


def _assert_table_indexes(table) -> None:
    rows = dict(table.storage.iter_rows())
    for index in table.indexes.values():
        assert_exact(index, {row_id: index.key_for_row(row)
                             for row_id, row in rows.items()})


@given(table_ops, st.sampled_from(["row", "column"]))
def test_table_writes_keep_every_index_exact(ops, layout):
    table = _table(layout)
    next_id = 0
    for op, *arguments in ops:
        before = {name: _entries(index) for name, index in table.indexes.items()}
        live_before = table.row_count
        if op in ("insert", "insert_many"):
            values, reuse_id = arguments
            rows = [values] if op == "insert" else values
            fresh = []
            for row in rows:
                # Now and then an id that is already live: a PK violation.
                existing = next(iter(table.storage.iter_rows()), None)
                if reuse_id and existing is not None and row["n"] == 2:
                    fresh.append(dict(row, id=existing[1]["id"]))
                else:
                    fresh.append(dict(row, id=next_id))
                    next_id += 1
            try:
                if op == "insert":
                    table.insert(fresh[0])
                else:
                    table.insert_many(fresh)
            except PrimaryKeyViolation:
                assert {name: _entries(index)
                        for name, index in table.indexes.items()} == before
                assert table.row_count == live_before
            else:
                assert table.row_count == live_before + len(fresh)
        elif op == "delete_row":
            live = [row_id for row_id, _row in table.storage.iter_rows()]
            if live:
                assert table.delete_row(live[arguments[0] % len(live)])
        else:
            residue = arguments[0]
            table.delete_where(lambda row: row["n"] % 3 == residue)
        _assert_table_indexes(table)
    for index in table.indexes.values():
        assert_round_trips(index)


def test_long_equal_key_run_deletes_exact_entries():
    """Deleting from the middle of a 5,000-entry run of one key removes
    exactly the deleted rows' entries."""
    for layout in ("row", "column"):
        table = _table(layout)
        table.insert_many([{"id": row, "n": 0, "s": f"k{row}"} for row in range(5000)])
        doomed = set(range(1200, 5000, 7))
        assert table.delete_where(lambda row: row["id"] in doomed) == len(doomed)
        _assert_table_indexes(table)
        assert len(table.indexes["ix_n"]) == 5000 - len(doomed)
