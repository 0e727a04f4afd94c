"""Sealed columnar segments: per-column encodings and zone maps.

The paper's hot queries (the Fig.13 data-mining suite, §11) scan a few
wide tables whose columns are extremely compressible: the snowflake
arms (``type``, ``mode``, flag fields) hold a handful of distinct
values, and ``objID``/``htmID`` ascend almost monotonically because the
pipeline loads in scan order.  This module provides the in-memory
segment format the :class:`~repro.engine.storage.ColumnStore` seals
full batches into:

* **Encodings** — each sealed column picks one of

  - ``dict``  — ≤ 255 distinct values: a byte of code per row plus the
    dictionary (first-occurrence order, so decoding returns the exact
    original objects);
  - ``rle``   — run-length over the dictionary codes when runs are long
    (sorted/clustered columns);
  - ``delta`` — frame-of-reference for NULL-free, bool-free integer
    columns whose range fits 32 bits: ``base + offset`` with the
    narrowest of ``'B'``/``'H'``/``'I'`` offsets;
  - ``plain`` — everything else (the stored buffer, zero-copy decode).

  Encodings operate on the *raw* buffer — NULL placeholders included —
  and the null mask travels separately, which is what makes
  ``decode(encode(x)) == x`` hold bit-for-bit (the property suite
  proves it; CONTRIBUTING makes it a ground rule for new encodings).

* **Zone maps** (:class:`ZoneStats`) — per-column min/max, null count
  and an exact integer sum, built once at seal time.  Predicates are
  folded against them by :func:`compile_zone_predicate` to decide, per
  segment, *"can any row match?"* and *"do all rows match?"* without
  touching data.  Zone maps are conservative by contract: when in
  doubt (NaN, mixed types, unsupported operators, session variables
  that fail to fold) the answer degrades to ``(maybe, not-proven)`` —
  a segment that could match is never skipped.

String bounds are kept twice: raw (first-wins ``<``/``>`` exactly like
``_AggState``, so MIN/MAX answered from the zone are bit-identical to a
scan) and case-folded (the engine's ``_compare`` lowercases both string
sides, so *predicate* analysis must order by ``value.lower()``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import partial
from typing import Any, Callable, Optional, Sequence

from .batch import BATCH_ROWS, ColumnBatch
from .expressions import (Between, BinaryOp, ColumnRef, EvaluationContext,
                          Expression, InList, RowScope, UnaryOp, conjuncts)
from .types import NULL, DataType

#: Rows per sealed segment.  Aligned with the batch size so one sealed
#: segment is exactly one batch of a scan: skipping a segment skips a
#: whole batch.
SEGMENT_ROWS = BATCH_ROWS

#: Test/bench hook: force every seal to a single encoding ("plain",
#: "dict", "rle", "delta" — unencodable columns fall back to plain).
#: The property suite uses it to prove layouts are result-identical.
FORCED_ENCODING: Optional[str] = None

#: Diagnostic: count of segment-column decodes since process start.
#: ``bench_segments`` asserts the dictionary-code fast path answers an
#: equality filter without a single decode.
DECODE_EVENTS = 0

_RLE_MAX_RUN_FRACTION = 8       # rle only if runs <= rows / 8
_DICT_MAX_CARDINALITY = 255     # codes must fit one byte
_DELTA_MAX_RANGE = 1 << 32      # offsets no wider than 'I'


def _note_decode() -> None:
    global DECODE_EVENTS
    DECODE_EVENTS += 1


def _distinct_key(value: Any) -> Any:
    """A hashable key that never conflates distinct objects.

    ``hash(1) == hash(1.0) == hash(True)`` and ``0.0 == -0.0``, but the
    decoder must give back the exact original objects, so the key pins
    the type and (for floats) the bit pattern.
    """
    if isinstance(value, float):
        return ("f", value.hex())
    return (type(value), value)


def _logical_bytes(values: Sequence, dtype: DataType) -> int:
    """The uncompressed in-memory cost model (8 B per scalar, UTF-8-ish
    length per string) used for compression-ratio reporting."""
    if isinstance(values, array):
        return len(values) * values.itemsize
    total = 0
    for value in values:
        total += len(value) if isinstance(value, str) else 8
    return total


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------

class PlainColumn:
    """The stored buffer itself: zero-copy decode."""

    __slots__ = ("values", "dtype")
    name = "plain"

    def __init__(self, values: Sequence, dtype: DataType):
        self.values = values
        self.dtype = dtype

    def decode(self) -> Sequence:
        return self.values

    def value_at(self, position: int) -> Any:
        return self.values[position]

    def encoded_bytes(self) -> int:
        return _logical_bytes(self.values, self.dtype)


class DictColumn:
    """One byte of code per row plus a first-occurrence dictionary."""

    __slots__ = ("dictionary", "codes", "dtype")
    name = "dict"

    def __init__(self, dictionary: list, codes: array, dtype: DataType):
        self.dictionary = dictionary
        self.codes = codes
        self.dtype = dtype

    def decode(self) -> list:
        dictionary = self.dictionary
        return [dictionary[code] for code in self.codes]

    def value_at(self, position: int) -> Any:
        return self.dictionary[self.codes[position]]

    def encoded_bytes(self) -> int:
        return len(self.codes) + _logical_bytes(self.dictionary, self.dtype)


class RleColumn:
    """Run-length over dictionary codes: (run start, run code) pairs."""

    __slots__ = ("dictionary", "starts", "run_codes", "rows", "dtype")
    name = "rle"

    def __init__(self, dictionary: list, starts: array, run_codes: array,
                 rows: int, dtype: DataType):
        self.dictionary = dictionary
        self.starts = starts          # array('l'): first row of each run
        self.run_codes = run_codes    # array('B'): the run's code
        self.rows = rows
        self.dtype = dtype

    def decode(self) -> list:
        out: list = []
        dictionary, starts = self.dictionary, self.starts
        bounds = list(starts[1:]) + [self.rows]
        for start, stop, code in zip(starts, bounds, self.run_codes):
            out.extend([dictionary[code]] * (stop - start))
        return out

    def materialize_codes(self) -> array:
        codes = array("B")
        bounds = list(self.starts[1:]) + [self.rows]
        for start, stop, code in zip(self.starts, bounds, self.run_codes):
            codes.extend([code] * (stop - start))
        return codes

    def value_at(self, position: int) -> Any:
        run = bisect_right(self.starts, position) - 1
        return self.dictionary[self.run_codes[run]]

    def encoded_bytes(self) -> int:
        return (len(self.starts) * self.starts.itemsize + len(self.run_codes)
                + _logical_bytes(self.dictionary, self.dtype))


class DeltaColumn:
    """Frame of reference: ``minimum + offset``, narrowest offset array."""

    __slots__ = ("base", "offsets", "dtype")
    name = "delta"

    def __init__(self, base: int, offsets: array, dtype: DataType):
        self.base = base
        self.offsets = offsets
        self.dtype = dtype

    def decode(self) -> list:
        base = self.base
        return [base + offset for offset in self.offsets]

    def value_at(self, position: int) -> Any:
        return self.base + self.offsets[position]

    def encoded_bytes(self) -> int:
        return len(self.offsets) * self.offsets.itemsize + 8


def _try_dict(values: Sequence, dtype: DataType):
    """(dictionary, codes) with ≤ 255 first-occurrence entries, or None."""
    dictionary: list = []
    codes = array("B")
    index: dict = {}
    try:
        for value in values:
            key = _distinct_key(value)
            code = index.get(key)
            if code is None:
                code = len(dictionary)
                if code > _DICT_MAX_CARDINALITY:
                    return None
                index[key] = code
                dictionary.append(value)
            codes.append(code)
    except TypeError:               # unhashable value somewhere
        return None
    return dictionary, codes


def _runs_of(codes: array) -> tuple[array, array]:
    starts = array("l")
    run_codes = array("B")
    previous = -1
    for position, code in enumerate(codes):
        if code != previous:
            starts.append(position)
            run_codes.append(code)
            previous = code
    return starts, run_codes


def _try_delta(values: Sequence):
    """Frame-of-reference offsets for bool-free int values, or None."""
    low = high = None
    for value in values:
        if type(value) is not int:      # exact: bools/floats/NULL disqualify
            return None
        if low is None or value < low:
            low = value
        if high is None or value > high:
            high = value
    if low is None:
        return None
    spread = high - low
    if spread >= _DELTA_MAX_RANGE:
        return None
    typecode = "B" if spread < (1 << 8) else "H" if spread < (1 << 16) else "I"
    return low, array(typecode, (value - low for value in values))


def encode_column(values: Sequence, dtype: DataType):
    """Pick an encoding for one sealed column's raw buffer."""
    rows = len(values)
    forced = FORCED_ENCODING
    if forced == "plain":
        return PlainColumn(values, dtype)
    if forced in (None, "dict", "rle"):
        encoded = _try_dict(values, dtype)
        if encoded is not None:
            dictionary, codes = encoded
            if forced != "dict":
                starts, run_codes = _runs_of(codes)
                if (forced == "rle"
                        or len(starts) * _RLE_MAX_RUN_FRACTION <= rows):
                    return RleColumn(dictionary, starts, run_codes, rows, dtype)
            return DictColumn(dictionary, codes, dtype)
        if forced in ("dict", "rle"):
            return PlainColumn(values, dtype)
    if forced in (None, "delta"):
        encoded = _try_delta(values)
        if encoded is not None:
            base, offsets = encoded
            return DeltaColumn(base, offsets, dtype)
    return PlainColumn(values, dtype)


# ---------------------------------------------------------------------------
# Zone maps
# ---------------------------------------------------------------------------

class ZoneStats:
    """Per-column min/max, null count and exact integer sum of one segment.

    ``minimum``/``maximum`` use the aggregate path's first-wins strict
    comparisons over the raw values; ``cmp_min``/``cmp_max`` are the
    predicate-ordering bounds (``value.lower()`` for strings — the
    engine compares strings case-insensitively).  ``kind`` is ``"num"``
    / ``"str"`` when the bounds are trustworthy, ``None`` when the
    column holds NaN or mixed types (zone maps then answer "maybe").
    """

    __slots__ = ("rows", "null_count", "has_null", "minimum", "maximum",
                 "cmp_min", "cmp_max", "kind", "int_sum")

    def __init__(self, rows: int):
        self.rows = rows
        self.null_count = 0
        self.has_null = False
        self.minimum: Any = None
        self.maximum: Any = None
        self.cmp_min: Any = None
        self.cmp_max: Any = None
        self.kind: Optional[str] = "empty"
        self.int_sum: Optional[int] = 0

    @property
    def nonnull(self) -> int:
        return self.rows - self.null_count


def build_zone(values: Sequence, mask: Optional[Sequence[int]]) -> ZoneStats:
    zone = ZoneStats(len(values))
    for position, value in enumerate(values):
        if mask is not None and mask[position]:
            zone.null_count += 1
            continue
        if zone.kind is None:
            continue
        if isinstance(value, bool) or isinstance(value, int):
            kind = "num"
        elif isinstance(value, float):
            if value != value:          # NaN poisons ordering
                zone.kind = None
                zone.int_sum = None
                continue
            kind = "num"
            zone.int_sum = None
        elif isinstance(value, str):
            kind = "str"
            zone.int_sum = None
        else:
            zone.kind = None
            zone.int_sum = None
            continue
        if zone.kind == "empty":
            zone.kind = kind
            zone.minimum = zone.maximum = value
            folded = value.lower() if kind == "str" else value
            zone.cmp_min = zone.cmp_max = folded
        elif zone.kind != kind:
            zone.kind = None
            zone.int_sum = None
            continue
        else:
            if value < zone.minimum:
                zone.minimum = value
            if value > zone.maximum:
                zone.maximum = value
            folded = value.lower() if kind == "str" else value
            if folded < zone.cmp_min:
                zone.cmp_min = folded
            if folded > zone.cmp_max:
                zone.cmp_max = folded
        if zone.int_sum is not None:
            zone.int_sum += value
    zone.has_null = zone.null_count > 0
    if zone.kind == "empty":            # all NULL: no bounds, sum of nothing
        zone.kind = None
        zone.int_sum = 0 if zone.int_sum is not None else None
    if zone.kind is None and zone.nonnull:
        zone.minimum = zone.maximum = zone.cmp_min = zone.cmp_max = None
    return zone


# ---------------------------------------------------------------------------
# Sealed segments
# ---------------------------------------------------------------------------

class SealedSegment:
    """An immutable run of ``SEGMENT_ROWS`` rows: encoded columns, local
    null masks (only where the segment actually holds NULLs), zone maps
    and a tombstone count (DML invalidation: a nonzero count keeps the
    zone map usable for *skipping* — it still bounds a superset of the
    live rows — but bars answering aggregates from it).

    Only ``tombstones`` changes after sealing, so the on-disk bytes of
    ``columns``, ``masks`` and ``zones`` are computed once, by the
    first checkpoint that writes the segment, and kept in ``encoded``
    (:mod:`repro.storage.format`); a server that never checkpoints
    never fills it.
    """

    __slots__ = ("base", "rows", "columns", "masks", "zones", "tombstones",
                 "encoded")

    def __init__(self, base: int, rows: int, columns: dict, masks: dict,
                 zones: dict, tombstones: int = 0):
        self.base = base
        self.rows = rows
        self.columns = columns          # name -> encoded column
        self.masks = masks              # name -> bytes (local; only if nulls)
        self.zones = zones              # name -> ZoneStats
        self.tombstones = tombstones    # live-row deletes since sealing
        self.encoded: Optional[bytes] = None

    def decode_column(self, name: str) -> Sequence:
        _note_decode()
        return self.columns[name].decode()

    def value_at(self, name: str, position: int) -> Any:
        mask = self.masks.get(name)
        if mask is not None and mask[position]:
            return NULL
        return self.columns[name].value_at(position)

    def reader(self, name: str) -> Callable[[int], Any]:
        """``position -> value_at(name, position)``, as cheap a call as
        the column allows (a plain unmasked buffer's own indexing)."""
        column = self.columns[name]
        if name in self.masks:
            return partial(self.value_at, name)
        if isinstance(column, PlainColumn):
            return column.values.__getitem__
        return column.value_at

    def zone(self, name: str) -> Optional[ZoneStats]:
        return self.zones.get(name)

    def null_count(self, name: str) -> int:
        zone = self.zones.get(name)
        return zone.null_count if zone is not None else 0

    def encoding_of(self, name: str) -> str:
        return self.columns[name].name

    def encoded_bytes(self) -> int:
        total = sum(column.encoded_bytes() for column in self.columns.values())
        total += sum(len(mask) for mask in self.masks.values())
        return total

    def code_filter(self, name: str, vector_fn: Callable,
                    selection: list[int], binding_name: str) -> Optional[list[int]]:
        """Filter ``selection`` by dictionary codes — no decode.

        Runs the compiled single-column vector predicate once over the
        *dictionary* (a |dict| ≤ 256 element batch) to learn which codes
        match, then filters the selection on codes alone.  Exactly
        equivalent to decode-then-filter for any single-column
        predicate, because the predicate's value for a row depends only
        on that row's (dictionary) value.  Requires a NULL-free column
        — codegen predicates already do.
        """
        column = self.columns.get(name)
        if not isinstance(column, (DictColumn, RleColumn)):
            return None
        if name in self.masks:
            return None
        dictionary = column.dictionary
        probe = ColumnBatch({name: dictionary}, {},
                            list(range(len(dictionary))), binding_name)
        matching = set(vector_fn(probe, probe.selection))
        if len(matching) == len(dictionary):
            return selection
        if not matching:
            return []
        codes = (column.codes if isinstance(column, DictColumn)
                 else column.materialize_codes())
        return [position for position in selection
                if codes[position] in matching]


def build_segment(base: int, specs: dict, tombstones: int = 0) -> SealedSegment:
    """Seal one segment.  ``specs``: name -> (values, mask, dtype) where
    ``values`` is the raw local buffer (NULL placeholders included) and
    ``mask`` the local null mask (or None)."""
    columns: dict = {}
    masks: dict = {}
    zones: dict = {}
    rows = 0
    for name, (values, mask, dtype) in specs.items():
        rows = len(values)
        has_nulls = mask is not None and any(mask)
        zones[name] = build_zone(values, mask if has_nulls else None)
        columns[name] = encode_column(values, dtype)
        if has_nulls:
            masks[name] = bytes(mask)
    return SealedSegment(base, rows, columns, masks, zones, tombstones)


# ---------------------------------------------------------------------------
# Zone-map predicate analysis
# ---------------------------------------------------------------------------

_EMPTY_SCOPE = RowScope()
_UNFOLDABLE = object()

#: A conjunct verdict: (any row can match, every row provably matches).
_UNKNOWN = (True, False)


def _fold(node: Expression, evaluation: EvaluationContext):
    """Evaluate a column-free subtree (constants, session variables,
    scalar functions of constants).  Returns ``_UNFOLDABLE`` on any
    failure — the conjunct then degrades to "maybe"."""
    try:
        return node.evaluate(_EMPTY_SCOPE, evaluation)
    except Exception:
        return _UNFOLDABLE


def _segment_column(node: Expression, table, binding_name: str) -> Optional[str]:
    """The storage column a bare ColumnRef resolves to, or None."""
    if not isinstance(node, ColumnRef):
        return None
    qualifier = node.qualifier
    if qualifier is not None and qualifier.lower() != binding_name.lower():
        return None
    name = node.name.lower()
    if not any(column.name.lower() == name for column in table.columns):
        return None
    return name


def _bounds_for(zone: ZoneStats, value: Any):
    """(low, high, comparable_value) in predicate order, or None."""
    if isinstance(value, str):
        if zone.kind != "str":
            return None
        return zone.cmp_min, zone.cmp_max, value.lower()
    if isinstance(value, (int, float)):        # bools included
        if zone.kind != "num":
            return None
        return zone.cmp_min, zone.cmp_max, value

    return None


def _comparison_verdict(zone: Optional[ZoneStats], op: str, value: Any):
    if zone is None or zone.kind is None:
        return _UNKNOWN
    if zone.nonnull == 0 or value is NULL or value is None:
        # No non-NULL rows, or a NULL comparand: no row satisfies the
        # comparison (SQL three-valued logic).
        return (False, False)
    bounds = _bounds_for(zone, value)
    if bounds is None:
        return _UNKNOWN
    low, high, value = bounds
    exact = not zone.has_null           # all_match needs every row non-NULL
    try:
        if op == "=":
            return (low <= value <= high,
                    exact and low == value == high)
        if op in ("<>", "!="):
            return (not (low == value == high),
                    exact and (value < low or value > high))
        if op == "<":
            return (low < value, exact and high < value)
        if op == "<=":
            return (low <= value, exact and high <= value)
        if op == ">":
            return (high > value, exact and low > value)
        if op == ">=":
            return (high >= value, exact and low >= value)
    except TypeError:
        return _UNKNOWN
    return _UNKNOWN


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=",
            "<>": "<>", "!=": "!="}


class _ZoneConjunct:
    """One analyzable conjunct: evaluates against a segment's zones."""

    __slots__ = ("column", "verdict")

    def __init__(self, column: str, verdict: Callable):
        self.column = column
        self.verdict = verdict          # (zone) -> (any, all)


def _analyze(node: Expression, evaluation: EvaluationContext, table,
             binding_name: str) -> Optional[_ZoneConjunct]:
    """A zone verdict closure for one conjunct, or None (unsupported)."""
    if isinstance(node, BinaryOp):
        if node.op == "or":
            left = _analyze(node.left, evaluation, table, binding_name)
            right = _analyze(node.right, evaluation, table, binding_name)
            if left is None or right is None or left.column != right.column:
                return None

            def disjunction(zone, _left=left, _right=right):
                left_any, left_all = _left.verdict(zone)
                right_any, right_all = _right.verdict(zone)
                return (left_any or right_any, left_all or right_all)

            return _ZoneConjunct(left.column, disjunction)
        if node.op in ("=", "<>", "!=", "<", "<=", ">", ">="):
            column = _segment_column(node.left, table, binding_name)
            other, op = node.right, node.op
            if column is None:
                column = _segment_column(node.right, table, binding_name)
                other, op = node.left, _FLIPPED[node.op]
            if column is None or other.referenced_columns():
                return None

            def comparison(zone, _op=op, _other=other):
                value = _fold(_other, evaluation)
                if value is _UNFOLDABLE:
                    return _UNKNOWN
                return _comparison_verdict(zone, _op, value)

            return _ZoneConjunct(column, comparison)
        return None
    if isinstance(node, Between):
        column = _segment_column(node.operand, table, binding_name)
        if (column is None or node.low.referenced_columns()
                or node.high.referenced_columns()):
            return None

        def between(zone, _node=node):
            low = _fold(_node.low, evaluation)
            high = _fold(_node.high, evaluation)
            if low is _UNFOLDABLE or high is _UNFOLDABLE:
                return _UNKNOWN
            if isinstance(low, str) or isinstance(high, str):
                # String BETWEEN ordering differs between the row and
                # batch paths; stay out of it.
                return _UNKNOWN
            low_any, low_all = _comparison_verdict(zone, ">=", low)
            high_any, high_all = _comparison_verdict(zone, "<=", high)
            if _node.negated:
                inverse_any, _ = _comparison_verdict(zone, "<", low)
                inverse_any2, _ = _comparison_verdict(zone, ">", high)
                exact = zone is not None and not zone.has_null
                return (inverse_any or inverse_any2,
                        exact and not (low_any and high_any)
                        and zone.nonnull > 0)
            return (low_any and high_any, low_all and high_all)

        return _ZoneConjunct(column, between)
    if isinstance(node, InList):
        column = _segment_column(node.operand, table, binding_name)
        if column is None or node.negated:
            return None
        if any(item.referenced_columns() for item in node.items):
            return None

        def in_list(zone, _items=node.items):
            any_possible = False
            all_match = False
            for item in _items:
                value = _fold(item, evaluation)
                if value is _UNFOLDABLE:
                    return _UNKNOWN
                item_any, item_all = _comparison_verdict(zone, "=", value)
                any_possible = any_possible or item_any
                all_match = all_match or item_all
            return (any_possible, all_match)

        return _ZoneConjunct(column, in_list)
    if isinstance(node, UnaryOp) and node.op in ("is null", "is not null"):
        column = _segment_column(node.operand, table, binding_name)
        if column is None:
            return None
        if node.op == "is null":
            def is_null(zone):
                if zone is None:
                    return _UNKNOWN
                return (zone.has_null, zone.null_count == zone.rows)
            return _ZoneConjunct(column, is_null)

        def is_not_null(zone):
            if zone is None:
                return _UNKNOWN
            return (zone.null_count < zone.rows, not zone.has_null)
        return _ZoneConjunct(column, is_not_null)
    return None


def compile_zone_predicate(expression: Expression,
                           evaluation: EvaluationContext, table,
                           binding_name: str,
                           hazards: Sequence[tuple[bool, bool]]
                           ) -> Optional[Callable]:
    """A per-segment verdict function for ``expression``, or None.

    The returned callable maps a :class:`SealedSegment` to
    ``(any_possible, all_match)``: *any_possible* False proves no live
    row in the segment satisfies the predicate (skip it without reading
    data); *all_match* True proves every sealed row does (combined with
    a zero tombstone count, aggregates can answer from the zone map
    alone).  Unsupported conjuncts degrade to "maybe" — never to a
    skip.

    ``hazards`` holds ``(may_raise, may_be_null)`` per conjunct
    (:func:`~repro.engine.compile.conjunct_hazards`).  The row path
    evaluates conjuncts left to right and stops at the first False, so
    a skip must not hide an error it would meet: a conjunct disproves
    the segment only when neither it nor a conjunct before it can
    raise — and, when it can be NULL (the AND then goes on), no
    conjunct after it can raise either.
    """
    parts = conjuncts(expression)
    raises = [may_raise for may_raise, _null in hazards]
    analyzed = []
    for position, (conjunct, (_raise, may_be_null)) in enumerate(
            zip(parts, hazards)):
        zone_conjunct = _analyze(conjunct, evaluation, table, binding_name)
        if zone_conjunct is not None:
            skips = not (any(raises[:position + 1])
                         or (may_be_null and any(raises[position + 1:])))
            analyzed.append((zone_conjunct, skips))
    if not analyzed:
        return None
    complete = len(analyzed) == len(parts)

    def verdict(segment: SealedSegment) -> tuple[bool, bool]:
        all_match = complete
        for conjunct, skips in analyzed:
            any_possible, conjunct_all = conjunct.verdict(
                segment.zones.get(conjunct.column))
            if not any_possible and skips:
                return (False, False)
            all_match = all_match and any_possible and conjunct_all
        return (True, all_match)

    return verdict


def runtime_range_zone(column: str, low, high) -> Callable:
    """Zone form of a runtime join filter: build-key bounds vs segment.

    After a hash join's build side finishes, ``[low, high]`` is the
    min/max of the numeric build keys; a probe-side segment whose zone
    for ``column`` lies entirely outside that range cannot contain a
    matching join key, so it can be skipped without being read.  The
    verdict callable has the ``(any_possible, all_match)`` shape of
    :func:`compile_zone_predicate` — ``all_match`` is always False
    because a range overlap never proves membership in the build's
    exact key set.

    Pruning stays sound under tombstones: zone bounds cover a superset
    of the live rows, and an all-NULL zone is skippable outright since
    NULL join keys match nothing on either side.
    """

    def verdict(segment: SealedSegment) -> tuple[bool, bool]:
        zone = segment.zones.get(column)
        if zone is None:
            return (True, False)
        if zone.null_count >= zone.rows:
            return (False, False)
        if zone.kind != "num":
            return (True, False)
        if zone.cmp_max < low or zone.cmp_min > high:
            return (False, False)
        return (True, False)

    return verdict
