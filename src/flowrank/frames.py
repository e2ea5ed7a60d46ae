"""Relational data model: column schemas, frame classification, relations.

A relation is an immutable ordered table flowing between transformers.  Its
column-name set classifies it as a query (Q), document (D), result (R), or
answer (A) frame, possibly extended with extra columns.  Construction
enforces the frame invariants (primary keys, dense 0-based ranks ordered by
non-increasing score), so any relation the framework hands out is valid.

Public construction also checks the type of every cell.  The engine's own
stages build their outputs from cells of already-checked relations plus
values they compute, through :meth:`Relation._trusted`, which skips only
that per-cell type pass.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError, FormatError, MissingColumn, UnknownDocno

COLUMN_TYPES = ("text", "float64", "int64", "float-vector")

# Default types for the well-known data-model columns; anything else is text.
KNOWN_COLUMN_TYPES = {
    "qid": "text",
    "query": "text",
    "docno": "text",
    "text": "text",
    "qanswer": "text",
    "score": "float64",
    "rank": "int64",
    "query_vec": "float-vector",
}

# Canonical presentation order for the well-known columns.
_PREFERRED_ORDER = ("qid", "query", "query_vec", "docno", "text", "score", "rank", "qanswer")

# Minimal column sets per frame kind; match precedence is R > A > Q > D.
FRAME_REQUIREMENTS = (
    ("R", frozenset({"qid", "docno", "score", "rank"})),
    ("A", frozenset({"qid", "qanswer"})),
    ("Q", frozenset({"qid", "query"})),
    ("D", frozenset({"docno", "text"})),
)


@dataclass(frozen=True)
class ColumnSpec:
    """A named, typed column."""

    name: str
    ctype: str

    def __post_init__(self):
        if not self.name:
            raise DataError("column name must be non-empty")
        if self.ctype not in COLUMN_TYPES:
            raise DataError(f"unknown column type {self.ctype!r} for column {self.name!r}")


@dataclass(frozen=True)
class Schema:
    """Ordered list of columns with unique names."""

    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate column names in schema: {dupes}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(name)


def column_spec(name: str) -> ColumnSpec:
    """Column spec for a name, using the known type or text by default."""
    return ColumnSpec(name, KNOWN_COLUMN_TYPES.get(name, "text"))


def schema_for(names: Iterable[str]) -> Schema:
    """Schema over the given names in the order supplied."""
    return Schema(tuple(column_spec(n) for n in names))


def canonical_columns(names: Iterable[str]) -> list[str]:
    """Order column names canonically: well-known first, extras sorted after."""
    names = set(names)
    ordered = [n for n in _PREFERRED_ORDER if n in names]
    ordered.extend(sorted(names - set(_PREFERRED_ORDER)))
    return ordered


@dataclass(frozen=True)
class FrameKind:
    """Classification of a column set: a base kind, possibly extended."""

    base: str | None
    extended: bool = False

    def __post_init__(self):
        if self.base not in (None, "Q", "D", "R", "A"):
            raise DataError(f"invalid frame base {self.base!r}")
        if self.base is None and not self.extended:
            raise DataError("a frame with no base kind is always extended")

    @property
    def abbr(self) -> str:
        if self.base is None:
            return "?"
        return self.base + ("+" if self.extended else "")

    def __str__(self) -> str:
        return self.abbr


def classify_frame(columns) -> FrameKind:
    """Classify a schema (or iterable of column names) by its column-name set.

    Returns the most specific kind whose required columns are all present
    (precedence R > A > Q > D); extra columns yield an extended kind, and no
    match yields the anonymous extended kind.
    """
    if isinstance(columns, Schema):
        names = set(columns.names)
    else:
        names = set(columns)
    for base, required in FRAME_REQUIREMENTS:
        if required <= names:
            return FrameKind(base, extended=bool(names - required))
    return FrameKind(None, extended=True)


def _check_value(col: ColumnSpec, value, nullable: bool):
    if value is None:
        if not nullable:
            raise DataError(f"column {col.name!r} is required by its frame kind and may not be null")
        return None
    if col.ctype == "text":
        if not isinstance(value, str):
            raise DataError(f"column {col.name!r} expects text, got {type(value).__name__}")
        return value
    if col.ctype == "float64":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"column {col.name!r} expects float64, got {type(value).__name__}")
        return float(value)
    if col.ctype == "int64":
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"column {col.name!r} expects int64, got {type(value).__name__}")
        return value
    # float-vector
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise DataError(f"column {col.name!r} expects a float vector, got {type(value).__name__}")
    return tuple(float(v) for v in value)


@dataclass(frozen=True)
class Relation:
    """Immutable ordered rows under a schema.

    Frame invariants are enforced at construction: unique ``qid`` for Q/A
    frames, unique ``docno`` for D frames, unique ``(qid, docno)`` for R
    frames, and a dense 0-based ``rank`` ordered by non-increasing ``score``
    within each ``qid`` group whenever those columns travel together.
    """

    schema: Schema
    rows: tuple[tuple, ...] = field(default=())

    def __post_init__(self):
        names = self.schema.names
        kind = classify_frame(names)
        required = _required(kind)
        normalized = []
        for r, row in enumerate(self.rows):
            row = tuple(row)
            if len(row) != len(names):
                raise DataError(
                    f"row {r} has {len(row)} values but the schema has {len(names)} columns"
                )
            normalized.append(
                tuple(
                    _check_value(col, v, nullable=col.name not in required)
                    for col, v in zip(self.schema.columns, row)
                )
            )
        object.__setattr__(self, "rows", tuple(normalized))
        self._check_keys(kind)

    @classmethod
    def _trusted(cls, columns: Sequence[str], rows: Iterable[tuple]) -> "Relation":
        """Engine-only constructor over row tuples whose cells are known to type-check.

        Cells copied from checked relations keep their column's type, and
        the engine computes only well-typed values, so the per-cell type pass
        is skipped.  A stage may still change the frame kind and so gain
        required columns and a primary key: nulls in required columns, keys
        and ranks are checked as in public construction.
        """
        rel = object.__new__(cls)
        object.__setattr__(rel, "schema", schema_for(columns))
        object.__setattr__(rel, "rows", tuple(rows))
        kind = classify_frame(columns)
        for name in _required(kind):
            if None in map(operator.itemgetter(rel.schema.index_of(name)), rel.rows):
                raise DataError(f"column {name!r} is required by its frame kind and may not be null")
        rel._check_keys(kind)
        return rel

    def _check_keys(self, kind: FrameKind):
        # primary keys bind the exact frame kinds; extensions such as a
        # candidate table {qid, query, docno, text} legitimately repeat qids
        names = set(self.schema.names)
        if kind == FrameKind("Q") or kind == FrameKind("A"):
            _unique(self.column("qid"), "qid")
        elif kind == FrameKind("D"):
            _unique(self.column("docno"), "docno")
        elif kind.base == "R" and {"qid", "docno"} <= names:
            _unique(list(zip(self.column("qid"), self.column("docno"))), "(qid, docno)")
        if {"qid", "score", "rank"} <= names:
            self._check_ranks()

    def _check_ranks(self):
        scores = self.column("score")
        if None in scores or any(map(math.isnan, scores)):
            qid, score = next((q, s) for q, s in zip(self.column("qid"), scores) if s is None or s != s)
            raise DataError(f"score {score} for qid {qid!r} cannot be ranked")
        groups: dict[str, list[tuple[int, float]]] = {}
        for qid, score, rank in zip(self.column("qid"), scores, self.column("rank")):
            groups.setdefault(qid, []).append((rank, score))
        for qid, pairs in groups.items():
            pairs.sort()
            if list(map(operator.itemgetter(0), pairs)) != list(range(len(pairs))):
                raise DataError(f"ranks for qid {qid!r} are not exactly 0..{len(pairs) - 1}")
            scores = list(map(operator.itemgetter(1), pairs))
            if any(map(operator.lt, scores, scores[1:])):
                raise DataError(f"scores for qid {qid!r} increase with rank")

    @property
    def columns(self) -> tuple[str, ...]:
        return self.schema.names

    @property
    def kind(self) -> FrameKind:
        return classify_frame(self.schema)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> tuple:
        return tuple(map(operator.itemgetter(self.schema.index_of(name)), self.rows))

    def to_dicts(self) -> list[dict]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    @staticmethod
    def from_dicts(rows: Iterable[Mapping], columns: Iterable[str] | None = None) -> "Relation":
        rows = list(rows)
        if columns is None:
            seen = {k for row in rows for k in row}
            columns = canonical_columns(seen)
        columns = list(columns)
        schema = schema_for(columns)
        return Relation(schema, tuple(tuple(row.get(c) for c in columns) for row in rows))


def _required(kind: FrameKind) -> frozenset[str]:
    """Columns a frame of *kind* may not hold nulls in."""
    for base, required in FRAME_REQUIREMENTS:
        if base == kind.base:
            return required
    return frozenset()


def _unique(values: Sequence, label: str):
    if len(set(values)) == len(values):
        return
    seen = set()
    for v in values:
        if v in seen:
            raise DataError(f"duplicate {label} value {v!r} violates the frame primary key")
        seen.add(v)


def ranked(rows: Sequence, qid, score, docno) -> Iterator[tuple[object, int]]:
    """``(row, rank)`` pairs ordered by (qid asc, score desc, docno asc).

    This is the single ranking rule used everywhere a result frame is
    produced; ties in score break by ascending docno for determinism, and
    ranks count from 0 within each qid.  *qid*, *score* and *docno* index
    into each row: positions for tuples, names for dicts.
    """
    ordered = sorted(rows, key=lambda r: (r[qid], -r[score], r[docno]))
    for _, group in itertools.groupby(ordered, key=operator.itemgetter(qid)):
        for rank, row in enumerate(group):
            yield row, rank


def rank_tuples(columns: Sequence[str], rows: Sequence[tuple]) -> tuple[list[str], list[tuple]]:
    """Rank row tuples over *columns*, writing ``rank`` in place or appending it."""
    columns = list(columns)
    if "rank" not in columns:
        columns.append("rank")
    q, s, d, r = (columns.index(c) for c in ("qid", "score", "docno", "rank"))
    return columns, [row[:r] + (rank,) + row[r + 1 :] for row, rank in ranked(rows, q, s, d)]


def rank_rows(rows: Iterable[Mapping]) -> list[dict]:
    """Order row dicts by (qid asc, score desc, docno asc) and write ``rank``."""
    return [{**row, "rank": rank} for row, rank in ranked(list(rows), "qid", "score", "docno")]


def sort_and_rank(rel: Relation) -> Relation:
    """Sort by (qid asc, score desc, docno asc) and write 0-based ranks per qid."""
    present = set(rel.columns)
    needed = {"qid", "docno", "score"}
    if not needed <= present:
        raise MissingColumn(needed - present, needed, present, who="sort_and_rank")
    columns, rows = rank_tuples(rel.columns, rel.rows)
    return Relation(schema_for(columns), tuple(rows))


def join_on_docno(left: Relation, docs) -> Relation:
    """Append a ``text`` column to *left* by docno lookup, preserving row order.

    *docs* is any mapping-like store supporting ``in`` and ``[]`` from docno
    to document text.  An absent docno raises :class:`UnknownDocno`, and a
    looked-up value that is not text raises :class:`DataError`.  An
    existing ``text`` column is overwritten in place.
    """
    present = set(left.columns)
    if "docno" not in present:
        raise MissingColumn({"docno"}, {"docno"}, present, who="join_on_docno")
    columns = list(left.columns)
    if "text" not in columns:
        columns.append("text")
    pad = (None,) * (len(columns) - len(left.columns))
    d, x = columns.index("docno"), columns.index("text")
    rows = []
    for row in left.rows:
        docno = row[d]
        if docno not in docs:
            raise UnknownDocno(docno)
        text = docs[docno]
        if text is not None and not isinstance(text, str):
            raise DataError(f"column 'text' expects text, got {type(text).__name__}")
        row += pad
        rows.append(row[:x] + (text,) + row[x + 1 :])
    return Relation._trusted(columns, rows)


def read_topics(path) -> Relation:
    """Read a UTF-8 TSV topics file (``qid<TAB>query`` per line) as a Q frame."""
    rows = []
    with io.open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if "\t" not in line:
                raise FormatError(f"{path}:{lineno}: expected qid<TAB>query")
            qid, query = line.split("\t", 1)
            rows.append({"qid": qid, "query": query})
    return Relation.from_dicts(rows, ["qid", "query"])


def format_trec_run(rel: Relation, tag: str = "flowrank") -> str:
    """Render a ranked relation in TREC run format.

    One line per row: ``qid Q0 docno rank score tag`` with the 0-based rank
    and the score printed with six decimal places.
    """
    present = set(rel.columns)
    needed = {"qid", "docno", "score", "rank"}
    if not needed <= present:
        raise MissingColumn(needed - present, needed, present, who="format_trec_run")
    q, d, r, s = (rel.schema.index_of(c) for c in ("qid", "docno", "rank", "score"))
    return "".join(f"{row[q]} Q0 {row[d]} {row[r]} {row[s]:.6f} {tag}\n" for row in rel.rows)
