"""Relational data model: column types, frame classification, relations.

A relation is an immutable ordered table flowing between transformers.  Its
column-name set classifies it as a query (Q), document (D), result (R), or
answer (A) frame, possibly extended with extra columns.  Construction
enforces the frame invariants (primary keys, dense 0-based ranks ordered by
non-increasing score), so any relation the framework hands out is valid.

Public construction also checks the type of every cell.  The engine's own
stages build their outputs from cells of already-checked relations plus
values they compute, through :meth:`Relation._trusted`, which skips that
per-cell type pass and the rank check: the engine orders every ranking it
produces once, through :func:`ordered`, and writes its ranks from that
order.
"""

from __future__ import annotations

import collections
import io
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError, FormatError, MissingColumn, UnknownDocno
from .index import Index

# Types of the well-known data-model columns; any other column holds text.
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
    """Classify an iterable of column names by its name set.

    Returns the most specific kind whose required columns are all present
    (precedence R > A > Q > D); extra columns yield an extended kind, and no
    match yields the anonymous extended kind.
    """
    names = set(columns)
    for base, required in FRAME_REQUIREMENTS:
        if required <= names:
            return FrameKind(base, extended=bool(names - required))
    return FrameKind(None, extended=True)


def _check_names(columns: Iterable[str]) -> tuple[str, ...]:
    columns = tuple(columns)
    if "" in columns:
        raise DataError("column name must be non-empty")
    if len(set(columns)) != len(columns):
        dupes = sorted({n for n in columns if columns.count(n) > 1})
        raise DataError(f"duplicate column names: {dupes}")
    return columns


def _check_value(name: str, value, nullable: bool):
    if value is None:
        if not nullable:
            raise DataError(f"column {name!r} is required by its frame kind and may not be null")
        return None
    ctype = KNOWN_COLUMN_TYPES.get(name, "text")
    if ctype == "text":
        if not isinstance(value, str):
            raise DataError(f"column {name!r} expects text, got {type(value).__name__}")
        return value
    if ctype == "float64":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"column {name!r} expects float64, got {type(value).__name__}")
        return float(value)
    if ctype == "int64":
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"column {name!r} expects int64, got {type(value).__name__}")
        return value
    # float-vector
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise DataError(f"column {name!r} expects a float vector, got {type(value).__name__}")
    return tuple(float(v) for v in value)


@dataclass(frozen=True)
class Relation:
    """Immutable ordered rows under uniquely named columns.

    Frame invariants are enforced at construction: unique ``qid`` for Q/A
    frames, unique ``docno`` for D frames, unique ``(qid, docno)`` for R
    frames, and a dense 0-based ``rank`` ordered by non-increasing ``score``
    within each ``qid`` group whenever those columns travel together.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...] = field(default=())

    def __post_init__(self):
        names = _check_names(self.columns)
        object.__setattr__(self, "columns", names)
        kind = classify_frame(names)
        required = _required(kind)
        normalized = []
        for r, row in enumerate(self.rows):
            row = tuple(row)
            if len(row) != len(names):
                raise DataError(f"row {r} has {len(row)} values but there are {len(names)} columns")
            normalized.append(
                tuple(_check_value(name, v, nullable=name not in required) for name, v in zip(names, row))
            )
        object.__setattr__(self, "rows", tuple(normalized))
        self._check_keys(kind)
        if {"qid", "score", "rank"} <= set(names):
            self._check_ranks()

    @classmethod
    def _trusted(cls, columns: Sequence[str], rows: Iterable[tuple]) -> "Relation":
        """Engine-only constructor over row tuples whose cells are known to type-check.

        Cells copied from checked relations keep their column's type, and
        the engine computes only well-typed values, so the per-cell type pass
        is skipped.  Ranks are not checked either: every engine stage either
        writes them from the order of :func:`ordered` (the retrievers by
        position, every other stage through :func:`rank_tuples`), keeping a
        prefix of each qid's ranks at most, or copies them unchanged from a
        checked relation.  A stage may still change the frame kind and so gain
        required columns and a primary key: nulls in required columns and
        keys are checked as in public construction.
        """
        rel = object.__new__(cls)
        object.__setattr__(rel, "columns", _check_names(columns))
        object.__setattr__(rel, "rows", tuple(rows))
        kind = classify_frame(rel.columns)
        for name in _required(kind):
            if None in map(operator.itemgetter(rel.columns.index(name)), rel.rows):
                raise DataError(f"column {name!r} is required by its frame kind and may not be null")
        rel._check_keys(kind)
        return rel

    def _check_keys(self, kind: FrameKind):
        # primary keys bind the exact frame kinds; extensions such as a
        # candidate table {qid, query, docno, text} legitimately repeat qids
        names = set(self.columns)
        if kind == FrameKind("Q") or kind == FrameKind("A"):
            _unique(self.column("qid"), "qid")
        elif kind == FrameKind("D"):
            _unique(self.column("docno"), "docno")
        elif kind.base == "R" and {"qid", "docno"} <= names:
            _unique(list(zip(self.column("qid"), self.column("docno"))), "(qid, docno)")

    def _check_ranks(self):
        scores = self.column("score")
        _check_scores(self.column("qid"), scores)
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
    def kind(self) -> FrameKind:
        return classify_frame(self.columns)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> tuple:
        return tuple(map(operator.itemgetter(self.columns.index(name)), self.rows))

    def to_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    @staticmethod
    def from_dicts(rows: Iterable[Mapping], columns: Iterable[str] | None = None) -> "Relation":
        rows = list(rows)
        if columns is None:
            seen = {k for row in rows for k in row}
            columns = canonical_columns(seen)
        columns = tuple(columns)
        return Relation(columns, tuple(tuple(row.get(c) for c in columns) for row in rows))


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


def _check_scores(qids: Iterable, scores: Sequence) -> None:
    if None in scores or any(map(math.isnan, scores)):
        qid, score = next((q, s) for q, s in zip(qids, scores) if s is None or s != s)
        raise DataError(f"score {score} for qid {qid!r} cannot be ranked")


def ordered(rows: Iterable[tuple], score: int, docno: int, qid: int | None = None) -> list[tuple]:
    """*rows* by the engine's one ranking rule: (qid asc, score desc, docno asc).

    Every ranking the engine produces is ordered here, once.  *qid*,
    *score* and *docno* are positions in each row tuple; without *qid* the
    rows are one ranking.  Two stable sorts keyed in C give the order of
    one sort by ``(qid, -score, docno)``: the row positions by a list of
    ``(-score, docno)`` keys, then the rows by qid.  A null qid or docno,
    or a null or NaN score, raises :class:`DataError` before anything is
    sorted.
    """
    rows = list(rows)
    if None in map(operator.itemgetter(docno), rows) or (
        qid is not None and None in map(operator.itemgetter(qid), rows)
    ):
        raise DataError("a row with a null qid or docno cannot be ranked")
    qids = itertools.repeat(None) if qid is None else map(operator.itemgetter(qid), rows)
    scores = list(map(operator.itemgetter(score), rows))
    _check_scores(qids, scores)
    keys = list(zip(map(operator.neg, scores), map(operator.itemgetter(docno), rows)))
    rows = list(map(rows.__getitem__, sorted(range(len(rows)), key=keys.__getitem__)))
    if qid is not None:
        rows.sort(key=operator.itemgetter(qid))
    return rows


def dense_ranks(rows: Iterable[tuple], qid: int) -> Iterator[int]:
    """0, 1, 2, ... within each qid of *rows*, which are in :func:`ordered` order."""
    # counting ordered rows meets their qids in ascending order
    per_qid = collections.Counter(map(operator.itemgetter(qid), rows)).values()
    return itertools.chain.from_iterable(map(range, per_qid))


def put_column(rows: Iterable[tuple], i: int, values: Iterable) -> list[tuple]:
    """Each row with its cell *i* set to the next of *values*: appended to
    rows of exactly *i* cells, else replaced in place."""
    rows = list(rows)
    if not rows or len(rows[0]) == i:
        return list(map(operator.add, rows, zip(values)))
    # one new tuple per row: through the columns, not by slicing each row
    columns = list(zip(*rows))
    columns[i] = values
    return list(zip(*columns))


def rank_tuples(columns: Sequence[str], rows: Iterable[tuple]) -> tuple[list[str], list[tuple]]:
    """Rank row tuples over *columns*, writing ``rank`` in place or appending it."""
    columns = list(columns)
    if "rank" not in columns:
        columns.append("rank")
    q, s, d, r = (columns.index(c) for c in ("qid", "score", "docno", "rank"))
    rows = ordered(rows, s, d, q)
    return columns, put_column(rows, r, dense_ranks(rows, q))


def sort_and_rank(rel: Relation) -> Relation:
    """Sort by (qid asc, score desc, docno asc) and write 0-based ranks per qid."""
    present = set(rel.columns)
    needed = {"qid", "docno", "score"}
    if not needed <= present:
        raise MissingColumn(needed - present, needed, present, who="sort_and_rank")
    return Relation(*rank_tuples(rel.columns, rel.rows))


def join_on_docno(left: Relation, docs) -> Relation:
    """Append a ``text`` column to *left* by docno lookup, preserving row order.

    *docs* is an :class:`~flowrank.index.Index`, read in one lookup pass,
    or any other mapping-like store supporting ``in`` and ``[]`` from
    docno to document text.  An absent docno raises
    :class:`UnknownDocno`, and a looked-up value that is not text raises
    :class:`DataError`.  An existing ``text`` column is overwritten in
    place.
    """
    present = set(left.columns)
    if "docno" not in present:
        raise MissingColumn({"docno"}, {"docno"}, present, who="join_on_docno")
    columns = list(left.columns)
    if "text" not in columns:
        columns.append("text")
    docnos = list(map(operator.itemgetter(columns.index("docno")), left.rows))
    if isinstance(docs, Index):
        texts = docs.texts(docnos)
    else:
        texts = []
        for docno in docnos:
            if docno not in docs:
                raise UnknownDocno(docno)
            text = docs[docno]
            if text is not None and not isinstance(text, str):
                raise DataError(f"column 'text' expects text, got {type(text).__name__}")
            texts.append(text)
    return Relation._trusted(columns, put_column(left.rows, columns.index("text"), texts))


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
    q, d, r, s = map(rel.columns.index, ("qid", "docno", "rank", "score"))
    return "".join(f"{row[q]} Q0 {row[d]} {row[r]} {row[s]:.6f} {tag}\n" for row in rel.rows)
