"""Relational data model: column types, frame classification, relations.

A relation is an immutable ordered table flowing between transformers.  Its
column-name set classifies it as a query (Q), document (D), result (R), or
answer (A) frame, possibly extended with extra columns.  Construction
enforces the frame invariants (primary keys, dense 0-based ranks ordered by
non-increasing score), so any relation the framework hands out is valid.

Public construction also checks the type of every cell.  The engine's own
stages build their outputs from cells of already-checked relations plus
values they compute, through :meth:`Relation._trusted`, which skips that
per-cell type pass and the rank check: every ranking is ordered once, by
:func:`ordered`, and ranked from that order (rows that exist by
:func:`rank_tuples`).  A stage that also builds its keys unique and
non-null, as the retrievers and fusion do, skips the frame check as well,
and its output is marked ranked.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from .errors import DataError, FormatError, MissingColumn, UnknownDocno
from .index import Index, text_lines

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

# The columns of a ranking (an R frame), and those a relation needs to be ranked.
RANKING = frozenset({"qid", "docno", "score", "rank"})
RANKABLE = RANKING - {"rank"}

# Minimal column sets per frame kind; match precedence is R > A > Q > D.
FRAME_REQUIREMENTS = (
    ("R", RANKING),
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


def _check_value(name: str, value):
    if value is None:
        return None
    ctype = KNOWN_COLUMN_TYPES.get(name, "text")
    if ctype == "text":
        if not isinstance(value, str):
            raise DataError(f"column {name!r} expects text, got {type(value).__name__}")
        return value
    if ctype == "float64":
        return _float(name, value, "float64")
    if ctype == "int64":
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"column {name!r} expects int64, got {type(value).__name__}")
        return value
    # float-vector
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise DataError(f"column {name!r} expects a float vector, got {type(value).__name__}")
    return tuple(_float(name, v, "numbers in a float vector") for v in value)


def _float(name: str, value, expected: str) -> float:
    """*value*, an int or a float but not a bool, as a float in column *name*."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"column {name!r} expects {expected}, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise DataError(f"column {name!r} holds an integer too large for float64") from None


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

    # set by _trusted(..., ranked=True); not a field, so not in ==, repr or any rendering
    _ranked = False

    def __post_init__(self):
        names = _check_names(self.columns)
        object.__setattr__(self, "columns", names)
        normalized = []
        for r, row in enumerate(self.rows):
            try:
                row = tuple(row)
            except TypeError:
                raise DataError(f"row {r} is not a sequence of values, got {type(row).__name__}") from None
            if len(row) != len(names):
                raise DataError(f"row {r} has {len(row)} values but there are {len(names)} columns")
            normalized.append(tuple(map(_check_value, names, row)))
        object.__setattr__(self, "rows", tuple(normalized))
        self._check_frame()
        if {"qid", "score", "rank"} <= set(names):
            self._check_ranks()

    @classmethod
    def _trusted(cls, columns: Sequence[str], rows: Iterable[tuple], ranked: bool = False) -> "Relation":
        """Engine-only constructor over row tuples whose cells are known to type-check.

        Cells copied from checked relations keep their column's type, and
        the engine computes only well-typed values, so the per-cell type pass
        is skipped.  Ranks are not checked either: every engine stage either
        writes them from the order of :func:`ordered` (the retrievers by
        position, every other stage through :func:`rank_tuples`), keeping a
        prefix of each qid's ranks at most, or copies them unchanged from a
        checked relation.  A stage may still change the frame kind and so
        gain required columns and a primary key: :meth:`_check_frame` checks
        them as public construction does.

        With *ranked* the caller vouches for that too: its rows are an R
        frame in :func:`ordered` order, ranked by position within each qid,
        whose ``(qid, docno)`` keys it built unique and non-null (as dict
        keys, from non-null values).  The frame check is then skipped, and
        the relation is marked ranked, so fusion takes its rows in the order
        they come.
        """
        rel = object.__new__(cls)
        object.__setattr__(rel, "columns", _check_names(columns))
        object.__setattr__(rel, "rows", tuple(rows))
        if ranked:
            object.__setattr__(rel, "_ranked", True)
        else:
            rel._check_frame()
        return rel

    def _check_frame(self):
        """No nulls in the columns the frame kind requires, then its primary key."""
        kind = self.kind
        required = _required(kind)
        for i, name in enumerate(self.columns):
            if name in required and None in map(operator.itemgetter(i), self.rows):
                raise DataError(f"column {name!r} is required by its frame kind and may not be null")
        # primary keys bind the exact frame kinds; extensions such as a
        # candidate table {qid, query, docno, text} legitimately repeat qids
        if kind == FrameKind("Q") or kind == FrameKind("A"):
            _unique(self.column("qid"), "qid")
        elif kind == FrameKind("D"):
            _unique(self.column("docno"), "docno")
        elif kind.base == "R":
            _unique_pairs(self.rows, self.columns.index("qid"), self.columns.index("docno"))

    def _check_ranks(self):
        scores = self.column("score")
        _check_scores(self.column("qid"), scores)
        groups: dict[str, list[tuple[int, float]]] = {}
        for qid, score, rank in zip(self.column("qid"), scores, self.column("rank")):
            groups.setdefault(qid, []).append((rank, score))
        for qid, pairs in groups.items():
            # compared as sets, not sorted, so that a null rank fails here too
            by_rank = dict(pairs)
            if by_rank.keys() != set(range(len(pairs))):
                raise DataError(f"ranks for qid {qid!r} are not exactly 0..{len(pairs) - 1}")
            scores = list(map(by_rank.__getitem__, range(len(pairs))))
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
    if len(set(values)) != len(values):
        _first_repeat(values, label)


def _first_repeat(values: Iterable, label: str):
    """Raise :class:`DataError` for the first of *values* seen before."""
    seen = set()
    for v in values:
        if v in seen:
            raise DataError(f"duplicate {label} value {v!r} violates the frame primary key")
        seen.add(v)


def _unique_pairs(rows: Sequence[tuple], qid: int, docno: int):
    """Check that no two *rows* share a ``(qid, docno)`` key, for rows in any order.

    Each run of equal qids adds its docnos to that qid's set, so no pair is
    built: the key is unique exactly when the sets hold as many docnos as
    there are rows.  Only otherwise are the pairs walked, in row order, to
    name the first repeat.
    """
    by_qid, by_docno = operator.itemgetter(qid), operator.itemgetter(docno)
    docnos = collections.defaultdict(set)
    for q, run in itertools.groupby(rows, by_qid):
        docnos[q].update(map(by_docno, run))
    if sum(map(len, docnos.values())) != len(rows):
        _first_repeat(zip(map(by_qid, rows), map(by_docno, rows)), "(qid, docno)")


def _check_scores(qids: Iterable, scores: Sequence) -> None:
    if None in scores or (math.isnan(sum(scores)) and any(map(math.isnan, scores))):  # a NaN makes the sum NaN
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
    """Rank row tuples over *columns*, writing ``rank`` in place or appending it:
    the engine's one ranking of rows that already exist."""
    columns = list(columns)
    if "rank" not in columns:
        columns.append("rank")
    q, s, d, r = (columns.index(c) for c in ("qid", "score", "docno", "rank"))
    rows = ordered(rows, s, d, q)
    # counting ordered rows meets their qids in ascending order
    per_qid = collections.Counter(map(operator.itemgetter(q), rows)).values()
    return columns, put_column(rows, r, itertools.chain.from_iterable(map(range, per_qid)))


def _need(rel: Relation, needed: AbstractSet[str], who: str) -> None:
    """Raise :class:`MissingColumn` unless *rel* has every column in *needed*."""
    present = set(rel.columns)
    if not needed <= present:
        raise MissingColumn(needed - present, needed, present, who=who)


def sort_and_rank(rel: Relation) -> Relation:
    """Sort by (qid asc, score desc, docno asc) and write 0-based ranks per qid."""
    _need(rel, RANKABLE, "sort_and_rank")
    return Relation._trusted(*rank_tuples(rel.columns, rel.rows))


def join_on_docno(left: Relation, docs) -> Relation:
    """Append a ``text`` column to *left* by docno lookup, preserving row order.

    *docs* is an :class:`~flowrank.index.Index`, read in one lookup pass,
    or any other mapping-like store supporting ``in`` and ``[]`` from
    docno to document text.  An absent docno raises
    :class:`UnknownDocno`, and a looked-up value that is not text raises
    :class:`DataError`.  An existing ``text`` column is overwritten in
    place.
    """
    _need(left, {"docno"}, "join_on_docno")
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
    """Read a UTF-8 TSV topics file (``qid<TAB>query`` per line) as a Q frame.

    A file that cannot be read, or holds a byte that is not UTF-8, raises
    :class:`FormatError` (see :func:`~flowrank.index.text_lines`), as does
    a qid on a second line.
    """
    queries = {}
    for lineno, line in text_lines(path):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        if "\t" not in line:
            raise FormatError(f"{path}:{lineno}: expected qid<TAB>query")
        qid, query = line.split("\t", 1)
        if qid in queries:
            raise FormatError(f"{path}:{lineno}: duplicate qid {qid!r}")
        queries[qid] = query
    return Relation(("qid", "query"), tuple(queries.items()))


_WHITESPACE = re.compile(r"\s")


def trec_lines(rel: Relation, tag: str = "flowrank") -> Iterator[str]:
    """The TREC run lines of a ranked relation, formatted as they are read.

    One line per row: ``qid Q0 docno rank score tag`` with the 0-based rank
    and the score printed with six decimal places.  A missing column raises
    :class:`MissingColumn` here, before any line is formatted, and a qid,
    docno or tag that is empty or holds whitespace, which would not make a
    line of six fields, raises :class:`DataError` naming it.
    """
    _need(rel, RANKING, "format_trec_run")
    for name, values in (("qid", rel.column("qid")), ("docno", rel.column("docno")), ("tag", [tag])):
        # "" vanishes from the join, so it is looked for on its own
        if "" in values or _WHITESPACE.search("".join(values)):
            bad = next(v for v in values if not v or _WHITESPACE.search(v))
            raise DataError(f"{name} {bad!r} cannot be written to a TREC run: it is empty or holds whitespace")
    q, d, r, s = map(rel.columns.index, ("qid", "docno", "rank", "score"))
    return (f"{row[q]} Q0 {row[d]} {row[r]} {row[s]:.6f} {tag}\n" for row in rel.rows)


def format_trec_run(rel: Relation, tag: str = "flowrank") -> str:
    """Render a ranked relation in TREC run format: :func:`trec_lines` joined."""
    return "".join(trec_lines(rel, tag))
