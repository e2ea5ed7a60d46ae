"""Transformers: named relation-to-relation units with declared I/O specs.

Each transformer declares the column sets it accepts and the columns it
produces for each accepted set, so pipelines can be checked and described
without running anything.  The shipped transformers cover lexical retrieval
(plain and weighted BM25), adjacent-pair query rewriting, document text
loading, candidate-set re-scoring, and extractive answer generation; the
latter two are deterministic stand-ins with the frame signatures of neural
re-rankers and reader models.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import add, is_, itemgetter, mul
from typing import Callable, Iterable

from .errors import DataError, EmptyQuery, MalformedWeightedQuery, MissingColumn
from .frames import Relation, _check_scores, join_on_docno, put_column, rank_tuples
from .index import Index, adjacent_counts, tokenize


@dataclass(frozen=True)
class TransformerSpec:
    """Declared I/O contract: one table of accepted inputs and their outputs.

    ``outputs`` pairs each alternative minimal input configuration with the
    columns produced for it, in priority order (the first satisfied set
    wins).  When ``passthrough`` is set, input columns beyond the matched
    set are preserved in the output.
    """

    outputs: tuple[tuple[frozenset[str], frozenset[str]], ...]
    passthrough: bool = False

    def __post_init__(self):
        if not self.outputs:
            raise ValueError("a transformer must accept at least one input configuration")
        if len(set(self.accepted_inputs)) != len(self.outputs):
            raise ValueError("an input configuration is declared more than once")

    @property
    def accepted_inputs(self) -> tuple[frozenset[str], ...]:
        return tuple(accepts for accepts, _ in self.outputs)

    def outputs_for(self, columns) -> frozenset[str] | None:
        """Columns produced from *columns* by the first accepted set they
        contain, or None when they contain none."""
        columns = frozenset(columns)
        for accepts, produces in self.outputs:
            if accepts <= columns:
                return produces | (columns - accepts) if self.passthrough else produces
        return None

    def closest(self, columns) -> frozenset[str]:
        """Accepted set missing the fewest of *columns*; ties go to the first in sorted order."""
        columns = set(columns)
        return min(self.accepted_inputs, key=lambda a: (len(a - columns), sorted(a)))


def spec(accepts, produces, passthrough: bool = False) -> TransformerSpec:
    """Spec with a single accepted input set."""
    return TransformerSpec(((frozenset(accepts), frozenset(produces)),), passthrough=passthrough)


@dataclass(eq=False)
class Transformer:
    """A named unit mapping one relation to another.

    ``spec`` declares its columns and must be a :class:`TransformerSpec`.
    ``fn`` is the raw transform procedure; call :meth:`transform` instead,
    which checks the columns in and out against the spec.  ``index`` is the
    index handle ``fn`` reads, if any: transformers over different handles
    are never equal, though it is not one of the displayed ``attributes``.
    """

    name: str
    description: str
    attributes: tuple[tuple[str, object], ...]
    spec: TransformerSpec
    fn: Callable[[Relation], Relation] = field(repr=False)
    index: Index | None = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.spec, TransformerSpec):
            raise TypeError(f"transformer {self.name!r} needs a TransformerSpec, got {type(self.spec).__name__}")

    def transform(self, rel: Relation) -> Relation:
        declared = self.spec.outputs_for(rel.columns)
        if declared is None:
            required = self.spec.closest(rel.columns)
            raise MissingColumn(required - set(rel.columns), required, set(rel.columns), who=self.name)
        out = self.fn(rel)
        if frozenset(out.columns) != declared:
            raise DataError(f"{self.name} produced {sorted(out.columns)} but declares {sorted(declared)}")
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transformer):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes and self.index is other.index

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, id(self.index)))

    def __repr__(self) -> str:
        return f"Transformer({self.name!r})"


def _require_values(rel: Relation, who: str, *names: str) -> None:
    """Raise DataError if a column that stage *who* reads holds a null.

    Frame kinds allow nulls in non-key columns such as ``query`` and
    ``text``, so validation passes them; the stage that reads one cannot.
    """
    for name in names:
        if None in map(itemgetter(rel.columns.index(name)), rel.rows):
            raise DataError(f"{who}: column {name!r} holds a null")


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75
    num_results: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.k1) and self.k1 >= 0):
            raise ValueError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if not (isinstance(self.num_results, int) and self.num_results >= 1):
            raise ValueError(f"num_results must be an integer >= 1, got {self.num_results}")


@dataclass(frozen=True)
class SdmParams:
    lambda_t: float = 0.9
    lambda_o: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.lambda_t) and math.isfinite(self.lambda_o)):
            raise ValueError("weights must be finite")
        if self.lambda_t < 0 or self.lambda_o < 0:
            raise ValueError("weights must be non-negative")
        if abs(self.lambda_t + self.lambda_o - 1.0) > 1e-9:
            raise ValueError("lambda_t + lambda_o must equal 1")


# --------------------------------------------------------------------------
# Weighted query grammar:
#   wquery := group+
#   group  := "#w(" FLOAT ")" token+ | "#ow(" FLOAT ")" token token
# Groups separated by single spaces; tokens are tokenizer outputs.
# --------------------------------------------------------------------------


def is_weighted_query(query: str) -> bool:
    return query.lstrip().startswith("#")


def format_weighted_query(tokens: list[str], params: SdmParams) -> str:
    parts = ["#w(%.6f) %s" % (params.lambda_t, " ".join(tokens))]
    for a, b in zip(tokens, tokens[1:]):
        parts.append("#ow(%.6f) %s %s" % (params.lambda_o, a, b))
    return " ".join(parts)


def parse_weighted_query(query: str) -> list[tuple[str, float, list[str]]]:
    """Parse the weighted grammar into (kind, weight, tokens) groups."""
    groups: list[tuple[str, float, list[str]]] = []
    i, n = 0, len(query)
    while i < n:
        if query.startswith("#w(", i):
            kind, j = "w", i + 3
        elif query.startswith("#ow(", i):
            kind, j = "ow", i + 4
        else:
            raise MalformedWeightedQuery(i, "expected '#w(' or '#ow('")
        close = query.find(")", j)
        if close < 0:
            raise MalformedWeightedQuery(j, "unclosed weight group")
        try:
            weight = float(query[j:close])
        except ValueError:
            raise MalformedWeightedQuery(j, f"bad weight {query[j:close]!r}") from None
        if not math.isfinite(weight):
            raise MalformedWeightedQuery(j, f"weight {query[j:close]!r} is not finite")
        i = close + 1
        tokens: list[str] = []
        while i < n:
            if query[i] != " ":
                raise MalformedWeightedQuery(i, "expected a single space between items")
            if query.startswith("#", i + 1):
                i += 1
                break
            j = i + 1
            while j < n and query[j] != " ":
                j += 1
            token = query[i + 1 : j]
            if tokenize(token) != [token]:
                raise MalformedWeightedQuery(i + 1, f"{token!r} is not a valid token")
            tokens.append(token)
            i = j
        if kind == "w" and not tokens:
            raise MalformedWeightedQuery(i, "unigram group has no tokens")
        if kind == "ow" and len(tokens) != 2:
            raise MalformedWeightedQuery(i, "ordered-window group needs exactly two tokens")
        groups.append((kind, weight, tokens))
    if not groups:
        raise MalformedWeightedQuery(0, "empty weighted query")
    return groups


# --------------------------------------------------------------------------
# BM25 scoring engine of the plain and weighted retrievers, whose collection
# is the index, and of the re-scorer, whose collection is one qid's
# candidate set.  A term's or window's part of a document's score is
#   weight * impact, with
#   impact = idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
#   and idf = log(1 + (n_docs - df + 0.5) / (df + 0.5)),
# each written once below, so every stage's scores agree bit for bit.  The
# impact depends only on the term, the document and the collection, so the
# retrievers store it per index (_table) and the weight multiplies it after.
# --------------------------------------------------------------------------


def _length_norms(doc_lens: list[int], avgdl: float, params: Bm25Params) -> list[float]:
    """BM25's length norm of each document of *doc_lens*, in its order.

    It is computed once per distinct length, and documents of one length
    share that float.
    """
    k1, b = params.k1, params.b
    if not avgdl:  # no document has a token, and then nothing matches
        return []
    by_length = {dl: k1 * (1.0 - b + b * dl / avgdl) for dl in set(doc_lens)}
    return list(map(by_length.__getitem__, doc_lens))


def _impacts(n_docs: int, k1: float, norms: list[float], doc_ids, tfs) -> list[float]:
    """The impact of each posting of one term or window, its part of the
    document's score at weight 1, in *doc_ids* order; *n_docs* is the size
    of the collection and *norms* its :func:`_length_norms` by document id."""
    df = len(doc_ids)
    idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    return [idf * tf * (k1 + 1.0) / (tf + norms[d]) for d, tf in zip(doc_ids, tfs)]


def _bm25(plists) -> dict[int, float]:
    """Each matched document's score by its id, term at a time over *plists*,
    one ``(weight, doc_ids, impacts)`` per term or window (:func:`_impacts`).
    A part is ``weight * impact``.  A document matched once keeps its part as
    a bare float; only those matched more than once get a list of parts,
    summed by ``fsum``."""
    # a document's one part, or the last of its parts while shared holds them all
    scores: dict[int, float] = {}
    shared: dict[int, list[float]] = {}  # documents matched more than once
    for weight, doc_ids, impacts in plists:
        # 1.0 * x is x bit for bit, -0.0 and NaN included
        parts = dict(zip(doc_ids, impacts if weight == 1.0 else map(mul, repeat(weight), impacts)))
        for d in parts.keys() & scores.keys():
            if d in shared:
                shared[d].append(parts[d])
            else:
                shared[d] = [scores[d], parts[d]]
        scores.update(parts)
    try:
        scores.update(zip(shared, map(math.fsum, shared.values())))
    except (OverflowError, ValueError) as exc:
        raise DataError(f"scores do not sum to a finite number ({exc})") from None
    return scores


# The retrievers' table per (index, k1, b): the index's length norms, and the
# impacts of terms already scored, by term, each an array("d") in doc_ids
# order.  All tables of an index together store at most one impact per four
# of its postings (8 bytes per impact: 2 bytes per posting); a term that no
# longer fits is scored per call, as windows and rescore's terms always are.
_Table = tuple[list[float], dict[str, array]]


def _table(index: Index, params: Bm25Params) -> _Table:
    """The index's table under ``(params.k1, params.b)``, created at its
    first use; every retriever over the index with those parameters shares it."""
    key = (params.k1, params.b)
    table = index._bm25_tables.get(key)
    if table is None:
        with index._bm25_lock:
            table = index._bm25_tables.get(key)
            if table is None:
                if index._bm25_room is None:  # a quarter of the postings, counted once
                    index._bm25_room = sum(map(index.df, index.terms())) // 4
                table = (_length_norms(index.doc_lens(), index.avg_doc_len, params), {})
                index._bm25_tables[key] = table
    return table


def _term_impacts(index: Index, k1: float, table: _Table, term: str):
    """*term*'s doc ids and impacts: stored in *table*, or computed, and then
    stored if the index's room still holds them."""
    norms, stored = table
    doc_ids, tfs, _ = index.columns(term)
    impacts = stored.get(term)
    if impacts is None:
        impacts = _impacts(index.n_docs, k1, norms, doc_ids, tfs)
        if 0 < len(doc_ids) <= index._bm25_room:
            row = array("d", impacts)
            # server threads share the table: the room is spent under the
            # lock, and a term is published by one assignment, so two threads
            # that score a new term at once only repeat the work
            with index._bm25_lock:
                if term not in stored and len(row) <= index._bm25_room:
                    index._bm25_room -= len(row)
                    stored[term] = row
    return doc_ids, impacts


def _plists(index: Index, k1: float, table: _Table, groups):
    """``(weight, doc_ids, impacts)`` per term or window of *groups*, each
    made as :func:`_bm25` reaches it, so one term's impacts at a time are
    held unless *table* stores them."""
    for kind, weight, tokens in groups:
        if kind == "w":
            for term in tokens:
                yield (weight, *_term_impacts(index, k1, table, term))
        else:
            t1, t2 = tokens
            doc_ids, counts = adjacent_counts(index.columns(t1), index.columns(t2))
            yield weight, doc_ids, _impacts(index.n_docs, k1, table[0], doc_ids, counts)


def _score_groups(index: Index, params: Bm25Params, qid: str, groups) -> Iterable[tuple[str, float]]:
    """The ``(docno, score)`` pairs of the index's best ``num_results``
    documents for *groups*, by :func:`_bm25` over its postings, and of every
    document tied with the last of them: best first, in no order among equal
    scores.  Unigrams read their impacts from the index's :func:`_table`.

    The matched ids are sorted once by score and cut; only
    :func:`~flowrank.frames.rank_tuples` puts the cut in ranking order.
    Every matched score is checked before the sort, so that none is cut
    unseen: a NaN raises the ranking rule's :class:`DataError` for *qid*,
    and else an infinite score raises one of its own (only a weight or a
    ``k1`` near ``1e308`` makes either)."""
    scores = _bm25(_plists(index, params.k1, _table(index, params), groups))
    if not math.isfinite(sum(scores.values())):  # a NaN or an infinity makes the sum one
        _check_scores(repeat(qid), scores.values())
        if not all(map(math.isfinite, scores.values())):
            raise DataError("a weighted part of a score is not finite")
    by_score = sorted(scores, key=scores.__getitem__, reverse=True)
    k = params.num_results
    if len(by_score) > k:
        # every score at or above the k-th largest, so that ties at the cut all survive
        by_score = by_score[: bisect_right(by_score, -scores[by_score[k - 1]], k, key=lambda d: -scores[d])]
    # fsum([x]) is x, except that -0.0 becomes 0.0: so does 0.0 + x
    return zip(map(index.docnos().__getitem__, by_score), map(0.0.__add__, map(scores.__getitem__, by_score)))


_RETRIEVER_OUT = ("qid", "query", "docno", "score", "rank")


def _retriever(name: str, description: str, index: Index, params: Bm25Params, weighted: bool) -> Transformer:
    """A BM25 retriever over *index*; a *weighted* one also parses #w/#ow queries."""

    def fn(rel: Relation) -> Relation:
        _require_values(rel, name, "query")
        # retrievers re-derive state: one retrieval per distinct qid, taking
        # the first query seen for it, regardless of how many rows carry it
        q, t = map(rel.columns.index, ("qid", "query"))
        queries: dict[str, str] = {}
        for row in rel.rows:
            queries.setdefault(row[q], row[t])
        rows = []
        for qid, query in sorted(queries.items()):  # the ranking rule's qid order
            plain = not (weighted and is_weighted_query(query))
            groups = [("w", 1.0, tokenize(query))] if plain else parse_weighted_query(query)
            cut = map(add, repeat((qid, query)), _score_groups(index, params, qid, groups))
            # ranked one qid at a time: ranking every qid's cut in one call
            # holds all their rows twice at once, and their sort keys too
            rows += rank_tuples(_RETRIEVER_OUT[:-1], cut)[1][: params.num_results]
        # keys: distinct qids, each with the docnos of one dict of doc ids
        return Relation._trusted(_RETRIEVER_OUT, rows, ranked=True)

    return Transformer(
        name=name,
        description=description,
        attributes=(("k1", params.k1), ("b", params.b), ("num_results", params.num_results)),
        spec=spec({"qid", "query"}, _RETRIEVER_OUT),
        fn=fn,
        index=index,
    )


def bm25_retriever(index: Index, params: Bm25Params = Bm25Params()) -> Transformer:
    """Lexical BM25 retrieval over a loaded index; consumes Q frames."""
    return _retriever("bm25", "BM25 lexical retrieval over the inverted index", index, params, weighted=False)


def weighted_bm25_retriever(index: Index, params: Bm25Params = Bm25Params()) -> Transformer:
    """BM25 retrieval that also understands weighted #w/#ow query strings."""
    description = "BM25 retrieval accepting weighted unigram and ordered-window query groups"
    return _retriever("wbm25", description, index, params, weighted=True)


def sdm_rewriter(params: SdmParams = SdmParams()) -> Transformer:
    """Rewrite queries into weighted unigram plus adjacent-pair groups.

    Single-token queries pass through unchanged; empty queries are an error.
    """

    def fn(rel: Relation) -> Relation:
        _require_values(rel, "sdm", "query")
        q, t = map(rel.columns.index, ("qid", "query"))
        rows = []
        for row in rel.rows:
            tokens = tokenize(row[t])
            if not tokens:
                raise EmptyQuery(row[q])
            if len(tokens) > 1:
                row = row[:t] + (format_weighted_query(tokens, params),) + row[t + 1 :]
            rows.append(row)
        return Relation._trusted(rel.columns, rows)

    return Transformer(
        name="sdm",
        description="sequential-dependence query rewriting (unigrams plus adjacent ordered pairs)",
        attributes=(("lambda_t", params.lambda_t), ("lambda_o", params.lambda_o)),
        spec=spec({"qid", "query"}, {"qid", "query"}, passthrough=True),
        fn=fn,
    )


def text_loader(index: Index) -> Transformer:
    """Attach stored document text to rows by docno lookup."""
    return Transformer(
        name="text_loader",
        description="load stored document text from the index by docno",
        attributes=(("index", str(index.path)),),
        spec=spec({"docno"}, {"docno", "text"}, passthrough=True),
        fn=lambda rel: join_on_docno(rel, index),
        index=index,
    )


def lexical_rescorer(params: Bm25Params = Bm25Params(), index: Index | None = None) -> Transformer:
    """Re-score (query, text) candidates per qid; a text scorer.

    Statistics (document frequencies, average length, collection size) come
    from the candidate set of each qid alone: the transformer sees exactly
    what a neural re-ranker would see.  Scores are the retrievers' (:func:`_bm25`,
    with the candidate set as the collection); :func:`~flowrank.frames.rank_tuples`
    ranks every candidate, and each qid keeps its ``num_results`` best.

    With an *index*, a candidate whose ``text`` is the very string object
    that index stored for its docno (``is``, not ``==``: text the index's
    ``text_loader`` attached) takes its length and term counts from the
    index's document lengths and postings instead of tokenizing the text.
    Any other candidate is tokenized.  Both give the same counts, so the
    scores are the same bit for bit.
    """

    def fn(rel: Relation) -> Relation:
        _require_values(rel, "rescore", "query", "text")
        columns = list(rel.columns)
        if "score" not in columns:
            columns.append("score")
        q, t, d, x, s = map(columns.index, ("qid", "query", "docno", "text", "score"))
        groups: dict[str, list[tuple]] = {}
        for row in rel.rows:
            groups.setdefault(row[q], []).append(row)
        scores = []  # each candidate's, in the order of the groups
        for cands in groups.values():
            queries = list(map(itemgetter(t), cands))
            tokens = {query: tokenize(query) for query in dict.fromkeys(queries)}
            terms = list(set(chain.from_iterable(tokens.values())))
            n = len(cands)
            texts = list(map(itemgetter(x), cands))
            ids = [None] * n if index is None else index.stored_ids(map(itemgetter(d), cands), texts)
            # each candidate's length and one tf column per term: from the
            # index where it stored the text, else tokenized (one candidate
            # at a time, keeping its length and the count of each term)
            if ids.count(None) < n:
                doc_lens = index.doc_lens()
                lens = [0 if i is None else doc_lens[i] for i in ids]
                tf_columns = [list(map(dict(zip(*index.columns(term)[:2])).get, ids, repeat(0))) for term in terms]
            else:
                lens, tf_columns = [0] * n, [[0] * n for _ in terms]
            for j in compress(range(n), map(is_, ids, repeat(None))):
                toks = tokenize(texts[j])
                lens[j] = len(toks)
                for tfs, tf in zip(tf_columns, map(toks.count, terms)):
                    tfs[j] = tf
            norms = _length_norms(lens, sum(lens) / n, params)
            # each term's postings over the candidate set: the positions where tf > 0, and their impacts
            plists = {}
            for term, tfs in zip(terms, tf_columns):
                where = list(compress(range(n), tfs))
                plists[term] = (1.0, where, _impacts(n, params.k1, norms, where, filter(None, tfs)))
            sums = {query: _bm25(map(plists.__getitem__, toks)) for query, toks in tokens.items()}
            # each candidate's score under its own query, 0.0 where none of its terms occurs
            scores += map(dict.get, map(sums.__getitem__, queries), range(n), repeat(0.0))
        if math.inf in scores:  # only a k1 near 1e308 makes one
            raise DataError("a weighted part of a score is not finite")
        # every candidate is ranked, also below the cut, and in a stable sort
        columns, rows = rank_tuples(columns, put_column(chain.from_iterable(groups.values()), s, scores))
        r, k = columns.index("rank"), params.num_results
        return Relation._trusted(columns, [row for row in rows if row[r] < k])

    return Transformer(
        name="rescore",
        description="re-rank candidates by BM25 over per-query candidate-set statistics",
        attributes=(("k1", params.k1), ("b", params.b), ("num_results", params.num_results)),
        spec=spec({"qid", "query", "docno", "text"}, {"qid", "query", "docno", "text", "score", "rank"}, passthrough=True),
        fn=fn,
        index=index,
    )


def first_sentence(text: str) -> str:
    """Text up to and including the first '.', '?' or '!'; whole text if none."""
    cut = len(text)
    for mark in ".?!":
        pos = text.find(mark)
        if pos != -1:
            cut = min(cut, pos)
    return text[: cut + 1] if cut < len(text) else text


def extractive_answerer() -> Transformer:
    """Answer each query with the first sentence of its top-ranked document."""

    def fn(rel: Relation) -> Relation:
        _require_values(rel, "answer", "text")
        q, r, x = map(rel.columns.index, ("qid", "rank", "text"))
        best: dict[str, str] = {}
        for row in rel.rows:
            if row[r] == 0:
                best[row[q]] = first_sentence(row[x])
        return Relation._trusted(("qid", "qanswer"), [(qid, best[qid]) for qid in sorted(best)])

    return Transformer(
        name="answer",
        description="extract an answer as the first sentence of the top-ranked document",
        attributes=(),
        spec=spec({"qid", "query", "docno", "score", "rank", "text"}, {"qid", "qanswer"}),
        fn=fn,
    )


def registry(index: Index) -> dict:
    """Name-to-factory map binding the built-in transformers to an index."""
    return {
        "bm25": lambda **kw: bm25_retriever(index, Bm25Params(**kw)),
        "wbm25": lambda **kw: weighted_bm25_retriever(index, Bm25Params(**kw)),
        "sdm": lambda **kw: sdm_rewriter(SdmParams(**kw)),
        "text_loader": lambda **kw: text_loader(index, **kw),
        "rescore": lambda **kw: lexical_rescorer(Bm25Params(**kw), index),
        "answer": extractive_answerer,
    }
