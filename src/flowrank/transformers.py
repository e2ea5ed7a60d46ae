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
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter, neg
from typing import Callable

from .errors import DataError, EmptyQuery, MalformedWeightedQuery, MissingColumn
from .frames import Relation, join_on_docno, rank_tuples
from .index import Index, adjacent_counts, tokenize


@dataclass(frozen=True)
class TransformerSpec:
    """Declared I/O contract: accepted input column sets and their outputs.

    ``accepted_inputs`` lists alternative minimal configurations in priority
    order (the first satisfied set wins).  ``outputs`` maps each accepted set
    to the columns produced for it.  When ``passthrough`` is set, input
    columns beyond the matched set are preserved in the output.
    """

    accepted_inputs: tuple[frozenset[str], ...]
    outputs: tuple[tuple[frozenset[str], frozenset[str]], ...]
    passthrough: bool = False

    def __post_init__(self):
        if not self.accepted_inputs:
            raise ValueError("a transformer must accept at least one input configuration")
        declared = {a for a, _ in self.outputs}
        if declared != set(self.accepted_inputs):
            raise ValueError("outputs must be declared for exactly the accepted input sets")

    def match(self, columns) -> frozenset[str] | None:
        """First accepted set contained in *columns*, or None."""
        columns = set(columns)
        for accepted in self.accepted_inputs:
            if accepted <= columns:
                return accepted
        return None

    def closest(self, columns) -> frozenset[str]:
        """Accepted set missing the fewest of *columns*; ties go to the first in sorted order."""
        columns = set(columns)
        return min(self.accepted_inputs, key=lambda a: (len(a - columns), sorted(a)))

    def output_for(self, matched: frozenset[str]) -> frozenset[str]:
        for accepted, produced in self.outputs:
            if accepted == matched:
                return produced
        raise KeyError(matched)


def spec(accepts, produces, passthrough: bool = False) -> TransformerSpec:
    """Spec with a single accepted input set."""
    a = frozenset(accepts)
    return TransformerSpec((a,), ((a, frozenset(produces)),), passthrough=passthrough)


@dataclass(eq=False)
class Transformer:
    """A named unit mapping one relation to another.

    ``fn`` is the raw transform procedure; call :meth:`transform` instead,
    which checks the input against the spec first.  ``index`` is the index
    handle ``fn`` reads, if any: transformers over different handles are
    never equal, though it is not one of the displayed ``attributes``.
    """

    name: str
    description: str
    attributes: tuple[tuple[str, object], ...]
    spec: TransformerSpec | None
    fn: Callable[[Relation], Relation] = field(repr=False)
    index: Index | None = field(default=None, repr=False)

    def transform(self, rel: Relation) -> Relation:
        if self.spec is not None:
            matched = self.spec.match(rel.columns)
            if matched is None:
                required = self.spec.closest(rel.columns)
                raise MissingColumn(
                    required - set(rel.columns), required, set(rel.columns), who=self.name
                )
        return self.fn(rel)

    def __call__(self, rel: Relation) -> Relation:
        return self.transform(rel)

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
# BM25 scoring engine, shared by the plain and weighted retrievers.  Both
# it and the re-scorer compute a term's part of a document's score as
#   idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
#   with idf = log(1.0 + (n_docs - df + 0.5) / (df + 0.5)),
# in this order of float operations, so their scores are reproducible bit
# for bit.
# --------------------------------------------------------------------------


def _score_groups(index: Index, params: Bm25Params, groups) -> list[tuple[str, float]]:
    """Score every matching document; returns the top (docno, score) pairs.

    Term at a time, one list comprehension per term or window: its idf, and
    the length norm of each distinct document length, are computed once per
    call.  A document matched by one term or window keeps its weighted part
    as a bare float; only documents matched more than once get a list of
    parts, summed by ``fsum`` in query order.  The cut for the top
    ``num_results`` is the k-th largest of the bare scores; only documents
    at or above it, ties included, are sorted as (score, docno) pairs.
    """
    plists = []  # (weight, doc_ids, tfs) per term or window
    for kind, weight, tokens in groups:
        if kind == "w":
            plists.extend((weight, *index.columns(term)[:2]) for term in tokens)
        else:
            t1, t2 = tokens
            plists.append((weight, *adjacent_counts(index.columns(t1), index.columns(t2))))
    n_docs, avgdl, doc_lens = index.n_docs, index.avg_doc_len, index.doc_lens()
    k1, b = params.k1, params.b
    # avgdl is 0 only when no document has a token, and then nothing matches
    norms = {dl: k1 * (1.0 - b + b * dl / avgdl) for dl in set(doc_lens)} if avgdl else {}
    # a document's one part, or the last of its parts while shared holds them all
    scores: dict[int, float] = {}
    shared: dict[int, list[float]] = {}  # documents matched more than once
    for weight, doc_ids, tfs in plists:
        df = len(doc_ids)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        parts = dict(
            zip(doc_ids, [weight * (idf * tf * (k1 + 1.0) / (tf + norms[doc_lens[d]])) for d, tf in zip(doc_ids, tfs)])
        )
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
    doc_ids, values = scores.keys(), scores.values()
    k = params.num_results
    if len(scores) > k:
        # every score at or above the k-th largest, so that ties at the cut all survive
        keep = list(map(sorted(values)[-k].__le__, values))
        doc_ids, values = compress(doc_ids, keep), compress(values, keep)
    docnos = index.docnos()
    top = sorted(zip(map(neg, values), map(docnos.__getitem__, doc_ids)))
    # fsum([x]) is x, except that -0.0 becomes 0.0: so does 0.0 - -x
    return [(docno, 0.0 - s) for s, docno in top[:k]]


def _retrieval_fn(index: Index, params: Bm25Params, weighted: bool):
    def fn(rel: Relation) -> Relation:
        _require_values(rel, "wbm25" if weighted else "bm25", "query")
        # retrievers re-derive state: one retrieval per distinct qid, taking
        # the first query seen for it, regardless of how many rows carry it
        q, t = map(rel.columns.index, ("qid", "query"))
        queries: dict[str, str] = {}
        for row in rel.rows:
            queries.setdefault(row[q], row[t])
        rows = []
        for qid, query in queries.items():
            if weighted and is_weighted_query(query):
                groups = parse_weighted_query(query)
            else:
                groups = [("w", 1.0, tokenize(query))]
            rows.extend((qid, query, docno, score) for docno, score in _score_groups(index, params, groups))
        return Relation._trusted(*rank_tuples(_RETRIEVER_OUT[:4], rows))

    return fn


_RETRIEVER_OUT = ("qid", "query", "docno", "score", "rank")


def bm25_retriever(index: Index, params: Bm25Params = Bm25Params()) -> Transformer:
    """Lexical BM25 retrieval over a loaded index; consumes Q frames."""
    return Transformer(
        name="bm25",
        description="BM25 lexical retrieval over the inverted index",
        attributes=(("k1", params.k1), ("b", params.b), ("num_results", params.num_results)),
        spec=spec({"qid", "query"}, _RETRIEVER_OUT),
        fn=_retrieval_fn(index, params, weighted=False),
        index=index,
    )


def weighted_bm25_retriever(index: Index, params: Bm25Params = Bm25Params()) -> Transformer:
    """BM25 retrieval that also understands weighted #w/#ow query strings."""
    return Transformer(
        name="wbm25",
        description="BM25 retrieval accepting weighted unigram and ordered-window query groups",
        attributes=(("k1", params.k1), ("b", params.b), ("num_results", params.num_results)),
        spec=spec({"qid", "query"}, _RETRIEVER_OUT),
        fn=_retrieval_fn(index, params, weighted=True),
        index=index,
    )


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


def lexical_rescorer(params: Bm25Params = Bm25Params()) -> Transformer:
    """Re-score (query, text) candidates per qid; a pure text scorer.

    Statistics (document frequencies, average length, collection size) come
    from the candidate set of each qid alone, so no index handle is needed:
    the transformer sees exactly what a neural re-ranker would see.  Each
    qid keeps its ``num_results`` best-ranked candidates.
    """

    def fn(rel: Relation) -> Relation:
        _require_values(rel, "rescore", "query", "text")
        columns = list(rel.columns)
        columns += [extra for extra in ("score", "rank") if extra not in columns]
        pad = (None,) * (len(columns) - len(rel.columns))
        q, t, x, s = (columns.index(c) for c in ("qid", "query", "text", "score"))
        k1, b = params.k1, params.b
        groups: dict[str, list[tuple]] = {}
        for row in rel.rows:
            groups.setdefault(row[q], []).append(row)
        rows = []
        for cands in groups.values():
            query_tokens: dict[str, list[str]] = {}
            for query in map(itemgetter(t), cands):
                if query not in query_tokens:
                    query_tokens[query] = tokenize(query)
            terms = list(set(chain.from_iterable(query_tokens.values())))
            # one candidate's tokens at a time: keep only its length and
            # the count of each distinct query term in it
            lens, counts = [], []
            for text in map(itemgetter(x), cands):
                toks = tokenize(text)
                lens.append(len(toks))
                counts.append(list(map(toks.count, terms)))
            n = len(cands)
            avgdl = sum(lens) / n
            # each distinct query term's part of every candidate's score,
            # 0.0 where it does not occur: all parts are positive, so the
            # zeros leave every fsum bit for bit as without them
            parts: dict[str, list[float]] = {}
            for term, tfs in zip(terms, zip(*counts)):
                df = n - tfs.count(0)
                idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                parts[term] = [
                    idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl)) if tf else 0.0
                    for tf, dl in zip(tfs, lens)
                ]
            zeros = (0.0,) * n  # the score of a query without tokens
            scores = {
                query: list(map(math.fsum, zip(zeros, *map(parts.__getitem__, toks))))
                for query, toks in query_tokens.items()
            }
            for i, cand in enumerate(cands):
                row = cand + pad
                rows.append(row[:s] + (scores[cand[t]][i],) + row[s + 1 :])
        columns, rows = rank_tuples(columns, rows)
        r = columns.index("rank")
        return Relation._trusted(columns, [row for row in rows if row[r] < params.num_results])

    return Transformer(
        name="rescore",
        description="re-rank candidates by BM25 over per-query candidate-set statistics",
        attributes=(("k1", params.k1), ("b", params.b), ("num_results", params.num_results)),
        spec=spec({"qid", "query", "docno", "text"}, {"qid", "query", "docno", "text", "score", "rank"}, passthrough=True),
        fn=fn,
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
        "rescore": lambda **kw: lexical_rescorer(Bm25Params(**kw)),
        "answer": extractive_answerer,
    }
