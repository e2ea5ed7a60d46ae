"""The scoring and tokenizing kernels against their plain reference loops.

Each oracle below is the straightforward per-item implementation the kernel
replaces.  Results must be equal exactly, and scores bit for bit (compared
as ``float.hex``, which tells ``-0.0`` from ``0.0``), not within a tolerance.
"""

import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrank.algebra import execute
from flowrank.dsl import elaborate, parse
from flowrank.frames import Relation, rank_tuples, sort_and_rank
from flowrank.index import _TOKEN, build_index, count_adjacent, load_index, tokenize
from flowrank import transformers
from flowrank.transformers import Bm25Params, _length_norms, _score_groups, lexical_rescorer, registry


def oracle_tokenize(text):
    return _TOKEN.findall(text.lower())


def bm25_term(tf, df, dl, n_docs, avgdl, k1, b):
    idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    return idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def bits(pairs):
    return [(key, float.hex(score)) for key, score in pairs]


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_matches_regex_for_every_code_point():
    """Each code point alone and inside a word, in one text per code point.

    Every such text takes the same path as the code point's text alone
    would: it is ASCII exactly when the code point lowers to ASCII.
    """
    texts = [f"{ch} a{ch}b" for ch in map(chr, range(0x110000))]
    bad = [text for text in texts if tokenize(text) != oracle_tokenize(text)]
    assert bad == []


def test_tokenize_letters_whose_lowercase_crosses_ascii():
    # the Kelvin sign lowers to ASCII k; dotted capital I lowers to i and
    # U+0307, a combining mark, which is no alphanumeric
    assert tokenize("\u212a9 Ab_c") == ["k9", "ab", "c"]
    assert tokenize("\u0130x") == oracle_tokenize("\u0130x") == ["i", "x"]


@settings(max_examples=300, deadline=None, database=None)
@given(st.text(alphabet=st.one_of(st.characters(max_codepoint=127), st.characters())))
def test_tokenize_matches_regex_on_mixed_text(text):
    assert tokenize(text) == oracle_tokenize(text)


# ---------------------------------------------------------------------------
# BM25 top-k (_score_groups)
# ---------------------------------------------------------------------------


def oracle_score_groups(index, params, groups):
    """Per posting: _bm25_term times the weight, fsum per document, full sort."""
    n_docs, avgdl, doc_lens = index.n_docs, index.avg_doc_len, index.doc_lens()
    contribs = {}
    for kind, weight, tokens in groups:
        if kind == "w":
            plists = [[(d, tf) for d, tf, _ in index.postings(term)] for term in tokens]
        else:
            second = {d: pos for d, _, pos in index.postings(tokens[1])}
            counts = [(d, count_adjacent(pos, second[d])) for d, _, pos in index.postings(tokens[0]) if d in second]
            plists = [[(d, c) for d, c in counts if c]]
        for plist in plists:
            for doc_id, tf in plist:
                part = weight * bm25_term(tf, len(plist), doc_lens[doc_id], n_docs, avgdl, params.k1, params.b)
                contribs.setdefault(doc_id, []).append(part)
    docnos = index.docnos()
    top = sorted((-math.fsum(parts), docnos[doc_id]) for doc_id, parts in contribs.items())
    return [(docno, -neg) for neg, docno in top[: params.num_results]]


VOCAB = ["a", "b", "c", "d", "e"]
WEIGHTS = st.one_of(
    st.sampled_from([1.0, 0.9, 0.1, 0.0, -0.0, -1.0, 1e-320, -1e-320, 1e300]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
TERMS = st.sampled_from(VOCAB + ["zz"])  # zz occurs in no document
GROUPS = st.lists(
    st.one_of(
        st.tuples(st.just("w"), WEIGHTS, st.lists(TERMS, min_size=1, max_size=4)),
        st.tuples(st.just("ow"), WEIGHTS, st.lists(TERMS, min_size=2, max_size=2)),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def corpora(draw):
    """Few distinct texts, repeated: documents with equal scores tie."""
    texts = draw(st.lists(st.lists(st.sampled_from(VOCAB), max_size=6).map(" ".join), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=10))
    return [(f"d{i:02d}", texts[j]) for i, j in enumerate(picks)]


@settings(max_examples=200, deadline=None, database=None)
@given(
    corpus=corpora(),
    groups=GROUPS,
    k1=st.sampled_from([0.0, 0.9, 1.2, 2.0]),
    b=st.sampled_from([0.0, 0.75, 1.0]),
    num_results=st.integers(1, 12),
)
def test_score_groups_matches_per_posting_oracle(corpus, groups, k1, b, num_results):
    params = Bm25Params(k1=k1, b=b, num_results=num_results)
    with tempfile.TemporaryDirectory() as tmp:
        build_index(corpus, Path(tmp) / "ix")
        index = load_index(Path(tmp) / "ix")
        got = _score_groups(index, params, groups, _length_norms(index.doc_lens(), index.avg_doc_len, params), "q1")
        assert bits(got) == bits(oracle_score_groups(index, params, groups))


def test_ties_at_the_cut_break_by_docno(tmp_path):
    corpus = [("d3", "a b"), ("d1", "a b"), ("d4", "a"), ("d2", "a b"), ("d5", "c")]
    build_index(corpus, tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    groups = [("w", 1.0, ["a", "b"])]
    params = Bm25Params(num_results=2)
    got = _score_groups(index, params, groups, _length_norms(index.doc_lens(), index.avg_doc_len, params), "q1")
    assert [docno for docno, _ in got] == ["d1", "d2"]
    assert bits(got) == bits(oracle_score_groups(index, params, groups))


def test_negative_zero_weight_scores_positive_zero(tmp_path):
    build_index([("d1", "a"), ("d2", "a b")], tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    norms = _length_norms(index.doc_lens(), index.avg_doc_len, Bm25Params())
    got = _score_groups(index, Bm25Params(), [("w", -0.0, ["a"])], norms, "q1")
    assert bits(got) == [("d1", "0x0.0p+0"), ("d2", "0x0.0p+0")]


def test_index_without_tokens_matches_nothing(tmp_path):
    build_index([("d1", "!"), ("d2", "")], tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    assert index.avg_doc_len == 0.0
    norms = _length_norms(index.doc_lens(), index.avg_doc_len, Bm25Params())
    assert _score_groups(index, Bm25Params(), [("w", 1.0, ["a"])], norms, "q1") == []


def test_length_norms_are_indexed_by_doc_id_and_shared_per_length(tmp_path):
    build_index([("d1", "a b"), ("d2", "a c c"), ("d3", "c"), ("d4", "b c")], tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    params = Bm25Params(k1=1.5, b=0.5)
    norms = _length_norms(index.doc_lens(), index.avg_doc_len, params)
    avgdl = index.avg_doc_len
    assert norms == [params.k1 * (1.0 - params.b + params.b * dl / avgdl) for dl in index.doc_lens()]
    assert norms[0] is norms[3]  # d1 and d4 both hold two tokens
    assert len(set(map(id, norms))) == len(set(index.doc_lens())) == 3


def test_retriever_builds_its_length_norms_once(tmp_path, monkeypatch):
    build_index([("d1", "a b"), ("d2", "a c c"), ("d3", "c")], tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    node = elaborate(parse("bm25"), registry(index))
    built = []
    monkeypatch.setattr(transformers, "_length_norms", lambda *args: built.append(args) or _length_norms(*args))
    queries = Relation.from_dicts([{"qid": "q1", "query": "a"}, {"qid": "q2", "query": "c"}], ["qid", "query"])
    first, second = execute(node, queries), execute(node, queries)
    assert len(built) == 1
    assert first == second
    oracle = oracle_score_groups(index, Bm25Params(), [("w", 1.0, ["c"])])
    assert bits([row[2:4] for row in second.rows if row[0] == "q2"]) == bits(oracle)


# ---------------------------------------------------------------------------
# rescore
# ---------------------------------------------------------------------------


def oracle_rescore(rel, params):
    """The per-candidate loop: list.count per query term, df by a scan."""
    columns = list(rel.columns)
    columns += [extra for extra in ("score", "rank") if extra not in columns]
    pad = (None,) * (len(columns) - len(rel.columns))
    q, t, x, s = (columns.index(c) for c in ("qid", "query", "text", "score"))
    groups = {}
    for row in rel.rows:
        groups.setdefault(row[q], []).append(row)
    rows = []
    for cands in groups.values():
        doc_tokens = [oracle_tokenize(c[x]) for c in cands]
        n = len(cands)
        avgdl = sum(map(len, doc_tokens)) / n
        for cand, toks in zip(cands, doc_tokens):
            contribs = []
            for term in oracle_tokenize(cand[t]):
                tf = toks.count(term)
                if tf:
                    df = sum(term in other for other in doc_tokens)
                    contribs.append(bm25_term(tf, df, len(toks), n, avgdl, params.k1, params.b))
            row = cand + pad
            rows.append(row[:s] + (math.fsum(contribs),) + row[s + 1 :])
    columns, rows = rank_tuples(columns, rows)
    r = columns.index("rank")
    return Relation._trusted(columns, [row for row in rows if row[r] < params.num_results])


WORDS = ["fox", "Fox", "dog", "the", "café", "Kelvin", "kelvin", "x_y", "42", "", "!"]


def random_candidates(rng):
    columns = ["qid", "query", "docno", "text"] + rng.choice([[], ["score", "rank"], ["tag"]])
    rows = []
    for qid in [f"q{i}" for i in range(rng.randint(1, 3))]:
        # rows of one qid may carry different queries, with repeated and no terms
        queries = [" ".join(rng.choices(WORDS, k=rng.randint(0, 4))) for _ in range(rng.randint(1, 3))]
        for i, docno in enumerate(rng.sample(range(40), rng.randint(1, 8))):
            row = {
                "qid": qid,
                "query": rng.choice(queries),
                "docno": f"d{docno}",
                "text": " ".join(rng.choices(WORDS, k=rng.randint(0, 7))),
                "tag": "t",
            }
            rows.append(row)
    if "rank" in columns:
        for qid in {row["qid"] for row in rows}:
            own = [row for row in rows if row["qid"] == qid]
            for rank, row in enumerate(own):
                row["score"], row["rank"] = float(len(own) - rank), rank
    return Relation.from_dicts(rows, columns)


def test_rescore_matches_per_candidate_loop():
    rng = random.Random(7)
    for _ in range(300):
        rel = random_candidates(rng)
        params = Bm25Params(
            k1=rng.choice([0.0, 1.2, 2.0]), b=rng.choice([0.0, 0.75, 1.0]), num_results=rng.choice([1, 3, 1000])
        )
        got, expected = lexical_rescorer(params).transform(rel), oracle_rescore(rel, params)
        assert got == expected
        s = got.columns.index("score")
        assert [float.hex(row[s]) for row in got.rows] == [float.hex(row[s]) for row in expected.rows]


def test_rescore_holds_one_candidates_tokens_at_a_time():
    """2,000 candidates of 100 tokens each: about 14 MB if every token list lived at once."""
    rng = random.Random(3)
    words = [f"word{i}" for i in range(500)]
    rows = [("q", "word1 word2 word3", f"d{i}", " ".join(rng.choices(words, k=100))) for i in range(2000)]
    rel = Relation._trusted(("qid", "query", "docno", "text"), rows)
    rescore = lexical_rescorer()
    tracemalloc.start()
    try:
        out = rescore.transform(rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 1000  # num_results
    assert peak < 3_000_000


# ---------------------------------------------------------------------------
# rescore bound to the index its text came from
# ---------------------------------------------------------------------------

INDEX_WORDS = ["fox", "Fox!", "dog", "the", "café", "Kelvin", "kelvin", "x_y", "42", "lazy"]


@pytest.fixture(scope="module")
def word_index(tmp_path_factory):
    """Sixty documents over INDEX_WORDS, some sharing their text, some empty."""
    rng = random.Random(11)
    corpus = []
    for i in range(60):
        if i and rng.random() < 0.1:
            text = corpus[rng.randrange(i)][1]
        else:
            text = " ".join(rng.choices(INDEX_WORDS, k=rng.randint(0, 12)))
        corpus.append((f"d{i:02d}", text))
    out = tmp_path_factory.mktemp("ix") / "words"
    build_index(corpus, out)
    return load_index(out)


def retext(rel, index, rng):
    """*rel* with some texts replaced by an equal copy or by other text.

    Returns the relation and how many of its texts are not the string
    object *index* stored for their docno.
    """
    d, x = rel.columns.index("docno"), rel.columns.index("text")
    rows = []
    for row in rel.rows:
        roll = rng.random()
        if roll < 0.2:
            row = row[:x] + (row[x].encode().decode(),) + row[x + 1 :]
        elif roll < 0.3:
            row = row[:x] + (" ".join(rng.choices(INDEX_WORDS, k=rng.randint(0, 6))),) + row[x + 1 :]
        rows.append(row)
    foreign = sum(row[x] is not index.text(row[d]) for row in rows)
    return Relation(rel.columns, rows), foreign


def test_index_bound_rescore_matches_unbound_on_figure1_candidates(word_index, tokenized):
    """Bit for bit, while only text that the index did not store is tokenized."""
    candidates = elaborate(parse("rrf(bm25, sdm >> wbm25) >> text_loader"), registry(word_index))
    rng = random.Random(5)
    fast = 0
    for _ in range(80):
        queries = [
            {"qid": f"q{i}", "query": " ".join(rng.choices(INDEX_WORDS, k=rng.randint(1, 4)))}
            for i in range(rng.randint(1, 3))
        ]
        rel, foreign = retext(execute(candidates, Relation.from_dicts(queries, ["qid", "query"])), word_index, rng)
        params = Bm25Params(
            k1=rng.choice([0.0, 1.2, 2.0]), b=rng.choice([0.0, 0.75, 1.0]), num_results=rng.choice([1, 3, 1000])
        )
        del tokenized[:]
        bound = lexical_rescorer(params, word_index).transform(rel)
        # one tokenize per qid's query, one per foreign text
        assert len(tokenized) == len({row[0] for row in rel.rows}) + foreign
        fast += len(rel) - foreign
        unbound = lexical_rescorer(params).transform(rel)
        assert bound == unbound
        s = bound.columns.index("score")
        assert [float.hex(row[s]) for row in bound.rows] == [float.hex(row[s]) for row in unbound.rows]
    assert fast > 500


# ---------------------------------------------------------------------------
# the ranking rule (frames.ordered under rank_tuples and the retrievers)
# ---------------------------------------------------------------------------

RANK_SCORES = [0.0, -0.0, 1.0, 1.0, 2.5, -2.5, math.inf, -math.inf, 1e-320]


@st.composite
def rankable_rows(draw):
    """(qid, docno, score) rows over 1-3 qids, scores drawn with duplicates, in any order."""
    qids = draw(st.lists(st.sampled_from(["q1", "q2", "q10"]), min_size=1, max_size=3, unique=True))
    rows = []
    for qid in qids:
        docnos = draw(st.lists(st.sampled_from([f"d{i}" for i in range(12)]), max_size=8, unique=True))
        rows += [(qid, docno, draw(st.sampled_from(RANK_SCORES))) for docno in docnos]
    order = draw(st.sampled_from(["random", "by score", "sorted", "reversed"]))
    if order in ("random", "by score"):
        rows = draw(st.permutations(rows))
    if order == "by score":  # qids and tied docnos out of order
        rows.sort(key=lambda r: -r[2])
    elif order != "random":
        rows.sort(key=lambda r: (r[0], -r[2], r[1]), reverse=order == "reversed")
    return rows


def oracle_rank(rows):
    """One sort by (qid, -score, docno), then dense ranks per qid."""
    ranked, rank = [], {}
    for qid, docno, score in sorted(rows, key=lambda r: (r[0], -r[2], r[1])):
        ranked.append((qid, docno, score, rank.setdefault(qid, 0)))
        rank[qid] += 1
    return ranked


def rank_bits(rows):
    return [(qid, docno, float.hex(score), rank) for qid, docno, score, rank in rows]


@settings(max_examples=300, deadline=None, database=None)
@given(rankable_rows())
def test_rank_tuples_follows_the_ranking_rule(rows):
    columns, got = rank_tuples(("qid", "docno", "score"), rows)
    assert columns == ["qid", "docno", "score", "rank"]
    assert rank_bits(got) == rank_bits(oracle_rank(rows))


def test_retrievers_rank_qids_arriving_out_of_order(word_index):
    """Rows of q10, q2 and q1 come out as sort_and_rank would order and rank them."""
    queries = [("q10", "fox dog"), ("q2", "the lazy fox"), ("q1", "kelvin")]
    rel = Relation.from_dicts([{"qid": q, "query": t} for q, t in queries], ["qid", "query"])
    for name, query_rel in (("bm25", rel), ("wbm25", registry(word_index)["sdm"]().transform(rel))):
        out = registry(word_index)[name]().transform(query_rel)
        assert [qid for qid in dict.fromkeys(out.column("qid"))] == ["q1", "q10", "q2"]
        assert repr(out.rows) == repr(sort_and_rank(out).rows)
