"""The scoring and tokenizing kernels against their plain reference loops.

Each oracle below is the straightforward per-item implementation the kernel
replaces.  Results must be equal exactly, and scores bit for bit (compared
as ``float.hex``, which tells ``-0.0`` from ``0.0``), not within a tolerance.
"""

import math
import random
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrank.algebra import execute
from flowrank.dsl import elaborate, parse
from flowrank.errors import DataError
from flowrank.frames import Relation, rank_tuples, sort_and_rank
from flowrank.index import _TOKEN, build_index, count_adjacent, load_index, tokenize
from flowrank import transformers
from flowrank.transformers import Bm25Params, _length_norms, lexical_rescorer, registry, weighted_bm25_retriever


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
# BM25 top-k (wbm25: _score_groups' cut, ranked by rank_tuples)
# ---------------------------------------------------------------------------


def retrieve(index, params, groups):
    """The (docno, score) pairs wbm25 returns for query q1 of *groups*.

    Each weight is written with ``repr``, which ``float`` reads back exactly.
    """
    query = " ".join(f"#{kind}({weight!r}) {' '.join(tokens)}" for kind, weight, tokens in groups)
    out = weighted_bm25_retriever(index, params).transform(Relation(("qid", "query"), [("q1", query)]))
    return [row[2:4] for row in out.rows]


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
        got = retrieve(index, params, groups)
        assert bits(got) == bits(oracle_score_groups(index, params, groups))


def test_ties_at_the_cut_break_by_docno(tmp_path):
    corpus = [("d3", "a b"), ("d1", "a b"), ("d4", "a"), ("d2", "a b"), ("d5", "c")]
    build_index(corpus, tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    groups = [("w", 1.0, ["a", "b"])]
    params = Bm25Params(num_results=2)
    got = retrieve(index, params, groups)
    assert [docno for docno, _ in got] == ["d1", "d2"]
    assert bits(got) == bits(oracle_score_groups(index, params, groups))


def test_negative_zero_weight_scores_positive_zero(tmp_path):
    build_index([("d1", "a"), ("d2", "a b")], tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    got = retrieve(index, Bm25Params(), [("w", -0.0, ["a"])])
    assert bits(got) == [("d1", "0x0.0p+0"), ("d2", "0x0.0p+0")]


def test_index_without_tokens_matches_nothing(tmp_path):
    build_index([("d1", "!"), ("d2", "")], tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    assert index.avg_doc_len == 0.0
    assert retrieve(index, Bm25Params(), [("w", 1.0, ["a"])]) == []


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
# the retrievers' impact tables (transformers._table), one per (index, k1, b)
# ---------------------------------------------------------------------------


def test_bm25_impact_is_written_once():
    """The benchmark's wrong-scores check mutates this one factor in the source."""
    assert Path(transformers.__file__).read_text(encoding="utf-8").count("(k1 + 1.0)") == 1


def n_postings(index):
    return sum(map(index.df, index.terms()))


def stored_impacts(index):
    """The impacts an index's tables hold, over all its tables."""
    return sum(len(impacts) for _, stored in index._bm25_tables.values() for impacts in stored.values())


def random_groups(rng):
    """#w groups over VOCAB and zz (in no document), weights 0, negative or fractional, and #ow windows."""
    weights = [1.0, 0.0, -0.0, -1.0, 0.5, 0.9, 2.5, 1e-320, rng.uniform(-5.0, 5.0)]
    groups = [("w", rng.choice(weights), rng.choices(VOCAB + ["zz"], k=rng.randint(1, 4)))]
    if rng.random() < 0.3:
        groups.append(("ow", rng.choice(weights), rng.choices(VOCAB, k=2)))
    return groups


def test_stored_impacts_score_as_impacts_computed_per_call(tmp_path):
    """One handle stores what fits, another (no room) computes every call;
    first calls, which fill the table, and later calls, which read it."""
    rng = random.Random(13)
    admitted = refused = 0
    for trial in range(60):
        corpus = [(f"d{i:02d}", " ".join(rng.choices(VOCAB, k=rng.randint(0, 8)))) for i in range(rng.randint(1, 30))]
        build_index(corpus, tmp_path / f"ix{trial}")
        stored, per_call = load_index(tmp_path / f"ix{trial}"), load_index(tmp_path / f"ix{trial}")
        per_call._bm25_room = 0
        params = Bm25Params(
            k1=rng.choice([0.0, 0.9, 1.2, 2.0]), b=rng.choice([0.0, 0.75, 1.0]), num_results=rng.randint(1, 12)
        )
        queries = [random_groups(rng) for _ in range(3)]
        for groups in queries + queries:
            got = bits(retrieve(stored, params, groups))
            assert got == bits(retrieve(per_call, params, groups))
            assert got == bits(oracle_score_groups(stored, params, groups))
        table = stored._bm25_tables[(params.k1, params.b)][1]
        assert stored_impacts(stored) <= n_postings(stored) // 4
        assert per_call._bm25_tables[(params.k1, params.b)][1] == {}
        terms = {term for groups in queries for kind, _, tokens in groups if kind == "w" for term in tokens}
        admitted += len(table)
        refused += sum(term not in table and stored.df(term) > 0 for term in terms)
    assert admitted > 50 and refused > 50


def test_one_table_per_index_k1_and_b(tmp_path):
    # 68 postings: room for 17 impacts, both tables' 8
    corpus = [("d1", "a b"), ("d2", "a c c"), ("d3", "c"), ("d4", "b c a")] + [(f"f{i}", f"f{i}") for i in range(60)]
    build_index(corpus, tmp_path / "ix")
    index, other = load_index(tmp_path / "ix"), load_index(tmp_path / "ix")
    queries = Relation(("qid", "query"), [("q1", "a b c")])
    registry(index)["bm25"]().transform(queries)
    registry(index)["wbm25"](num_results=2).transform(queries)  # num_results is not part of the key
    assert list(index._bm25_tables) == [(1.2, 0.75)]
    shared = index._bm25_tables[(1.2, 0.75)]
    registry(index)["wbm25"](k1=0.9).transform(queries)
    assert list(index._bm25_tables) == [(1.2, 0.75), (0.9, 0.75)]
    assert index._bm25_tables[(1.2, 0.75)] is shared
    own = index._bm25_tables[(0.9, 0.75)]
    assert own[0] != shared[0]  # the length norms hold k1
    assert set(own[1]) == set(shared[1]) == {"a", "b", "c"}
    assert all(own[1][term] != shared[1][term] for term in "abc")  # the impacts hold k1 too
    assert other._bm25_tables == {}  # another handle on the directory has its own tables


def test_tables_stay_within_a_quarter_of_the_postings(tmp_path):
    """Every term of a 400-term index, under two parameter sets: terms are
    admitted first come until the room is spent, the rest scored per call."""
    rng = random.Random(5)
    words = [f"w{i}" for i in range(400)]
    corpus = [(f"d{i}", " ".join(rng.choices(words, weights=range(400, 0, -1), k=30))) for i in range(200)]
    build_index(corpus, tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    quarter = n_postings(index) // 4
    for params in (Bm25Params(), Bm25Params(k1=2.0, b=0.3)):
        stage = weighted_bm25_retriever(index, params)
        for term in index.terms():
            stage.transform(Relation(("qid", "query"), [("q", f"#w(0.5) {term}")]))
    assert stored_impacts(index) + index._bm25_room == quarter
    # a refused term did not fit in the room left then, which never grows
    refused = [term for term in index.terms() for _, stored in index._bm25_tables.values() if term not in stored]
    assert refused and all(index.df(term) > index._bm25_room for term in refused)


def test_threads_filling_one_fresh_table_reply_alike(tmp_path):
    rng = random.Random(17)
    words = [f"w{i}" for i in range(60)]
    corpus = [(f"d{i}", " ".join(rng.choices(words, weights=range(60, 0, -1), k=12))) for i in range(300)]
    build_index(corpus, tmp_path / "ix")
    index, per_call = load_index(tmp_path / "ix"), load_index(tmp_path / "ix")
    per_call._bm25_room = 0
    queries = [Relation(("qid", "query"), [("q1", " ".join(rng.choices(words, k=3)))]) for _ in range(30)]
    expr = "rrf(bm25, sdm >> wbm25)"
    expected = [repr(execute(elaborate(parse(expr), registry(per_call)), q).rows) for q in queries]
    node = elaborate(parse(expr), registry(index))
    start = threading.Barrier(8)

    def replies(_):
        start.wait()
        return [repr(execute(node, q).rows) for q in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave inside a fill, not only between ops
    try:
        with ThreadPoolExecutor(8) as pool:
            assert list(pool.map(replies, range(8))) == [expected] * 8
    finally:
        sys.setswitchinterval(interval)
    assert len(index._bm25_tables) == 1
    assert stored_impacts(index) + index._bm25_room == n_postings(index) // 4  # each stored term paid once


def test_overflowing_k1_names_its_qid_when_the_table_holds_the_nan(tmp_path):
    docs = [("d1", "fox fox fox fox fox a b c d"), ("d2", "a"), ("d3", "b"), ("d4", "c"), ("d5", "d")]
    build_index(docs, tmp_path / "ix")
    index = load_index(tmp_path / "ix")
    stage = registry(index)["bm25"](k1=1.7e308, b=1.0)
    for _ in range(2):  # the first call stores fox's NaN impact, the second reads it
        with pytest.raises(DataError, match="score nan for qid 'q1' cannot be ranked"):
            stage.transform(Relation(("qid", "query"), [("q1", "fox")]))
        assert math.isnan(index._bm25_tables[(1.7e308, 1.0)][1]["fox"][0])


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
# the ranking rule (frames.rank_tuples, for the retrievers as for every stage)
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


@pytest.mark.parametrize("name", ["bm25", "wbm25"])
@pytest.mark.parametrize("num_results", [1, 2, 3])
def test_retriever_batch_ranks_each_qid_as_it_would_alone(tmp_path, name, num_results):
    """Qids out of order, each with a tie at its cut: the batch gives each
    qid the rows it gets alone, ranked 0-based and dense."""
    # documents of one text tie; "a" ranks d1 and d7 first, then d2, d5 and d9
    corpus = [("d5", "a b"), ("d2", "a b"), ("d9", "a b"), ("d1", "a"), ("d7", "a")]
    corpus += [("d3", "b c"), ("d8", "b c"), ("d4", "c"), ("d6", "c")]
    build_index(corpus, tmp_path / "ix")
    stage = registry(load_index(tmp_path / "ix"))[name](num_results=num_results)
    queries = [("q3", "a"), ("q10", "c"), ("q1", "b c"), ("q2", "a b")]
    if name == "wbm25":
        queries.append(("q0", "#w(0.5) a #ow(2.0) a b"))
    out = stage.transform(Relation(("qid", "query"), queries))
    assert list(dict.fromkeys(out.column("qid"))) == sorted(qid for qid, _ in queries)
    for qid, query in queries:
        alone = stage.transform(Relation(("qid", "query"), [(qid, query)]))
        assert repr([row for row in out.rows if row[0] == qid]) == repr(list(alone.rows))
        assert list(alone.column("rank")) == list(range(num_results))
    alone = stage.transform(Relation(("qid", "query"), [("q3", "a")]))
    assert list(alone.column("docno")) == ["d1", "d7", "d2"][:num_results]
    Relation(out.columns, out.rows)  # public construction checks the ranks as well
