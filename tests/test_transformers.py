import math

import pytest

from flowrank.algebra import Leaf, execute, rr_fusion, then
from flowrank.errors import DataError, EmptyQuery, MalformedWeightedQuery, MissingColumn, UnknownDocno
from flowrank.frames import Relation
from flowrank.index import build_index, load_index
from flowrank.transformers import (
    Bm25Params,
    SdmParams,
    Transformer,
    bm25_retriever,
    extractive_answerer,
    first_sentence,
    lexical_rescorer,
    parse_weighted_query,
    registry,
    sdm_rewriter,
    spec,
    text_loader,
    weighted_bm25_retriever,
)

from conftest import TOY5


def rel(rows, columns):
    return Relation.from_dicts(rows, columns)


def qframe(*pairs):
    return rel([{"qid": q, "query": t} for q, t in pairs], ["qid", "query"])


# ---------------------------------------------------------------------------
# Independent oracle: BM25 computed directly from the raw texts, sharing no
# code with the index or the retrievers.
# ---------------------------------------------------------------------------


def oracle_bm25_scores(corpus, query, k1=1.2, b=0.75):
    docs = {d: t.lower().split() for d, t in corpus}
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n

    def df(term):
        return sum(1 for toks in docs.values() if term in toks)

    scores = {}
    for docno, toks in docs.items():
        s = 0.0
        for term in query.lower().split():
            tf = toks.count(term)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n - df(term) + 0.5) / (df(term) + 0.5))
            s += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(toks) / avgdl))
        if s > 0:
            scores[docno] = s
    return scores


class TestBm25Retriever:
    def test_declared_io(self, toy_index):
        t = bm25_retriever(toy_index)
        assert list(t.spec.accepted_inputs) == [frozenset({"qid", "query"})]
        assert t.spec.outputs_for({"qid", "query"}) == frozenset(
            {"qid", "query", "docno", "rank", "score"}
        )

    def test_scores_match_oracle(self, toy_index):
        t = bm25_retriever(toy_index)
        out = t.transform(qframe(("q1", "quick fox")))
        expected = oracle_bm25_scores(TOY5, "quick fox")
        got = {r["docno"]: r["score"] for r in out.to_dicts()}
        assert set(got) == set(expected)
        for docno, score in expected.items():
            assert got[docno] == pytest.approx(score, abs=1e-9)
        # frozen oracle values, computed once by hand from the formula
        assert got["d3"] == pytest.approx(1.8693232139943672, abs=1e-12)
        assert got["d1"] == pytest.approx(1.384652153443076, abs=1e-12)
        assert got["d5"] == pytest.approx(0.43578440484770453, abs=1e-12)

    def test_unmatched_query_yields_no_rows(self, toy_index):
        out = bm25_retriever(toy_index).transform(qframe(("q1", "zzz")))
        assert len(out) == 0
        assert out.columns == ("qid", "query", "docno", "score", "rank")

    def test_scores_strictly_positive_and_only_matching_docs(self, toy_index):
        out = bm25_retriever(toy_index).transform(qframe(("q1", "barks")))
        assert [r["docno"] for r in out.to_dicts()] == ["d4"]
        assert all(r["score"] > 0 for r in out.to_dicts())

    def test_b_zero_removes_length_normalization(self, tmp_path):
        from flowrank.index import build_index, load_index

        corpus = [("a", "fox den"), ("b", "fox " + " ".join(f"pad{i}" for i in range(30)))]
        build_index(corpus, tmp_path / "ix")
        ix = load_index(tmp_path / "ix")
        out = bm25_retriever(ix, Bm25Params(b=0.0)).transform(qframe(("q1", "fox")))
        scores = {r["docno"]: r["score"] for r in out.to_dicts()}
        assert scores["a"] == pytest.approx(scores["b"], abs=1e-12)

    def test_num_results_truncates_per_query(self, toy_index):
        out = bm25_retriever(toy_index, Bm25Params(num_results=1)).transform(
            qframe(("q1", "quick fox"), ("q2", "dog"))
        )
        by_qid = {}
        for r in out.to_dicts():
            by_qid.setdefault(r["qid"], []).append(r)
        assert {q: len(rows) for q, rows in by_qid.items()} == {"q1": 1, "q2": 1}

    def test_missing_column_diagnostic(self, toy_index):
        answers = rel([{"qid": "q1", "qanswer": "x"}], ["qid", "qanswer"])
        with pytest.raises(MissingColumn) as err:
            bm25_retriever(toy_index).transform(answers)
        assert err.value.missing == frozenset({"query"})

    def test_repeated_query_terms_contribute_per_occurrence(self, toy_index):
        once = bm25_retriever(toy_index).transform(qframe(("q1", "fox")))
        twice = bm25_retriever(toy_index).transform(qframe(("q1", "fox fox")))
        single = {r["docno"]: r["score"] for r in once.to_dicts()}
        doubled = {r["docno"]: r["score"] for r in twice.to_dicts()}
        assert set(single) == set(doubled)
        for docno, score in single.items():
            assert doubled[docno] == pytest.approx(2.0 * score, abs=1e-12)

    def test_repeated_qid_rows_retrieved_once(self, toy_index):
        r_in = rel(
            [
                {"qid": "q1", "query": "fox", "docno": "d1", "score": 2.0, "rank": 0},
                {"qid": "q1", "query": "fox", "docno": "d2", "score": 1.0, "rank": 1},
            ],
            ["qid", "query", "docno", "score", "rank"],
        )
        out = bm25_retriever(toy_index).transform(r_in)
        pairs = [(r["qid"], r["docno"]) for r in out.to_dicts()]
        assert len(pairs) == len(set(pairs))


class TestTextLoader:
    def test_result_rows_gain_text(self, toy_index):
        r_in = rel(
            [{"qid": "q1", "docno": "d1", "score": 1.0, "rank": 0}],
            ["qid", "docno", "score", "rank"],
        )
        out = text_loader(toy_index).transform(r_in)
        assert out.column("text") == ("the quick brown fox",)
        assert out.kind.abbr == "R+"

    def test_empty_input(self, toy_index):
        out = text_loader(toy_index).transform(rel([], ["docno"]))
        assert out.columns == ("docno", "text")

    def test_unknown_docno(self, toy_index):
        with pytest.raises(UnknownDocno):
            text_loader(toy_index).transform(rel([{"docno": "d99"}], ["docno"]))

    def test_repeated_docno_violates_document_key(self, toy_index):
        # {docno} repeats freely, but the output {docno, text} is an exact D frame
        with pytest.raises(DataError):
            text_loader(toy_index).transform(rel([{"docno": "d1"}, {"docno": "d1"}], ["docno"]))


class TestEquality:
    def test_bound_index_handle_decides_equality(self, toy_index_dir):
        a, b = load_index(toy_index_dir), load_index(toy_index_dir)
        for make in (bm25_retriever, weighted_bm25_retriever, text_loader, lambda index: lexical_rescorer(index=index)):
            assert make(a) == make(a) and hash(make(a)) == hash(make(a))
            assert make(a) != make(b)
            assert len({make(a), make(b)}) == 2

    def test_registry_binds_rescore_to_its_index(self, toy_index_dir):
        a, b = load_index(toy_index_dir), load_index(toy_index_dir)
        assert registry(a)["rescore"]() == registry(a)["rescore"]()
        assert registry(a)["rescore"]() != registry(b)["rescore"]()
        assert registry(a)["rescore"]().index is a


class TestSdmRewriter:
    def test_two_token_rewrite(self):
        out = sdm_rewriter().transform(qframe(("q1", "quick fox")))
        (query,) = out.column("query")
        assert query == "#w(0.900000) quick fox #ow(0.100000) quick fox"

    def test_single_token_passthrough(self):
        out = sdm_rewriter().transform(qframe(("q1", "fox")))
        assert out.column("query") == ("fox",)

    def test_empty_query_is_error(self):
        with pytest.raises(EmptyQuery):
            sdm_rewriter().transform(qframe(("q1", "")))

    def test_three_tokens_have_two_pairs(self):
        out = sdm_rewriter(SdmParams(0.8, 0.2)).transform(qframe(("q1", "quick brown fox")))
        (query,) = out.column("query")
        assert query == (
            "#w(0.800000) quick brown fox #ow(0.200000) quick brown #ow(0.200000) brown fox"
        )


class TestWeightedQueryGrammar:
    def test_round_trip_through_parser(self):
        groups = parse_weighted_query("#w(0.900000) quick fox #ow(0.100000) quick fox")
        assert groups == [("w", 0.9, ["quick", "fox"]), ("ow", 0.1, ["quick", "fox"])]

    def test_unclosed_group(self):
        with pytest.raises(MalformedWeightedQuery) as err:
            parse_weighted_query("#ow(0.1")
        assert err.value.position == 4

    def test_ow_needs_two_tokens(self):
        with pytest.raises(MalformedWeightedQuery):
            parse_weighted_query("#ow(0.1) quick")

    def test_bad_token_rejected(self):
        with pytest.raises(MalformedWeightedQuery):
            parse_weighted_query("#w(0.5) Fox!")

    @pytest.mark.parametrize(
        "query, position, detail",
        [
            ("quick fox", 0, "expected '#w(' or '#ow('"),
            ("#w(0.5) quick #x(1) fox", 14, "expected '#w(' or '#ow('"),
            ("#w(0.5)quick", 7, "expected a single space between items"),
            ("#w(0.5) quick #ow(0.5)fox", 22, "expected a single space between items"),
            ("", 0, "empty weighted query"),
        ],
    )
    def test_malformed_query_names_its_offset(self, query, position, detail):
        with pytest.raises(MalformedWeightedQuery) as err:
            parse_weighted_query(query)
        assert err.value.position == position
        assert str(err.value) == f"malformed weighted query at offset {position}: {detail}"

    @pytest.mark.parametrize(
        "query", ["#w(nan) quick fox", "#w(inf) quick", "#w(0.9) quick #ow(-inf) quick fox", "#ow(NaN) quick fox"]
    )
    def test_non_finite_weight_rejected_at_its_leaf(self, toy_index, query):
        node = rr_fusion([Leaf(bm25_retriever(toy_index)), Leaf(weighted_bm25_retriever(toy_index))])
        with pytest.raises(MalformedWeightedQuery) as err:
            execute(node, qframe(("q1", query)))
        assert "not finite" in str(err.value)
        assert err.value.path == (1,)


class TestWeightedBm25:
    def test_plain_query_identical_to_bm25(self, toy_index):
        q = qframe(("q1", "quick fox"), ("q2", "lazy dog"))
        assert weighted_bm25_retriever(toy_index).transform(q) == bm25_retriever(
            toy_index
        ).transform(q)

    def test_sdm_rewritten_query_matches_oracle(self, toy_index):
        pipeline_in = sdm_rewriter().transform(qframe(("q1", "quick fox")))
        out = weighted_bm25_retriever(toy_index).transform(pipeline_in)
        got = {r["docno"]: r["score"] for r in out.to_dicts()}
        # oracle: 0.9 * unigram BM25 + 0.1 * BM25 with tf = adjacency count,
        # df = docs with a (quick, fox) adjacency (only d3 in TOY5)
        uni = oracle_bm25_scores(TOY5, "quick fox")
        n, avgdl = 5, 19 / 5
        idf_ow = math.log(1.0 + (n - 1 + 0.5) / (1 + 0.5))
        ow_d3 = idf_ow * 1 * 2.2 / (1 + 1.2 * (1 - 0.75 + 0.75 * 3 / avgdl))
        expected = {d: 0.9 * s for d, s in uni.items()}
        expected["d3"] += 0.1 * ow_d3
        assert set(got) == set(expected)
        for docno, score in expected.items():
            assert got[docno] == pytest.approx(score, abs=1e-9)
        order = [r["docno"] for r in out.to_dicts()]
        assert order == ["d3", "d1", "d5"]
        # frozen oracle values
        assert got["d3"] == pytest.approx(1.8340848828954839, abs=1e-12)
        assert got["d1"] == pytest.approx(1.2461869380987685, abs=1e-12)
        assert got["d5"] == pytest.approx(0.3922059643629341, abs=1e-12)

    def test_sdm_single_token_degenerates_to_plain_bm25(self, toy_index):
        rewritten = sdm_rewriter().transform(qframe(("q1", "fox")))
        assert weighted_bm25_retriever(toy_index).transform(rewritten) == bm25_retriever(
            toy_index
        ).transform(qframe(("q1", "fox")))

    def test_malformed_weighted_query(self, toy_index):
        with pytest.raises(MalformedWeightedQuery):
            weighted_bm25_retriever(toy_index).transform(qframe(("q1", "#ow(0.1")))


class TestLexicalRescorer:
    def candidates(self, rows):
        return rel(rows, ["qid", "query", "docno", "text"])

    def test_single_candidate_gets_rank_zero(self):
        out = lexical_rescorer().transform(
            self.candidates([{"qid": "q1", "query": "zzz", "docno": "d1", "text": "no match"}])
        )
        assert out.to_dicts()[0]["rank"] == 0
        assert out.to_dicts()[0]["score"] == 0.0

    def test_missing_text_column(self, toy_index):
        r_in = bm25_retriever(toy_index).transform(qframe(("q1", "quick fox")))
        with pytest.raises(MissingColumn) as err:
            lexical_rescorer().transform(r_in)
        assert "text" in err.value.missing

    def test_order_matches_candidate_set_oracle(self):
        texts = {"d1": "the quick brown fox", "d2": "quick quick fox", "d3": "brown dog barks"}
        out = lexical_rescorer().transform(
            self.candidates(
                [{"qid": "q1", "query": "quick fox", "docno": d, "text": t} for d, t in texts.items()]
            )
        )
        expected = oracle_bm25_scores(list(texts.items()), "quick fox")
        got = {r["docno"]: r["score"] for r in out.to_dicts()}
        for docno in texts:
            assert got[docno] == pytest.approx(expected.get(docno, 0.0), abs=1e-9)

    def test_multiset_preserved_and_extras_kept(self):
        rows = [
            {"qid": "q1", "query": "fox", "docno": "d1", "text": "fox", "tag": "a"},
            {"qid": "q1", "query": "fox", "docno": "d2", "text": "dog", "tag": "b"},
        ]
        out = lexical_rescorer().transform(rel(rows, ["qid", "query", "docno", "text", "tag"]))
        assert sorted((r["qid"], r["docno"]) for r in out.to_dicts()) == [("q1", "d1"), ("q1", "d2")]
        assert set(out.columns) == {"qid", "query", "docno", "text", "tag", "score", "rank"}

    def test_repeated_candidate_violates_result_key(self):
        rows = [{"qid": "q1", "query": "fox", "docno": "d1", "text": "fox"}] * 2
        with pytest.raises(DataError):
            lexical_rescorer().transform(self.candidates(rows))

    def test_num_results_keeps_top_ranks_per_qid(self):
        texts = {"d1": "fox", "d2": "fox fox dog", "d3": "dog", "d4": "fox"}
        rows = [{"qid": "q1", "query": "fox", "docno": d, "text": t} for d, t in list(texts.items())[:3]]
        rows.append({"qid": "q2", "query": "fox", "docno": "d4", "text": texts["d4"]})
        full = lexical_rescorer().transform(self.candidates(rows))
        out = lexical_rescorer(Bm25Params(num_results=2)).transform(self.candidates(rows))
        assert len(out) == 3
        assert out.rows == tuple(row for row in full.rows if row[full.columns.index("rank")] < 2)

    def test_null_docno_below_the_cut_is_still_ranked(self):
        rows = [
            {"qid": "q1", "query": "fox", "docno": "d1", "text": "fox fox"},
            {"qid": "q1", "query": "fox", "docno": "d2", "text": "fox"},
            {"qid": "q1", "query": "fox", "docno": None, "text": "dog"},
        ]
        with pytest.raises(DataError, match="a row with a null qid or docno cannot be ranked"):
            lexical_rescorer(Bm25Params(num_results=2)).transform(self.candidates(rows))

    def test_repeated_candidate_below_the_cut_is_dropped_in_input_order(self):
        rows = [
            {"qid": "q1", "query": "fox", "docno": "d1", "text": "fox", "tag": "first"},
            {"qid": "q1", "query": "fox", "docno": "d1", "text": "fox", "tag": "second"},
        ]
        cands = rel(rows, ["qid", "query", "docno", "text", "tag"])
        assert lexical_rescorer(Bm25Params(num_results=1)).transform(cands).column("tag") == ("first",)


def hex_scores(out):
    return [(qid, docno, float.hex(score)) for qid, docno, score in zip(*map(out.column, ("qid", "docno", "score")))]


class TestRescoreOverItsIndex:
    """A candidate whose text is the string its index stored skips tokenize.

    Every other candidate is tokenized, with the same scores either way.
    """

    def candidates(self, index, loader_index=None):
        r_in = bm25_retriever(index).transform(qframe(("q1", "quick fox"), ("q2", "lazy dog")))
        return text_loader(loader_index or index).transform(r_in)

    def rescore(self, index, cands, tokenized):
        """*cands* rescored over *index*, and over no index; only the first is counted."""
        del tokenized[:]
        out = lexical_rescorer(index=index).transform(cands)
        count = len(tokenized)
        assert hex_scores(out) == hex_scores(lexical_rescorer().transform(cands))
        return out, count

    def test_text_from_its_index_is_not_tokenized(self, toy_index, tokenized):
        assert self.rescore(toy_index, self.candidates(toy_index), tokenized)[1] == 2  # the two queries

    def test_equal_but_distinct_text_is_tokenized(self, toy_index, tokenized):
        cands = self.candidates(toy_index)
        x = cands.columns.index("text")
        rows = [row[:x] + (row[x].encode().decode(),) + row[x + 1 :] for row in cands.rows]
        assert all(new[x] == old[x] and new[x] is not old[x] for new, old in zip(rows, cands.rows))
        out, count = self.rescore(toy_index, Relation(cands.columns, rows), tokenized)
        assert count == 2 + len(rows)
        assert hex_scores(out) == hex_scores(lexical_rescorer(index=toy_index).transform(cands))

    def test_text_from_another_handle_is_tokenized(self, toy_index, toy_index_dir, tokenized):
        cands = self.candidates(toy_index, loader_index=load_index(toy_index_dir))
        assert self.rescore(toy_index, cands, tokenized)[1] == 2 + len(cands)

    def test_text_from_a_custom_stage_is_tokenized(self, toy_index, tokenized):
        def prefix(rel):
            x = rel.columns.index("text")
            return Relation(rel.columns, [row[:x] + ("quick quick " + row[x],) + row[x + 1 :] for row in rel.rows])

        restate = Transformer("restate", "prefix every text", (), spec({"text"}, {"text"}, passthrough=True), prefix)
        cands = restate.transform(self.candidates(toy_index))
        assert self.rescore(toy_index, cands, tokenized)[1] == 2 + len(cands)

    def test_unloaded_index_is_not_loaded(self, toy_index_dir, tokenized):
        index = load_index(toy_index_dir)
        rows = [{"qid": "q1", "query": "fox", "docno": d, "text": t} for d, t in TOY5]
        cands = rel(rows, ["qid", "query", "docno", "text"])
        assert self.rescore(index, cands, tokenized)[1] == 1 + len(TOY5)
        assert not index.data_loaded

    def test_text_disagreeing_with_postings_scores_by_postings(self, tmp_path):
        """The index trusts its own docs.jsonl text to match its postings.

        A stored text edited to other words of the same length loads; bm25
        and rescore over the loaded text both score by the postings.
        """
        build_index([("d1", "apple banana"), ("d2", "banana cherry"), ("d3", "cherry apple apple")], tmp_path)
        docs = tmp_path / "docs.jsonl"
        docs.write_text(docs.read_text(encoding="utf-8").replace("apple banana", "zebra zebra"), encoding="utf-8")
        index = load_index(tmp_path)
        assert index.text("d1") == "zebra zebra"
        cands = text_loader(index).transform(bm25_retriever(index).transform(qframe(("q1", "apple"))))
        assert cands.column("docno") == ("d3", "d1")
        d, x = cands.columns.index("docno"), cands.columns.index("text")
        as_indexed = Relation(
            cands.columns, [row[:x] + ("apple banana" if row[d] == "d1" else row[x],) + row[x + 1 :] for row in cands.rows]
        )
        out = lexical_rescorer(index=index).transform(cands)
        assert hex_scores(out) == hex_scores(lexical_rescorer().transform(as_indexed))
        assert hex_scores(out) != hex_scores(lexical_rescorer().transform(cands))


class TestExtractiveAnswerer:
    def ranked(self, rows):
        return rel(rows, ["qid", "query", "docno", "score", "rank", "text"])

    def test_no_terminator_keeps_whole_text(self):
        out = extractive_answerer().transform(
            self.ranked(
                [{"qid": "q1", "query": "x", "docno": "d5", "score": 1.0, "rank": 0,
                  "text": "fox jumps over the lazy dog"}]
            )
        )
        assert out.to_dicts() == [{"qid": "q1", "qanswer": "fox jumps over the lazy dog"}]

    def test_first_sentence_rule(self):
        assert first_sentence("A. B.") == "A."
        assert first_sentence("what? yes.") == "what?"
        assert first_sentence("plain") == "plain"
        out = extractive_answerer().transform(
            self.ranked(
                [{"qid": "q1", "query": "x", "docno": "d1", "score": 1.0, "rank": 0, "text": "A. B."}]
            )
        )
        assert out.to_dicts()[0]["qanswer"] == "A."

    def test_one_row_per_qid(self):
        rows = [
            {"qid": "q1", "query": "x", "docno": "d1", "score": 2.0, "rank": 0, "text": "one"},
            {"qid": "q1", "query": "x", "docno": "d2", "score": 1.0, "rank": 1, "text": "two"},
            {"qid": "q2", "query": "y", "docno": "d1", "score": 1.0, "rank": 0, "text": "three"},
        ]
        out = extractive_answerer().transform(self.ranked(rows))
        assert out.kind.abbr == "A"
        assert out.to_dicts() == [{"qid": "q1", "qanswer": "one"}, {"qid": "q2", "qanswer": "three"}]


_RANKED_TEXT = ["qid", "query", "docno", "score", "rank", "text"]


class TestNullsInReadColumns:
    """A null in a nullable column that a stage reads is a DataError with a path."""

    @pytest.mark.parametrize(
        "stage, column, columns",
        [
            ("bm25", "query", _RANKED_TEXT[:5]),
            ("wbm25", "query", _RANKED_TEXT[:5]),
            ("sdm", "query", _RANKED_TEXT[:5]),
            ("rescore", "query", _RANKED_TEXT),
            ("rescore", "text", ["qid", "query", "docno", "text"]),
            ("answer", "text", _RANKED_TEXT),
        ],
    )
    def test_null_is_data_error(self, toy_registry, stage, column, columns):
        row = {"qid": "q1", "query": "quick fox", "docno": "d1", "score": 1.0, "rank": 0, "text": "fox."}
        bad = rel([{**row, column: None}], columns)
        with pytest.raises(DataError) as err:
            execute(Leaf(toy_registry[stage]()), bad)
        assert f"{stage}: column {column!r} holds a null" in str(err.value)
        assert err.value.path == ()

    def test_path_of_the_reading_stage(self, toy_index):
        node = then(Leaf(text_loader(toy_index)), Leaf(lexical_rescorer()))
        bad = rel([{"qid": "q1", "query": None, "docno": "d1", "score": 1.0, "rank": 0}], _RANKED_TEXT[:5])
        with pytest.raises(DataError) as err:
            execute(node, bad)
        assert err.value.path == (1,)


class TestNonFiniteScores:
    """Sums that leave the floats, and NaN scores, are DataErrors with a path."""

    @pytest.mark.parametrize(
        "query, reason",
        [
            ("#w(6e307) alpha beta", "intermediate overflow"),
            ("#w(1.7e308) alpha #w(-1.7e308) beta", "-inf + inf"),
        ],
    )
    def test_weighted_sum_leaving_the_floats_fails_at_its_leaf(self, overflow_index, query, reason):
        index = overflow_index
        node = rr_fusion([Leaf(bm25_retriever(index)), Leaf(weighted_bm25_retriever(index))])
        with pytest.raises(DataError) as err:
            execute(node, qframe(("q1", query)))
        assert "scores do not sum to a finite number" in str(err.value)
        assert reason in str(err.value)
        assert err.value.path == (1,)

    @pytest.mark.parametrize("weight", ["1.79e308", "-1.79e308"])
    def test_one_overflowing_part_fails_at_its_leaf(self, overflow_index, weight):
        node = rr_fusion([Leaf(bm25_retriever(overflow_index)), Leaf(weighted_bm25_retriever(overflow_index))])
        with pytest.raises(DataError, match="not finite") as err:
            execute(node, qframe(("q1", f"#w({weight}) alpha")))
        assert err.value.path == (1,)

    @pytest.mark.parametrize("stage", ["bm25", "wbm25", "rescore"])
    def test_overflowing_k1_names_the_qid_of_its_nan_at_its_leaf(self, tmp_path, stage):
        # fox's part of d1's score is inf / inf: its numerator and d1's length norm both overflow
        docs = [("d1", "fox fox fox fox fox a b c d"), ("d2", "a"), ("d3", "b"), ("d4", "c"), ("d5", "d")]
        build_index(docs, tmp_path / "ix")
        index = load_index(tmp_path / "ix")
        params = Bm25Params(k1=1.7e308, b=1.0)
        make = {
            "bm25": bm25_retriever,
            "wbm25": weighted_bm25_retriever,
            "rescore": lambda ix, p: lexical_rescorer(p, ix),
        }
        node = rr_fusion([Leaf(bm25_retriever(index)), Leaf(make[stage](index, params))])
        columns = ["qid", "query", "docno", "text"]
        candidates = rel([{"qid": "q1", "query": "fox", "docno": d, "text": t} for d, t in docs], columns)
        with pytest.raises(DataError, match="score nan for qid 'q1' cannot be ranked") as err:
            execute(node, candidates)
        assert err.value.path == (1,)

    def test_custom_stage_returning_nan_fails_at_its_path(self, toy_index):
        def nan_scores(rel_in):
            return rel(
                [{**row, "score": math.nan} for row in rel_in.to_dicts()], list(rel_in.columns)
            )

        ranked = {"qid", "docno", "score", "rank"}
        stage = Transformer("nan", "scores everything NaN", (), spec(ranked, ranked, passthrough=True), nan_scores)
        node = then(Leaf(bm25_retriever(toy_index)), Leaf(stage))
        with pytest.raises(DataError, match="score nan for qid 'q1' cannot be ranked") as err:
            execute(node, qframe(("q1", "quick fox")))
        assert err.value.path == (1,)


def test_custom_stage_building_a_row_that_is_not_a_sequence_fails_at_its_path():
    def build(rel_in):
        return Relation(("qid",), [5])

    stage = Transformer("bad", "builds a row of one int", (), spec({"qid"}, {"qid"}), build)
    node = then(Leaf(sdm_rewriter()), Leaf(stage))
    with pytest.raises(DataError, match="row 0 is not a sequence of values, got int") as err:
        execute(node, qframe(("q1", "quick fox")))
    assert err.value.path == (1,)


def liar(columns):
    """Declares ``{qid, query} -> {qid, query, docno, score}`` but returns *columns*."""
    cells = {"qid": "q1", "query": "quick fox", "docno": "d1", "score": 1.0, "tag": "t"}
    out = Relation(columns, [tuple(map(cells.__getitem__, columns))])
    declared = spec({"qid", "query"}, {"qid", "query", "docno", "score"})
    return Transformer("liar", "declares a score column it may not produce", (), declared, lambda rel_in: out)


class TestDeclaredOutputs:
    """A stage whose output columns are not the ones its spec declares for
    its input is a DataError naming both sets, at the stage's path."""

    @pytest.mark.parametrize(
        "columns", [("qid", "query", "docno"), ("qid", "query", "docno", "score", "tag")], ids=["missing", "extra"]
    )
    @pytest.mark.parametrize("where", ["rrf", "chain"])
    def test_mismatch_fails_at_its_leaf(self, toy_index, columns, where):
        children = Leaf(bm25_retriever(toy_index) if where == "rrf" else sdm_rewriter()), Leaf(liar(columns))
        node = rr_fusion(children) if where == "rrf" else then(*children)
        with pytest.raises(DataError) as err:
            execute(node, qframe(("q1", "quick fox")))
        assert str(err.value) == (
            f"liar produced {sorted(columns)} but declares ['docno', 'qid', 'query', 'score'] (at pipeline node [1])"
        )
        assert err.value.path == (1,)


class TestSpecBehaviorAgreement:
    """Actual output columns equal the inspected output columns."""

    def test_all_builtins_agree(self, toy_index):
        from conftest import synthesize_relation
        import random

        from flowrank.transformers import registry

        rng = random.Random(11)
        for name, factory in registry(toy_index).items():
            t = factory()
            for accepted in t.spec.accepted_inputs:
                for extra in ([], ["color"]):
                    cols = set(accepted) | set(extra)
                    rel_in = synthesize_relation(cols, rng)
                    out = t.transform(rel_in)
                    expected = dict(t.spec.outputs)[accepted]
                    if t.spec.passthrough:
                        expected = expected | (cols - accepted)
                    assert set(out.columns) == set(expected), name


class TestParameterChecks:
    """Non-finite or mistyped parameters fail where they are set, not at scoring."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k1": math.nan},
            {"k1": math.inf},
            {"k1": -0.5},
            {"b": math.nan},
            {"b": math.inf},
            {"num_results": math.inf},
            {"num_results": 5.0},
            {"num_results": 0},
        ],
    )
    def test_bm25_params(self, kwargs):
        with pytest.raises(ValueError):
            Bm25Params(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_t": math.nan, "lambda_o": 0.1},
            {"lambda_o": math.nan},
            {"lambda_t": math.inf, "lambda_o": -math.inf},
            {"lambda_t": 1.1, "lambda_o": -0.1},
        ],
    )
    def test_sdm_params(self, kwargs):
        with pytest.raises(ValueError):
            SdmParams(**kwargs)
