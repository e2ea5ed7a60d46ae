import random

import pytest

from flowrank.errors import DataError, FormatError, MissingColumn, UnknownDocno
from flowrank.frames import (
    Relation,
    classify_frame,
    format_trec_run,
    join_on_docno,
    read_topics,
    sort_and_rank,
)

from conftest import TOY5


def rel(rows, columns):
    return Relation.from_dicts(rows, columns)


class TestClassifyFrame:
    def test_query_frame(self):
        assert classify_frame({"qid", "query"}).abbr == "Q"

    def test_extended_result_frame(self):
        kind = classify_frame({"qid", "docno", "score", "rank", "query", "text"})
        assert kind.base == "R" and kind.extended
        assert kind.abbr == "R+"

    def test_empty_schema_matches_nothing(self):
        kind = classify_frame(set())
        assert kind.base is None and kind.extended
        assert kind.abbr == "?"

    def test_document_and_answer(self):
        assert classify_frame({"docno", "text"}).abbr == "D"
        assert classify_frame({"qid", "qanswer"}).abbr == "A"

    def test_precedence_r_beats_a_q_d(self):
        cols = {"qid", "docno", "score", "rank", "qanswer", "query", "text"}
        assert classify_frame(cols).base == "R"

    def test_order_invariant(self):
        a = classify_frame(["qid", "query"])
        b = classify_frame(["query", "qid"])
        assert a == b


class TestRelationInvariants:
    def test_row_width_checked(self):
        with pytest.raises(DataError):
            Relation(("qid", "query"), (("q1",),))

    @pytest.mark.parametrize("columns", [("qid", "qid"), ("qid", "")])
    def test_column_names_unique_and_non_empty(self, columns):
        with pytest.raises(DataError):
            Relation(columns, ())

    def test_duplicate_qid_in_query_frame(self):
        with pytest.raises(DataError):
            rel([{"qid": "q1", "query": "a"}, {"qid": "q1", "query": "b"}], ["qid", "query"])

    def test_duplicate_docno_in_document_frame(self):
        with pytest.raises(DataError):
            rel([{"docno": "d1", "text": "a"}, {"docno": "d1", "text": "b"}], ["docno", "text"])

    def test_duplicate_pair_in_result_frame(self):
        rows = [
            {"qid": "q1", "docno": "d1", "score": 2.0, "rank": 0},
            {"qid": "q1", "docno": "d1", "score": 1.0, "rank": 1},
        ]
        with pytest.raises(DataError):
            rel(rows, ["qid", "docno", "score", "rank"])

    def test_rank_gaps_rejected(self):
        rows = [
            {"qid": "q1", "docno": "d1", "score": 2.0, "rank": 0},
            {"qid": "q1", "docno": "d2", "score": 1.0, "rank": 2},
        ]
        with pytest.raises(DataError):
            rel(rows, ["qid", "docno", "score", "rank"])

    def test_rank_against_score_order_rejected(self):
        rows = [
            {"qid": "q1", "docno": "d1", "score": 1.0, "rank": 0},
            {"qid": "q1", "docno": "d2", "score": 2.0, "rank": 1},
        ]
        with pytest.raises(DataError):
            rel(rows, ["qid", "docno", "score", "rank"])

    @pytest.mark.parametrize("nan_at", [0, 1])
    def test_nan_score_rejected_in_either_row(self, nan_at):
        rows = [
            {"qid": "q1", "docno": "a", "score": 1.0, "rank": 0},
            {"qid": "q1", "docno": "b", "score": 1.0, "rank": 1},
        ]
        rows[nan_at]["score"] = float("nan")
        with pytest.raises(DataError, match="score nan for qid 'q1' cannot be ranked"):
            rel(rows, ["qid", "docno", "score", "rank"])

    def test_null_score_beside_ranks_rejected(self):
        # {qid, query, score, rank} is a Q frame, where score may be null
        rows = [{"qid": "q1", "query": "x", "score": None, "rank": 0}]
        with pytest.raises(DataError, match="score None for qid 'q1' cannot be ranked"):
            rel(rows, ["qid", "query", "score", "rank"])

    def test_null_required_column_rejected(self):
        with pytest.raises(DataError):
            rel([{"qid": "q1", "query": None}], ["qid", "query"])

    def test_null_extension_column_allowed(self):
        r = rel([{"qid": "q1", "query": "a", "note": None}], ["qid", "query", "note"])
        assert r.column("note") == (None,)

    def test_type_checks(self):
        with pytest.raises(DataError):
            rel([{"qid": 3, "query": "a"}], ["qid", "query"])
        with pytest.raises(DataError):
            rel(
                [{"qid": "q1", "docno": "d1", "score": "high", "rank": 0}],
                ["qid", "docno", "score", "rank"],
            )

    def test_score_coerced_to_float(self):
        r = rel([{"qid": "q1", "docno": "d1", "score": 2, "rank": 0}], ["qid", "docno", "score", "rank"])
        assert r.column("score") == (2.0,)


class TestSortAndRank:
    def test_empty_relation_gains_rank_column(self):
        out = sort_and_rank(rel([], ["qid", "docno", "score"]))
        assert out.columns == ("qid", "docno", "score", "rank")
        assert len(out) == 0

    def test_singleton(self):
        out = sort_and_rank(rel([{"qid": "q1", "docno": "d1", "score": 2.0}], ["qid", "docno", "score"]))
        assert out.to_dicts() == [{"qid": "q1", "docno": "d1", "score": 2.0, "rank": 0}]

    def test_score_ties_break_by_docno(self):
        rows = [
            {"qid": "q1", "docno": "d1", "score": 1.0},
            {"qid": "q1", "docno": "d2", "score": 3.0},
            {"qid": "q1", "docno": "d3", "score": 3.0},
        ]
        out = sort_and_rank(rel(rows, ["qid", "docno", "score"]))
        assert [(r["docno"], r["rank"]) for r in out.to_dicts()] == [("d2", 0), ("d3", 1), ("d1", 2)]

    @pytest.mark.parametrize(
        "column, value", [("qid", None), ("docno", None), ("score", None), ("score", float("nan"))]
    )
    def test_unrankable_row_rejected(self, column, value):
        rows = [{"qid": "q1", "docno": "d1", "score": 1.0}, {"qid": "q1", "docno": "d2", "score": 2.0}]
        rows[1][column] = value
        with pytest.raises(DataError, match="cannot be ranked"):
            sort_and_rank(rel(rows, ["qid", "docno", "score"]))

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            sort_and_rank(rel([{"qid": "q1", "query": "x"}], ["qid", "query"]))

    def test_existing_rank_overwritten_in_place(self):
        rows = [
            {"qid": "q1", "docno": "d1", "rank": 1, "score": 1.0},
            {"qid": "q1", "docno": "d2", "rank": 0, "score": 2.0},
        ]
        out = sort_and_rank(rel(rows, ["qid", "docno", "rank", "score"]))
        assert out.columns == ("qid", "docno", "rank", "score")
        assert out.column("rank") == (0, 1)

    def test_idempotent_and_multiset_preserving(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [
                {
                    "qid": f"q{rng.randint(1, 3)}",
                    "docno": f"d{i}",
                    "score": rng.choice([1.0, 2.0, rng.random()]),
                }
                for i in range(rng.randint(0, 8))
            ]
            r = rel(rows, ["qid", "docno", "score"])
            once = sort_and_rank(r)
            assert sort_and_rank(once) == once
            triple = lambda x: sorted((d["qid"], d["docno"], d["score"]) for d in x.to_dicts())
            assert triple(once) == triple(r)


class TestJoinOnDocno:
    def test_single_lookup(self):
        left = rel([{"qid": "q1", "docno": "d1"}], ["qid", "docno"])
        out = join_on_docno(left, {"d1": "the quick brown fox"})
        assert out.to_dicts() == [{"qid": "q1", "docno": "d1", "text": "the quick brown fox"}]

    def test_empty_left(self):
        out = join_on_docno(rel([], ["docno"]), {})
        assert out.columns == ("docno", "text")
        assert len(out) == 0

    def test_unknown_docno(self):
        left = rel([{"docno": "d9"}], ["docno"])
        with pytest.raises(UnknownDocno) as err:
            join_on_docno(left, {"d1": "x"})
        assert err.value.docno == "d9"

    def test_existing_text_overwritten(self):
        left = rel([{"docno": "d1", "text": "old"}], ["docno", "text"])
        out = join_on_docno(left, {"d1": "new"})
        assert out.column("text") == ("new",)
        assert out.columns == ("docno", "text")

    def test_row_order_preserved(self):
        left = rel([{"docno": "d2"}, {"docno": "d1"}], ["docno"])
        out = join_on_docno(left, {"d1": "a", "d2": "b"})
        assert out.column("docno") == ("d2", "d1")

    def test_non_text_lookup_rejected(self):
        left = rel([{"qid": "q1", "docno": "a"}], ["qid", "docno"])
        with pytest.raises(DataError):
            join_on_docno(left, {"a": 5})

    def test_null_key_of_gained_frame_kind_rejected(self):
        # docno may be null in {docno} but not in the document frame it becomes
        with pytest.raises(DataError):
            join_on_docno(rel([{"docno": None}], ["docno"]), {None: "x"})


class TestJoinOnIndex:
    """An Index's one lookup pass agrees with the same texts given as a plain mapping."""

    def test_same_rows_in_the_same_order(self, toy_index):
        texts = dict(TOY5)
        rng = random.Random(5)
        for _ in range(20):
            docnos = rng.choices(list(texts), k=rng.randint(0, 8))
            left = Relation(("qid", "docno"), [(f"q{i}", d) for i, d in enumerate(docnos)])
            out = join_on_docno(left, toy_index)
            assert out == join_on_docno(left, texts)
            assert out.column("docno") == tuple(docnos)

    def test_existing_text_overwritten_in_place(self, toy_index):
        left = rel([{"docno": "d3", "text": "old", "tag": "t"}], ["docno", "text", "tag"])
        out = join_on_docno(left, toy_index)
        assert out.columns == ("docno", "text", "tag")
        assert out.rows == (("d3", "quick quick fox", "t"),)
        assert out == join_on_docno(left, dict(TOY5))

    def test_first_missing_docno_raised(self, toy_index):
        left = rel([{"docno": d} for d in ("d2", "x9", "d1", "x1")], ["docno"])
        for docs in (toy_index, dict(TOY5)):
            with pytest.raises(UnknownDocno) as err:
                join_on_docno(left, docs)
            assert err.value.docno == "x9"


class TestExternalFormats:
    def test_read_topics(self, tmp_path):
        f = tmp_path / "topics.tsv"
        f.write_text("q1\tquick fox\nq2\tlazy dog\n", encoding="utf-8")
        topics = read_topics(f)
        assert topics.kind.abbr == "Q"
        assert topics.to_dicts() == [
            {"qid": "q1", "query": "quick fox"},
            {"qid": "q2", "query": "lazy dog"},
        ]

    def test_read_topics_requires_tab(self, tmp_path):
        f = tmp_path / "bad.tsv"
        f.write_text("q1 quick fox\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_topics(f)

    def test_trec_run_format(self):
        rows = [
            {"qid": "q1", "docno": "d2", "score": 3.0, "rank": 0},
            {"qid": "q1", "docno": "d1", "score": 1.25, "rank": 1},
        ]
        out = format_trec_run(rel(rows, ["qid", "docno", "score", "rank"]), tag="t0")
        assert out == "q1 Q0 d2 0 3.000000 t0\nq1 Q0 d1 1 1.250000 t0\n"

    def test_trec_run_needs_ranking_columns(self):
        with pytest.raises(MissingColumn):
            format_trec_run(rel([{"qid": "q1", "query": "x"}], ["qid", "query"]))
