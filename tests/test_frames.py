import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_row_that_is_not_a_sequence_rejected(self):
        with pytest.raises(DataError, match="row 1 is not a sequence of values, got int"):
            Relation(("qid",), [("q0",), 5])

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

    @pytest.mark.parametrize("trusted", [False, True])
    def test_duplicate_pair_across_non_adjacent_qid_runs(self, trusted):
        rows = [("q1", "d1", 3.0, 0), ("q1", "d2", 2.0, 1), ("q2", "d1", 1.0, 0), ("q1", "d2", 0.5, 2)]
        columns = ("qid", "docno", "score", "rank")
        build = Relation._trusted if trusted else Relation
        with pytest.raises(DataError) as err:
            build(columns, rows)
        assert str(err.value) == "duplicate (qid, docno) value ('q1', 'd2') violates the frame primary key"

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")), max_size=9))
    def test_pair_key_agrees_with_a_set_of_pairs_in_any_row_order(self, pairs):
        # _trusted checks keys but not ranks, so any row order will do
        columns, rows = ("qid", "docno", "score", "rank"), [(q, d, 1.0, 0) for q, d in pairs]
        seen, repeat = set(), None
        for pair in pairs:
            if pair in seen:
                repeat = pair
                break
            seen.add(pair)
        if repeat is None:
            assert len(Relation._trusted(columns, rows)) == len(rows)
            return
        with pytest.raises(DataError) as err:
            Relation._trusted(columns, rows)
        assert str(err.value) == f"duplicate (qid, docno) value {repeat!r} violates the frame primary key"

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

    @pytest.mark.parametrize("columns", [("qid", "score", "rank"), ("qid", "query", "score", "rank")])
    def test_null_rank_rejected_naming_its_qid(self, columns):
        cells = [
            {"qid": "q1", "query": "x", "score": 1.0, "rank": None},
            {"qid": "q1", "query": "x", "score": 2.0, "rank": 0},
        ]
        with pytest.raises(DataError, match="ranks for qid 'q1' are not exactly 0..1"):
            Relation(columns, [tuple(map(row.__getitem__, columns)) for row in cells])

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
        with pytest.raises(DataError, match="column 'score' holds an integer too large for float64"):
            rel([{"qid": "q1", "docno": "d1", "score": 10**400, "rank": 0}], ["qid", "docno", "score", "rank"])
        # each vector element is checked as a float64 cell is
        for vector, got in ((["a"], "str"), ([None], "NoneType"), (["1.5"], "str"), ([True], "bool")):
            with pytest.raises(DataError, match=f"column 'query_vec' expects numbers in a float vector, got {got}"):
                rel([{"qid": "q1", "query_vec": vector}], ["qid", "query_vec"])
        with pytest.raises(DataError, match="column 'query_vec' holds an integer too large for float64"):
            rel([{"qid": "q1", "query_vec": [1, 10**400]}], ["qid", "query_vec"])

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

    def test_read_topics_counts_lines_as_text_mode_splits_them(self, tmp_path):
        f = tmp_path / "bad.tsv"
        f.write_bytes(b"q1\ta\rq2\tb\r\nq3\tc\nq4\t\x80")
        with pytest.raises(FormatError) as err:
            read_topics(f)
        assert str(err.value) == f"{f}:4: byte 0x80 is not UTF-8"

    def test_read_topics_names_the_line_of_a_repeated_qid(self, tmp_path):
        f = tmp_path / "topics.tsv"
        f.write_text("q1\tquick fox\nq2\tlazy dog\n\nq1\tbrown fox\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_topics(f)
        assert str(err.value) == f"{f}:4: duplicate qid 'q1'"

    def test_read_topics_directory_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            read_topics(tmp_path)

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

    @pytest.mark.parametrize("column", ["qid", "docno", "tag"])
    @pytest.mark.parametrize("value", ["", "q 1", "d\t2", "x\n", "\u00a0"])
    def test_trec_run_refuses_an_empty_or_spaced_qid_or_docno(self, column, value):
        fields = {"qid": "q1", "docno": "d2", "tag": "run", column: value}
        rows = [
            {"qid": "q1", "docno": "d1", "score": 2.0},
            {"qid": fields["qid"], "docno": fields["docno"], "score": 1.0},
        ]
        ranked = sort_and_rank(rel(rows, ["qid", "docno", "score"]))
        with pytest.raises(DataError) as err:
            format_trec_run(ranked, fields["tag"])
        assert str(err.value) == f"{column} {value!r} cannot be written to a TREC run: it is empty or holds whitespace"
