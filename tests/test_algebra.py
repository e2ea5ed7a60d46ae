import math
import random

import pytest

from flowrank.algebra import Leaf, Linear, RRF, Then, execute, linear, rr_fusion, then
from flowrank.errors import DataError, InvalidK, UnknownDocno, ValidationError, WeightLengthMismatch
from flowrank.frames import Relation
from flowrank.transformers import bm25_retriever, lexical_rescorer, text_loader

from conftest import EMPTY_INPUT, stub_run


def run_of(name, rows):
    return Leaf(stub_run(name, rows))


def q1_run(*pairs):
    return [{"qid": "q1", "docno": d, "score": s} for d, s in pairs]


class TestThen:
    def test_flattening(self, toy_index):
        a, b, c = (Leaf(bm25_retriever(toy_index)) for _ in range(3))
        node = then(then(a, b), c)
        assert isinstance(node, Then)
        assert node.children == (a, b, c)

    def test_right_side_flattens_too(self, toy_index):
        a, b, c = (Leaf(bm25_retriever(toy_index)) for _ in range(3))
        assert then(a, then(b, c)).children == (a, b, c)

    def test_defining_equation(self, toy_index, qframe):
        a = Leaf(bm25_retriever(toy_index))
        b = Leaf(text_loader(toy_index))
        chained = execute(then(a, b), qframe)
        stepped = execute(b, execute(a, qframe))
        assert chained == stepped


class TestLinear:
    def test_weight_length_mismatch(self):
        a, b = run_of("a", q1_run(("d1", 1.0))), run_of("b", q1_run(("d2", 1.0)))
        with pytest.raises(WeightLengthMismatch):
            linear([a, b], [1.0])

    def test_self_combination_doubles_scores(self):
        a = run_of("a", q1_run(("d1", 2.0), ("d2", 1.0)))
        out = execute(linear([a, a], [1.0, 1.0]), EMPTY_INPUT)
        assert [(r["docno"], r["score"], r["rank"]) for r in out.to_dicts()] == [
            ("d1", 4.0, 0),
            ("d2", 2.0, 1),
        ]

    @pytest.mark.parametrize(
        "weights, score, reason",
        [((1e308, 1e308), 1.5, "intermediate overflow"), ((1e308, -1e308), 10.0, "-inf + inf")],
    )
    def test_sum_leaving_the_floats_fails_at_the_fusion_node(self, weights, score, reason):
        a, b = run_of("a", q1_run(("d1", score))), run_of("b", q1_run(("d1", score)))
        node = rr_fusion([run_of("c", q1_run(("d2", 1.0))), linear([a, b], weights)])
        with pytest.raises(DataError) as err:
            execute(node, EMPTY_INPUT)
        assert reason in str(err.value)
        assert err.value.path == (1,)

    def test_product_overflowing_a_finite_score_fails_at_the_fusion_node(self):
        a, b = run_of("a", q1_run(("d1", 10.0))), run_of("b", q1_run(("d2", 1.0)))
        node = rr_fusion([run_of("c", q1_run(("d2", 1.0))), linear([a, b], (1e308, 1.0))])
        with pytest.raises(DataError, match="weight 1e\\+308 times a score is not finite") as err:
            execute(node, EMPTY_INPUT)
        assert err.value.path == (1,)

    def test_infinite_score_passes_through(self):
        a, b = run_of("a", q1_run(("d1", math.inf))), run_of("b", q1_run(("d2", 1.0)))
        out = execute(linear([a, b], (2.0, 1.0)), EMPTY_INPUT)
        assert out.column("score") == (math.inf, 1.0)

    def test_union_with_zero_fill(self):
        a = run_of("a", q1_run(("d1", 2.0)))
        b = run_of("b", q1_run(("d2", 3.0)))
        out = execute(linear([a, b], [1.0, 1.0]), EMPTY_INPUT)
        assert [(r["docno"], r["score"]) for r in out.to_dicts()] == [("d2", 3.0), ("d1", 2.0)]

    def test_zero_weight_keeps_docs_with_zero_score(self):
        a = run_of("a", q1_run(("d1", 2.0)))
        b = run_of("b", q1_run(("d2", 3.0)))
        out = execute(linear([a, b], [1.0, 0.0]), EMPTY_INPUT)
        assert [(r["docno"], r["score"]) for r in out.to_dicts()] == [("d1", 2.0), ("d2", 0.0)]

    def test_fused_scores_independent_of_child_order(self):
        rng = random.Random(3)
        runs = [
            q1_run(*((f"d{i}", rng.random()) for i in rng.sample(range(8), 5))) for _ in range(3)
        ]
        weights = [0.3, 1.1, 0.6]
        forward = execute(
            linear([run_of(f"r{i}", r) for i, r in enumerate(runs)], weights), EMPTY_INPUT
        )
        backward = execute(
            linear([run_of(f"r{i}", r) for i, r in enumerate(reversed(runs))], weights[::-1]),
            EMPTY_INPUT,
        )
        assert forward == backward


class TestRRF:
    def test_invalid_k(self):
        a, b = run_of("a", q1_run(("d1", 1.0))), run_of("b", q1_run(("d2", 1.0)))
        with pytest.raises(InvalidK):
            rr_fusion([a, b], k=0)

    @pytest.mark.parametrize("k", [-1.0, math.nan, math.inf, -math.inf])
    def test_non_positive_or_non_finite_k(self, k):
        a, b = run_of("a", q1_run(("d1", 1.0))), run_of("b", q1_run(("d2", 1.0)))
        with pytest.raises(InvalidK):
            rr_fusion([a, b], k=k)

    def test_hand_oracle(self):
        a = run_of("a", q1_run(("dA", 2.0), ("dB", 1.0)))
        b = run_of("b", q1_run(("dB", 9.0), ("dC", 5.0)))
        out = execute(rr_fusion([a, b], k=60), EMPTY_INPUT)
        got = [(r["docno"], r["score"]) for r in out.to_dicts()]
        assert [d for d, _ in got] == ["dB", "dA", "dC"]
        assert got[0][1] == pytest.approx(1 / 61 + 1 / 62, abs=1e-15)
        assert got[1][1] == pytest.approx(1 / 61, abs=1e-15)
        assert got[2][1] == pytest.approx(1 / 62, abs=1e-15)

    def test_duplicate_children_keep_order(self):
        a_rows = q1_run(("d1", 5.0), ("d2", 3.0), ("d3", 1.0))
        out = execute(rr_fusion([run_of("a", a_rows), run_of("a2", a_rows)]), EMPTY_INPUT)
        assert [r["docno"] for r in out.to_dicts()] == ["d1", "d2", "d3"]
        assert out.to_dicts()[0]["score"] == pytest.approx(2 / 61, abs=1e-15)

    def test_child_rank_recomputed_with_docno_tie_break(self):
        # the child ranks its tied scores d2 before d1; fusion re-ranks it by docno
        rows = [{**row, "rank": i} for i, row in enumerate(q1_run(("d2", 1.0), ("d1", 1.0)))]
        tied = Leaf(stub_run("tied", rows, with_rank=True))
        assert tied.transformer.fn(EMPTY_INPUT).column("docno") == ("d2", "d1")
        out = execute(rr_fusion([tied, run_of("b", q1_run(("d3", 5.0)))]), EMPTY_INPUT)
        got = [(r["docno"], r["score"]) for r in out.to_dicts()]
        assert got == [("d1", 1 / 61), ("d3", 1 / 61), ("d2", 1 / 62)]

    def test_rank_only_dependence(self):
        a_rows = q1_run(("d1", 5.0), ("d2", 3.0))
        b_rows = q1_run(("d2", 0.4), ("d3", 0.2))
        base = execute(rr_fusion([run_of("a", a_rows), run_of("b", b_rows)]), EMPTY_INPUT)
        rescaled_a = [{**r, "score": math.exp(r["score"])} for r in a_rows]
        rescaled_b = [{**r, "score": 100.0 * r["score"] + 7} for r in b_rows]
        again = execute(rr_fusion([run_of("a", rescaled_a), run_of("b", rescaled_b)]), EMPTY_INPUT)
        assert base == again

    def test_fused_scores_independent_of_child_order(self):
        rng = random.Random(9)
        runs = [
            q1_run(*((f"d{i}", rng.random()) for i in rng.sample(range(8), 5))) for _ in range(3)
        ]
        forward = execute(
            rr_fusion([run_of(f"r{i}", r) for i, r in enumerate(runs)]), EMPTY_INPUT
        )
        backward = execute(
            rr_fusion([run_of(f"r{i}", r) for i, r in enumerate(reversed(runs))]), EMPTY_INPUT
        )
        assert forward == backward

    def test_children_receive_same_input(self, toy_index, qframe):
        node = rr_fusion([Leaf(bm25_retriever(toy_index)), Leaf(bm25_retriever(toy_index))])
        out = execute(node, qframe)
        single = execute(Leaf(bm25_retriever(toy_index)), qframe)
        assert [r["docno"] for r in out.to_dicts()] == [r["docno"] for r in single.to_dicts()]

    def test_query_column_survives_when_all_children_have_it(self, toy_index, qframe):
        node = rr_fusion([Leaf(bm25_retriever(toy_index)), Leaf(bm25_retriever(toy_index))])
        assert "query" in execute(node, qframe).columns

    def test_query_column_dropped_otherwise(self):
        a = run_of("a", q1_run(("d1", 1.0)))
        b = run_of("b", q1_run(("d2", 2.0)))
        out = execute(rr_fusion([a, b]), EMPTY_INPUT)
        assert "query" not in out.columns


@pytest.mark.parametrize("fuse", [lambda cs: linear(cs, [1.0, 1.0]), rr_fusion], ids=["linear", "rrf"])
class TestFusionChildren:
    @pytest.mark.parametrize(
        "column, value", [("qid", None), ("docno", None), ("score", None), ("score", math.nan)]
    )
    def test_unrankable_row_fails_at_the_child(self, fuse, column, value):
        bad = q1_run(("d1", 2.0), ("d2", 1.0))
        bad[1][column] = value
        node = fuse([run_of("a", q1_run(("d1", 1.0))), run_of("bad", bad)])
        with pytest.raises(DataError) as err:
            execute(node, EMPTY_INPUT)
        assert err.value.path == (1,)

    def test_repeated_key_fails_at_the_child(self, fuse):
        node = fuse([run_of("a", q1_run(("d1", 1.0))), run_of("bad", q1_run(("d1", 2.0), ("d1", 1.0)))])
        with pytest.raises(DataError, match=r"duplicate \(qid, docno\) value \('q1', 'd1'\)") as err:
            execute(node, EMPTY_INPUT)
        assert err.value.path == (1,)


class TestRefusedShapes:
    """Node shapes that the constructors refuse."""

    def test_then_with_one_child(self):
        with pytest.raises(ValueError, match="a sequential node needs at least two children"):
            Then((run_of("a", []),))

    def test_linear_with_no_child(self):
        with pytest.raises(ValueError, match="a linear node needs at least one child"):
            Linear((), ())

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_linear_with_a_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="linear weights must be finite"):
            Linear((run_of("a", []),), (weight,))

    def test_rrf_with_one_child(self):
        with pytest.raises(ValueError, match="rank fusion needs at least two children"):
            RRF((run_of("a", []),))

    def test_linear_combination_of_one_child(self):
        with pytest.raises(ValueError, match="linear combination needs at least two children"):
            linear([run_of("a", [])], [1.0])


class TestExecute:
    def test_leaf_equals_transform(self, toy_index, qframe):
        t = bm25_retriever(toy_index)
        assert execute(Leaf(t), qframe) == t.transform(qframe)

    def test_validation_precedes_execution(self, toy_index_dir, qframe):
        from flowrank.index import load_index

        fresh = load_index(toy_index_dir)
        node = Leaf(lexical_rescorer())
        with pytest.raises(ValidationError) as err:
            execute(node, qframe)
        assert "text" in err.value.diagnostic.missing
        assert not fresh.data_loaded

    def test_execution_error_carries_path(self, toy_index):
        loader = Leaf(text_loader(toy_index))
        bad_input = Relation.from_dicts(
            [{"qid": "q1", "query": "quick", "docno": "d99", "score": 1.0, "rank": 0}],
            ["qid", "query", "docno", "score", "rank"],
        )
        node = then(loader, Leaf(lexical_rescorer()))
        with pytest.raises(UnknownDocno) as err:
            execute(node, bad_input)
        assert err.value.path == (0,)
        assert "[0]" in str(err.value)

    def test_output_satisfies_result_frame_invariants(self, toy_index, qframe):
        node = rr_fusion(
            [Leaf(bm25_retriever(toy_index)), Leaf(bm25_retriever(toy_index))], k=60
        )
        out = execute(node, qframe)
        pairs = [(r["qid"], r["docno"]) for r in out.to_dicts()]
        assert len(pairs) == len(set(pairs))
        by_qid = {}
        for r in out.to_dicts():
            by_qid.setdefault(r["qid"], []).append(r)
        for rows in by_qid.values():
            assert sorted(r["rank"] for r in rows) == list(range(len(rows)))

    def test_rrf_node_defaults(self):
        a = run_of("a", q1_run(("d1", 1.0)))
        b = run_of("b", q1_run(("d2", 2.0)))
        assert RRF((a, b)).k == 60.0
