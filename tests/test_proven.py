"""Outputs the engine has proven ranked skip the checks and the re-sort.

The retrievers and the fusion operators build their ``(qid, docno)`` keys
from dicts and rank through ``frames.rank_tuples``; ``Relation._trusted(...,
ranked=True)`` records that, skips the frame check, and lets fusion take
the rows in the order they come.  ``conftest.recheck`` runs every skipped
check again; criterion 3 and the fuzzers run under it, and these tests show
that it fires on a relation marked ranked that is not.
"""

from __future__ import annotations

import pytest

from flowrank import algebra, transformers
from flowrank.algebra import Leaf, execute, rr_fusion
from flowrank.dsl import elaborate, parse
from flowrank.frames import Relation

from conftest import rechecked_proofs, stub_run

COLUMNS = ("qid", "docno", "score", "rank")
RANKED = [("q1", "d1", 2.0, 0), ("q1", "d2", 1.0, 1), ("q2", "d1", 1.0, 0)]


def test_the_mark_is_private():
    marked, public = Relation._trusted(COLUMNS, RANKED, ranked=True), Relation(COLUMNS, RANKED)
    assert marked._ranked
    assert not public._ranked and not Relation._trusted(COLUMNS, RANKED)._ranked
    assert marked == public and hash(marked) == hash(public) and repr(marked) == repr(public)


@pytest.mark.parametrize(
    "rows",
    [
        [("q1", "d2", 1.0, 1), ("q1", "d1", 2.0, 0)],  # not in ranking order
        [("q1", "d1", 2.0, 0), ("q1", "d1", 1.0, 1)],  # a repeated key
        [("q1", "d2", 1.0, 0), ("q1", "d1", 1.0, 1)],  # a tie not broken by docno
        [("q2", "d1", 2.0, 0), ("q1", "d2", 1.0, 0)],  # qids descending
        [("q1", "d1", 2.0, 1), ("q1", "d2", 1.0, 2)],  # ranks not from 0
        [(None, "d1", 2.0, 0)],  # a null key
    ],
)
def test_a_wrongly_marked_relation_fails_the_recheck(rows):
    Relation._trusted(COLUMNS, rows, ranked=True)  # the engine takes the caller's word
    with rechecked_proofs(), pytest.raises(AssertionError, match="a skipped check fires on a ranked engine output"):
        Relation._trusted(COLUMNS, rows, ranked=True)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda rows: rows[::-1],  # unranked
        lambda rows: rows[:1] + rows,  # a docno twice
    ],
)
def test_a_retriever_marking_a_bad_ranking_fails_the_recheck(toy_registry, qframe, monkeypatch, mutate):
    real = transformers.rank_tuples

    def rank_tuples(columns, rows):
        columns, rows = real(columns, rows)
        return columns, mutate(rows)

    monkeypatch.setattr(transformers, "rank_tuples", rank_tuples)
    node = elaborate(parse("bm25"), toy_registry)
    with rechecked_proofs(), pytest.raises(AssertionError):
        execute(node, qframe)


def test_retriever_and_fusion_outputs_are_marked(toy_registry, qframe):
    bm25 = elaborate(parse("bm25"), toy_registry)
    fused = elaborate(parse("rrf(bm25, sdm >> wbm25)"), toy_registry)
    with rechecked_proofs() as seen:
        assert execute(bm25, qframe)._ranked and execute(fused, qframe)._ranked
    assert seen == {"ranked": 4, "other": 1}  # bm25; bm25, wbm25 and the fusion; sdm
    reranked = elaborate(parse("bm25 >> text_loader >> rescore"), toy_registry)
    assert not execute(reranked, qframe)._ranked


def test_fusion_orders_only_children_not_marked_ranked(toy_registry, qframe, monkeypatch):
    # each call's columns; the fused output is ranked through the same helper, last
    calls, real = [], algebra.rank_tuples
    monkeypatch.setattr(algebra, "rank_tuples", lambda cols, rows: calls.append(tuple(cols)) or real(cols, rows))
    execute(elaborate(parse("rrf(bm25, sdm >> wbm25)"), toy_registry), qframe)
    assert calls == [("qid", "query", "docno", "score", "rank")]
    calls.clear()
    # a custom child (columns qid, docno, score) is put in order, whatever order it came in
    run = [{"qid": "q1", "docno": "d1", "score": 1.0}, {"qid": "q1", "docno": "d2", "score": 2.0}]
    node = rr_fusion([Leaf(stub_run("a", run)), elaborate(parse("bm25"), toy_registry)])
    fused = execute(node, qframe)
    assert calls == [("qid", "docno", "score"), ("qid", "docno", "score", "rank")]
    flipped = rr_fusion([Leaf(stub_run("a", run[::-1])), elaborate(parse("bm25"), toy_registry)])
    assert execute(flipped, qframe) == fused
