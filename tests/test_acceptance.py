"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.
"""

import json
import math
import random
import re
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path


from flowrank.algebra import Leaf, execute, linear, rr_fusion
from flowrank.dsl import elaborate, parse, render
from flowrank.errors import MissingColumn
from flowrank.frames import Relation, format_trec_run
from flowrank.index import build_index, load_index
from flowrank.inspect import input_columns, output_columns, validate
from flowrank.mcp import ServerConfig, relation_to_json_rows, serve
from flowrank.schematic import build_schematic, render_html, render_text
from flowrank.transformers import bm25_retriever, registry

from conftest import (
    EMPTY_INPUT,
    FIGURE1_EXPR,
    TOY5,
    random_expr,
    random_tree,
    rechecked_proofs,
    stub_run,
    synthesize_relation,
)

GOLDENS = Path(__file__).parent / "goldens"


@contextmanager
def criterion(number: int, limit_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s (budget {limit_s}s)"
    print(f"criterion {number:2d}: PASS  ({elapsed:.3f}s < {limit_s:g}s)  {description}")


def test_criterion_1_inspection_facts(toy_index):
    with criterion(1, 1.0, "BM25 accepted inputs and outputs reproduced exactly"):
        node = Leaf(bm25_retriever(toy_index))
        assert input_columns(node) == [frozenset({"qid", "query"})]
        assert output_columns(node, {"qid", "query"}) == frozenset(
            {"qid", "query", "docno", "rank", "score"}
        )


def test_criterion_2_validation_semantics(toy_index_dir):
    with criterion(2, 1.0, "missing-text failure located without executing anything"):
        index = load_index(toy_index_dir)  # fresh handle: meta only
        reg = registry(index)
        failing = elaborate(parse("bm25 >> rescore"), reg)
        diagnostic = validate(failing, {"qid", "query"})
        assert not diagnostic.ok
        assert diagnostic.failing_path == (1,)
        assert diagnostic.missing == frozenset({"text"})
        passing = elaborate(parse("bm25 >> text_loader >> rescore"), reg)
        assert validate(passing, {"qid", "query"}).ok
        assert not index.data_loaded, "validation touched document data"


def test_criterion_3_soundness_and_agreement(toy_registry, synthetic_transformers):
    # every relation the engine builds passes the checks it skipped
    with criterion(3, 30.0, "500 random trees: validate ok implies clean execution"), rechecked_proofs() as seen:
        pool = [factory() for factory in toy_registry.values()] + synthetic_transformers
        given_pool = [
            frozenset({"qid", "query"}),
            frozenset({"qid", "query", "docno", "score", "rank"}),
            frozenset({"qid", "query", "docno", "score", "rank", "text"}),
            frozenset({"qid", "query_vec"}),
            frozenset({"docno"}),
            frozenset({"qid", "qanswer"}),
        ]
        rng = random.Random(2024)
        executed = 0
        for i in range(500):
            tree = random_tree(pool, rng)
            candidates = [rng.choice(given_pool)]
            accepted = input_columns(tree)
            if accepted:
                candidates.append(accepted[0])
            for given in candidates:
                diagnostic = validate(tree, given)
                if not diagnostic.ok:
                    continue
                rel_in = synthesize_relation(given, rng)
                try:
                    out = execute(tree, rel_in)
                except MissingColumn as exc:  # soundness violation
                    raise AssertionError(f"tree {i}: MissingColumn after ok validation: {exc}")
                assert set(out.columns) == set(output_columns(tree, given)), f"tree {i}"
                executed += 1
        assert executed >= 100, f"only {executed} validated executions exercised"
        assert seen["ranked"] >= 100 and seen["other"] >= 100, seen


def _random_runs(rng, n_children_range=(2, 4), max_qids=5, max_docnos=20):
    qids = [f"q{i}" for i in range(1, rng.randint(1, max_qids) + 1)]
    docnos = [f"d{i:02d}" for i in range(max_docnos)]
    runs = []
    for _ in range(rng.randint(*n_children_range)):
        rows = []
        for qid in qids:
            for docno in rng.sample(docnos, rng.randint(1, 8)):
                rows.append({"qid": qid, "docno": docno, "score": rng.uniform(0.1, 10.0)})
        runs.append(rows)
    return runs


def _oracle_child_ranks(rows):
    by_qid = {}
    for row in rows:
        by_qid.setdefault(row["qid"], []).append(row)
    ranks = {}
    for qid, group in by_qid.items():
        group.sort(key=lambda r: (-r["score"], r["docno"]))
        for position, row in enumerate(group, start=1):
            ranks[(qid, row["docno"])] = position
    return ranks


def _oracle_ranking(scores):
    by_qid = {}
    for (qid, docno), score in scores.items():
        by_qid.setdefault(qid, []).append((docno, score))
    expected = {}
    for qid, pairs in by_qid.items():
        pairs.sort(key=lambda x: (-x[1], x[0]))
        for position, (docno, _) in enumerate(pairs):
            expected[(qid, docno)] = position
    return expected


def _monotone_map(rng):
    kind = rng.choice(["affine", "cube", "exp"])
    if kind == "affine":
        a, b = rng.uniform(0.5, 5.0), rng.uniform(-3.0, 3.0)
        return lambda x: a * x + b
    if kind == "cube":
        return lambda x: x**3
    return lambda x: math.exp(x / 10.0)


def test_criterion_4_rrf_oracle():
    with criterion(4, 30.0, "1000 RRF instances vs brute force, plus rank-only invariance"):
        rng = random.Random(4001)
        for i in range(1000):
            runs = _random_runs(rng)
            node = rr_fusion([Leaf(stub_run(f"r{j}", rows)) for j, rows in enumerate(runs)])
            out = execute(node, EMPTY_INPUT)
            fused = {}
            for rows in runs:
                for key, rank in _oracle_child_ranks(rows).items():
                    fused[key] = fused.get(key, 0.0) + 1.0 / (60.0 + rank)
            expected_ranks = _oracle_ranking(fused)
            got = {(r["qid"], r["docno"]): r for r in out.to_dicts()}
            assert set(got) == set(fused), f"instance {i}: fused document set differs"
            for key, row in got.items():
                assert row["rank"] == expected_ranks[key], f"instance {i}: rank mismatch at {key}"
                assert abs(row["score"] - fused[key]) <= 1e-12, f"instance {i}: score at {key}"
            if i % 10 == 0:  # monotone rescaling leaves the fused relation identical
                rescaled = []
                for rows in runs:
                    f = _monotone_map(rng)
                    rescaled.append([{**r, "score": f(r["score"])} for r in rows])
                node2 = rr_fusion(
                    [Leaf(stub_run(f"s{j}", rows)) for j, rows in enumerate(rescaled)]
                )
                assert execute(node2, EMPTY_INPUT) == out, f"instance {i}: not rank-only"


def test_criterion_5_linear_oracle():
    with criterion(5, 30.0, "1000 linear-combination instances vs zero-fill brute force"):
        rng = random.Random(5001)
        for i in range(1000):
            runs = _random_runs(rng)
            weights = [rng.uniform(0.0, 2.0) for _ in runs]
            node = linear(
                [Leaf(stub_run(f"r{j}", rows)) for j, rows in enumerate(runs)], weights
            )
            out = execute(node, EMPTY_INPUT)
            fused = {}
            for weight, rows in zip(weights, runs):
                for row in rows:
                    key = (row["qid"], row["docno"])
                    fused[key] = fused.get(key, 0.0) + weight * row["score"]
            expected_ranks = _oracle_ranking(fused)
            got = {(r["qid"], r["docno"]): r for r in out.to_dicts()}
            assert set(got) == set(fused), f"instance {i}"
            for key, row in got.items():
                assert row["rank"] == expected_ranks[key], f"instance {i}: rank at {key}"
                assert abs(row["score"] - fused[key]) <= 1e-12, f"instance {i}: score at {key}"
        # A + A doubles every score and keeps the ranking order
        rows = _random_runs(rng, n_children_range=(1, 1))[0]
        single = execute(Leaf(stub_run("a", rows)), EMPTY_INPUT)
        doubled = execute(
            linear([Leaf(stub_run("a", rows)), Leaf(stub_run("a", rows))], [1.0, 1.0]),
            EMPTY_INPUT,
        )
        from flowrank.frames import sort_and_rank

        base = sort_and_rank(single)
        assert [(r["qid"], r["docno"], r["rank"]) for r in doubled.to_dicts()] == [
            (r["qid"], r["docno"], r["rank"]) for r in base.to_dicts()
        ]
        for got_row, base_row in zip(doubled.to_dicts(), base.to_dicts()):
            assert got_row["score"] == base_row["score"] * 2.0


def test_criterion_6_bm25_desk_oracle(toy_index, qframe):
    with criterion(6, 1.0, "BM25 on TOY5 matches the direct-formula oracle to 1e-9"):
        node = Leaf(bm25_retriever(toy_index))
        out = execute(node, qframe)
        docs = {d: t.lower().split() for d, t in TOY5}
        avgdl = sum(len(t) for t in docs.values()) / len(docs)

        def oracle(query, docno):
            toks = docs[docno]
            s = 0.0
            for term in query.split():
                tf = toks.count(term)
                if not tf:
                    continue
                df = sum(1 for t in docs.values() if term in t)
                idf = math.log(1.0 + (5 - df + 0.5) / (df + 0.5))
                s += idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * len(toks) / avgdl))
            return s

        assert len(out) > 0
        for row in out.to_dicts():
            expected = oracle(row["query"], row["docno"])
            assert abs(row["score"] - expected) <= 1e-9, row
        first = format_trec_run(execute(node, qframe))
        second = format_trec_run(execute(node, qframe))
        assert first == second and first.encode() == second.encode()


def test_criterion_7_schematic_goldens(tmp_path, monkeypatch):
    with criterion(7, 1.0, "figure-1 schematic matches committed goldens byte for byte"):
        monkeypatch.chdir(tmp_path)
        build_index(TOY5, "ix")
        node = elaborate(parse(FIGURE1_EXPR), registry(load_index("ix")))
        graph = build_schematic(node, {"qid", "query"})
        html_1, html_2 = render_html(graph), render_html(graph)
        text_1, text_2 = render_text(graph), render_text(graph)
        assert html_1 == html_2 and text_1 == text_2
        assert html_1 == (GOLDENS / "figure1.html").read_text(encoding="utf-8")
        assert text_1 == (GOLDENS / "figure1.txt").read_text(encoding="utf-8")
        assert html_1.count("data-fusion=") == 1
        assert html_1.count("data-path=") == 6
        badges = re.findall(r'data-frame="([^"]+)"', html_1)
        assert badges[-1] == "A"


def test_criterion_8_mcp_conformance(toy_registry):
    with criterion(8, 5.0, "scripted MCP session: initialize, tools/list, tools/call"):
        node = elaborate(parse("bm25"), toy_registry)
        config = ServerConfig(port=0, pipelines={"bm25": (node, "BM25 over the toy corpus")})
        with serve(config) as handle:

            def rpc(payload, raw=None):
                data = raw if raw is not None else json.dumps(payload).encode()
                req = urllib.request.Request(
                    handle.url, data=data, headers={"Content-Type": "application/json"}
                )
                with urllib.request.urlopen(req, timeout=5) as resp:
                    return json.loads(resp.read())

            init = rpc({"jsonrpc": "2.0", "id": 1, "method": "initialize"})
            assert init["id"] == 1 and init["result"]["protocolVersion"] == "2025-03-26"

            listed = rpc({"jsonrpc": "2.0", "id": 2, "method": "tools/list"})
            (tool,) = listed["result"]["tools"]
            assert tool["name"] == "bm25"
            assert tool["inputSchema"]["properties"]["queries"]["items"]["required"] == [
                "qid",
                "query",
            ]

            called = rpc(
                {
                    "jsonrpc": "2.0",
                    "id": 3,
                    "method": "tools/call",
                    "params": {
                        "name": "bm25",
                        "arguments": {"queries": [{"qid": "q1", "query": "quick fox"}]},
                    },
                }
            )
            local = execute(
                node, Relation.from_dicts([{"qid": "q1", "query": "quick fox"}], ["qid", "query"])
            )
            assert called["result"]["rows"] == relation_to_json_rows(local)
            assert called["result"]["isError"] is False

            bad = rpc(None, raw=b"this is not json")
            assert bad["error"]["code"] == -32700 and bad["id"] is None
            unknown = rpc({"jsonrpc": "2.0", "id": 42, "method": "tools/nope"})
            assert unknown["error"]["code"] == -32601 and unknown["id"] == 42


def test_criterion_9_figure1_end_to_end(figure1, qframe):
    with criterion(9, 1.0, "figure-1 pipeline yields an answer frame for two queries"):
        out = execute(figure1, qframe)
        assert out.kind.abbr == "A"
        assert len(out) == 2
        qids = out.column("qid")
        assert len(set(qids)) == 2
        assert all(isinstance(a, str) and a for a in out.column("qanswer"))


def test_criterion_10_dsl_round_trip(toy_registry):
    with criterion(10, 10.0, "500 random expressions survive render/parse/elaborate"):
        rng = random.Random(10001)
        for _ in range(500):
            tree = elaborate(parse(random_expr(rng, 4)), toy_registry)
            assert elaborate(parse(render(tree)), toy_registry) == tree
        assert parse("a >> b + c") == parse("a >> (b + c)")
