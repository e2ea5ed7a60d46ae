import random
import re
from pathlib import Path

import pytest

from flowrank import inspect as fr_inspect
from flowrank.algebra import Leaf, rr_fusion, then
from flowrank.dsl import elaborate, parse, render
from flowrank.errors import ValidationError
from flowrank.frames import canonical_columns
from flowrank.index import build_index, load_index
from flowrank.inspect import flow, input_columns, output_columns, subtransformers
from flowrank.schematic import (
    Box,
    Fork,
    badge_kind,
    build_schematic,
    render_html,
    render_text,
)
from flowrank.transformers import Transformer, bm25_retriever, lexical_rescorer, registry, spec, text_loader

from conftest import FIGURE1_EXPR, TOY5, random_expr

GOLDENS = Path(__file__).parent / "goldens"


@pytest.fixture()
def relpath_registry(tmp_path, monkeypatch):
    # goldens embed the index path in tooltips, so pin it to a relative name
    monkeypatch.chdir(tmp_path)
    build_index(TOY5, "ix")
    return registry(load_index("ix"))


class TestBadgeKind:
    def test_table_kinds(self):
        assert badge_kind({"qid", "query"}) == "Q"
        assert badge_kind({"docno", "text"}) == "D"
        assert badge_kind({"qid", "qanswer"}) == "A"
        assert badge_kind({"qid", "docno", "score", "rank"}) == "R"

    def test_query_rides_along_in_result_badges(self):
        assert badge_kind({"qid", "query", "docno", "score", "rank"}) == "R"

    def test_other_extras_mark_extension(self):
        assert badge_kind({"qid", "query", "docno", "score", "rank", "text"}) == "R+"
        assert badge_kind({"qid", "query", "query_vec"}) == "Q+"

    def test_unclassified(self):
        assert badge_kind({"docno"}) == "?"


class TestBuildSchematic:
    def test_single_box_with_q_and_r_badges(self, toy_index):
        g = build_schematic(Leaf(bm25_retriever(toy_index)), {"qid", "query"})
        assert g.entry.kind == "Q"
        ((stage, badge),) = g.items
        assert isinstance(stage, Box) and stage.title == "bm25"
        assert badge.kind == "R"

    def test_invalid_pipeline_raises(self, toy_index):
        with pytest.raises(ValidationError):
            build_schematic(Leaf(lexical_rescorer()), {"qid", "query"})

    def test_figure1_shape(self, figure1):
        g = build_schematic(figure1, {"qid", "query"})
        fork = g.items[0][0]
        assert isinstance(fork, Fork) and fork.op == "rrf" and len(fork.lanes) == 2
        boxes = [stage for stage, _ in g.items[1:]]
        assert [b.title for b in boxes] == ["text_loader", "rescore", "answer"]
        assert g.items[-1][1].kind == "A"

    def test_badges_agree_with_inspection(self, toy_index):
        node = then(
            then(Leaf(bm25_retriever(toy_index)), Leaf(text_loader(toy_index))),
            Leaf(lexical_rescorer()),
        )
        given = frozenset({"qid", "query"})
        g = build_schematic(node, given)
        cols = given
        prefix = None
        for (stage, badge), child in zip(g.items, node.children):
            prefix = child if prefix is None else then(prefix, child)
            cols = output_columns(prefix, given)
            assert set(badge.columns) == set(cols)
            assert badge.columns == tuple(canonical_columns(cols))

    def test_every_leaf_appears_once_in_order(self, figure1):
        g = build_schematic(figure1, {"qid", "query"})
        seen = []

        def collect(items):
            for stage, _ in items:
                if isinstance(stage, Box):
                    seen.append(stage.path)
                else:
                    for lane in stage.lanes:
                        collect(lane)

        collect(g.items)
        assert seen == [path for path, _ in subtransformers(figure1)]


class TestRenderText:
    def test_leaf(self, toy_index):
        g = build_schematic(Leaf(bm25_retriever(toy_index)), {"qid", "query"})
        assert render_text(g) == "--Q--> [bm25] --R-->\n"

    def test_chain_marks_extension(self, toy_index):
        node = then(Leaf(bm25_retriever(toy_index)), Leaf(text_loader(toy_index)))
        g = build_schematic(node, {"qid", "query"})
        assert render_text(g) == "--Q--> [bm25] --R--> [text_loader] --R+-->\n"

    def test_fork_is_stacked_lanes_with_join(self, toy_index):
        node = rr_fusion([Leaf(bm25_retriever(toy_index)), Leaf(bm25_retriever(toy_index))])
        g = build_schematic(node, {"qid", "query"})
        assert render_text(g) == (
            "--Q--> [bm25] --R-->\n--Q--> [bm25] --R-->\n}=rrf=> --R-->\n"
        )

    def test_fork_after_a_stage_ends_the_stage_line(self, toy_registry):
        node = elaborate(parse("sdm >> rrf(wbm25, bm25) >> text_loader"), toy_registry)
        g = build_schematic(node, {"qid", "query"})
        assert render_text(g) == (
            "--Q--> [sdm] --Q-->\n"
            "--Q--> [wbm25] --R-->\n"
            "--Q--> [bm25] --R-->\n"
            "}=rrf=> --R--> [text_loader] --R+-->\n"
        )

    def test_linear_fork_join_label(self, toy_index):
        from flowrank.algebra import linear

        node = linear(
            [Leaf(bm25_retriever(toy_index)), Leaf(bm25_retriever(toy_index))], [0.5, 0.5]
        )
        g = build_schematic(node, {"qid", "query"})
        assert "}=linear=>" in render_text(g)
        assert 'data-fusion="linear"' in render_html(g)


class TestRenderExpression:
    @pytest.mark.parametrize("src", ['x(s="a\\"b\\n")', 'x(s="")', 'x(s=" ")'])
    def test_string_keyword_round_trips(self, src):
        def x(s):
            return Transformer("x", "holds a string", (("s", s),), spec({"qid"}, {"qid"}), lambda rel: rel)

        node = elaborate(parse(src), {"x": x})
        assert elaborate(parse(render(node)), {"x": x}) == node


class TestGoldens:
    def figure1_graph(self, relpath_registry):
        node = elaborate(parse(FIGURE1_EXPR), relpath_registry)
        return build_schematic(node, {"qid", "query"})

    def test_html_matches_golden_and_is_deterministic(self, relpath_registry):
        g = self.figure1_graph(relpath_registry)
        first, second = render_html(g), render_html(g)
        assert first == second
        assert first == (GOLDENS / "figure1.html").read_text(encoding="utf-8")

    def test_text_matches_golden_and_is_deterministic(self, relpath_registry):
        g = self.figure1_graph(relpath_registry)
        first, second = render_text(g), render_text(g)
        assert first == second
        assert first == (GOLDENS / "figure1.txt").read_text(encoding="utf-8")

    def test_html_structure_contract(self, relpath_registry):
        html = render_html(self.figure1_graph(relpath_registry))
        assert 'data-schematic-version="1"' in html
        assert html.count("data-path=") == 6
        assert html.count("data-fusion=") == 1
        badges = re.findall(r'data-frame="([^"]+)"', html)
        assert set(badges) <= {"Q", "D", "R", "A", "Q+", "D+", "R+", "A+"}
        assert badges[-1] == "A"
        assert "<script" not in html and "http" not in html

    def test_boxes_carry_tooltips(self, relpath_registry):
        html = render_html(self.figure1_graph(relpath_registry))
        assert "k1=1.200000" in html
        assert "lambda_o=0.100000" in html


class TestRandomChains:
    def test_badges_never_contradict_inspection(self, toy_registry):
        rng = random.Random(5)
        names = ["bm25", "wbm25", "sdm", "text_loader", "rescore", "answer"]
        for _ in range(40):
            expr = " >> ".join(rng.sample(names, rng.randint(1, 3)))
            node = elaborate(parse(expr), toy_registry)
            accepted = input_columns(node)
            if not accepted:
                continue
            g = build_schematic(node, accepted[0])
            assert set(g.items[-1][1].columns) == set(output_columns(node, accepted[0]))


class TestFlowAgreement:
    """Every stage and badge of a schematic reads the step at its own path."""

    def test_random_trees_with_fusion(self, toy_registry):
        rng = random.Random(8)
        fusions = 0
        for _ in range(300):
            node = elaborate(parse(random_expr(rng, 4)), toy_registry)
            accepted = input_columns(node)
            if not accepted:
                continue
            steps = flow(node, accepted[0])
            seen = []

            def check(items):
                nonlocal fusions
                for stage, badge in items:
                    step = steps[stage.path]
                    seen.append(stage.path)
                    assert badge.columns == tuple(canonical_columns(step.outputs))
                    assert badge.kind == badge_kind(step.outputs)
                    if isinstance(stage, Box):
                        assert stage.title == step.label
                    else:
                        assert stage.op == step.label
                        fusions += 1
                        for lane in stage.lanes:
                            check(lane)

            check(build_schematic(node, accepted[0]).items)
            assert seen == [path for path, step in steps.items() if step.label != "chain"]
        assert fusions >= 10

    def test_deep_fusion_is_walked_once(self, toy_index, monkeypatch):
        node = Leaf(bm25_retriever(toy_index))
        for _ in range(30):
            node = rr_fusion([node, Leaf(bm25_retriever(toy_index))])
        entered = []
        original = fr_inspect._flow

        def counting(node, path, *args):
            entered.append(path)
            return original(node, path, *args)

        monkeypatch.setattr(fr_inspect, "_flow", counting)
        g = build_schematic(node, {"qid", "query"})
        assert len(entered) == len(set(entered)) == 61
        assert g.items[0][0].op == "rrf" and g.items[0][1].kind == "R"
