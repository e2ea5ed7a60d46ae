import random

import pytest

from flowrank.algebra import Leaf, execute, rr_fusion, then
from flowrank.dsl import elaborate, parse
from flowrank.errors import MissingColumn, ValidationError
from flowrank.inspect import (
    attributes,
    flow,
    format_value,
    input_columns,
    io_report,
    output_columns,
    subtransformers,
    validate,
)
from flowrank.transformers import (
    Transformer,
    TransformerSpec,
    bm25_retriever,
    lexical_rescorer,
    sdm_rewriter,
    text_loader,
    weighted_bm25_retriever,
)

from conftest import random_expr, random_tree, synthesize_relation


def node_at(tree, path):
    for i in path:
        tree = tree.children[i]
    return tree


class TestInputColumns:
    def test_leaf_bm25(self, toy_index):
        assert input_columns(Leaf(bm25_retriever(toy_index))) == [frozenset({"qid", "query"})]

    def test_chain_head_dominates(self, toy_index):
        node = then(Leaf(bm25_retriever(toy_index)), Leaf(text_loader(toy_index)))
        assert input_columns(node) == [frozenset({"qid", "query"})]

    def test_fusion_branch_intersection(self, toy_index):
        node = rr_fusion(
            [
                Leaf(bm25_retriever(toy_index)),
                then(Leaf(sdm_rewriter()), Leaf(weighted_bm25_retriever(toy_index))),
            ]
        )
        assert input_columns(node) == [frozenset({"qid", "query"})]

    def test_a_transformer_must_declare_a_spec(self):
        # a stage without a TransformerSpec could never pass validation, so
        # it is refused where it is built, by name
        for bad in (None, {"qid"}, (frozenset({"qid"}), frozenset({"qid"}))):
            with pytest.raises(TypeError, match="'opaque'"):
                Transformer("opaque", "no spec", (), bad, lambda rel: rel)

    def test_a_spec_accepts_each_input_configuration_once(self):
        with pytest.raises(ValueError, match="at least one input configuration"):
            TransformerSpec(())
        once = (frozenset({"qid"}), frozenset({"qid"}))
        with pytest.raises(ValueError, match="declared more than once"):
            TransformerSpec((once, once))

    def test_unsatisfiable_fusion_is_empty(self):
        node = rr_fusion([Leaf(sdm_rewriter()), Leaf(sdm_rewriter())])
        assert input_columns(node) == []


class TestOutputColumns:
    def test_bm25(self, toy_index):
        out = output_columns(Leaf(bm25_retriever(toy_index)), {"qid", "query"})
        assert out == frozenset({"qid", "query", "docno", "rank", "score"})

    def test_text_loader_union(self, toy_index):
        out = output_columns(Leaf(text_loader(toy_index)), {"qid", "docno", "score", "rank"})
        assert out == frozenset({"qid", "docno", "score", "rank", "text"})

    def test_figure1_folds_to_answer(self, figure1):
        assert output_columns(figure1, {"qid", "query"}) == frozenset({"qid", "qanswer"})

    def test_not_satisfied(self, toy_index):
        with pytest.raises(ValidationError):
            output_columns(Leaf(bm25_retriever(toy_index)), {"docno"})

    def test_first_declared_set_wins(self):
        two_ways = Transformer(
            name="two_ways",
            description="",
            attributes=(),
            spec=TransformerSpec(
                outputs=(
                    (frozenset({"qid"}), frozenset({"qid", "a"})),
                    (frozenset({"docno"}), frozenset({"docno", "b"})),
                ),
            ),
            fn=lambda rel: rel,
        )
        out = output_columns(Leaf(two_ways), {"qid", "docno"})
        assert out == frozenset({"qid", "a"})


class TestValidate:
    def test_full_chain_passes(self, toy_index):
        node = then(
            then(Leaf(bm25_retriever(toy_index)), Leaf(text_loader(toy_index))),
            Leaf(lexical_rescorer()),
        )
        assert validate(node, {"qid", "query"}).ok

    def test_first_failure_reported(self, toy_index):
        node = then(Leaf(bm25_retriever(toy_index)), Leaf(lexical_rescorer()))
        diag = validate(node, {"qid", "query"})
        assert not diag.ok
        assert diag.failing_path == (1,)
        assert diag.missing == frozenset({"text"})
        assert diag.message == (
            "invalid pipeline at [1]: rescore requires {docno, qid, query, text} "
            "but only {docno, qid, query, rank, score} available"
        )

    def test_empty_input(self, toy_index):
        diag = validate(Leaf(bm25_retriever(toy_index)), set())
        assert not diag.ok
        assert diag.missing == frozenset({"qid", "query"})

    def test_validation_never_runs_transforms(self, toy_index):
        exploding = Transformer(
            name="exploding",
            description="",
            attributes=(),
            spec=TransformerSpec(
                outputs=((frozenset({"qid"}), frozenset({"qid"})),),
            ),
            fn=lambda rel: (_ for _ in ()).throw(RuntimeError("ran")),
        )
        node = then(Leaf(exploding), Leaf(bm25_retriever(toy_index)))
        validate(node, {"qid", "query"})
        validate(node, set())

    def test_fusion_child_must_produce_ranking(self):
        node = rr_fusion([Leaf(sdm_rewriter()), Leaf(sdm_rewriter())])
        diag = validate(node, {"qid", "query"})
        assert not diag.ok
        assert diag.failing_path == (0,)
        assert diag.missing == frozenset({"docno", "score"})


class TestFlow:
    def test_figure1_steps_in_preorder(self, figure1):
        steps = flow(figure1, {"qid", "query"})
        assert [(path, step.label) for path, step in steps.items()] == [
            ((), "chain"),
            ((0,), "rrf"),
            ((0, 0), "bm25"),
            ((0, 1), "chain"),
            ((0, 1, 0), "sdm"),
            ((0, 1, 1), "wbm25"),
            ((1,), "text_loader"),
            ((2,), "rescore"),
            ((3,), "answer"),
        ]
        assert all(step.path == path for path, step in steps.items())
        ranked = frozenset({"qid", "query", "docno", "score", "rank"})
        assert steps[(0, 1, 0)].inputs == steps[(0, 1)].inputs == frozenset({"qid", "query"})
        assert steps[(0,)].outputs == steps[(1,)].inputs == ranked
        assert steps[(2,)].inputs == ranked | {"text"}
        assert steps[()].outputs == steps[(3,)].outputs == frozenset({"qid", "qanswer"})

    def test_failure_carries_the_validate_diagnostic(self, toy_index):
        rescored = then(Leaf(sdm_rewriter()), Leaf(lexical_rescorer()))
        node = rr_fusion([Leaf(bm25_retriever(toy_index)), rescored])
        with pytest.raises(ValidationError) as err:
            flow(node, {"qid", "query"})
        assert err.value.diagnostic == validate(node, {"qid", "query"})
        assert err.value.diagnostic.failing_path == (1, 1)


class TestSubtransformersAndAttributes:
    def test_single_leaf_has_root_path(self, toy_index):
        t = bm25_retriever(toy_index)
        assert subtransformers(Leaf(t)) == [((), t)]

    def test_chain_preorder(self, toy_index):
        a, b = bm25_retriever(toy_index), text_loader(toy_index)
        assert subtransformers(then(Leaf(a), Leaf(b))) == [((0,), a), ((1,), b)]

    def test_figure1_has_six_leaves_in_order(self, figure1):
        names = [t.name for _, t in subtransformers(figure1)]
        assert names == ["bm25", "sdm", "wbm25", "text_loader", "rescore", "answer"]

    def test_chain_concatenates_with_path_prefixes(self, toy_index):
        a = then(Leaf(sdm_rewriter()), Leaf(bm25_retriever(toy_index)))
        b = Leaf(text_loader(toy_index))
        combined = subtransformers(then(a, b))
        prefixed = [((i,) + path, t) for i, node in enumerate((a, b))
                    for path, t in subtransformers(node)]
        # then() flattens, so the combined paths are the flat positions
        assert [t for _, t in combined] == [t for _, t in prefixed]
        assert [p for p, _ in combined] == [(0,), (1,), (2,)]

    def test_attribute_rendering(self, toy_index):
        assert attributes(bm25_retriever(toy_index)) == [
            ("k1", "1.200000"),
            ("b", "0.750000"),
            ("num_results", "1000"),
        ]
        assert attributes(sdm_rewriter()) == [("lambda_t", "0.900000"), ("lambda_o", "0.100000")]
        loader_attrs = attributes(text_loader(toy_index))
        assert [k for k, _ in loader_attrs] == ["index"]
        assert str(toy_index.path) in loader_attrs[0][1]

    def test_booleans_render_in_lower_case(self):
        assert (format_value(True), format_value(False)) == ("true", "false")

    def test_io_report(self, toy_index):
        report = io_report(Leaf(bm25_retriever(toy_index)))
        assert list(report) == [frozenset({"qid", "query"})]
        assert report[frozenset({"qid", "query"})] == frozenset(
            {"qid", "query", "docno", "rank", "score"}
        )


class TestSoundnessAndAgreement:
    """validate ok implies execution succeeds with exactly the inspected columns."""

    def test_random_trees(self, toy_index, toy_registry, synthetic_transformers):
        pool = [factory() for factory in toy_registry.values()] + synthetic_transformers
        rng = random.Random(23)
        checked = 0
        for _ in range(120):
            tree = random_tree(pool, rng)
            accepted = input_columns(tree)
            if not accepted:
                continue
            given = accepted[0]
            assert validate(tree, given).ok
            rel_in = synthesize_relation(given, rng)
            try:
                out = execute(tree, rel_in)
            except MissingColumn as exc:
                pytest.fail(f"validated tree raised MissingColumn: {exc}")
            assert set(out.columns) == set(output_columns(tree, given))
            checked += 1
        assert checked >= 40

    def test_every_node_agrees_with_flow(self, toy_registry, synthetic_transformers):
        """Each subtree, run on a relation with its static inputs, yields its static outputs."""
        pool = [factory() for factory in toy_registry.values()] + synthetic_transformers
        rng = random.Random(23)
        trees = [random_tree(pool, rng) for _ in range(120)]
        # fusion nodes are rarely satisfiable, so draw many expressions
        trees += [elaborate(parse(random_expr(rng, 4)), toy_registry) for _ in range(400)]
        nodes, fusions = 0, 0
        for tree in trees:
            accepted = input_columns(tree)
            if not accepted:
                continue
            for path, step in flow(tree, accepted[0]).items():
                out = execute(node_at(tree, path), synthesize_relation(step.inputs, rng))
                assert set(out.columns) == step.outputs, f"{step.label} at {path}"
                nodes += 1
                fusions += step.label in ("linear", "rrf")
        assert nodes >= 200 and fusions >= 10
