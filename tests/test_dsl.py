import random

import pytest

from flowrank.algebra import DEFAULT_RRF_K, Leaf, RRF, Then, execute, then
from flowrank.dsl import _MAX_NESTING, ELinear, ERef, ERRF, EThen, elaborate, parse, render
from flowrank.errors import BadArgument, InvalidK, ParseError, UnknownTransformer
from flowrank.inspect import validate
from flowrank.transformers import bm25_retriever, text_loader

from conftest import random_expr


class TestParse:
    def test_simple_chain(self):
        assert parse("bm25 >> text_loader") == EThen((ERef("bm25"), ERef("text_loader")))

    def test_plus_binds_tighter_than_chain(self):
        expr = parse("a >> 0.5*b + 0.5*c")
        assert expr == EThen((ERef("a"), ELinear((ERef("b"), ERef("c")), (0.5, 0.5))))

    def test_precedence_equivalence(self):
        assert parse("a >> b + c") == parse("a >> (b + c)")

    def test_figure1_head_shape(self):
        expr = parse("rrf(bm25, sdm >> wbm25) >> text_loader")
        assert expr == EThen(
            (ERRF((ERef("bm25"), EThen((ERef("sdm"), ERef("wbm25"))))), ERef("text_loader"))
        )

    def test_rrf_with_k(self):
        assert parse("rrf(a, b, k=30.0)") == ERRF((ERef("a"), ERef("b")), 30.0)

    def test_bare_sum_means_unit_weights(self):
        assert parse("a + b") == ELinear((ERef("a"), ERef("b")), (1.0, 1.0))

    def test_kwargs(self):
        assert parse('x(k1=0.9, n=5, s="hi")') == ERef("x", (("k1", 0.9), ("n", 5), ("s", "hi")))

    def test_rrf_without_k_has_the_default_k(self):
        assert parse("rrf(a, b)") == ERRF((ERef("a"), ERef("b")), DEFAULT_RRF_K)

    @pytest.mark.parametrize(
        "source, message",
        [
            ("bm25(k1=0.5, k1=2.0)", "1:14: keyword 'k1' given twice"),
            ('x(a=1, b="s", a=1)', "1:15: keyword 'a' given twice"),
        ],
    )
    def test_repeated_keyword_is_a_parse_error(self, source, message):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "source, expected",
        [("rrf(a, b, k=x)", {"FLOAT"}), ("x(k1=bm25)", {"FLOAT", "INT", "STRING"})],
    )
    def test_a_name_where_a_value_goes_is_a_parse_error(self, source, expected):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.expected == expected

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("a >> >> b")
        assert err.value.line == 1 and err.value.col == 6
        assert err.value.expected

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("a b")

    def test_rrf_needs_two_pipelines(self):
        with pytest.raises(ParseError):
            parse("rrf(a)")

    def test_weight_requires_star(self):
        with pytest.raises(ParseError):
            parse("0.5 bm25")

    def test_unknown_character(self):
        with pytest.raises(ParseError) as err:
            parse("a >> b & c")
        assert err.value.col == 8


def nested(form: str, depth: int) -> str:
    """*depth* groups around ``bm25`` on one line, or *depth* rrf calls, one a line."""
    if form == "groups":
        return "(" * depth + "bm25" + ")" * depth
    return "rrf(bm25,\n" * depth + "bm25" + ")" * depth


class TestNestingLimit:
    @pytest.mark.parametrize("form", ["groups", "rrf"])
    def test_deepest_allowed_expression_runs(self, form, toy_registry, qframe):
        node = elaborate(parse(nested(form, _MAX_NESTING)), toy_registry)
        assert validate(node, set(qframe.columns)).ok
        out = execute(node, qframe)
        assert set(out.column("qid")) == {"q1", "q2"}

    @pytest.mark.parametrize("form, line, col", [("groups", 1, _MAX_NESTING + 1), ("rrf", _MAX_NESTING + 1, 1)])
    def test_one_level_more_names_the_opening_token(self, form, line, col):
        with pytest.raises(ParseError, match=f"more than {_MAX_NESTING} nested") as err:
            parse(nested(form, _MAX_NESTING + 1))
        assert (err.value.line, err.value.col) == (line, col)

    def test_depth_counts_groups_and_rrf_calls_together(self):
        half = _MAX_NESTING // 2
        parse("(rrf(bm25, " * half + "bm25" + "))" * half)
        with pytest.raises(ParseError) as err:
            parse("(rrf(bm25, " * half + "(bm25)" + "))" * half)
        assert err.value.col == 11 * half + 1


class TestElaborate:
    def test_kwarg_passthrough(self, toy_registry):
        node = elaborate(parse("bm25(k1=0.9)"), toy_registry)
        assert isinstance(node, Leaf)
        assert ("k1", 0.9) in node.transformer.attributes

    def test_unknown_transformer(self, toy_registry):
        with pytest.raises(UnknownTransformer):
            elaborate(parse("nosuch"), toy_registry)

    def test_bad_argument_name(self, toy_registry):
        with pytest.raises(BadArgument):
            elaborate(parse("bm25(q=1)"), toy_registry)

    def test_bad_argument_value(self, toy_registry):
        with pytest.raises(BadArgument):
            elaborate(parse("bm25(b=7.0)"), toy_registry)

    def test_sdm_weights_must_sum_to_one(self, toy_registry):
        with pytest.raises(BadArgument) as err:
            elaborate(parse("sdm(lambda_t=0.5, lambda_o=0.6)"), toy_registry)
        assert str(err.value) == "bad argument for 'sdm': lambda_t + lambda_o must equal 1"

    def test_overflowing_literal_is_rejected(self, toy_registry):
        # 1e999 reads as inf, which Bm25Params and RRF reject
        with pytest.raises(BadArgument):
            elaborate(parse("bm25(k1=1e999)"), toy_registry)
        with pytest.raises(InvalidK):
            elaborate(parse("rrf(bm25, bm25, k=1e999)"), toy_registry)

    @pytest.mark.parametrize(
        "source, detail",
        [
            ("bm25(num_results=" + "9" * 5000 + ")", "integer literal of 5000 digits is too long"),
            ('bm25(s="\\x")', "bad string literal"),
            ("1e999*bm25 + bm25", "weight 1e999 is not a finite number"),
            ("1" + "0" * 400 + "*bm25 + bm25", "too large for a float"),
            ("rrf(bm25, bm25, k=1" + "0" * 400 + ")", "too large for a float"),
        ],
    )
    def test_literal_without_a_value_is_a_parse_error(self, source, detail):
        with pytest.raises(ParseError, match=detail):
            parse(source)

    def test_integer_argument_beyond_the_floats_is_bad_argument(self, toy_registry):
        with pytest.raises(BadArgument):
            elaborate(parse("bm25(k1=1" + "0" * 400 + ")"), toy_registry)

    def test_chain_flattens(self, toy_registry):
        node = elaborate(parse("(bm25 >> text_loader) >> rescore"), toy_registry)
        assert isinstance(node, Then) and len(node.children) == 3

    def test_rrf_default_k(self, toy_registry):
        node = elaborate(parse("rrf(bm25, bm25)"), toy_registry)
        assert isinstance(node, RRF) and node.k == 60.0


class TestRender:
    def test_chain(self, toy_registry):
        node = elaborate(parse("bm25 >> text_loader >> rescore"), toy_registry)
        assert render(node) == "bm25 >> text_loader >> rescore"

    def test_linear_weights_explicit(self, toy_registry):
        node = elaborate(parse("bm25 + 2.0*wbm25"), toy_registry)
        assert render(node) == "1.0*bm25 + 2.0*wbm25"

    def test_rrf_explicit_k(self, toy_registry):
        node = elaborate(parse("rrf(bm25, wbm25)"), toy_registry)
        assert render(node) == "rrf(bm25, wbm25, k=60.0)"

    def test_parenthesizes_chain_inside_weight(self, toy_registry):
        node = elaborate(parse("0.5*(sdm >> wbm25) + 0.5*bm25"), toy_registry)
        assert render(node) == "0.5*(sdm >> wbm25) + 0.5*bm25"

    def test_leaves_without_a_ref_render_their_transformer_names(self, toy_index):
        node = then(Leaf(bm25_retriever(toy_index)), Leaf(text_loader(toy_index)))
        assert render(node) == "bm25 >> text_loader"

    def test_kwargs_rendered(self, toy_registry):
        node = elaborate(parse("bm25(k1=0.9, num_results=5)"), toy_registry)
        assert render(node) == "bm25(k1=0.9, num_results=5)"


class TestRoundTrip:
    def test_random_trees_round_trip(self, toy_registry):
        rng = random.Random(41)
        for _ in range(120):
            tree = elaborate(parse(random_expr(rng, 4)), toy_registry)
            again = elaborate(parse(render(tree)), toy_registry)
            assert again == tree
