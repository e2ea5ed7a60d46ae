"""Textual pipeline expressions: parser, elaboration, and rendering.

Grammar (whitespace-insensitive between tokens)::

    pipeline := seq ;
    seq      := sum ( ">>" sum )* ;
    sum      := term ( "+" term )* ;
    term     := ( FLOAT "*" )? atom ;
    atom     := "rrf" "(" pipeline ( "," pipeline )+ ( "," "k" "=" FLOAT )? ")"
              | IDENT ( "(" kwargs? ")" )?
              | "(" pipeline ")" ;
    kwargs   := IDENT "=" value ( "," IDENT "=" value )* ;
    value    := FLOAT | INT | STRING ;

``+`` binds tighter than ``>>``: ``a >> b + c`` means ``a >> (b + c)``.
Both operators are left-associative; in a sum, a bare term gets weight 1.0.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping

from .algebra import DEFAULT_RRF_K, Leaf, Linear, PipelineNode, RRF, Then, rr_fusion, then
from .errors import BadArgument, ParseError, UnknownTransformer


# --------------------------------------------------------------------------
# Expression AST
# --------------------------------------------------------------------------


class PipelineExpr:
    __slots__ = ()


@dataclass(frozen=True)
class ERef(PipelineExpr):
    name: str
    kwargs: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class EThen(PipelineExpr):
    children: tuple[PipelineExpr, ...]


@dataclass(frozen=True)
class ELinear(PipelineExpr):
    children: tuple[PipelineExpr, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class ERRF(PipelineExpr):
    children: tuple[PipelineExpr, ...]
    k: float | None = None


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | NUMBER | STRING | OP | EOF
    text: str
    value: object
    line: int
    col: int


# one alternative per kind, tried in this order: ">>" before the
# one-character operators, and any other character is an error
_TOKEN = re.compile(
    r"""(?P<NEWLINE>\n)
    | (?P<SPACE>[ \t\r]+)
    | (?P<OP>>>|[+*(),=])
    | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<IDENT>[a-z_][a-z0-9_]*)
    | (?P<STRING>"(?:\\.|[^"\\])*")
    | (?P<OTHER>.)""",
    re.VERBOSE,
)


def _lex(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: the offset just past the last newline
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        if kind == "SPACE":
            continue
        if kind == "OTHER":
            raise ParseError(line, col, f"unexpected character {text!r}")
        try:
            if kind == "NUMBER":
                value = float(text) if ("." in text or "e" in text or "E" in text) else int(text)
            else:
                value = json.loads(text) if kind == "STRING" else text
        except json.JSONDecodeError as exc:  # an escape or control character JSON does not allow
            raise ParseError(line, col, f"bad string literal: {exc.msg}") from None
        except ValueError:  # more digits than int() converts
            raise ParseError(line, col, f"integer literal of {len(text)} digits is too long") from None
        tokens.append(Token(kind, text, value, line, col))
    tokens.append(Token("EOF", "", None, line, len(src) - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# how many "(" groups and "rrf(" calls may enclose one another: the parser,
# and every stage after it, recurse once or more per level
_MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.tokens = _lex(src)
        self.pos = 0
        self.depth = 0  # groups and rrf calls open around the current token

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, detail: str, expected=()) -> ParseError:
        tok = self.peek()
        return ParseError(tok.line, tok.col, detail, expected)

    @staticmethod
    def float_of(tok: Token) -> float:
        try:
            return float(tok.value)
        except OverflowError:  # an integer literal beyond the floats
            raise ParseError(tok.line, tok.col, f"number {tok.text} is too large for a float") from None

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == op:
            return self.advance()
        raise self.error(f"got {tok.text or 'end of input'!r}", expected={repr(op)})

    def at_op(self, op: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == "OP" and tok.text == op

    def nest(self, tok: Token, parse: Callable[[], PipelineExpr]) -> PipelineExpr:
        """*parse* one level deeper, opened by *tok*."""
        if self.depth == _MAX_NESTING:
            raise ParseError(tok.line, tok.col, f"more than {_MAX_NESTING} nested groups and rrf calls")
        self.depth += 1
        expr = parse()
        self.depth -= 1
        return expr

    def parse_pipeline(self) -> PipelineExpr:
        parts = [self.parse_sum()]
        while self.at_op(">>"):
            self.advance()
            parts.append(self.parse_sum())
        return parts[0] if len(parts) == 1 else EThen(tuple(parts))

    def parse_sum(self) -> PipelineExpr:
        terms = [self.parse_term()]
        while self.at_op("+"):
            self.advance()
            terms.append(self.parse_term())
        if len(terms) == 1:
            weight, expr = terms[0]
            if weight is None:
                return expr
            return ELinear((expr,), (weight,))
        return ELinear(
            tuple(expr for _, expr in terms),
            tuple(1.0 if weight is None else weight for weight, _ in terms),
        )

    def parse_term(self) -> tuple[float | None, PipelineExpr]:
        if self.peek().kind == "NUMBER":
            tok = self.advance()
            weight = self.float_of(tok)
            if not math.isfinite(weight):
                raise ParseError(tok.line, tok.col, f"weight {tok.text} is not a finite number")
            self.expect_op("*")
            return weight, self.parse_atom()
        return None, self.parse_atom()

    def parse_atom(self) -> PipelineExpr:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "(":
            return self.nest(tok, self.parse_group)
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "rrf" and self.at_op("("):
                return self.nest(tok, self.parse_rrf)
            if self.at_op("("):
                self.advance()
                kwargs: tuple[tuple[str, object], ...] = ()
                if not self.at_op(")"):
                    kwargs = self.parse_kwargs()
                self.expect_op(")")
                return ERef(tok.text, kwargs)
            return ERef(tok.text)
        raise self.error(
            f"got {tok.text or 'end of input'!r}", expected={"IDENT", "FLOAT", "'('"}
        )

    def parse_group(self) -> PipelineExpr:
        self.expect_op("(")
        inner = self.parse_pipeline()
        self.expect_op(")")
        return inner

    def parse_rrf(self) -> ERRF:
        self.expect_op("(")
        children = [self.parse_pipeline()]
        k: float | None = None
        while self.at_op(","):
            self.advance()
            if self.peek().kind == "IDENT" and self.peek().text == "k" and self.at_op("=", 1):
                self.advance()
                self.advance()
                num = self.peek()
                if num.kind != "NUMBER":
                    raise self.error(f"got {num.text!r}", expected={"FLOAT"})
                self.advance()
                k = self.float_of(num)
                break
            children.append(self.parse_pipeline())
        if len(children) < 2:
            raise self.error("rrf needs at least two pipelines", expected={"','"})
        self.expect_op(")")
        return ERRF(tuple(children), k)

    def parse_kwargs(self) -> tuple[tuple[str, object], ...]:
        pairs = []
        while True:
            name = self.peek()
            if name.kind != "IDENT":
                raise self.error(f"got {name.text!r}", expected={"IDENT"})
            self.advance()
            self.expect_op("=")
            value = self.peek()
            if value.kind not in ("NUMBER", "STRING"):
                raise self.error(f"got {value.text!r}", expected={"FLOAT", "INT", "STRING"})
            self.advance()
            pairs.append((name.text, value.value))
            if not self.at_op(","):
                return tuple(pairs)
            self.advance()


def parse(src: str) -> PipelineExpr:
    """Parse a pipeline expression; raises :class:`ParseError` with position."""
    parser = _Parser(src)
    expr = parser.parse_pipeline()
    if parser.peek().kind != "EOF":
        raise parser.error(f"unexpected trailing input {parser.peek().text!r}")
    return expr


# --------------------------------------------------------------------------
# Elaboration and rendering
# --------------------------------------------------------------------------

Registry = Mapping[str, Callable[..., object]]


def elaborate(expr: PipelineExpr, registry: Registry) -> PipelineNode:
    """Resolve leaf names against *registry* and build the pipeline tree."""
    if isinstance(expr, ERef):
        factory = registry.get(expr.name)
        if factory is None:
            raise UnknownTransformer(expr.name)
        try:
            transformer = factory(**dict(expr.kwargs))
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadArgument(expr.name, str(exc)) from exc
        return Leaf(transformer, ref=(expr.name, expr.kwargs))
    if isinstance(expr, EThen):
        return reduce(then, (elaborate(c, registry) for c in expr.children))
    if isinstance(expr, ELinear):
        return Linear(tuple(elaborate(c, registry) for c in expr.children), expr.weights)
    if isinstance(expr, ERRF):
        k = DEFAULT_RRF_K if expr.k is None else expr.k
        return rr_fusion((elaborate(c, registry) for c in expr.children), k)
    raise TypeError(f"unknown expression: {expr!r}")


def _format_kwarg(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    return str(value)


# rendering context: how tightly the surrounding production binds
_SEQ, _SUM, _ATOM = 0, 1, 2


def _render(node: PipelineNode, level: int) -> str:
    if isinstance(node, Leaf):
        if node.ref is not None:
            name, kwargs = node.ref
            if kwargs:
                args = ", ".join(f"{k}={_format_kwarg(v)}" for k, v in kwargs)
                return f"{name}({args})"
            return name
        return node.transformer.name
    if isinstance(node, RRF):
        args = ", ".join(_render(c, _SEQ) for c in node.children)
        return f"rrf({args}, k={node.k!r})"
    if isinstance(node, Linear):
        body = " + ".join(
            f"{w!r}*{_render(c, _ATOM)}" for w, c in zip(node.weights, node.children)
        )
        return f"({body})" if level >= _ATOM else body
    if isinstance(node, Then):
        body = " >> ".join(_render(c, _SUM) for c in node.children)
        return f"({body})" if level >= _SUM else body
    raise TypeError(f"unknown pipeline node: {node!r}")


def render(node: PipelineNode) -> str:
    """Canonical textual form; re-parsing and elaborating reproduces the tree."""
    return _render(node, _SEQ)
