"""Pipeline algebra: sequential chains, linear combination, rank fusion.

A pipeline is a finite immutable tree.  Sequential children run left to
right, feeding each output into the next stage.  Fusion nodes (linear
combination and reciprocal-rank fusion) run every child on the same input
relation and merge the resulting rankings over the union of (qid, docno)
pairs.  Execution always validates the whole tree against the input columns
first, so incompatibilities surface before any transformer runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator

from .errors import DataError, FlowrankError, InvalidK, ValidationError, WeightLengthMismatch
from .frames import Relation, _unique, dense_ranks, ordered, rank_tuples
from .transformers import Transformer

DEFAULT_RRF_K = 60.0


class PipelineNode:
    """Base class for pipeline tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(PipelineNode):
    """A single transformer.

    ``ref`` records the expression-language name and keyword arguments the
    leaf was elaborated from, when it came from a parsed expression; it lets
    the renderer reproduce the original call.
    """

    transformer: Transformer
    ref: tuple[str, tuple[tuple[str, object], ...]] | None = None


@dataclass(frozen=True)
class Then(PipelineNode):
    children: tuple[PipelineNode, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("a sequential node needs at least two children")


@dataclass(frozen=True)
class Linear(PipelineNode):
    children: tuple[PipelineNode, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("a linear node needs at least one child")
        if len(self.children) != len(self.weights):
            raise WeightLengthMismatch(len(self.children), len(self.weights))
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("linear weights must be finite")


@dataclass(frozen=True)
class RRF(PipelineNode):
    children: tuple[PipelineNode, ...]
    k: float = DEFAULT_RRF_K

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("rank fusion needs at least two children")
        if not (math.isfinite(self.k) and self.k > 0):
            raise InvalidK(self.k)


def leaf(transformer: Transformer) -> Leaf:
    return Leaf(transformer)


def then(a: PipelineNode, b: PipelineNode) -> Then:
    """Sequential composition; adjacent sequential nodes are flattened."""
    parts = []
    for node in (a, b):
        if isinstance(node, Then):
            parts.extend(node.children)
        else:
            parts.append(node)
    return Then(tuple(parts))


def linear(children, weights) -> Linear:
    """Weighted linear score combination of two or more pipelines."""
    children = tuple(children)
    weights = tuple(float(w) for w in weights)
    if len(children) < 2:
        raise ValueError("linear combination needs at least two children")
    return Linear(children, weights)


def rr_fusion(children, k: float = DEFAULT_RRF_K) -> RRF:
    """Reciprocal-rank fusion of two or more pipelines."""
    return RRF(tuple(children), float(k))


def execute(node: PipelineNode, rel: Relation) -> Relation:
    """Validate the pipeline against the input columns, then evaluate it.

    Raises :class:`ValidationError` before any transformer runs if the
    column flow is incompatible; execution-time errors carry the failing
    node's tree path.
    """
    from .inspect import validate  # deferred: inspect imports the node types

    diagnostic = validate(node, set(rel.columns))
    if not diagnostic.ok:
        raise ValidationError(diagnostic)
    return _run(node, rel, ())


def _run(node: PipelineNode, rel: Relation, path: tuple[int, ...]) -> Relation:
    try:
        if isinstance(node, Leaf):
            return node.transformer.transform(rel)
        if isinstance(node, Then):
            for i, child in enumerate(node.children):
                rel = _run(child, rel, path + (i,))
            return rel
        if isinstance(node, Linear):
            values = [lambda scores, ranks, w=w: map(mul, repeat(w), scores) for w in node.weights]
        elif isinstance(node, RRF):
            values = [lambda scores, ranks: [1.0 / (node.k + rank + 1) for rank in ranks]] * len(node.children)
        else:
            raise TypeError(f"unknown pipeline node: {node!r}")
        outputs = [_run(child, rel, path + (i,)) for i, child in enumerate(node.children)]
        contributions = [
            _contribution(out, value, path + (i,)) for i, (out, value) in enumerate(zip(outputs, values))
        ]
        fused = _fuse(outputs, contributions)
        if isinstance(node, Linear):
            _check_products(node.weights, outputs, contributions)
        return fused
    except FlowrankError as exc:
        # the deepest node attaches first: a child's error keeps its own path
        exc.attach_path(path)
        raise


def _contribution(
    out: Relation, value: Callable[[Iterator[float], Iterator[int]], Iterable], path: tuple[int, ...]
) -> dict[tuple[str, str], float]:
    """``value(scores, ranks)`` per ``(qid, docno)`` of one fusion child's output.

    The child is put in the engine's ranking order, whatever order or
    ranks it came with, and ranked by position; *value* maps its score and
    rank columns in that order to one value per row.  The child must hold
    each ``(qid, docno)`` at most once; an error carries the child's *path*.
    """
    try:
        q, s, d = map(out.columns.index, ("qid", "score", "docno"))
        rows = ordered(out.rows, s, d, q)
        keys = zip(map(itemgetter(q), rows), map(itemgetter(d), rows))
        contribution = dict(zip(keys, value(map(itemgetter(s), rows), dense_ranks(rows, q))))
        if len(contribution) != len(rows):
            _unique(list(zip(out.column("qid"), out.column("docno"))), "(qid, docno)")
    except FlowrankError as exc:
        exc.attach_path(path)
        raise
    return contribution


def _check_products(weights, outputs: list[Relation], contributions: list[dict]) -> None:
    """Raise :class:`DataError` where a ``weight * score`` overflowed from a finite score."""
    # a nonzero weight keeps an infinite score infinite, and 0 * inf is nan
    for weight, out, products in zip(weights, outputs, contributions):
        if sum(map(math.isinf, products.values())) > sum(map(math.isinf, out.column("score"))):
            raise DataError(f"weight {weight} times a score is not finite")


def _fuse(outputs: list[Relation], contributions: list[dict]) -> Relation:
    """Merge per-child (qid, docno) contributions into one ranked relation.

    A document missing from a child contributes zero.  The ``query`` column
    survives only when every child produced it; the first child retrieving a
    qid supplies its query value.  Scores are summed with ``math.fsum`` so
    the result is independent of child order; a sum that overflows, or
    that adds ``inf`` to ``-inf``, raises :class:`DataError`.
    """
    lead = ("qid", "query") if all("query" in out.columns for out in outputs) else ("qid",)
    keys = list(dict.fromkeys(chain.from_iterable(contributions)))
    try:
        # a child without a key adds 0.0, which leaves every fsum as it was
        totals = list(map(math.fsum, zip(*(map(c.get, keys, repeat(0.0)) for c in contributions))))
    except (OverflowError, ValueError) as exc:
        raise DataError(f"scores do not sum to a finite number ({exc})") from None
    cells: dict[str, tuple] = {}  # qid -> its cells in *lead*
    for out in outputs:
        for row in zip(*map(out.column, lead)):
            cells.setdefault(row[0], row)
    rows = [cells[qid] + (docno, total) for (qid, docno), total in zip(keys, totals)]
    return Relation._trusted(*rank_tuples(lead + ("docno", "score"), rows))
