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

from .errors import DataError, FlowrankError, InvalidK, ValidationError, WeightLengthMismatch
from .frames import Relation, rank_tuples, ranked, sort_and_rank
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
            outputs = [_run(child, rel, path + (i,)) for i, child in enumerate(node.children)]
            contributions = []
            for weight, out in zip(node.weights, outputs):
                q, d, s = _positions(out, "qid", "docno", "score")
                contributions.append({(row[q], row[d]): weight * row[s] for row in out.rows})
            return _fuse(outputs, contributions)
        if isinstance(node, RRF):
            outputs = [_run(child, rel, path + (i,)) for i, child in enumerate(node.children)]
            contributions = []
            for out in outputs:
                if out.kind.base != "R":
                    # an R frame already guarantees unique, non-null (qid, docno)
                    # keys; check any other child output as one
                    out = sort_and_rank(out)
                # re-ranked, not read: a custom child may order tied scores otherwise
                q, s, d = _positions(out, "qid", "score", "docno")
                contributions.append(
                    {(row[q], row[d]): 1.0 / (node.k + rank + 1) for row, rank in ranked(out.rows, q, s, d)}
                )
            return _fuse(outputs, contributions)
    except FlowrankError as exc:
        # the deepest node attaches first: a child's error keeps its own path
        exc.attach_path(path)
        raise
    raise TypeError(f"unknown pipeline node: {node!r}")


def _positions(rel: Relation, *names: str) -> tuple[int, ...]:
    return tuple(rel.schema.index_of(name) for name in names)


def _fuse(outputs: list[Relation], contributions: list[dict]) -> Relation:
    """Merge per-child (qid, docno) contributions into one ranked relation.

    A document missing from a child contributes zero.  The ``query`` column
    survives only when every child produced it; the first child retrieving a
    qid supplies its query value.  Scores are summed with ``math.fsum`` so
    the result is independent of child order; a sum that overflows, or
    that adds ``inf`` to ``-inf``, raises :class:`DataError`.
    """
    keep_query = all("query" in out.columns for out in outputs)
    parts: dict[tuple[str, str], list[float]] = {}
    for contrib in contributions:
        for key, value in contrib.items():
            parts.setdefault(key, []).append(value)
    try:
        totals = list(map(math.fsum, parts.values()))
    except (OverflowError, ValueError) as exc:
        raise DataError(f"scores do not sum to a finite number ({exc})") from None
    if not keep_query:
        rows = [(qid, docno, total) for (qid, docno), total in zip(parts, totals)]
        return Relation._trusted(*rank_tuples(("qid", "docno", "score"), rows))
    query_for: dict[str, str] = {}
    for out in outputs:
        q, t = _positions(out, "qid", "query")
        for row in out.rows:
            if row[q] not in query_for:
                query_for[row[q]] = row[t]
    rows = [(qid, query_for[qid], docno, total) for (qid, docno), total in zip(parts, totals)]
    return Relation._trusted(*rank_tuples(("qid", "query", "docno", "score"), rows))
