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
from typing import Iterable

from .errors import DataError, FlowrankError, InvalidK, WeightLengthMismatch
from .frames import RANKING, Relation, _unique_pairs, canonical_columns, rank_tuples
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
    from .inspect import flow  # deferred: inspect imports the node types

    flow(node, rel.columns)
    return _run(node, rel, ())


def _run(node: PipelineNode, rel: Relation, path: tuple[int, ...]) -> Relation:
    try:
        if isinstance(node, Leaf):
            return node.transformer.transform(rel)
        if isinstance(node, Then):
            for i, child in enumerate(node.children):
                rel = _run(child, rel, path + (i,))
            return rel
        if not isinstance(node, (Linear, RRF)):
            raise TypeError(f"unknown pipeline node: {node!r}")
        return _fuse(node, [_run(child, rel, path + (i,)) for i, child in enumerate(node.children)], path)
    except FlowrankError as exc:
        # the deepest node attaches first: a child's error keeps its own path
        exc.attach_path(path)
        raise


def fused_columns(child_columns: Iterable[Iterable[str]]) -> tuple[str, ...]:
    """The columns of a fusion node whose children produce *child_columns*.

    These are the ranking columns, plus ``query`` when every child produced
    it, in canonical order.  Inspection and execution both read them here.
    """
    query = {"query"} if all("query" in columns for columns in child_columns) else set()
    return tuple(canonical_columns(RANKING | query))


def _contribution(node: Linear | RRF, i: int, out: Relation, path: tuple[int, ...]) -> dict[tuple[str, str], float]:
    """Child *i*'s part of the fused score per ``(qid, docno)`` of its output *out*.

    The child is ranked by :func:`~flowrank.frames.rank_tuples`, whatever
    order or ranks it came with, unless it is marked ranked (see
    :meth:`Relation._trusted`).  Its part is ``weight * score`` under
    :class:`Linear` and ``1 / (k + rank + 1)`` under :class:`RRF`.  The
    child must hold each ``(qid, docno)`` at most once; an error carries the
    child's path, *path* of the fusion node plus *i*.
    """
    try:
        columns, rows = (out.columns, out.rows) if out._ranked else rank_tuples(out.columns, out.rows)
        q, s, d, r = map(columns.index, ("qid", "score", "docno", "rank"))
        keys = zip(map(itemgetter(q), rows), map(itemgetter(d), rows))
        if isinstance(node, Linear):
            values = map(mul, repeat(node.weights[i]), map(itemgetter(s), rows))
        else:
            values = [1.0 / (node.k + rank + 1) for rank in map(itemgetter(r), rows)]
        part = dict(zip(keys, values))
        if len(part) != len(rows):
            _unique_pairs(out.rows, q, d)
    except FlowrankError as exc:
        exc.attach_path(path + (i,))
        raise
    return part


def _fuse(node: Linear | RRF, outputs: list[Relation], path: tuple[int, ...]) -> Relation:
    """Merge the children's *outputs* into one ranked relation over :func:`fused_columns`.

    A document missing from a child contributes zero; the first child
    retrieving a qid supplies its query value.  Scores are summed with
    ``math.fsum`` so the result is independent of child order; a sum that
    overflows, or that adds ``inf`` to ``-inf``, raises :class:`DataError`,
    as does a ``weight * score`` that overflowed from a finite score.
    """
    parts = [_contribution(node, i, out, path) for i, out in enumerate(outputs)]
    keys = list(dict.fromkeys(chain.from_iterable(parts)))
    try:
        # a child without a key adds 0.0, which leaves every fsum as it was
        totals = list(map(math.fsum, zip(*(map(part.get, keys, repeat(0.0)) for part in parts))))
    except (OverflowError, ValueError) as exc:
        raise DataError(f"scores do not sum to a finite number ({exc})") from None
    if isinstance(node, Linear):
        # a nonzero weight keeps an infinite score infinite, and 0 * inf is nan
        for weight, out, part in zip(node.weights, outputs, parts):
            if sum(map(math.isinf, part.values())) > sum(map(math.isinf, out.column("score"))):
                raise DataError(f"weight {weight} times a score is not finite")
    columns = fused_columns(out.columns for out in outputs)
    lead = columns[: columns.index("docno")]  # qid, and query when every child has it
    cells: dict[str, tuple] = {}  # qid -> its cells in *lead*
    for out in outputs:
        for row in zip(*map(out.column, lead)):
            cells.setdefault(row[0], row)
    rows = [cells[qid] + (docno, total) for (qid, docno), total in zip(keys, totals)]
    # keys: a dict's, from the children's non-null qids and docnos
    return Relation._trusted(*rank_tuples(columns, rows), ranked=True)
