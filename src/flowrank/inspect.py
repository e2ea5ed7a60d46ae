"""Static inspection of pipelines: required inputs, produced outputs,
validation of column flow, constituent transformers, and attributes.

Everything here is computed from declared transformer specs by propagating
column-name sets through the tree; no transform procedure ever runs, so
inspection is safe on pipelines that would be expensive (or wrong) to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algebra import Leaf, Linear, PipelineNode, Then, fused_columns
from .errors import ValidationError, cols_str, path_str
from .frames import RANKABLE
from .transformers import Transformer


@dataclass(frozen=True)
class ValidationDiagnostic:
    """Outcome of validating a pipeline against a set of input columns.

    When ``ok`` is false, ``failing_path`` points at the first failing stage
    (leftmost, outermost first), ``missing`` lists the columns it lacked, and
    ``available`` the columns present at that point.
    """

    ok: bool
    failing_path: tuple[int, ...] | None = None
    missing: frozenset[str] = frozenset()
    available: frozenset[str] = frozenset()
    message: str = "ok"


class FlowStep(NamedTuple):
    """Columns into and out of the node at *path*, labelled by its kind.

    A leaf's label is its transformer's name; other nodes are ``chain``,
    ``linear`` or ``rrf``.
    """

    path: tuple[int, ...]
    label: str
    inputs: frozenset[str]
    outputs: frozenset[str]


def _invalid(path, label, available, required) -> ValidationError:
    """The failure of the node at *path*: it requires *required* columns."""
    message = f"invalid pipeline at {path_str(path)}: {label} requires {cols_str(required)}"
    diagnostic = ValidationDiagnostic(
        ok=False,
        failing_path=tuple(path),
        missing=frozenset(required) - frozenset(available),
        available=frozenset(available),
        message=f"{message} but only {cols_str(available)} available",
    )
    return ValidationError(diagnostic)


def flow(node: PipelineNode, given) -> dict[tuple[int, ...], FlowStep]:
    """Propagate *given* columns through the tree, one step per node.

    The steps are keyed by tree path, in preorder.  This is the one place
    column sets are propagated; validation, output columns, schematics and
    tool descriptors all read it.  Raises :class:`ValidationError` with the
    first failure (leftmost, outermost first).
    """
    steps: dict[tuple[int, ...], FlowStep] = {}
    _flow(node, (), frozenset(given), steps)
    return steps


def _flow(node: PipelineNode, path: tuple[int, ...], cols: frozenset[str], steps: dict) -> frozenset[str]:
    """Record the step of *node* and of every node below it; returns its outputs."""
    steps[path] = None  # keeps preorder: a node's place precedes its children's
    if isinstance(node, Leaf):
        label, spec = node.transformer.name, node.transformer.spec
        out = spec.outputs_for(cols)
        if out is None:
            raise _invalid(path, label, cols, spec.closest(cols))
    elif isinstance(node, Then):
        label, out = "chain", cols
        for i, child in enumerate(node.children):
            out = _flow(child, path + (i,), out, steps)
    else:
        # fusion nodes: every child sees the same input and must yield a ranking
        label = "linear" if isinstance(node, Linear) else "rrf"
        child_outputs = [_flow(child, path + (i,), cols, steps) for i, child in enumerate(node.children)]
        for i, child_out in enumerate(child_outputs):
            if not RANKABLE <= child_out:
                raise _invalid(path + (i,), f"{label} child output", child_out, RANKABLE)
        out = frozenset(fused_columns(child_outputs))
    steps[path] = FlowStep(path, label, cols, out)
    return out


def validate(node: PipelineNode, given) -> ValidationDiagnostic:
    """Check that *given* columns satisfy every stage; reports the first failure."""
    try:
        flow(node, given)
    except ValidationError as exc:
        return exc.diagnostic
    return ValidationDiagnostic(ok=True)


def output_columns(node: PipelineNode, given) -> frozenset[str]:
    """Columns the pipeline produces when fed exactly *given* columns."""
    return flow(node, given)[()].outputs


def input_columns(node: PipelineNode) -> list[frozenset[str]]:
    """Input column sets that satisfy the whole pipeline, in declaration order.

    For a leaf these are its accepted sets.  For a chain they are the first
    child's accepted sets filtered by whole-chain propagation; for fusion
    nodes, the children's satisfying sets filtered the same way.
    """
    return list(io_report(node))


def io_report(node: PipelineNode) -> dict[frozenset[str], frozenset[str]]:
    """Each input column set that satisfies the pipeline -> the columns it
    produces, in declaration order, from one flow per candidate.
    """
    outputs_for: dict[frozenset[str], frozenset[str]] = {}
    for cand in _candidate_inputs(node):
        if cand not in outputs_for:
            try:
                outputs_for[cand] = flow(node, cand)[()].outputs
            except ValidationError:
                pass
    return outputs_for


def _candidate_inputs(node: PipelineNode) -> list[frozenset[str]]:
    if isinstance(node, Leaf):
        return list(node.transformer.spec.accepted_inputs)
    if isinstance(node, Then):
        return _candidate_inputs(node.children[0])
    candidates: list[frozenset[str]] = []
    for child in node.children:
        for cand in _candidate_inputs(child):
            if cand not in candidates:
                candidates.append(cand)
    return candidates


def subtransformers(node: PipelineNode) -> list[tuple[tuple[int, ...], Transformer]]:
    """All leaf transformers with their tree paths, in preorder."""
    found: list[tuple[tuple[int, ...], Transformer]] = []

    def visit(n: PipelineNode, path: tuple[int, ...]):
        if isinstance(n, Leaf):
            found.append((path, n.transformer))
        else:
            for i, child in enumerate(n.children):
                visit(child, path + (i,))

    visit(node, ())
    return found


def format_value(value) -> str:
    """Canonical text for attribute values: floats with six decimals."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def attributes(t: Transformer) -> list[tuple[str, str]]:
    """Declared attributes in stable order, values rendered canonically."""
    return [(name, format_value(value)) for name, value in t.attributes]
