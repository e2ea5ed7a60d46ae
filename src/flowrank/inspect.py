"""Static inspection of pipelines: required inputs, produced outputs,
validation of column flow, constituent transformers, and attributes.

Everything here is computed from declared transformer specs by propagating
column-name sets through the tree; no transform procedure ever runs, so
inspection is safe on pipelines that would be expensive (or wrong) to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Leaf, Linear, PipelineNode, Then
from .errors import NotSatisfied, Uninspectable, cols_str, path_str
from .transformers import Transformer

# Columns every fusion child must produce for its ranking to be merged.
FUSION_CHILD_OUTPUT = frozenset({"qid", "docno", "score"})

FUSION_OUTPUT = frozenset({"qid", "docno", "score", "rank"})


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


@dataclass
class IoReport:
    """Accepted input column sets and the outputs produced for each."""

    accepted_inputs: list[frozenset[str]]
    outputs_for: dict[frozenset[str], frozenset[str]] = field(default_factory=dict)


def _node_label(node: PipelineNode) -> str:
    if isinstance(node, Leaf):
        return node.transformer.name
    if isinstance(node, Then):
        return "chain"
    if isinstance(node, Linear):
        return "linear"
    return "rrf"


def _failure(path, label, required, available) -> ValidationDiagnostic:
    missing = frozenset(required) - frozenset(available)
    return ValidationDiagnostic(
        ok=False,
        failing_path=tuple(path),
        missing=missing,
        available=frozenset(available),
        message=(
            f"invalid pipeline at {path_str(path)}: {label} requires "
            f"{cols_str(required)} but only {cols_str(available)} available"
        ),
    )


def _walk(node: PipelineNode, path: tuple[int, ...], cols: frozenset[str]):
    """Propagate *cols* through *node*; returns (ok, out_cols | diagnostic)."""
    if isinstance(node, Leaf):
        spec = node.transformer.spec
        if spec is None:
            return False, ValidationDiagnostic(
                ok=False,
                failing_path=path,
                missing=frozenset(),
                available=cols,
                message=(
                    f"invalid pipeline at {path_str(path)}: "
                    f"{node.transformer.name} declares no inspection spec"
                ),
            )
        matched = spec.match(cols)
        if matched is None:
            best = min(spec.accepted_inputs, key=lambda a: (len(a - cols), sorted(a)))
            return False, _failure(path, node.transformer.name, best, cols)
        out = spec.output_for(matched)
        if spec.passthrough:
            out = out | (cols - matched)
        return True, out
    if isinstance(node, Then):
        for i, child in enumerate(node.children):
            ok, result = _walk(child, path + (i,), cols)
            if not ok:
                return False, result
            cols = result
        return True, cols
    # fusion nodes: every child sees the same input and must yield a ranking
    label = _node_label(node)
    child_outputs = []
    for i, child in enumerate(node.children):
        ok, result = _walk(child, path + (i,), cols)
        if not ok:
            return False, result
        child_outputs.append(result)
    for i, out in enumerate(child_outputs):
        if not FUSION_CHILD_OUTPUT <= out:
            return False, _failure(path + (i,), f"{label} child output", FUSION_CHILD_OUTPUT, out)
    fused = FUSION_OUTPUT
    if all("query" in out for out in child_outputs):
        fused = fused | {"query"}
    return True, fused


def validate(node: PipelineNode, given) -> ValidationDiagnostic:
    """Check that *given* columns satisfy every stage; reports the first failure."""
    ok, result = _walk(node, (), frozenset(given))
    if ok:
        return ValidationDiagnostic(ok=True)
    return result


def output_columns(node: PipelineNode, given) -> frozenset[str]:
    """Columns the pipeline produces when fed exactly *given* columns."""
    ok, result = _walk(node, (), frozenset(given))
    if not ok:
        raise NotSatisfied(result)
    return result


def input_columns(node: PipelineNode) -> list[frozenset[str]]:
    """Input column sets that satisfy the whole pipeline, in declaration order.

    For a leaf these are its accepted sets.  For a chain they are the first
    child's accepted sets filtered by whole-chain propagation; for fusion
    nodes, the children's satisfying sets filtered the same way.
    """
    candidates = _candidate_inputs(node)
    out: list[frozenset[str]] = []
    for cand in candidates:
        if cand not in out and validate(node, cand).ok:
            out.append(cand)
    return out


def _candidate_inputs(node: PipelineNode) -> list[frozenset[str]]:
    if isinstance(node, Leaf):
        if node.transformer.spec is None:
            raise Uninspectable(node.transformer.name)
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


def io_report(node: PipelineNode) -> IoReport:
    report = IoReport(accepted_inputs=input_columns(node))
    for accepted in report.accepted_inputs:
        report.outputs_for[accepted] = output_columns(node, accepted)
    return report
