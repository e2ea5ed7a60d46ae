"""Deterministic pipeline schematics: interactive HTML and ASCII renderings.

A schematic lays the pipeline out as a chain of transformer boxes with a
frame badge on every edge; fusion nodes become stacked lanes joined by a
fusion box.  Badges name the frame kind flowing over that edge and carry the
full inferred column set as a hover tooltip, so the diagram never contradicts
static inspection.  Rendering is a pure function of the graph: equal inputs
produce byte-identical output, with no scripts or external resources.
"""

from __future__ import annotations

import html
from dataclasses import dataclass

from .algebra import Leaf, Linear, PipelineNode, Then
from .frames import canonical_columns, classify_frame
from .inspect import attributes, flow, format_value


@dataclass(frozen=True)
class FrameBadge:
    """Frame kind abbreviation plus the full column set for the tooltip."""

    kind: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class Box:
    path: tuple[int, ...]
    title: str
    tooltip: str


@dataclass(frozen=True)
class Fork:
    path: tuple[int, ...]
    op: str
    params: tuple[tuple[str, str], ...]
    lanes: tuple[tuple, ...]  # each lane: tuple of (stage, badge-after) pairs


@dataclass(frozen=True)
class SchematicGraph:
    entry: FrameBadge
    items: tuple[tuple, ...]  # (stage, badge-after) pairs


def badge_kind(columns) -> str:
    """Badge abbreviation for a column set.

    Result frames conventionally carry the query along, so ``query`` does not
    mark an R badge as extended; any other extra column adds ``+``.
    """
    columns = set(columns)
    kind = classify_frame(columns)
    if kind.base == "R":
        kind = classify_frame(columns - {"query"})
    return kind.abbr


def _badge(columns) -> FrameBadge:
    return FrameBadge(badge_kind(columns), tuple(canonical_columns(columns)))


def build_schematic(node: PipelineNode, given) -> SchematicGraph:
    """Lay out a validated pipeline as stages and badges from *given* columns."""
    return SchematicGraph(_badge(given), tuple(_layout(node, (), flow(node, given))))


def _layout(node: PipelineNode, path, steps) -> list:
    """(stage, badge-after) pairs for *node*; a chain's stages join its parent's."""
    if isinstance(node, Then):
        return [item for i, child in enumerate(node.children) for item in _layout(child, path + (i,), steps)]
    step = steps[path]
    if isinstance(node, Leaf):
        t = node.transformer
        tooltip = "\n".join([t.description, *(f"{k}={v}" for k, v in attributes(t))])
        stage = Box(path, step.label, tooltip)
    else:
        if isinstance(node, Linear):
            params = tuple((f"w{i}", format_value(w)) for i, w in enumerate(node.weights))
        else:
            params = (("k", format_value(node.k)),)
        lanes = tuple(tuple(_layout(child, path + (i,), steps)) for i, child in enumerate(node.children))
        stage = Fork(path, step.label, params, lanes)
    return [(stage, _badge(step.outputs))]


# --------------------------------------------------------------------------
# ASCII rendering
# --------------------------------------------------------------------------


def _text_chain(entry: FrameBadge, items) -> list[str]:
    lines: list[str] = []
    cur = f"--{entry.kind}--> "
    prev = entry
    for stage, badge in items:
        if isinstance(stage, Box):
            cur += f"[{stage.title}] --{badge.kind}--> "
        else:
            prefix = f"--{prev.kind}--> "
            if cur != prefix:
                lines.append(cur.rstrip())
            for lane in stage.lanes:
                lines.extend(_text_chain(prev, lane))
            cur = f"}}={stage.op}=> --{badge.kind}--> "
        prev = badge
    lines.append(cur.rstrip())
    return lines


def render_text(g: SchematicGraph) -> str:
    """ASCII diagram: boxes as [name], badges as --Q-->, forks as stacked lanes."""
    return "\n".join(_text_chain(g.entry, g.items)) + "\n"


# --------------------------------------------------------------------------
# HTML rendering
# --------------------------------------------------------------------------

_STYLE_ROOT = (
    "display:flex;align-items:center;gap:8px;flex-wrap:wrap;"
    "font-family:monospace;font-size:13px;padding:6px"
)
_STYLE_BOX = (
    "border:1px solid #335577;border-radius:4px;padding:4px 10px;"
    "background:#eef4fb;cursor:help"
)
_STYLE_BADGE = "color:#224466;font-weight:bold;cursor:help;white-space:nowrap"
_STYLE_FORK = "display:flex;flex-direction:column;gap:6px;padding:2px"
_STYLE_LANE = "display:flex;align-items:center;gap:8px"
_STYLE_FUSION = (
    "border:1px solid #775533;border-radius:12px;padding:4px 10px;"
    "background:#fdf3e3;cursor:help"
)


def _attr(text: str) -> str:
    return html.escape(text, quote=True).replace("\n", "&#10;")


def _badge_html(badge: FrameBadge) -> str:
    tip = "columns: " + ", ".join(badge.columns)
    return (
        f'<span class="badge" data-frame="{badge.kind}" title="{_attr(tip)}" '
        f'style="{_STYLE_BADGE}">&ndash;{badge.kind}&rarr;</span>'
    )


def _path_attr(path) -> str:
    return ".".join(str(i) for i in path)


def _html_chain(entry: FrameBadge, items, out: list[str]):
    out.append(_badge_html(entry))
    prev = entry
    for stage, badge in items:
        if isinstance(stage, Box):
            out.append(
                f'<div class="box" data-path="{_path_attr(stage.path)}" '
                f'title="{_attr(stage.tooltip)}" style="{_STYLE_BOX}">{html.escape(stage.title)}</div>'
            )
        else:
            out.append(f'<div class="fork" style="{_STYLE_FORK}">')
            for lane in stage.lanes:
                out.append(f'<div class="lane" style="{_STYLE_LANE}">')
                _html_chain(prev, lane, out)
                out.append("</div>")
            out.append("</div>")
            tip = "\n".join(f"{k}={v}" for k, v in stage.params)
            out.append(
                f'<div class="fusion" data-fusion="{stage.op}" title="{_attr(tip)}" '
                f'style="{_STYLE_FUSION}">{stage.op}</div>'
            )
        out.append(_badge_html(badge))
        prev = badge


def render_html(g: SchematicGraph) -> str:
    """Self-contained interactive HTML snippet (hover tooltips, no scripts)."""
    out: list[str] = [f'<div class="schematic" data-schematic-version="1" style="{_STYLE_ROOT}">']
    _html_chain(g.entry, g.items, out)
    out.append("</div>")
    return "\n".join(out) + "\n"
