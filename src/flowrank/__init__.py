"""flowrank: declarative retrieval pipelines over typed relational frames.

Typed relations flow through composable transformers combined with
sequential chaining, weighted linear score combination, and reciprocal-rank
fusion.  Pipelines can be statically inspected and validated, rendered as
deterministic schematics, parsed from a small expression language, and
exposed as remotely callable tools over an MCP-style JSON-RPC HTTP server.
"""

from . import algebra, dsl, errors, frames, index, inspect, mcp, schematic, transformers
from .algebra import (
    DEFAULT_RRF_K,
    Leaf,
    Linear,
    PipelineNode,
    RRF,
    Then,
    execute,
    linear,
    rr_fusion,
    then,
)
from .errors import FlowrankError, MissingColumn, ValidationError
from .frames import (
    FrameKind,
    Relation,
    classify_frame,
    format_trec_run,
    join_on_docno,
    read_topics,
    sort_and_rank,
)
from .index import Index, IndexStats, build_index, load_index, tokenize
from .inspect import (
    ValidationDiagnostic,
    attributes,
    flow,
    input_columns,
    io_report,
    output_columns,
    subtransformers,
    validate,
)
from .mcp import ServerConfig, ToolDescriptor, relation_to_json_rows, relation_to_text, serve, tool_descriptor
from .schematic import SchematicGraph, build_schematic, render_html, render_text
from .transformers import (
    Bm25Params,
    SdmParams,
    Transformer,
    TransformerSpec,
    bm25_retriever,
    extractive_answerer,
    lexical_rescorer,
    registry,
    sdm_rewriter,
    text_loader,
    weighted_bm25_retriever,
)

__version__ = "0.1.0"
