"""Command-line entry point: index, search, validate, inspect, schematic, serve."""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from pathlib import Path

from . import inspect as fr_inspect
from .algebra import execute
from .dsl import elaborate, parse, render
from .errors import FlowrankError, cols_str, path_str
from .frames import RANKING, read_topics, trec_lines
from .index import build_index, load_index, read_corpus, text_lines
from .mcp import ServerConfig, serve
from .schematic import build_schematic, render_html, render_text
from .transformers import registry


# lines per write of a TREC run: a write per line is a system call per line
# when stdout is unbuffered, one write in all holds the whole run twice
TREC_CHUNK_LINES = 4096


def _pipeline_source(arg: str) -> str:
    if arg.startswith("@"):
        return "".join(line for _, line in text_lines(arg[1:]))
    return arg


def _load_pipeline(index_dir: str, pipeline_arg: str):
    return elaborate(parse(_pipeline_source(pipeline_arg)), registry(load_index(index_dir)))


def _stdout():
    if sys.stdout is None:  # the shell closed it (`>&-`): fail as a closed pipe does
        raise BrokenPipeError("standard output is closed")
    return sys.stdout


def _column_set(arg: str) -> set[str]:
    return {c.strip() for c in arg.split(",") if c.strip()}


def cmd_index(args) -> int:
    stats = build_index(read_corpus(args.corpus), args.out)
    _stdout().write(f"indexed {stats.n_docs} documents ({stats.total_tokens} tokens) into {args.out}\n")
    return 0


def cmd_search(args) -> int:
    node = _load_pipeline(args.index, args.pipeline)
    topics = read_topics(args.topics)
    missing = RANKING - fr_inspect.output_columns(node, topics.columns)
    if missing:
        raise FlowrankError(f"pipeline output is not a ranking: missing columns {cols_str(missing)}")
    lines = trec_lines(execute(node, topics), args.tag)
    out = _stdout()
    while chunk := "".join(islice(lines, TREC_CHUNK_LINES)):
        out.write(chunk)
    return 0


def cmd_validate(args) -> int:
    node = _load_pipeline(args.index, args.pipeline)
    diagnostic = fr_inspect.validate(node, _column_set(args.input_columns))
    if diagnostic.ok:
        _stdout().write("ok\n")
        return 0
    print(diagnostic.message, file=sys.stderr)
    return 1


def cmd_inspect(args) -> int:
    node = _load_pipeline(args.index, args.pipeline)
    report = fr_inspect.io_report(node)
    lines = ["accepted inputs:", *(f"  {cols_str(a)} -> {cols_str(p)}" for a, p in report.items())]
    if not report:
        lines.append("  (none)")
    lines.append("subtransformers:")
    for path, t in fr_inspect.subtransformers(node):
        attrs = ", ".join(f"{k}={v}" for k, v in fr_inspect.attributes(t))
        lines.append(f"  {path_str(path)} {t.name}" + (f"  ({attrs})" if attrs else ""))
    _stdout().write("".join(f"{line}\n" for line in lines))
    return 0


def cmd_schematic(args) -> int:
    node = _load_pipeline(args.index, args.pipeline)
    accepted = fr_inspect.input_columns(node)
    if not accepted:
        raise FlowrankError("pipeline accepts no input configuration")
    graph = build_schematic(node, accepted[0])
    rendered = render_html(graph) if args.format == "html" else render_text(graph)
    if args.out:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            raise FlowrankError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        _stdout().write(rendered)
    return 0


def cmd_serve(args) -> int:
    index = load_index(args.index)
    reg = registry(index)
    pipelines = {}
    for entry in args.pipelines:
        name, sep, expr = entry.partition("=")
        if not sep or not name or not expr:
            raise FlowrankError(f"--pipelines entries must look like name=expr, got {entry!r}")
        if name in pipelines:
            raise FlowrankError(f"--pipelines names the tool {name!r} more than once")
        node = elaborate(parse(_pipeline_source(expr)), reg)
        pipelines[name] = (node, f"runs the retrieval pipeline {render(node)}")
    config = ServerConfig(host=args.host, port=args.port, pipelines=pipelines)
    server = serve(config)
    print(f"serving MCP on {server.url}", file=sys.stderr)
    try:
        server.join()
    except KeyboardInterrupt:
        server.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowrank",
        description="declarative retrieval pipelines: index, search, validate, inspect, draw, serve",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an index from a JSONL corpus")
    p.add_argument("--corpus", required=True, help="JSONL file with docno and text per line")
    p.add_argument("--out", required=True, help="index output directory")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="run a pipeline over topics, print a TREC run")
    p.add_argument("--index", required=True)
    p.add_argument("--pipeline", required=True, help="pipeline expression or @file")
    p.add_argument("--topics", required=True, help="TSV file: qid<TAB>query per line")
    p.add_argument("--tag", default="flowrank", help="run tag for the TREC output")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("validate", help="check pipeline column flow without executing it")
    p.add_argument("--index", required=True)
    p.add_argument("--pipeline", required=True)
    p.add_argument("--input-columns", default="qid,query", help="comma-separated input columns")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("inspect", help="print accepted inputs, outputs, and subtransformers")
    p.add_argument("--index", required=True)
    p.add_argument("--pipeline", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("schematic", help="render a pipeline schematic")
    p.add_argument("--index", required=True)
    p.add_argument("--pipeline", required=True)
    p.add_argument("--format", choices=("html", "text"), default="html")
    p.add_argument("--out", help="write to a file instead of standard output")
    p.set_defaults(func=cmd_schematic)

    p = sub.add_parser("serve", help="expose pipelines as MCP tools over HTTP")
    p.add_argument("--index", required=True)
    p.add_argument("--pipelines", nargs="+", required=True, metavar="NAME=EXPR")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the shell closed it
            sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except FlowrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader stopped early (`flowrank search ... | head`): what is left
        # in stdout's buffer goes to devnull, so the flush at exit cannot fail
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
