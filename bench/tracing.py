"""Spans and counts recorded around calls into flowrank, from outside it.

The library binds names with ``from .frames import rank_rows`` and the
like, so wrapping ``flowrank.frames.rank_rows`` alone would miss the calls
made through ``flowrank.transformers`` and ``flowrank.algebra``.
:meth:`Tracer.install` therefore replaces the function at every module
attribute of the package that is bound to it, and records which sites it
patched.  Pipeline leaves are wrapped per transformer instance the first
time ``execute`` sees their tree, and their spans are named by tree path
(``leaf[0.1]:wbm25``), the addresses validation and schematics use.

A span holds a name, start, end, parent span and op id.  Spans nest
strictly within a thread, so a span's self time is its duration minus the
durations of its direct children.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import itertools
import operator
import sys
import threading
import time
from collections import defaultdict

RETRIEVERS = ("bm25", "wbm25")


class Tracer:
    """Spans and counts of one process.

    With *auto_ops*, each top-level ``execute`` call in a thread starts a
    new op (the server child); otherwise the caller sets the op id.
    """

    def __init__(self, auto_ops: bool = False):
        # span: [name, start, end, parent, op]; parent is an index or -1
        self.spans: list[list] = []
        self.sites: dict[str, list[str]] = {}
        self._auto_ops = auto_ops
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: list[dict] = []
        self._calls: dict[str, itertools.count] = {}
        self._undo: list = []
        self._nodes_seen: dict[int, object] = {}
        self._next_op = 0

    # ----------------------------------------------------------------- spans

    def _state(self):
        local = self._local
        try:
            local.counts
        except AttributeError:
            local.stack, local.op, local.matched = [], -1, None
            local.counts = defaultdict(float)
            with self._lock:
                self._thread_counts.append(local.counts)
        return local

    def set_op(self, op: int) -> None:
        """Attribute spans opened by this thread from now on to *op*."""
        self._state().op = op

    def count(self, name: str, n: float = 1) -> None:
        self._state().counts[name] += n

    @property
    def counts(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        with self._lock:
            for counts in self._thread_counts:
                for name, n in counts.items():
                    total[name] += n
        for name, counter in self._calls.items():
            total[name] += _calls_made(counter)
        return dict(total)

    def span(self, name: str, fn, *args, **kwargs):
        state = self._state()
        record = [name, 0.0, 0.0, state.stack[-1] if state.stack else -1, state.op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        state.stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            state.stack.pop()

    def summary(self) -> dict:
        """Per span name: count, inclusive seconds and self seconds; plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list[float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            agg = by_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered
        return {"spans": by_name, "counts": self.counts, "sites": self.sites}

    # --------------------------------------------------------- instrumenting

    def install(self) -> None:
        """Wrap flowrank's public functions at every site that binds them.

        A function or method that no longer exists is skipped and recorded
        with no sites, so its metrics read 0 instead of the run failing.
        """
        modules = [m for name, m in sorted(sys.modules.items()) if name == "flowrank" or name.startswith("flowrank.")]
        frames, index = sys.modules["flowrank.frames"], sys.modules["flowrank.index"]
        algebra, mcp = sys.modules["flowrank.algebra"], sys.modules["flowrank.mcp"]
        inspect = sys.modules["flowrank.inspect"]

        def spanned(name, on_result=None):
            def factory(original):
                def wrapper(*args, **kwargs):
                    result = self.span(name, original, *args, **kwargs)
                    if on_result is not None:
                        on_result(args, result)
                    return result
                return wrapper
            return factory

        def counted(name):
            # called once per posting on the scoring path, so kept lean: a
            # C-level counter is thread-safe without a lock
            counter = self._calls[name] = itertools.count()

            def factory(original):
                def wrapper(*args):
                    next(counter)
                    return original(*args)
                return wrapper
            return factory

        def rerank_rows(args, result):
            self.count("frames.rerank_rows", len(result))

        self._patch_function(modules, frames, "rank_rows", spanned("frames.rank_rows"))
        self._patch_function(modules, frames, "sort_and_rank", spanned("frames.sort_and_rank", rerank_rows))
        self._patch_function(modules, frames, "join_on_docno", spanned("frames.join_on_docno"))
        self._patch_function(modules, frames, "format_trec_run", spanned("frames.format_trec_run"))
        self._patch_function(modules, inspect, "validate", spanned("inspect.validate"))
        self._patch_function(modules, index, "build_index", spanned("index.build_index"))
        self._patch_function(modules, index, "load_index", spanned("index.load_index"))
        self._patch_function(modules, index, "tokenize", counted("transformers.tokenize_calls"))
        self._patch_function(modules, mcp, "relation_to_json_rows", spanned("mcp.relation_to_json_rows"))
        self._patch_function(modules, mcp, "relation_to_text", spanned("mcp.relation_to_text"))
        self._patch_function(modules, algebra, "execute", self._execute_wrapper)

        relation = frames.Relation
        self._patch_method(relation, "from_dicts", spanned("frames.from_dicts"), static=True)

        def post_init(original):
            def wrapper(rel, *args, **kwargs):
                self.count("frames.rows_checked", len(rel.rows))
                return self.span("frames.post_init", original, rel, *args, **kwargs)
            return wrapper

        self._patch_method(relation, "__post_init__", post_init)

        def postings(original):
            def wrapper(ix, term, *args, **kwargs):
                if getattr(ix, "data_loaded", True):
                    plist = original(ix, term, *args, **kwargs)
                else:
                    plist = self.span("index.first_access", original, ix, term, *args, **kwargs)
                self.count("index.postings_entries", len(plist))
                matched = self._state().matched
                if matched is not None and plist:
                    matched.update(map(_doc_id_getter(plist[0]), plist))
                return plist
            return wrapper

        self._patch_method(index.Index, "postings", postings)
        self._patch_method(index.Index, "doc_by_id", counted("index.doc_lookups"))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def _patch_function(self, modules, home, attr, factory) -> None:
        sites = self.sites[f"{home.__name__}.{attr}"] = []
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapper = factory(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append(lambda mod=mod, name=name: setattr(mod, name, original))
                    sites.append(f"{mod.__name__}.{name}")

    def _patch_method(self, cls, attr, factory, static: bool = False) -> None:
        site = f"{cls.__module__}.{cls.__name__}.{attr}"
        descriptor = cls.__dict__.get(attr)
        if descriptor is None:
            self.sites[site] = []
            return
        original = descriptor.__func__ if static else descriptor
        wrapper = factory(original)
        setattr(cls, attr, staticmethod(wrapper) if static else wrapper)
        self._undo.append(lambda: setattr(cls, attr, descriptor))
        self.sites[site] = [site]

    def _execute_wrapper(self, original):
        subtransformers = sys.modules["flowrank.inspect"].subtransformers
        path_str = sys.modules["flowrank.errors"].path_str

        def wrapper(node, *args, **kwargs):
            if id(node) not in self._nodes_seen:
                self._nodes_seen[id(node)] = node
                for path, transformer in subtransformers(node):
                    self._wrap_leaf(transformer, f"leaf{path_str(path)}:{transformer.name}")
            state = self._state()
            if self._auto_ops and not state.stack:
                with self._lock:
                    state.op = self._next_op
                    self._next_op += 1
            return self.span("algebra.execute", original, node, *args, **kwargs)

        return wrapper

    def _wrap_leaf(self, transformer, name: str) -> None:
        original = transformer.fn
        if getattr(original, "traced_leaf", False):
            return
        retriever = transformer.name in RETRIEVERS

        def fn(rel):
            if not retriever:
                return self.span(name, original, rel)
            state = self._state()
            state.matched = set()
            try:
                out = self.span(name, original, rel)
            finally:
                matched, state.matched = state.matched, None
            self.count("retrieval.matched", len(matched))
            self.count("retrieval.returned", len(out))
            return out

        fn.traced_leaf = True
        transformer.fn = fn
        self._undo.append(lambda: setattr(transformer, "fn", original))


def _doc_id_getter(posting):
    return operator.attrgetter("doc_id") if hasattr(posting, "doc_id") else operator.itemgetter(0)


def _calls_made(counter) -> int:
    return int(repr(counter)[len("count(") : -1])
