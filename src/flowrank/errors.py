"""Exception hierarchy shared by all flowrank modules.

Every domain error derives from :class:`FlowrankError` and may carry the
tree path of the pipeline node it surfaced in (attached during execution).
"""

from __future__ import annotations


def path_str(path) -> str:
    """Render a tree path like ``(0, 1)`` as ``[0.1]`` (root is ``[]``)."""
    return "[" + ".".join(str(i) for i in path) + "]"


def cols_str(names) -> str:
    """Render a column set like ``{docno, qid}``, names sorted."""
    return "{" + ", ".join(sorted(names)) + "}"


class FlowrankError(Exception):
    """Base class for all domain errors."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.path: tuple[int, ...] | None = None

    def attach_path(self, path: tuple[int, ...]) -> None:
        """Record the pipeline-tree path of the failing node (first wins)."""
        if self.path is None:
            self.path = tuple(path)

    def __str__(self) -> str:
        if self.path is not None:
            return f"{self.message} (at pipeline node {path_str(self.path)})"
        return self.message


class DataError(FlowrankError):
    """A relation violates a structural invariant."""


class MissingColumn(FlowrankError):
    """An operation required columns that the input relation lacks."""

    def __init__(self, missing, required, present, who: str = ""):
        self.missing = frozenset(missing)
        self.required = frozenset(required)
        self.present = frozenset(present)
        prefix = f"{who}: " if who else ""
        super().__init__(
            f"{prefix}missing columns {cols_str(self.missing)}: "
            f"requires {cols_str(self.required)} but only {cols_str(self.present)} present"
        )


class UnknownDocno(FlowrankError):
    """A docno was looked up that the document store does not contain."""

    def __init__(self, docno: str):
        self.docno = docno
        super().__init__(f"unknown docno: {docno!r}")


class FormatError(FlowrankError):
    """An input file (topics TSV, corpus JSONL, pipeline) could not be read or parsed."""


class DuplicateDocno(FlowrankError):
    def __init__(self, docno: str):
        self.docno = docno
        super().__init__(f"duplicate docno in corpus: {docno!r}")


class EmptyCorpus(FlowrankError):
    def __init__(self):
        super().__init__("corpus is empty: at least one document is required")


class IndexIOError(FlowrankError):
    """Reading or writing index files failed; message names the path."""


class CorruptIndex(FlowrankError):
    """An index file is missing, unparseable, or internally inconsistent."""

    def __init__(self, file: str, detail: str):
        self.file = file
        super().__init__(f"corrupt index file {file}: {detail}")


class VersionMismatch(FlowrankError):
    def __init__(self, found, expected):
        super().__init__(f"index format version {found!r} not supported (expected {expected})")


class EmptyQuery(FlowrankError):
    def __init__(self, qid: str):
        self.qid = qid
        super().__init__(f"query {qid!r} tokenizes to zero tokens")


class MalformedWeightedQuery(FlowrankError):
    """A weighted query string failed to parse; carries the failure offset."""

    def __init__(self, position: int, detail: str):
        self.position = position
        super().__init__(f"malformed weighted query at offset {position}: {detail}")


class WeightLengthMismatch(FlowrankError):
    def __init__(self, n_children: int, n_weights: int):
        super().__init__(f"linear combination has {n_children} children but {n_weights} weights")


class InvalidK(FlowrankError):
    def __init__(self, k):
        super().__init__(f"rank fusion constant must be finite and > 0, got {k!r}")


class ValidationError(FlowrankError):
    """A pipeline failed pre-execution column-flow validation."""

    def __init__(self, diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


class ParseError(FlowrankError):
    """Pipeline-expression syntax error with position and expected tokens."""

    def __init__(self, line: int, col: int, detail: str, expected=()):
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        exp = f" (expected {', '.join(sorted(self.expected))})" if self.expected else ""
        super().__init__(f"{line}:{col}: {detail}{exp}")


class UnknownTransformer(FlowrankError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown transformer: {name!r}")


class BadArgument(FlowrankError):
    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"bad argument for {name!r}: {detail}")


class NotServable(FlowrankError):
    """A pipeline cannot be exposed as a tool (not satisfiable from a query frame)."""

    def __init__(self, name: str, diagnostic):
        self.diagnostic = diagnostic
        super().__init__(f"pipeline {name!r} is not servable from {{qid, query}}: {diagnostic.message}")


class BindError(FlowrankError):
    def __init__(self, host: str, port: int, reason: str):
        super().__init__(f"cannot bind {host}:{port}: {reason}")
