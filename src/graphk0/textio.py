"""Line-oriented text format for graphs.

    vertex <id>
    edge <src> <dst> [<multiplicity>|inf]

``#`` starts a comment, blank lines are ignored, LF and CRLF both accepted.
Multiplicities default to 1 and accumulate across repeated ``edge`` lines;
``inf`` absorbs any finite count.  Parsing either succeeds or raises a
ParseError pointing at the offending line and column -- it never crashes,
whatever the input bytes.

The grammar is one whole-line regular expression per kind of line (vertex,
edge, blank or comment); tokens are separated by spaces and tabs only, and
a name is a ``graphs.NAME_RE`` word.  A line that none of them accepts, or
that names an undeclared vertex, redeclares one or gives a multiplicity of
0 or of too many digits, goes to ``_line_error``, which splits it into
tokens only to find the line, column and message of the error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

from .graphs import INF, NAME_RE, Graph

_NAME = NAME_RE.pattern
# trailing blanks, a comment, and the CR of a CRLF line ending
_END = r"[ \t]*(?:#.*)?\r?"
_VERTEX_LINE = re.compile(rf"[ \t]*vertex[ \t]+({_NAME}){_END}")
_EDGE_LINE = re.compile(rf"[ \t]*edge[ \t]+({_NAME})[ \t]+({_NAME})(?:[ \t]+(inf|[0-9]+))?{_END}")
_BLANK_LINE = re.compile(_END)
_NUM_RE = re.compile(r"[0-9]+")


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class GraphDocument:
    graph: Graph
    source_name: str


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens with their 1-based start columns."""
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        if line[i] in " \t":
            i += 1
            continue
        start = i
        while i < n and line[i] not in " \t":
            i += 1
        tokens.append((line[start:i], start + 1))
    return tokens


def _line_error(lineno: int, raw: str, declared: dict[str, int]) -> NoReturn:
    """Raise the ParseError of a line that the line grammar rejected, or
    that failed a check against the vertices ``declared`` before it: the
    line is split into tokens only to find the column and message."""
    line = raw[:-1] if raw.endswith("\r") else raw
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    tokens = _tokenize(line)
    keyword, kw_col = tokens[0] if tokens else ("", 1)
    if keyword == "vertex":
        if len(tokens) < 2:
            raise ParseError(lineno, kw_col, "vertex requires a name")
        if len(tokens) > 2:
            raise ParseError(lineno, tokens[2][1], "unexpected token after vertex name")
        name, col = tokens[1]
        if not NAME_RE.fullmatch(name):
            raise ParseError(lineno, col, f"invalid vertex name {name!r}")
        if name in declared:
            raise ParseError(lineno, col, f"duplicate vertex {name!r}")
    elif keyword == "edge":
        if len(tokens) < 3:
            raise ParseError(lineno, kw_col, "edge requires a source and a target")
        if len(tokens) > 4:
            raise ParseError(lineno, tokens[4][1], "unexpected token after multiplicity")
        for name, col in tokens[1:3]:
            if not NAME_RE.fullmatch(name):
                raise ParseError(lineno, col, f"invalid vertex name {name!r}")
            if name not in declared:
                raise ParseError(lineno, col, f"undeclared vertex {name!r}")
        if len(tokens) == 4:
            word, col = tokens[3]
            if word != "inf":
                if not _NUM_RE.fullmatch(word):
                    raise ParseError(lineno, col, f"invalid multiplicity {word!r}")
                try:
                    m = int(word)
                except ValueError:  # past the interpreter's int-string limit
                    raise ParseError(lineno, col, "multiplicity has too many digits") from None
                if m == 0:
                    raise ParseError(lineno, col, "multiplicity must be positive")
    elif tokens:
        raise ParseError(lineno, kw_col, f"unknown directive {keyword!r}")
    # the line regexes and the tokens disagree: the regexes are the grammar
    raise ParseError(lineno, 1, "malformed line")


def parse_graph(text: str | bytes, source_name: str = "<string>") -> GraphDocument:
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as err:
            prefix = bytes(text)[: err.start]
            line = prefix.count(b"\n") + 1
            column = err.start - (prefix.rfind(b"\n") + 1) + 1
            raise ParseError(line, column, "invalid UTF-8") from None

    vertices: list[str] = []
    declared: dict[str, int] = {}
    mult: dict[tuple[str, str], object] = {}
    edge_line = _EDGE_LINE.fullmatch
    vertex_line = _VERTEX_LINE.fullmatch
    blank_line = _BLANK_LINE.fullmatch

    for lineno, raw in enumerate(text.split("\n"), start=1):
        match = edge_line(raw)
        if match is not None:
            src, dst, word = match.groups()
            if src not in declared or dst not in declared:
                _line_error(lineno, raw, declared)
            if word is None:
                m: object = 1
            elif word == "inf":
                m = INF
            else:
                try:
                    m = int(word)
                except ValueError:  # past the interpreter's int-string limit
                    _line_error(lineno, raw, declared)
                if m == 0:
                    _line_error(lineno, raw, declared)
            current = mult.get((src, dst), 0)
            if current is INF or m is INF:
                mult[(src, dst)] = INF
            else:
                mult[(src, dst)] = current + m
            continue
        match = vertex_line(raw)
        if match is not None:
            name = match[1]
            if name in declared:
                _line_error(lineno, raw, declared)
            declared[name] = lineno
            vertices.append(name)
        elif blank_line(raw) is None:
            _line_error(lineno, raw, declared)

    return GraphDocument(graph=Graph(vertices, mult), source_name=source_name)


def serialize_graph(g: Graph) -> str:
    """Canonical text: vertices in declaration order, then edges sorted by
    (source order, target order); re-parsing yields an identical graph."""
    lines = [f"vertex {v}" for v in g.vertices]
    for src, dst, m in g.edges():
        if m is INF:
            lines.append(f"edge {src} {dst} inf")
        elif m == 1:
            lines.append(f"edge {src} {dst}")
        else:
            lines.append(f"edge {src} {dst} {m}")
    return "".join(line + "\n" for line in lines)
