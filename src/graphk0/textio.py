"""Line-oriented text format for graphs.

    vertex <id>
    edge <src> <dst> [<multiplicity>|inf]

``#`` starts a comment, blank lines are ignored, LF and CRLF both accepted.
Multiplicities default to 1 and accumulate across repeated ``edge`` lines;
``inf`` absorbs any finite count.  Parsing either succeeds or raises a
ParseError pointing at the offending line and column -- it never crashes,
whatever the input bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graphs import INF, Graph

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_NUM_RE = re.compile(r"[0-9]+\Z")


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

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        tokens = _tokenize(line)
        if not tokens:
            continue
        keyword, kw_col = tokens[0]
        if keyword == "vertex":
            if len(tokens) < 2:
                raise ParseError(lineno, kw_col, "vertex requires a name")
            if len(tokens) > 2:
                raise ParseError(lineno, tokens[2][1], "unexpected token after vertex name")
            name, col = tokens[1]
            if not _ID_RE.match(name):
                raise ParseError(lineno, col, f"invalid vertex name {name!r}")
            if name in declared:
                raise ParseError(lineno, col, f"duplicate vertex {name!r}")
            declared[name] = lineno
            vertices.append(name)
        elif keyword == "edge":
            if len(tokens) < 3:
                raise ParseError(lineno, kw_col, "edge requires a source and a target")
            if len(tokens) > 4:
                raise ParseError(lineno, tokens[4][1], "unexpected token after multiplicity")
            src, src_col = tokens[1]
            dst, dst_col = tokens[2]
            for name, col in ((src, src_col), (dst, dst_col)):
                if not _ID_RE.match(name):
                    raise ParseError(lineno, col, f"invalid vertex name {name!r}")
                if name not in declared:
                    raise ParseError(lineno, col, f"undeclared vertex {name!r}")
            if len(tokens) == 4:
                word, col = tokens[3]
                if word == "inf":
                    m: object = INF
                elif _NUM_RE.match(word):
                    try:
                        m = int(word)
                    except ValueError:  # past the interpreter's int-string limit
                        raise ParseError(
                            lineno, col, "multiplicity has too many digits"
                        ) from None
                    if m == 0:
                        raise ParseError(lineno, col, "multiplicity must be positive")
                else:
                    raise ParseError(lineno, col, f"invalid multiplicity {word!r}")
            else:
                m = 1
            current = mult.get((src, dst), 0)
            if current is INF or m is INF:
                mult[(src, dst)] = INF
            else:
                mult[(src, dst)] = current + m
        else:
            raise ParseError(lineno, kw_col, f"unknown directive {keyword!r}")

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
