import random
import re

import pytest

from graphk0.graphs import INF, Graph
from graphk0.textio import GraphDocument, ParseError, parse_graph, serialize_graph


class TestParse:
    def test_two_loop(self):
        doc = parse_graph("vertex v\nedge v v 2")
        assert doc.graph == Graph(["v"], {("v", "v"): 2})

    def test_toeplitz(self):
        doc = parse_graph("vertex v\nvertex w\nedge v v\nedge v w")
        assert doc.graph == Graph(["v", "w"], {("v", "v"): 1, ("v", "w"): 1})

    def test_undeclared_vertex(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("vertex v\nedge v w")
        assert exc.value.line == 2
        assert exc.value.column == 8

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("vertex v\nvertex v")
        assert (exc.value.line, exc.value.column) == (2, 8)

    def test_zero_multiplicity(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("vertex v\nedge v v 0")
        assert (exc.value.line, exc.value.column) == (2, 10)

    def test_bad_multiplicity(self):
        with pytest.raises(ParseError):
            parse_graph("vertex v\nedge v v -3")
        with pytest.raises(ParseError):
            parse_graph("vertex v\nedge v v many")

    def test_multiplicity_past_int_string_limit(self):
        # Python refuses to read an int of more than 4300 digits from a string
        with pytest.raises(ParseError) as exc:
            parse_graph("vertex v\nedge v v " + "9" * 5000)
        assert (exc.value.line, exc.value.column) == (2, 10)
        assert exc.value.message == "multiplicity has too many digits"

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("node v")
        assert (exc.value.line, exc.value.column) == (1, 1)

    def test_comments_and_blanks(self):
        doc = parse_graph("# a comment\n\nvertex v  # trailing\n\nedge v v inf\n")
        assert doc.graph == Graph(["v"], {("v", "v"): INF})

    def test_crlf(self):
        doc = parse_graph("vertex v\r\nedge v v 2\r\n")
        assert doc.graph == Graph(["v"], {("v", "v"): 2})

    def test_accumulation(self):
        doc = parse_graph("vertex v\nedge v v\nedge v v 2")
        assert doc.graph.multiplicity("v", "v") == 3
        doc = parse_graph("vertex v\nedge v v inf\nedge v v 5")
        assert doc.graph.multiplicity("v", "v") is INF

    def test_bytes_input(self):
        doc = parse_graph(b"vertex v\nedge v v 2\n")
        assert doc.graph.multiplicity("v", "v") == 2
        with pytest.raises(ParseError):
            parse_graph(b"vertex \xff\n")

    def test_source_name(self):
        doc = parse_graph("", source_name="empty.graph")
        assert doc == GraphDocument(graph=Graph([], {}), source_name="empty.graph")


class TestSerialize:
    def test_two_loop(self):
        assert serialize_graph(Graph(["v"], {("v", "v"): 2})) == "vertex v\nedge v v 2\n"

    def test_infinite(self):
        assert serialize_graph(Graph(["v"], {("v", "v"): INF})) == "vertex v\nedge v v inf\n"

    def test_empty(self):
        assert serialize_graph(Graph([], {})) == ""

    def test_multiplicity_one_implicit(self):
        g = Graph(["a", "b"], {("a", "b"): 1})
        assert serialize_graph(g) == "vertex a\nvertex b\nedge a b\n"


class TestRoundTrip:
    def test_random_graphs(self):
        rng = random.Random(1010)
        for _ in range(100):
            n = rng.randint(0, 6)
            names = [f"n{i}" for i in range(n)]
            mult = {}
            for src in names:
                for dst in names:
                    if rng.random() < 0.3:
                        mult[(src, dst)] = INF if rng.random() < 0.2 else rng.randint(1, 9)
            g = Graph(names, mult)
            text = serialize_graph(g)
            again = parse_graph(text).graph
            assert again == g
            assert serialize_graph(again) == text

    def test_fuzz_no_crash(self):
        rng = random.Random(321)
        outcomes = {"ok": 0, "error": 0}
        for _ in range(1500):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
            try:
                parse_graph(blob)
                outcomes["ok"] += 1
            except ParseError:
                outcomes["error"] += 1
        assert outcomes["error"] > 0

    def test_fuzz_structured(self):
        # byte soup biased towards format keywords reaches deeper code paths
        rng = random.Random(654)
        words = [b"vertex", b"edge", b"inf", b"v", b"w", b"2", b"#", b"\n", b" ", b"\xc3"]
        for _ in range(800):
            blob = b"".join(rng.choice(words) for _ in range(rng.randrange(0, 40)))
            try:
                parse_graph(blob)
            except ParseError:
                pass


_REF_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_REF_NUM_RE = re.compile(r"[0-9]+\Z")


def _reference_tokenize(line):
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


def reference_parse(text):
    """Oracle: the tokenizer parser that the line regexes of parse_graph
    replaced, on str input.  Returns the Graph or raises ParseError."""
    vertices = []
    declared = {}
    mult = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        tokens = _reference_tokenize(line)
        if not tokens:
            continue
        keyword, kw_col = tokens[0]
        if keyword == "vertex":
            if len(tokens) < 2:
                raise ParseError(lineno, kw_col, "vertex requires a name")
            if len(tokens) > 2:
                raise ParseError(lineno, tokens[2][1], "unexpected token after vertex name")
            name, col = tokens[1]
            if not _REF_ID_RE.match(name):
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
                if not _REF_ID_RE.match(name):
                    raise ParseError(lineno, col, f"invalid vertex name {name!r}")
                if name not in declared:
                    raise ParseError(lineno, col, f"undeclared vertex {name!r}")
            if len(tokens) == 4:
                word, col = tokens[3]
                if word == "inf":
                    m = INF
                elif _REF_NUM_RE.match(word):
                    try:
                        m = int(word)
                    except ValueError:
                        raise ParseError(lineno, col, "multiplicity has too many digits") from None
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
    return Graph(vertices, mult)


_NAMES = ["a", "b", "c", "v_1", "X9"]
_MULTIPLICITIES = ["1", "2", "0", "007", "inf", "inf", "9" * 5000, "0" * 5000, "-1", "2.0", "inf2"]
# characters that are not token separators, a BOM among them
_STRAY = ["\xa0", "\x0c", "\r", "\ufeff", "\v", "-", "\xe9", "#", "#x"]
_SOUP = ["vertex", "edge", "node", "Vertex", "inf", "#", "a", "b", "zz", "3", "0"]


def _fuzz_line(rng):
    shape = rng.random()
    if shape < 0.25:
        tokens = ["vertex", rng.choice(_NAMES + ["zz"])]
    elif shape < 0.7:
        tokens = ["edge", rng.choice(_NAMES), rng.choice(_NAMES + ["zz"])]
        if rng.random() < 0.6:
            tokens.append(rng.choice(_MULTIPLICITIES))
    elif shape < 0.8:
        tokens = []
    else:
        tokens = [rng.choice(_SOUP) for _ in range(rng.randrange(1, 6))]
    if tokens and rng.random() < 0.1:
        tokens.append(rng.choice(_SOUP))  # an extra token
    if tokens and rng.random() < 0.15:
        i = rng.randrange(len(tokens))
        j = rng.randrange(len(tokens[i]) + 1)
        tokens[i] = tokens[i][:j] + rng.choice(_STRAY) + tokens[i][j:]
    seps = [" ", "\t", " \t ", "  "]
    line = "".join(tok + rng.choice(seps) for tok in tokens[:-1]) + "".join(tokens[-1:])
    if rng.random() < 0.2:
        line = rng.choice(seps) + line
    if rng.random() < 0.2:
        line += rng.choice(seps)
    if rng.random() < 0.15:
        line += rng.choice(["#", "# note", "#\r", "##edge a b 0"])
    return line


def _fuzz_text(rng):
    lines = []
    if rng.random() < 0.7:
        lines += [f"vertex {v}" for v in _NAMES]
    lines += [_fuzz_line(rng) for _ in range(rng.randrange(0, 12))]
    text = "".join(line + rng.choice(["\n", "\n", "\r\n"]) for line in lines)
    if rng.random() < 0.3:
        text = text.rstrip("\n")
    if rng.random() < 0.05:
        text = "\ufeff" + text
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return (err.line, err.column, err.message)


class TestAgainstReference:
    def test_seeded_fuzz(self):
        rng = random.Random(2804)
        kinds = {}
        for _ in range(4000):
            text = _fuzz_text(rng)
            got = _outcome(lambda t: parse_graph(t).graph, text)
            want = _outcome(reference_parse, text)
            assert got == want, text
            kind = "graph" if isinstance(want, Graph) else want[2].split(" '")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        # the fuzz reaches a graph and every message of the format
        assert set(kinds) == {
            "graph",
            "invalid vertex name",
            "duplicate vertex",
            "undeclared vertex",
            "vertex requires a name",
            "unexpected token after vertex name",
            "edge requires a source and a target",
            "unexpected token after multiplicity",
            "invalid multiplicity",
            "multiplicity must be positive",
            "multiplicity has too many digits",
            "unknown directive",
        }, kinds
        assert min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize(
        "text",
        [
            "vertex a\r\nvertex b\r\nedge a b inf\r\nedge a b 3\r\nedge b a 007\n",
            "vertex a\nedge a a 2\nedge a a inf\nedge a a\n",
            "\ufeffvertex a\n",
            "vertex a\r\r\n",
            "vertex a\ra\n",
            "vertex\xa0a\n",
            "vertex a\x0c\n",
            "vertex a\t#\tcomment\r\n\tedge\ta\ta\t#\n",
            "vertex a\nedge a a 0\n",
            "vertex a\nedge a a " + "9" * 5000 + "\n",
            "vertex a\nedge a a " + "0" * 5000 + "\n",
            "vertex a\nedge a a inf2\n",
            "vertex a\nedge a b 0\n",
            "vertex a\nedge a a 1 2\n",
            "vertex a\nvertex a b\n",
            "\r\n \t\r\n#\r\r\n",
            "\r\r\n",
        ],
    )
    def test_corner_cases(self, text):
        got = _outcome(lambda t: parse_graph(t).graph, text)
        assert got == _outcome(reference_parse, text)
