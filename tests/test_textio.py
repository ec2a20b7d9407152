import random

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
