import argparse
import json
import random

import pytest

import graphk0.cli
import graphk0.traces
from graphk0.cli import run
from graphk0.textio import parse_graph


@pytest.fixture
def corpus(tmp_path):
    files = {
        "o2.graph": "vertex v\nedge v v 2\n",
        "o3.graph": "vertex v\nedge v v 3\n",
        "toeplitz.graph": "vertex v\nvertex w\nedge v v\nedge v w\n",
        "oinf.graph": "vertex v\nedge v v inf\n",
        "m2.graph": "vertex a\nvertex b\nedge a b\n",
        "m3.graph": "vertex a\nvertex b\nvertex c\nedge a b\nedge b c\n",
        "bad.graph": "vertex v\nedge v nope\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_k0_json(self, corpus, capsys):
        code, out, _ = invoke(capsys, "k0", corpus / "o3.graph", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["free_rank"] == 0
        assert payload["torsion"] == [2]
        assert payload["schema_version"] == 2
        assert set(payload["cone"]) == {"families"}

    def test_traces_no_trace(self, corpus, capsys):
        for extra in ((), ("--extremes",)):
            code, out, _ = invoke(capsys, "traces", corpus / "o2.graph", *extra)
            assert code == 0
            assert "no graph trace of norm 1" in out
            code, out, _ = invoke(capsys, "traces", corpus / "o2.graph", "--json", *extra)
            assert code == 0
            assert json.loads(out)["no_trace_certificate"]

    def test_member_not_member_exit_zero(self, corpus, capsys):
        code, out, _ = invoke(
            capsys, "member", corpus / "toeplitz.graph", "--element", '{"free":[-1]}'
        )
        assert code == 0
        assert "not a member" in out

    def test_missing_file(self, corpus, capsys):
        code, _, err = invoke(capsys, "k0", corpus / "missing.graph")
        assert code == 2
        assert "missing.graph" in err

    def test_parse_error(self, corpus, capsys):
        code, _, err = invoke(capsys, "k0", corpus / "bad.graph")
        assert code == 2
        assert "2:8" in err

    def test_usage_error(self, corpus, capsys):
        code = run(["definitely-not-a-command"])
        capsys.readouterr()
        assert code == 2

    def test_bad_element_json(self, corpus, capsys):
        code, _, err = invoke(
            capsys, "member", corpus / "o3.graph", "--element", "{bad"
        )
        assert code == 2

    def test_element_shape_mismatch(self, corpus, capsys):
        code, _, err = invoke(
            capsys, "member", corpus / "o3.graph", "--element", '{"free":[1]}'
        )
        assert code == 2

    def test_element_entries_must_be_integers(self, corpus, capsys):
        # JSON integers and decimal-integer strings are read; floats,
        # booleans, any other string or container, a key other than
        # "torsion" and "free", and nesting too deep to parse are usage errors
        for element in (
            '{"free":[-1.5]}',
            '{"free":[true]}',
            '{"free":[null]}',
            '{"free":["1.0"]}',
            '{"free":["1e3"]}',
            '{"free":[" 1"]}',
            '{"free":"5"}',
            '{"fre":[-1]}',
            '{"free":[-1],"torsoin":[]}',
            "[" * 5000,
        ):
            code, out, err = invoke(
                capsys, "member", corpus / "toeplitz.graph", "--element", element
            )
            assert (code, out) == (2, ""), element
            assert err.startswith("graphk0: bad --element: "), element
        for element in ('{"free":[-1]}', '{"free":["-1"]}', '{"free":["-%s"]}' % ("9" * 30)):
            code, _, err = invoke(
                capsys, "member", corpus / "toeplitz.graph", "--element", element
            )
            assert (code, err) == (0, ""), element

    def test_budget_checked_before_k0(self, corpus, capsys, monkeypatch):
        # a bad --budget is a usage error found before any K0 is computed
        def refuse(g):
            raise AssertionError("compute_k0 called")

        monkeypatch.setattr(graphk0.cli, "compute_k0", refuse)
        for argv in (
            ("member", corpus / "o3.graph", "--element", '{"free":[]}', "--budget", 0),
            ("compare", corpus / "o2.graph", corpus / "o3.graph", "--budget", 0),
        ):
            code, _, err = invoke(capsys, *argv)
            assert code == 2
            assert err == "graphk0: --budget must be positive\n"

    def test_depth_checked_before_loading(self, corpus, capsys):
        # a bad --depth is a usage error found before the file is read, so a
        # missing path reports the depth, not the path
        for command in ("desing", "consistency"):
            for depth in (0, -1):
                for path in (corpus / "missing.graph", corpus / "bad.graph", corpus / "o2.graph"):
                    code, out, err = invoke(capsys, command, path, "--depth", depth)
                    assert (code, out) == (2, "")
                    assert err == "graphk0: --depth must be positive\n"


class TestReports:
    def test_membership_member_json(self, corpus, capsys):
        code, out, _ = invoke(
            capsys,
            "member",
            corpus / "oinf.graph",
            "--element",
            '{"free":[-5]}',
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "member"
        assert payload["witness"]["families"][0]["emitter"] == "v"

    def test_predicates(self, corpus, capsys):
        code, out, _ = invoke(capsys, "predicates", corpus / "toeplitz.graph", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["condition_K"] is False
        assert payload["simple_loop_census"] == {"v": 1, "w": 0}
        assert payload["is_AF"] is False

    def test_desing_round_trips(self, corpus, capsys):
        code, out, _ = invoke(capsys, "desing", corpus / "oinf.graph", "--depth", "2")
        assert code == 0
        g = parse_graph(out).graph
        assert g.vertices == ("v", "v__t1", "v__t2")

    def test_desing_json(self, corpus, capsys):
        code, out, _ = invoke(
            capsys, "desing", corpus / "oinf.graph", "--depth", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "graph"
        assert {"source": "v", "target": "v", "multiplicity": 1} in payload["edges"]

    def test_compare(self, corpus, capsys):
        code, out, _ = invoke(capsys, "compare", corpus / "o2.graph", corpus / "o3.graph")
        assert code == 0
        assert "not isomorphic" in out

        code, out, _ = invoke(
            capsys, "compare", corpus / "m2.graph", corpus / "m3.graph", "--unit", "--json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "not_isomorphic"

        code, out, _ = invoke(
            capsys, "compare", corpus / "m2.graph", corpus / "m3.graph", "--json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "isomorphic_candidate"

    def test_consistency(self, corpus, capsys):
        code, out, _ = invoke(
            capsys, "consistency", corpus / "oinf.graph", "--depth", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "schema_version": 2,
            "kind": "consistency",
            "groups_match": True,
            "generator_correspondence_ok": True,
            "cone_prefix_ok": True,
        }

    def test_traces_extremes_json(self, corpus, capsys, monkeypatch):
        # with extreme traces at hand the no-trace certificate is not needed
        def refuse(g):
            raise AssertionError("no_trace called")

        monkeypatch.setattr(graphk0.cli, "no_trace", refuse)
        code, out, _ = invoke(capsys, "traces", corpus / "m2.graph", "--extremes", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["traces"] == [{"a": "1/2", "b": "1/2"}]
        assert payload["tracial_state_report"]["trace_count"] == 1

    def test_traces_finds_the_extreme_traces_once(self, corpus, capsys, monkeypatch):
        # extreme_traces reads the rays and their cone off one _cone_rays call
        calls = []
        true_rays = graphk0.traces._cone_rays

        def counted(g):
            calls.append(g)
            return true_rays(g)

        monkeypatch.setattr(graphk0.traces, "_cone_rays", counted)
        for name in ("m2.graph", "o2.graph"):
            for extra in ((), ("--extremes",)):
                calls.clear()
                code, _, _ = invoke(capsys, "traces", corpus / name, *extra)
                assert code == 0
                assert len(calls) == 1, (name, extra)

    def test_traces_builds_the_trace_cone_once(self, corpus, capsys, monkeypatch):
        # the rays and the check of the extreme traces share one cone; only
        # the walk certificate of a graph without traces builds its own
        builds = []
        true_cone = graphk0.ktheory.trace_cone

        def counted(g):
            builds.append(g)
            return true_cone(g)

        for module in (graphk0.ktheory, graphk0.traces):
            monkeypatch.setattr(module, "trace_cone", counted)
        for name, expected in (("m2.graph", 1), ("m3.graph", 1), ("o2.graph", 2)):
            for extra in ((), ("--extremes",), ("--extremes", "--json")):
                builds.clear()
                code, _, _ = invoke(capsys, "traces", corpus / name, *extra)
                assert code == 0
                assert len(builds) == expected, (name, extra)

    def test_deterministic_output(self, corpus, capsys):
        first = invoke(capsys, "k0", corpus / "toeplitz.graph", "--json")
        second = invoke(capsys, "k0", corpus / "toeplitz.graph", "--json")
        assert first == second


class TestRepeatedRuns:
    # run builds its parser once per process, so no call, failing ones
    # included, may change what a later call prints

    def calls(self, corpus):
        o3, m2, oinf = corpus / "o3.graph", corpus / "m2.graph", corpus / "oinf.graph"
        ok = [
            argv + extra
            for extra in ((), ("--json",))
            for argv in (
                ("k0", o3),
                ("predicates", m2),
                ("member", o3, "--element", '{"torsion":[1]}'),
                ("traces", m2),
                ("traces", m2, "--extremes"),
                ("desing", oinf, "--depth", 1),
                ("compare", m2, corpus / "m3.graph"),
                ("consistency", oinf, "--depth", 2),
            )
        ]
        failing = [
            (),
            ("k0", o3, "--nope"),
            ("member", o3),
            ("member", o3, "--element", '{"free":[]}', "--budget", 0),
            ("member", o3, "--element", "{bad"),
        ]
        return ok, failing, [("--help",), ("member", "--help")]

    def test_same_output_every_time(self, corpus, capsys):
        ok, failing, helps = self.calls(corpus)
        calls = ok + failing + helps
        first = {argv: invoke(capsys, *argv) for argv in calls}
        assert all(first[argv][0] == 0 and not first[argv][2] for argv in ok)
        assert all(first[argv][0] == 2 and first[argv][2] for argv in failing)
        for argv in helps:
            code, out, err = first[argv]
            assert (code, err) == (0, "") and out.startswith("usage: graphk0")
        rng = random.Random(3)
        for _ in range(2):
            rng.shuffle(calls)
            for argv in calls:
                assert invoke(capsys, *argv) == first[argv], argv

    def test_parser_built_once(self, corpus, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        graphk0.cli._build_parser.cache_clear()
        try:
            ok, failing, helps = self.calls(corpus)
            for argv in (ok + failing + helps) * 2:
                invoke(capsys, *argv)
        finally:
            graphk0.cli._build_parser.cache_clear()
        # the root parser and one per subcommand, each once
        assert built.count("graphk0") == 1
        assert len(built) == len(set(built)) == 8

    def test_help_follows_terminal_width(self, capsys, monkeypatch):
        # help is laid out when printed, so a cached parser still follows
        # the width of the terminal
        texts = {}
        for width in (40, 120, 40, 120):
            monkeypatch.setenv("COLUMNS", str(width))
            code, out, _ = invoke(capsys, "member", "--help")
            assert code == 0
            assert texts.setdefault(width, out) == out
        assert texts[40] != texts[120]


class TestBigIntegers:
    def test_big_ints_as_strings(self, tmp_path, capsys):
        n = 2**60
        (tmp_path / "big.graph").write_text(f"vertex v\nedge v v {n}\n")
        code, out, _ = invoke(capsys, "k0", tmp_path / "big.graph", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["torsion"] == [str(n - 1)]
        # round-trips through a generic JSON parser without loss
        assert int(payload["torsion"][0]) == n - 1


class TestJsonText:
    def test_json_output_is_json_dumps_text(self, corpus, capsys):
        # every --json subcommand prints exactly json.dumps(payload, indent=2):
        # a None or a bool written in Python's spelling has the length of its
        # JSON spelling but is not JSON, and o2.graph has no trace, so its
        # trace count is null
        names = ["o2.graph", "o3.graph", "toeplitz.graph", "oinf.graph", "m2.graph", "m3.graph"]
        runs = []
        for name in names:
            path = corpus / name
            runs += [
                ("k0", path),
                ("predicates", path),
                ("traces", path),
                ("traces", path, "--extremes"),
                ("consistency", path, "--depth", 2),
                ("desing", path, "--depth", 1),
            ]
            k = json.loads(invoke(capsys, "k0", path, "--json")[1])
            # -1, 3 and -3: torsion entries outside [0, d), read modulo d
            for t, f in ((1, 1), (0, -1), (-1, 0), (3, 1), (-3, -1)):
                element = {"torsion": [t] * len(k["torsion"]), "free": [f] * k["free_rank"]}
                runs.append(("member", path, "--element", json.dumps(element)))
            runs += [("compare", path, corpus / other) for other in names]
            runs.append(("compare", path, corpus / "toeplitz.graph", "--unit"))
        seen = set()
        for argv in runs:
            code, out, err = invoke(capsys, *argv, "--json")
            assert code in (0, 1) and not err, argv
            payload = json.loads(out)
            assert out == json.dumps(payload, indent=2) + "\n", argv
            seen.add((payload["kind"], payload.get("verdict")))
            if argv[0] == "traces" and argv[1].name == "o2.graph":
                assert payload["tracial_state_report"]["trace_count"] is None
        assert seen >= {
            ("membership", "member"),
            ("membership", "not_member"),
            ("comparison", "not_isomorphic"),
            ("comparison", "isomorphic_candidate"),
        }

    def test_torsion_entries_read_modulo_moduli(self, corpus, capsys):
        # o3.graph has K0 = Z/2: -1, 3 and -3 are the class 1
        path = corpus / "o3.graph"
        for extra in ((), ("--json",)):
            expected = invoke(capsys, "member", path, "--element", '{"torsion":[1]}', *extra)
            assert expected[0] == 0 and not expected[2]
            for t in (-1, 3, -3, "-3"):
                element = json.dumps({"torsion": [t]})
                got = invoke(capsys, "member", path, "--element", element, *extra)
                assert got == expected, (t, extra)
