import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from graphk0.cli import run


def _schema():
    path = Path(__file__).resolve().parent.parent / "docs" / "report-schema.json"
    return json.loads(path.read_text())


CASES = [
    (["k0"], "vertex v\nedge v v 3\n"),
    (["k0"], "vertex v\nedge v v inf\n"),
    (["predicates"], "vertex v\nvertex w\nedge v v\nedge v w\n"),
    (["member", "--element", '{"free":[-1]}'], "vertex v\nvertex w\nedge v v\nedge v w\n"),
    (["member", "--element", '{"free":[-4]}'], "vertex v\nedge v v inf\n"),
    (["traces"], "vertex v\nedge v v 2\n"),
    (["traces", "--extremes"], "vertex a\nvertex b\n"),
    (["desing", "--depth", "2"], "vertex v\nedge v v inf\n"),
    (["consistency", "--depth", "2"], "vertex v\nedge v v inf\n"),
]


def test_cli_json_validates_against_shipped_schema(tmp_path, capsys):
    schema = _schema()
    validator = jsonschema.Draft202012Validator(schema)
    path = tmp_path / "input.graph"
    for argv, text in CASES:
        path.write_text(text)
        head = [argv[0], str(path)] if argv[0] != "compare" else argv
        code = run(head + argv[1:] + ["--json"])
        out = capsys.readouterr().out
        assert code == 0, (argv, out)
        payload = json.loads(out)
        validator.validate(payload)


def test_compare_json_validates(tmp_path, capsys):
    schema = _schema()
    validator = jsonschema.Draft202012Validator(schema)
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    a.write_text("vertex v\nedge v v 2\n")
    b.write_text("vertex v\nedge v v 3\n")
    for extra in ([], ["--unit"]):
        code = run(["compare", str(a), str(b), *extra, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        validator.validate(payload)
    b.write_text("vertex v\nedge v v 2\n")
    code = run(["compare", str(a), str(b), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "isomorphic_candidate"
    validator.validate(payload)


def test_schema_rejects_missing_witness_base_and_stray_cone_base(tmp_path, capsys):
    validator = jsonschema.Draft202012Validator(_schema())
    path = tmp_path / "input.graph"
    path.write_text("vertex v\nedge v v inf\n")
    assert run(["member", str(path), "--element", '{"free":[-4]}', "--json"]) == 0
    member = json.loads(capsys.readouterr().out)
    validator.validate(member)
    del member["witness"]["base"]
    assert not validator.is_valid(member)
    assert run(["k0", str(path), "--json"]) == 0
    k0 = json.loads(capsys.readouterr().out)
    validator.validate(k0)
    k0["cone"]["base"] = []
    assert not validator.is_valid(k0)
