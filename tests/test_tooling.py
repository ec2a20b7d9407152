import ast
import importlib
from pathlib import Path

import graphk0


def test_no_assert_statements_in_library():
    # soundness checks must survive `python -O`, which strips assert statements
    found = []
    for path in sorted(Path(graphk0.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_bench_traced_names_exist():
    # the benchmark's tracer wraps these functions by name and fails on a
    # renamed one; read its table without importing the benchmark
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    traced = None
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            traced = ast.literal_eval(node.value)
    assert traced, "no TRACED table in bench/tracing.py"
    missing = []
    for module, name, _ in traced:
        mod = importlib.import_module(f"graphk0.{module}")
        if not callable(getattr(mod, name, None)):
            missing.append(f"{module}.{name}")
    assert not missing, missing


def test_graph_walks_are_iterative():
    # a recursive walk overflows the interpreter stack on long cycles; keep
    # every function in graphs.py from calling itself
    path = Path(graphk0.__file__).parent / "graphs.py"
    found = []
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == fn.name) or (
                isinstance(callee, ast.Attribute)
                and callee.attr == fn.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                found.append(f"graphs.py:{node.lineno} {fn.name}")
    assert not found, found
