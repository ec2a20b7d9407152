import ast
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import graphk0
from graphk0.linalg import smith_normal_form
from test_linalg import random_relation_matrix


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this checkout's graphk0 on its path."""
    src = os.path.dirname(os.path.dirname(graphk0.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_no_assert_statements_in_library():
    # soundness checks must survive `python -O`, which strips assert statements
    found = []
    for path in sorted(Path(graphk0.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_library_imports_only_the_standard_library():
    # graphk0 is stdlib-only: every import in the package is relative or
    # names a module of the standard library
    found = []
    for path in sorted(Path(graphk0.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {m}"
                for m in modules
                if m.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, found


def test_smith_form_unchanged_without_asserts():
    # the elimination holds no assert, so `python -O` must reach the same
    # Smith form, transforms included, on a relation matrix of 40 vertices
    a = random_relation_matrix(random.Random(40), 40)
    snf = smith_normal_form(a)
    fields = (snf.u, snf.v, snf.u_inv, snf.rank, snf.invariant_factors)
    script = textwrap.dedent(
        f"""
        from graphk0.linalg import smith_normal_form

        snf = smith_normal_form({a!r})
        print(__debug__, (snf.u, snf.v, snf.u_inv, snf.rank, snf.invariant_factors))
        """
    )
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"False {fields!r}\n"


def _bench_table(filename, name):
    """A constant table of a benchmark script, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "bench" / filename
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in bench/{filename}")


def test_bench_names_resolve_after_import():
    # the benchmark looks its modules up in sys.modules after importing
    # graphk0 and graphk0.cli, and its tracer wraps functions by name; a
    # module the package stops loading, or a renamed function, fails every
    # benchmark run, so check both tables in a fresh interpreter
    modules = _bench_table("run.py", "MODULES")
    traced = [(module, name) for module, name, _ in _bench_table("tracing.py", "TRACED")]
    script = textwrap.dedent(
        f"""
        import sys
        import graphk0, graphk0.cli

        missing = [m for m in {modules!r} if f"graphk0.{{m}}" not in sys.modules]
        missing += [
            f"{{m}}.{{f}}"
            for m, f in {traced!r}
            if not callable(getattr(sys.modules.get(f"graphk0.{{m}}"), f, None))
        ]
        print(missing)
        """
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_parser_builds_its_graph_through_the_module_global(monkeypatch):
    # the benchmark's tracer times graph construction by swapping
    # textio.Graph for a wrapper; a parser that built its Graph some other
    # way, or more than once, would hide that time from the build span
    from graphk0 import textio

    calls = []
    graph = textio.Graph

    def counted(*args, **kwargs):
        calls.append(args)
        return graph(*args, **kwargs)

    monkeypatch.setattr(textio, "Graph", counted)
    doc = textio.parse_graph("vertex a\nvertex b\nedge a b 2\nedge b a inf\n")
    assert len(calls) == 1
    assert doc.graph == graph(["a", "b"], {("a", "b"): 2, ("b", "a"): textio.INF})


def test_import_builds_no_parser():
    # the CLI builds its argparse parser on the first run call, not at
    # import: the benchmark's set-up and every one-shot process import
    # graphk0.cli, and a parser hoisted to module level would add its build
    # time to both
    script = textwrap.dedent(
        """
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counted
        import graphk0.cli

        on_import = list(built)
        graphk0.cli._build_parser()
        print(on_import, built[0])
        """
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] graphk0\n"


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


def test_no_unreferenced_private_helpers():
    # a top-level _name function or class, or a _name method or cached
    # property of a class, that nothing else in the package names is dead
    # code, such as a helper whose last caller was deleted
    def private(node):
        name = node.name
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, used = {}, set()
    for path in sorted(Path(graphk0.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            parts = [stmt]
            if isinstance(stmt, ast.ClassDef):
                parts = [*stmt.bases, *stmt.keywords, *stmt.decorator_list, *stmt.body]
            for node in parts:
                if isinstance(node, definitions) and private(node):
                    defined[node.name] = path.name
                # names inside a definition count only for the other
                # definitions, and those inside a class not for the class
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                names |= {
                    a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for a in n.names
                }
                used |= names - {getattr(stmt, "name", None), getattr(node, "name", None)}
    orphans = sorted(f"{path}:{name}" for name, path in defined.items() if name not in used)
    assert not orphans, orphans


def test_json_text_comes_from_one_emitter():
    # reports.emit_json writes the text of json.dumps(payload, indent=2)
    # without json's pure-Python encoder; a module calling json.dump or
    # json.dumps itself would be a second, untested path to JSON text
    dumpers = {"dump", "dumps"}
    found = []
    for path in sorted(Path(graphk0.__file__).parent.glob("*.py")):
        if path.name == "reports.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name in dumpers]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in dumpers
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_components_come_from_one_structure():
    # graphs.structure runs the one Tarjan pass per graph and caches what
    # every consumer reads; a module naming _components itself would be a
    # second pass over the same graph
    found = []
    for path in sorted(Path(graphk0.__file__).parent.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            names.append(getattr(node, "id", None) or getattr(node, "attr", None))
            if "_components" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_ktheory_solves_lps_only_for_relations():
    # the extreme traces are certified by walks, so the one simplex run left
    # in ktheory is the relaxation of _relation's integer program
    path = Path(graphk0.__file__).parent / "ktheory.py"
    callers = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "solve_lp":
            callers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    assert callers == {"_relation"}, callers


def test_cases_are_chosen_without_relations():
    # without extreme traces the case kept is picked by its rays, so
    # building the cases reads no relation and solves no LP
    path = Path(graphk0.__file__).parent / "ktheory.py"
    (cls,) = [
        node
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ClassDef) and node.name == "K0Presentation"
    ]
    (method,) = [node for node in cls.body if getattr(node, "name", None) == "_cases"]
    found = [
        node.lineno
        for node in ast.walk(method)
        if (isinstance(node, ast.Attribute) and node.attr in ("relation", "_relation"))
        or (isinstance(node, ast.Name) and node.id == "_relation")
    ]
    assert not found, found


def test_traces_solves_no_lp():
    # the NoTrace certificate is built from walks, so the trace module runs
    # no simplex at all
    path = Path(graphk0.__file__).parent / "traces.py"
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "solve_lp" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not calls, calls
