import ast
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
