"""Rules the source tree keeps."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qtrinom"


def test_no_assert_statements():
    # invariants are enforced by exceptions: python -O strips assert
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
