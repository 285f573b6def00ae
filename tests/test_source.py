"""Static checks over the package source."""

import ast
from pathlib import Path

import siefring_kit

SOURCES = sorted(Path(siefring_kit.__file__).parent.glob("*.py"))


def test_no_bare_assert():
    # python -O strips assert statements, so none may guard an invariant
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
