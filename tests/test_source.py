"""Source-level rules of the package."""

from __future__ import annotations

import ast
import pathlib

import normord

SOURCES = sorted(pathlib.Path(normord.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # Invariants are raised as errors: ``python -O`` strips every assert.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
