"""Source-level rules of the package."""

from __future__ import annotations

import ast
import importlib
import pathlib
import sys

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


def test_every_export_exists():
    # A name left in __all__ after its definition is gone breaks ``import *``.
    modules = [importlib.import_module(f"normord.{path.stem}".removesuffix(".__init__"))
               for path in SOURCES]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert len(modules) == len(SOURCES) and not missing, missing


def test_private_triangle_names_stay_in_triangles():
    # Other modules read rows through the public readers (the CLI through
    # family_columns), never the walk's internals.
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES if path.name != "triangles.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("triangles", 1), ("normord.triangles", 0))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not found, found


def test_standard_library_only():
    # The package has no runtime dependencies: every import is relative or standard library.
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0)
        for name in ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
        if name != "__future__" and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert SOURCES and not found, found


def test_grammar_table_stays_in_grammar():
    # ``Grammar.derive`` is the one reader of its rule table; every other
    # module, the packed kernel among them, reads ``Grammar.rules``.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "grammar.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_table"
    ]
    assert not found, found
